"""Truncated integer series over a trace monoid: the result type of `mu`.

The monoid ring is graded by trace length; everything of degree >= cap is
discarded, so a series is a finite map from traces of length < cap to nonzero
integers.  All arithmetic is exact (unbounded ints).  `magnus` computes images
on its own int-coded kernel and returns them as `TruncatedSeries` values to
be read: coefficients, degree parts, the least positive degree, equality and
printing.  The one ring operation kept is the product, which multiplies
images (mu(u) * mu(v) == mu(u v)) and which perfbench traces.
"""

from __future__ import annotations

from .words import Trace, _digits, check_int

_CAP_MESSAGE = "cap must be a positive integer, got {!r}"


class TruncatedSeries:
    """Finite Z-linear combination of traces of length < cap, such as `mu`'s
    image of a word.

    Normalized on construction: duplicate traces merged, zero coefficients
    and over-cap terms dropped, terms kept in (degree, lex) order.  Treat
    `terms` as read-only.
    """

    __slots__ = ("graph", "cap", "terms")

    def __init__(self, graph, cap, terms=()):
        check_int(cap, 1, _CAP_MESSAGE)
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for trace, coeff in items:
            if trace.graph != graph:
                raise ValueError("term trace lives over a different graph")
            if trace.length >= cap or coeff == 0:
                continue
            acc[trace] = acc.get(trace, 0) + coeff
        ordered = {}
        for trace in sorted(acc, key=Trace.sort_key):
            if acc[trace] != 0:
                ordered[trace] = acc[trace]
        self.graph = graph
        self.cap = cap
        self.terms = ordered

    @classmethod
    def _trusted(cls, graph, cap, terms):
        """A series from a dict already normalized as `terms` is; nothing is checked."""
        series = object.__new__(cls)
        series.graph = graph
        series.cap = cap
        series.terms = terms
        return series

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.graph != other.graph:
            raise ValueError("series live over different graphs")
        if self.cap != other.cap:
            raise ValueError(f"mixed caps {self.cap} and {other.cap}")
        cap = self.cap
        acc = {}
        for t1, c1 in self.terms.items():
            room = cap - t1.length
            for t2, c2 in other.terms.items():
                if t2.length >= room:
                    break  # terms are in degree order; the rest only get longer
                product = t1 * t2
                acc[product] = acc.get(product, 0) + c1 * c2
        return TruncatedSeries(self.graph, cap, acc)

    def coefficient(self, trace):
        """Coefficient of a trace (0 if absent)."""
        if trace.graph != self.graph:
            raise ValueError("trace lives over a different graph")
        return self.terms.get(trace, 0)

    def degree_part(self, k):
        """The sub-series of exactly-degree-k terms."""
        if not 0 <= k < self.cap:
            raise ValueError(f"degree {k} out of range [0, {self.cap})")
        return TruncatedSeries(self.graph, self.cap,
                               [(t, c) for t, c in self.terms.items() if t.length == k])

    def min_positive_degree(self):
        """Least d >= 1 with a nonzero degree-d term, or None."""
        for trace in self.terms:
            if trace.length >= 1:
                return trace.length
        return None

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.graph == other.graph and self.cap == other.cap
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for trace, coeff in self.terms.items():
            magnitude = _digits(abs(coeff), "a coefficient")
            body = magnitude if trace.length == 0 else f"{magnitude}*{'*'.join(trace.letters)}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<TruncatedSeries cap={self.cap} {self}>"
