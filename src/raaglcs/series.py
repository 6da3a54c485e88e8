"""Truncated integer series over a trace monoid: the result type of `mu`.

The monoid ring is graded by trace length; everything of degree >= cap is
discarded, so a series is a finite map from traces of length < cap to nonzero
integers.  All arithmetic is exact (unbounded ints).  `magnus` computes images
on its own int-coded kernel and returns them as `TruncatedSeries` values to
be read: `terms`, `coefficient`, equality and printing; depth is read with
`lcs_depth`.  The one ring operation kept is the product, which multiplies
images (mu(u) * mu(v) == mu(u v)) and which perfbench traces.
"""

from __future__ import annotations

from .graph import Graph
from .words import Trace, _digits, check_int

_CAP_MESSAGE = "cap must be a positive integer, got {!r}"


def _check_trace(trace, graph, what):
    if not isinstance(trace, Trace):
        raise ValueError(f"{what} must be a Trace, got {type(trace).__name__}")
    if trace.graph != graph:
        raise ValueError(f"{what} lives over a different graph")


class TruncatedSeries:
    """Finite Z-linear combination of traces of length < cap, such as `mu`'s
    image of a word.

    Normalized on construction, the one way to build a series from traces:
    duplicate traces merged, zero coefficients and over-cap terms dropped,
    terms kept in (degree, lex) order, the order of `Trace.key`.  Treat
    `terms` as read-only.
    """

    __slots__ = ("graph", "cap", "terms")

    def __init__(self, graph, cap, terms=()):
        if not isinstance(graph, Graph):
            raise ValueError(f"graph must be a Graph, got {type(graph).__name__}")
        check_int(cap, 1, _CAP_MESSAGE)
        try:
            items = terms.items() if isinstance(terms, dict) else [(t, c) for t, c in terms]
        except (TypeError, ValueError):
            raise ValueError("terms must be a dict or an iterable of (trace, coefficient) "
                             "pairs") from None
        acc = {}
        for trace, coeff in items:
            _check_trace(trace, graph, "term trace")
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise ValueError(f"coefficient must be an int, got {type(coeff).__name__}")
            if trace.length >= cap or coeff == 0:
                continue
            acc[trace] = acc.get(trace, 0) + coeff
        self.graph, self.cap = graph, cap
        self.terms = {t: acc[t] for t in sorted(acc, key=lambda t: t.key) if acc[t]}

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
        _check_trace(trace, self.graph, "trace")
        return self.terms.get(trace, 0)

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
