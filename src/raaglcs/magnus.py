"""Magnus-type representation into unit series and the depth read off from it.

Each generator s maps to 1 + s, which is invertible in the truncated series
ring; the image of a word is the product of its syllable factors.  An element
lies in the k-th dimension subgroup iff its image is 1 plus terms of degree
at least k, and for graph groups that filtration coincides with the lower
central series (Duchamp-Krob 1992), so the minimal positive degree in the
image is the element's exact lower-central-series depth.

The image is computed by a small kernel on int-coded data: a letter is its
vertex index, a trace is the tuple of its lex-least letters, and a series is
a dict from such tuples to nonzero ints.  Multiplying on the right by
(1 + s)^e = sum_k C(e, k) s^k extends every term t of degree < cap - 1 by
s^k, and all k copies of s go in at the one place `lex_insertion_point`
finds for s in t (Anisimov-Knuth insertion: across the commuting suffix,
before its first greater letter), so the result is lex-least with no
re-sort.  `_image`, the kernel of `mu`, takes that step once per syllable.

Depth is decided by one search, `_first_term`, a sweep over the degrees d =
1, 2, ..., norm: a nontrivial element's image has a nonzero square-free term
in degree <= norm.  Let L_i be the image of the word's first i syllables and
L_i^d its degree-d part.  Round d visits each syllable s^e once and computes
its increment D_i^d = L_(i+1)^d - L_i^d from lower degrees:

    e > 0:       D_i^d =  sum over k = 1 .. min(e, d) of C(e, k) L_i^(d-k) s^k
    e = -n < 0:  D_i^d = -sum over k = 1 .. min(n, d) of C(n, k) L_(i+1)^(d-k) s^k

the second from L_(i+1) (1 + s)^n = L_i.  So a syllable reads |e| lower
layers, with L^0 = 1 read as the constant term, never copied.  Each round
rebuilds the running layers L_i^j, d - max|e| <= j < d, by adding up the
increments stored for those degrees as i advances, and frees an increment
once the last round that reads it has; a long word holds increments, never
a whole layer per syllable.  The sweep stops at the first d where the final
L^d, the sum of the round's increments, is nonzero: d is the depth and its
lex-least term the witness.  Each degree is computed once.  `lcs_depth` and
`in_dimension_subgroup` both run the sweep; a caller's cap or k is a ceiling
on it, not a target, and the work is summed over its rounds.

`_image` and the sweep charge work by one rule (see MAX_KERNEL_WORK) and
build binomials with one routine, `_grow_binomials`, which charges each
coefficient as it is built, so a huge exponent at a large cap is refused
before its coefficients fill memory; when a binomial is past one 64-bit
word, each term visited is charged for the products it will write before it
writes them.  The sweep also charges the increment terms a round stores,
when the next round starts: the last round's are never read, so never
charged.  So the work splits: the sweep is the one engine for depth, and
`_image` the one engine for whole images; routing `mu` through the sweep
would cost rounds times layers, which grows as cap^2 once an exponent
passes the cap.

`GroupWord` and `Trace` stay the validated types at the boundary, and
`TruncatedSeries` the read-only type of `mu`'s result: words are validated as
they are built, the kernel trusts its own canonical tuples, `mu` converts its
image once at exit, and `lcs_depth` builds a single `Trace`, for the witness.
No library path runs generic series arithmetic; the tests check `mu` against
a product of binomial factors built from `math.comb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .series import _CAP_MESSAGE, TruncatedSeries
from .words import (GroupWord, Trace, check_int, commuting_suffix_start,
                    lex_insertion_point)

# Most work one `mu`, `in_dimension_subgroup` or `lcs_depth` call (over all
# the rounds of its degree sweep) may do: one unit per letter written into a
# series term and per 64 bits of each binomial coefficient built, (u + 1) v
# per product of coefficients of u and v extra 64-bit words written, plus 32
# per term visited, about what a visit costs in time, and 32 per increment
# term the sweep stores and a later round reads, so the budget bounds what
# the sweep holds too.  The F2 left-normed commutator of weight 10 needs
# about 21.6 million; weight 11 needs about 87 million, and is refused at
# about 72 MiB peak RSS.
MAX_KERNEL_WORK = 40_000_000
_VISIT = 32  # units per term visited or stored


def syllable_factor(graph, s, e, cap):
    """(1 + s)^e truncated below cap, `mu` of the word s^e: the degree-k
    coefficient is the generalized binomial C(e, k)."""
    if e == 0:
        raise ValueError("exponent must be nonzero")
    return mu(GroupWord(graph, [(s, e)]), cap)


def _codes(word):
    """The word's syllables as (vertex index, exponent), zero exponents dropped."""
    index = word.graph.index
    return [(index(s), e) for s, e in word.syllables if e]


def _over_budget():
    return ValueError(f"series computation needs more than {MAX_KERNEL_WORK} units of work")


def _grow_binomials(coeffs, e, top, work):
    """Appends C(e, k) to coeffs = [C(e, 0), .., C(e, k - 1)] for k < top,
    stopping at the first zero (k > e > 0).  Each is charged one unit per 64
    bits past the first as it is built, and the budget is checked against it
    plus the visit and letters s^1 .. s^k of the constant term's extensions,
    before it is kept.  Returns `work` plus the charges."""
    coeff = coeffs[-1]
    for k in range(len(coeffs), top):
        coeff = coeff * (e - k + 1) // k  # exact: binomials are integers
        if not coeff:
            break
        work += coeff.bit_length() >> 6
        if work + _VISIT + k * (k + 1) // 2 > MAX_KERNEL_WORK:
            raise _over_budget()
        coeffs.append(coeff)
    return work


def _image(graph, codes, cap):
    """Kernel of `mu`: {lex-least int tuple: nonzero coefficient}, degrees < cap.

    Multiplies 1 on the right by each syllable's (1 + s)^e in turn.  The
    terms of degree cap - 1 go into `full`, summed but never visited again,
    zero sums included, and join the image at the end; copying them with the
    image at every syllable would make a long word's image quadratic in
    their number.  Raises ValueError before a coefficient, a term visit or
    an extension would take the work past MAX_KERNEL_WORK.
    """
    budget = MAX_KERNEL_WORK
    masks = graph.masks
    image, full = {(): 1}, {}
    work = 0
    for s, e in codes:
        coeffs = [1]
        start = work
        work = _grow_binomials(coeffs, e, cap, work)
        spans = None  # with a binomial past one 64-bit word: its extra words summed below j
        if work > start:
            spans = list(accumulate((b.bit_length() >> 6 for b in coeffs), initial=0))
        size = len(coeffs)
        mask = masks[s]
        out = image.copy()  # the k = 0 terms
        for t, c in image.items():
            n = len(t)
            top = min(size, cap - n)
            work += _VISIT + (top - 1) * (n + n + top) // 2  # the visit, then t s^k for 0 < k < top
            if spans:  # each product c * C(e, k): (u + 1) v units, u and v their extra words
                work += ((c.bit_length() >> 6) + 1) * spans[top]
            if work > budget:
                raise _over_budget()
            last = cap - 1 - n  # the k that lands in degree cap - 1
            pos = lex_insertion_point(t, s, commuting_suffix_start(t, mask))
            head, tail = t[:pos], t[pos:]
            for k in range(1, top):
                head += (s,)
                term = head + tail
                into = full if k == last else out
                into[term] = into.get(term, 0) + c * coeffs[k]
        image = {t: c for t, c in out.items() if c}
    image.update((t, c) for t, c in full.items() if c)
    return image


def mu(word, cap):
    """Image of a word under generator -> 1 + generator, truncated below cap."""
    check_int(cap, 1, _CAP_MESSAGE)
    graph = word.graph
    vertices = graph.vertices
    image = _image(graph, _codes(word), cap)
    terms = {Trace._trusted(graph, tuple(vertices[a] for a in t)): image[t]
             for t in sorted(image, key=lambda t: (len(t), t))}
    return TruncatedSeries._trusted(graph, cap, terms)


def _first_term(graph, codes, top):
    """The lex-least term of the image's least positive degree, or None if
    the degrees 1 .. top - 1 all vanish: the degree sweep of the module
    docstring, one round per degree.  Raises ValueError before the work
    summed over its rounds would pass MAX_KERNEL_WORK.
    """
    if not codes:
        return None
    budget = MAX_KERNEL_WORK
    masks = graph.masks
    width = max(abs(e) for _, e in codes)  # the most lower layers a syllable reads
    rows = {abs(e): [1] for _, e in codes}  # n -> C(n, k) for k <= min(n, d)
    steps = {}  # degree j -> the increments D_i^j, i = 0 .., while a round reads them
    work = held = 0  # held: the terms the round before stored
    for d in range(1, top):
        for n, row in rows.items():
            if len(row) <= min(n, d):
                work = _grow_binomials(row, n, d + 1, work)
        work += held * _VISIT  # charged once a round will read them
        if work > budget:
            raise _over_budget()
        last = d - width  # no later round reads degree `last`
        layers = {j: {} for j in range(max(last, 1), d)}  # L_i^j as i advances

        def advance(i):
            # L_i -> L_(i + 1) in every layer this round reads
            for j, layer in layers.items():
                increments = steps[j]
                for t, c in increments[i].items():
                    c += layer.get(t, 0)
                    if c:
                        layer[t] = c
                    else:
                        del layer[t]
                if j == last:
                    increments[i] = None

        stored, total = [], {}
        for i, (s, e) in enumerate(codes):
            if e < 0:  # that recurrence reads L_(i + 1)
                advance(i)
            n = abs(e)
            row = rows[n]
            mask = masks[s]
            delta = {}
            for k in range(1, min(n, d) + 1):
                b = row[k] if e > 0 else -row[k]
                if k == d:  # s^d from the constant term
                    work += _VISIT + d
                    term = (s,) * d
                    delta[term] = delta.get(term, 0) + b
                    continue
                layer = layers[d - k]
                work += len(layer) * (_VISIT + d)  # a visit and d letters per term
                v = b.bit_length() >> 6
                if v:  # each product c * b: (u + 1) v units, u the extra words of c
                    work += v * sum((c.bit_length() >> 6) + 1 for c in layer.values())
                if work > budget:
                    raise _over_budget()
                ks = (s,) * k
                for t, c in layer.items():
                    if mask >> t[-1] & 1:
                        pos = lex_insertion_point(t, s, commuting_suffix_start(t, mask))
                        term = t[:pos] + ks + t[pos:]
                    else:  # s commutes with no suffix of t
                        term = t + ks
                    delta[term] = delta.get(term, 0) + c * b
            if e > 0:
                advance(i)
            if n > 1:  # for |e| = 1, t -> t s is injective: no zero sums
                delta = {t: c for t, c in delta.items() if c}
            if work > budget:
                raise _over_budget()
            stored.append(delta)
            for t, c in delta.items():
                total[t] = total.get(t, 0) + c
        positive = [t for t, c in total.items() if c]
        if positive:
            return min(positive)
        steps.pop(last, None)
        steps[d] = stored
        held = sum(map(len, stored))
    return None


def in_dimension_subgroup(word, k):
    """True iff the series image of the word is 1 + (terms of degree >= k)."""
    check_int(k, 1, "k must be >= 1")
    reduced = word.reduced()
    return _first_term(word.graph, _codes(reduced), min(k, reduced.norm() + 1)) is None


@dataclass(frozen=True)
class DepthResult:
    """Depth of an element in the lower central series.

    kind is "exact" (depth is exactly `depth`), "at_least" (nothing below the
    searched cap, so depth >= `bound`), or "infinite" (identity element).
    witness_trace is the lex-least trace at the minimal nonzero degree.
    """

    kind: str
    depth: Optional[int] = None
    bound: Optional[int] = None
    witness_trace: Optional[Trace] = None

    @classmethod
    def exact(cls, depth, witness_trace=None):
        return cls("exact", depth=depth, witness_trace=witness_trace)

    @classmethod
    def at_least(cls, bound):
        return cls("at_least", bound=bound)

    @classmethod
    def infinite(cls):
        return cls("infinite")


def lcs_depth(word, cap=None):
    """Largest k such that the element lies in the k-th lower central term.

    The degree sweep (module docstring) stops at the first degree with a
    nonzero term, so shallow elements (the common case) stay cheap; the
    lex-least such term is the witness.  A caller cap lowers the sweep's
    top, and a sweep that reaches it with no term returns an at_least
    bound.  A search that would do more than MAX_KERNEL_WORK units of
    kernel work in all raises ValueError.
    """
    if cap is not None:
        check_int(cap, 1, _CAP_MESSAGE)
    reduced = word.reduced()
    if not reduced.syllables:
        return DepthResult.infinite()
    graph = word.graph
    top = reduced.norm() + 1 if cap is None else min(cap, reduced.norm() + 1)
    term = _first_term(graph, _codes(reduced), top)
    if term is None:
        return DepthResult.at_least(top)
    return DepthResult.exact(len(term), Trace(graph, [graph.vertices[a] for a in term]))
