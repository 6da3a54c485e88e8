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
re-sort.  That one-syllable step is `_extend`: it maps a word's state to
the state of the word times s^e with a new image, so `_image` is a loop
over it and `lab` extends each enumerated element's state from its
parent's.  The binomials are built one at a time and each is charged its
size as it is built, so a huge exponent at a large cap is refused before
its coefficients fill memory.

`Trace`, `TruncatedSeries` and `GroupWord` stay the validated types at the
boundary: words are validated as they are built, the kernel trusts its own
canonical tuples, `mu` converts its result once at exit, and `lcs_depth`
builds a single `Trace`, for the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .series import TruncatedSeries, check_cap
from .words import Trace, commuting_suffix_start, lex_insertion_point

# Most work one `mu`, `in_dimension_subgroup` or `lcs_depth` call (over its
# whole cap search) may do: one unit per letter written into a series term
# and per 64 bits of each binomial coefficient built, plus 32 per term
# visited, about what a visit costs in time.  The F2 left-normed commutator
# of weight 10 needs about 33 million; weight 11 needs about 136 million.
MAX_KERNEL_WORK = 40_000_000


def _binomials(e, cap):
    """C(e, k) for k < cap, cut at the first zero (k > e > 0).

    For negative e these are the alternating geometric-series coefficients.
    """
    coeffs = [1]
    for k in range(1, cap):
        coeff = coeffs[-1] * (e - k + 1) // k  # exact: binomials are integers
        if coeff == 0:
            break
        coeffs.append(coeff)
    return coeffs


def syllable_factor(graph, s, e, cap):
    """(1 + s)^e truncated below cap.

    The degree-k coefficient is the generalized binomial C(e, k), so negative
    exponents expand by the alternating geometric series.
    """
    if e == 0:
        raise ValueError("exponent must be nonzero")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    graph.index(s)
    return TruncatedSeries(graph, cap, [(Trace(graph, (s,) * k), coeff)
                                        for k, coeff in enumerate(_binomials(e, cap))])


def _codes(word):
    """The word's syllables as (vertex index, exponent), zero exponents dropped."""
    index = word.graph.index
    return [(index(s), e) for s, e in word.syllables if e]


def _over_budget():
    return ValueError(f"series computation needs more than {MAX_KERNEL_WORK} units of work")


def _extend(masks, image, full, s, e, cap, work):
    """One kernel step: a word's state times (1 + s)^e.

    A state is `image`, the constant term and the terms of degree < cap - 1,
    and `full`, the terms of degree cap - 1, which are summed but never
    visited again, zero sums included.  Returns (image, full, work): a new
    image, leaving `image` intact, and `full` itself with this step's terms
    added, so a caller that keeps the old state passes a copy of `full`.
    Copying it here would make a long word's image quadratic in its number
    of top-degree terms.  Raises ValueError before a coefficient, a term
    visit or an extension would take `work` past MAX_KERNEL_WORK.
    """
    budget = MAX_KERNEL_WORK
    coeffs = [1]
    coeff = 1
    for k in range(1, cap):
        coeff = coeff * (e - k + 1) // k  # exact: binomials are integers
        if not coeff:
            break  # k > e > 0
        work += coeff.bit_length() >> 6
        # The constant term, always visited first, will write s^1 .. s^k.
        if work + 32 + k * (k + 1) // 2 > budget:
            raise _over_budget()
        coeffs.append(coeff)
    mask = masks[s]
    out = image.copy()  # the k = 0 terms
    for t, c in image.items():
        n = len(t)
        top = min(len(coeffs), cap - n)
        work += 32 + (top - 1) * (n + n + top) // 2  # the visit, then t s^k for 0 < k < top
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
    return {t: c for t, c in out.items() if c}, full, work


def _image(graph, codes, cap, work=0):
    """Kernel of `mu`: {lex-least int tuple: nonzero coefficient}, degrees < cap.

    The product of the syllables' `_extend` steps; returns the image and
    `work` plus the work done.
    """
    masks = graph.masks
    image, full = {(): 1}, {}
    for s, e in codes:
        image, full, work = _extend(masks, image, full, s, e, cap, work)
    image.update((t, c) for t, c in full.items() if c)
    return image, work


def _degree_lex(t):
    return (len(t), t)


def mu(word, cap):
    """Image of a word under generator -> 1 + generator, truncated below cap."""
    check_cap(cap)
    graph = word.graph
    vertices = graph.vertices
    image, _ = _image(graph, _codes(word), cap)
    terms = {Trace._trusted(graph, tuple(vertices[a] for a in t)): image[t]
             for t in sorted(image, key=_degree_lex)}
    return TruncatedSeries._trusted(graph, cap, terms)


def in_dimension_subgroup(word, k):
    """True iff the series image of the word is 1 + (terms of degree >= k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _image(word.graph, _codes(word), k)[0] == {(): 1}


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


def _depth_at_cap(graph, codes, cap, work=0):
    """The depth read off the image below cap, and the kernel work so far."""
    image, work = _image(graph, codes, cap, work)
    positive = [_degree_lex(t) for t in image if t]
    if not positive:
        return DepthResult.at_least(cap), work
    degree, letters = min(positive)  # the lex-least trace at the minimal degree
    witness = Trace(graph, [graph.vertices[a] for a in letters])
    return DepthResult.exact(degree, witness), work


def lcs_depth(word, cap=None):
    """Largest k such that the element lies in the k-th lower central term.

    The default cap of norm + 1 always suffices for an exact answer on a
    nontrivial element, because the leading square-free term of the image
    survives in degree <= norm.  The search raises the cap incrementally, so
    shallow elements (the common case) stay cheap; coefficients below a cap
    do not depend on it, so the answer matches a single full-cap computation.
    A caller cap above norm + 1 is lowered to it; a smaller one may return an
    at_least bound instead.  A search that would do more than
    MAX_KERNEL_WORK units of kernel work in all raises ValueError.
    """
    reduced = word.reduced()
    if not reduced.syllables:
        return DepthResult.infinite()
    graph = word.graph
    codes = _codes(reduced)
    limit = reduced.norm() + 1
    if cap is not None:
        check_cap(cap)
        return _depth_at_cap(graph, codes, min(cap, limit))[0]
    work = 0
    for c in range(2, limit + 1):
        result, work = _depth_at_cap(graph, codes, c, work)
        if result.kind == "exact":
            return result
    return DepthResult.at_least(limit)
