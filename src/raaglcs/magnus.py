"""Magnus-type representation into unit series and the depth read off from it.

Each generator s maps to 1 + s, which is invertible in the truncated series
ring; the image of a word is the product of its syllable factors.  An element
lies in the k-th dimension subgroup iff its image is 1 plus terms of degree
at least k, and for graph groups that filtration coincides with the lower
central series (Duchamp-Krob 1992), so the minimal positive degree in the
image is the element's exact lower-central-series depth.

The image is computed by one kernel on packed ints: a term is the `key` of
its `Trace`, w = `letter_bits` bits a letter, so terms of one degree compare
as ints as their letters compare lexicographically, and a series is a dict
from keys to ints.  Multiplying a term t by s^k puts all k copies of s in
at one place, so the result is lex-least with no re-sort: with
`words.insert_packed` when s commutes with the last letter of t, and as
t << k w | s^k otherwise, s^k being s times the repunit of k w-bit fields.

The kernel, `_degree_parts`, sweeps the degrees d = 1, 2, ... and yields
the image's degree-d part in round d.  Let L_i be the image of the word's
first i syllables and L_i^d its degree-d part.  Round d computes each
syllable s^e's increment D_i^d = L_(i+1)^d - L_i^d from lower degrees:

    e > 0:       D_i^d =  sum over k = 1 .. min(e, d) of C(e, k) L_i^(d-k) s^k
    e = -n < 0:  D_i^d = -sum over k = 1 .. min(n, d) of C(n, k) L_(i+1)^(d-k) s^k

the second from L_(i+1) (1 + s)^n = L_i.  So a syllable reads |e| lower
layers.  A round is layer-major: for k = 1 .. min(max |e|, d) it makes
one pass, in word order, over the syllables with |e| >= k, rebuilding the
one running layer L_i^(d-k) from the increments stored for that degree
only as far in i as the pass reads it, and adding its k-th term to each
increment.  L^0 = 1 at every i, so the pass k = d starts its running
layer at the constant term and brings nothing forward.  Round 1 is that
pass alone, D_i^1 = e s, so its part is the exponent sums: one loop over
the word sums them and builds the binomial rows, and the increments e s
are stored only when the caller resumes the sweep for round 2, so a
depth-1 `lcs_depth` costs that one loop.  The k = 1 pass meets
every syllable and builds its increment, whose terms cannot collide,
t -> t s being injective; a later pass drops a term whose sum cancels
where it adds it in, as bringing a layer forward does, so no part holds a
zero sum.  One running layer is alive at a time, and an increment is freed
once the last round that reads it has: a long word holds increments,
never a whole layer per syllable, and from round 2 on none of a positive
last syllable, which no read reaches past.  Round d's part is the final
L^d, the sum of its increments; with no negative exponent there is no
term past the exponent sum, and the sweep stops there.

`mu` takes every part below its cap.  `lcs_depth` stops at the first
nonempty part, whose degree is the depth and whose lex-least term the
witness: a nontrivial element has one in degree <= norm, so a caller's cap
is a ceiling on the sweep, not a target.  `in_dimension_subgroup(word, k)`
is `lcs_depth` with k as that ceiling.

Work is summed over the rounds and charged by one rule (see
MAX_KERNEL_WORK).  Round d builds C(n, d) for each |e| = n >= d and charges
it as it is built, so a huge exponent is refused before its coefficients
fill memory; round 1's C(n, 1) = n is already held, and is checked once
with round 1's visits.  A term read with a binomial past one 64-bit word
is charged for its products before they are written.  Each read of a
stored layer, empty or not, and each stored increment term added back
into a layer, is charged too, so a wide window is paid for even when
empty; a read of the constant term, round 1's included, is charged only
for the term it visits.  The last round's increments are never read, so never charged.
`mu` refuses up front an exponent whose constant-term extensions
s^1 .. s^k alone would pass the budget.

The kernel reads a reduced word's `codes`, and `mu` and `lcs_depth` wrap its
terms with `Trace._trusted` as they are: nothing is unpacked.  Names are
read where a word is built and written where a result is printed, never
here.  No library path runs generic series arithmetic; the tests check `mu`
against a product of `math.comb` binomials on letter tuples.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .series import _CAP_MESSAGE, TruncatedSeries
from .words import GroupWord, Trace, check_int, insert_packed, letter_bits

# Most work one `mu`, `in_dimension_subgroup` or `lcs_depth` call (over all
# the rounds of its degree sweep) may do: one unit per letter written into a
# series term and per 64 bits of each binomial coefficient built, (u + 1) v
# per product of coefficients of u and v extra 64-bit words written, plus 32,
# about what a visit costs in time, per term visited, per layer read, and
# per stored increment term added back into a layer, so the budget bounds
# what the sweep holds too; a term charged n letters is one int of n w + 1
# bits.  The F2 left-normed commutator of weight 10 needs about 21.9
# million, at about 30 MiB peak RSS; weight 11 needs about 87.5 million,
# and is refused at about 42 MiB.
MAX_KERNEL_WORK = 40_000_000
_VISIT = 32  # units per term visited or added back, or layer read


def syllable_factor(graph, s, e, cap):
    """(1 + s)^e truncated below cap, `mu` of the word s^e: the degree-k
    coefficient is the generalized binomial C(e, k)."""
    if e == 0:
        raise ValueError("exponent must be nonzero")
    return mu(GroupWord(graph, [(s, e)]), cap)


def _over_budget():
    return ValueError(f"series computation needs more than {MAX_KERNEL_WORK} units of work")


def _add(total, terms):
    """total += terms, a term whose sum cancels dropped."""
    for t, c in terms.items():
        c += total.get(t, 0)
        if c:
            total[t] = c
        else:
            del total[t]


def _degree_parts(graph, codes, top):
    """Yields the image's degree-d part, {packed lex-least term: nonzero
    coefficient}, for d = 1 .. top - 1 (fewer with no negative exponent):
    the degree sweep of the module docstring.  Raises ValueError before the
    work summed over its rounds would pass MAX_KERNEL_WORK.
    """
    if not codes or top <= 1:
        return
    budget = MAX_KERNEL_WORK
    w = letter_bits(graph)
    unit = 1 << w  # the sentinel of a one-letter term
    # Round 1 in one loop over the word: its part, the exponent sums, and
    # n -> C(n, k) for each |e| = n, k <= min(n, d)
    part, rows, positive = {}, {}, True
    for s, e in codes:
        t = unit | s  # the term s
        c = part.get(t, 0) + e
        if c:
            part[t] = c
        else:  # a zero sum dies where it forms
            del part[t]
        if e < 0:
            positive, e = False, -e
        if e not in rows:
            rows[e] = [1, e]
    # C(n, 1) = n for each n, and a visit and a letter for each D_i^1 = e s
    work = sum(n.bit_length() >> 6 for n in rows) + (_VISIT + 1) * len(codes)
    if work > budget:
        raise _over_budget()
    if positive:  # no term past the exponent sum
        top = min(top, sum(part.values()) + 1)
    yield part
    if top <= 2:
        return
    masks = graph.masks
    low = unit - 1
    width = max(rows)  # the most lower layers a syllable reads
    # (i, s, e, C(|e|, .), at): at is the i of the L_i the recurrence reads
    syllables = [(i, s, e, rows[abs(e)], i if e > 0 else i + 1) for i, (s, e) in enumerate(codes)]
    # degree j -> the increments D_i^j, i = 0 .., while a round reads them
    steps = {1: [{unit | s: e} for s, e in codes]}
    for d in range(2, top):
        for n, row in rows.items():
            if d <= n:  # C(n, d) > 0, charged and checked before it is kept
                coeff = row[-1] * (n - d + 1) // d  # exact: binomials are integers
                work += coeff.bit_length() >> 6  # checked with the s^1 .. s^d of L^0
                if work + _VISIT + d * (d + 1) // 2 > budget:
                    raise _over_budget()
                row.append(coeff)
        deltas = []  # D_i^d, built by the k = 1 pass and added to by the later ones
        last = d - width  # no later round reads degree `last`
        reading = syllables
        for k in range(1, min(width, d) + 1):
            if k - 1 in rows:  # a syllable with |e| = k - 1 reads no further
                reading = [x for x in reading if abs(x[2]) >= k]
            shift = k * w
            if k < d:  # L_start^(d - k), brought forward as the reads need
                increments, free = steps[d - k], k == width  # free: the last round to read them
                start, layer, visit = 0, {}, _VISIT
            else:  # L^0 = 1 at every i: no visit, no product; `insert_packed` stops at its sentinel
                start, layer, visit = len(codes), {1: 1}, 0
            for i, s, e, row, at in reading:
                while start < at:  # add D_start^(d - k) back
                    increment = increments[start]
                    work += _VISIT * len(increment)
                    if work > budget:
                        raise _over_budget()
                    _add(layer, increment)
                    if free:
                        increments[start] = None
                    start += 1
                work += visit + len(layer) * (_VISIT + d)  # the read; a visit, d letters per term
                b = row[k] if e > 0 else -row[k]
                v = b.bit_length() >> 6
                if v and k < d:  # each product c * b: (u + 1) v units, u the extra words of c
                    work += v * sum((c.bit_length() >> 6) + 1 for c in layer.values())
                if work > budget:
                    raise _over_budget()
                if not layer and k > 1:  # the k = 1 pass builds every increment, empty or not
                    continue
                mask = masks[s]
                ks = s * ((1 << shift) - 1) // low  # the letters of s^k: s times a repunit
                if k == 1:  # t -> t s is injective: no two terms collide
                    deltas.append({(insert_packed(t, s, ks, shift, mask, w) if mask >> (t & low) & 1
                                    else t << shift | ks): c * b for t, c in layer.items()})
                    continue
                delta = deltas[i]
                for t, c in layer.items():
                    if mask >> (t & low) & 1:  # s commutes with the last letter of t
                        term = insert_packed(t, s, ks, shift, mask, w)
                    else:
                        term = t << shift | ks
                    c = delta.get(term, 0) + c * b
                    if c:
                        delta[term] = c
                    else:  # a zero sum dies where it forms
                        del delta[term]
        total = {}
        for delta in deltas:
            _add(total, delta)
        if codes[-1][1] > 0:  # no read reaches past a positive last syllable
            deltas[-1] = None
        yield total
        steps.pop(last, None)
        steps[d] = deltas


def mu(word, cap):
    """Image of a word under generator -> 1 + generator, truncated below cap.

    The sweep runs on `word.reduced()`, the same element, so a word equal to
    the identity is never refused: its image is 1.
    """
    check_int(cap, 1, _CAP_MESSAGE)
    graph = word.graph
    codes = word.reduced().codes
    k = max((cap - 1 if e < 0 else min(e, cap - 1) for _, e in codes), default=0)
    if _VISIT + k * (k + 1) // 2 > MAX_KERNEL_WORK:
        raise _over_budget()
    parts = list(_degree_parts(graph, codes, cap))  # a refused sweep sorts nothing
    terms = {Trace._trusted(graph, t): c  # the constant term first, the empty trace's key
             for part in [{1: 1}, *parts] for t, c in sorted(part.items())}
    return TruncatedSeries._trusted(graph, cap, terms)


def in_dimension_subgroup(word, k):
    """True iff the series image of the word is 1 + (terms of degree >= k)."""
    check_int(k, 1, "k must be >= 1")
    return lcs_depth(word, k).kind != "exact"


class DepthResult(NamedTuple):
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
    if not reduced.codes:
        return DepthResult.infinite()
    graph = word.graph
    top = reduced.norm() + 1 if cap is None else min(cap, reduced.norm() + 1)
    for d, part in enumerate(_degree_parts(graph, reduced.codes, top), 1):
        if part:
            return DepthResult.exact(d, Trace._trusted(graph, min(part)))
    return DepthResult.at_least(top)
