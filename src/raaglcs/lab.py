"""Exhaustive desk-scale searches over group elements.

Each element is enumerated exactly once, as its canonical form: the fully
reduced, lex-least syllable word of `GroupWord.canonical`.  These forms make
a regular language (Hermiller-Meier 1995, Algorithms and geometry for graph
products of groups), read by an automaton whose state after a prefix is one
bitmask, `forbidden`, of the generators that cannot come next.  Two
syllables commute only when their generators differ and are adjacent, so
lex order compares only generator indices there.  Appending generator g is
legal iff bit g of forbidden is clear, and the state becomes

    1 << g | masks[g] & ((1 << g) - 1 | forbidden)

g itself would merge with the syllable just placed; a generator h adjacent
to g would commute past it, so it is barred when h < g (not lex-least) or
when it was barred already; every other generator is free again.

A sphere (one norm) is walked depth first, children in ascending (vertex
index, exponent) order.  A proper prefix has a smaller norm, so the sphere
comes out in lex order with no sort.  Spheres are streamed in increasing
norm: the depth function stops at its first hit, and the depth <= norm
sweep never holds the ball.

A generator whose syllable leaves every generator forbidden ends the word,
so the walk places only its exponents +-left there; on a one-vertex graph a
sphere costs two stack entries, not 2 * norm.

The derived walk yields only the elements of [G, G] = gamma_2, the kernel
of abelianisation.  Its stack entries carry the prefix's exponent sum per
generator and ab_norm, the sum of their absolute values, and it skips a
subtree whose prefix has ab_norm above the norm left to spend.  That is
exact: a syllable s^e moves ab_norm by at most |e|, the exponents still to
come add up to the norm left, so no element below such a prefix has
ab_norm 0.  The elements that remain come out in the same order.  The full
walk is the same child loop unpruned, and keeps no sums.
For k >= 2 the depth function wants elements of gamma_k, inside gamma_2, so
it scans the derived walk, and its first hit and witness are those of the
full scan.  The depth <= norm sweep runs `lcs_depth` on the derived walk
alone: every other element has depth 1, and their number per norm is the
sphere's size less the elements walked.  Both searches ask `magnus` only
its public questions, `lcs_depth` and `in_dimension_subgroup`, of the
elements the walk yields.

Each sphere's size is known before anything is generated, from the
spherical growth series 1 / sum_k c_k (-2t / (1 + t))^k, c_k the number of
k-vertex cliques (Chiswell 1994, The growth series of a graph product);
every search rejects a ball of more than MAX_BALL_ELEMENTS elements up
front.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .magnus import in_dimension_subgroup, lcs_depth
from .words import GroupWord, check_int, check_word_size, commutator

# Enumerations, sweeps and depth-function scans refuse balls larger than
# this.  It admits the ball of C4 up to norm 8 (139,969 elements); the list
# that enumerate_elements returns stays within tens of MiB.
MAX_BALL_ELEMENTS = 200_000


def _sphere_sizes(graph, max_norm, cap):
    """[size of the sphere of norm n for n = 0, 1, ...], or None once their
    sum passes cap.

    The list runs to max_norm, or to the first empty sphere, which comes
    only from a graph with no vertices: every later sphere is empty too.
    Multiplying Chiswell's series through by (1 + t)^D, D the largest
    clique counted, leaves a quotient of integer polynomials whose
    denominator has constant term c_0 = 1, divided here as exact power
    series.  Coefficients up to max_norm use only cliques of at most
    max_norm vertices.  Each such clique is the support of its own element
    (the product of its vertices), so the clique count is bounded by the
    ball too, and both counts stop once they pass cap.
    """
    masks = graph.masks
    cliques = [1]
    total = 1
    stack = [(0, (1 << len(masks)) - 1)]  # (clique size, vertices extending it)
    while stack:
        size, candidates = stack.pop()
        if size == max_norm:
            continue
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1  # later vertices only: each clique once
            if len(cliques) == size + 1:
                cliques.append(0)
            cliques[size + 1] += 1
            total += 1
            if total > cap:
                return None
            stack.append((size + 1, candidates & masks[v]))
    top = len(cliques) - 1
    den = [0] * (top + 1)
    for k, c in enumerate(cliques):
        for j in range(top - k + 1):
            den[k + j] += c * (-2) ** k * comb(top - k, j)
    spheres = []
    total = 0
    for n in range(max_norm + 1):
        spheres.append(comb(top, n) - sum(den[j] * spheres[n - j]
                                          for j in range(1, min(n, top) + 1)))
        total += spheres[n]
        if total > cap:
            return None
        if not spheres[n]:
            break
    return spheres


def _ball(graph, max_norm):
    """The sphere sizes of `_sphere_sizes` for the ball of norm <= max_norm.

    Every search calls this before it walks a sphere: a ball of more than
    MAX_BALL_ELEMENTS elements raises ValueError here.  The search then
    walks the spheres of norm 1 to len(list) - 1 in increasing norm, each by
    `_sphere`, whose codes come out canonical, with nothing to re-reduce.
    """
    check_int(max_norm, 0, "max_norm must be >= 0")
    spheres = _sphere_sizes(graph, max_norm, MAX_BALL_ELEMENTS)
    if spheres is None:
        raise ValueError(f"the ball of norm <= {max_norm} has more than "
                         f"{MAX_BALL_ELEMENTS} elements; lower the norm bound")
    return spheres


def _sphere(graph, norm, derived=False):
    """The canonical `GroupWord.codes` of norm exactly `norm` (>= 1), in lex
    order, from one child loop.  With `derived` only the elements of [G, G]
    come out: a subtree is skipped when its prefix's ab_norm exceeds the norm
    left to spend (module docstring); without it nothing is pruned.  An
    element of [G, G] has every exponent sum 0, so an even norm: the derived
    walk of an odd norm is empty.
    """
    if derived and norm % 2:
        return
    masks = graph.masks
    dead = (1 << len(masks)) - 1
    # (prefix, forbidden, norm left, the parent's exponent sums {generator
    # index: sum}, the prefix's ab_norm); the sums are kept only by the
    # derived walk, so the full walk's ab_norm is just the norm spent.
    stack = [((), 0, norm, {}, 0)]
    while stack:
        codes, forbidden, left, sums, ab_norm = stack.pop()
        if not left:
            yield codes
            continue
        if derived and codes:  # shared with the siblings: copy before adding the last syllable
            last, e = codes[-1]
            sums = {**sums, last: sums.get(last, 0) + e}
        exponents = None
        # Children go on the stack in reverse, so they come off ascending.
        for g in range(len(masks) - 1, -1, -1):
            if forbidden >> g & 1:
                continue
            after = 1 << g | masks[g] & ((1 << g) - 1 | forbidden)
            if after == dead:
                ends = (left, -left)  # nothing may follow: only the last syllable fits
            else:
                if exponents is None:
                    exponents = [*range(left, 0, -1), *range(-1, -left - 1, -1)]
                ends = exponents
            c = sums.get(g, 0)
            others = ab_norm - abs(c)
            for e in ends:
                rest = left - abs(e)
                moved = others + abs(c + e)
                if moved <= rest or not derived:  # else its abelianisation cannot return to 0
                    stack.append((codes + ((g, e),), after, rest, sums, moved))


def enumerate_elements(graph, max_norm):
    """All distinct nontrivial elements of norm <= max_norm, sorted by (norm, lex).

    Each element appears once, as its canonical word, generated directly by
    the normal-form automaton in the module docstring: no string is
    canonicalized, deduplicated or sorted.  A ball of more than
    MAX_BALL_ELEMENTS elements raises ValueError before any is generated.
    """
    spheres = _ball(graph, max_norm)
    trusted = GroupWord._trusted
    return [trusted(graph, codes) for norm in range(1, len(spheres))
            for codes in _sphere(graph, norm)]


@dataclass(frozen=True)
class DepthFunctionRow:
    """Least norm among nontrivial elements of the k-th lower central term.

    kind "exact" carries the norm and the first witness in enumeration order;
    kind "at_least" records that nothing was found up to the searched bound,
    with norm = searched max_norm + 1.
    """

    k: int
    kind: str
    norm: int
    minimal_witness: Optional[GroupWord] = None


def depth_function(graph, k, max_norm):
    """Depth function value at k by exhaustive scan of norms <= max_norm.

    Elements are streamed in (norm, lex) order and the scan stops at the
    first one that `in_dimension_subgroup` puts in the k-th term.  For k >= 2
    it skips the subtrees outside [G, G], which is exact (module docstring).
    """
    check_int(k, 1, "k must be >= 1")
    if k >= 2 and graph.is_complete():
        raise ValueError(
            "complete graph: the group is free abelian, hence nilpotent, and "
            "deep lower central terms are trivial")
    check_int(max_norm, 0, "max_norm must be >= 0")
    if k > max_norm:
        # depth <= norm, so d(k) >= k: nothing to walk
        return DepthFunctionRow(k, "at_least", max_norm + 1)
    spheres = _ball(graph, max_norm)
    for norm in range(1, len(spheres)):
        for codes in _sphere(graph, norm, k >= 2):
            word = GroupWord._trusted(graph, codes)
            if in_dimension_subgroup(word, k):
                return DepthFunctionRow(k, "exact", norm, word)
    return DepthFunctionRow(k, "at_least", max_norm + 1)


def commutator_witness(graph, k):
    """Left-normed commutator [..[[s,t],t].., t] of weight k.

    s, t is the first non-adjacent vertex pair in declaration order; the
    result lies in the k-th lower central term by construction.  It has
    about 2^k syllables, and a bracket that would pass MAX_WORD_SYLLABLES is
    refused before it is built.
    """
    check_int(k, 1, "k must be >= 1")
    pair = next(((u, v) for u, v in combinations(graph.vertices, 2)
                 if not graph.are_adjacent(u, v)), None)
    if pair is None:
        raise ValueError("complete graph: every pair of generators commutes")
    s, t = pair
    word = GroupWord(graph, [(s, 1)])
    step = GroupWord(graph, [(t, 1)])
    for _ in range(k - 1):
        check_word_size(2 * len(word.codes) + 2)
        word = commutator(word, step).reduced()
    return word


@dataclass
class VerifyReport:
    """Outcome of the depth <= norm sweep up to max_norm."""

    max_norm: int
    checked: int
    cells: dict        # (norm, depth) -> element count, depths the search reached
    violations: list   # (word, norm, depth) with depth > norm, or None past the search

    @property
    def passed(self):
        return not self.violations

    def lines(self):
        out = [f"norm={n} depth={d} count={c}" for (n, d), c in sorted(self.cells.items())]
        out.append(f"checked={self.checked} max_norm={self.max_norm}")
        for word, n, d in self.violations:
            out.append(f"VIOLATION: word={word} norm={n} depth" +
                       (f"={d}" if d is not None else f">={n + 1}"))
        out.append("PASS" if self.passed else "FAIL")
        return out


def verify_depth_bound(graph, max_norm):
    """Check depth <= norm for every nontrivial element of norm <= max_norm.

    Only the elements of [G, G] are walked, by the derived walk of
    `_sphere`, and go through `lcs_depth`.  Every other element has depth 1,
    and each sphere's count of them is its size from the growth series less
    the elements walked, so none of them is generated.  Complete graphs are
    allowed (a degenerate run where every depth is 1).  `lcs_depth` searches
    no deeper than the norm, so an element it finds no depth for is a
    violation of depth None, counted in `checked` but in no cell.
    """
    spheres = _ball(graph, max_norm)
    cells = {}
    violations = []
    for n in range(1, len(spheres)):
        inside = 0
        for codes in _sphere(graph, n, True):
            word = GroupWord._trusted(graph, codes)
            d = lcs_depth(word).depth
            if d is None or d > n:
                violations.append((word, n, d))
            if d is not None:
                cells[(n, d)] = cells.get((n, d), 0) + 1
            inside += 1
        if spheres[n] > inside:  # a nonzero abelianisation: depth 1
            cells[(n, 1)] = cells.get((n, 1), 0) + spheres[n] - inside
    return VerifyReport(max_norm, sum(spheres[1:]), cells, violations)
