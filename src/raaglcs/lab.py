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

Each stack entry also carries its prefix's exponent sum per generator and
ab_norm, the sum of their absolute values; an element has a nonzero ab_norm
exactly when it lies outside [G, G] = gamma_2, the kernel of
abelianisation, so the depth <= norm sweep gives it depth 1 at once and
only the other elements need `lcs_depth`.  For k >= 2 the depth function
wants elements of gamma_k, inside gamma_2, so it skips a subtree whose
prefix has ab_norm above the norm left to spend.  That is exact: a
syllable s^e moves ab_norm by at most |e|, the exponents still to come add
up to the norm left, so no element below such a prefix has ab_norm 0.  The
elements that remain come out in the same order, so the first hit and its
witness are those of the full scan.  Both searches ask `magnus` only its
public questions, `lcs_depth` and `in_dimension_subgroup`, of the elements
the walk yields.

The ball's size is known before anything is generated, from the spherical
growth series 1 / sum_k c_k (-2t / (1 + t))^k, c_k the number of k-vertex
cliques (Chiswell 1994, The growth series of a graph product); every search
rejects a ball of more than MAX_BALL_ELEMENTS elements up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .magnus import in_dimension_subgroup, lcs_depth
from .words import GroupWord, check_int, commutator

# Enumerations, sweeps and depth-function scans refuse balls larger than
# this.  It admits the ball of C4 up to norm 8 (139,969 elements); the list
# that enumerate_elements returns stays within tens of MiB.
MAX_BALL_ELEMENTS = 200_000


def ball_size(graph, max_norm, cap):
    """min(cap + 1, number of elements of norm <= max_norm, the identity included).

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
                return cap + 1
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
            return cap + 1
        if not spheres[n]:
            break  # a sphere is empty only when every later one is too
    return total


def _sphere(graph, norm, derived=False):
    """(syllables, ab_norm) for the canonical syllable tuples of norm exactly
    `norm` (>= 1), in lex order; ab_norm is the sum of |exponent sum| over
    the generators (see the module docstring).  With `derived` only the
    elements of [G, G], those with ab_norm 0, come out: a subtree is skipped
    when its prefix's ab_norm exceeds the norm left to spend.
    """
    masks = graph.masks
    vertices = graph.vertices
    dead = (1 << len(vertices)) - 1
    # (prefix, forbidden, norm left, generator of the last syllable, the
    # parent's exponent sums {generator index: sum}, the prefix's ab_norm)
    stack = [((), 0, norm, None, {}, 0)]
    while stack:
        syllables, forbidden, left, last, sums, ab_norm = stack.pop()
        if not left:
            yield syllables, ab_norm
            continue
        if syllables:  # shared with the siblings: copy before adding the last syllable
            sums = {**sums, last: sums.get(last, 0) + syllables[-1][1]}
        # Children go on the stack in reverse, so they come off ascending.
        exponents = [*range(left, 0, -1), *range(-1, -left - 1, -1)]
        for g in range(len(vertices) - 1, -1, -1):
            if forbidden >> g & 1:
                continue
            after = 1 << g | masks[g] & ((1 << g) - 1 | forbidden)
            name = vertices[g]
            c = sums.get(g, 0)
            others = ab_norm - abs(c)
            for e in exponents:
                rest = left - abs(e)
                if rest and after == dead:
                    continue
                moved = others + abs(c + e)
                if derived and moved > rest:
                    continue  # its abelianisation cannot return to 0
                stack.append((syllables + ((name, e),), after, rest, g, sums, moved))


def _elements(graph, max_norm, derived=False):
    """Stream of (norm, syllables, ab_norm) for the nontrivial elements of
    norm <= max_norm, in (norm, lex) order; `derived` as in `_sphere`.

    The ball is checked against MAX_BALL_ELEMENTS here, before the first
    element is made; the syllables come out canonical, with nothing to
    re-reduce.
    """
    check_int(max_norm, 0, "max_norm must be >= 0")
    size = ball_size(graph, max_norm, MAX_BALL_ELEMENTS)
    if size > MAX_BALL_ELEMENTS:
        raise ValueError(f"the ball of norm <= {max_norm} has more than "
                         f"{MAX_BALL_ELEMENTS} elements; lower the norm bound")
    if size == 1:
        return iter(())  # only the identity: max_norm 0, or a graph with no vertices
    return ((norm, syllables, ab_norm) for norm in range(1, max_norm + 1)
            for syllables, ab_norm in _sphere(graph, norm, derived))


def enumerate_elements(graph, max_norm):
    """All distinct nontrivial elements of norm <= max_norm, sorted by (norm, lex).

    Each element appears once, as its canonical word, generated directly by
    the normal-form automaton in the module docstring: no string is
    canonicalized, deduplicated or sorted.  A ball of more than
    MAX_BALL_ELEMENTS elements raises ValueError before any is generated.
    """
    trusted = GroupWord._trusted
    return [trusted(graph, syllables) for _, syllables, _ in _elements(graph, max_norm)]


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
    if graph.is_complete():
        raise ValueError(
            "complete graph: the group is free abelian, hence nilpotent, and "
            "deep lower central terms are trivial")
    check_int(k, 1, "k must be >= 1")
    check_int(max_norm, 0, "max_norm must be >= 0")
    if k > max_norm:
        # depth <= norm, so d(k) >= k: nothing to walk
        return DepthFunctionRow(k, "at_least", max_norm + 1)
    for norm, syllables, _ in _elements(graph, max_norm, k >= 2):
        word = GroupWord._trusted(graph, syllables)
        if in_dimension_subgroup(word, k):
            return DepthFunctionRow(k, "exact", norm, word)
    return DepthFunctionRow(k, "at_least", max_norm + 1)


def commutator_witness(graph, k):
    """Left-normed commutator [..[[s,t],t].., t] of weight k.

    s, t is the first non-adjacent vertex pair in declaration order; the
    result lies in the k-th lower central term by construction.
    """
    check_int(k, 1, "k must be >= 1")
    verts = graph.vertices
    pair = None
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if not graph.are_adjacent(verts[i], verts[j]):
                pair = (verts[i], verts[j])
                break
        if pair:
            break
    if pair is None:
        raise ValueError("complete graph: every pair of generators commutes")
    s, t = pair
    word = GroupWord(graph, [(s, 1)])
    step = GroupWord(graph, [(t, 1)])
    for _ in range(k - 1):
        word = commutator(word, step).reduced()
    return word


@dataclass
class VerifyReport:
    """Outcome of the depth <= norm sweep up to max_norm."""

    max_norm: int
    checked: int
    cells: dict        # (norm, depth) -> element count
    violations: list   # (word, norm, depth) with depth > norm

    @property
    def passed(self):
        return not self.violations

    def lines(self):
        out = [f"norm={n} depth={d} count={c}" for (n, d), c in sorted(self.cells.items())]
        out.append(f"checked={self.checked} max_norm={self.max_norm}")
        for word, n, d in self.violations:
            out.append(f"VIOLATION: word={word} norm={n} depth={d}")
        out.append("PASS" if self.passed else "FAIL")
        return out


def verify_depth_bound(graph, max_norm):
    """Check depth <= norm for every nontrivial element of norm <= max_norm.

    Tallies the (norm, depth) histogram and collects violations as the
    elements stream past: a nonzero sum of |exponent sums| means depth 1,
    and only the other elements go through `lcs_depth`.  Complete graphs are allowed (a
    degenerate run where every depth is 1).
    """
    cells = {}
    violations = []
    checked = 0
    for n, syllables, ab_norm in _elements(graph, max_norm):
        if ab_norm:
            d = 1  # a nonzero abelianisation: outside [G, G]
        else:
            word = GroupWord._trusted(graph, syllables)
            d = lcs_depth(word).depth
            if d > n:
                violations.append((word, n, d))
        checked += 1
        cells[(n, d)] = cells.get((n, d), 0) + 1
    return VerifyReport(max_norm, checked, cells, violations)
