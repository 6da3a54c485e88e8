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

The language is prefix-closed, so every element is its parent in this tree
times one syllable, and a walk given a cap carries Magnus images down it:
each stack entry holds its parent's kernel state (image, top-degree terms,
work) and extends it by its own syllable with `magnus._extend` when popped.
An element's carried work is exactly what `magnus._image` charges it from
scratch, so MAX_KERNEL_WORK still bounds each element.  The depth function
walks at cap k and the depth <= norm sweep at cap 2, where an element with a
nonzero degree-1 part has depth 1 and only the others need `lcs_depth`.

The degree-1 part of an image is the element's abelianisation: the
coefficient of s is the exponent sum of s.  For k >= 2 the depth function
wants elements of gamma_k, inside gamma_2 = [G, G], the kernel of
abelianisation, so it skips a subtree whose prefix has sum of |degree-1
coefficients| above the norm left to spend.  That is exact: a syllable s^e
moves the sum by at most |e|, the exponents still to come add up to the
norm left, so no element below such a prefix has zero abelianisation.  The
elements that remain come out in the same order, so the first hit and its
witness are those of the full scan.

The ball's size is known before anything is generated, from the spherical
growth series 1 / sum_k c_k (-2t / (1 + t))^k, c_k the number of k-vertex
cliques (Chiswell 1994, The growth series of a graph product); every search
rejects a ball of more than MAX_BALL_ELEMENTS elements up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .magnus import _extend, lcs_depth
from .words import GroupWord, commutator

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


def _sphere(graph, norm, cap=None, derived=False):
    """Canonical syllable tuples of norm exactly `norm` (>= 1), in lex order.

    Each comes with its kernel state at `cap` (see the module docstring), or
    None without a cap.  With `derived` (needs cap >= 2) only the elements of
    the derived subgroup [G, G] come out: a subtree is skipped when the sum
    of |degree-1 coefficients| of its prefix exceeds the norm left to spend.
    """
    masks = graph.masks
    vertices = graph.vertices
    dead = (1 << len(vertices)) - 1
    root = None if cap is None else ({(): 1}, {}, 0)  # the empty word's state
    # (prefix, forbidden, norm left, generator of the last syllable, parent's
    # state, sum of |degree-1 coefficients| of the prefix)
    stack = [((), 0, norm, None, root, 0)]
    while stack:
        syllables, forbidden, left, last, state, ab_norm = stack.pop()
        if cap and syllables:
            image, full, work = state  # shared with the siblings: copy `full`
            state = _extend(masks, image, full.copy(), last, syllables[-1][1], cap, work)
        if not left:
            yield syllables, state
            continue
        if derived:
            linear = state[1] if cap == 2 else state[0]  # holds the degree-1 terms
        moved = 0
        # Children go on the stack in reverse, so they come off ascending.
        exponents = [*range(left, 0, -1), *range(-1, -left - 1, -1)]
        for g in range(len(vertices) - 1, -1, -1):
            if forbidden >> g & 1:
                continue
            after = 1 << g | masks[g] & ((1 << g) - 1 | forbidden)
            name = vertices[g]
            if derived:
                c = linear.get((g,), 0)
            for e in exponents:
                rest = left - abs(e)
                if rest and after == dead:
                    continue
                if derived:
                    moved = ab_norm - abs(c) + abs(c + e)
                    if moved > rest:
                        continue  # its abelianisation cannot return to 0
                stack.append((syllables + ((name, e),), after, rest, g, state, moved))


def _elements(graph, max_norm, cap=None, derived=False):
    """Stream of (norm, syllables, state) for the nontrivial elements of norm
    <= max_norm, in (norm, lex) order; `cap` and `derived` as in `_sphere`.

    The ball is checked against MAX_BALL_ELEMENTS here, before the first
    element is made; the syllables come out canonical, with nothing to
    re-reduce.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    size = ball_size(graph, max_norm, MAX_BALL_ELEMENTS)
    if size > MAX_BALL_ELEMENTS:
        raise ValueError(f"the ball of norm <= {max_norm} has more than "
                         f"{MAX_BALL_ELEMENTS} elements; lower the norm bound")
    if size == 1:
        return iter(())  # only the identity: max_norm 0, or a graph with no vertices
    return ((norm, syllables, state) for norm in range(1, max_norm + 1)
            for syllables, state in _sphere(graph, norm, cap, derived))


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

    Elements are streamed in (norm, lex) order, each with its image at cap k
    extended from its parent's, and the scan stops at the first one whose
    image is 1.  For k >= 2 it skips the subtrees outside [G, G], which is
    exact (module docstring).
    """
    if graph.is_complete():
        raise ValueError(
            "complete graph: the group is free abelian, hence nilpotent, and "
            "deep lower central terms are trivial")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > max_norm >= 0:
        # depth <= norm, so d(k) >= k: nothing to walk
        return DepthFunctionRow(k, "at_least", max_norm + 1)
    for norm, syllables, (image, full, _) in _elements(graph, max_norm, k, k >= 2):
        if len(image) == 1 and not any(full.values()):  # the image is 1
            return DepthFunctionRow(k, "exact", norm, GroupWord._trusted(graph, syllables))
    return DepthFunctionRow(k, "at_least", max_norm + 1)


def commutator_witness(graph, k):
    """Left-normed commutator [..[[s,t],t].., t] of weight k.

    s, t is the first non-adjacent vertex pair in declaration order; the
    result lies in the k-th lower central term by construction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
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
    elements stream past, each with its image at cap 2 extended from its
    parent's: a nonzero degree-1 part means depth 1, and only the other
    elements go through `lcs_depth`.  Complete graphs are allowed (a
    degenerate run where every depth is 1).
    """
    cells = {}
    violations = []
    checked = 0
    for n, syllables, (_, full, _) in _elements(graph, max_norm, 2):
        if any(full.values()):
            d = 1  # a nonzero degree-1 part: outside [G, G]
        else:
            word = GroupWord._trusted(graph, syllables)
            d = lcs_depth(word).depth
            if d > n:
                violations.append((word, n, d))
        checked += 1
        cells[(n, d)] = cells.get((n, d), 0) + 1
    return VerifyReport(max_norm, checked, cells, violations)
