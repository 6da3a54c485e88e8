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
so the full walk places only its exponents +-left there; on a one-vertex
graph a sphere costs two stack entries, not 2 * norm.  Such a generator is
adjacent to every other, so a canonical word holds it at most once, with a
nonzero sum: the pruned walks below never place it.

The walk has a level.  Level 0, the full walk, yields every element and
keeps no sums.  Level 1 yields only the elements of [G, G] = gamma_2, the
kernel of abelianisation, and level 2 only those of gamma_3.  A stack
entry at level >= 1 holds only the walk's state: forbidden, the norm
left, the prefix's exponent sums and, at level 2, its pair values q.  One
child rule, `_steps`, admits each child of such a state by an exact prune
and builds the child's state, so the walk and the count below take the
same step over the same state.  Every level yields its elements in the
order of the full walk.

`depth_function(graph, k, n)` walks at level min(k - 1, 2): gamma_k lies
inside gamma_2 and, for k >= 3, inside gamma_3, so its first hit and
witness are those of the full scan.  The depth <= norm sweep walks at
level 2 and counts the rest.  The state (forbidden, norm left, exponent
sums) fixes how many level-1 leaves lie below it, so a recursion over it,
memoized and by the walk's own child rule, counts the elements of [G, G]
in a sphere without generating them.  Depth 1 is the sphere's size less
that count, depth 2 the count less the elements of gamma_3 walked, and
only those go through `lcs_depth`.  The states one sphere adds to the
memo are those of prefixes of its elements, each an element of the ball,
so the ball bound caps them too.  Both searches ask `magnus` only its
public questions, `lcs_depth` and `in_dimension_subgroup`, of the
elements the walk yields.

Each sphere's size is known before anything is generated, from the
spherical growth series 1 / sum_k c_k (-2t / (1 + t))^k, c_k the number of
k-vertex cliques (Chiswell 1994, The growth series of a graph product);
every search rejects a ball of more than MAX_BALL_ELEMENTS elements up
front.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

from .graph import Graph, check_type
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


def _syllables(masks, forbidden, tried):
    """The generators in bitmask `tried` that may follow a prefix in state
    `forbidden`, as (g, after, last): generator g, the state after its
    syllable, and whether that syllable ends the word, every generator
    being forbidden after it.  They come in descending order, the reverse
    of lex order.
    """
    dead = (1 << len(masks)) - 1
    tried &= dead & ~forbidden
    while tried:
        g = tried.bit_length() - 1
        tried ^= 1 << g
        after = 1 << g | masks[g] & ((1 << g) - 1 | forbidden)
        yield g, after, after == dead


def _steps(masks, forbidden, left, sums, q):
    """The children of a level-1 or level-2 state that can still end the
    walk at its level, as (g, e, after, rest, sums, q): the syllable g^e
    and the child's state, that is its automaton state, the norm left, its
    exponent sums with no zero entry and its q (None at level 1, as
    given).  They come in descending (g, e) order; the walk pushes each
    one, and `_derived_size` counts below each.

    Level 1 admits a child whose sums have an absolute total of at most
    the norm left.  That is exact: a syllable s^e moves the total by at
    most |e|, the exponents still to come add up to the norm left, so no
    element below a prefix over it has every sum 0.  Only the exponents
    that pass are tried: with c the prefix's sum on g, g^e moves the total
    by |c + e| - |c|, so they are the e of sign opposite to c with
    |e| <= half + |c|, and the others with |e| <= half, half being
    floor((left - total) / 2).  An admitted state has |c| <= total <= left,
    so |e| <= left holds already.

    Level 2 also bounds q.  For w in [G, G], the degree-2 part of its
    Magnus image is the sum of c_hk [h, k] over the non-adjacent pairs
    h < k, where c_hk is the sum of e_i e_j over h-syllables i before
    k-syllables j (Duchamp-Krob 1992), so w is in gamma_3 iff every c_hk
    is 0.  q holds the nonzero q_hk = c_hk - s_h s_k, s the exponent sums:
    appending g^e leaves c_hg - s_h s_g unchanged and moves only q_gk, by
    -e s_k, for each k > g not adjacent to g.  A suffix v of norm L turns
    q_hk into q_hk + c_hk(v) when the word ends with every sum 0, and
    |c_hk(v)| <= n_h(v) n_k(v) <= floor(L^2 / 4), n_h(v) the norm v spends
    on h.  So level 2 admits a child only if every |q_hk| is at most
    floor(rest^2 / 4), exactly; at a leaf the bound is 0 and q = c.
    """
    half = (left - sum(map(abs, sums.values()))) // 2
    # with no slack, a child must bring some exponent sum towards 0
    tried = -1 if half else sum(1 << k for k in sums)
    for g, after, last in _syllables(masks, forbidden, tried):
        if last:  # g is central, so placed at most once: its sum cannot return to 0
            continue
        c = sums.get(g, 0)
        for e in (*range(half - min(c, 0), 0, -1), *range(-1, -half - max(c, 0) - 1, -1)):
            rest = left - abs(e)
            pairs = q
            if q is not None:
                pairs = {**q}
                for k, s in sums.items():  # the pairs (g, k) that g^e moves
                    if k > g and not masks[g] >> k & 1:
                        v = pairs.pop((g, k), 0) - e * s
                        if v:
                            pairs[(g, k)] = v
                if max(map(abs, pairs.values()), default=0) > rest * rest >> 2:
                    continue  # no suffix of norm rest can bring some q_hk back to 0
            child = {**sums, g: c + e} if c + e else {h: t for h, t in sums.items() if h != g}
            yield g, e, after, rest, child, pairs


def _sphere(graph, norm, level=0):
    """The canonical `GroupWord.codes` of norm exactly `norm` (>= 1), in lex
    order.  Level 0 yields every element, level 1 those of [G, G] and
    level 2 those of gamma_3.  An element of [G, G] has every exponent sum
    0, so an even norm: levels >= 1 walk nothing at odd norms, and
    elsewhere push each child that `_steps` yields.
    """
    if level and norm % 2:
        return
    masks = graph.masks
    # (prefix, forbidden, norm left, the prefix's exponent sums, its q or None)
    stack = [((), 0, norm, {}, {} if level == 2 else None)]
    while stack:
        codes, forbidden, left, sums, q = stack.pop()
        if not left:
            yield codes
            continue
        if not level:
            exponents = None
            for g, after, last in _syllables(masks, forbidden, -1):
                if last:
                    ends = (left, -left)  # nothing may follow: only the last syllable fits
                else:
                    if exponents is None:
                        exponents = [*range(left, 0, -1), *range(-1, -left - 1, -1)]
                    ends = exponents
                for e in ends:
                    stack.append((codes + ((g, e),), after, left - abs(e), sums, q))
            continue
        for g, e, after, rest, child, pairs in _steps(masks, forbidden, left, sums, q):
            stack.append((codes + ((g, e),), after, rest, child, pairs))


def _derived_size(masks, forbidden, left, sums, memo):
    """How many leaves of the level-1 walk lie below a state: with the root
    state (0, n, {}), the size of [G, G] in the sphere of norm n.

    A recursion over the walk state (forbidden, norm left, exponent sums),
    which fixes everything below it, by the walk's own child rule
    `_steps`.  `memo` keeps the count of every state below the root, keyed
    by that state; one memo serves all the spheres of a search.
    """
    found = 0
    for _, _, after, rest, child, _ in _steps(masks, forbidden, left, sums, None):
        if not rest:
            found += 1
            continue
        key = (after, rest, frozenset(child.items()))
        size = memo.get(key)
        if size is None:
            size = memo[key] = _derived_size(masks, after, rest, child, memo)
        found += size
    return found


def enumerate_elements(graph, max_norm):
    """All distinct nontrivial elements of norm <= max_norm, sorted by (norm, lex).

    Each element appears once, as its canonical word, generated directly by
    the normal-form automaton in the module docstring: no string is
    canonicalized, deduplicated or sorted.  A ball of more than
    MAX_BALL_ELEMENTS elements raises ValueError before any is generated.
    """
    check_type(graph, Graph, "graph")
    spheres = _ball(graph, max_norm)
    return [GroupWord._trusted(graph, codes, True) for norm in range(1, len(spheres))
            for codes in _sphere(graph, norm)]


class DepthFunctionRow(NamedTuple):
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
    first one that `in_dimension_subgroup` puts in the k-th term.  It walks
    at level min(k - 1, 2): for k >= 2 it skips the subtrees outside
    [G, G], and for k >= 3 those outside gamma_3, both exactly (module
    docstring), so for k <= 3 the first element asked is the hit.
    """
    check_type(graph, Graph, "graph")
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
        for codes in _sphere(graph, norm, min(k - 1, 2)):
            word = GroupWord._trusted(graph, codes, True)
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
    check_type(graph, Graph, "graph")
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


class VerifyReport(NamedTuple):
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

    Only the elements of gamma_3 are walked, by `_sphere` at level 2, and
    go through `lcs_depth`.  The depths 1 and 2 are counted, not generated:
    per sphere, depth 1 is its size from the growth series less the size
    of [G, G] in it, which `_derived_size` counts, and depth 2 is that
    count less the elements walked.  A sphere with no element of [G, G]
    is not walked.  Complete graphs are allowed (a degenerate run where
    every depth is 1).  `lcs_depth` searches no deeper than the norm, so
    an element it finds no depth for is a violation of depth None, counted
    in `checked` but in no cell.
    """
    check_type(graph, Graph, "graph")
    spheres = _ball(graph, max_norm)
    cells = {}
    violations = []
    memo = {}
    for n in range(1, len(spheres)):
        derived = _derived_size(graph.masks, 0, n, {}, memo) if n % 2 == 0 else 0
        inside = 0
        if derived:
            for codes in _sphere(graph, n, 2):
                word = GroupWord._trusted(graph, codes, True)
                d = lcs_depth(word).depth
                if d is None or d > n:
                    violations.append((word, n, d))
                if d is not None:
                    cells[(n, d)] = cells.get((n, d), 0) + 1
                inside += 1
        if spheres[n] > derived:  # outside [G, G]: depth 1
            cells[(n, 1)] = spheres[n] - derived
        if derived > inside:  # in [G, G] but not in gamma_3: depth 2
            cells[(n, 2)] = derived - inside
    return VerifyReport(max_norm, sum(spheres[1:]), cells, violations)
