from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (c4, f2, freely_reduced_strings, growth_series, k3, k3_minus_edge,
                      marked_canonical, p3, random_graph, swap_closure_lex_min, z2)
from raaglcs import (Graph, GroupWord, VerifyReport, commutator_witness, depth_function,
                     enumerate_elements, in_dimension_subgroup, lcs_depth, mu,
                     verify_depth_bound)
from raaglcs import lab
from raaglcs.words import MAX_WORD_SYLLABLES


def lex_key(word):
    index = word.graph.index
    return (word.norm(), tuple((index(s), e) for s, e in word.syllables))


def reference_elements(graph, max_norm):
    """The ball by brute force: canonicalize every freely reduced string,
    deduplicate, sort by (norm, lex)."""
    found = {GroupWord(graph, s).canonical().syllables
             for s in freely_reduced_strings(graph, max_norm)}
    found.discard(())
    return sorted((GroupWord(graph, s) for s in found), key=lex_key)


# --- enumeration ---

def test_enumerate_free_group_norm_one():
    words = enumerate_elements(f2(), 1)
    assert [str(w) for w in words] == ["a^-1", "a", "b^-1", "b"]


def test_enumerate_abelian_norm_two():
    assert len(enumerate_elements(z2(), 2)) == 12


def test_enumerate_norm_zero_is_empty():
    assert enumerate_elements(p3(), 0) == []


def test_enumerate_vertexless_graph_is_empty_at_once():
    assert enumerate_elements(Graph([]), 10 ** 9) == []
    assert sum(lab._sphere_sizes(Graph([]), 10 ** 9, 10)) == 1


def test_enumerate_rejects_negative_bound():
    with pytest.raises(ValueError):
        enumerate_elements(f2(), -1)


def test_enumerate_free_group_counts():
    # 2n(2n-1)^(L-1) freely reduced strings of length L, all distinct elements
    words = enumerate_elements(f2(), 3)
    assert len(words) == 4 + 12 + 36
    by_norm = {}
    for w in words:
        by_norm[w.norm()] = by_norm.get(w.norm(), 0) + 1
    assert by_norm == {1: 4, 2: 12, 3: 36}


def test_enumerate_sorted_dedup_canonical():
    words = enumerate_elements(p3(), 3)
    keys = [(w.norm(), tuple((w.graph.index(s), e) for s, e in w.syllables))
            for w in words]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for w in words:
        assert w.syllables == w.canonical().syllables
        assert w.syllables


def test_enumerated_words_and_witness_are_marked_canonical():
    for graph in (f2(), p3(), c4()):
        for w in enumerate_elements(graph, 3):
            assert marked_canonical(w)
    for graph, k in ((f2(), 1), (f2(), 2), (p3(), 2)):
        assert marked_canonical(depth_function(graph, k, 4).minimal_witness)


def test_enumerate_counts_match_growth_series():
    for graph in (f2(), z2(), p3(), c4(), k3_minus_edge()):
        by_norm = [0] * 7
        for w in enumerate_elements(graph, 6):
            by_norm[w.norm()] += 1
            # a freshly built word, not marked canonical
            assert w.syllables == GroupWord(graph, w.syllables).canonical().syllables
        assert by_norm[1:] == growth_series(graph, 6)[1:]


@given(st.randoms(use_true_random=False), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_enumerate_matches_swap_closure(rng, max_norm):
    graph = random_graph(rng, max_vertices=5, min_vertices=1)
    oracle = {swap_closure_lex_min(GroupWord(graph, s))
              for s in freely_reduced_strings(graph, max_norm)}
    oracle.discard(())
    expected = sorted((GroupWord(graph, s) for s in oracle), key=lex_key)
    words = enumerate_elements(graph, max_norm)
    assert [w.syllables for w in words] == [w.syllables for w in expected]
    for w in words:
        assert w.syllables == GroupWord(graph, w.syllables).canonical().syllables


def test_sphere_sizes_match_reference():
    for graph in (f2(), z2(), p3(), c4(), k3(), k3_minus_edge()):
        by_norm = [1, 0, 0, 0, 0]
        for w in reference_elements(graph, 4):
            by_norm[w.norm()] += 1
        assert lab._sphere_sizes(graph, 4, 10 ** 9) == by_norm
        assert lab._sphere_sizes(graph, 7, 10 ** 9) == growth_series(graph, 7)
    assert lab._sphere_sizes(c4(), 6, 11665) == growth_series(c4(), 6)
    assert lab._sphere_sizes(c4(), 6, 11664) is None  # one past the cap
    # stops at the first empty sphere, however far max_norm reaches
    assert lab._sphere_sizes(Graph([]), 10 ** 9, 10) == [1, 0]


def test_budget_admits_documented_runs():
    assert sum(lab._sphere_sizes(c4(), 7, lab.MAX_BALL_ELEMENTS)) == 40825
    assert sum(lab._sphere_sizes(f2(), 8, lab.MAX_BALL_ELEMENTS)) == 13121


def test_budget_rejects_before_generating(monkeypatch):
    def unreachable(graph, norm, level=0):
        raise AssertionError("a sphere was generated")

    def uncounted(*state):
        raise AssertionError("a sphere was counted")

    monkeypatch.setattr(lab, "_sphere", unreachable)
    monkeypatch.setattr(lab, "_derived_size", uncounted)
    for search in (enumerate_elements, verify_depth_bound,
                   lambda graph, n: depth_function(graph, 3, n)):
        with pytest.raises(ValueError, match=f"more than {lab.MAX_BALL_ELEMENTS} elements"):
            search(c4(), 30)


# --- depth function ---

def test_depth_function_k1():
    row = depth_function(f2(), 1, 2)
    assert row.kind == "exact" and row.norm == 1
    assert row.minimal_witness.norm() == 1


def test_depth_function_k2_free_group():
    row = depth_function(f2(), 2, 4)
    assert row.kind == "exact" and row.norm == 4
    witness = row.minimal_witness
    assert in_dimension_subgroup(witness, 2)
    assert witness.norm() == 4


def test_depth_function_k2_path_graph():
    row = depth_function(p3(), 2, 4)
    assert row.kind == "exact" and row.norm == 4


def test_depth_function_lower_bound_when_budget_too_small():
    row = depth_function(f2(), 2, 3)
    assert row.kind == "at_least" and row.norm == 4
    assert row.minimal_witness is None


def test_depth_function_nondecreasing_in_k():
    rows = [depth_function(f2(), k, 4) for k in (1, 2)]
    assert rows[0].norm <= rows[1].norm


def test_depth_function_rejects_complete_graphs():
    for graph in (k3(), z2()):
        with pytest.raises(ValueError, match="nilpotent"):
            depth_function(graph, 2, 3)


def test_depth_function_stops_at_first_hit(monkeypatch):
    ball = [w.codes for w in enumerate_elements(f2(), 8)]
    pulled = []
    sphere = lab._sphere

    def counting(*args):
        for codes in sphere(*args):
            pulled.append(codes)
            yield codes

    monkeypatch.setattr(lab, "_sphere", counting)
    row = depth_function(f2(), 3, 8)
    assert row.kind == "exact" and row.norm == 8
    assert str(row.minimal_witness) == "a^-2 b^-1 a b^2 a b^-1"
    assert pulled[-1] == row.minimal_witness.codes
    assert len(pulled) < len(ball)


def test_depth_function_decides_elements_outside_derived_subgroup_unseen():
    # k = 50 is above the norm bound 5, and depth <= norm, so the row is a
    # lower bound before any element is walked; an image at cap 50 of some
    # of those elements would pass MAX_KERNEL_WORK.
    row = depth_function(f2(), 50, 5)
    assert (row.kind, row.norm) == ("at_least", 6)


def test_depth_function_rejects_bad_k():
    with pytest.raises(ValueError):
        depth_function(f2(), 0, 2)


# --- commutator witnesses ---

def test_witness_weight_one_is_first_generator():
    assert commutator_witness(f2(), 1).syllables == (("a", 1),)


def test_witness_weight_two_shape():
    w = commutator_witness(f2(), 2)
    assert w.norm() == 4
    assert w.equals(GroupWord(f2(), [("a", 1), ("b", 1), ("a", -1), ("b", -1)]))


def test_witness_uses_first_nonadjacent_pair():
    # p3 has edges a-b and b-c, so the first non-commuting pair is (a, c)
    w = commutator_witness(p3(), 2)
    assert w.equals(GroupWord(p3(), [("a", 1), ("c", 1), ("a", -1), ("c", -1)]))


def test_witness_weight_three():
    w = commutator_witness(f2(), 3)
    assert w.norm() <= 10
    assert w.norm() > 0
    assert in_dimension_subgroup(w, 3)


def test_witness_past_the_word_bound_refused():
    # The weight-k witness has 2^k syllables: weight 17 would pass
    # MAX_WORD_SYLLABLES, and is refused before its last bracket is built.
    assert len(commutator_witness(f2(), 16).codes) == 2 ** 16
    with pytest.raises(ValueError, match=f"word expands to more than {MAX_WORD_SYLLABLES} syllables"):
        commutator_witness(f2(), 17)


def test_witness_rejects_complete_graph():
    with pytest.raises(ValueError, match="complete"):
        commutator_witness(k3(), 2)


# --- the depth <= norm sweep ---

def test_verify_free_group():
    report = verify_depth_bound(f2(), 4)
    assert report.passed
    assert report.checked == 4 + 12 + 36 + 108
    assert max(d for (n, d) in report.cells if n == 4) == 2


def test_verify_abelian_degenerate():
    report = verify_depth_bound(z2(), 4)
    assert report.passed
    assert all(d == 1 for (_, d) in report.cells)


def test_verify_depths_start_at_one():
    report = verify_depth_bound(p3(), 3)
    assert report.passed
    assert all(1 <= d <= n for (n, d) in report.cells)


def test_verify_report_lines():
    report = verify_depth_bound(f2(), 2)
    lines = report.lines()
    assert lines[0] == "norm=1 depth=1 count=4"
    assert lines[-1] == "PASS"
    assert f"checked={report.checked} max_norm=2" in lines


def test_verify_walks_only_the_derived_tree(monkeypatch):
    sphere = lab._sphere
    walked = []

    def recording(graph, norm, level=0):
        walked.append((norm, level))
        return sphere(graph, norm, level)

    monkeypatch.setattr(lab, "_sphere", recording)
    report = verify_depth_bound(c4(), 6)
    # norms 1, 2, 3 and 5 hold no element of [G, G], counted without a walk
    assert walked == [(4, 2), (6, 2)]
    assert report.checked == 11664
    assert sum(c for (_, d), c in report.cells.items() if d > 1) == 96


def test_verify_free_group_norm_eight_cells():
    lines = verify_depth_bound(f2(), 8).lines()
    for line in ("norm=6 depth=2 count=40", "norm=8 depth=2 count=248",
                 "norm=8 depth=3 count=64", "checked=13120 max_norm=8"):
        assert line in lines
    assert lines[-1] == "PASS"


def test_verify_counted_reports():
    report = verify_depth_bound(Graph([]), 10 ** 9)
    assert report.lines() == ["checked=0 max_norm=1000000000", "PASS"]
    assert verify_depth_bound(z2(), 4).lines() == [
        "norm=1 depth=1 count=4", "norm=2 depth=1 count=8", "norm=3 depth=1 count=12",
        "norm=4 depth=1 count=16", "checked=40 max_norm=4", "PASS"]
    assert verify_depth_bound(k3(), 3).lines() == [
        "norm=1 depth=1 count=6", "norm=2 depth=1 count=18", "norm=3 depth=1 count=38",
        "checked=62 max_norm=3", "PASS"]


def test_verify_lines_match_reference():
    for graph, max_norm in ((f2(), 6), (p3(), 5), (c4(), 5), (k3_minus_edge(), 5)):
        cells = {}
        violations = []
        elements = reference_elements(graph, max_norm)
        for w in elements:
            n, d = w.norm(), lcs_depth(w).depth
            cells[(n, d)] = cells.get((n, d), 0) + 1
            if d > n:
                violations.append((w, n, d))
        expected = VerifyReport(max_norm, len(elements), cells, violations)
        assert verify_depth_bound(graph, max_norm).lines() == expected.lines()


# --- exponent sums carried down the normal-form tree ---

@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_carried_images_match_from_scratch(rng, k, max_norm):
    graph = random_graph(rng, max_vertices=5, min_vertices=1)
    while sum(lab._sphere_sizes(graph, max_norm, 10 ** 9)) > 2000:  # keep the brute force small
        max_norm -= 1
    elements = enumerate_elements(graph, max_norm)

    # the depth function row against a from-scratch scan
    if k >= 2 and graph.is_complete():  # gamma_1 = G on any graph
        with pytest.raises(ValueError, match="nilpotent"):
            depth_function(graph, k, max_norm)
    else:
        hit = next((w for w in elements if in_dimension_subgroup(w, k)), None)
        row = depth_function(graph, k, max_norm)
        if hit is None:
            assert (row.kind, row.norm, row.minimal_witness) == ("at_least", max_norm + 1, None)
        else:
            assert (row.kind, row.norm) == ("exact", hit.norm())
            assert row.minimal_witness.syllables == hit.syllables

    # the depth <= norm sweep against lcs_depth on each element
    cells = {}
    violations = []
    for w in elements:
        n, d = w.norm(), lcs_depth(w).depth
        cells[(n, d)] = cells.get((n, d), 0) + 1
        if d > n:
            violations.append((w.syllables, n, d))
    report = verify_depth_bound(graph, max_norm)
    assert report.checked == len(elements)
    assert report.cells == cells
    assert [(w.syllables, n, d) for w, n, d in report.violations] == violations

    # the pruned walks against the elements whose image, built from scratch,
    # has no part of degree 1 (level 1: [G, G]) or of degree <= 2 (level 2:
    # gamma_3), in the same order; the count against the level-1 walk
    for norm in range(1, max_norm + 1):
        low = {codes: {t.length for t in mu(GroupWord._trusted(graph, codes), 3).terms}
               for codes in lab._sphere(graph, norm)}
        derived = [codes for codes, degrees in low.items() if 1 not in degrees]
        assert list(lab._sphere(graph, norm, 1)) == derived
        assert list(lab._sphere(graph, norm, 2)) == [codes for codes in derived
                                                     if 2 not in low[codes]]
        assert lab._derived_size(graph.masks, 0, norm, {}, {}) == len(derived)


def labelled_graphs(max_vertices):
    """Every graph on the vertices a, b, ... of each size from 1 to max_vertices."""
    for n in range(1, max_vertices + 1):
        names = "abcd"[:n]
        pairs = list(combinations(names, 2))
        for chosen in range(2 ** len(pairs)):
            yield Graph(names, [pair for i, pair in enumerate(pairs) if chosen >> i & 1])


def test_walk_levels_and_count_exact_on_small_graphs():
    graphs = list(labelled_graphs(4))
    assert len(graphs) == 75
    for graph in graphs:
        for norm in range(1, 9 if len(graph.vertices) <= 2 else 7):
            derived = list(lab._sphere(graph, norm, 1))
            assert list(lab._sphere(graph, norm, 2)) == [
                codes for codes in derived
                if in_dimension_subgroup(GroupWord._trusted(graph, codes, True), 3)]
            assert lab._derived_size(graph.masks, 0, norm, {}, {}) == len(derived)
    # 8 vertices, edgeless and a path: a state with no slack tries only the
    # generators with a nonzero sum, so level 1 against the full walk
    # filtered by zero exponent sums
    names = [f"v{i}" for i in range(8)]
    for graph in (Graph(names), Graph(names, list(zip(names, names[1:])))):
        derived = list(lab._sphere(graph, 4, 1))
        assert derived == [codes for codes in lab._sphere(graph, 4)
                           if exponent_sums_vanish(GroupWord._trusted(graph, codes, True))]
        assert len(derived) > 100
        assert list(lab._sphere(graph, 4, 2)) == [
            codes for codes in derived
            if in_dimension_subgroup(GroupWord._trusted(graph, codes, True), 3)]
        assert lab._derived_size(graph.masks, 0, 4, {}, {}) == len(derived)


# (level-1 yields, pushes), (level-2 yields, pushes) per (graph, norm)
WALK_PUSHES = {
    ("F2", 8): ((312, 1440), (64, 596)),
    ("F2", 10): ((2240, 10500), (288, 3720)),
    ("C4", 6): ((80, 648), (0, 344)),
    ("C4", 8): ((688, 5280), (128, 2888)),
    ("P4", 6): ((248, 1308), (0, 548)),
    ("P4", 8): ((3992, 19880), (256, 8132)),
}


def test_pruned_walk_pushes_are_pinned(monkeypatch):
    # At levels >= 1 the walk pushes exactly the children `_steps` yields,
    # so a looser prune, one that yields the same elements but admits more
    # children (floor(rest^2 / 2) at level 2, say), fails here.
    graphs = {"F2": f2(), "C4": c4(), "P4": Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])}
    steps = lab._steps
    pushed = []

    def counting(*state):
        for child in steps(*state):
            pushed.append(child)
            yield child

    monkeypatch.setattr(lab, "_steps", counting)
    for (name, norm), expected in WALK_PUSHES.items():
        found = []
        for level in (1, 2):
            pushed.clear()
            found.append((sum(1 for _ in lab._sphere(graphs[name], norm, level)), len(pushed)))
        assert tuple(found) == expected, (name, norm)


def test_derived_walk_is_empty_at_odd_norms():
    # An element of [G, G] has every exponent sum 0, so its norm is even.
    for graph in (f2(), p3(), c4(), k3_minus_edge()):
        for norm in (1, 3, 5, 7):
            assert list(lab._sphere(graph, norm, 1)) == []
            assert list(lab._sphere(graph, norm, 2)) == []
        assert list(lab._sphere(graph, 4, 1))


def exponent_sums_vanish(word):
    sums = {}
    for s, e in word.syllables:
        sums[s] = sums.get(s, 0) + e
    return not any(sums.values())


def test_kernel_asked_only_about_zero_exponent_sums(monkeypatch):
    def counting(name):
        real = getattr(lab, name)

        def ask(word, *args):
            asked[name].append(word.syllables)
            return real(word, *args)
        return ask

    asked = {"in_dimension_subgroup": [], "lcs_depth": []}
    for name in asked:
        monkeypatch.setattr(lab, name, counting(name))

    row = depth_function(f2(), 2, 8)
    zero = [w.syllables for w in enumerate_elements(f2(), 8) if exponent_sums_vanish(w)]
    assert asked["in_dimension_subgroup"] == zero[:zero.index(row.minimal_witness.syllables) + 1]

    # for k >= 3 the walk yields gamma_3 alone: the first element asked is the hit
    asked["in_dimension_subgroup"].clear()
    row = depth_function(f2(), 3, 8)
    assert asked["in_dimension_subgroup"] == [row.minimal_witness.syllables]

    verify_depth_bound(f2(), 8)
    assert asked["lcs_depth"] == [w.syllables for w in enumerate_elements(f2(), 8)
                                  if exponent_sums_vanish(w) and in_dimension_subgroup(w, 3)]
    assert len(asked["lcs_depth"]) == 64
