"""Acceptance sweep: the package's headline guarantees, one test per criterion.

Each test prints a `CRITERION n PASS` line on success (run with `pytest -s`
to see them).  All integer comparisons are exact; no tolerances apply.
Asymptotic growth claims are intentionally out of scope: the desk-scale
sweeps below are the whole story.
"""

import math
import random

from conftest import c4, f2, k3_minus_edge, p3, random_graph, series_one
from raaglcs import (Graph, GroupWord, Trace, TruncatedSeries,
                     commutator_witness, depth_function, in_dimension_subgroup,
                     lcs_depth, mu, phi, standard_dissection,
                     surface_depth_check, check_relator, verify_depth_bound)


def done(n, label):
    print(f"CRITERION {n} PASS: {label}")


def test_criterion_1_depth_bounded_by_norm_sweep():
    sweeps = [(f2(), 6), (p3(), 5), (c4(), 5), (k3_minus_edge(), 5)]
    for graph, max_norm in sweeps:
        report = verify_depth_bound(graph, max_norm)
        assert report.passed, report.lines()
        assert report.checked > 0
        assert all(1 <= d <= n for (n, d) in report.cells)
    done(1, "depth <= norm for every element in all four sweeps")


def test_criterion_2_square_free_leading_coefficient():
    rng = random.Random(1001)
    accepted = 0
    while accepted < 500:
        graph = random_graph(rng, max_vertices=4)
        raw = [(rng.choice(graph.vertices), rng.choice([-3, -2, -1, 1, 2, 3]))
               for _ in range(rng.randint(1, 5))]
        word = GroupWord(graph, raw).reduced()
        if not word.syllables or word.norm() > 8:
            continue
        if any(abs(e) > 3 for _, e in word.syllables):
            continue
        accepted += 1
        gens = [s for s, _ in word.syllables]
        exps = [e for _, e in word.syllables]
        lead = Trace(graph, gens)
        image = mu(word, len(gens) + 1)
        assert image.coefficient(lead) == math.prod(exps)
        square_free = GroupWord(graph, [(a, 1) for a in lead.letters])
        assert len(square_free.codes) == len(square_free.canonical().codes)
    done(2, "leading coefficient e1*...*en on a square-free trace, 500 words")


def test_criterion_3_homomorphism_and_units():
    rng = random.Random(1002)
    for _ in range(1000):
        graph = random_graph(rng, max_vertices=4)
        exps = [-2, -1, 1, 2]
        w1 = GroupWord(graph, [(rng.choice(graph.vertices), rng.choice(exps))
                               for _ in range(rng.randint(0, 3))])
        w2 = GroupWord(graph, [(rng.choice(graph.vertices), rng.choice(exps))
                               for _ in range(rng.randint(0, 3))])
        assert mu(w1 * w2, 5) == mu(w1, 5) * mu(w2, 5)
        assert mu(w1, 5) * mu(w1.inverse(), 5) == series_one(graph, 5)
    done(3, "image multiplicative and unital on 1000 word pairs, cap 5")


def test_criterion_4_geometric_series_identity():
    graph = f2()
    for cap in range(1, 9):
        one_plus = TruncatedSeries(graph, cap, [(Trace(graph), 1), (Trace(graph, "a"), 1)])
        alternating = TruncatedSeries(graph, cap,
                                      [(Trace(graph, ("a",) * i), (-1) ** i)
                                       for i in range(cap)])
        assert one_plus * alternating == series_one(graph, cap)
    done(4, "(1+s) * sum (-1)^i s^i == 1 for caps 1..8")


def test_criterion_5_left_normed_commutators():
    for graph in (f2(), p3(), c4()):
        for k in range(1, 7):
            witness = commutator_witness(graph, k)
            assert witness.norm() > 0
            assert in_dimension_subgroup(witness, k)
    for k in range(1, 7):
        result = lcs_depth(commutator_witness(f2(), k), cap=k + 1)
        assert result.kind == "exact" and result.depth == k
    done(5, "weight-k witnesses reach depth >= k; exactly k over the free pair")


def test_criterion_6_depth_function_small_values():
    for graph in (f2(), p3()):
        row = depth_function(graph, 1, 4)
        assert row.kind == "exact" and row.norm == 1
        row = depth_function(graph, 2, 4)
        assert row.kind == "exact" and row.norm == 4
        assert in_dimension_subgroup(row.minimal_witness, 2)
        assert row.minimal_witness.norm() > 0
    done(6, "d(1)=1 and d(2)=4 on both graphs, exhaustively exact")


def test_criterion_7_surface_transfer():
    for genus in (2, 3):
        dissection = standard_dissection(genus)
        for name in dissection.generator_names():
            assert phi(name, dissection).norm() <= 4
        assert check_relator(dissection)
        for text in ("a1", "[a1,b1]", "[[a1,b1],b1]"):
            report = surface_depth_check(text, dissection)
            assert not report.trivial_image
            assert report.bound_holds
    done(7, "generator images of norm <= 4, relator dies, transfer bound holds")


def test_criterion_8_canonical_form_matches_swap_closure():
    import itertools
    from conftest import freely_reduced_strings, swap_closure_lex_min

    vertices = ["a", "b", "c"]
    for edges in itertools.chain.from_iterable(
            itertools.combinations([("a", "b"), ("b", "c"), ("a", "c")], k)
            for k in range(4)):
        graph = Graph(vertices, edges)
        for string in freely_reduced_strings(graph, 4):
            word = GroupWord(graph, string)
            assert word.canonical().syllables == swap_closure_lex_min(word)
    done(8, "canonical form equals swap-closure lex-min, all 3-vertex graphs")
