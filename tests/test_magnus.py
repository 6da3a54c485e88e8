import itertools
import math
import random

import pytest

from conftest import (f2, image_at_one_cap, k3_minus_edge, p3, product_image, random_graph,
                      random_word, series_one, z2)
from raaglcs import magnus
from raaglcs import (DepthResult, Graph, GroupWord, Trace, TruncatedSeries, commutator,
                     commutator_witness, in_dimension_subgroup, lcs_depth, mu,
                     parse_word, phi, standard_dissection, syllable_factor)
from raaglcs.graph import MAX_VERTICES
from raaglcs.words import letter_bits


def series(graph, cap, *terms):
    return TruncatedSeries(graph, cap, [(Trace(graph, word), c) for word, c in terms])


# --- syllable factors ---

def test_factor_square():
    assert syllable_factor(f2(), "a", 2, 3) == series(f2(), 3, ("", 1), ("a", 2), ("aa", 1))


def test_factor_inverse_is_geometric():
    assert syllable_factor(f2(), "a", -1, 3) == series(f2(), 3, ("", 1), ("a", -1), ("aa", 1))


def test_factor_inverse_square():
    expected = series(f2(), 4, ("", 1), ("a", -2), ("aa", 3), ("aaa", -4))
    assert syllable_factor(f2(), "a", -2, 4) == expected
    geometric = series(f2(), 4, ("", 1), ("a", -1), ("aa", 1), ("aaa", -1))
    assert geometric * geometric == expected


def test_factor_rejects_zero_exponent():
    with pytest.raises(ValueError, match="nonzero"):
        syllable_factor(f2(), "a", 0, 3)


def test_factor_degree_coefficients_are_binomials():
    g = f2()
    for e in range(-4, 5):
        if e == 0:
            continue
        for cap in range(1, 7):
            factor = syllable_factor(g, "a", e, cap)
            for k in range(cap):
                expected = math.comb(e, k) if e > 0 else (-1) ** k * math.comb(-e + k - 1, k)
                assert factor.coefficient(Trace(g, ("a",) * k)) == expected


def test_factor_matches_repeated_multiplication():
    g = p3()
    for cap in range(1, 6):
        base = series(g, cap, ("", 1), ("b", 1))
        inverse = TruncatedSeries(g, cap,
                                  [(Trace(g, ("b",) * i), (-1) ** i) for i in range(cap)])
        for e in range(-4, 5):
            if e == 0:
                continue
            factor = base if e > 0 else inverse
            product = series_one(g, cap)
            for _ in range(abs(e)):
                product = product * factor
            assert syllable_factor(g, "b", e, cap) == product


# --- the representation ---

def test_mu_of_generator():
    assert mu(parse_word("a", f2()), 4) == series(f2(), 4, ("", 1), ("a", 1))


def test_mu_of_inverse_generator():
    expected = series(f2(), 4, ("", 1), ("a", -1), ("aa", 1), ("aaa", -1))
    assert mu(parse_word("a^-1", f2()), 4) == expected


def test_mu_of_free_commutator():
    expected = series(f2(), 3, ("", 1), ("ab", 1), ("ba", -1))
    assert mu(parse_word("[a,b]", f2()), 3) == expected


def test_mu_is_homomorphism():
    rng = random.Random(31)
    for _ in range(150):
        g = random_graph(rng)
        w1 = random_word(rng, g, max_syllables=3)
        w2 = random_word(rng, g, max_syllables=3)
        assert mu(w1 * w2, 4) == mu(w1, 4) * mu(w2, 4)


def test_mu_sends_inverses_to_units():
    rng = random.Random(32)
    for _ in range(150):
        g = random_graph(rng)
        w = random_word(rng, g, max_syllables=3)
        assert mu(w, 4) * mu(w.inverse(), 4) == series_one(g, 4)


def test_mu_sweeps_the_reduced_word():
    # Raw, these eight syllables would build C(E, k) for every k below the
    # cap; reduced, the word is empty.
    e = 99999999999999
    w = parse_word(f"[a^{e},b^{e}] [b^{e},a^{e}]", f2())
    assert mu(w, 40) == mu(GroupWord(f2()), 40) == series_one(f2(), 40)


def test_mu_constant_term_is_one():
    rng = random.Random(33)
    for _ in range(50):
        g = random_graph(rng)
        w = random_word(rng, g)
        assert mu(w, 3).coefficient(Trace(g)) == 1


# --- dimension subgroups ---

def test_generator_dimension_membership():
    a = parse_word("a", f2())
    assert in_dimension_subgroup(a, 1)
    assert not in_dimension_subgroup(a, 2)


def test_free_commutator_in_second_term():
    w = parse_word("[a,b]", f2())
    assert in_dimension_subgroup(w, 2)
    assert not in_dimension_subgroup(w, 3)


def test_identity_in_every_term():
    e = parse_word("1", f2())
    for k in (1, 2, 5):
        assert in_dimension_subgroup(e, k)


def test_k_above_depth_is_a_ceiling():
    # norm 15, depth 1: one image at cap 40 would pass the work budget
    w = parse_word("a b a^-1 b^-1 a^3 b^2 a b a b^-1 a^-2", f2())
    assert not in_dimension_subgroup(w, 40)
    assert not in_dimension_subgroup(commutator_witness(f2(), 8), 16)  # norm 256, depth 8


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        in_dimension_subgroup(parse_word("a", f2()), 0)


# --- depth ---

def test_depth_of_generator():
    result = lcs_depth(parse_word("a", f2()))
    assert result.kind == "exact" and result.depth == 1
    assert result.witness_trace == Trace(f2(), "a")


def test_depth_of_free_commutator():
    result = lcs_depth(parse_word("[a,b]", f2()))
    assert result.kind == "exact" and result.depth == 2
    assert result.witness_trace == Trace(f2(), "ab")


def test_depth_of_commuting_commutator_is_infinite():
    assert lcs_depth(parse_word("[a,b]", z2())).kind == "infinite"


def test_depth_with_lowered_cap():
    w = parse_word("[a,b]", f2())
    result = lcs_depth(w, cap=2)
    assert result == DepthResult.at_least(2)
    assert lcs_depth(w, cap=3).depth == 2


def test_cap_above_depth_is_a_ceiling():
    w8 = commutator_witness(f2(), 8)  # norm 256: one image at cap 40 would pass the budget
    for cap in (9, 16, 40):
        result = lcs_depth(w8, cap=cap)
        assert result.kind == "exact" and result.depth == 8
    assert lcs_depth(w8, cap=8) == DepthResult.at_least(8)


def test_weight_ten_witness_fits_the_budget():
    assert lcs_depth(commutator_witness(f2(), 10)).depth == 10


def test_wide_positive_window_fits_the_budget():
    # A round brings each lower layer only as far as a syllable reads it and
    # stores nothing of a positive last syllable, so two big positive
    # syllables cost about what their product does.
    image = mu(GroupWord(f2(), [("a", 150), ("b", 150)]), 200)
    assert len(image.terms) == sum(min(150, 199 - x) + 1 for x in range(151))
    for x, y in ((0, 0), (1, 148), (49, 150), (150, 49), (75, 75)):
        expected = math.comb(150, x) * math.comb(150, y)
        assert image.coefficient(Trace(f2(), "a" * x + "b" * y)) == expected


def test_negative_exponent_after_growth_refused():
    # A syllable s^-n reads n layers of its own output L_(i+1) each round,
    # where a product by (1 + s)^-n would read its input: a^100 b^-100 at
    # cap 150 is refused, though its image has only 10,100 terms.
    with pytest.raises(ValueError, match="units of work"):
        mu(GroupWord(f2(), [("a", 100), ("b", -100)]), 150)


def test_default_depth_matches_full_cap():
    rng = random.Random(34)
    for _ in range(100):
        g = random_graph(rng)
        w = random_word(rng, g, max_syllables=3, max_exp=2)
        incremental = lcs_depth(w)
        if incremental.kind == "infinite":
            assert w.norm() == 0
            continue
        (degree, letters), _ = image_at_one_cap(w, w.norm() + 1)
        full = DepthResult.exact(degree, Trace(g, [g.vertices[a] for a in letters]))
        assert incremental == full


def test_exact_depth_means_lower_degrees_vanish():
    rng = random.Random(35)
    for _ in range(80):
        g = random_graph(rng)
        w = random_word(rng, g, max_syllables=3, max_exp=2)
        result = lcs_depth(w)
        if result.kind != "exact":
            continue
        assert image_at_one_cap(w, result.depth)[1]
        if result.depth < w.norm() + 1:
            assert not image_at_one_cap(w, result.depth + 1)[1]


def test_square_free_leading_term():
    rng = random.Random(36)
    for _ in range(150):
        g = random_graph(rng)
        w = random_word(rng, g, max_syllables=4, max_exp=2).reduced()
        if not w.syllables:
            continue
        gens = [s for s, _ in w.syllables]
        exps = [e for _, e in w.syllables]
        lead = Trace(g, gens)
        image = mu(w, len(gens) + 1)
        assert image.coefficient(lead) == math.prod(exps)
        square_free = GroupWord(g, [(a, 1) for a in lead.letters])
        assert len(square_free.codes) == len(square_free.canonical().codes)


def test_depth_bounded_by_norm():
    rng = random.Random(37)
    for _ in range(150):
        g = random_graph(rng)
        w = random_word(rng, g, max_syllables=4, max_exp=2)
        result = lcs_depth(w)
        if result.kind == "exact":
            assert 1 <= result.depth <= w.norm()


def test_commutator_depth_adds():
    rng = random.Random(38)
    for _ in range(100):
        g = random_graph(rng)
        u = random_word(rng, g, max_syllables=2, max_exp=2)
        v = random_word(rng, g, max_syllables=2, max_exp=2)
        w = commutator(u, v)
        du, dv, dw = lcs_depth(u), lcs_depth(v), lcs_depth(w)
        if "infinite" in (du.kind, dv.kind, dw.kind):
            continue
        assert dw.depth >= du.depth + dv.depth


def test_left_normed_commutators_reach_weight():
    g = f2()
    word = parse_word("a", g)
    step = parse_word("b", g)
    for k in range(1, 6):
        assert word.norm() > 0
        assert in_dimension_subgroup(word, k)
        word = commutator(word, step).reduced()


# --- packed terms ---

def assert_matches_oracle(word, cap):
    """mu below cap and the default lcs_depth against the tests' product
    oracle, which keeps terms as letter-code tuples; every trace's `codes`
    reads its packed key back as a tuple of ints."""
    graph = word.graph
    image = product_image(word, cap)
    terms = mu(word, cap).terms
    assert list(terms.items()) == [
        (Trace(graph, [graph.vertices[a] for a in t]), image[t])
        for t in sorted(image, key=lambda t: (len(t), t))]
    result = lcs_depth(word)
    if result.kind == "infinite":
        assert word.norm() == 0
        traces = list(terms)
    else:  # every cap above the depth answers as this one
        (degree, letters), _ = image_at_one_cap(word, result.depth + 1)
        witness = Trace(graph, [graph.vertices[a] for a in letters])
        assert result == DepthResult.exact(degree, witness)
        traces = list(terms) + [result.witness_trace]
    assert all(type(t.codes) is tuple and all(type(c) is int for c in t.codes) for t in traces)


def numbered_graph(rng, n, p):
    names = [f"x{i}" for i in range(n)]
    return Graph(names, [pair for pair in itertools.combinations(names, 2) if rng.random() < p])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 40])
def test_packed_terms_match_oracle_at_each_letter_width(n):
    # Letters take max(1, (n - 1).bit_length()) bits: widths 1 to 6, each
    # at its vertex counts 2^w and 2^w + 1.  Words run over vertex 0, the
    # last vertex and two more, so the all-zero letter and the widest one
    # both occur, on graphs with no edges and with random ones.
    rng = random.Random(n)
    for p in (0, 0.5, 0.9):
        graph = numbered_graph(rng, n, p)
        pool = sorted({0, n - 1, rng.randrange(n), rng.randrange(n)})
        for _ in range(15):
            syllables = [(graph.vertices[rng.choice(pool)], rng.choice([-3, -2, -1, 1, 2, 3]))
                         for _ in range(rng.randint(1, 5))]
            word = GroupWord(graph, syllables)
            if rng.random() < 0.4:
                word = commutator(word, GroupWord(graph, [(graph.vertices[rng.choice(pool)], 1)]))
            assert_matches_oracle(word, rng.randint(2, 7))


def test_runs_of_vertex_zero_keep_their_length():
    # Vertex 0 packs to all-zero letters, so only the sentinel bit tells
    # a a a from a a.  In k3 - e, c commutes with a and with b, vertex 1: a
    # scan for c's insertion point that read the sentinel as a letter would
    # carry on past it.
    image = mu(parse_word("a^5", f2()), 8)
    assert image.terms == {Trace(f2(), "a" * k): math.comb(5, k) for k in range(6)}
    for graph, text in ((f2(), "a^5 b^-2 a^3"), (z2(), "a^3 b^2 a^-4"),
                        (k3_minus_edge(), "a^3 c^2 b a^-2 c^-1"),
                        (k3_minus_edge(), "[a^3, c^-2] [b, c] a^2")):
        assert_matches_oracle(parse_word(text, graph), 9)
    assert lcs_depth(parse_word("[[a^4,b],a^-3]", f2())).witness_trace == Trace(f2(), "aab")


def test_widest_letters_match_oracle():
    # MAX_VERTICES vertices take 15 bits a letter.
    names = [f"x{i}" for i in range(MAX_VERTICES)]
    graph = Graph(names)
    assert letter_bits(graph) == 15
    top = names[-1]
    for text in (f"x0^2 {top}^-1 x0", f"[{top}^2, x0^-1]", f"[[x0,{top}],{top}] x0^3"):
        assert_matches_oracle(parse_word(text, graph), 6)


# --- the kernel's charges ---

# A random genus-24 surface word: its phi image has 100 syllables and depth 1.
GENUS_24_WORD = ("b8 b12^-1 a21 a20 a16^-1 b18 a7^-1 a18^-1 b13 a8 b17^-1 b24 a22 a6 b10 b9^-1 "
                 "a20^-1 b23^-1 b13^-1 a5^-1 a4 a5^-1 b7^-1 b22^-1 a21^-1 a14^-1 a19^-1 a18^-1 "
                 "b19 b11 b9 a23^-1 a18 b23 a21^-1 a10")


@pytest.mark.parametrize("query, units", [
    (lambda: lcs_depth(commutator_witness(f2(), 8)), 1_363_252),
    (lambda: mu(parse_word("a^3 b^-4 a^5", f2()), 12), 18_940),
    (lambda: mu(parse_word("a^99999999999999 b", f2()), 30), 17_790),  # binomials past 64 bits
    (lambda: in_dimension_subgroup(parse_word("[[a,b^2],a^-3]", f2()), 5), 3_210),
    # the depth round ends on reads of the empty degree-1 layer by c^2 and c^-2
    (lambda: lcs_depth(parse_word("[[a,b],c^2]", Graph(["a", "b", "c"]))), 2_894),
    # the k = 2 pass cancels a term of a^-3's increment; stored, it would cost 5,017
    (lambda: mu(parse_word("a^2 b a^-3", f2()), 8), 4_921),
    # depth 1: round 1 alone, a visit and a letter per syllable
    (lambda: lcs_depth(phi(GENUS_24_WORD, standard_dissection(24))), 3_300),
    # and a unit for the 64 bits of C(n, 1) = n
    (lambda: lcs_depth(parse_word("a^12345678901234567890 b^-3 a", f2())), 100),
])
def test_kernel_charges_are_pinned(monkeypatch, query, units):
    # The least budget each query runs in: a change to what the kernel
    # charges, or where it checks, moves it.
    monkeypatch.setattr(magnus, "MAX_KERNEL_WORK", units)
    query()
    monkeypatch.setattr(magnus, "MAX_KERNEL_WORK", units - 1)
    with pytest.raises(ValueError, match="units of work"):
        query()


def test_no_budget_below_the_least_one_answers(monkeypatch):
    # [a,b] needs 456 units.  Every budget below that is refused: 0-131 by
    # round 1's one check, the rest by a later pass's read check or (128
    # budgets in 164-423) its add-back check.
    word = parse_word("[a,b]", f2())
    for units in range(456):
        monkeypatch.setattr(magnus, "MAX_KERNEL_WORK", units)
        with pytest.raises(ValueError, match="units of work"):
            lcs_depth(word)
    monkeypatch.setattr(magnus, "MAX_KERNEL_WORK", 456)
    assert lcs_depth(word).depth == 2


def test_no_budget_below_a_depth_one_words_least_one_answers(monkeypatch):
    # a b a^-2 answers in round 1, which charges 33 units a syllable.
    word = parse_word("a b a^-2", f2())
    for units in range(99):
        monkeypatch.setattr(magnus, "MAX_KERNEL_WORK", units)
        with pytest.raises(ValueError, match="units of work"):
            lcs_depth(word)
    monkeypatch.setattr(magnus, "MAX_KERNEL_WORK", 99)
    assert lcs_depth(word).depth == 1
