import math
import random

import pytest

from conftest import (f2, image_at_one_cap, p3, random_graph, random_word, series_one,
                      z2)
from raaglcs import (DepthResult, GroupWord, Trace, TruncatedSeries, commutator,
                     commutator_witness, in_dimension_subgroup, lcs_depth, mu,
                     parse_word, syllable_factor)


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


def test_default_depth_matches_full_cap():
    rng = random.Random(34)
    for _ in range(100):
        g = random_graph(rng)
        w = random_word(rng, g, max_syllables=3, max_exp=2)
        incremental = lcs_depth(w)
        if incremental.kind == "infinite":
            assert w.is_identity()
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
        assert GroupWord(g, [(a, 1) for a in lead.letters]).is_fully_reduced()


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
        assert not word.is_identity()
        assert in_dimension_subgroup(word, k)
        word = commutator(word, step).reduced()
