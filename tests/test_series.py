import random

import pytest

from conftest import f2, k3, random_graph, series_one, series_sum, z2
from raaglcs import Trace, TruncatedSeries


def series(graph, cap, *terms):
    return TruncatedSeries(graph, cap, [(Trace(graph, word), c) for word, c in terms])


def random_series(rng, graph, cap, nterms=4):
    terms = []
    for _ in range(nterms):
        word = [rng.choice(graph.vertices) for _ in range(rng.randint(0, cap - 1))]
        terms.append((Trace(graph, word), rng.randint(-3, 3)))
    return TruncatedSeries(graph, cap, terms)


def test_generator_truncated_at_cap_one():
    assert series(f2(), 1, ("a", 1)).terms == {}


def test_cap_must_be_positive():
    with pytest.raises(ValueError, match="cap"):
        TruncatedSeries(f2(), 0)


def test_unknown_generator_rejected():
    with pytest.raises(ValueError, match="unknown vertex"):
        series(f2(), 3, ("x", 1))


def test_constructor_normalizes():
    g = f2()
    p = TruncatedSeries(g, 2, [(Trace(g, "a"), 1), (Trace(g, "a"), -1),
                               (Trace(g, "aa"), 5)])
    assert p.terms == {}


def test_telescoping_inverse():
    g = f2()
    left = series(g, 3, ("", 1), ("a", 1))
    right = series(g, 3, ("", 1), ("a", -1), ("aa", 1))
    assert left * right == series_one(g, 3)


def test_mul_commutes_on_edge_only():
    a = series(z2(), 3, ("a", 1))
    b = series(z2(), 3, ("b", 1))
    assert (a * b).terms == {Trace(z2(), "ab"): 1}
    assert a * b == b * a

    a = series(f2(), 3, ("a", 1))
    b = series(f2(), 3, ("b", 1))
    assert (a * b).terms == {Trace(f2(), "ab"): 1}
    assert (b * a).terms == {Trace(f2(), "ba"): 1}
    assert a * b != b * a


def test_mul_truncates():
    g = f2()
    a = series(g, 2, ("a", 1))
    assert (a * a).terms == {}


def test_mixed_caps_rejected():
    with pytest.raises(ValueError, match="mixed caps"):
        series_one(f2(), 2) * series_one(f2(), 3)


def test_mixed_graphs_rejected():
    with pytest.raises(ValueError, match="different graphs"):
        series_one(f2(), 2) * series_one(z2(), 2)


def test_coefficient():
    g = f2()
    p = series(g, 3, ("", 1), ("ab", 2))
    assert p.coefficient(Trace(g, "ab")) == 2
    assert p.coefficient(Trace(g, "ba")) == 0


def test_degree_part_and_min_positive_degree():
    g = f2()
    p = series(g, 3, ("", 1), ("ab", 1), ("ba", -1))
    assert p.degree_part(0) == series_one(g, 3)
    assert p.degree_part(1).terms == {}
    assert p.degree_part(2).terms == {Trace(g, "ab"): 1, Trace(g, "ba"): -1}
    assert p.min_positive_degree() == 2
    assert series_one(g, 3).min_positive_degree() is None
    with pytest.raises(ValueError, match="out of range"):
        p.degree_part(3)
    with pytest.raises(ValueError, match="out of range"):
        p.degree_part(-1)


def test_mul_by_one_is_exact():
    rng = random.Random(21)
    for _ in range(50):
        g = random_graph(rng)
        p = random_series(rng, g, 4)
        assert p * series_one(g, 4) == p
        assert series_one(g, 4) * p == p


def test_grading_of_products():
    rng = random.Random(22)
    for _ in range(30):
        g = random_graph(rng)
        cap = rng.randint(2, 5)
        p = random_series(rng, g, cap)
        q = random_series(rng, g, cap)
        product = p * q
        for n in range(cap):
            expected = TruncatedSeries(g, cap)
            for i in range(n + 1):
                expected = series_sum(expected, p.degree_part(i) * q.degree_part(n - i))
            assert product.degree_part(n) == expected


def test_mul_associative_and_distributive():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng)
        cap = rng.randint(2, 5)
        p = random_series(rng, g, cap)
        q = random_series(rng, g, cap)
        r = random_series(rng, g, cap)
        assert (p * q) * r == p * (q * r)
        assert p * series_sum(q, r) == series_sum(p * q, p * r)


def test_commutative_on_complete_graph():
    rng = random.Random(24)
    g = k3()
    for _ in range(30):
        p = random_series(rng, g, 4)
        q = random_series(rng, g, 4)
        assert p * q == q * p


def test_noncommutative_witness_on_missing_edge():
    g = f2()
    a = series(g, 3, ("a", 1))
    b = series(g, 3, ("b", 1))
    assert a * b != b * a


def test_str_format():
    g = f2()
    p = series(g, 3, ("", 1), ("ab", 2), ("ba", -1))
    assert str(p) == "1 + 2*a*b - 1*b*a"
    assert str(TruncatedSeries(g, 3)) == "0"
    assert str(series(g, 3, ("a", -2))) == "-2*a"


def test_terms_iterate_in_degree_lex_order():
    g = f2()
    p = series(g, 3, ("ba", 1), ("", 5), ("ab", 1), ("b", 2))
    keys = [t.letters for t in p.terms]
    assert keys == [(), ("b",), ("a", "b"), ("b", "a")]
