import random

import pytest

from conftest import f2, k3, p3, random_graph, series_one, series_sum, z2
from raaglcs import Trace, TruncatedSeries, mu, parse_word


def series(graph, cap, *terms):
    return TruncatedSeries(graph, cap, [(Trace(graph, word), c) for word, c in terms])


def degree_part(p, k):
    return TruncatedSeries(p.graph, p.cap, {t: c for t, c in p.terms.items() if t.length == k})


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


def test_trace_over_another_graph_rejected():
    with pytest.raises(ValueError, match="term trace lives over a different graph"):
        TruncatedSeries(f2(), 3, [(Trace(p3(), "a"), 1)])
    with pytest.raises(ValueError, match="trace lives over a different graph"):
        mu(parse_word("a b", f2()), 3).coefficient(Trace(p3(), "a"))


@pytest.mark.parametrize("coeff", [1.5, True, False, "1", None, 2.0])
def test_non_int_coefficient_rejected(coeff):
    g = f2()
    with pytest.raises(ValueError, match="coefficient must be an int"):
        TruncatedSeries(g, 3, {Trace(g, "a"): 1, Trace(g, "b"): coeff})


@pytest.mark.parametrize("key", ["a", ("a",), None, 0])
def test_non_trace_key_rejected(key):
    g = f2()
    with pytest.raises(ValueError, match="term trace must be a Trace"):
        TruncatedSeries(g, 3, [(Trace(g, "a"), 1), (key, 1)])
    with pytest.raises(ValueError, match="trace must be a Trace"):
        mu(parse_word("a b", g), 3).coefficient(key)


@pytest.mark.parametrize("graph", ["notagraph", None, ("a", "b")], ids=repr)
def test_non_graph_rejected(graph):
    with pytest.raises(ValueError, match="graph must be a Graph"):
        TruncatedSeries(graph, 3)
    with pytest.raises(ValueError, match="graph must be a Graph"):
        TruncatedSeries(graph, 2, {})


@pytest.mark.parametrize("terms", [[1], 5, None, [(Trace(f2(), "a"),)],
                                   [(Trace(f2(), "a"), 1, 2)], [(Trace(f2(), "a"), 1), 7]],
                         ids=repr)
def test_terms_not_trace_coefficient_pairs_rejected(terms):
    with pytest.raises(ValueError, match=r"terms must be a dict or an iterable of "
                                         r"\(trace, coefficient\) pairs"):
        TruncatedSeries(f2(), 3, terms)


def test_coefficient():
    g = f2()
    p = series(g, 3, ("", 1), ("ab", 2))
    assert p.coefficient(Trace(g, "ab")) == 2
    assert p.coefficient(Trace(g, "ba")) == 0


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
                expected = series_sum(expected, degree_part(p, i) * degree_part(q, n - i))
            assert degree_part(product, n) == expected


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
