import random

import pytest

from conftest import (f2, k3, marked_canonical, p3, piling_is_trivial, random_graph,
                      random_word, swap_closure_lex_min, z2)
from raaglcs import GroupWord, Trace, commutator, parse_syllables, parse_word
from raaglcs.words import MAX_WORD_SYLLABLES


# --- full reduction ---

def test_reduce_commuting_cancellation():
    assert parse_word("a b a^-1", z2()).reduced().syllables == (("b", 1),)


def test_reduce_noop_on_free_group():
    w = parse_word("a b a^-1", f2())
    assert w.reduced().syllables == w.syllables


def test_reduce_merges_across_commuting_block():
    assert parse_word("a b a", z2()).reduced().syllables == (("a", 2), ("b", 1))


def test_reduce_drops_zero_exponents():
    w = GroupWord(f2(), [("a", 0), ("b", 2)])
    assert w.reduced().syllables == (("b", 2),)


def test_reduce_identity():
    assert parse_word("a a^-1", f2()).reduced().syllables == ()
    assert parse_word("[a,b]", z2()).reduced().syllables == ()


def test_reduce_idempotent_random():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng)
        w = random_word(rng, g, max_syllables=6)
        r = w.reduced()
        assert r.reduced().syllables == r.syllables


def test_fully_reduced_flag():
    # A word is fully reduced when canonical() only reorders it: merging or
    # dropping a syllable shortens the codes.
    for w, reduced in [(parse_word("a b a^-1", f2()), True), (parse_word("a b a", z2()), False),
                       (parse_word("a b a", f2()), True), (GroupWord(f2()), True)]:
        assert (len(w.codes) == len(w.canonical().codes)) == reduced


# --- canonical forms ---

def test_canonical_swaps_to_lex_least():
    assert parse_word("b a", z2()).canonical().syllables == (("a", 1), ("b", 1))
    assert parse_word("b a", f2()).canonical().syllables == (("b", 1), ("a", 1))


def test_canonical_p3_example_matches_oracle():
    w = parse_word("a b c a", p3())
    assert w.canonical().syllables == swap_closure_lex_min(w)


def test_canonical_matches_swap_closure_random():
    rng = random.Random(12)
    for _ in range(250):
        g = random_graph(rng)
        w = random_word(rng, g, max_syllables=5, max_exp=2)
        if w.norm() > 5:
            continue
        assert w.canonical().syllables == swap_closure_lex_min(w)


def test_canonical_form_is_marked_and_not_self_referent():
    for w in (parse_word("c b a c^-1 b^2", p3()), parse_word("a b a^-1", z2()), GroupWord(f2())):
        assert marked_canonical(w.canonical())
        assert marked_canonical(w.reduced())


def test_canonical_stores_nothing_on_an_unmarked_word():
    w = parse_word("b a b^-1 c a^2", p3())
    codes = w.codes
    first, second = w.canonical(), w.canonical()
    assert first.codes == second.codes == ((0, 1), (2, 1), (0, 2))  # b commutes with a
    assert first is not second and first is not w
    assert w.codes == codes
    for built in (w * w, w.inverse()):  # words a product builds are not marked
        assert built.canonical() is not built


def test_canonical_is_equal_to_original():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng)
        w = random_word(rng, g)
        assert w.equals(w.canonical())


# --- equality ---

def test_equal_commuting_pair():
    assert parse_word("a b", z2()).equals(parse_word("b a", z2()))
    assert not parse_word("a b", f2()).equals(parse_word("b a", f2()))


def test_equal_rejects_mismatched_graphs():
    with pytest.raises(ValueError, match="different graphs"):
        parse_word("a", f2()).equals(parse_word("a", z2()))


def test_triviality_matches_piling_oracle():
    # Commutators of random words are trivial exactly when the factors
    # commute, so both outcomes occur and deep cancellation gets exercised.
    rng = random.Random(20)
    trivial = 0
    for _ in range(400):
        g = random_graph(rng)
        w = commutator(random_word(rng, g, max_syllables=3, max_exp=2),
                       random_word(rng, g, max_syllables=3, max_exp=2))
        mine = w.norm() == 0
        assert mine == piling_is_trivial(w)
        trivial += mine
    assert 0 < trivial < 400


def test_equality_matches_piling_oracle():
    rng = random.Random(21)
    for _ in range(300):
        g = random_graph(rng)
        w1 = random_word(rng, g, max_syllables=4, max_exp=2)
        w2 = random_word(rng, g, max_syllables=4, max_exp=2)
        assert w1.equals(w2) == piling_is_trivial(w1 * w2.inverse())


# --- word norm ---

def test_norm_sums_absolute_exponents():
    assert parse_word("a^2 b^-3", f2()).norm() == 5


def test_norm_of_identity():
    assert parse_word("1", f2()).norm() == 0


def test_norm_reduces_first():
    assert parse_word("a b a^-1", z2()).norm() == 1


def test_norm_invariant_under_single_swap():
    rng = random.Random(14)
    for _ in range(200):
        g = random_graph(rng)
        syls = random_word(rng, g, max_syllables=5).reduced().syllables
        for i in range(len(syls) - 1):
            (s, e), (t, f) = syls[i], syls[i + 1]
            if s != t and g.are_adjacent(s, t):
                swapped = syls[:i] + ((t, f), (s, e)) + syls[i + 2:]
                assert GroupWord(g, swapped).norm() == GroupWord(g, syls).norm()


def test_norm_subadditive():
    rng = random.Random(15)
    for _ in range(200):
        g = random_graph(rng)
        w1 = random_word(rng, g)
        w2 = random_word(rng, g)
        assert (w1 * w2).norm() <= w1.norm() + w2.norm()


# --- concat / invert / commutator ---

def test_inverse_reverses_and_negates():
    assert parse_word("a b^-2", f2()).inverse().syllables == (("b", 2), ("a", -1))


def test_commutator_shape():
    w = commutator(parse_word("a", f2()), parse_word("b", f2()))
    assert w.syllables == (("a", 1), ("b", 1), ("a", -1), ("b", -1))


def test_concat_with_inverse_is_identity():
    rng = random.Random(16)
    for _ in range(100):
        g = random_graph(rng)
        w = random_word(rng, g)
        assert (w * w.inverse()).norm() == 0


def test_concat_rejects_mismatched_graphs():
    with pytest.raises(ValueError):
        parse_word("a", f2()) * parse_word("a", z2())


# --- traces ---

def test_trace_injective_on_monoid():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng)
        syls1 = [(s, abs(e)) for s, e in random_word(rng, g).syllables]
        syls2 = [(s, abs(e)) for s, e in random_word(rng, g).syllables]
        w1, w2 = GroupWord(g, syls1), GroupWord(g, syls2)
        t1 = Trace(g, [s for s, e in syls1 for _ in range(e)])
        t2 = Trace(g, [s for s, e in syls2 for _ in range(e)])
        assert (t1 == t2) == w1.equals(w2)


def test_trace_multiplication_lengths_add():
    rng = random.Random(18)
    for _ in range(100):
        g = random_graph(rng)
        t1 = Trace(g, [rng.choice(g.vertices) for _ in range(rng.randint(0, 4))])
        t2 = Trace(g, [rng.choice(g.vertices) for _ in range(rng.randint(0, 4))])
        assert (t1 * t2).length == t1.length + t2.length


def test_trace_keys_order_by_length_then_lex():
    rng = random.Random(19)
    for _ in range(50):
        g = random_graph(rng)
        traces = [Trace(g, [rng.choice(g.vertices) for _ in range(rng.randint(0, 4))])
                  for _ in range(8)]
        assert all(type(t.key) is int for t in traces)
        assert sorted(traces, key=lambda t: t.key) == \
            sorted(traces, key=lambda t: (t.length, t.codes))


def test_trace_printing_and_cross_graph_product():
    assert str(Trace(f2())) == "ε"
    trace = Trace(p3(), "cba")  # b commutes with c and goes before it; a does not
    assert str(trace) == "b*c*a"
    assert repr(trace) == "<Trace b*c*a>"
    with pytest.raises(ValueError, match="traces live over different graphs"):
        Trace(f2()) * Trace(z2())


# --- parsing and printing ---

def test_parse_basic_syllables():
    assert parse_syllables("a b^-1 c^2") == [("a", 1), ("b", -1), ("c", 2)]


def test_parse_identity_literal():
    assert parse_syllables("1") == []
    assert parse_syllables("a 1 b") == [("a", 1), ("b", 1)]


def test_parse_commutator_shorthand():
    assert parse_syllables("[a,b]") == [("a", 1), ("b", 1), ("a", -1), ("b", -1)]


def test_parse_nested_commutator():
    inner = [("a", 1), ("b", 1), ("a", -1), ("b", -1)]
    expected = inner + [("b", 1)] + [(s, -e) for s, e in reversed(inner)] + [("b", -1)]
    assert parse_syllables("[[a,b],b]") == expected


def test_parse_commutator_of_words():
    got = parse_syllables("[a b, c^2]")
    assert got == [("a", 1), ("b", 1), ("c", 2), ("b", -1), ("a", -1), ("c", -2)]


def test_parse_rejects_zero_exponent():
    with pytest.raises(ValueError, match="zero exponent"):
        parse_syllables("a^0")


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_syllables("a^b")
    with pytest.raises(ValueError):
        parse_syllables("a + b")
    with pytest.raises(ValueError):
        parse_syllables("[a,b")
    with pytest.raises(ValueError):
        parse_syllables("a]")


@pytest.mark.parametrize("syllables", [[1], [("a",)], [("a", 1, 2)], 5], ids=repr)
def test_syllable_not_a_pair_rejected(syllables):
    # 5 is named itself: it is not the iterable of pairs a word is built from.
    bad = syllables if syllables == 5 else syllables[0]
    with pytest.raises(ValueError) as err:
        GroupWord(f2(), syllables)
    assert str(err.value) == f"syllable {bad!r} is not a (name, exponent) pair"


def test_parse_word_validates_generators():
    with pytest.raises(ValueError, match="unknown vertex"):
        parse_word("a x", f2())


def test_str_round_trip():
    rng = random.Random(19)
    for _ in range(100):
        g = random_graph(rng)
        w = random_word(rng, g).canonical()
        assert parse_word(str(w), g).equals(w)


def test_str_identity():
    assert str(GroupWord(f2())) == "1"


def test_parse_rejects_exponential_expansion():
    with pytest.raises(ValueError, match="expands to more than"):
        parse_syllables("[a," * 40 + "b" + "]" * 40)


def test_parse_size_bound_is_exact():
    # weight-16 left-normed commutator: 3 * 2^15 - 2 syllables, under the bound
    text = "a"
    for _ in range(15):
        text = f"[{text},b]"
    assert len(parse_syllables(text)) == 3 * 2 ** 15 - 2 <= MAX_WORD_SYLLABLES
    with pytest.raises(ValueError, match="expands to more than"):
        parse_syllables(f"[{text},b]")


def test_parse_bracket_errors():
    for text, message in [("[a b]", "expected ','"), ("[a", "expected ','"),
                          ("[a,b", "expected ']'"), ("[a,b,c]", "expected ']'"),
                          ("a, b", "unexpected ','"), ("a]", "unexpected ']'"),
                          (", é", "cannot parse word at 'é'")]:
        with pytest.raises(ValueError, match=message):
            parse_syllables(text)
