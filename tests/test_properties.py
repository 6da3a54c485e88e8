"""Property tests of the Magnus kernel, the lex-least routine and word
reduction against independent oracles: the generic series product, swap
closure by BFS, and piling."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (c4, f2, generic_mu, image_at_one_cap, k3_minus_edge, p3,
                      piling_norm, random_graph, swap_closure_lex_min)
from raaglcs import (DepthResult, Graph, GroupWord, Trace, commutator,
                     in_dimension_subgroup, lcs_depth, mu)

GRAPHS = [f2(), p3(), c4(), k3_minus_edge(),
          Graph(["a", "b", "c", "d", "e"],
                [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "c")])]
EXPONENTS = [-3, -2, -1, 1, 2, 3]
FEW = settings(max_examples=60, deadline=None)


def words(graph, max_syllables=5, exponents=EXPONENTS):
    syllable = st.tuples(st.sampled_from(graph.vertices), st.sampled_from(exponents))
    return st.lists(syllable, max_size=max_syllables).map(lambda s: GroupWord(graph, s))


@st.composite
def graph_and_word(draw, max_syllables=5, exponents=EXPONENTS):
    graph = draw(st.sampled_from(GRAPHS))
    return graph, draw(words(graph, max_syllables, exponents))


def swap_closure_min_letters(graph, letters):
    """Lex-min letter sequence among all words reachable by swapping
    adjacent commuting letters (breadth-first closure)."""
    start = tuple(letters)
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for word in frontier:
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                if a != b and graph.are_adjacent(a, b):
                    swapped = word[:i] + (b, a) + word[i + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        grown.append(swapped)
        frontier = grown
    return min(seen, key=lambda word: [graph.index(a) for a in word])


@FEW
@given(graph_and_word(), st.integers(1, 7))
def test_mu_matches_generic_product(gw, cap):
    _, word = gw
    assert mu(word, cap) == generic_mu(word, cap)


@FEW
@given(st.data(), st.integers(1, 6))
def test_mu_is_multiplicative(data, cap):
    graph = data.draw(st.sampled_from(GRAPHS))
    u = data.draw(words(graph, 4))
    v = data.draw(words(graph, 4))
    assert mu(u * v, cap) == mu(u, cap) * mu(v, cap)


@FEW
@given(graph_and_word(max_syllables=7))
def test_canonical_matches_swap_closure(gw):
    _, word = gw
    assert word.canonical().syllables == swap_closure_lex_min(word)


@FEW
@given(st.data())
def test_trace_matches_swap_closure(data):
    graph = data.draw(st.sampled_from(GRAPHS))
    letters = data.draw(st.lists(st.sampled_from(graph.vertices), max_size=7))
    assert Trace(graph, letters).letters == swap_closure_min_letters(graph, letters)


@FEW
@given(graph_and_word(max_syllables=4, exponents=[-2, -1, 1, 2]))
def test_lcs_depth_matches_generic_series(gw):
    _, word = gw
    result = lcs_depth(word)
    if word.is_identity():
        assert result.kind == "infinite"
        return
    series = generic_mu(word.reduced(), word.norm() + 1)
    degree = series.min_positive_degree()
    witness = next(t for t in series.terms if t.length == degree)
    assert (result.kind, result.depth, result.witness_trace) == ("exact", degree, witness)


@FEW
@given(st.randoms(use_true_random=False), st.data())
def test_reduction_matches_piling(rng, data):
    graph = random_graph(rng, max_vertices=5, min_vertices=1)
    u = data.draw(words(graph, 100, [-2, -1, 1, 2]))  # up to 200 letters
    v = data.draw(words(graph, 3, [-2, -1, 1, 2]))
    for word in (u, u * v * u.inverse()):
        norm = piling_norm(word)
        assert word.norm() == norm
        assert word.is_identity() == (norm == 0)
        canonical = word.canonical()
        again = GroupWord(graph, canonical.syllables)
        assert again.canonical().syllables == canonical.syllables
        assert again.is_fully_reduced()


@st.composite
def element(draw, graph):
    """A short word, or a commutator of two, so that depths above 1 occur."""
    word = draw(words(graph, max_syllables=3, exponents=[-2, -1, 1, 2]))
    if draw(st.booleans()):
        other = draw(words(graph, max_syllables=2, exponents=[-1, 1]))
        word = commutator(word, other)
    return word


@FEW
@given(st.randoms(use_true_random=False), st.data())
def test_commutator_depth_is_superadditive(rng, data):
    # [gamma_i, gamma_j] lies in gamma_(i+j)
    graph = random_graph(rng, max_vertices=5, min_vertices=1)
    u, v = data.draw(element(graph)), data.draw(element(graph))
    uv = commutator(u, v)
    if uv.is_identity():
        return
    assert lcs_depth(uv).depth >= lcs_depth(u).depth + lcs_depth(v).depth


@FEW
@given(st.randoms(use_true_random=False), st.data())
def test_cap_search_matches_one_image(rng, data):
    # A caller's cap or k is a ceiling on the depth search; the answer is the
    # one a single image at that cap gives, above norm + 1 too.
    graph = random_graph(rng, max_vertices=5, min_vertices=1)
    word = data.draw(words(graph, 3, [-2, -1, 1, 2]))
    if data.draw(st.booleans()):
        word = commutator(word, data.draw(words(graph, 2, [-1, 1])))
    norm = word.norm()
    for cap in [None, *range(1, norm + 3)]:
        result = lcs_depth(word, cap)
        if norm == 0:
            assert result.kind == "infinite"
            continue
        least, _ = image_at_one_cap(word, norm + 1 if cap is None else cap)
        if least is None:
            assert result == DepthResult.at_least(cap)
        else:
            degree, letters = least
            witness = Trace(graph, [graph.vertices[a] for a in letters])
            assert result == DepthResult.exact(degree, witness)
    for k in range(1, norm + 3):
        assert in_dimension_subgroup(word, k) == image_at_one_cap(word, k)[1]


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_degree_sweep_matches_one_image(rng, data):
    # A syllable s^e reads |e| lower layers, from the image after it when
    # e < 0; nested commutators reach the degrees where a window of the
    # wrong width, or a wrong sign in that recurrence, would show.  Words
    # have up to 8 syllables, exponents in +-1 .. +-m for one m <= 5, and at
    # most one exponent of 20 to 31 digits.
    graph = random_graph(rng, max_vertices=4)
    m = data.draw(st.integers(1, 5))
    piece = words(graph, 8, [e for e in range(-m, m + 1) if e]).filter(lambda w: w.syllables)
    word = data.draw(piece)
    if data.draw(st.booleans()):
        syllables = list(word.syllables)
        i = data.draw(st.integers(0, len(syllables) - 1))
        big = data.draw(st.integers(10 ** 19, 10 ** 31 - 1)) * data.draw(st.sampled_from([-1, 1]))
        syllables[i] = (syllables[i][0], big)
        word = GroupWord(graph, syllables)
    for _ in range(data.draw(st.integers(0, 2))):
        word = commutator(word, data.draw(piece))
    default = lcs_depth(word)
    if default.kind == "infinite":
        assert word.is_identity()
        top = 3
    else:
        top = default.depth + 2  # every cap above the depth answers as this one
    for cap in range(1, top + 1):
        least, is_one = image_at_one_cap(word, cap)
        result = lcs_depth(word, cap)
        if default.kind == "infinite":
            assert result == default and is_one
        elif least is None:
            assert result == DepthResult.at_least(cap)
        else:
            degree, letters = least
            witness = Trace(graph, [graph.vertices[a] for a in letters])
            assert result == DepthResult.exact(degree, witness) == default
        assert in_dimension_subgroup(word, cap) == is_one
