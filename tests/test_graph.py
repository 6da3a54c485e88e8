import itertools
import random

import pytest

from conftest import c4, k3, p3, random_graph
from raaglcs import Graph, parse_graph, load_graph
from raaglcs.graph import MAX_VERTICES
from raaglcs.words import MAX_WORD_SYLLABLES


def test_free_group_graph():
    g = Graph(["a", "b"])
    assert g.vertices == ("a", "b")
    assert not g.edges
    assert not g.is_complete()


def test_k3_is_complete():
    assert k3().is_complete()


def test_single_vertex_is_complete():
    assert Graph(["a"]).is_complete()


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(["a"], [("a", "a")])


def test_duplicate_vertex_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(["a", "b", "a"])


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError, match="not a declared vertex"):
        Graph(["a", "b"], [("a", "c")])
    with pytest.raises(ValueError, match="endpoint 'c' is not a declared vertex"):
        Graph(["a", "b"], [("c", "a")])  # the first endpoint is checked too
    for end in (5, ["b"], None):  # not a name, hashable or not
        with pytest.raises(ValueError) as err:
            Graph(["a", "b"], [("a", end)])
        assert str(err.value) == f"edge endpoint {end!r} is not a declared vertex"


@pytest.mark.parametrize("edge", [("a",), ("a", "b", "a"), 1, None, "abc"], ids=repr)
def test_edge_not_a_pair_rejected(edge):
    with pytest.raises(ValueError) as err:
        Graph(["a", "b"], [("a", "b"), edge])
    assert str(err.value) == f"edge {edge!r} is not a pair of vertex names"


@pytest.mark.parametrize("name", ["", "a-b", "a b", "a,b", 7])
def test_bad_vertex_name_rejected(name):
    with pytest.raises(ValueError):
        Graph([name])


def test_edges_deduplicated_and_normalized():
    g = Graph(["a", "b"], [("a", "b"), ("b", "a")])
    assert g.edges == frozenset({("a", "b")})


def test_adjacency_p3():
    g = p3()
    assert g.are_adjacent("a", "b")
    assert g.are_adjacent("b", "a")
    assert not g.are_adjacent("a", "c")
    assert not g.are_adjacent("a", "a")


def test_adjacency_unknown_vertex():
    with pytest.raises(ValueError, match="unknown vertex"):
        p3().are_adjacent("a", "x")


def test_adjacency_symmetric_random():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng)
        for u, v in itertools.product(g.vertices, repeat=2):
            assert g.are_adjacent(u, v) == g.are_adjacent(v, u)


def test_complete_iff_edge_count():
    rng = random.Random(8)
    for _ in range(50):
        g = random_graph(rng)
        n = len(g.vertices)
        assert g.is_complete() == (len(g.edges) == n * (n - 1) // 2)


def test_index_follows_declaration_order():
    g = c4()
    assert [g.index(v) for v in g.vertices] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        g.index("nope")


def test_value_equality_and_hash():
    assert p3() == p3()
    assert hash(p3()) == hash(p3())
    assert p3() != c4()


def test_parse_graph_basic():
    g = parse_graph("vertices: a b c\nedges: a-b b-c\n")
    assert g == p3()


def test_parse_graph_edgeless_variants():
    assert parse_graph("vertices: a b\n") == Graph(["a", "b"])
    assert parse_graph("vertices: a b\nedges:\n") == Graph(["a", "b"])
    assert parse_graph("\nvertices: a b\n\n") == Graph(["a", "b"])


def test_parse_graph_unknown_line():
    with pytest.raises(ValueError, match="unknown line"):
        parse_graph("vertices: a b\nfoo: bar\n")


def test_parse_graph_duplicate_lines():
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph("vertices: a\nvertices: b\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph("vertices: a b\nedges: a-b\nedges: a-b\n")


def test_parse_graph_missing_vertices():
    with pytest.raises(ValueError, match="missing vertices"):
        parse_graph("edges: a-b\n")


def test_parse_graph_bad_edge_token():
    with pytest.raises(ValueError, match="bad edge token"):
        parse_graph("vertices: a b\nedges: ab\n")


def test_parse_graph_reports_first_faulty_line():
    cases = {"vertices: a b\nedges: ab\nwat\n": "line 2: bad edge token 'ab'",
             "vertices: a b\n  wat\nedges: ab\n": "line 2: unknown line '  wat'",
             "vertices: a\nvertices: b\nedges: a-b-c\n": "line 2: duplicate vertices line",
             "vertices: a\n\nedges: a-b-c\nvertices: b\n": "line 3: bad edge token 'a-b-c'"}
    for text, message in cases.items():
        with pytest.raises(ValueError) as err:
            parse_graph(text)
        assert str(err.value) == message


def test_load_graph(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("vertices: a b c d\nedges: a-b b-c c-d d-a\n")
    assert load_graph(path) == c4()


def test_vertex_bound():
    # The largest standard curve system allowed has 2g + 2 curves, with 12
    # relator-image letters per genus.
    assert MAX_VERTICES >= 2 * (MAX_WORD_SYLLABLES // 12) + 2
    names = [f"x{i}" for i in range(MAX_VERTICES + 1)]
    assert len(Graph(names[:-1]).vertices) == MAX_VERTICES
    with pytest.raises(ValueError, match=f"more than {MAX_VERTICES}"):
        Graph(names)
