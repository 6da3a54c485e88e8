"""The package boundary: the public API is pinned, integer arguments are
checked as ints, vertex names are read only where a word or trace is built
from them, and every name perfbench's tracer replaces still exists where the
tracer looks."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

import raaglcs
from conftest import c4, f2, random_graph, random_word
from raaglcs import (Dissection, Graph, GroupWord, Trace, TruncatedSeries,
                     commutator_witness, depth_function, enumerate_elements,
                     in_dimension_subgroup, lcs_depth, mu, parse_word, phi,
                     standard_dissection, surface_depth_check, verify_depth_bound)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

WORD = GroupWord(f2(), [("a", 1), ("b", 1)])

CALLS = {
    "mu": (lambda n: mu(WORD, n), "cap must be a positive integer"),
    "lcs_depth": (lambda n: lcs_depth(WORD, n), "cap must be a positive integer"),
    "lcs_depth.identity": (lambda n: lcs_depth(GroupWord(f2()), n),
                           "cap must be a positive integer"),
    "TruncatedSeries": (lambda n: TruncatedSeries(f2(), n), "cap must be a positive integer"),
    "in_dimension_subgroup": (lambda n: in_dimension_subgroup(WORD, n), "k must be >= 1"),
    "depth_function.k": (lambda n: depth_function(f2(), n, 4), "k must be >= 1"),
    "depth_function.max_norm": (lambda n: depth_function(f2(), 2, n), "max_norm must be >= 0"),
    "commutator_witness": (lambda n: commutator_witness(f2(), n), "k must be >= 1"),
    "enumerate_elements": (lambda n: enumerate_elements(f2(), n), "max_norm must be >= 0"),
    "verify_depth_bound": (lambda n: verify_depth_bound(f2(), n), "max_norm must be >= 0"),
    "Dissection": (lambda n: Dissection(n, ["x"], (), {"a1": (), "b1": ()}),
                   "genus must be a positive integer"),
    "standard_dissection": (lambda n: standard_dissection(n), "genus must be an integer >= 2"),
}


@pytest.mark.parametrize("value", [True, 2.5, "3"], ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_int_arguments_rejected(name, value):
    call, message = CALLS[name]
    with pytest.raises(ValueError, match=message):
        call(value)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    """Each (module, path) resolves as `Tracer._replace` needs it to: a module
    attribute, or a name in the class's own __dict__ for Class.attr."""
    tracer = load_tracer()
    targets = [target for paths, _ in tracer.SPAN_LAYERS.values() for target in paths]
    targets += tracer.COUNT_ONLY.values()
    for module_name, path in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{module_name}.{path}"
        else:
            assert hasattr(module, path), f"{module_name}.{path}"


def test_names_read_only_where_words_are_built(monkeypatch):
    graph = c4()  # a-b-c-d-a
    word = parse_word("[a b^2, c^-1 d]", graph) * GroupWord(graph, [("a", 0), ("c", 2)])
    looked_up = []
    index = Graph.index

    def counting(self, v):
        looked_up.append(v)
        return index(self, v)

    monkeypatch.setattr(Graph, "index", counting)
    word.canonical()
    (word * word.inverse()).canonical()
    mu(word, 5)
    lcs_depth(word)
    in_dimension_subgroup(word, 3)
    enumerate_elements(graph, 4)
    verify_depth_bound(graph, 4)
    depth_function(f2(), 2, 4)
    assert looked_up == []
    GroupWord(graph, [("a", 1)])
    assert looked_up == ["a"]
    dissection = standard_dissection(3)
    looked_up.clear()
    assert str(phi("[a1,b2] a3^-2", dissection)) == \
        "x0 x1^-1 x2 z y2 x2^-1 x1 x0^-1 x2 y2^-1 z^-1 x2^-1 x3 x2^-1 x3 x2^-1"
    assert str(phi([("b3", -1), ("a2", 2)], dissection)) == "x3 y3^-1 z^-1 x3^-1 x1 x2^-1 x1 x2^-1"
    assert surface_depth_check("[[a1,b2],a3]", dissection).depth == 3
    assert looked_up == []


def test_names_and_codes_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        graph = random_graph(rng, max_vertices=5)
        word = random_word(rng, graph, max_syllables=6)
        for w in (word, word.canonical()):
            assert GroupWord(graph, w.syllables).codes == w.codes
        for trace in mu(word, 4).terms:
            assert Trace(graph, trace.letters) == trace


PUBLIC_API = {
    "raaglcs": [
        "ComponentCheck", "DepthFunctionRow", "DepthResult", "Dissection", "Graph", "GroupWord",
        "InjectivityReport", "SurfaceDepthReport", "Trace", "TruncatedSeries", "VerifyReport",
        "check_injectivity_criterion", "check_relator", "commutator", "commutator_witness",
        "depth_function", "derive_intersections", "enumerate_elements", "format_dissection",
        "in_dimension_subgroup", "intersection_graph", "lcs_depth", "load_dissection",
        "load_graph", "mu", "parse_dissection", "parse_graph", "parse_syllables", "parse_word",
        "phi", "relator_syllables", "standard_dissection", "surface_depth_check",
        "syllable_factor", "verify_depth_bound"],
    "Graph": ["__eq__", "__hash__", "__init__", "__repr__",
              "are_adjacent", "edges", "index", "is_complete", "masks", "vertices"],
    "GroupWord": ["__init__", "__mul__", "__repr__", "__str__",
                  "canonical", "codes", "equals", "graph", "inverse", "norm", "reduced",
                  "syllables"],
    "Trace": ["__eq__", "__hash__", "__init__", "__mul__", "__repr__", "__str__",
              "codes", "graph", "key", "length", "letters"],
    "TruncatedSeries": ["__eq__", "__init__", "__mul__", "__repr__", "__str__",
                        "cap", "coefficient", "graph", "terms"],
    "Dissection": ["__delattr__", "__init__", "__repr__", "__setattr__",
                   "components", "crosses", "crossing_sequences", "curves",
                   "generator_names", "genus", "intersections"],
}


def public_names(cls):
    """Every name without a leading underscore, and the special methods the
    class itself defines (a `__hash__` that `__eq__` set to None is none)."""
    special = [name for name, value in vars(cls).items()
               if name.startswith("__") and callable(value)]
    return sorted(special) + sorted(name for name in dir(cls) if not name.startswith("_"))


def test_public_api_is_pinned():
    """A change to the public API must edit this list and say so."""
    assert raaglcs.__all__ == PUBLIC_API["raaglcs"]
    for cls in (Graph, GroupWord, Trace, TruncatedSeries, Dissection):
        assert public_names(cls) == PUBLIC_API[cls.__name__], cls.__name__
