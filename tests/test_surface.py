import gc
import random

import pytest

from raaglcs import (ComponentCheck, Dissection, Graph, GroupWord, check_injectivity_criterion,
                     check_relator, derive_intersections, format_dissection,
                     intersection_graph, lcs_depth, parse_dissection, phi,
                     relator_syllables, standard_dissection,
                     surface_depth_check)
from raaglcs import surface
from raaglcs.words import MAX_WORD_SYLLABLES


def tiny_dissection(intersections=(), sequences=None, components=None):
    """Genus-1 scaffold with curves x, y for validation-level tests."""
    if sequences is None:
        sequences = {"a1": (("x", 1),), "b1": (("y", 1),)}
    return Dissection(1, ["x", "y"], intersections, sequences, components)


# --- validation ---

# The curve graph checks curve names and crossing pairs, in Graph's words.

def test_duplicate_curve_rejected():
    with pytest.raises(ValueError) as err:
        Dissection(1, ["x", "x"], (), {"a1": (), "b1": ()})
    assert str(err.value) == "duplicate vertex name 'x'"


def test_self_intersection_rejected():
    with pytest.raises(ValueError) as err:
        tiny_dissection(intersections=[("x", "x")])
    assert str(err.value) == "self-loop at 'x'"


def test_undeclared_curve_rejected():
    with pytest.raises(ValueError) as err:
        tiny_dissection(intersections=[("x", "w")])
    assert str(err.value) == "edge endpoint 'w' is not a declared vertex"
    with pytest.raises(ValueError) as err:
        tiny_dissection(intersections=[1])
    assert str(err.value) == "edge 1 is not a pair of vertex names"
    with pytest.raises(ValueError, match="undeclared curve"):
        tiny_dissection(sequences={"a1": (("w", 1),), "b1": ()})


def test_generator_key_set_enforced():
    with pytest.raises(ValueError, match="exactly"):
        Dissection(1, ["x"], (), {"a1": ()})
    with pytest.raises(ValueError, match="exactly"):
        Dissection(1, ["x"], (), {"a1": (), "b1": (), "a2": ()})


def test_bad_crossing_sign_rejected():
    for sign in (2, 0, True, 1.0, -1.0, "1"):
        with pytest.raises(ValueError) as err:
            tiny_dissection(sequences={"a1": (("x", sign),), "b1": ()})
        assert str(err.value) == "crossing sign for 'x' in 'a1' must be +1 or -1"


@pytest.mark.parametrize("entry", [1, ("x",), ("x", 1, 1)], ids=repr)
def test_crossing_entry_not_a_pair_rejected(entry):
    with pytest.raises(ValueError) as err:
        tiny_dissection(sequences={"a1": (("x", 1), entry), "b1": ()})
    assert str(err.value) == f"'a1' entry {entry!r} is not a (curve, sign) pair"


def test_component_validation():
    with pytest.raises(ValueError, match="more than twice"):
        tiny_dissection(components=[[("e1", "x"), ("e1", "x"), ("e1", "x")]])
    with pytest.raises(ValueError, match="labelled with both"):
        tiny_dissection(components=[[("e1", "x"), ("e1", "y")]])
    with pytest.raises(ValueError, match="undeclared curve"):
        tiny_dissection(components=[[("e1", "w")]])
    with pytest.raises(ValueError, match="has no edges"):
        tiny_dissection(components=[[("e1", "x"), ("e2", "y")], []])
    with pytest.raises(ValueError, match="component list has no circuits"):
        tiny_dissection(components=[])
    with pytest.raises(ValueError, match="empty edge id in component circuit"):
        tiny_dissection(components=[[("", "x")]])
    for edge in ("e 1", "e:1", "e\t1"):  # the text format could not write these
        with pytest.raises(ValueError) as err:
            tiny_dissection(components=[[(edge, "x")]])
        assert str(err.value) == f"edge id {edge!r} has whitespace or ':'"


@pytest.mark.parametrize("edge, stored", [("e-1", "e-1"), ("7", "7"), (3, "3")])
def test_component_edge_ids_survive_the_text_format(edge, stored):
    d = tiny_dissection(components=[[(edge, "x"), ("f", "y")]])
    assert d.components == (((stored, "x"), ("f", "y")),)
    assert parse_dissection(format_dissection(d)).components == d.components


def test_curve_names_checked_at_construction():
    with pytest.raises(ValueError, match="invalid vertex name"):
        Dissection(1, ["x", "x-y"], (), {"a1": (("x", 1),), "b1": ()})


def test_huge_relator_image_refused_at_construction():
    # [a1,b1] maps to 2 * 50,001 letters, past MAX_WORD_SYLLABLES.
    with pytest.raises(ValueError, match="more than 100000 letters"):
        Dissection(1, ["x"], (), {"a1": (("x", 1),) * 50_001, "b1": ()})


def test_genus_must_be_positive():
    with pytest.raises(ValueError, match="genus"):
        Dissection(0, ["x"], (), {})


# --- intersection graph ---

def test_intersection_graph_edge():
    d = tiny_dissection(intersections=[("x", "y")])
    assert intersection_graph(d) == Graph(["x", "y"], [("x", "y")])


def test_intersection_graph_edgeless():
    assert intersection_graph(tiny_dissection()) == Graph(["x", "y"])


def test_crosses_asks_the_curve_graph():
    with pytest.raises(ValueError, match="unknown vertex"):
        standard_dissection(2).crosses("nope", "x0")
    d = standard_dissection(3)
    graph = intersection_graph(d)
    for c1 in d.curves:
        for c2 in d.curves:
            recorded = (c1, c2) in d.intersections or (c2, c1) in d.intersections
            assert d.crosses(c1, c2) == graph.are_adjacent(c1, c2) == recorded


def test_intersection_graph_standard_g2():
    g = intersection_graph(standard_dissection(2))
    assert g.vertices == ("x0", "x1", "x2", "y1", "y2", "z")


# --- the crossing homomorphism ---

def test_phi_of_a1():
    d = standard_dissection(2)
    assert phi("a1", d).syllables == (("x0", 1), ("x1", -1))


def test_phi_of_b1():
    d = standard_dissection(2)
    assert phi("b1", d).syllables == (("x1", 1), ("z", 1), ("y1", 1), ("x1", -1))


def test_phi_of_inverse_reverses_and_negates():
    d = standard_dissection(2)
    assert phi("a1^-1", d).syllables == (("x1", 1), ("x0", -1))


def test_phi_expands_exponents():
    d = standard_dissection(2)
    assert phi("a1^2", d).syllables == (("x0", 1), ("x1", -1)) * 2


def test_phi_image_size_bound_is_exact():
    d = standard_dissection(2)  # phi(a1) has two letters
    half = MAX_WORD_SYLLABLES // 2
    assert len(phi([("a1", half)], d).syllables) == MAX_WORD_SYLLABLES
    with pytest.raises(ValueError, match="more than 100000 letters"):
        phi([("a1", -(half + 1))], d)
    with pytest.raises(ValueError, match="letters"):
        phi("b1^100000000", d)  # refused before a letter is built


def test_phi_of_identity():
    assert phi("1", standard_dissection(2)).norm() == 0


def test_phi_rejects_unknown_generator():
    with pytest.raises(ValueError, match="unknown surface generator"):
        phi("c1", standard_dissection(2))


@pytest.mark.parametrize("syllable", [1, ("a1",), ("a1", 1, 2)], ids=repr)
def test_phi_rejects_a_syllable_not_a_pair(syllable):
    d = standard_dissection(2)
    for call in (phi, surface_depth_check):
        with pytest.raises(ValueError) as err:
            call([("b1", 1), syllable], d)
        assert str(err.value) == f"syllable {syllable!r} is not a (name, exponent) pair"


def test_phi_is_homomorphism():
    rng = random.Random(41)
    d = standard_dissection(2)
    gens = d.generator_names()
    for _ in range(60):
        u = [(rng.choice(gens), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 3))]
        v = [(rng.choice(gens), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 3))]
        assert phi(u + v, d).equals(phi(u, d) * phi(v, d))


# --- the standard curve system ---

def test_standard_dissection_curve_counts():
    assert len(standard_dissection(2).curves) == 6
    assert len(standard_dissection(3).curves) == 8


def test_standard_dissection_sequence_lengths():
    d = standard_dissection(2)
    lengths = [len(d.crossing_sequences[name]) for name in d.generator_names()]
    assert lengths == [2, 4, 2, 4]


def test_standard_dissection_rejects_low_genus():
    with pytest.raises(ValueError):
        standard_dissection(1)


def test_generator_images_have_norm_at_most_four():
    for genus in (2, 3, 4):
        d = standard_dissection(genus)
        for name in d.generator_names():
            assert phi(name, d).norm() <= 4


def test_relator_dies_for_standard_dissections():
    for genus in (2, 3, 4):
        assert check_relator(standard_dissection(genus))


def test_derived_table_matches_live_derivation():
    # y_k crosses x_{k-1} and x_k, and z crosses x_0 and x_g, in curve order.
    for genus in range(2, 13):
        expected = []
        for i in range(genus + 1):
            if i >= 1:
                expected.append((f"x{i}", f"y{i}"))
            if i < genus:
                expected.append((f"x{i}", f"y{i + 1}"))
            if i in (0, genus):
                expected.append((f"x{i}", "z"))
        assert derive_intersections(genus) == tuple(expected)


def test_standard_pairs_are_forced():
    # Dropping one formula pair p from the complete curve graph leaves a
    # relator image that survives, so every solution contains p; with the
    # formula's pairs it dies, so they are the unique minimal solution.
    for genus in range(2, 13):
        d = standard_dissection(genus)
        pairs = derive_intersections(genus)
        index = intersection_graph(d).index
        assert pairs == tuple(sorted(d.intersections,
                                     key=lambda p: (index(p[0]), index(p[1]))))
        every = [(u, v) for i, u in enumerate(d.curves) for v in d.curves[i + 1:]]
        for pair in pairs:
            others = [q for q in every if q != pair]
            assert not check_relator(
                Dissection(genus, d.curves, others, d.crossing_sequences)), (genus, pair)


def test_derived_pattern():
    pairs = set(derive_intersections(3))
    expected = {("x0", "y1"), ("x1", "y1"), ("x1", "y2"), ("x2", "y2"),
                ("x2", "y3"), ("x3", "y3"), ("x0", "z"), ("x3", "z")}
    assert pairs == expected


def test_standard_dissection_beyond_bundled_table():
    assert check_relator(standard_dissection(9))


# --- relator check ---

def test_relator_syllables_shape():
    assert relator_syllables(2) == [("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1),
                                    ("a2", 1), ("b2", 1), ("a2", -1), ("b2", -1)]


def test_relator_fails_without_intersections():
    d = standard_dissection(2)
    stripped = Dissection(2, d.curves, (), d.crossing_sequences)
    assert check_relator(stripped) is False
    assert check_relator(d) is True
    for system in (d, stripped):  # each keeps its verdict, not the relator image
        assert not any(isinstance(r, GroupWord) for r in gc.get_referents(system))


def test_relator_vacuous_for_empty_sequences():
    empty = {name: () for name in ("a1", "b1", "a2", "b2")}
    d = Dissection(2, ["x", "y"], (), empty)
    assert check_relator(d)


# --- injectivity criterion ---

def quad_dissection(circuit):
    sequences = {"a1": (("x", 1),), "b1": (("y", 1),),
                 "a2": (("w", 1),), "b2": (("v", 1),)}
    return Dissection(2, ["x", "y", "w", "v"], [("x", "y")], sequences,
                      components=[circuit])


def test_criterion_requires_component_data():
    with pytest.raises(ValueError, match="no component"):
        check_injectivity_criterion(tiny_dissection())


def test_criterion_rejects_repeated_curve():
    report = check_injectivity_criterion(
        quad_dissection([("e1", "x"), ("e2", "y"), ("e3", "x"), ("e4", "v")]))
    assert not report.passed
    check = report.components[0]
    assert check.violation[:2] == ("e1", "e3")
    assert "both lie on curve x" in check.violation[2]


def test_criterion_accepts_adjacent_crossing_curves():
    report = check_injectivity_criterion(
        quad_dissection([("e1", "x"), ("e2", "y"), ("e3", "w"), ("e4", "v")]))
    assert report.passed
    assert report.components[0].violation is None


def test_criterion_rejects_nonadjacent_crossing_curves():
    report = check_injectivity_criterion(
        quad_dissection([("e1", "x"), ("e2", "w"), ("e3", "y"), ("e4", "v")]))
    assert not report.passed
    assert "never adjacent" in report.components[0].violation[2]


def test_criterion_sees_the_wrap_from_last_edge_to_first():
    # x and y cross; their edges e1 and e4 meet only across the wrap.
    report = check_injectivity_criterion(
        quad_dissection([("e1", "x"), ("e2", "w"), ("e3", "v"), ("e4", "y")]))
    assert report.components == (ComponentCheck(0, True, None),)
    # Reordered so that e1 and e4 are nowhere neighbours.
    report = check_injectivity_criterion(
        quad_dissection([("e1", "x"), ("e2", "w"), ("e4", "y"), ("e3", "v")]))
    assert report.components == (ComponentCheck(0, False, (
        "e1", "e4", "curves x and y cross but the edges are never adjacent")),)


def test_criterion_one_edge_circuits_pass():
    for circuit in ([("e1", "x")], [("e1", "x"), ("e1", "x")]):
        report = check_injectivity_criterion(quad_dissection(circuit))
        assert report.components == (ComponentCheck(0, True, None),)


def test_criterion_reports_first_violation_in_first_seen_edge_order():
    # Pairs in first-seen order: (b, a), (b, c) is the first to fail, ahead of
    # the never-adjacent (a, d) that sorted edge ids would meet first; the
    # repeated b keeps its first place.
    report = check_injectivity_criterion(quad_dissection(
        [("b", "w"), ("a", "x"), ("c", "w"), ("b", "w"), ("d", "y")]))
    assert report.components == (ComponentCheck(0, False, ("b", "c", "both lie on curve w")),)
    # With c moved to another curve, (a, d) is the first violation.
    report = check_injectivity_criterion(quad_dissection(
        [("b", "w"), ("a", "x"), ("c", "v"), ("b", "w"), ("d", "y")]))
    assert report.components == (ComponentCheck(0, False, (
        "a", "d", "curves x and y cross but the edges are never adjacent")),)


def test_criterion_reports_per_component():
    sequences = {"a1": (("x", 1),), "b1": (("y", 1),),
                 "a2": (("w", 1),), "b2": (("v", 1),)}
    d = Dissection(2, ["x", "y", "w", "v"], [("x", "y")], sequences,
                   components=[[("e1", "x"), ("e2", "y")],
                               [("f1", "w"), ("f2", "w")]])
    report = check_injectivity_criterion(d)
    assert [c.passed for c in report.components] == [True, False]


# --- the transfer check ---

def test_surface_depth_of_a1():
    rep = surface_depth_check("a1", standard_dissection(2))
    assert (rep.surface_length, rep.image_norm, rep.depth) == (1, 2, 1)
    assert rep.bound_holds


def test_surface_depth_of_commutators():
    d = standard_dissection(2)
    rep = surface_depth_check("[a1,b1]", d)
    assert not rep.trivial_image
    assert rep.depth >= 2
    assert rep.bound_holds
    rep = surface_depth_check("[[a1,b1],b1]", d)
    assert rep.depth >= 3
    assert rep.bound_holds


def test_surface_depth_of_relator_is_trivial():
    d = standard_dissection(2)
    rep = surface_depth_check(relator_syllables(2), d)
    assert rep.trivial_image
    assert rep.surface_length == 8
    assert rep.bound_holds


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_surface_depth_check_does_no_relator_work(monkeypatch):
    d = standard_dissection(6)
    calls = count_calls(monkeypatch, surface, "phi")
    assert surface_depth_check("a1", d).bound_holds
    assert len(calls) == 1  # the word's image only


def test_standard_dissection_reduces_relator_once(monkeypatch):
    phi_calls = count_calls(monkeypatch, surface, "phi")
    data_calls = count_calls(monkeypatch, surface, "_standard_data")
    d = standard_dissection(5)
    assert check_relator(d)
    # The one system built checks the formula's pairs against the relator.
    assert [args[0] for args in phi_calls] == [relator_syllables(5)]
    assert len(data_calls) == 1


def test_dissection_is_read_only():
    # The relator verdict is stored when the system is built, so an edit to the
    # data it was read from must be refused rather than leave it stale.
    d = standard_dissection(2)
    with pytest.raises(TypeError):
        d.crossing_sequences["a1"] = (("x0", 1),)
    with pytest.raises(TypeError):
        del d.crossing_sequences["b2"]
    for name in ("genus", "intersections", "crossing_sequences", "_relator_ok"):
        with pytest.raises(AttributeError):
            setattr(d, name, getattr(d, name))
        with pytest.raises(AttributeError):
            delattr(d, name)
    assert d.crossing_sequences["a1"] == (("x0", 1), ("x1", -1))
    assert check_relator(d)
    assert format_dissection(Dissection(2, d.curves, d.intersections,
                                        d.crossing_sequences)) == format_dissection(d)


@pytest.mark.parametrize("exp", [1.5, True, "2"], ids=repr)
@pytest.mark.parametrize("call", [phi, surface_depth_check], ids=lambda f: f.__name__)
def test_raw_syllable_exponent_must_be_an_int(call, exp):
    with pytest.raises(ValueError) as err:
        call([("a1", exp)], standard_dissection(2))
    assert str(err.value) == f"exponent for 'a1' must be an integer, got {exp!r}"


def test_surface_depth_requires_consistent_relator():
    d = standard_dissection(2)
    broken = Dissection(2, d.curves, (), d.crossing_sequences)
    with pytest.raises(ValueError, match="relator"):
        surface_depth_check("a1", broken)


# --- text format ---

DISSECTION_TEXT = """\
genus: 2
curves: x y w v
intersections: x-y
gen a1: x
gen b1: y^-1 x
gen a2:
gen b2: w v^-1
component: e1:x e2:y e3:w e4:v
"""


def test_parse_dissection_round_trip():
    d = parse_dissection(DISSECTION_TEXT)
    assert d.genus == 2
    assert d.curves == ("x", "y", "w", "v")
    assert d.intersections == frozenset({("x", "y")})
    assert d.crossing_sequences["b1"] == (("y", -1), ("x", 1))
    assert d.crossing_sequences["a2"] == ()
    assert d.components == ((("e1", "x"), ("e2", "y"), ("e3", "w"), ("e4", "v")),)
    again = parse_dissection(format_dissection(d))
    assert again.curves == d.curves
    assert again.intersections == d.intersections
    assert again.crossing_sequences == d.crossing_sequences
    assert again.components == d.components


def test_format_standard_dissection_round_trip():
    d = standard_dissection(2)
    again = parse_dissection(format_dissection(d))
    assert again.curves == d.curves
    assert again.intersections == d.intersections
    assert again.crossing_sequences == d.crossing_sequences
    assert again.components is None


def test_parse_dissection_errors():
    with pytest.raises(ValueError, match="missing genus"):
        parse_dissection("curves: x\n")
    with pytest.raises(ValueError, match="missing curves"):
        parse_dissection("genus: 2\n")
    with pytest.raises(ValueError, match="unknown line"):
        parse_dissection("genus: 2\ncurves: x\nwat\n")
    with pytest.raises(ValueError, match="must be 1 or -1"):
        parse_dissection("genus: 1\ncurves: x\ngen a1: x^2\ngen b1:\n")
    with pytest.raises(ValueError, match="bad component token"):
        parse_dissection("genus: 1\ncurves: x\ngen a1:\ngen b1:\ncomponent: e1\n")


def test_parse_dissection_reports_first_faulty_line():
    cases = {"genus: 1\ngenus: x\nintersections: x\n": "line 2: duplicate genus line",
             "genus: 1\nintersections: x\ngenus: 1\n": "line 2: bad intersection token 'x'",
             "genus: 1\ncurves: x\ngen a1: x^2\nwat\n": "line 3: crossing sign in 'x^2' must be 1 or -1",
             "genus: 1\n\nwat\ngen a1: x^2\n": "line 3: unknown line 'wat'",
             "gen a1:\ngen a1: x\ncomponent: e1\n": "line 2: duplicate gen 'a1'",
             "component: e1\ngenus: 1\ngenus: 2\n": "line 1: bad component token 'e1'"}
    for text, message in cases.items():
        with pytest.raises(ValueError) as err:
            parse_dissection(text)
        assert str(err.value) == message
