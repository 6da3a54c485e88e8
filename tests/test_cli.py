import contextlib
import functools
import io
import itertools
import os
import pathlib
import random
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raaglcs
from raaglcs import DepthResult, Dissection, Graph, format_dissection, standard_dissection
from raaglcs import cli, lab, surface
from raaglcs.cli import run


def graph_file(tmp_path, text, name="graph.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def f2_file(tmp_path):
    return graph_file(tmp_path, "vertices: a b\n")


def z2_file(tmp_path):
    return graph_file(tmp_path, "vertices: a b\nedges: a-b\n")


def test_readme_cli_block(tmp_path, monkeypatch, capsys):
    # Every `raaglcs ...` line of the README, in-process, with g.txt and d.txt
    # as the README describes them and the outputs its comments promise.
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    dissection = text.split("### Dissection file format", 1)[1].split("```")[1]
    (tmp_path / "d.txt").write_text(dissection.lstrip("\n"))
    (tmp_path / "g.txt").write_text("vertices: a b\n")
    monkeypatch.chdir(tmp_path)
    out = {}
    for line in text.splitlines():
        if line.startswith("raaglcs "):
            argv = shlex.split(line, comments=True)[1:]
            assert run(argv) == 0, line
            out[" ".join(argv)] = capsys.readouterr().out
    assert out["magnus --graph g.txt --cap 3 [a,b]"] == "1 + 1*a*b - 1*b*a\n"
    assert out["depth --graph g.txt [a,b]"] == "depth=2\n"
    assert out["dfun --graph g.txt --k 2 --max-norm 4"].startswith("d(2) = 4 (exact) witness=")
    assert out["verify --graph g.txt --max-norm 5"].splitlines()[-1] == "PASS"
    assert out["surface-phi --genus 2 a1"] == "x0 x1^-1\n"
    assert out["surface-check --dissection d.txt"] == "relator: ok\ncomponent 0: ok\n"


def test_nf_free_group(tmp_path, capsys):
    assert run(["nf", "--graph", f2_file(tmp_path), "a b a^-1"]) == 0
    assert capsys.readouterr().out == "a b a^-1\n"


def test_nf_round_trip(tmp_path, capsys):
    path = z2_file(tmp_path)
    assert run(["nf", "--graph", path, "b a^2 b^-1"]) == 0
    first = capsys.readouterr().out.strip()
    assert run(["nf", "--graph", path, first]) == 0
    assert capsys.readouterr().out.strip() == first


def test_norm(tmp_path, capsys):
    assert run(["norm", "--graph", f2_file(tmp_path), "a^2 b^-3"]) == 0
    assert capsys.readouterr().out == "5\n"


def test_eq(tmp_path, capsys):
    path = z2_file(tmp_path)
    assert run(["eq", "--graph", path, "a b", "b a"]) == 0
    assert capsys.readouterr().out == "equal\n"
    assert run(["eq", "--graph", f2_file(tmp_path), "a b", "b a"]) == 0
    assert capsys.readouterr().out == "not-equal\n"


def test_magnus(tmp_path, capsys):
    assert run(["magnus", "--graph", f2_file(tmp_path), "--cap", "3", "[a,b]"]) == 0
    assert capsys.readouterr().out == "1 + 1*a*b - 1*b*a\n"


def test_depth(tmp_path, capsys):
    path = f2_file(tmp_path)
    assert run(["depth", "--graph", path, "[a,b]"]) == 0
    assert capsys.readouterr().out == "depth=2\n"
    assert run(["depth", "--graph", path, "a a^-1"]) == 0
    assert capsys.readouterr().out == "identity\n"
    assert run(["depth", "--graph", path, "--cap", "2", "[a,b]"]) == 0
    assert capsys.readouterr().out == "depth>=2\n"


def test_enum(tmp_path, capsys):
    assert run(["enum", "--graph", f2_file(tmp_path), "--max-norm", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["a^-1", "a", "b^-1", "b"]


def test_dfun(tmp_path, capsys):
    assert run(["dfun", "--graph", f2_file(tmp_path), "--k", "2",
                "--max-norm", "4"]) == 0
    assert capsys.readouterr().out == "d(2) = 4 (exact) witness=a^-1 b^-1 a b\n"


def test_dfun_lower_bound(tmp_path, capsys):
    assert run(["dfun", "--graph", f2_file(tmp_path), "--k", "2",
                "--max-norm", "3"]) == 0
    assert capsys.readouterr().out == "d(2) = 4 (lower-bound)\n"


def test_dfun_k_above_norm_bound_walks_nothing(tmp_path, capsys):
    # depth <= norm, so d(k) >= k: no element of norm <= 5 needs an image at cap 3000
    start = time.perf_counter()
    assert run(["dfun", "--graph", f2_file(tmp_path), "--k", "3000",
                "--max-norm", "5"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "d(3000) = 6 (lower-bound)\n"


def test_dfun_k1_on_complete_graph(tmp_path, capsys):
    # gamma_1 = G, so d(1) = 1 on a complete graph too; deeper terms are trivial
    path = graph_file(tmp_path, "vertices: a\n")
    assert run(["dfun", "--graph", path, "--k", "1"]) == 0
    assert capsys.readouterr().out == "d(1) = 1 (exact) witness=a^-1\n"
    assert run(["dfun", "--graph", path, "--k", "2"]) == 2
    assert "nilpotent" in capsys.readouterr().err


def test_verify_passes(tmp_path, capsys):
    assert run(["verify", "--graph", f2_file(tmp_path), "--max-norm", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "norm=1 depth=1 count=4"
    assert lines[-1] == "PASS"


def test_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    # Exit 1 is the CLI's "a verification failed": an lcs_depth that read
    # every element it is asked about deeper than its norm makes each a
    # violation, whether as an exact depth or as the at_least bound that
    # lcs_depth returns when its search, which stops at the norm, finds
    # nothing.  Only the elements of gamma_3 are asked, the first of them at
    # norm 8; the depths 1 and 2 are counted.  An unreached depth is in no
    # cell, but still counted in checked=.
    for result, depth_text, norm8_cells in (
            (DepthResult.exact, "depth=9", ["norm=8 depth=1 count=8436", "norm=8 depth=2 count=248",
                                            "norm=8 depth=9 count=64"]),
            (DepthResult.at_least, "depth>=9", ["norm=8 depth=1 count=8436",
                                                "norm=8 depth=2 count=248"])):
        monkeypatch.setattr(lab, "lcs_depth", lambda word: result(word.norm() + 1))
        assert run(["verify", "--graph", f2_file(tmp_path), "--max-norm", "8"]) == 1
        lines = capsys.readouterr().out.splitlines()
        violations = [line for line in lines if line.startswith("VIOLATION: ")]
        assert len(violations) == 64
        assert violations[0] == f"VIOLATION: word=a^-2 b^-1 a b^2 a b^-1 norm=8 {depth_text}"
        assert [line for line in lines if line.startswith("norm=8 ")] == norm8_cells
        assert "checked=13120 max_norm=8" in lines
        assert lines[-1] == "FAIL"


def test_one_vertex_walk_is_linear_in_the_norm(tmp_path, capsys):
    # 199,999 elements, inside the ball bound; a walk that tried every
    # exponent at every node took minutes here.
    path = graph_file(tmp_path, "vertices: a\n")
    start = time.perf_counter()
    assert run(["enum", "--graph", path, "--max-norm", "99999"]) == 0
    assert run(["verify", "--graph", path, "--max-norm", "99999"]) == 0
    assert time.perf_counter() - start < 30.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["a^-1", "a"]
    assert lines[199_996:199_999] == ["a^-99999", "a^99999", "norm=1 depth=1 count=2"]
    assert lines[-3:] == ["norm=99999 depth=1 count=2", "checked=199998 max_norm=99999", "PASS"]


def test_enum_empty_ball_prints_nothing(tmp_path, capsys):
    assert run(["enum", "--graph", graph_file(tmp_path, "vertices:\n"), "--max-norm", "3"]) == 0
    assert capsys.readouterr().out == ""


def test_search_budget_exit_two(tmp_path, capsys):
    c4 = graph_file(tmp_path, "vertices: a b c d\nedges: a-b b-c c-d d-a\n")
    for argv in (["enum"], ["verify"], ["dfun", "--k", "3"]):
        start = time.perf_counter()
        assert run(argv + ["--graph", c4, "--max-norm", "30"]) == 2
        assert time.perf_counter() - start < 1.0  # refused before enumerating
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the ball of norm <= 30 has more than")
        assert len(captured.err.splitlines()) == 1


def test_clique_count_refusal_exit_two(tmp_path, capsys):
    # K120 has more than MAX_BALL_ELEMENTS cliques of size <= 3, so the
    # growth series is refused while the cliques are still being counted.
    names = [f"v{i}" for i in range(120)]
    edges = list(itertools.combinations(names, 2))
    assert lab._sphere_sizes(Graph(names, edges), 3, lab.MAX_BALL_ELEMENTS) is None
    path = graph_file(tmp_path, f"vertices: {' '.join(names)}\n"
                      f"edges: {' '.join(f'{u}-{v}' for u, v in edges)}\n")
    assert run(["verify", "--graph", path, "--max-norm", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the ball of norm <= 3 has more than "
                            f"{lab.MAX_BALL_ELEMENTS} elements; lower the norm bound\n")


def test_depth_work_bound_exit_two(tmp_path, capsys):
    word = "a"
    for _ in range(11):
        word = f"[{word},b]"  # F2 weight 12: 4096 syllables, far past the term budget
    assert run(["depth", "--graph", f2_file(tmp_path), word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: series computation needs more than 40000000 units of work\n"


def test_magnus_large_cap_exit_two(tmp_path, capsys):
    # One negative exponent at cap K writes about K^2 / 2 letters per term,
    # and needs K coefficients before the first term is written.
    path = f2_file(tmp_path)
    for cap, word in (("1000", "a^-1 b^-1"), ("3000000000", "a^-1")):
        start = time.perf_counter()
        assert run(["magnus", "--graph", path, "--cap", cap, word]) == 2
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: series computation needs more than")
        assert len(captured.err.splitlines()) == 1


def test_magnus_huge_exponent_binomials_charged_as_built(tmp_path, capsys):
    # C(e, k) for k < 9000 at e = 10^14 - 1 hold about 180 MiB; each one is
    # charged as it is built, so the refusal comes before most of them exist.
    argv = ["magnus", "--graph", f2_file(tmp_path), "--cap", "9000", "a^99999999999999"]
    tracemalloc.start()
    try:
        assert run(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: series computation needs more than 40000000 units of work\n"
    assert peak < 150 * 2 ** 20


def test_magnus_huge_coefficient_products_charged(tmp_path, capsys):
    # Every product of two 4,000-digit binomials is charged before it is
    # written, so the refusal comes long before printing could fail.
    e = "9" * 4000
    start = time.perf_counter()
    assert run(["magnus", "--graph", f2_file(tmp_path), "--cap", "50", f"a^{e} b^{e}"]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: series computation needs more than 40000000 units of work\n"


def test_magnus_wide_window_charged(tmp_path, capsys):
    # Each round rebuilds and reads every lower layer an exponent this large
    # reaches, and is charged for each; the work budget refuses these before
    # the sweep spends seconds on them or the answer fills memory.
    path = f2_file(tmp_path)
    for cap, word in (("2000", "a^99999999999999"), ("60", "a^30 b^-30 a^30 b^30")):
        start = time.perf_counter()
        assert run(["magnus", "--graph", path, "--cap", cap, word]) == 2
        assert time.perf_counter() - start < 3.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: series computation needs more than 40000000 units of work\n"


def test_magnus_positive_word_at_huge_cap(tmp_path, capsys):
    # A word with no negative exponent has no term past the sum of its
    # exponents, so the sweep stops there, not at the cap.
    start = time.perf_counter()
    assert run(["magnus", "--graph", f2_file(tmp_path), "--cap", "100000000", "a b"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "1 + 1*a + 1*b + 1*a*b\n"


def test_magnus_identity_word_is_one(tmp_path, capsys):
    # mu sweeps the reduced word, so a word equal to the identity is answered
    # at any cap; its raw syllables at cap 3000 would pass the work budget.
    assert run(["magnus", "--graph", f2_file(tmp_path), "--cap", "3000", "[a,b] [b,a]"]) == 0
    assert capsys.readouterr() == ("1\n", "")


def test_magnus_coefficient_past_print_limit_exit_two(tmp_path, capsys):
    # C(E, 2) has 4,400 digits; Python prints no int of more than 4,300.
    e = "9" * 2200
    assert run(["magnus", "--graph", f2_file(tmp_path), "--cap", "3", f"a^{e}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: cannot print a coefficient of more than 4300 digits (the integer print limit)\n"


@pytest.mark.parametrize("command, word, what", [
    ("nf", "a^E a^E", "print an exponent"),  # the merged exponent has 4,301 digits
    ("norm", "a^E a^E", "print a norm"),
    ("depth", "a^E9", "parse an exponent"),
])
def test_integer_past_string_limit_exit_two(tmp_path, capsys, command, word, what):
    word = word.replace("E", "9" * 4300)
    assert run([command, "--graph", f2_file(tmp_path), word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    verb = what.split()[0]
    assert captured.err == \
        f"error: cannot {what} of more than 4300 digits (the integer {verb} limit)\n"


def test_huge_graph_exit_two(tmp_path, capsys):
    # A 300,000-vertex path: its adjacency masks would hold about 45 G bits.
    names = [f"v{i}" for i in range(300_000)]
    edges = " ".join(f"{u}-{v}" for u, v in zip(names, names[1:]))
    path = graph_file(tmp_path, f"vertices: {' '.join(names)}\nedges: {edges}\n")
    start = time.perf_counter()
    assert run(["nf", "--graph", path, "v0"]) == 2
    assert time.perf_counter() - start < 1.0  # refused before any mask is built
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: graph has 300000 vertices, more than 20000\n"


def test_depth_cap_above_norm_is_lowered(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["depth", "--graph", f2_file(tmp_path), "--cap", "1000000", "a^-1 b^-1"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "depth=1\n"


def test_depth_cap_below_norm_is_a_ceiling(tmp_path, capsys):
    word = "a"
    for _ in range(7):
        word = f"[{word},b]"  # F2 weight 8: norm 256, depth 8
    start = time.perf_counter()
    assert run(["depth", "--graph", f2_file(tmp_path), "--cap", "40", word]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "depth=8\n"


def edgeless_file(tmp_path, n):
    return graph_file(tmp_path, "vertices: " + " ".join(f"x{i}" for i in range(n)) + "\n")


def test_depth_many_commutators_is_fast(tmp_path, capsys):
    # 8,000 distinct commutators: the depth sweep stops after round 2, where
    # each syllable visits the running degree-1 layer, at most 150 terms.
    pairs = [(i, j) for i in range(150) for j in range(i + 1, 150)][:8000]
    word = " ".join(f"[x{i},x{j}]" for i, j in pairs)
    start = time.perf_counter()
    assert run(["depth", "--graph", edgeless_file(tmp_path, 150), word]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == "depth=2\n"


def test_depth_many_triple_commutators_is_fast(tmp_path, capsys):
    # 20,000 syllables whose degree-3 layer grows along the word: the depth
    # sweep holds each syllable's increment, never its whole running layer.
    rng = random.Random(9)
    triples = [rng.sample(range(150), 3) for _ in range(2000)]
    word = " ".join(f"[[x{i},x{j}],x{k}]" for i, j, k in triples)
    start = time.perf_counter()
    assert run(["depth", "--graph", edgeless_file(tmp_path, 150), word]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == "depth=3\n"


def test_depth_last_round_stores_uncharged(tmp_path, capsys):
    # 6,000 syllables of depth 2 over 150 free generators: round 2 stores up
    # to 150 increment terms per syllable, which no later round reads, so
    # they are never charged; charging them would pass the work budget.
    letters = [f"x{i}" for i in range(150)] * 20
    inverses = [f"{x}^-1" for x in random.Random(5).sample(letters, len(letters))]
    word = " ".join(letters + inverses)
    assert run(["depth", "--graph", edgeless_file(tmp_path, 150), word]) == 0
    assert capsys.readouterr().out == "depth=2\n"


def test_magnus_term_visits_exit_two(tmp_path, capsys):
    # Each syllable visits every term of degree <= 2 built so far: visits,
    # not letters, make up most of the work charged here.
    word = " ".join([f"x{i}" for i in range(150)] * 20)
    start = time.perf_counter()
    assert run(["magnus", "--graph", edgeless_file(tmp_path, 150), "--cap", "4", word]) == 2
    assert time.perf_counter() - start < 15.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: series computation needs more than 40000000 units of work\n"


def test_surface_phi(tmp_path, capsys):
    assert run(["surface-phi", "--genus", "2", "a1"]) == 0
    assert capsys.readouterr().out == "x0 x1^-1\n"


def test_surface_phi_huge_exponent_exit_two(capsys):
    assert run(["surface-phi", "--genus", "2", "a1^100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: word expands to more than 100000 letters\n"


def test_surface_check_standard(capsys):
    assert run(["surface-check", "--genus", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["relator: ok", "injectivity: skipped (no component data)"]


def test_huge_genus_exit_two(tmp_path, capsys):
    dissection = graph_file(tmp_path, "genus: 100000000\ncurves: x\n", "big.txt")
    expected = {
        "--genus": "error: genus 1000000000 is too large: its relator image would "
                   "exceed 100000 letters\n",
        "--dissection": "error: crossing sequences must be given for exactly "
                        "a1..a100000000, b1..b100000000\n",
    }
    for argv in (["--genus", "1000000000"], ["--dissection", dissection]):
        for _ in range(2):  # a refusal is not remembered as an answer
            start = time.perf_counter()
            assert run(["surface-check"] + argv) == 2
            assert time.perf_counter() - start < 1.0  # refused before building curves
            assert capsys.readouterr() == ("", expected[argv[0]])


def test_surface_phi_refuses_huge_relator_image(tmp_path, capsys):
    # The relator image a1 b1 a1^-1 b1^-1 has 2 * 50,001 letters from a1 alone.
    text = "genus: 1\ncurves: x\ngen a1:" + " x" * 50_001 + "\ngen b1:\n"
    path = graph_file(tmp_path, text, "long.txt")
    assert run(["surface-phi", "--dissection", path, "b1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: word expands to more than 100000 letters\n"


def test_surface_check_relator_failure(tmp_path, capsys):
    d = standard_dissection(2)
    path = tmp_path / "system.txt"
    path.write_text(format_dissection(d))
    assert run(["surface-check", "--dissection", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "relator: ok"
    broken = Dissection(2, d.curves, (), d.crossing_sequences)
    path.write_text(format_dissection(broken))  # the file is read again on each call
    assert run(["surface-check", "--dissection", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "relator: FAIL"


def test_surface_check_components(tmp_path, capsys):
    base = ("genus: 2\ncurves: x y w v\nintersections: x-y\n"
            "gen a1:\ngen b1:\ngen a2:\ngen b2:\n")
    good = tmp_path / "good.txt"
    good.write_text(base + "component: e1:x e2:y e3:w e4:v\n")
    assert run(["surface-check", "--dissection", str(good)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["relator: ok", "component 0: ok"]

    bad = tmp_path / "bad.txt"
    bad.write_text(base + "component: e1:x e2:w e3:y e4:v\n")
    assert run(["surface-check", "--dissection", str(bad)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "relator: ok"
    assert out[1].startswith("component 0: FAIL e1,e3")


def test_surface_check_refuses_empty_component(tmp_path, capsys):
    path = graph_file(tmp_path, "genus: 1\ncurves: x\ngen a1: x\ngen b1:\ncomponent:\n",
                      "d.txt")
    assert run(["surface-check", "--dissection", path]) == 2
    assert capsys.readouterr() == ("", "error: component circuit has no edges\n")


def test_surface_depth(capsys):
    assert run(["surface-depth", "--genus", "2", "[a1,b1]"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("|w|_S=4 |phi(w)|_T=4 depth=2")
    assert out.rstrip().endswith("ok")


def test_surface_depth_trivial_image(capsys):
    assert run(["surface-depth", "--genus", "2", "[a1,b1] [a2,b2]"]) == 0
    assert capsys.readouterr().out == "|w|_S=8 phi(w)=1\n"


def test_surface_depth_unreached_fails(capsys, monkeypatch):
    # A depth past the search's reach is a failed check, not a trivial image.
    monkeypatch.setattr(surface, "lcs_depth", lambda word: DepthResult.at_least(word.norm() + 1))
    report = surface.surface_depth_check("[a1,b1]", standard_dissection(2))
    assert (report.trivial_image, report.bound_holds) == (False, False)
    assert run(["surface-depth", "--genus", "2", "[a1,b1]"]) == 1
    assert capsys.readouterr().out == "|w|_S=4 |phi(w)|_T=4 depth>=5 4*|w|_S>=depth: FAIL\n"


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["nope"]) == 2
    assert run(["nf", "--graph", f2_file(tmp_path), "a^0"]) == 2
    assert run(["nf", "--graph", str(tmp_path / "missing.txt"), "a"]) == 2
    assert run(["magnus", "--graph", f2_file(tmp_path), "--cap", "0", "a"]) == 2
    assert run(["dfun", "--graph", z2_file(tmp_path), "--k", "2"]) == 2  # complete graph
    capsys.readouterr()
    assert run(["depth", "--graph", f2_file(tmp_path), "--cap", "x", "a"]) == 2
    assert capsys.readouterr().err == \
        "error: argument --cap: expected a positive integer, got 'x'\n"


def test_unknown_generator_exit_two(tmp_path, capsys):
    assert run(["nf", "--graph", f2_file(tmp_path), "q"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_usage_errors_print_one_line(tmp_path, capsys):
    for argv in (["nf", "--graph", f2_file(tmp_path), "-a"], ["nope"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_deeply_nested_brackets_exit_two(tmp_path, capsys):
    word = "[a," * 1200 + "b" + "]" * 1200  # expands to about 2^1200 syllables
    assert run(["nf", "--graph", f2_file(tmp_path), word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: word expands to more than")
    assert len(captured.err.splitlines()) == 1


def test_deep_nesting_without_blowup_parses(tmp_path, capsys):
    word = "[1," * 5000 + "1" + "]" * 5000  # nested identities expand to nothing
    assert run(["nf", "--graph", f2_file(tmp_path), word]) == 0
    assert capsys.readouterr().out == "1\n"


def test_internal_error_exit_two(tmp_path, capsys, monkeypatch):
    def broken(_path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_graph", broken)
    assert run(["nf", "--graph", f2_file(tmp_path), "a"]) == 2
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: boom\n"


# --- one process, many calls: the shared parser and the genus memo ---

def test_reused_parser_carries_no_state(tmp_path):
    f2 = f2_file(tmp_path)
    dissection = graph_file(tmp_path, "genus: 2\n", "d.txt")
    assert run_captured(["--help"]) == (0, cli.build_parser().format_help(), "")
    expected = [
        (["surface-depth", "--genus", "2", "--dissection", dissection, "a1"],
         (2, "", "error: argument --dissection: not allowed with argument --genus\n")),
        (["magnus", "--graph", f2, "[a,b]"],
         (2, "", "error: the following arguments are required: --cap\n")),
        (["depth", "--graph", f2, "[[a,b],b]"], (0, "depth=3\n", "")),
        (["magnus", "--graph", f2, "--cap", "3", "[a,b]"], (0, "1 + 1*a*b - 1*b*a\n", "")),
        (["surface-depth", "--genus", "2", "[a1,b1]"],
         (0, "|w|_S=4 |phi(w)|_T=4 depth=2 4*|w|_S>=depth: ok\n", "")),
    ]
    for _ in range(2):
        for argv, result in expected:
            assert run_captured(argv) == result


def test_twenty_runs_build_one_parser_tree(tmp_path, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser()
    tree = len(built)  # the root parser and one per subcommand
    assert tree > 1
    built.clear()
    cli._shared_parser.cache_clear()
    f2 = f2_file(tmp_path)
    for i in range(10):
        assert run_captured(["norm", "--graph", f2, "a " * (i + 1)]) == (0, f"{i + 1}\n", "")
        assert run_captured(["norm", "--graph", f2])[0] == 2
    assert len(built) == tree


def test_genus_memo_answers_match_first_run(monkeypatch):
    builds = []
    build = cli.standard_dissection

    def counting_build(genus):
        builds.append(genus)
        return build(genus)

    monkeypatch.setattr(cli, "standard_dissection", counting_build)
    cli._standard_system.cache_clear()
    first = {}
    for genus in (2, 3, 2, 9, 2):
        for argv in (["surface-depth", "--genus", str(genus), f"[a1,b{genus}] a2"],
                     ["surface-phi", "--genus", str(genus), f"b{genus} a1^-2"]):
            result = run_captured(argv)
            assert result[0] == 0 and result[2] == ""
            assert first.setdefault(tuple(argv), result) == result
    assert first[("surface-phi", "--genus", "3", "b3 a1^-2")][1] == \
        "z y3 x1 x0^-1 x1 x0^-1\n"
    assert first[("surface-depth", "--genus", "9", "[a1,b9] a2")][1] == \
        "|w|_S=5 |phi(w)|_T=10 depth=1 4*|w|_S>=depth: ok\n"
    assert builds == [2, 3, 9]
    for genus in range(2, 4 + cli._GENUS_MEMO_SIZE):
        assert run_captured(["surface-phi", "--genus", str(genus), "a1"]) == \
            (0, "x0 x1^-1\n", "")
    assert cli._standard_system.cache_info().currsize == cli._GENUS_MEMO_SIZE


def run_python(args, cwd, preexec_fn=None):
    """Run a fresh interpreter that imports raaglcs from where the tests do."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(raaglcs.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable] + args, cwd=cwd, env=env, preexec_fn=preexec_fn,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def cap_address_space(limit=96 * 2 ** 20):
    """Limit a child's address space to `limit` bytes; runs in the child only."""
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_depth_refusal_fits_an_address_space_limit(tmp_path):
    # F2 weight 11: the depth sweep charges the increments a round stores to
    # the work budget as the next round adds them back, so it is refused at
    # about 42 MiB peak RSS; without that charge it would reach about 52 MiB
    # first.
    word = "a"
    for _ in range(10):
        word = f"[{word},b]"
    argv = ["-m", "raaglcs.cli", "depth", "--graph", f2_file(tmp_path), word]
    assert run_python(argv, tmp_path, cap_address_space) == \
        (2, "", "error: series computation needs more than 40000000 units of work\n")


def test_magnus_refusal_fits_an_address_space_limit(tmp_path):
    # At cap 1000, a^-1 b^-1 writes terms of up to 999 letters, charged a
    # unit a letter.  Packed at a bit a letter, such a term is an int of
    # about 160 bytes, so the query is refused at about 27 MiB peak RSS; as
    # a tuple of 8 bytes a letter it took 279 MiB, and failed here with a
    # MemoryError.
    argv = ["-m", "raaglcs.cli", "magnus", "--graph", f2_file(tmp_path), "--cap", "1000",
            "a^-1 b^-1"]
    assert run_python(argv, tmp_path, cap_address_space) == \
        (2, "", "error: series computation needs more than 40000000 units of work\n")


def test_big_coefficient_copies_refusal_fits_an_address_space_limit(tmp_path):
    # Copies of one 4,000-digit coefficient through syllables with one-word
    # binomials are charged only by term visits and letters, so this query
    # peaks at about 215 MiB RSS before it is refused (VmPeak 215-219 MiB on
    # Python 3.10-3.13).  The limit, about 1.3 times that, pins today's
    # bound; a charge that counts those copies would refuse it sooner.
    graph = graph_file(tmp_path, "vertices: " + " ".join(f"x{i}" for i in range(200)) + "\n")
    word = f"x0^{'9' * 4000} " + " ".join(f"x{i}^-1" for i in range(1, 101))
    argv = ["-m", "raaglcs.cli", "magnus", "--graph", graph, "--cap", "5", word]
    limit = functools.partial(cap_address_space, 285 * 2 ** 20)
    assert run_python(argv, tmp_path, limit) == \
        (2, "", "error: series computation needs more than 40000000 units of work\n")


def test_one_shot_cli_matches_warm_run(tmp_path):
    f2 = f2_file(tmp_path)
    queries = [["depth", "--graph", f2, "[[a,b],b]"],
               ["surface-depth", "--genus", "2", "[a1,b1] a2"],
               ["depth", "--graph", f2]]
    for argv in (["surface-phi", "--genus", "2", "b1"], ["eq", "--graph", f2, "a", "b"],
                 ["nope"]):
        run_captured(argv)  # warm the parser and the genus memo
    for argv in queries:
        assert run_python(["-m", "raaglcs.cli"] + argv, tmp_path) == run_captured(argv)
    assert run_captured(queries[2])[2] == \
        "error: the following arguments are required: word\n"


def test_import_builds_no_parser_or_curve_system(tmp_path):
    probe = ("import raaglcs.cli as c; "
             "print(c._shared_parser.cache_info().currsize, "
             "c._standard_system.cache_info().currsize)")
    assert run_python(["-c", probe], tmp_path) == (0, "0 0\n", "")


# --- fuzzing: malformed input must exit 2 with one `error:` line ---

def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 2)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert not lines[0].startswith("error: internal error")


def line_files(keywords, tokens):
    """Arbitrary text, or lines made of known keywords and tokens."""
    line = st.builds(lambda key, rest: key + " ".join(rest), st.sampled_from(keywords),
                     st.lists(st.sampled_from(tokens), max_size=6))
    return st.text(max_size=80) | st.lists(line, max_size=7).map("\n".join)


FUZZ = settings(max_examples=150, deadline=None)


@FUZZ
@given(line_files(["vertices: ", "edges: ", "", "vertex: "],
                  ["a", "b", "c", "a-b", "b-c", "a-a", "a-", "-", "a-b-c", "é", "a\tb"]))
def test_fuzz_graph_files(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_graph.txt"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_captured(["nf", "--graph", str(path), "a b"])
    assert_clean_exit(code, err)


@FUZZ
@given(line_files(["genus: ", "genus: 1", "curves: ", "curves: x y", "intersections: ",
                   "gen a1: ", "gen b1: ", "gen a2: ", "gen : ", "component: ", ""],
                  ["1", "2", "0", "-3", "x", "y", "x-y", "x-x", "x-q", "x^-1", "y^2",
                   "e1:x", "e2:y", "e2:x", "e1:", ":x", "a1"]))
def test_fuzz_dissection_files(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_dissection.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_captured(["surface-check", "--dissection", str(path)])
    if code == 1:  # a well-formed dissection that fails a check
        assert "FAIL" in out and err == ""
        return
    assert_clean_exit(code, err)


@FUZZ
@given(st.text(alphabet="abcq ^-+0123[],\t", max_size=40) | st.text(max_size=20))
def test_fuzz_words(tmp_path_factory, word):
    path = tmp_path_factory.getbasetemp() / "fuzz_p3.txt"
    path.write_text("vertices: a b c\nedges: a-b b-c\n")
    code, _, err = run_captured(["depth", "--graph", str(path), word])
    assert_clean_exit(code, err)
