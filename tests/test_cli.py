import contextlib
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raaglcs import Dissection, format_dissection, standard_dissection
from raaglcs import cli
from raaglcs.cli import run


def graph_file(tmp_path, text, name="graph.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def f2_file(tmp_path):
    return graph_file(tmp_path, "vertices: a b\n")


def z2_file(tmp_path):
    return graph_file(tmp_path, "vertices: a b\nedges: a-b\n")


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


def test_verify_passes(tmp_path, capsys):
    assert run(["verify", "--graph", f2_file(tmp_path), "--max-norm", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "norm=1 depth=1 count=4"
    assert lines[-1] == "PASS"


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


def test_depth_cap_above_norm_is_lowered(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["depth", "--graph", f2_file(tmp_path), "--cap", "1000000", "a^-1 b^-1"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "depth=1\n"


def edgeless_file(tmp_path, n):
    return graph_file(tmp_path, "vertices: " + " ".join(f"x{i}" for i in range(n)) + "\n")


def test_depth_many_commutators_is_fast(tmp_path, capsys):
    # 8,000 distinct commutators: at cap 3 the image keeps about 16,000
    # degree-2 terms, which are summed but never visited again.
    pairs = [(i, j) for i in range(150) for j in range(i + 1, 150)][:8000]
    word = " ".join(f"[x{i},x{j}]" for i, j in pairs)
    start = time.perf_counter()
    assert run(["depth", "--graph", edgeless_file(tmp_path, 150), word]) == 0
    assert time.perf_counter() - start < 5.0
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
    for argv in (["--genus", "1000000000"], ["--dissection", dissection]):
        start = time.perf_counter()
        assert run(["surface-check"] + argv) == 2
        assert time.perf_counter() - start < 1.0  # refused before building curves
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not captured.err.startswith("error: internal error")
        assert len(captured.err.splitlines()) == 1


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
    broken = Dissection(2, d.curves, (), d.crossing_sequences)
    path = tmp_path / "broken.txt"
    path.write_text(format_dissection(broken))
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


def test_surface_depth(capsys):
    assert run(["surface-depth", "--genus", "2", "[a1,b1]"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("|w|_S=4 |phi(w)|_T=4 depth=2")
    assert out.rstrip().endswith("ok")


def test_surface_depth_trivial_image(capsys):
    assert run(["surface-depth", "--genus", "2", "[a1,b1] [a2,b2]"]) == 0
    assert capsys.readouterr().out == "|w|_S=8 phi(w)=1\n"


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["nope"]) == 2
    assert run(["nf", "--graph", f2_file(tmp_path), "a^0"]) == 2
    assert run(["nf", "--graph", str(tmp_path / "missing.txt"), "a"]) == 2
    assert run(["magnus", "--graph", f2_file(tmp_path), "--cap", "0", "a"]) == 2
    assert run(["dfun", "--graph", z2_file(tmp_path), "--k", "2"]) == 2  # complete graph
    capsys.readouterr()


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
