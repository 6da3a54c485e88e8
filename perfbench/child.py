"""One round of the benchmark, run in a fresh interpreter.

    python3 child.py SPEC.json RESULT.json

SPEC holds the raaglcs source directory and either a list of CLI argument
vectors (a workload round, optionally traced) or `"anchors": true`.  Each
argument vector goes through `raaglcs.cli.run` in this process, with stdout
captured; the literal argument `{prev}` stands for the previous query's
output without its trailing newline.  RESULT receives exit codes, outputs,
latencies, the peak resident set size and, when traced, the layer totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter


def run_queries(queries, tracer=None):
    from raaglcs.cli import run

    results = []
    stdout_bytes = 0
    prev = ""
    start = perf_counter()
    for qid, argv in enumerate(queries):
        if tracer is not None:
            tracer.query = qid
        argv = [prev if a == "{prev}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except Exception:  # a crash is a failed query, not the end of the round
                code = "exception"
                traceback.print_exc()
        elapsed = perf_counter() - t0
        prev = out.getvalue().rstrip("\n")
        stdout_bytes += len(out.getvalue().encode())
        results.append([code, out.getvalue(), err.getvalue(), elapsed])
    wall = perf_counter() - start
    return results, wall, stdout_bytes


def _median_time(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_anchors():
    """The ROADMAP baseline queries, timed untraced through the library API."""
    from raaglcs import (Graph, GroupWord, commutator_witness, enumerate_elements,
                         lcs_depth, standard_dissection, surface_depth_check,
                         verify_depth_bound)

    f2 = Graph(["a", "b"])
    c4 = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    rng = random.Random(800)
    letters = [(rng.choice("abcd"), rng.choice((1, -1))) for _ in range(800)]
    genus48 = standard_dissection(48)
    out, errors = {}, []

    def timed(name, fn, check):
        t0 = perf_counter()
        value = fn()
        out[name] = perf_counter() - t0
        if not check(value):
            errors.append(f"anchor {name}: wrong answer {value!r}")

    timed("anchor.f2_w8_lcs_depth_s", lambda: lcs_depth(commutator_witness(f2, 8)),
          lambda r: r.kind == "exact" and r.depth == 8)
    timed("anchor.enumerate_c4_6_s", lambda: len(enumerate_elements(c4, 6)),
          lambda n: n == 11664)
    timed("anchor.verify_c4_6_s", lambda: verify_depth_bound(c4, 6),
          lambda r: r.passed and r.checked == 11664)
    out["anchor.reduced_800_ms"] = 1000 * _median_time(
        lambda: GroupWord(c4, letters).reduced(), 5)
    out["anchor.canonical_800_ms"] = 1000 * _median_time(
        lambda: GroupWord(c4, letters).canonical(), 5)
    out["anchor.surface_depth_g48_ms"] = 1000 * _median_time(
        lambda: surface_depth_check("a1", genus48), 50)
    if not surface_depth_check("a1", genus48).bound_holds:
        errors.append("anchor surface_depth_g48: bound reported broken")
    return out, errors


def main():
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import raaglcs.cli  # noqa: F401  (imported before tracing, as a user would)

    result = {}
    if spec.get("anchors"):
        result["anchors"], result["errors"] = run_anchors()
    else:
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        results, wall, stdout_bytes = run_queries(spec["queries"], tracer)
        result.update(results=results, wall_s=wall, stdout_bytes=stdout_bytes)
        if tracer is not None:
            result["layers"] = tracer.layer_totals()
            result["extra"] = dict(tracer.extra, **{f"{k}.calls": v
                                                    for k, v in tracer.counts.items()})
            result["top_s"] = tracer.top_s
            if spec.get("spans"):
                tracer.write_spans(spec["spans"])
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
