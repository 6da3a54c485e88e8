"""Benchmark of the raaglcs CLI: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {sweep,deep,surface,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a raaglcs checkout; it imports the package from
`src/` and writes its inputs and span files under `.perfbench_work/`.

Load model: one client in a closed loop.  A round is the workload's whole
query list, sent back to back through `raaglcs.cli.run(argv)` in one fresh
interpreter (`child.py`), so the caches start cold as they do for a CLI
user while queries within the round share the process.

With `--trace 0` rounds repeat until `--seconds` have passed.  Each query's
latency is its median over the rounds; `wall_s` is the sum of those over
the query list, `query_p50_ms` and `query_p95_ms` their percentiles, and
`peak_rss_mib` the median over rounds of the round process's ru_maxrss.
`setup_s` is the median time a fresh `python -c "import raaglcs.cli"`
takes to finish the import, over three interpreters before each round.

With `--trace 1` the run makes one untraced round, two traced rounds
(tracer.py) and one round of the ROADMAP anchor queries, and reports the
per-layer metrics; counts must repeat exactly between the two traced rounds.

Every answer is checked: by the query's own invariant and oracle check (see
workloads.py), and on the default seed also against the digests committed
in expected.json.  The last line of output is one JSON object with keys
correct, attempted, failed and metrics.  `--write-expected` records the
default seed's digests from the code under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
SETUP_SPAWNS = 3  # per round
RUN_LIMIT_S = 170
EXPECTED = os.path.join(HERE, "expected.json")


class Harness:
    def __init__(self, root, workload, seed):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workdir = os.path.join(root, ".perfbench_work", f"{workload}-{seed}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.queries = workloads.build(workload, seed, self.workdir)
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        self.started = perf_counter()
        self.attempted = 0
        self.problems = []
        self.expected = None
        if seed == DEFAULT_SEED and os.path.exists(EXPECTED):
            with open(EXPECTED, encoding="utf-8") as handle:
                self.expected = json.load(handle)["digests"].get(workload)

    def _remaining(self):
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def import_time(self):
        """Time from spawning a fresh interpreter to the end of `import raaglcs.cli`.

        The interpreter reports when the import finished on the system-wide
        monotonic clock, because the end of a wait with a timeout is only
        seen at the next poll, up to 50 ms late.
        """
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", "import raaglcs.cli, time; print(time.perf_counter())"],
            cwd=self.root, env=self.env, check=True, timeout=self._remaining(),
            capture_output=True, text=True)
        return float(done.stdout) - t0

    def child(self, name, spec):
        spec = dict(spec, src=self.src)
        spec_path = os.path.join(self.workdir, f"{name}.spec.json")
        result_path = os.path.join(self.workdir, f"{name}.result.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                       cwd=self.root, env=self.env, check=True, timeout=self._remaining())
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)

    def round(self, name, trace=False, spans=False):
        spec = {"queries": [q.argv for q in self.queries], "trace": trace}
        if spans:
            spec["spans"] = os.path.join(self.workdir, f"{name}.spans.json")
        result = self.child(name, spec)
        for i, (query, (code, out, err, _)) in enumerate(zip(self.queries, result["results"])):
            self.attempted += 1
            try:
                problem = query.check(code, out)
            except (ValueError, AttributeError, IndexError, KeyError, TypeError) as exc:
                problem = f"unreadable output ({exc!r})"
            if problem is None and self.expected and self.expected[i] != digest(code, out):
                problem = "output differs from the committed answer"
            if problem is not None:
                self.problems.append(f"{name} query {i} {query.argv[:2]}: {problem} {err[-300:]}")
        return result

    def accounting(self, name, result):
        """Conservation check: layer self times + residual == traced wall time."""
        self_sum = sum(s for _, s in result["layers"].values())
        residual = result["wall_s"] - result["top_s"]
        self.attempted += 1
        if abs(self_sum + residual - result["wall_s"]) > 1e-6 * max(1.0, result["wall_s"]) \
                or not 0 <= residual < 0.1 * result["wall_s"]:
            self.problems.append(f"{name}: self times {self_sum:.6f} s + residual "
                                 f"{residual:.6f} s do not account for {result['wall_s']:.6f} s")
        return residual

    def anchors(self):
        result = self.child("anchors", {"anchors": True})
        self.attempted += 1
        self.problems += result["errors"]
        return result["anchors"]


def digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def layer_metrics(result, residual, queries):
    m = {}
    for name, (calls, self_s) in result["layers"].items():
        m[f"{name}.calls"], m[f"{name}.self_s"] = calls, self_s
    m.update(result["extra"])
    m["magnus.caps_per_query"] = _ratio(m["magnus.mu.calls"], m["magnus.lcs_depth.calls"])
    m["lab.enumerate.yield_ratio"] = _ratio(m["lab.enumerate.elements"],
                                            m["lab.enumerate.strings_visited"])
    surface_queries = sum(1 for q in queries if q.argv[0].startswith("surface"))
    m["surface.relator_checks_per_query"] = _ratio(m["surface.check_relator.calls"],
                                                   surface_queries)
    m["cli.stdout_bytes"] = result["stdout_bytes"]
    m["trace.wall_s"] = result["wall_s"]
    m["trace.residual_s"] = residual
    return m


def _ratio(num, den):
    return num / den if den else 0.0


def _is_time(name):
    return name.endswith(("_s", "_ms"))


def measure(h, seconds):
    """End-to-end metrics: untraced rounds until `seconds` have passed."""
    h.import_time()  # may compile bytecode
    setup, rounds = [], []
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        # set-up samples are spread over the run, so one slow spell can't skew them
        setup += [h.import_time() for _ in range(SETUP_SPAWNS)]
        rounds.append(h.round(f"round{len(rounds)}"))
    # Each query's latency is the median over rounds, which filters out
    # the seconds-long spells when neighbouring load slows the machine.
    latencies = [statistics.median(rnd["results"][i][3] for rnd in rounds)
                 for i in range(len(h.queries))]
    metrics = dict(
        setup_s=statistics.median(setup),
        wall_s=sum(latencies),
        query_p50_ms=1000 * statistics.median(latencies),
        query_p95_ms=1000 * statistics.quantiles(latencies, n=20, method="inclusive")[18],
        peak_rss_mib=statistics.median(r["peak_rss_mib"] for r in rounds))
    summary = (f"{len(h.queries)} queries x {len(rounds)} rounds; round wall "
               + " ".join(f"{r['wall_s']:.3f}" for r in rounds) + " s")
    return metrics, summary


def measure_traced(h):
    """Per-layer metrics: one untraced round, two traced rounds, the anchors."""
    untraced = h.round("untraced")
    traced = []
    for i in range(2):
        result = h.round(f"traced{i}", trace=True, spans=(i == 0))
        residual = h.accounting(f"traced{i}", result)
        traced.append(layer_metrics(result, residual, h.queries))
    h.attempted += 1
    drift = [k for k in traced[0] if not _is_time(k) and traced[0][k] != traced[1][k]]
    if drift:
        h.problems.append(f"counts differ between two traced rounds: {drift}")
    metrics = {k: statistics.mean([traced[0][k], traced[1][k]]) if _is_time(k)
               else traced[0][k] for k in traced[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced["wall_s"]
    metrics.update(h.anchors())
    return metrics, (f"{len(h.queries)} queries; untraced {untraced['wall_s']:.3f} s, traced "
                     + " ".join(f"{t['trace.wall_s']:.3f}" for t in traced) + " s")


def write_expected(root, names):
    digests = {}
    for name in names:
        harness = Harness(root, name, DEFAULT_SEED)
        harness.expected = None
        digests[name] = [digest(code, out) for code, out, _, _
                         in harness.round("round0")["results"]]
        print(f"[{name}] {len(digests[name])} digests; {len(harness.problems)} failed checks")
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, handle, indent=1)
        handle.write("\n")


def select(metrics, declared):
    out = {}
    for spec in declared:
        if spec["name"] not in metrics:
            raise KeyError(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record the default seed's output digests in expected.json")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "raaglcs", "cli.py")):
        print("error: run from the root of a raaglcs checkout (no src/raaglcs/cli.py here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_expected:
        write_expected(root, names)
        return 0

    combined, attempted, problems = {}, 0, []
    for name in names:
        harness = Harness(root, name, args.seed)
        if args.trace:
            metrics, summary = measure_traced(harness)
        else:
            metrics, summary = measure(harness, args.seconds)
        chosen = select(metrics, declared)
        attempted += harness.attempted
        problems += harness.problems
        failed = len(harness.problems)
        print(f"[{name}] seed={args.seed} {summary}; "
              f"error_rate = {failed / harness.attempted:.4g} ({failed}/{harness.attempted})")
        for metric, value in chosen.items():
            print(f"[{name}] {metric} = {value['value']:.6g} {value['unit']}")
            combined[metric if len(names) == 1 else f"{name}.{metric}"] = value
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
