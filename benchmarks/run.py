#!/usr/bin/env python3
"""Verdict-checked benchmark of the `liesphere` CLI.

    python3 benchmarks/run.py --workload verify_all --seed 0 --seconds 30 --trace 0
    for w in verify_all checks search_sweep; do
        python3 benchmarks/run.py --workload $w --seed 0 --seconds 30; done

One client drives `liesphere.cli.main` in-process, in a closed loop: the
next call starts when the previous one has returned. Every call's exit
code, printed output, report verdicts and search survivors are checked
against benchmarks/refs.json. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  setup_s      median time of `import liesphere.cli` in a fresh interpreter
  pass_s       median wall time of one pass of the workload
  ok_share     calls whose output matched the reference / calls attempted
  peak_rss_mb  ru_maxrss of this process
--trace 1 alternates untraced and traced passes and reports, per traced
pass, `<module>.<function>.calls` and `.self_s` for every function in
spans.TRACED, the per-suite times, computed counts and the tracing
overhead. Spans are written to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
HARD_STOP_S = 120.0  # stop mid-cycle past this, so a run always ends within 180 s
BLAS_THREADS = "1"  # 6x6 products and small SVDs: extra BLAS threads only add noise

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "ok_share": "ratio", "peak_rss_mb": "MB"}

# computed counts: exact, derived from call counts and fixed sizes in src/
GRID_ORACLE_CELLS = 721 * 721       # resolution every caller passes to both grid oracles
COMPLEX128_BYTES = 16
EXPM_MATMULS = 8 + 10               # indefinite._expm: 8 Taylor terms, 10 squarings
D5_SAMPLES = 10_000                 # sign_certificates suite: d5 obstruction sample loop

PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in spans.traced_names()
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"report.suite.{name}.s": "s" for name in spans.SUITES},
    "report.cases": "count",
    "polygon.constraint_search.starts": "count",
    "polygon.constraint_search.survivors": "count",
    "polygon.grid_oracle.cells": "count",
    "polygon.grid_oracle.complex_bytes": "B",
    "indefinite.random_lie_transform.matmuls": "count",
    "dji.g6_d5_obstruction.samples": "count",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead": "ratio",
}
COMPUTED = ("report.cases", "polygon.constraint_search.starts", "polygon.grid_oracle.cells",
            "polygon.grid_oracle.complex_bytes", "indefinite.random_lie_transform.matmuls",
            "dji.g6_d5_obstruction.samples")


_TIMED_IMPORT = ("import time; start = time.perf_counter(); import liesphere.cli; "
                 "print(time.perf_counter() - start)")


def measure_setup(samples: int) -> list:
    """Seconds `import liesphere.cli` takes in fresh interpreters (one warm-up first)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(samples + 1):
        child = subprocess.run([sys.executable, "-c", _TIMED_IMPORT], env=env, cwd=ROOT,
                               check=True, capture_output=True, text=True, timeout=60)
        times.append(float(child.stdout))
    return times[1:]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def fingerprint(workload: str, seed: int) -> dict:
    import numpy as np

    import liesphere

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": git_commit(), "liesphere": liesphere.__version__,
            "workload": workload, "seed": seed}


class SurvivorLog:
    """Records every polygon.constraint_search result, the report's search included."""

    def __init__(self, polygon):
        self.entries: list = []
        original = polygon.constraint_search
        signature = inspect.signature(original)

        def recording(*args, **kwargs):
            survivors = original(*args, **kwargs)
            self.entries.append((signature.bind(*args, **kwargs).arguments, survivors))
            return survivors

        self._patches: list = []
        spans.replace_everywhere(original, recording, self._patches)

    def close(self):
        spans.restore(self._patches)

    def take(self) -> list:
        """[(key, grid, [(theta1, parallel)])] recorded since the last take()."""
        out = [(checks.search_key(a["g"], a["constraints"], a["grid_resolution"], a["seed"]),
                a["grid_resolution"], [(s.theta1, s.parallel) for s in survivors])
               for a, survivors in self.entries]
        self.entries.clear()
        return out


class Bench:
    def __init__(self, workload: str, refs: dict):
        from liesphere import cli, polygon

        self.cli = cli
        self.workload = workload
        self.refs = refs
        self.log = SurvivorLog(polygon)
        OUT.mkdir(exist_ok=True)
        self.report_path = str(OUT / f"report-{workload}.json")
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.counts: dict = {"report.cases": 0, "polygon.constraint_search.starts": 0,
                             "polygon.constraint_search.survivors": 0}

    def call(self, kind, argv, seed: int) -> float:
        """Run one CLI call, check it outside the timed region; returns its seconds."""
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a raising call is one failed call
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        problems = self.check(kind, code, buf.getvalue(), seed)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{' '.join(argv)}: {p}" for p in problems)
        return seconds

    def check(self, kind, code, stdout: str, seed: int) -> list:
        what, detail = kind
        survivors = self.refs["survivors"]
        problems = []
        for key, grid, found in self.log.take():
            self.counts["polygon.constraint_search.starts"] += grid * grid
            self.counts["polygon.constraint_search.survivors"] += len(found)
            if key not in survivors:
                problems.append(f"no survivor reference for {key}")
            else:
                problems += [f"{key}: {p}" for p in checks.check_survivors(survivors[key], found)]
        if what == "verify":
            problems += checks.check_verify(self.refs["verify"][detail], code, stdout,
                                            self.report_path, seed)
            self.counts["report.cases"] += self.refs["verify"][detail]["cases"]
        else:
            g, cons, grid = detail
            problems += checks.check_search(survivors[checks.search_key(g, cons, grid, seed)],
                                            code, stdout)
        return problems

    def run_pass(self, seed: int, tracer=None) -> float:
        total = 0.0
        for kind, argv in workloads.pass_calls(self.workload, seed, self.report_path):
            if tracer is not None:
                tracer.call += 1
            total += self.call(kind, argv, seed)
        return total


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ten_beyond(values: list) -> str:
    """Highest percentile with at least ten samples above it, or why there is none."""
    n = len(values)
    if n <= 10:
        return f"none (needs more than 10 passes, have {n})"
    return f"p{100.0 * (n - 10) / n:.1f} = {sorted(values)[n - 11]:.4f} s"


def traced_metrics(tracer, n_traced: int, counts: dict, untraced: list, traced: list) -> dict:
    stats = tracer.stats()
    per_pass = {}
    for name in spans.traced_names():
        calls, self_s, _ = stats.get(name, (0, 0.0, 0.0))
        per_pass[f"{name}.calls"] = calls / n_traced
        per_pass[f"{name}.self_s"] = self_s / n_traced
    for name in spans.SUITES:
        per_pass[f"report.suite.{name}.s"] = stats.get(f"report.suite.{name}",
                                                       (0, 0.0, 0.0))[2] / n_traced
    oracle_calls = (per_pass["polygon.g4_grid_oracle.calls"]
                    + per_pass["polygon.g6_grid_oracle.calls"])
    d5_suites = stats.get("report.suite.sign_certificates", (0, 0.0, 0.0))[0] / n_traced
    per_pass.update({
        "report.cases": counts["report.cases"],
        "polygon.constraint_search.starts": counts["polygon.constraint_search.starts"],
        "polygon.constraint_search.survivors": counts["polygon.constraint_search.survivors"],
        "polygon.grid_oracle.cells": oracle_calls * GRID_ORACLE_CELLS,
        "polygon.grid_oracle.complex_bytes": oracle_calls * GRID_ORACLE_CELLS * COMPLEX128_BYTES,
        "indefinite.random_lie_transform.matmuls":
            per_pass["indefinite.random_lie_transform.calls"] * EXPM_MATMULS,
        "dji.g6_d5_obstruction.samples": d5_suites * D5_SAMPLES,
        "trace.untraced_pass_s": statistics.median(untraced),
        "trace.traced_pass_s": statistics.median(traced),
        "trace.overhead": statistics.median(traced) / statistics.median(untraced),
    })
    return per_pass


def print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        tag = " (computed)" if name in COMPUTED else ""
        note = f"  {notes[name]}" if name in notes else ""
        print(f"{name:48s} {value:>16.6g} {units[name]}{tag}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liesphere" / "__init__.py").is_file():
        print(f"error: no liesphere sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    setup = measure_setup(SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    import liesphere

    if Path(liesphere.__file__).resolve().parent != SRC / "liesphere":
        print(f"error: imported liesphere from {liesphere.__file__}", file=sys.stderr)
        return 2
    with open(HERE / "refs.json", encoding="utf-8") as handle:
        refs = json.load(handle)
    if tuple(refs["pool"]) != workloads.POOL:
        print("error: refs.json was made for another seed pool", file=sys.stderr)
        return 2

    info = fingerprint(args.workload, args.seed)
    order = workloads.cycle_order(args.seed)
    bench = Bench(args.workload, refs)
    tracer = spans.Tracer() if args.trace else None
    untraced, traced = [], []
    try:
        bench.call(("verify", "dji_kernels"),
                   ["verify", "--suite", "dji_kernels", "--seed", "0", "--out",
                    bench.report_path], 0)  # warm-up, untimed
        bench.counts = dict.fromkeys(bench.counts, 0)
        start = time.perf_counter()
        cycles = 0
        while True:
            for seed in order:
                untraced.append(bench.run_pass(seed))
                if tracer is not None:
                    with tracer.installed():
                        traced.append(bench.run_pass(seed, tracer))
                if time.perf_counter() - start > HARD_STOP_S:
                    print(f"note: stopped mid-cycle after {HARD_STOP_S:g} s")
                    break
            cycles += 1
            elapsed = time.perf_counter() - start
            # end on the cycle boundary nearest to --seconds
            if elapsed > HARD_STOP_S or elapsed + elapsed / cycles / 2 >= args.seconds:
                break
    finally:
        bench.log.close()

    print(json.dumps({"fingerprint": info}))
    q1, med, q3 = quartiles(untraced)
    print(f"workload {args.workload}: CLI seeds {order}, {len(untraced)} untraced passes"
          f"{f', {len(traced)} traced' if traced else ''} in {elapsed:.1f} s; "
          f"{bench.attempted} calls, {bench.failed} failed")
    for problem in bench.problems[:20]:
        print(f"MISMATCH {problem}")
    fail_share = bench.failed / bench.attempted
    if tracer is None:
        metrics = {"setup_s": statistics.median(setup), "pass_s": med,
                   "ok_share": 1.0 - fail_share,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
        s1, _, s3 = quartiles(setup)
        notes = {"setup_s": f"q1 {s1:.4f} q3 {s3:.4f}, n={len(setup)}",
                 "pass_s": f"q1 {q1:.4f} q3 {q3:.4f}, n={len(untraced)}; "
                           f"{ten_beyond(untraced)} (information only)",
                 "ok_share": f"fail_share = {fail_share:.6g} ({bench.failed} of "
                             f"{bench.attempted} calls)"}
    else:
        n_passes = len(untraced) + len(traced)
        counts = {k: v / n_passes for k, v in bench.counts.items()}
        metrics = traced_metrics(tracer, len(traced), counts, untraced, traced)
        units = PER_LAYER_UNITS
        notes = {"trace.overhead": "traced / untraced median pass_s"}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    print_metrics(metrics, units, notes)
    result = {"correct": not bench.problems, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({**result, "fingerprint": info, "cli_seeds": order,
                   "untraced_pass_s": untraced, "traced_pass_s": traced, "setup_s": setup,
                   "problems": bench.problems}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
