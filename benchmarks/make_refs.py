#!/usr/bin/env python3
"""Write benchmarks/refs.json from the current sources.

    python3 benchmarks/make_refs.py

Runs every call of every workload for every seed in workloads.POOL and
records what the benchmark later checks: per verify suite the exit code,
the printed output, the case count and the verdict digest (each must be
the same for every seed), and per search (including the report's own
constraint_search cases) the theta1 of every survivor. Every survivor
must be parallel. Only regenerate on purpose: the references are what a
change is checked against.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

import checks
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from liesphere import cli, polygon

    run.OUT.mkdir(exist_ok=True)
    out_path = str(run.OUT / "report-refs.json")
    log = run.SurvivorLog(polygon)
    verify, survivors = {}, {}
    try:
        for workload in workloads.WORKLOADS:
            for seed in workloads.POOL:
                for (what, detail), argv in workloads.pass_calls(workload, seed, out_path):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                    for key, _, found in log.take():
                        if not all(parallel for _, parallel in found):
                            raise SystemExit(f"{key}: non-parallel survivor")
                        survivors[key] = [theta1 for theta1, _ in found]
                    if what != "verify":
                        continue
                    with open(out_path, encoding="utf-8") as handle:
                        cases = json.load(handle)["cases"]
                    ref = {"exit": code, "cases": len(cases),
                           "digest": checks.verdict_digest((c["case_id"], c["status"])
                                                           for c in cases),
                           "stdout": buf.getvalue().replace(out_path, "{out}")}
                    if verify.setdefault(detail, ref) != ref:
                        raise SystemExit(f"suite {detail}: seed {seed} differs from seed "
                                         f"{workloads.POOL[0]}; one reference cannot serve all")
                print(f"{workload} seed {seed}: done", file=sys.stderr)
    finally:
        log.close()
    path = Path(__file__).resolve().parent / "refs.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pool": list(workloads.POOL), "verify": verify,
                   "survivors": dict(sorted(survivors.items()))}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}: {len(verify)} suites, {len(survivors)} searches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
