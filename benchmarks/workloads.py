"""The three workloads as fixed lists of `liesphere` CLI calls per pass.

A pass runs under one CLI seed taken from POOL. A run walks POOL in an
order drawn from the workload seed, one whole cycle at a time, so every
run times the same multiset of CLI seeds: the cost of a search depends
on its seed, and a run that sampled new seeds would measure that instead
of the code. refs.json holds a reference for every call of every POOL seed.
"""

from __future__ import annotations

import random

POOL = (0, 1, 2, 3)

# verify_all: the whole report, the north-star number; the falsification
# search is about 70 % of it.
# checks: the seven other suites one call each; no search runs, so the
# scalar loops, the grid oracles and the single-problem solves dominate.
# search_sweep: `search` as users run it, from small grids where per-call
# overhead and rejected starts dominate to large grids where the polish
# does; no grid oracle runs.
WORKLOADS = ("verify_all", "checks", "search_sweep")

CHECK_SUITES = ("lie_invariance", "cross_ratio_identity", "isoparametric_formulas",
                "angle_solvers", "dji_kernels", "sign_certificates", "isometry_reduction")

SEARCH_SPECS = ((3, "cmc"), (3, "cmc,csc"), (4, "cmc"), (4, "cmc,csc"), (4, "cmc,clc"),
                (6, "cmc"), (6, "cmc,clc"))
SEARCH_GRIDS = (5, 15, 35)


def cycle_order(seed: int) -> list:
    """The POOL seeds in the order a run walks them."""
    return random.Random(seed).sample(POOL, len(POOL))


def pass_calls(workload: str, seed: int, report_path: str) -> list:
    """[(kind, argv)] for one pass; kind is ("verify", suite) or ("search", (g, cons, grid))."""
    s = str(seed)
    if workload == "verify_all":
        return [(("verify", "all"),
                 ["verify", "--suite", "all", "--seed", s, "--out", report_path])]
    if workload == "checks":
        return [(("verify", name),
                 ["verify", "--suite", name, "--seed", s, "--out", report_path])
                for name in CHECK_SUITES]
    if workload == "search_sweep":
        return [(("search", (g, cons.split(","), grid)),
                 ["search", "--g", str(g), "--constraints", cons, "--grid", str(grid),
                  "--seed", s])
                for g, cons in SEARCH_SPECS for grid in SEARCH_GRIDS]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
