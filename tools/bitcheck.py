#!/usr/bin/env python3
"""Bit-level dump and diff of the search survivors and the verification report.

    python3 tools/bitcheck.py dump TREE OUT.json
    python3 tools/bitcheck.py diff A.json B.json

`dump` imports liesphere from TREE/src and writes one JSON object: every
search named in TREE/benchmarks/refs.json ("g4:cmc+csc:grid25:seed0" runs
constraint_search(4, ("cmc", "csc"), 25, 0)) with each survivor's gaps,
theta1, residual and parallel verdict, the same for the EXTRA_SEARCHES that
the refs lack ("g4:cmc+csc:grid10:seed5:m12" runs constraint_search(4,
("cmc", "csc"), 10, 5, 1, 2)), and run_suite("all", s) for
s = 0-3 without runtime_ms, and the sha256 of the bytes that emit_report
writes for each seed's report in JSON and in CSV, with every runtime_ms
set to 0, and the derivative systems of the dji layer: the rows,
unknown_labels and row_labels of every system the dji_kernels suite builds
(each report._KERNEL_SYSTEMS entry at its curvatures and at the perturbed
ones, the unconstrained g = 6 system and the cmc-only g = 6 and g = 4
systems), and every sign_certificates value at the suite's curvatures,
and the OracleResult of g4_grid_oracle and g6_grid_oracle at resolutions
101, 721 and 1001. Floats are written as float.hex, so equal dumps mean equal bits. `diff`
prints every entry in which two dumps differ, then one summary line per
suites case family with moved entries (how many, the largest residual move,
the largest moved residual/tolerance ratio, the params keys that moved with
the largest move among numeric params, and whether every status is
unchanged) and one per certificate list with moved values (the moved names,
the largest relative move, and whether every claimed sign still holds with
the margin dji.CERTIFICATE_MARGIN of this checkout's src, 1e-6), and exits
1 if any entry differs, 0 if none; a part that one dump lacks (dumps of earlier versions have no extra searches, report hashes,
systems or oracles) is named and not compared. Nothing under benchmarks/ is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

SUITE_SEEDS = (0, 1, 2, 3)
PARTS = ("searches", "extra_searches", "suites", "report_sha256", "systems", "oracles")
# (g, constraints, grid, seed, m1, m2) of searches that refs.json lacks: multiplicities
# (2, 2) and, where g accepts them, (1, 2); the constraint sets the refs skip; grids 10 and
# 20 and seeds 0 and 5; and a search whose start draws meet a rejected bounded integer
_REF_SETS = {3: (("cmc",), ("cmc", "csc")), 4: (("cmc",), ("cmc", "csc"), ("cmc", "clc")),
             6: (("cmc",), ("cmc", "clc"))}
_OTHER_SETS = {3: (("csc",),), 4: (("csc",), ("clc",), ("csc", "clc"), ("cmc", "csc", "clc"))}
_OTHER_SETS[6] = _OTHER_SETS[4]
EXTRA_SEARCHES = tuple(
    [(g, constraints, grid, seed, m1, m2) for g in (3, 4, 6)
     for m1, m2 in ((2, 2), (1, 2)) if g == 4 or m1 == m2 for constraints in _REF_SETS[g]
     for grid in (10, 20) for seed in (0, 5)]
    + [(g, constraints, grid, seed, 1, 1) for g in (3, 4, 6) for constraints in _OTHER_SETS[g]
       for grid in (10, 20) for seed in (0, 5)]
    + [(3, ("cmc",), 55, 83, 1, 1)])
REPORT_FORMATS = ("json", "csv")
ORACLE_RESOLUTIONS = (101, 721, 1001)


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _search_args(key: str):
    """(g, constraints, grid, seed) of a refs.json search key."""
    g, constraints, grid, seed = key.split(":")
    return int(g[1:]), tuple(constraints.split("+")), int(grid[4:]), int(seed[4:])


def _extra_key(g, constraints, grid, seed, m1, m2) -> str:
    return f"g{g}:{'+'.join(constraints)}:grid{grid}:seed{seed}:m{m1}{m2}"


def _survivors(survivors) -> list:
    return [{"odd": _hex(s.gaps.odd), "even": _hex(s.gaps.even), "theta1": float(s.theta1).hex(),
             "residual": float(s.residual).hex(), "parallel": bool(s.parallel)}
            for s in survivors]


def dump_extra_searches(specs=EXTRA_SEARCHES) -> dict:
    """The survivors of each (g, constraints, grid, seed, m1, m2) search, keyed by _extra_key."""
    from liesphere import polygon

    return {_extra_key(*spec): _survivors(polygon.constraint_search(*spec)) for spec in specs}


def _system(system) -> dict:
    return {"rows": [_hex(row) for row in system.rows],
            "unknown_labels": [list(label) for label in system.unknown_labels],
            "row_labels": list(system.row_labels)}


def dump_systems() -> dict:
    """The systems that the dji_kernels suite builds and the g = 4, 6 sign certificates."""
    import numpy as np
    from liesphere import dji, isoparam, report

    def family_pcs(g, m1=1, m2=1):
        return isoparam.principal_curvatures(isoparam.IsoparametricFamily(g, m1, m2, 0.0))

    systems = {}
    for g, constraints, m1, m2 in report._KERNEL_SYSTEMS:
        pcs = family_pcs(g, m1, m2)
        key = f"kernel:g{g}:{'+'.join(constraints)}:m{m1}{m2}"
        for suffix, at in (("", pcs), (":perturbed", pcs + 1e-8 * np.arange(1, g + 1))):
            systems[key + suffix] = _system(dji.build_system(g, at, m1, m2, constraints,
                                                             dji.critical_point_pinning(g)))
    systems["free:g6"] = _system(dji.build_system(6, family_pcs(6), 1, 1, (), frozenset()))
    for g in (6, 4):
        systems[f"cmc:g{g}"] = _system(dji.build_system(g, family_pcs(g), 1, 1, ("cmc",),
                                                        dji.critical_point_pinning(g)))
    for g in (4, 6):
        systems[f"certificates:g{g}"] = [
            [cert.name, float(cert.expression_value).hex(), cert.claimed_sign]
            for cert in dji.sign_certificates(g, family_pcs(g))]
    return systems


def dump_oracles() -> dict:
    """Both grid oracles' results at ORACLE_RESOLUTIONS, keyed "g<g>:<resolution>"."""
    from liesphere import polygon

    oracles = {}
    for g, oracle in ((4, polygon.g4_grid_oracle), (6, polygon.g6_grid_oracle)):
        for resolution in ORACLE_RESOLUTIONS:
            result = oracle(resolution)
            oracles[f"g{g}:{resolution}"] = {
                "grid_minimum": _hex(result.grid_minimum), "polished": _hex(result.polished),
                "cell_size": float(result.cell_size).hex(), "unique_cell": result.unique_cell}
    return oracles


def dump(tree: Path) -> dict:
    sys.path.insert(0, str(tree / "src"))
    from liesphere import polygon, report

    if not Path(polygon.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"liesphere was imported from {polygon.__file__}, not from {tree}")
    refs = json.loads((tree / "benchmarks" / "refs.json").read_text(encoding="utf-8"))
    searches = {key: _survivors(polygon.constraint_search(*_search_args(key)))
                for key in refs["survivors"]}
    suites, report_sha256 = {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        for seed in SUITE_SEEDS:
            cases = report.run_suite("all", seed)
            for case in cases:
                suites[f"seed{seed}:{case.case_id}"] = {
                    "suite": case.suite, "params": case.params, "status": case.status,
                    "residual": case.residual.hex(), "tolerance": case.tolerance.hex(),
                    "seed": case.seed}
            untimed = [dataclasses.replace(case, runtime_ms=0.0) for case in cases]
            for fmt in REPORT_FORMATS:
                path = Path(scratch) / f"report.{fmt}"
                report.emit_report(untimed, str(path), fmt, seed)
                report_sha256[f"seed{seed}:{fmt}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"searches": searches, "extra_searches": dump_extra_searches(), "suites": suites,
            "report_sha256": report_sha256, "systems": dump_systems(), "oracles": dump_oracles()}


def unshared_parts(a: dict, b: dict) -> list:
    """The parts that only one of two dumps holds; diff does not compare them."""
    return [part for part in PARTS if (part in a) != (part in b)]


def diff(a: dict, b: dict) -> list:
    """One line per entry that is missing from a dump or differs between them."""
    lines = []
    for part in PARTS:
        if part not in a or part not in b:
            continue
        left, right = a[part], b[part]
        for key in sorted(left.keys() | right.keys()):
            if key not in right:
                lines.append(f"{part} {key}: only in the first dump")
            elif key not in left:
                lines.append(f"{part} {key}: only in the second dump")
            elif left[key] != right[key]:
                lines.append(f"{part} {key}: {json.dumps(left[key])} != {json.dumps(right[key])}")
    return lines


def suite_summary(a: dict, b: dict) -> list:
    """One line per suites case family (the case_id up to "[") with entries that differ.

    Each line gives the number of moved entries (and how many of them moved in
    the residual), the largest residual move, the largest moved residual/tolerance
    ratio (second dump), the params keys that differ (added, dropped or changed)
    with the largest move among the params that read as numbers in both dumps,
    and whether every status is unchanged. Entries that only one dump holds are
    not counted.
    """
    moved = {}  # family -> [(residual move, residual/tolerance, status flipped, params moves)]
    left, right = a.get("suites", {}), b.get("suites", {})
    for key in sorted(left.keys() & right.keys()):
        old, new = left[key], right[key]
        if old == new:
            continue
        before, after = float.fromhex(old["residual"]), float.fromhex(new["residual"])
        tolerance = float.fromhex(new["tolerance"])
        was, now = old.get("params", {}), new.get("params", {})
        params = {name: _numeric_move(was.get(name), now.get(name))
                  for name in was.keys() | now.keys() if was.get(name) != now.get(name)}
        moved.setdefault(key.split(":", 1)[1].split("[")[0], []).append(
            (0.0 if before == after else abs(after - before),
             after / tolerance if tolerance > 0 else math.inf, old["status"] != new["status"],
             params))
    lines = []
    for family, entries in moved.items():
        shifts, ratios, flips, params = zip(*entries)
        names = sorted(set().union(*params))
        numeric = [move for moves in params for move in moves.values() if move is not None]
        moved_params = f"params moved: {', '.join(names)}" if names else "no params moved"
        if numeric:
            moved_params += f" (largest numeric move {max(numeric):.3g})"
        lines.append(f"suites {family}: {len(entries)} moved ({sum(map(bool, shifts))} in the "
                     f"residual), largest residual move {max(shifts):.3g}, "
                     f"largest moved residual/tolerance {max(ratios):.3g}, {moved_params}, "
                     + (f"{sum(flips)} status change(s)" if any(flips)
                        else "every status unchanged"))
    return lines


def certificate_summary(a: dict, b: dict) -> list:
    """One line per systems certificates:g<g> list whose values differ between two dumps.

    Each line names the moved certificates (compared by name; a name only one list
    holds is not compared), gives the largest relative move |after - before| / |before|,
    and says whether every claimed sign holds in the second dump with the margin that
    dji.CERTIFICATE_MARGIN of this checkout sets.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from liesphere.dji import CERTIFICATE_MARGIN

    lines = []
    left, right = a.get("systems", {}), b.get("systems", {})
    for key in sorted(k for k in left.keys() & right.keys() if k.startswith("certificates:")):
        before = {name: float.fromhex(value) for name, value, _ in left[key]}
        after = {name: (float.fromhex(value), claim) for name, value, claim in right[key]}
        moved = [name for name in before if name in after and after[name][0] != before[name]]
        if not moved:
            continue
        largest = max(abs(after[name][0] - before[name]) / abs(before[name])
                      if before[name] else math.inf for name in moved)
        failing = [name for name, (value, claim) in after.items()
                   if not (value > CERTIFICATE_MARGIN if claim == "positive"
                           else value < -CERTIFICATE_MARGIN)]
        margin = f"the {CERTIFICATE_MARGIN:g} margin"
        lines.append(f"systems {key}: {len(moved)} moved ({', '.join(moved)}), largest relative "
                     f"move {largest:.3g}, "
                     + (f"claimed sign fails {margin}: {', '.join(failing)}" if failing
                        else f"every claimed sign holds with {margin}"))
    return lines


def _numeric_move(before, after):
    """|after - before| of two params values that both read as numbers, else None."""
    try:
        return abs(float(after) - float(before))
    except (TypeError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="dump the survivors and the report of a source tree")
    p_dump.add_argument("tree", type=Path, help="root of a checkout (holds src/ and benchmarks/)")
    p_dump.add_argument("out", type=Path)
    p_diff = sub.add_parser("diff", help="compare two dumps")
    p_diff.add_argument("first", type=Path)
    p_diff.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        data = dump(args.tree.resolve())
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{args.out}: {len(data['searches'])} searches, "
              f"{sum(map(len, data['searches'].values()))} survivors, "
              f"{len(data['extra_searches'])} extra searches, "
              f"{sum(map(len, data['extra_searches'].values()))} extra survivors, "
              f"{len(data['suites'])} cases, {len(data['report_sha256'])} report hashes, "
              f"{len(data['systems'])} dji systems and certificate lists, "
              f"{len(data['oracles'])} oracle results")
        return 0
    first, second = (json.loads(p.read_text(encoding="utf-8")) for p in (args.first, args.second))
    lines = diff(first, second)
    for line in lines + suite_summary(first, second) + certificate_summary(first, second):
        print(line)
    for part in unshared_parts(first, second):
        print(f"{part}: only one dump has this part; not compared")
    print(f"{len(lines)} difference(s) over {len(first['searches'])} searches, "
          f"{len(first.get('extra_searches', {}))} extra searches, "
          f"{len(first['suites'])} cases, {len(first.get('report_sha256', {}))} report hashes "
          f"and {len(first.get('systems', {}))} dji systems and certificate lists")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
