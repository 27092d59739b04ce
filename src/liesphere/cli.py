"""Command-line driver: verification suites, family tables, polygon diagrams, searches.

Exit codes: 0 when every case passes, 1 when any case fails or errors,
2 on usage errors. All configuration is on the command line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import dji, isoparam, polygon as poly_mod, report


def _verify(args) -> int:
    cases = report.run_suite(args.suite, args.seed, args.tol)
    counts = {"pass": 0, "fail": 0, "error": 0}
    for case in cases:
        counts[case.status] += 1
    for case in cases:
        if case.status != "pass":
            print(f"{case.status.upper():5s} {case.case_id} "
                  f"residual={case.residual:.3e} tol={case.tolerance:.3e}")
    print(f"{len(cases)} cases: {counts['pass']} pass, "
          f"{counts['fail']} fail, {counts['error']} error")
    if args.out:
        report.emit_report(cases, args.out, args.format, args.seed)
        print(f"report written to {args.out}")
    return 0 if report.all_passed(cases) else 1


def _family_rows(g, m1, m2, thetas):
    rows = []
    for theta in thetas:
        fam = isoparam.IsoparametricFamily(g, m1, m2, float(theta))
        lam = isoparam.principal_curvatures(fam)
        inv = isoparam.scalar_curvature(fam)
        rows.append([theta, *lam, inv.mean_curvature, inv.second_moment,
                     inv.scalar_curvature])
    return rows


def _family(args) -> int:
    if args.grid is not None:
        bound = math.pi / (2 * args.g)
        thetas = np.linspace(-0.95 * bound, 0.95 * bound, args.grid)
    else:
        thetas = [args.theta]
    header = ["theta"] + [f"lambda_{i}" for i in range(1, args.g + 1)] + ["H", "S", "R"]
    rows = _family_rows(args.g, args.m1, args.m2, thetas)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{v:.12g}" for v in row])
        print(f"table written to {args.csv}")
    elif args.markdown:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for row in rows:
            print("| " + " | ".join(f"{v:.6g}" for v in row) + " |")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(f"{v:.12g}" for v in row))
    return 0


def _polygon(args) -> int:
    poly = poly_mod.build_parallel_polygon(args.g, args.theta)
    if args.svg:
        report.emit_polygon_svg(poly, args.svg)
        print(f"diagram written to {args.svg}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["vertex"] + [f"theta_{i}" for i in range(1, args.g + 1)])
            for t in range(2 * args.g):
                writer.writerow([f"p{t + 1}"] + [f"{v:.12g}" for v in poly.radius_table[t]])
        print(f"radius table written to {args.csv}")
    link = poly_mod.link_check(poly)
    print(f"{2 * args.g}-gon at theta={args.theta}: link residual {link.max_residual:.3e}, "
          f"parallel={poly_mod.is_parallel(poly)}")
    return 0


def _solve_angles(args) -> int:
    if args.g == 4:
        gaps = poly_mod.solve_g4_normalized()
        oracle = poly_mod.g4_grid_oracle()
        target = math.pi / 4
    else:
        gaps = poly_mod.solve_g6_normalized()
        oracle = poly_mod.g6_grid_oracle()
        target = math.pi / 6
    dev = max(abs(x - target) for x in gaps.odd + gaps.even)
    odev = max(abs(v - target) for v in oracle.polished)
    print(f"g={args.g} normalized gaps: {[f'{x:.12f}' for x in gaps.odd]}")
    print(f"deviation from target {target:.12f}: {dev:.3e}")
    print(f"grid oracle: unique_cell={oracle.unique_cell}, polished deviation {odev:.3e}")
    return 0 if dev <= 1e-10 and odev <= 1e-6 and oracle.unique_cell else 1


def _dji(args) -> int:
    constraints = tuple(c.strip() for c in args.constraints.split(",") if c.strip())
    fam = isoparam.IsoparametricFamily(args.g, args.m1, args.m2, args.theta)
    pcs = isoparam.principal_curvatures(fam)
    pinning = dji.critical_point_pinning(args.g) if args.pinned else frozenset()
    system = dji.build_system(args.g, pcs, args.m1, args.m2, constraints, pinning)
    analysis = dji.kernel_analysis(system)
    certificates = dji.sign_certificates(args.g, pcs) if args.g in (4, 6) else []
    print(f"g={args.g} constraints={'+'.join(constraints) or 'none'} "
          f"pinned={sorted(pinning)}")
    print(f"unknowns={len(system.unknown_labels)} rows={system.rows.shape[0]} "
          f"kernel_dim={analysis.dimension}")
    for warning in analysis.warnings:
        print(f"warning: {warning}")
    for cert in certificates:
        status = "ok" if cert.holds else "VIOLATED"
        print(f"  {cert.name:32s} {cert.expression_value:+.12e} "
              f"claimed {cert.claimed_sign:8s} {status}")
    if args.json:
        payload = {
            "g": args.g, "m1": args.m1, "m2": args.m2, "theta": args.theta,
            "constraints": list(constraints),
            "pinned": sorted(list(p) for p in pinning),
            "unknowns": [list(lab) for lab in system.unknown_labels],
            "rows": system.rows.tolist(),
            "row_labels": list(system.row_labels),
            "kernel_dimension": analysis.dimension,
            "singular_values": analysis.singular_values.tolist(),
            "certificates": [{"name": c.name, "value": c.expression_value,
                              "claimed_sign": c.claimed_sign, "holds": c.holds}
                             for c in certificates],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0


def _search(args) -> int:
    constraints = tuple(c.strip() for c in args.constraints.split(",") if c.strip())
    survivors = poly_mod.constraint_search(args.g, constraints, args.grid, args.seed)
    print(f"{len(survivors)} survivor(s) at residual <= {poly_mod.SEARCH_FILTER_TOL:g}")
    for k, s in enumerate(survivors):
        print(f"  [{k}] theta1={s.theta1:.8f} residual={s.residual:.2e} "
              f"parallel={s.parallel}")
        print(f"      odd gaps: {[f'{x:.6f}' for x in s.gaps.odd]}")
        print(f"      even gaps: {[f'{x:.6f}' for x in s.gaps.even]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liesphere",
                                     description="Lie sphere geometry verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=report.SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="replace each default tolerance and the sign-certificate "
                               "margin; cases with a fixed tolerance keep it")
    p_verify.add_argument("--out", default=None, help="report output path")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=_verify)

    p_family = sub.add_parser("family", help="isoparametric family table")
    p_family.add_argument("--g", type=int, required=True, choices=(1, 2, 3, 4, 6))
    p_family.add_argument("--m1", type=int, default=1)
    p_family.add_argument("--m2", type=int, default=1)
    p_family.add_argument("--theta", type=float, default=0.0)
    p_family.add_argument("--grid", type=int, default=None,
                          help="emit a theta sweep with this many rows")
    p_family.add_argument("--csv", default=None)
    p_family.add_argument("--markdown", action="store_true")
    p_family.set_defaults(func=_family)

    p_poly = sub.add_parser("polygon", help="parallel 2g-gon diagram and radius table")
    p_poly.add_argument("--g", type=int, required=True, choices=(3, 4, 6))
    p_poly.add_argument("--theta", type=float, default=0.0)
    p_poly.add_argument("--svg", default=None)
    p_poly.add_argument("--csv", default=None)
    p_poly.set_defaults(func=_polygon)

    p_solve = sub.add_parser("solve-angles", help="solve the normalized angle systems")
    p_solve.add_argument("--g", type=int, required=True, choices=(4, 6))
    p_solve.set_defaults(func=_solve_angles)

    p_dji = sub.add_parser("dji", help="curvature-derivative system and certificates")
    p_dji.add_argument("--g", type=int, required=True, choices=(3, 4, 6))
    p_dji.add_argument("--constraints", default="cmc",
                       help="comma-separated subset of cmc,csc,clc")
    p_dji.add_argument("--m1", type=int, default=1)
    p_dji.add_argument("--m2", type=int, default=1)
    p_dji.add_argument("--theta", type=float, default=0.0)
    p_dji.add_argument("--pinned", action=argparse.BooleanOptionalAction, default=True,
                       help="apply the critical-point pinning d_j1 = d_12 = 0")
    p_dji.add_argument("--json", default=None, help="serialize the system and certificates")
    p_dji.set_defaults(func=_dji)

    p_search = sub.add_parser("search", help="constraint falsification search")
    p_search.add_argument("--g", type=int, required=True, choices=(3, 4, 6))
    p_search.add_argument("--constraints", required=True,
                          help="comma-separated subset of cmc,csc,clc")
    p_search.add_argument("--grid", type=int, default=25)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.set_defaults(func=_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (report.UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
