"""Command-line driver: verification suites, family tables, polygon diagrams, searches.

Exit codes: 0 when every case passes, 1 when any case fails or errors
(for `solve-angles`, any of the four `angle_solvers` cases of its g; for
`dji`, when any sign certificate does not clear its margin), 2 on usage
errors, an out-of-range number among them, and on a DomainError, such as a
`dji` kernel whose rank the SVD leaves undecided. All configuration is on
the command line.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import json
import math
import sys

import numpy as np

from . import dji, isoparam, polygon as poly_mod, report


def _judge(cases) -> int:
    """Print each case that does not pass and the counts; exit 0 iff every case passes."""
    counts = collections.Counter(case.status for case in cases)
    for case in (case for case in cases if case.status != "pass"):
        print(f"{case.status.upper():5s} {case.case_id} "
              f"residual={case.residual:.3e} tol={case.tolerance:.3e}")
    print(f"{len(cases)} cases: {counts['pass']} pass, "
          f"{counts['fail']} fail, {counts['error']} error")
    return 0 if report.all_passed(cases) else 1


def _verify(args) -> int:
    cases = report.run_suite(args.suite, args.seed)
    code = _judge(cases)
    if args.out:
        report.emit_report(cases, args.out, args.format, args.seed)
        print(f"report written to {args.out}")
    return code


def _family_rows(g, m1, m2, theta):
    """Rows (theta, lambda_1..lambda_g, H, S, R) of the members at theta, a float or an array."""
    fam = isoparam.IsoparametricFamily(g, m1, m2, theta)
    inv = isoparam.scalar_curvature(fam)
    # R's closed form: (n-1)(n-2) + H^2 - S cancels to noise where R = 0
    return np.column_stack([fam.theta, np.atleast_2d(isoparam.principal_curvatures(fam)),
                            inv.mean_curvature, inv.second_moment, inv.closed_form])


def _family(args) -> int:
    theta = args.theta
    if args.grid is not None:
        bound = math.pi / (2 * args.g)
        theta = np.linspace(-0.95 * bound, 0.95 * bound, args.grid)
    header = ["theta"] + [f"lambda_{i}" for i in range(1, args.g + 1)] + ["H", "S", "R"]
    rows = _family_rows(args.g, args.m1, args.m2, theta)
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
    cases = [case for case in report.run_suite("angle_solvers")
             if case.case_id.startswith(f"angle_solvers/g{args.g}_")]
    solved = next(case.params for case in cases if case.case_id.endswith(f"_pi{args.g}"))
    print(f"g={args.g} solved gaps: odd {solved.get('odd')}, even {solved.get('even')}")
    return _judge(cases)


def _dji(args) -> int:
    constraints = tuple(c.strip() for c in args.constraints.split(",") if c.strip())
    fam = isoparam.IsoparametricFamily(args.g, args.m1, args.m2, args.theta)
    pcs = isoparam.principal_curvatures(fam)
    pinning = dji.critical_point_pinning(args.g) if args.pinned else frozenset()
    system = dji.build_system(args.g, pcs, args.m1, args.m2, constraints, pinning)
    analysis = dji.kernel_analysis(system)
    certificates = dji.sign_certificates(args.g, pcs) if args.g in (4, 6) else []
    clears = [c.clears() for c in certificates]  # printed, written to --json and exited by
    print(f"g={args.g} constraints={'+'.join(constraints) or 'none'} "
          f"pinned={sorted(pinning)}")
    print(f"unknowns={len(system.unknown_labels)} rows={system.rows.shape[0]} "
          f"kernel_dim={analysis.dimension} margin={analysis.margin:.2f}")
    for cert, cleared in zip(certificates, clears):
        status = "ok" if cleared else "VIOLATED"
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
            "kernel_margin": analysis.margin,
            "singular_values": analysis.singular_values.tolist(),
            "certificates": [{"name": c.name, "value": c.expression_value,
                              "claimed_sign": c.claimed_sign, "clears": cleared}
                             for c, cleared in zip(certificates, clears)],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0 if all(clears) else 1


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


def _bounded(convert, accepts, requirement: str):
    """An argparse type that reads a value with convert and rejects it unless accepts(value).

    argparse reports either rejection as an error that names the option, with exit status 2.
    """
    def parse(text):
        value = convert(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liesphere",
                                     description="Lie sphere geometry verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _bounded(int, lambda v: v >= 0, ">= 0")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=report.SUITE_NAMES)
    p_verify.add_argument("--seed", type=seed, default=0)
    p_verify.add_argument("--out", default=None, help="report output path")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=_verify)

    p_family = sub.add_parser("family", help="isoparametric family table")
    p_family.add_argument("--g", type=int, required=True, choices=(1, 2, 3, 4, 6))
    p_family.add_argument("--m1", type=int, default=1)
    p_family.add_argument("--m2", type=int, default=1)
    p_family.add_argument("--theta", type=float, default=0.0)
    p_family.add_argument("--grid", type=_bounded(int, lambda v: v >= 1, ">= 1"), default=None,
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
    p_search.add_argument("--seed", type=seed, default=0)
    p_search.set_defaults(func=_search)
    return parser


_parser = functools.cache(build_parser)  # one per process, built at the first main() call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (report.UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
