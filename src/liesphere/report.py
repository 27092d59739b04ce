"""Named verification suites over the toolkit, with JSON/CSV reports and SVG diagrams.

Each suite is a generator over deterministic checks (seed-controlled where
randomness is involved) that yields one (case_id, params, residual,
tolerance) tuple per check, or an exception in place of the residual when
a check could not be evaluated. run_suite is the one place that turns
these into VerificationCase records: a case passes iff its residual is
within its tolerance, an exception becomes an `error` record, and an
exception that escapes a suite becomes one `<suite>/aborted` error record
before the run goes on with the next suite. runtime_ms is the time since
the previous record of the same suite, so it includes any setup that the
case shares with later ones. Reports are emitted as JSON
({"run": {...}, "cases": [...]}) or CSV with the fixed header
suite,case_id,status,residual,tolerance,runtime_ms,seed; ordering is by
case_id so output is independent of scheduling.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import dji, isoparam, polygon as poly_mod
from .indefinite import Signature, compose, invert, is_lie_transform, random_lie_transform
from .quadric import (PAPER6_12_34, STANDARD_13_24, ProjectiveCurvature, cross_ratio,
                      legendre_lift, lie_curvature, lie_curvature_of_values,
                      moebius_coefficients, moebius_curvature)

__version__ = "0.1.0"

SUITE_NAMES = ("lie_invariance", "cross_ratio_identity", "isoparametric_formulas",
               "angle_solvers", "dji_kernels", "sign_certificates",
               "isometry_reduction", "constraint_search", "all")


class UsageError(ValueError):
    """Unknown suite or malformed report request."""


@dataclass(frozen=True)
class VerificationCase:
    suite: str
    case_id: str
    params: dict = field(compare=False)
    status: str
    residual: float
    tolerance: float
    runtime_ms: int
    seed: int

    def __post_init__(self):
        if self.status not in ("pass", "fail", "error"):
            raise ValueError(f"bad status {self.status!r}")


def _case(suite, case_id, params, residual, tolerance, seed, t0) -> VerificationCase:
    """Score one case; an exception in place of the residual makes an `error` record.

    The error record names the exception and the innermost frame it was raised in.
    """
    params = {k: str(v) for k, v in params.items()}
    if isinstance(residual, Exception):
        params["error"] = f"{type(residual).__name__}: {residual}"
        frames = traceback.extract_tb(residual.__traceback__)
        if frames:
            last = frames[-1]
            params["where"] = f"{os.path.basename(last.filename)}:{last.lineno} in {last.name}"
        status, residual, tolerance = "error", math.inf, 0.0
    else:
        status = "pass" if residual <= tolerance else "fail"
    return VerificationCase(suite, case_id, params, status, float(residual), float(tolerance),
                            int((time.perf_counter() - t0) * 1000), seed)


# ---------------------------------------------------------------------------
# suites: generators of (case_id, params, residual or exception, tolerance)
# ---------------------------------------------------------------------------

def _suite_lie_invariance(seed: int, tol: float | None):
    """Random O(n+1,2) actions leave Lie curvatures fixed; parallel law cot -> cot(xi+theta)."""
    tolerance = tol if tol is not None else 1e-8
    sig = Signature(4, 2)
    p = np.array([1.0, 0, 0, 0])
    n = np.array([0.0, 1, 0, 0])
    ce = legendre_lift(p, n)
    base = isoparam.principal_curvatures(isoparam.IsoparametricFamily(4, 1, 1, 0.09))
    phi0 = lie_curvature_of_values(base, STANDARD_13_24).value
    phi0_p6 = lie_curvature_of_values(base, PAPER6_12_34).value
    for k in range(1000):
        try:
            transform = random_lie_transform(sig, seed * 100003 + k, 0.5)
            a, b, c, d = moebius_coefficients(transform, ce)
            moved = [moebius_curvature(a, b, c, d, ProjectiveCurvature.from_value(v))
                     for v in base]
            r1 = abs(lie_curvature(*moved, ordering=STANDARD_13_24).value - phi0)
            r2 = abs(lie_curvature(*moved, ordering=PAPER6_12_34).value - phi0_p6)
            residual = max(r1, r2)
        except Exception as exc:  # noqa: BLE001 - one bad action is one error record
            residual = exc
        yield f"lie_invariance/random_action[{k:04d}]", {"seed_offset": k}, residual, tolerance
    # parallel transformation law over a 100 x 100 (xi, theta) grid
    law_tol = tol if tol is not None else 1e-10
    xis = np.linspace(0.05, math.pi - 0.05, 100)
    thetas = np.linspace(-1.5, 1.5, 100)
    for row, theta in enumerate(thetas):
        a, b, c, d = math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta)
        worst = 0.0
        for xi in xis:
            lam = moebius_curvature(a, b, c, d, ProjectiveCurvature.from_angle(xi))
            target = (xi + theta) % math.pi
            if min(target, math.pi - target) < 1e-6:
                continue  # pole of cot: the point is skipped
            worst = max(worst, abs(lam.value - 1.0 / math.tan(xi + theta)))
        yield f"lie_invariance/parallel_law[{row:03d}]", {"theta": f"{theta:.6f}"}, worst, law_tol
    # group sanity: membership and closure over 100 seeds
    worst = 0.0
    for k in range(100):
        l1 = random_lie_transform(sig, seed + k, 0.6)
        l2 = random_lie_transform(sig, seed + 7919 + k, 0.6)
        worst = max(worst, is_lie_transform(compose(l1, l2).matrix, sig, 1e-8)[1],
                    is_lie_transform(compose(l1, invert(l1)).matrix, sig, 1e-8)[1])
    yield "lie_invariance/group_closure", {"count": 100}, worst, 1e-8


def _suite_cross_ratio_identity(seed: int, tol: float | None):
    """Cross ratio of e^(2i theta_k) equals the Lie curvature of cot(theta_k)."""
    tolerance = tol if tol is not None else 1e-10
    rng = np.random.default_rng(seed)
    for batch in range(200):
        worst = 0.0
        for _ in range(50):
            thetas = np.sort(rng.uniform(0.02, math.pi - 0.02, 4))
            if np.diff(thetas).min() < 1e-3:
                continue
            phi = lie_curvature(*(ProjectiveCurvature.from_angle(t) for t in thetas),
                                ordering=STANDARD_13_24).value
            zcr = cross_ratio(*(cmath.exp(2j * t) for t in thetas))
            worst = max(worst, abs(zcr - phi))
        yield f"cross_ratio_identity/radii_sweep[{batch:03d}]", {"samples": 50}, worst, tolerance
    # concircular points have real cross ratio
    worst = 0.0
    for _ in range(500):
        angles = np.sort(rng.uniform(0, 2 * math.pi, 4))
        if np.diff(angles).min() < 1e-3:
            continue
        worst = max(worst, abs(cross_ratio(*(cmath.exp(1j * a) for a in angles)).imag))
    yield "cross_ratio_identity/concircular_real", {"samples": 500}, worst, 1e-10


_FAMILY_COMBOS = ((1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 2),
                  (3, 1, 1), (3, 2, 2), (3, 4, 4), (3, 8, 8),
                  (4, 1, 1), (4, 2, 2), (4, 1, 4), (4, 4, 5),
                  (6, 1, 1), (6, 2, 2))


def _suite_isoparametric_formulas(seed: int, tol: float | None):
    for g, m1, m2 in _FAMILY_COMBOS:
        family = {"g": g, "m1": m1, "m2": m2}
        bound = math.pi / (2 * g)
        grid = np.linspace(-0.9 * bound, 0.9 * bound, 45)
        h_values = []
        for idx, theta in enumerate(grid):
            fam = isoparam.IsoparametricFamily(g, m1, m2, float(theta))
            lam = isoparam.principal_curvatures(fam)
            mult = fam.multiplicities
            tag = f"g{g}_m{m1}_{m2}[{idx:02d}]"
            h = isoparam.mean_curvature(fam)
            h_values.append(h)
            gap = abs(h - float(mult @ lam))
            if g in (3, 6):
                gap = max(gap, abs(h - g * m1 / math.tan(g * fam.theta1)))
            yield (f"isoparametric_formulas/mean_{tag}", {**family, "theta": f"{theta:.6f}"},
                   gap / max(1.0, abs(h)), tol if tol is not None else 1e-9)
            ordering_ok = bool(np.all(np.diff(lam) < 0)
                               and lam[0] > 1.0 / math.tan(math.pi / g) - 1e-12)
            yield (f"isoparametric_formulas/ordering_{tag}", family,
                   0.0 if ordering_ok else 1.0, 0.5)
            back = isoparam.theta_from_mean_curvature(g, m1, m2, h)
            yield (f"isoparametric_formulas/roundtrip_{tag}", family,
                   abs(back - theta), tol if tol is not None else 1e-10)
            if g in (3, 4, 6):
                inv = isoparam.scalar_curvature(fam)
                r = inv.scalar_curvature
                yield (f"isoparametric_formulas/scalar_{tag}", family,
                       abs(inv.closed_form - r) / max(1.0, abs(r)),
                       tol if tol is not None else 1e-8)
        monotone = bool(np.all(np.diff(h_values) < 0))
        yield (f"isoparametric_formulas/monotone_g{g}_m{m1}_{m2}", family,
               0.0 if monotone else 1.0, 0.5)


def _oracle_cases(g: int, oracle, params: dict):
    """Polished agreement with pi/g, and a unique minimizing cell next to it."""
    target = math.pi / g
    yield (f"angle_solvers/g{g}_oracle_agreement", params,
           max(abs(v - target) for v in oracle.polished), 1e-6)
    near = max(abs(v - target) for v in oracle.grid_minimum) <= oracle.cell_size
    yield (f"angle_solvers/g{g}_oracle_unique_cell", {},
           0.0 if oracle.unique_cell and near else 1.0, 0.5)


def _suite_angle_solvers(seed: int, tol: float | None):
    tolerance = tol if tol is not None else 1e-10
    g4 = poly_mod.solve_g4_normalized()
    yield ("angle_solvers/g4_solution_pi4", {},
           max(abs(x - math.pi / 4) for x in g4.odd + g4.even), tolerance)
    yield "angle_solvers/g4_residual_at_solution", {}, abs(poly_mod.g4_residual(g4)), 1e-12
    oracle4 = poly_mod.g4_grid_oracle(721)
    yield from _oracle_cases(4, oracle4, {"grid": 721, "cell": f"{oracle4.cell_size:.2e}"})
    g6 = poly_mod.solve_g6_normalized()
    yield ("angle_solvers/g6_solution_pi6", {},
           max(abs(x - math.pi / 6) for x in g6.odd + g6.even), tolerance)
    # the closed forms must agree with the direct cross ratios and equal -1
    psi, route_gap = poly_mod.psi_values(g6)
    yield ("angle_solvers/g6_psi_triple", {},
           max(route_gap, *(abs(v + 1.0) for v in psi)), 1e-9)
    yield from _oracle_cases(6, poly_mod.g6_grid_oracle(721), {"grid": 721})


_KERNEL_SYSTEMS = (
    (4, ("cmc", "csc"), 1, 1), (4, ("cmc", "csc"), 2, 2), (4, ("cmc", "csc"), 4, 5),
    (4, ("cmc", "clc"), 1, 1), (4, ("cmc", "clc"), 2, 2),
    (6, ("cmc", "clc"), 1, 1), (6, ("cmc", "clc"), 2, 2),
)


def _suite_dji_kernels(seed: int, tol: float | None):
    for g, constraints, m1, m2 in _KERNEL_SYSTEMS:
        pcs = isoparam.principal_curvatures(isoparam.IsoparametricFamily(g, m1, m2, 0.0))
        system = dji.build_system(g, pcs, m1, m2, constraints,
                                  dji.critical_point_pinning(g))
        analysis = dji.kernel_analysis(system)
        name = f"dji_kernels/kernel_g{g}_{'_'.join(constraints)}_m{m1}{m2}"
        yield (name, {"unknowns": len(system.unknown_labels), "rows": system.rows.shape[0]},
               float(analysis.dimension), 0.5)
        perturbed = dji.build_system(g, pcs + 1e-8 * np.arange(1, g + 1), m1, m2,
                                     constraints, dji.critical_point_pinning(g))
        stable = dji.kernel_analysis(perturbed).dimension == analysis.dimension
        yield name + "_stability", {}, 0.0 if stable else 1.0, 0.5
    pcs6 = isoparam.principal_curvatures(isoparam.IsoparametricFamily(6, 1, 1, 0.0))
    free = dji.build_system(6, pcs6, 1, 1, (), frozenset())
    yield ("dji_kernels/no_constraints_full_kernel", {"unknowns": len(free.unknown_labels)},
           abs(dji.kernel_analysis(free).dimension - len(free.unknown_labels)), 0.5)
    counted = dji.build_system(6, pcs6, 1, 1, ("cmc",), dji.critical_point_pinning(6))
    yield ("dji_kernels/g6_unknown_count_18",
           {"unknowns": len(counted.unknown_labels), "cmc_rows": counted.rows.shape[0]},
           abs((len(counted.unknown_labels) - counted.rows.shape[0]) - 18), 0.5)
    pcs4 = isoparam.principal_curvatures(isoparam.IsoparametricFamily(4, 1, 1, 0.0))
    cmc_only = dji.build_system(4, pcs4, 1, 1, ("cmc",), dji.critical_point_pinning(4))
    dim = dji.kernel_analysis(cmc_only).dimension
    # the mean-curvature rows alone leave derivatives free: the csc/clc rows are needed
    yield ("dji_kernels/g4_cmc_only_kernel_positive", {"kernel_dim": dim},
           0.0 if dim > 0 else 1.0, 0.5)
    cmc_rank = int(np.linalg.matrix_rank(counted.rows, tol=1e-9))
    yield "dji_kernels/g6_cmc_rows_independent", {"rank": cmc_rank}, abs(cmc_rank - 6), 0.5


def _suite_sign_certificates(seed: int, tol: float | None):
    margin = tol if tol is not None else dji.CERTIFICATE_MARGIN
    root3 = math.sqrt(3.0)
    for g in (4, 6):
        pcs = isoparam.principal_curvatures(isoparam.IsoparametricFamily(g, 1, 1, 0.0))
        for cert in dji.sign_certificates(g, pcs):
            violation = 0.0 if cert.holds and cert.margin > margin else 1.0
            yield (f"sign_certificates/{cert.name}",
                   {"value": f"{cert.expression_value:.12g}", "claimed": cert.claimed_sign},
                   violation, 0.5)
    pcs6 = isoparam.principal_curvatures(isoparam.IsoparametricFamily(6, 1, 1, 0.0))
    one_minus = next(c for c in dji.sign_certificates(6, pcs6)
                     if c.name == "g6_one_minus_v_over_w")
    yield ("sign_certificates/value_9_minus_2root3", {},
           abs(one_minus.expression_value - (9 - 2 * root3)), 1e-10)
    yield ("sign_certificates/value_d5_obstruction", {},
           abs(dji.g6_d5_obstruction(pcs6) - (-12 - 24 * root3)), 1e-10)
    samples = np.sort(np.random.default_rng(seed).uniform(-8, 8, (10000, 6)))[:, ::-1]
    kept = samples[np.abs(np.diff(samples)).min(axis=1) >= 1e-3]
    worst = float(dji.g6_d5_obstruction(kept).max())
    yield ("sign_certificates/d5_obstruction_always_negative",
           {"samples": 10000, "kept": len(kept), "worst": worst},
           0.0 if worst < 0 else 1.0, 0.5)


def _suite_isometry_reduction(seed: int, tol: float | None):
    tolerance = tol if tol is not None else 1e-10
    combos = ((4, 1, 1), (4, 2, 2), (4, 4, 5), (6, 1, 1), (6, 2, 2))
    for g, m1, m2 in combos:
        bound = math.pi / (2 * g)
        for idx, theta in enumerate(np.linspace(-0.85 * bound, 0.85 * bound, 21)):
            params = {"theta": f"{theta:.6f}"}
            try:
                poly = poly_mod.build_parallel_polygon(g, float(theta))
                mapped, normalized = poly_mod.conformal_normalize(poly)
                result = poly_mod.isometry_reduction(g, normalized, m1, m2)
                params.update(map_x=f"{mapped.x:.2e}", map_y=f"{mapped.y:.2e}")
                # the one check of the reduction's sign certificates
                strict = all(c.holds and c.margin > dji.CERTIFICATE_MARGIN
                             for c in result.certificates)
                residual = max(abs(result.x), abs(result.y)) if strict else math.inf
            except Exception as exc:  # noqa: BLE001 - one bad theta is one error record
                residual = exc
            yield f"isometry_reduction/g{g}_m{m1}{m2}[{idx:02d}]", params, residual, tolerance


_SEARCH_SPECS = (
    ("g3_cmc", 3, ("cmc",), 40, "all_parallel"),
    ("g4_cmc_csc", 4, ("cmc", "csc"), 25, "all_parallel"),
    ("g4_cmc_clc", 4, ("cmc", "clc"), 25, "all_parallel"),
    ("g6_cmc_clc", 6, ("cmc", "clc"), 25, "all_parallel"),
    ("g4_cmc_only", 4, ("cmc",), 25, "nonparallel_exists"),
)


def _suite_constraint_search(seed: int, tol: float | None):
    for name, g, constraints, resolution, expectation in _SEARCH_SPECS:
        survivors = poly_mod.constraint_search(g, constraints, resolution, seed)
        nonparallel = sum(1 for s in survivors if not s.parallel)
        params = {"g": g, "constraints": "+".join(constraints),
                  "resolution": resolution, "survivors": len(survivors),
                  "nonparallel": nonparallel}
        if expectation == "all_parallel":
            # an empty search proves nothing, so it cannot pass
            residual = float(nonparallel) if survivors else 1.0
        else:
            residual = 0.0 if nonparallel >= 1 else 1.0
        yield f"constraint_search/{name}_{expectation}", params, residual, 0.5


_SUITES = {
    "lie_invariance": _suite_lie_invariance,
    "cross_ratio_identity": _suite_cross_ratio_identity,
    "isoparametric_formulas": _suite_isoparametric_formulas,
    "angle_solvers": _suite_angle_solvers,
    "dji_kernels": _suite_dji_kernels,
    "sign_certificates": _suite_sign_certificates,
    "isometry_reduction": _suite_isometry_reduction,
    "constraint_search": _suite_constraint_search,
}


def run_suite(name: str, seed: int = 0, tol: float | None = None):
    """Run a named suite (or 'all'); returns cases sorted by case_id.

    A given tol replaces every default tolerance and the sign-certificate
    margin; fixed tolerances stay. Each case is timed from the previous
    record of its suite. An exception that escapes a suite ends that suite
    with one `<suite>/aborted` error record; the cases it yielded before
    are kept and the run goes on.
    """
    if name == "all":
        names = [n for n in SUITE_NAMES if n != "all"]
    elif name in _SUITES:
        names = [name]
    else:
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    cases = []
    for suite in names:
        t0 = time.perf_counter()
        try:
            for case_id, params, residual, tolerance in _SUITES[suite](seed, tol):
                cases.append(_case(suite, case_id, params, residual, tolerance, seed, t0))
                t0 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - one bad suite must not abort the run
            cases.append(_case(suite, f"{suite}/aborted", {}, exc, 0.0, seed, t0))
    return sorted(cases, key=lambda case: case.case_id)


def all_passed(cases) -> bool:
    return all(case.status == "pass" for case in cases)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(cases, path: str, fmt: str = "json", seed: int = 0) -> None:
    if fmt == "json":
        payload = {"run": {"seed": seed, "version": __version__},
                   "cases": [{"suite": c.suite, "case_id": c.case_id, "params": c.params,
                              "status": c.status, "residual": c.residual,
                              "tolerance": c.tolerance, "runtime_ms": c.runtime_ms,
                              "seed": c.seed} for c in cases]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["suite", "case_id", "status", "residual",
                             "tolerance", "runtime_ms", "seed"])
            for c in cases:
                writer.writerow([c.suite, c.case_id, c.status, repr(c.residual),
                                 repr(c.tolerance), c.runtime_ms, c.seed])
    else:
        raise UsageError(f"unknown report format {fmt!r}")


def parse_csv_report(path: str):
    """Read back a CSV report as VerificationCase records (params are not stored in CSV)."""
    out = []
    with open(path, encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            out.append(VerificationCase(row["suite"], row["case_id"], {}, row["status"],
                                        float(row["residual"]), float(row["tolerance"]),
                                        int(row["runtime_ms"]), int(row["seed"])))
    return out


_CHORD_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#b7950b", "#7d3c98", "#566573")


def emit_polygon_svg(poly, path: str) -> None:
    """Unit circle, labeled vertices, and one chord per leaf pairing; deterministic output."""
    size = 600
    scale = size / 2.8
    cx = cy = size / 2

    def svg_xy(angle):
        return cx + scale * math.cos(angle), cy - scale * math.sin(angle)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
             f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="{scale:.4f}" '
             f'fill="none" stroke="#333333" stroke-width="1.5"/>']
    g = poly.g
    for i in range(1, g + 1):
        color = _CHORD_COLORS[(i - 1) % len(_CHORD_COLORS)]
        for t in range(1, 2 * g + 1):
            s = poly_mod.link_partner(g, t, i)
            if s < t:
                continue
            x1, y1 = svg_xy(poly.vertex_angles[t - 1])
            x2, y2 = svg_xy(poly.vertex_angles[s - 1])
            lines.append(f'<line class="leaf-{i}" x1="{x1:.4f}" y1="{y1:.4f}" '
                         f'x2="{x2:.4f}" y2="{y2:.4f}" stroke="{color}" '
                         f'stroke-width="1.0"/>')
    for t in range(1, 2 * g + 1):
        x, y = svg_xy(poly.vertex_angles[t - 1])
        lines.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="4.0" fill="#000000"/>')
        lx, ly = (cx + (x - cx) * 1.09, cy + (y - cy) * 1.09)
        lines.append(f'<text x="{lx:.4f}" y="{ly:.4f}" font-size="14" '
                     f'text-anchor="middle">p{t}</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
