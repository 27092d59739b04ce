"""Named verification suites over the toolkit, with JSON/CSV reports and SVG diagrams.

Each suite is a generator over deterministic checks (seed-controlled where
randomness is involved) that yields one (case_id, params, residual,
tolerance) tuple per check, or an exception in place of the residual when
a check could not be evaluated; a stacked call that scores many cases and
raises gives each of them its exception, which names the first bad stack
index. run_suite is the one place that turns
these into VerificationCase records: a case passes iff its residual is
within its tolerance, an exception becomes an `error` record, and an
exception that escapes a suite becomes one `<suite>/aborted` error record
before the run goes on with the next suite. runtime_ms is the time in
float milliseconds since the previous record of the same suite, so it
includes any setup that the case shares with later ones. Reports are JSON
({"run": {...}, "cases": [...]}, one case per line) or CSV with the fixed header
suite,case_id,status,residual,tolerance,runtime_ms,seed; ordering is by
case_id so output is independent of scheduling.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import dji, isoparam, polygon as poly_mod
from .indefinite import Signature, compose, invert, is_lie_transform, random_lie_transform
from .quadric import (ORDERINGS, STANDARD_13_24, ProjectiveCurvature, cross_ratio,
                      legendre_lift, lie_curvature, lie_curvature_of_values,
                      moebius_coefficients, moebius_curvature, parallel_transform)

__version__ = "0.1.0"

SUITE_NAMES = ("lie_invariance", "cross_ratio_identity", "isoparametric_formulas",
               "angle_solvers", "dji_kernels", "sign_certificates",
               "isometry_reduction", "constraint_search", "all")


class UsageError(ValueError):
    """Unknown suite or malformed report request."""


@dataclass
class VerificationCase:
    suite: str
    case_id: str
    params: dict = field(compare=False)
    status: str
    residual: float
    tolerance: float
    runtime_ms: float
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
        # the mask check that raised is not where the error arose: name its caller
        frames = [frame for frame in traceback.extract_tb(residual.__traceback__)
                  if frame.name != "raise_where"]
        if frames:
            last = frames[-1]
            params["where"] = f"{os.path.basename(last.filename)}:{last.lineno} in {last.name}"
        status, residual, tolerance = "error", math.inf, 0.0
    else:
        status = "pass" if residual <= tolerance else "fail"
    return VerificationCase(suite, case_id, params, status, float(residual), float(tolerance),
                            (time.perf_counter_ns() - t0) / 1e6, seed)


# ---------------------------------------------------------------------------
# suites: generators of (case_id, params, residual or exception, tolerance)
# ---------------------------------------------------------------------------

def _per_case(count: int, compute):
    """compute()'s residuals for a stack of `count` cases, or its exception once per case."""
    try:
        return compute()
    except Exception as exc:  # noqa: BLE001 - a bad stack is one error record per case
        return [exc] * count


def _suite_lie_invariance(seed: int, tol: float | None):
    """Random O(n+1,2) actions leave Lie curvatures fixed; parallel law cot -> cot(xi+theta)."""
    tolerance = tol if tol is not None else 1e-8
    sig = Signature(4, 2)
    ce = legendre_lift(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
    base = isoparam.principal_curvatures(isoparam.IsoparametricFamily(4, 1, 1, 0.09))

    def invariance_gaps():
        transforms = random_lie_transform(sig, seed * 100003, 0.5, 1000)
        a, b, c, d = moebius_coefficients(transforms, ce)
        moved = [moebius_curvature(a, b, c, d, ProjectiveCurvature.from_value(v)) for v in base]
        return np.max([abs(lie_curvature(*moved, ordering=o).value
                           - lie_curvature_of_values(base, o).value) for o in ORDERINGS], axis=0)

    for k, residual in enumerate(_per_case(1000, invariance_gaps)):
        yield f"lie_invariance/random_action[{k:04d}]", {"draw": k}, residual, tolerance
    # parallel transformation law over a 100 x 100 (theta, xi) grid
    law_tol = tol if tol is not None else 1e-10
    xis = np.linspace(0.05, math.pi - 0.05, 100)
    thetas = np.linspace(-1.5, 1.5, 100)
    shifted = thetas[:, None] + xis
    target = shifted % math.pi
    pole = np.minimum(target, math.pi - target) < 1e-6  # poles of cot are skipped

    def law_gaps():
        a, b, c, d = moebius_coefficients(parallel_transform(thetas[:, None], sig), ce)
        lam = moebius_curvature(a, b, c, d, ProjectiveCurvature.from_angle(xis))
        gaps = np.abs(lam.value - 1.0 / np.tan(shifted))
        return np.where(pole, 0.0, gaps).max(axis=1)

    for row, residual in enumerate(_per_case(100, law_gaps)):
        yield (f"lie_invariance/parallel_law[{row:03d}]",
               {"theta": f"{thetas[row]:.6f}", "skipped": int(pole[row].sum())}, residual, law_tol)

    # group sanity: membership and closure over 100 pairs, drawn as two stacks
    def closure_gap():
        l1 = random_lie_transform(sig, seed, 0.6, 100)
        l2 = random_lie_transform(sig, seed + 7919, 0.6, 100)
        return [max(is_lie_transform(compose(l1, l2).matrix, sig, 1e-8)[1].max(),
                    is_lie_transform(compose(l1, invert(l1)).matrix, sig, 1e-8)[1].max())]

    (residual,) = _per_case(1, closure_gap)
    yield "lie_invariance/group_closure", {"count": 100}, residual, 1e-8


def _suite_cross_ratio_identity(seed: int, tol: float | None):
    """Cross ratio of e^(2i theta_k) equals the Lie curvature of cot(theta_k).

    Each sweep draws one array (the stream of one draw per sample). A draw
    with angles closer than 1e-3 is skipped: a fixed quadruple stands in for
    it and is masked out, so an error names the (batch, sample) index.
    """
    tolerance = tol if tol is not None else 1e-10
    rng = np.random.default_rng(seed)
    thetas = np.sort(rng.uniform(0.02, math.pi - 0.02, (200, 50, 4)))
    keep = np.diff(thetas).min(axis=-1) >= 1e-3
    columns = np.moveaxis(np.where(keep[..., None], thetas, [0.25, 0.75, 1.5, 2.25]), -1, 0)

    def sweep_gaps():
        phi = lie_curvature(*map(ProjectiveCurvature.from_angle, columns),
                            ordering=STANDARD_13_24).value
        return np.where(keep, abs(cross_ratio(*np.exp(2j * columns)) - phi), 0.0).max(axis=1)

    for batch, residual in enumerate(_per_case(200, sweep_gaps)):
        yield (f"cross_ratio_identity/radii_sweep[{batch:03d}]",
               {"samples": 50, "kept": int(keep[batch].sum())}, residual, tolerance)
    # concircular points have real cross ratio
    angles = np.sort(rng.uniform(0, 2 * math.pi, (500, 4)))
    kept = np.diff(angles).min(axis=-1) >= 1e-3
    points = np.moveaxis(np.where(kept[..., None], angles, [0.5, 1.5, 3.0, 4.5]), -1, 0)

    def imaginary_part():
        return [np.where(kept, abs(cross_ratio(*np.exp(1j * points)).imag), 0.0).max()]

    (residual,) = _per_case(1, imaginary_part)
    yield ("cross_ratio_identity/concircular_real", {"samples": 500, "kept": int(kept.sum())},
           residual, 1e-10)


_FAMILY_COMBOS = ((1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 2),
                  (3, 1, 1), (3, 2, 2), (3, 4, 4), (3, 8, 8),
                  (4, 1, 1), (4, 2, 2), (4, 1, 4), (4, 4, 5),
                  (6, 1, 1), (6, 2, 2))


def _suite_isoparametric_formulas(seed: int, tol: float | None):
    """Each family's 45 members are one array pass through the isoparam functions.

    Per member: the mean-curvature closed forms against sum m_i lambda_i,
    the curvature ordering, the theta -> H -> theta roundtrip and, for
    g = 3, 4, 6, the scalar closed form; per family: H strictly decreasing.
    A stacked call that raises gives each case of its family its exception.
    """
    mean_tol = tol if tol is not None else 1e-9
    roundtrip_tol = tol if tol is not None else 1e-10
    scalar_tol = tol if tol is not None else 1e-8
    for g, m1, m2 in _FAMILY_COMBOS:
        family = {"g": g, "m1": m1, "m2": m2}
        bound = math.pi / (2 * g)
        grid = np.linspace(-0.9 * bound, 0.9 * bound, 45)
        cases = []
        for idx, theta in enumerate(grid):
            tag = f"g{g}_m{m1}_{m2}[{idx:02d}]"
            cases += [(f"isoparametric_formulas/mean_{tag}", {**family, "theta": f"{theta:.6f}"},
                       mean_tol),
                      (f"isoparametric_formulas/ordering_{tag}", family, 0.5),
                      (f"isoparametric_formulas/roundtrip_{tag}", family, roundtrip_tol)]
            if g in (3, 4, 6):
                cases.append((f"isoparametric_formulas/scalar_{tag}", family, scalar_tol))
        cases.append((f"isoparametric_formulas/monotone_g{g}_m{m1}_{m2}", family, 0.5))

        def family_residuals():
            fam = isoparam.IsoparametricFamily(g, m1, m2, grid)
            lam = isoparam.principal_curvatures(fam)
            h = isoparam.mean_curvature(fam)
            terms = np.moveaxis(lam * fam.multiplicities, -1, 0)
            gap = abs(h - isoparam.multiplicity_sum(terms))
            if g in (3, 6):
                gap = np.maximum(gap, abs(h - g * m1 / np.tan(g * fam.theta1)))
            floor = 1.0 / math.tan(math.pi / g) - 1e-12
            ordered = (np.diff(lam) < 0).all(axis=1) & (lam[:, 0] > floor)
            columns = [gap / np.maximum(1.0, abs(h)), np.where(ordered, 0.0, 1.0),
                       abs(isoparam.theta_from_mean_curvature(g, m1, m2, h) - grid)]
            if g in (3, 4, 6):
                inv = isoparam.scalar_curvature(fam)
                r = inv.scalar_curvature
                columns.append(abs(inv.closed_form - r) / np.maximum(1.0, abs(r)))
            monotone = bool(np.all(np.diff(h) < 0))
            return [*np.stack(columns, axis=1).ravel(), 0.0 if monotone else 1.0]

        for (case_id, params, tolerance), residual in zip(
                cases, _per_case(len(cases), family_residuals)):
            yield case_id, params, residual, tolerance


def _suite_angle_solvers(seed: int, tol: float | None):
    """Four blocks of two cases: the g4 solve, the g4 oracle, the g6 solve with psi, the g6 oracle.

    A block that raises gives both of its cases its exception; the other blocks still run.
    """
    tolerance = tol if tol is not None else 1e-10

    def g4_solve():
        g4 = poly_mod.solve_g4_normalized()
        return [max(abs(x - math.pi / 4) for x in g4.odd + g4.even), abs(poly_mod.g4_residual(g4))]

    def g6_solve():  # the psi closed forms must agree with the direct cross ratios and equal -1
        g6 = poly_mod.solve_g6_normalized()
        psi, route_gap = poly_mod.psi_values(g6)
        return [max(abs(x - math.pi / 6) for x in g6.odd + g6.even),
                max(route_gap, *(abs(v + 1.0) for v in psi))]

    def oracle(g):  # polished agreement with pi/g, and a unique minimizing cell next to it
        result = (poly_mod.g4_grid_oracle if g == 4 else poly_mod.g6_grid_oracle)(721)
        near = max(abs(v - math.pi / g) for v in result.grid_minimum) <= result.cell_size
        return [max(abs(v - math.pi / g) for v in result.polished),
                0.0 if result.unique_cell and near else 1.0]

    g4_cell = {"grid": 721, "cell": f"{math.pi / 2 / 721:.2e}"}  # the oracle's cell_size
    for compute, cases in (
            (g4_solve, (("g4_solution_pi4", {}, tolerance), ("g4_residual_at_solution", {}, 1e-12))),
            (lambda: oracle(4), (("g4_oracle_agreement", g4_cell, 1e-6),
                                 ("g4_oracle_unique_cell", {}, 0.5))),
            (g6_solve, (("g6_solution_pi6", {}, tolerance), ("g6_psi_triple", {}, 1e-9))),
            (lambda: oracle(6), (("g6_oracle_agreement", {"grid": 721}, 1e-6),
                                 ("g6_oracle_unique_cell", {}, 0.5)))):
        for (name, params, case_tol), residual in zip(cases, _per_case(2, compute)):
            yield f"angle_solvers/{name}", params, residual, case_tol


_KERNEL_SYSTEMS = (
    (4, ("cmc", "csc"), 1, 1), (4, ("cmc", "csc"), 2, 2), (4, ("cmc", "csc"), 4, 5),
    (4, ("cmc", "clc"), 1, 1), (4, ("cmc", "clc"), 2, 2),
    (6, ("cmc", "clc"), 1, 1), (6, ("cmc", "clc"), 2, 2),
)


def _family_pcs(g: int) -> np.ndarray:
    """The principal curvatures of the member theta = 0 of the g family at m = (1, 1)."""
    return isoparam.principal_curvatures(isoparam.IsoparametricFamily(g, 1, 1, 0.0))


def _suite_dji_kernels(seed: int, tol: float | None):
    for g, constraints, m1, m2 in _KERNEL_SYSTEMS:
        name = f"dji_kernels/kernel_g{g}_{'_'.join(constraints)}_m{m1}{m2}"
        try:
            pcs = isoparam.principal_curvatures(isoparam.IsoparametricFamily(g, m1, m2, 0.0))
            system = dji.build_system(g, pcs, m1, m2, constraints,
                                      dji.critical_point_pinning(g))
            analysis = dji.kernel_analysis(system)
            perturbed = dji.build_system(g, pcs + 1e-8 * np.arange(1, g + 1), m1, m2,
                                         constraints, dji.critical_point_pinning(g))
            stable = dji.kernel_analysis(perturbed).dimension == analysis.dimension
        except Exception as exc:  # noqa: BLE001 - one bad system is an error for its two cases
            yield name, {}, exc, 0.5
            yield name + "_stability", {}, exc, 0.5
            continue
        yield (name, {"unknowns": len(system.unknown_labels), "rows": system.rows.shape[0]},
               float(analysis.dimension), 0.5)
        yield name + "_stability", {}, 0.0 if stable else 1.0, 0.5

    # the cases below share these systems, so each is made once
    @functools.cache
    def cmc_system(g):
        return dji.build_system(g, _family_pcs(g), 1, 1, ("cmc",), dji.critical_point_pinning(g))

    def full_kernel():
        free = dji.build_system(6, _family_pcs(6), 1, 1, (), frozenset())
        unknowns = len(free.unknown_labels)
        return {"unknowns": unknowns}, abs(dji.kernel_analysis(free).dimension - unknowns)

    def unknown_count():
        counted = cmc_system(6)
        return ({"unknowns": len(counted.unknown_labels), "cmc_rows": counted.rows.shape[0]},
                abs((len(counted.unknown_labels) - counted.rows.shape[0]) - 18))

    def cmc_only_kernel():
        # the mean-curvature rows alone leave derivatives free: the csc/clc rows are needed
        dim = dji.kernel_analysis(cmc_system(4)).dimension
        return {"kernel_dim": dim}, 0.0 if dim > 0 else 1.0

    def cmc_rank():
        rank = int(np.linalg.matrix_rank(cmc_system(6).rows, tol=1e-9))
        return {"rank": rank}, abs(rank - 6)

    # each case is contained on its own: a raise is the error record of that case only
    for name, compute in (("no_constraints_full_kernel", full_kernel),
                          ("g6_unknown_count_18", unknown_count),
                          ("g4_cmc_only_kernel_positive", cmc_only_kernel),
                          ("g6_cmc_rows_independent", cmc_rank)):
        try:
            params, residual = compute()
        except Exception as exc:  # noqa: BLE001 - one bad case is one error record
            yield f"dji_kernels/{name}", {}, exc, 0.5
            continue
        yield f"dji_kernels/{name}", params, residual, 0.5


def _certificate_margin(tol: float | None) -> float:
    """The margin every sign certificate must clear: tol when given, else the default."""
    return tol if tol is not None else dji.CERTIFICATE_MARGIN


def _suite_sign_certificates(seed: int, tol: float | None):
    """Four blocks: the g = 4 certificates, the g = 6 certificates, two closed forms, the d5 draw.

    A block that raises is the `error` record of each of its cases; a
    certificate block, whose cases are named by the call that raised, is one
    `sign_certificates/g<g>_certificates` record. The other blocks still run.
    """
    margin = _certificate_margin(tol)
    root3 = math.sqrt(3.0)
    for g in (4, 6):
        try:
            certificates = dji.sign_certificates(g, _family_pcs(g))
        except Exception as exc:  # noqa: BLE001 - one bad block is one error record
            yield f"sign_certificates/g{g}_certificates", {}, exc, 0.5
            continue
        for cert in certificates:
            violation = 0.0 if cert.holds and cert.margin > margin else 1.0
            yield (f"sign_certificates/{cert.name}",
                   {"value": f"{cert.expression_value:.12g}", "claimed": cert.claimed_sign},
                   violation, 0.5)

    def closed_form_values():
        pcs6 = _family_pcs(6)
        one_minus = next(c for c in dji.sign_certificates(6, pcs6)
                         if c.name == "g6_one_minus_v_over_w")
        return [abs(one_minus.expression_value - (9 - 2 * root3)),
                abs(dji.g6_d5_obstruction(pcs6) - (-12 - 24 * root3))]

    for name, residual in zip(("value_9_minus_2root3", "value_d5_obstruction"),
                              _per_case(2, closed_form_values)):
        yield f"sign_certificates/{name}", {}, residual, 1e-10
    draw = {"samples": 10000}

    def d5_draw():
        samples = np.sort(np.random.default_rng(seed).uniform(-8, 8, (10000, 6)))[:, ::-1]
        kept = samples[np.abs(np.diff(samples)).min(axis=1) >= 1e-3]
        worst = float(dji.g6_d5_obstruction(kept).max())
        draw.update(kept=len(kept), worst=worst)
        return [0.0 if worst < 0 else 1.0]

    (residual,) = _per_case(1, d5_draw)
    yield "sign_certificates/d5_obstruction_always_negative", draw, residual, 0.5


def _stack_or_each(count: int, compute):
    """compute over a stack of `count` members, and where each member's result sits in it.

    compute takes an index array for a stack and an int for one member. Returns
    (result, at): at[k] is member k's index in result, or the exception it raised.
    When the whole stack raises, each member is tried alone, and the members that
    do not raise are computed once more as one stack; result is None if none is left.
    """
    members = np.arange(count)
    try:
        return compute(members), list(range(count))
    except Exception:  # noqa: BLE001 - the members that raise alone are found below
        at, kept = [], []
        for k in range(count):
            try:
                compute(k)
            except Exception as exc:  # noqa: BLE001 - one bad member is its own error
                at.append(exc)
            else:
                at.append(len(kept))
                kept.append(k)
        return (compute(members[kept]) if kept else None), at


def _suite_isometry_reduction(seed: int, tol: float | None):
    """Each g's 21 polygons are built and normalized as one stack, and reduced as one per pair.

    A stack that raises is retried one theta at a time, as single polygons, so a
    build or normalization that raises gives each of that theta's cases its
    exception, and a reduction that raises is its one case's error.
    """
    tolerance = tol if tol is not None else 1e-10
    margin = _certificate_margin(tol)
    pairs = {4: ((1, 1), (2, 2), (4, 5)), 6: ((1, 1), (2, 2))}
    for g, multiplicities in pairs.items():
        bound = math.pi / (2 * g)
        thetas = np.linspace(-0.85 * bound, 0.85 * bound, 21)
        normal, built = _stack_or_each(len(thetas), lambda k: poly_mod.conformal_normalize(
            poly_mod.build_parallel_polygon(g, thetas[k])))
        mapped, normalized = normal or (None, None)
        for m1, m2 in multiplicities:
            def reduce(j):  # j indexes the normalized polygons
                result = poly_mod.isometry_reduction(g, poly_mod.GeodesicPolygon(
                    g, normalized.vertex_angles[j], normalized.radius_table[j]), m1, m2)
                # the one check of the reduction's sign certificates
                strict = np.logical_and.reduce([c.holds & (c.margin > margin)
                                                for c in result.certificates])
                return np.where(strict, np.maximum(abs(result.x), abs(result.y)), math.inf)

            residuals, reduced = (_stack_or_each(len(normalized.vertex_angles), reduce)
                                  if normal else (None, []))
            for idx, (theta, j) in enumerate(zip(thetas, built)):
                params = {"theta": f"{theta:.6f}"}
                at = j if isinstance(j, Exception) else reduced[j]
                if isinstance(at, Exception):
                    residual = at
                else:
                    params.update(map_x=f"{mapped.x[j]:.2e}", map_y=f"{mapped.y[j]:.2e}")
                    residual = residuals[at]
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
        case_id = f"constraint_search/{name}_{expectation}"
        params = {"g": g, "constraints": "+".join(constraints), "resolution": resolution}
        try:
            survivors = poly_mod.constraint_search(g, constraints, resolution, seed)
        except Exception as exc:  # noqa: BLE001 - one failed search is one error record
            yield case_id, params, exc, 0.5
            continue
        nonparallel = sum(1 for s in survivors if not s.parallel)
        params.update(survivors=len(survivors), nonparallel=nonparallel)
        if expectation == "all_parallel":
            # an empty search proves nothing, so it cannot pass
            residual = float(nonparallel) if survivors else 1.0
        else:
            residual = 0.0 if nonparallel >= 1 else 1.0
        yield case_id, params, residual, 0.5


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

    A given tol replaces every default tolerance and the margin of every
    sign certificate; fixed tolerances stay. Each case is timed from the
    previous record of its suite. An exception that escapes a suite ends
    that suite with one `<suite>/aborted` error record; the cases it
    yielded before are kept and the run goes on.
    """
    if name == "all":
        names = [n for n in SUITE_NAMES if n != "all"]
    elif name in _SUITES:
        names = [name]
    else:
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    cases = []
    for suite in names:
        t0 = time.perf_counter_ns()
        try:
            for case_id, params, residual, tolerance in _SUITES[suite](seed, tol):
                cases.append(_case(suite, case_id, params, residual, tolerance, seed, t0))
                t0 = time.perf_counter_ns()
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
        # one C-encoder call for every case (an indent would force the Python encoder); a
        # case is its fields in declaration order, strings, floats and a dict of strings, so
        # it holds no cycle to check for. A string escapes its quotes, so '}, {"suite": '
        # occurs only between two cases, and there each line ends.
        body = json.dumps([vars(c) for c in cases], check_circular=False).replace(
            '}, {"suite": ', '},\n{"suite": ')
        run = json.dumps({"seed": seed, "version": __version__})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f'{{"run": {run}, "cases": [\n')
            handle.write(body[1:-1])
            handle.write("\n]}\n")
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
