"""Named verification suites over the toolkit, with JSON/CSV reports and SVG diagrams.

Each suite is a generator over deterministic checks (seed-controlled where
randomness is involved) that yields blocks (cases, compute). cases is a list
of (case_id, params, tolerance), each tolerance a constant of its suite (a
sign certificate's case is a 0/1 verdict of SignCertificate.clears(), whose
one margin is dji.CERTIFICATE_MARGIN); no argument changes either. compute()
returns one residual per case, in order, and fills a case's params dict in
place once its values are known. Where compute cannot score one case it
returns an exception in place of that residual. run_suite calls each compute before it asks the suite for the next
block, and it is the one place that turns blocks into VerificationCase
records: a case passes iff its residual is within its tolerance, an exception
becomes an `error` record, a compute that raises gives each case of its block
that exception, and an exception that escapes a suite becomes one
`<suite>/aborted` error record before the run goes on with the next suite.
runtime_ms is the time in float milliseconds since the previous record of the
same suite, so it includes any setup that the case shares with later ones.
Reports are JSON ({"run": {...}, "cases": [...]}, one case per line) or CSV
with the fixed header suite,case_id,status,residual,tolerance,runtime_ms,seed;
ordering is by case_id so output is independent of scheduling.
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
# suites: generators of blocks ([(case_id, params, tolerance), ...], compute)
# ---------------------------------------------------------------------------

def _suite_lie_invariance(seed: int):
    """Random O(n+1,2) actions leave Lie curvatures fixed; parallel law cot -> cot(xi+theta)."""
    sig = Signature(4, 2)
    ce = legendre_lift(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
    base = isoparam.principal_curvatures(isoparam.IsoparametricFamily(4, 1, 1, 0.09))

    def invariance_gaps():
        transforms = random_lie_transform(sig, seed * 100003, 0.5, 1000)
        a, b, c, d = moebius_coefficients(transforms, ce)
        moved = [moebius_curvature(a, b, c, d, ProjectiveCurvature.from_value(v)) for v in base]
        return np.max([abs(lie_curvature(*moved, ordering=o).value
                           - lie_curvature_of_values(base, o).value) for o in ORDERINGS], axis=0)

    yield ([(f"lie_invariance/random_action[{k:04d}]", {"draw": k}, 1e-8)
            for k in range(1000)], invariance_gaps)
    # parallel transformation law over a 100 x 100 (theta, xi) grid
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

    yield ([(f"lie_invariance/parallel_law[{row:03d}]",
             {"theta": f"{thetas[row]:.6f}", "skipped": int(pole[row].sum())}, 1e-10)
            for row in range(100)], law_gaps)

    # group sanity: membership and closure over 100 pairs, drawn as two stacks
    def closure_gap():
        l1 = random_lie_transform(sig, seed, 0.6, 100)
        l2 = random_lie_transform(sig, seed + 7919, 0.6, 100)
        return [max(is_lie_transform(compose(l1, l2).matrix, sig)[1].max(),
                    is_lie_transform(compose(l1, invert(l1)).matrix, sig)[1].max())]

    yield [("lie_invariance/group_closure", {"count": 100}, 1e-8)], closure_gap


def _suite_cross_ratio_identity(seed: int):
    """Cross ratio of e^(2i theta_k) equals the Lie curvature of cot(theta_k).

    Each sweep draws one array (the stream of one draw per sample). A draw
    with angles closer than 1e-3 is skipped: a fixed quadruple stands in for
    it and is masked out, so an error names the (batch, sample) index.
    """
    rng = np.random.default_rng(seed)
    thetas = np.sort(rng.uniform(0.02, math.pi - 0.02, (200, 50, 4)))
    keep = np.diff(thetas).min(axis=-1) >= 1e-3
    columns = np.moveaxis(np.where(keep[..., None], thetas, [0.25, 0.75, 1.5, 2.25]), -1, 0)

    def sweep_gaps():
        phi = lie_curvature(*map(ProjectiveCurvature.from_angle, columns),
                            ordering=STANDARD_13_24).value
        points = 2j * columns
        np.exp(points, out=points)
        return np.where(keep, abs(cross_ratio(*points) - phi), 0.0).max(axis=1)

    yield ([(f"cross_ratio_identity/radii_sweep[{batch:03d}]",
             {"samples": 50, "kept": int(keep[batch].sum())}, 1e-10)
            for batch in range(200)], sweep_gaps)
    # concircular points have real cross ratio
    angles = np.sort(rng.uniform(0, 2 * math.pi, (500, 4)))
    kept = np.diff(angles).min(axis=-1) >= 1e-3
    points = np.moveaxis(np.where(kept[..., None], angles, [0.5, 1.5, 3.0, 4.5]), -1, 0)

    def imaginary_part():
        return [np.where(kept, abs(cross_ratio(*np.exp(1j * points)).imag), 0.0).max()]

    yield ([("cross_ratio_identity/concircular_real", {"samples": 500, "kept": int(kept.sum())},
             1e-10)], imaginary_part)


_FAMILY_COMBOS = ((1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 2),
                  (3, 1, 1), (3, 2, 2), (3, 4, 4), (3, 8, 8),
                  (4, 1, 1), (4, 2, 2), (4, 1, 4), (4, 4, 5),
                  (6, 1, 1), (6, 2, 2))


def _suite_isoparametric_formulas(seed: int):
    """Each family's 45 members are one block, one array pass through the isoparam functions.

    Per member: the mean-curvature closed forms against sum m_i lambda_i,
    the curvature ordering, the theta -> H -> theta roundtrip and, for
    g = 3, 4, 6, the scalar closed form; per family: H strictly decreasing.
    """
    for g, m1, m2 in _FAMILY_COMBOS:
        family = {"g": g, "m1": m1, "m2": m2}
        bound = math.pi / (2 * g)
        grid = np.linspace(-0.9 * bound, 0.9 * bound, 45)
        cases = []
        for idx, theta in enumerate(grid):
            tag = f"g{g}_m{m1}_{m2}[{idx:02d}]"
            cases += [(f"isoparametric_formulas/mean_{tag}", {**family, "theta": f"{theta:.6f}"},
                       1e-9),
                      (f"isoparametric_formulas/ordering_{tag}", family, 0.5),
                      (f"isoparametric_formulas/roundtrip_{tag}", family, 1e-10)]
            if g in (3, 4, 6):
                cases.append((f"isoparametric_formulas/scalar_{tag}", family, 1e-8))
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

        yield cases, family_residuals


def _suite_angle_solvers(seed: int):
    """Four blocks of two cases: the g4 solve, its oracle, the g6 solve with psi, its oracle."""
    solved = {4: {}, 6: {}}  # the params of each solution case: its solved odd and even gaps

    def g4_solve():
        g4 = poly_mod.solve_g4_normalized()
        solved[4].update(odd=g4.odd, even=g4.even)
        return [max(abs(x - math.pi / 4) for x in g4.odd + g4.even), abs(poly_mod.g4_residual(g4))]

    def g6_solve():  # the psi closed forms must agree with the direct cross ratios and equal -1
        g6 = poly_mod.solve_g6_normalized()
        solved[6].update(odd=g6.odd, even=g6.even)
        psi, route_gap = poly_mod.psi_values(g6)
        return [max(abs(x - math.pi / 6) for x in g6.odd + g6.even),
                max(route_gap, *(abs(v + 1.0) for v in psi))]

    g4_cell = {"grid": 721, "cell": f"{math.pi / 2 / 721:.2e}"}  # the oracle's cell_size
    for compute, cases in (
            (g4_solve, (("g4_solution_pi4", solved[4], 1e-10),
                        ("g4_residual_at_solution", {}, 1e-12))),
            (lambda: poly_mod.g4_grid_oracle(721).residuals(4),
             (("g4_oracle_agreement", g4_cell, 1e-6), ("g4_oracle_unique_cell", {}, 0.5))),
            (g6_solve, (("g6_solution_pi6", solved[6], 1e-10), ("g6_psi_triple", {}, 1e-9))),
            (lambda: poly_mod.g6_grid_oracle(721).residuals(6),
             (("g6_oracle_agreement", {"grid": 721}, 1e-6), ("g6_oracle_unique_cell", {}, 0.5)))):
        yield [(f"angle_solvers/{name}", params, case_tol)
               for name, params, case_tol in cases], compute


_KERNEL_SYSTEMS = (
    (4, ("cmc", "csc"), 1, 1), (4, ("cmc", "csc"), 2, 2), (4, ("cmc", "csc"), 4, 5),
    (4, ("cmc", "clc"), 1, 1), (4, ("cmc", "clc"), 2, 2),
    (6, ("cmc", "clc"), 1, 1), (6, ("cmc", "clc"), 2, 2),
)


def _family_pcs(g: int) -> np.ndarray:
    """The principal curvatures of the member theta = 0 of the g family, at any multiplicities."""
    return isoparam.principal_curvatures(isoparam.IsoparametricFamily(g, 1, 1, 0.0))


def _suite_dji_kernels(seed: int):
    """One block per kernel system (its dimension and its stability), then one per trailing case."""
    for g, constraints, m1, m2 in _KERNEL_SYSTEMS:
        name = f"dji_kernels/kernel_g{g}_{'_'.join(constraints)}_m{m1}{m2}"
        params = {}

        def kernel():
            pcs = _family_pcs(g)
            system = dji.build_system(g, pcs, m1, m2, constraints,
                                      dji.critical_point_pinning(g))
            analysis = dji.kernel_analysis(system)
            perturbed = dji.build_system(g, pcs + 1e-8 * np.arange(1, g + 1), m1, m2,
                                         constraints, dji.critical_point_pinning(g))
            stable = dji.kernel_analysis(perturbed).dimension == analysis.dimension
            params.update(unknowns=len(system.unknown_labels), rows=system.rows.shape[0],
                          margin=f"{analysis.margin:.2f}")
            return [float(analysis.dimension), 0.0 if stable else 1.0]

        yield [(name, params, 0.5), (name + "_stability", {}, 0.5)], kernel

    # the cases below share these systems, so each is made once
    @functools.cache
    def cmc_system(g):
        return dji.build_system(g, _family_pcs(g), 1, 1, ("cmc",), dji.critical_point_pinning(g))

    def full_kernel(params):
        free = dji.build_system(6, _family_pcs(6), 1, 1, (), frozenset())
        unknowns, dim = len(free.unknown_labels), dji.kernel_analysis(free).dimension
        params.update(unknowns=unknowns)
        return [abs(dim - unknowns)]

    def unknown_count(params):
        counted = cmc_system(6)
        params.update(unknowns=len(counted.unknown_labels), cmc_rows=counted.rows.shape[0])
        return [abs((len(counted.unknown_labels) - counted.rows.shape[0]) - 18)]

    def cmc_only_kernel(params):
        # the mean-curvature rows alone leave derivatives free: the csc/clc rows are needed
        dim = dji.kernel_analysis(cmc_system(4)).dimension
        params.update(kernel_dim=dim)
        return [0.0 if dim > 0 else 1.0]

    def cmc_rank(params):
        system = cmc_system(6)
        rank = len(system.unknown_labels) - dji.kernel_analysis(system).dimension
        params.update(rank=rank)
        return [abs(rank - 6)]

    for name, compute in (("no_constraints_full_kernel", full_kernel),
                          ("g6_unknown_count_18", unknown_count),
                          ("g4_cmc_only_kernel_positive", cmc_only_kernel),
                          ("g6_cmc_rows_independent", cmc_rank)):
        params = {}
        yield [(f"dji_kernels/{name}", params, 0.5)], functools.partial(compute, params)


def _suite_sign_certificates(seed: int):
    """Three blocks: the g = 4 certificates, the g = 6 ones with two closed forms, the d5 signs.

    The certificate cases are listed from dji.CLAIMS, so a block that raises
    is an `error` record for each of its own case_ids. The d5 case judges each
    dji.D5_FACTORS term by the product of its factor signs, against dji.CLAIMS[6].
    """
    root3 = math.sqrt(3.0)
    # (case name, the certificate it reads, its exact value) of the closed forms of each g
    closed_forms = {4: (), 6: (("value_9_minus_2root3", "g6_one_minus_v_over_w", 9 - 2 * root3),
                               ("value_d5_obstruction", "g6_d5_obstruction_total",
                                -12 - 24 * root3))}
    for g, closed in closed_forms.items():
        params = {name: {} for name in dji.CLAIMS[g]}
        cases = ([(f"sign_certificates/{name}", p, 0.5) for name, p in params.items()]
                 + [(f"sign_certificates/{case}", {}, 1e-10) for case, _, _ in closed])

        def certify():
            certificates = dji.sign_certificates(g, _family_pcs(g))
            for cert in certificates:
                params[cert.name].update(value=f"{cert.expression_value:.12g}",
                                         claimed=cert.claimed_sign)
            value = {c.name: c.expression_value for c in certificates}
            return ([0.0 if c.clears() else 1.0 for c in certificates]
                    + [abs(value[name] - exact) for _, name, exact in closed])

        yield cases, certify
    signs = {}

    def d5_signs():  # on a strictly decreasing sextuple, pcs[i] - pcs[j] has the sign of j - i
        signs.update((name, [(j > i) - (j < i) for i, j in factors])
                     for name, factors in dji.D5_FACTORS.items())
        return [0.0 if all(dji.SignCertificate(name, float(math.prod(s)), dji.CLAIMS[6][name])
                           .clears() for name, s in signs.items()) else 1.0]

    yield [("sign_certificates/d5_obstruction_always_negative", signs, 0.5)], d5_signs


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


def _suite_isometry_reduction(seed: int):
    """One block per (g, m1, m2): its 21 polygons, reduced as one stack.

    Each g's polygons are built and normalized once, as one stack that its blocks
    share. A stack that raises is retried one theta at a time, as single polygons,
    so a build or normalization that raises gives each of that theta's cases its
    exception, and a reduction that raises is its one case's error. A case's
    residual is its closed_form_gap where its three certificates clear, else inf.
    """
    pairs = {4: ((1, 1), (2, 2), (4, 5)), 6: ((1, 1), (2, 2))}
    for g, multiplicities in pairs.items():
        bound = math.pi / (2 * g)
        thetas = np.linspace(-0.85 * bound, 0.85 * bound, 21)

        @functools.cache
        def normal():  # the blocks of one g share its polygons
            return _stack_or_each(len(thetas), lambda k: poly_mod.conformal_normalize(
                poly_mod.build_parallel_polygon(g, thetas[k])))

        for m1, m2 in multiplicities:
            cases = [(f"isometry_reduction/g{g}_m{m1}{m2}[{idx:02d}]", {"theta": f"{theta:.6f}"},
                      1e-10) for idx, theta in enumerate(thetas)]

            def reductions():
                stack, built = normal()
                mapped, normalized = stack or (None, None)

                def reduce(j):  # j indexes the normalized polygons
                    result = poly_mod.isometry_reduction(g, poly_mod.GeodesicPolygon(
                        g, normalized.vertex_angles[j], normalized.radius_table[j]), m1, m2)
                    strict = np.logical_and.reduce([c.clears() for c in result.certificates])
                    return np.where(strict, result.closed_form_gap, math.inf)

                residuals, reduced = (_stack_or_each(len(normalized.vertex_angles), reduce)
                                      if stack else (None, []))
                at = [j if isinstance(j, Exception) else reduced[j] for j in built]
                for (_, params, _), j, k in zip(cases, built, at):
                    if not isinstance(k, Exception):
                        params.update(map_x=f"{mapped.matrix[j, 2, 0]:.2e}",
                                      map_y=f"{mapped.matrix[j, 2, 1]:.2e}")
                return [k if isinstance(k, Exception) else residuals[k] for k in at]

            yield cases, reductions


_SEARCH_SPECS = (
    ("g3_cmc", 3, ("cmc",), 40, "all_parallel"),
    ("g4_cmc_csc", 4, ("cmc", "csc"), 25, "all_parallel"),
    ("g4_cmc_clc", 4, ("cmc", "clc"), 25, "all_parallel"),
    ("g6_cmc_clc", 6, ("cmc", "clc"), 25, "all_parallel"),
    ("g4_cmc_only", 4, ("cmc",), 25, "nonparallel_exists"),
)


def _suite_constraint_search(seed: int):
    for name, g, constraints, resolution, expectation in _SEARCH_SPECS:
        params = {"g": g, "constraints": "+".join(constraints), "resolution": resolution}

        def search():
            survivors = poly_mod.constraint_search(g, constraints, resolution, seed)
            nonparallel = sum(1 for s in survivors if not s.parallel)
            params.update(survivors=len(survivors), nonparallel=nonparallel)
            if expectation == "all_parallel":
                # an empty search proves nothing, so it cannot pass
                return [float(nonparallel) if survivors else 1.0]
            return [0.0 if nonparallel >= 1 else 1.0]

        yield [(f"constraint_search/{name}_{expectation}", params, 0.5)], search


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
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, seed: int = 0):
    """Run a named suite (or 'all'); returns cases sorted by case_id.

    Each case is judged by the tolerance it carries, fixed by its suite, and
    timed from the previous record of its suite. A block whose compute raises
    is one `error` record per case of that block. An exception that escapes a
    suite ends that suite with one `<suite>/aborted` error record; the cases
    it yielded before are kept and the run goes on.
    """
    if name == "all":
        names = list(_SUITES)
    elif name in _SUITES:
        names = [name]
    else:
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    records = []
    for suite in names:
        t0 = time.perf_counter_ns()
        try:
            for cases, compute in _SUITES[suite](seed):
                try:
                    residuals = compute()
                except Exception as exc:  # noqa: BLE001 - a bad block is one error per case
                    residuals = [exc] * len(cases)
                for (case_id, params, tolerance), residual in zip(cases, residuals, strict=True):
                    records.append(_case(suite, case_id, params, residual, tolerance, seed, t0))
                    t0 = time.perf_counter_ns()
        except Exception as exc:  # noqa: BLE001 - one bad suite must not abort the run
            records.append(_case(suite, f"{suite}/aborted", {}, exc, 0.0, seed, t0))
    return sorted(records, key=lambda case: case.case_id)


def all_passed(cases) -> bool:
    return all(case.status == "pass" for case in cases)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

REPORT_SLICE = 256  # cases per json.dumps call of emit_report


def emit_report(cases, path: str, fmt: str = "json", seed: int = 0) -> None:
    """Write the list `cases` to `path` as a JSON report, one case per line, or as CSV.

    JSON is encoded REPORT_SLICE cases at a time, so the encoder's working set
    stays bounded for any report size; the bytes equal one call over every case.
    """
    if fmt == "json":
        # one C-encoder call per slice (an indent would force the Python encoder); a case
        # is its fields in declaration order, strings, floats and a dict of strings, so it
        # holds no cycle to check for. A string escapes its quotes, so '}, {"suite": '
        # occurs only between two cases, and there each line ends, as it does between slices.
        run = json.dumps({"seed": seed, "version": __version__})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f'{{"run": {run}, "cases": [\n')
            for start in range(0, len(cases), REPORT_SLICE):
                if start:
                    handle.write(",\n")
                body = json.dumps([vars(c) for c in cases[start:start + REPORT_SLICE]],
                                  check_circular=False).replace('}, {"suite": ', '},\n{"suite": ')
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
