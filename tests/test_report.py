import cmath
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liesphere
import numpy as np

from liesphere import cli, dji, isoparam, polygon, quadric, report
from liesphere.errors import DomainError
from liesphere.indefinite import (LieTransform, Signature, compose, invert, is_lie_transform,
                                  random_lie_transform)
from liesphere.quadric import (PAPER6_12_34, STANDARD_13_24, ProjectiveCurvature, cross_ratio,
                               legendre_lift, lie_curvature, lie_curvature_of_values,
                               moebius_coefficients, moebius_curvature)
from liesphere.polygon import build_parallel_polygon
from liesphere.report import (UsageError, VerificationCase, all_passed,
                              emit_polygon_svg, emit_report, parse_csv_report,
                              run_suite)


def make_case(case_id="suite/x", residual=0.0, tolerance=1e-9, status=None):
    status = status or ("pass" if residual <= tolerance else "fail")
    return VerificationCase("suite", case_id, {"k": "v"}, status, residual,
                            tolerance, 0.0625, 7)


def test_case_status_validation():
    with pytest.raises(ValueError):
        VerificationCase("s", "c", {}, "maybe", 0.0, 1.0, 0, 0)


def test_case_records_equal_constructor_records():
    # _case skips the constructor's per-field setattr calls, not what the record holds
    for residual, status in ((1e-12, "pass"), (2.5, "fail"), (DomainError("bad"), "error")):
        case = report._case("s", "s/c", {"k": 1}, residual, 1e-9, 3, 0)
        built = VerificationCase(case.suite, case.case_id, dict(case.params), case.status,
                                 case.residual, case.tolerance, case.runtime_ms, case.seed)
        assert case.status == status and case == built and hash(case) == hash(built)
        assert list(vars(case)) == list(vars(built)) and vars(case) == vars(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            case.status = "pass"


def test_emit_json_empty(tmp_path):
    path = tmp_path / "report.json"
    emit_report([], str(path), "json", seed=5)
    payload = json.loads(path.read_text())
    assert payload == {"run": {"seed": 5, "version": "0.1.0"}, "cases": []}


def test_emit_json_fields(tmp_path):
    path = tmp_path / "report.json"
    emit_report([make_case()], str(path), "json", seed=1)
    payload = json.loads(path.read_text())
    (case,) = payload["cases"]
    assert case == {"suite": "suite", "case_id": "suite/x", "params": {"k": "v"},
                    "status": "pass", "residual": 0.0, "tolerance": 1e-9,
                    "runtime_ms": 0.0625, "seed": 7}


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "report.csv"
    cases = [make_case("suite/a", 1e-12), make_case("suite/b", 2.5, 1e-6)]
    cases.append(dataclasses.replace(cases[1], case_id="suite/c", runtime_ms=1 / 3))
    emit_report(cases, str(path), "csv")
    header = path.read_text().splitlines()[0]
    assert header == "suite,case_id,status,residual,tolerance,runtime_ms,seed"
    back = parse_csv_report(str(path))
    for orig, parsed in zip(cases, back):
        assert (parsed.suite, parsed.case_id, parsed.status) == (
            orig.suite, orig.case_id, orig.status)
        assert parsed.residual == orig.residual
        assert parsed.tolerance == orig.tolerance
        assert parsed.runtime_ms == orig.runtime_ms  # float milliseconds, exactly
        assert parsed.seed == orig.seed
    assert len(back) == len(cases)


def test_emit_report_unknown_format(tmp_path):
    with pytest.raises(UsageError):
        emit_report([], str(tmp_path / "x"), "xml")


def test_run_suite_unknown_name():
    with pytest.raises(UsageError):
        run_suite("unknown")


def test_run_suite_ordering_and_pass():
    cases = run_suite("angle_solvers", seed=0)
    assert cases == sorted(cases, key=lambda case: case.case_id)
    assert all_passed(cases)
    # float milliseconds: a case that takes microseconds does not read 0
    assert all(isinstance(c.runtime_ms, float) and c.runtime_ms > 0 for c in cases)


def test_isoparametric_suite_size_and_pass():
    cases = run_suite("isoparametric_formulas", seed=0)
    assert len(cases) >= 600
    assert all_passed(cases)


def test_isoparametric_suite_reports_wrong_mean_curvature(monkeypatch):
    # a wrong closed form is a fail record from the suite, not an exception
    raw = isoparam._mean_curvature_raw
    monkeypatch.setattr(isoparam, "_mean_curvature_raw", lambda *args: raw(*args) + 1e-3)
    cases = run_suite("isoparametric_formulas", seed=0)
    mean = [c for c in cases if c.case_id.startswith("isoparametric_formulas/mean_")]
    assert mean and all(c.status == "fail" for c in mean)
    assert not any(c.status == "error" for c in cases)


def _reference_isoparametric_formulas(seed, tol):
    """The suite as one scalar library call per family member, as before the array pass."""
    for g, m1, m2 in report._FAMILY_COMBOS:
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


@pytest.mark.parametrize("seed", range(4))
def test_array_isoparametric_suite_matches_scalar_loop(seed):
    # same cases in the same order with the same verdicts; residuals may round apart
    stacked = list(report._suite_isoparametric_formulas(seed, None))
    scalar = list(_reference_isoparametric_formulas(seed, None))
    verdicts = lambda cases: [(case_id, params, tolerance, residual <= tolerance)
                              for case_id, params, residual, tolerance in cases]
    assert verdicts(stacked) == verdicts(scalar) and all(r <= t for _, _, r, t in stacked)


def test_failed_family_pass_is_an_error_for_each_case_of_its_family(monkeypatch):
    inverse = isoparam.theta_from_mean_curvature

    def failing_for_g6(g, m1, m2, h):
        if g == 6:
            raise ArithmeticError("inverse failed")
        return inverse(g, m1, m2, h)

    monkeypatch.setattr(isoparam, "theta_from_mean_curvature", failing_for_g6)
    cases = run_suite("isoparametric_formulas", seed=0)
    assert len(cases) == 2490
    bad = [c for c in cases if "_g6_" in c.case_id]
    assert len(bad) == 2 * (4 * 45 + 1) and {c.status for c in bad} == {"error"}
    assert all(c.params["error"] == "ArithmeticError: inverse failed" for c in bad)
    assert {c.status for c in cases if "_g6_" not in c.case_id} == {"pass"}


def test_empty_search_fails_all_parallel(monkeypatch):
    monkeypatch.setattr(polygon, "constraint_search", lambda *args, **kwargs: [])
    cases = run_suite("constraint_search", seed=0)
    assert any(c.case_id.endswith("_all_parallel") for c in cases)
    assert all(c.status == "fail" for c in cases)


def test_failed_search_is_an_error_for_its_own_spec(monkeypatch):
    search = polygon.constraint_search

    def failing_for_g6(g, *args):
        if g == 6:
            raise ArithmeticError("injected")
        return search(g, *args)

    monkeypatch.setattr(polygon, "constraint_search", failing_for_g6)
    cases = {c.case_id: c for c in run_suite("constraint_search", seed=0)}
    bad = cases.pop("constraint_search/g6_cmc_clc_all_parallel")
    assert bad.status == "error" and bad.params["error"] == "ArithmeticError: injected"
    assert bad.params["where"].endswith("in failing_for_g6") and bad.params["g"] == "6"
    # the other four specs still run; the cmc-only one fails by design
    assert {k: c.status for k, c in cases.items()} == {
        "constraint_search/g3_cmc_all_parallel": "pass",
        "constraint_search/g4_cmc_csc_all_parallel": "pass",
        "constraint_search/g4_cmc_clc_all_parallel": "pass",
        "constraint_search/g4_cmc_only_nonparallel_exists": "fail"}
    assert all("survivors" in c.params for c in cases.values())


def test_failed_kernel_system_is_an_error_for_its_two_cases(monkeypatch):
    build = dji.build_system

    def failing_for_g6_m22(g, pcs, m1, m2, *args):
        if (g, m1, m2) == (6, 2, 2):
            raise DomainError("injected")
        return build(g, pcs, m1, m2, *args)

    monkeypatch.setattr(dji, "build_system", failing_for_g6_m22)
    cases = run_suite("dji_kernels", seed=0)
    errors = [c for c in cases if c.status == "error"]
    assert [c.case_id for c in errors] == ["dji_kernels/kernel_g6_cmc_clc_m22",
                                           "dji_kernels/kernel_g6_cmc_clc_m22_stability"]
    assert all(c.params["error"] == "DomainError: injected" for c in errors)
    assert len(cases) == 18 and {c.status for c in cases if c not in errors} == {"pass"}


_TRAILING_KERNEL_FAILURES = {
    # kernel_analysis of the unconstrained g = 6 system
    "free_kernel": (dji, "kernel_analysis", lambda system: system.rows.shape[0] == 0,
                    ("dji_kernels/no_constraints_full_kernel",)),
    # kernel_analysis of the g = 4 system with the cmc rows alone
    "cmc_only_kernel": (dji, "kernel_analysis",
                        lambda system: system.context["constraints"] == {"cmc"},
                        ("dji_kernels/g4_cmc_only_kernel_positive",)),
    # the g = 6 cmc-only system, which two cases share
    "cmc_system": (dji, "build_system", lambda g, pcs, m1, m2, constraints, *rest:
                   (g, tuple(constraints)) == (6, ("cmc",)),
                   ("dji_kernels/g6_cmc_rows_independent", "dji_kernels/g6_unknown_count_18")),
    "cmc_rank": (np.linalg, "matrix_rank", lambda *args, **kwargs: True,
                 ("dji_kernels/g6_cmc_rows_independent",)),
}


@pytest.mark.parametrize("failure", sorted(_TRAILING_KERNEL_FAILURES))
def test_failed_trailing_kernel_case_is_an_error_of_its_own(monkeypatch, failure):
    module, function, raises_for, expected = _TRAILING_KERNEL_FAILURES[failure]
    original = getattr(module, function)

    def failing(*args, **kwargs):
        if raises_for(*args, **kwargs):
            raise DomainError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, function, failing)
    cases = run_suite("dji_kernels", seed=0)
    errors = tuple(c.case_id for c in cases if c.status == "error")
    assert errors == expected
    assert all(c.params["error"] == "DomainError: injected" for c in cases
               if c.status == "error")
    # the other cases still run and pass, and the suite is not aborted
    assert len(cases) == 18 and {c.status for c in cases if c.case_id not in errors} == {"pass"}
    assert not any(c.case_id.endswith("/aborted") for c in cases)


def test_psi_route_disagreement_fails_psi_triple(monkeypatch):
    # the closed-form/cross-ratio agreement of psi_values is judged by one case
    monkeypatch.setattr(polygon, "cross_ratio", lambda *z: quadric.cross_ratio(*z) + 1e-6)
    cases = {c.case_id: c.status for c in run_suite("angle_solvers", seed=0)}
    assert cases.pop("angle_solvers/g6_psi_triple") == "fail"
    assert set(cases.values()) == {"pass"}


def test_tol_is_the_certificate_margin_of_the_isometry_suite():
    # one margin rule: --tol sets the margin of the reduction's certificates too
    cases = run_suite("isometry_reduction", 0, tol=1e3)
    assert cases and all(c.status == "fail" and c.residual == math.inf for c in cases)
    assert all_passed(run_suite("isometry_reduction", 0, tol=1e-3))


def test_isometry_suite_fails_weak_certificates(monkeypatch):
    # certificate margins are judged by the suite: a fail record, not an error
    monkeypatch.setattr(dji, "CERTIFICATE_MARGIN", 1e6)
    cases = run_suite("isometry_reduction", seed=0)
    assert cases and all(c.status == "fail" and c.residual == math.inf for c in cases)


def _reference_isometry_suite(seed, tol):
    """The per-theta suite loop, kept as the reference: one polygon at a time."""
    tolerance = tol if tol is not None else 1e-10
    pairs = {4: ((1, 1), (2, 2), (4, 5)), 6: ((1, 1), (2, 2))}
    for g, multiplicities in pairs.items():
        bound = math.pi / (2 * g)
        for idx, theta in enumerate(np.linspace(-0.85 * bound, 0.85 * bound, 21)):
            try:
                poly = polygon.build_parallel_polygon(g, float(theta))
                mapped, normalized = polygon.conformal_normalize(poly)
            except Exception as exc:  # noqa: BLE001
                normalized = exc
            for m1, m2 in multiplicities:
                params = {"theta": f"{theta:.6f}"}
                if isinstance(normalized, Exception):
                    residual = normalized
                else:
                    try:
                        result = polygon.isometry_reduction(g, normalized, m1, m2)
                        params.update(map_x=f"{mapped.x:.2e}", map_y=f"{mapped.y:.2e}")
                        strict = all(c.holds and c.margin > report._certificate_margin(tol)
                                     for c in result.certificates)
                        residual = max(abs(result.x), abs(result.y)) if strict else math.inf
                    except Exception as exc:  # noqa: BLE001
                        residual = exc
                yield f"isometry_reduction/g{g}_m{m1}{m2}[{idx:02d}]", params, residual, tolerance


def _isometry_records(tol=None):
    """(case_id, params, status, residual) of each isometry_reduction case."""
    return [(c.case_id, c.params, c.status, c.residual)
            for c in run_suite("isometry_reduction", 0, tol)]


def _reference_records(monkeypatch, tol=None):
    """_isometry_records of the reference loop, under the monkeypatches already set."""
    with monkeypatch.context() as patch:
        patch.setitem(report._SUITES, "isometry_reduction", _reference_isometry_suite)
        return _isometry_records(tol)


@pytest.mark.parametrize("tol", (None, 1e3))
def test_isometry_suite_equals_the_per_theta_loop(monkeypatch, tol):
    stacked = _isometry_records(tol)
    assert len(stacked) == 105 and stacked == _reference_records(monkeypatch, tol)


def test_isometry_suite_stacks_equal_one_polygon_at_a_time():
    # every normalization, reduction matrix and certificate value at the suite's 42 thetas
    pairs = {4: ((1, 1), (2, 2), (4, 5)), 6: ((1, 1), (2, 2))}
    for g, multiplicities in pairs.items():
        bound = math.pi / (2 * g)
        thetas = np.linspace(-0.85 * bound, 0.85 * bound, 21)
        mapped, normalized = polygon.conformal_normalize(polygon.build_parallel_polygon(g, thetas))
        results = [polygon.isometry_reduction(g, normalized, m1, m2) for m1, m2 in multiplicities]
        for k, theta in enumerate(thetas):
            one_map, one = polygon.conformal_normalize(build_parallel_polygon(g, float(theta)))
            assert np.array_equal(mapped.matrix[k], one_map.matrix)
            assert (mapped.x[k], mapped.y[k]) == (one_map.x, one_map.y)
            assert np.array_equal(normalized.vertex_angles[k], one.vertex_angles)
            assert np.array_equal(normalized.radius_table[k], one.radius_table)
            for result, (m1, m2) in zip(results, multiplicities):
                alone = polygon.isometry_reduction(g, one, m1, m2)
                assert np.array_equal(result.matrix[k], alone.matrix)
                assert result.mean_curvature[k] == alone.mean_curvature
                assert [c.expression_value[k] for c in result.certificates] == [
                    c.expression_value for c in alone.certificates]


def test_isometry_suite_normalizes_each_g_as_one_stack(monkeypatch):
    calls = {"build": 0, "normalize": 0, "reduce": 0}
    build = polygon.build_parallel_polygon
    normalize, reduce = polygon.conformal_normalize, polygon.isometry_reduction

    def counting_build(*args):
        calls["build"] += 1
        return build(*args)

    def counting_normalize(poly):
        calls["normalize"] += 1
        return normalize(poly)

    def counting_reduce(*args):
        calls["reduce"] += 1
        return reduce(*args)

    monkeypatch.setattr(polygon, "build_parallel_polygon", counting_build)
    monkeypatch.setattr(polygon, "conformal_normalize", counting_normalize)
    monkeypatch.setattr(polygon, "isometry_reduction", counting_reduce)
    first = run_suite("isometry_reduction", 0)
    assert len(first) == 105 and all_passed(first)
    # one stack of 21 thetas for each of g = 4, 6, one reduction per multiplicity pair
    assert calls == {"build": 2, "normalize": 2, "reduce": 5}
    second = run_suite("isometry_reduction", 0)         # nothing is kept between calls
    assert calls == {"build": 4, "normalize": 4, "reduce": 10}
    assert [(c.case_id, c.params, c.residual) for c in second] == [
        (c.case_id, c.params, c.residual) for c in first]


def _suite_theta(g, idx):
    bound = math.pi / (2 * g)
    return np.linspace(-0.85 * bound, 0.85 * bound, 21)[idx]


def _holds(poly, bad):
    """Whether a polygon, or any polygon of a stack, has the vertex angles of bad."""
    return bool(np.any((poly.vertex_angles == bad.vertex_angles).all(axis=-1)))


@pytest.mark.parametrize("g, pairs", ((4, ("11", "22", "45")), (6, ("11", "22"))))
def test_failed_normalization_is_an_error_for_each_pair_of_its_theta(monkeypatch, g, pairs):
    bad = build_parallel_polygon(g, float(_suite_theta(g, 7)))
    normalize = polygon.conformal_normalize

    def failing_normalize(poly):
        if poly.g == g and _holds(poly, bad):
            raise polygon.NormalizationFailure("boost did not converge")
        return normalize(poly)

    monkeypatch.setattr(polygon, "conformal_normalize", failing_normalize)
    cases = run_suite("isometry_reduction", 0)
    errors = [c for c in cases if c.status == "error"]
    assert [c.case_id for c in errors] == [f"isometry_reduction/g{g}_m{p}[07]" for p in pairs]
    assert len({c.params["where"] for c in errors}) == 1
    assert errors[0].params["where"].endswith("in failing_normalize")
    assert all(c.params["error"] == "NormalizationFailure: boost did not converge"
               and set(c.params) == {"theta", "error", "where"} for c in errors)
    assert len(cases) == 105 and {c.status for c in cases if c not in errors} == {"pass"}
    assert _isometry_records() == _reference_records(monkeypatch)


@pytest.mark.parametrize("g, pairs", ((4, ("11", "22", "45")), (6, ("11", "22"))))
def test_failed_build_is_an_error_for_each_pair_of_its_theta(monkeypatch, g, pairs):
    bad = _suite_theta(g, 13)
    build = polygon.build_parallel_polygon

    def failing_build(h, theta):
        if h == g and np.any(theta == bad):
            raise DomainError("injected")
        return build(h, theta)

    monkeypatch.setattr(polygon, "build_parallel_polygon", failing_build)
    cases = run_suite("isometry_reduction", 0)
    errors = [c for c in cases if c.status == "error"]
    assert [c.case_id for c in errors] == [f"isometry_reduction/g{g}_m{p}[13]" for p in pairs]
    assert all(c.params["error"] == "DomainError: injected"
               and c.params["where"].endswith("in failing_build") for c in errors)
    assert len(cases) == 105 and {c.status for c in cases if c not in errors} == {"pass"}
    assert _isometry_records() == _reference_records(monkeypatch)


def test_every_build_failing_leaves_only_errors_for_its_g(monkeypatch):
    build = polygon.build_parallel_polygon
    monkeypatch.setattr(polygon, "build_parallel_polygon", lambda g, theta: (
        build(g, theta) if g == 4 else build(g, np.asarray(theta) + 1.0)))
    cases = run_suite("isometry_reduction", 0)
    assert [c.case_id for c in cases if c.status == "error"] == [
        c.case_id for c in cases if c.case_id.startswith("isometry_reduction/g6")]
    assert len(cases) == 105 and {c.status for c in cases if "/g4" in c.case_id} == {"pass"}
    assert {c.params["error"] for c in cases if c.status == "error"} == {
        "DomainError: theta must lie in (-pi/12, pi/12)"}
    assert _isometry_records() == _reference_records(monkeypatch)


def test_failed_reduction_is_an_error_for_its_own_pair(monkeypatch):
    reduce = polygon.isometry_reduction

    def failing_reduce(g, poly, m1, m2):
        if (m1, m2) == (4, 5):
            raise DomainError("injected")
        return reduce(g, poly, m1, m2)

    monkeypatch.setattr(polygon, "isometry_reduction", failing_reduce)
    cases = run_suite("isometry_reduction", 0)
    errors = [c for c in cases if c.status == "error"]
    assert [c.case_id for c in errors] == [f"isometry_reduction/g4_m45[{k:02d}]"
                                           for k in range(21)]
    assert all(c.params["where"].endswith("in failing_reduce") for c in errors)
    assert {c.status for c in cases if c not in errors} == {"pass"}


def test_singular_reduction_is_an_error_for_its_one_case(monkeypatch):
    bad = polygon.conformal_normalize(build_parallel_polygon(6, float(_suite_theta(6, 4))))[1]
    reduce = polygon.isometry_reduction

    def singular_reduce(g, poly, m1, m2):
        if (g, m1, m2) == (6, 2, 2) and _holds(poly, bad):
            raise polygon.CertificateFailure("reduction system is singular")
        return reduce(g, poly, m1, m2)

    monkeypatch.setattr(polygon, "isometry_reduction", singular_reduce)
    cases = run_suite("isometry_reduction", 0)
    errors = [c for c in cases if c.status == "error"]
    assert [c.case_id for c in errors] == ["isometry_reduction/g6_m22[04]"]
    assert errors[0].params == {"theta": f"{_suite_theta(6, 4):.6f}",
                                "error": "CertificateFailure: reduction system is singular",
                                "where": errors[0].params["where"]}
    assert errors[0].params["where"].endswith("in singular_reduce")
    assert len(cases) == 105 and {c.status for c in cases if c not in errors} == {"pass"}
    assert _isometry_records() == _reference_records(monkeypatch)


def _indented_report(cases, seed):
    """The report as one json.dump(..., indent=2) document."""
    return json.dumps({"run": {"seed": seed, "version": report.__version__},
                       "cases": [{"suite": c.suite, "case_id": c.case_id, "params": c.params,
                                  "status": c.status, "residual": c.residual,
                                  "tolerance": c.tolerance, "runtime_ms": c.runtime_ms,
                                  "seed": c.seed} for c in cases]}, indent=2)


def test_json_report_is_one_case_per_line_and_parses_as_before(tmp_path):
    cases = run_suite("dji_kernels", 3)
    cases.append(VerificationCase("dji_kernels", "dji_kernels/z_error",
                                  {"error": "DomainError: θ \"out\" of range",
                                   "where": "dji.py:1 in f"},
                                  "error", math.inf, 0.0, 1 / 3, 3))
    # a params value holding the line-break pattern, a quote and a newline stays on its line
    cases.insert(2, VerificationCase("dji_kernels", "dji_kernels/a_note",
                                     {"note": 'x}, {"suite": "dji_kernels"\n}'},
                                     "pass", 0.0, 0.5, 0.25, 3))
    path = tmp_path / "report.json"
    emit_report(cases, str(path), "json", seed=3)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == json.loads(_indented_report(cases, 3))
    lines = text.splitlines()
    assert lines[0] == '{"run": {"seed": 3, "version": "0.1.0"}, "cases": ['
    assert lines[-1] == "]}" and len(lines) == len(cases) + 2
    assert [json.loads(line.rstrip(","))["case_id"] for line in lines[1:-1]] == [
        c.case_id for c in cases]
    assert lines[-2].isascii() and '"residual": Infinity' in lines[-2]
    assert json.loads(lines[-2])["residual"] == math.inf


def _raising(exc_type):
    def solver(*args, **kwargs):
        raise exc_type("injected")
    return solver


def _suite_that_raises(seed, tol):
    yield "angle_solvers/before_the_failure", {}, 0.0, 0.5
    raise ArithmeticError("injected")


def test_suite_exception_becomes_aborted_error_record(monkeypatch):
    # an exception that escapes a suite is one error record, not a crash
    monkeypatch.setitem(report._SUITES, "angle_solvers", _suite_that_raises)
    cases = run_suite("angle_solvers", seed=0)
    assert [c.case_id for c in cases] == ["angle_solvers/aborted",
                                          "angle_solvers/before_the_failure"]
    aborted = cases[0]
    assert aborted.status == "error"
    assert aborted.params["error"].startswith("ArithmeticError")
    assert aborted.params["where"].endswith("in _suite_that_raises")
    assert aborted.tolerance == 0.0
    assert cases[1].status == "pass"


_ANGLE_SOLVER_BLOCKS = {
    "solve_g4_normalized": ("angle_solvers/g4_residual_at_solution",
                            "angle_solvers/g4_solution_pi4"),
    "g4_grid_oracle": ("angle_solvers/g4_oracle_agreement", "angle_solvers/g4_oracle_unique_cell"),
    "solve_g6_normalized": ("angle_solvers/g6_psi_triple", "angle_solvers/g6_solution_pi6"),
    "g6_grid_oracle": ("angle_solvers/g6_oracle_agreement", "angle_solvers/g6_oracle_unique_cell"),
}


@pytest.mark.parametrize("solver", sorted(_ANGLE_SOLVER_BLOCKS))
def test_failed_angle_solver_is_an_error_for_its_own_block(monkeypatch, solver):
    monkeypatch.setattr(polygon, solver, _raising(ArithmeticError))
    cases = run_suite("angle_solvers", seed=0)
    assert len(cases) == 8 and not any(c.case_id.endswith("/aborted") for c in cases)
    errors = [c for c in cases if c.status == "error"]
    assert tuple(c.case_id for c in errors) == _ANGLE_SOLVER_BLOCKS[solver]
    assert all(c.params["error"] == "ArithmeticError: injected" for c in errors)
    assert all(c.params["where"].endswith("in solver") for c in errors)
    # the other three blocks still run and pass
    assert {c.status for c in cases if c not in errors} == {"pass"}


_SIGN_CERTIFICATE_BLOCKS = {
    # the call that raises: (function, which of its calls) -> the error records it makes
    ("sign_certificates", "g4"): ("sign_certificates/g4_certificates",),
    # the closed-form values read a g6 certificate too
    ("sign_certificates", "g6"): ("sign_certificates/g6_certificates",
                                  "sign_certificates/value_9_minus_2root3",
                                  "sign_certificates/value_d5_obstruction"),
    ("g6_d5_obstruction", "stack"): ("sign_certificates/d5_obstruction_always_negative",),
}
_RAISES_FOR = {"g4": lambda g, *rest: g == 4, "g6": lambda g, *rest: g == 6,
               "stack": lambda pcs: np.ndim(pcs) == 2}


@pytest.mark.parametrize("function, calls", sorted(_SIGN_CERTIFICATE_BLOCKS))
def test_failed_sign_certificate_block_is_an_error_for_its_own_cases(monkeypatch, function, calls):
    original = getattr(dji, function)

    def failing(*args):
        if _RAISES_FOR[calls](*args):
            raise ArithmeticError("injected")
        return original(*args)

    normal = {c.case_id for c in run_suite("sign_certificates", seed=0)}
    monkeypatch.setattr(dji, function, failing)
    cases = run_suite("sign_certificates", seed=0)
    errors = tuple(c.case_id for c in cases if c.status == "error")
    assert errors == _SIGN_CERTIFICATE_BLOCKS[function, calls]
    assert all(c.params["error"] == "ArithmeticError: injected" for c in cases
               if c.status == "error")
    # the other blocks still run and pass; a new case_id appears only as an error record
    assert {c.status for c in cases if c.case_id not in errors} == {"pass"}
    assert {c.case_id for c in cases} - normal <= set(errors)
    assert not any(c.case_id.endswith("/aborted") for c in cases)


def test_cli_suite_domain_error_exits_1(monkeypatch, capsys):
    # a DomainError raised mid-suite is an errored case (exit 1), not a usage error (exit 2)
    monkeypatch.setattr(polygon, "solve_g4_normalized", _raising(DomainError))
    assert cli.main(["verify", "--suite", "angle_solvers"]) == 1
    assert "ERROR angle_solvers/g4_solution_pi4" in capsys.readouterr().out


def test_svg_counts_octagon(tmp_path):
    path = tmp_path / "octagon.svg"
    emit_polygon_svg(build_parallel_polygon(4, 0.0), str(path))
    text = path.read_text()
    assert text.count("<line") == 16          # four chords per curvature sphere
    assert text.count("<circle") == 1 + 8     # unit circle plus vertex dots
    assert text.count("<text") == 8


def test_svg_counts_dodecagon(tmp_path):
    path = tmp_path / "dodecagon.svg"
    emit_polygon_svg(build_parallel_polygon(6, 0.0), str(path))
    text = path.read_text()
    assert text.count("<text") == 12
    assert text.count("<line") == 36


def test_svg_deterministic(tmp_path):
    poly = build_parallel_polygon(4, 0.05)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_polygon_svg(poly, str(a))
    emit_polygon_svg(poly, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_report_determinism_modulo_runtime(tmp_path):
    first = run_suite("sign_certificates", seed=3)
    second = run_suite("sign_certificates", seed=3)
    strip = lambda cs: [(c.suite, c.case_id, c.params, c.status, c.residual,
                         c.tolerance, c.seed) for c in cs]
    assert strip(first) == strip(second)


# ---------------------------------------------------------------------------
# the two sampling suites against their scalar loops
# ---------------------------------------------------------------------------

def _reference_lie_invariance(seed):
    """The suite as one scalar library call per action and grid point: (case_id, residual, tol).

    The actions are the rows of the suite's stacks, each used as a transform of its own.
    """
    out = []
    sig = Signature(4, 2)
    ce = legendre_lift(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
    base = isoparam.principal_curvatures(isoparam.IsoparametricFamily(4, 1, 1, 0.09))
    phi0 = lie_curvature_of_values(base, STANDARD_13_24).value
    phi0_p6 = lie_curvature_of_values(base, PAPER6_12_34).value
    actions = random_lie_transform(sig, seed * 100003, 0.5, 1000).matrix
    for k in range(1000):
        a, b, c, d = moebius_coefficients(LieTransform(actions[k], sig), ce)
        moved = [moebius_curvature(a, b, c, d, ProjectiveCurvature.from_value(v)) for v in base]
        r1 = abs(lie_curvature(*moved, ordering=STANDARD_13_24).value - phi0)
        r2 = abs(lie_curvature(*moved, ordering=PAPER6_12_34).value - phi0_p6)
        out.append((f"lie_invariance/random_action[{k:04d}]", max(r1, r2), 1e-8))
    xis = np.linspace(0.05, math.pi - 0.05, 100)
    for row, theta in enumerate(np.linspace(-1.5, 1.5, 100)):
        a, b, c, d = math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta)
        worst = 0.0
        for xi in xis:
            lam = moebius_curvature(a, b, c, d, ProjectiveCurvature.from_angle(xi))
            target = (xi + theta) % math.pi
            if min(target, math.pi - target) < 1e-6:
                continue
            worst = max(worst, abs(lam.value - 1.0 / math.tan(xi + theta)))
        out.append((f"lie_invariance/parallel_law[{row:03d}]", worst, 1e-10))
    worst = 0.0
    first = random_lie_transform(sig, seed, 0.6, 100).matrix
    second = random_lie_transform(sig, seed + 7919, 0.6, 100).matrix
    for k in range(100):
        l1, l2 = LieTransform(first[k], sig), LieTransform(second[k], sig)
        worst = max(worst, is_lie_transform(compose(l1, l2).matrix, sig, 1e-8)[1],
                    is_lie_transform(compose(l1, invert(l1)).matrix, sig, 1e-8)[1])
    out.append(("lie_invariance/group_closure", worst, 1e-8))
    return out


def _reference_cross_ratio_identity(seed):
    """The suite as one draw and one scalar library call per sample: (case_id, residual, tol)."""
    out = []
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
        out.append((f"cross_ratio_identity/radii_sweep[{batch:03d}]", worst, 1e-10))
    worst = 0.0
    for _ in range(500):
        angles = np.sort(rng.uniform(0, 2 * math.pi, 4))
        if np.diff(angles).min() < 1e-3:
            continue
        worst = max(worst, abs(cross_ratio(*(cmath.exp(1j * a) for a in angles)).imag))
    out.append(("cross_ratio_identity/concircular_real", worst, 1e-10))
    return out


_SCALAR_REFERENCES = {"lie_invariance": _reference_lie_invariance,
                      "cross_ratio_identity": _reference_cross_ratio_identity}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("suite", sorted(_SCALAR_REFERENCES))
def test_stacked_suite_matches_scalar_loop(suite, seed):
    # same case_ids and statuses; residuals agree to 1e-12 (array arithmetic may round apart)
    cases = run_suite(suite, seed)
    expected = sorted(_SCALAR_REFERENCES[suite](seed))
    assert [c.case_id for c in cases] == [case_id for case_id, _, _ in expected]
    for case, (_, residual, tolerance) in zip(cases, expected):
        assert case.status == ("pass" if residual <= tolerance else "fail")
        assert case.tolerance == tolerance
        assert abs(case.residual - residual) <= 1e-12, case.case_id


def test_sampling_suites_count_what_they_kept():
    params = {c.case_id: c.params for c in run_suite("cross_ratio_identity", 0)}
    radii = [p for case_id, p in params.items() if "/radii_sweep[" in case_id]
    assert len(radii) == 200 and {p["samples"] for p in radii} == {"50"}
    assert sum(int(p["kept"]) for p in radii) == 9957
    assert params["cross_ratio_identity/concircular_real"] == {"samples": "500", "kept": "500"}
    law = [c.params for c in run_suite("lie_invariance", 0) if "/parallel_law[" in c.case_id]
    assert len(law) == 100 and all(int(p["skipped"]) >= 0 for p in law)


@pytest.mark.parametrize("seed", [0, 3])
def test_lie_invariance_draws_three_stacks(monkeypatch, seed):
    # the 1000 actions, then the two closure stacks: one random_lie_transform call each
    calls = []

    def spy(sig, seed, scale=0.5, count=None):
        calls.append((sig, seed, scale, count))
        return random_lie_transform(sig, seed, scale, count)

    monkeypatch.setattr(report, "random_lie_transform", spy)
    run_suite("lie_invariance", seed)
    sig = Signature(4, 2)
    assert calls == [(sig, seed * 100003, 0.5, 1000), (sig, seed, 0.6, 100),
                     (sig, seed + 7919, 0.6, 100)]


def test_bad_member_turns_its_stack_into_error_records(monkeypatch):
    # one non-Lie member: every case of that stack is an error naming it, the others still run
    def one_bad_member(sig, seed, scale=0.5, count=None):
        matrix = random_lie_transform(sig, seed, scale, count).matrix.copy()
        matrix[7] *= 2.0
        return LieTransform(matrix, sig)

    monkeypatch.setattr(report, "random_lie_transform", one_bad_member)
    cases = run_suite("lie_invariance", 0)
    assert len(cases) == 1101
    stacked = [c for c in cases if "/parallel_law[" not in c.case_id]
    assert len(stacked) == 1001 and all(c.status == "error" for c in stacked)
    assert all(c.params["error"].startswith("ValueError: not in O(4,2)")
               and c.params["error"].endswith("at stack index 7")
               and c.params["where"].endswith("in __post_init__") for c in stacked)
    assert {c.status for c in cases if "/parallel_law[" in c.case_id} == {"pass"}


def test_degenerate_sample_turns_its_sweep_into_error_records(monkeypatch):
    def one_coincidence(l1, l2, l3, l4, ordering):
        v, u = l2.v.copy(), l2.u.copy()
        v[3, 7], u[3, 7] = l1.v[3, 7], l1.u[3, 7]
        return lie_curvature(l1, ProjectiveCurvature(v, u), l3, l4, ordering=ordering)

    monkeypatch.setattr(report, "lie_curvature", one_coincidence)
    cases = run_suite("cross_ratio_identity", 0)
    assert len(cases) == 201
    sweep = [c for c in cases if "/radii_sweep[" in c.case_id]
    assert len(sweep) == 200 and all(c.status == "error" for c in sweep)
    assert all(c.params["error"] == "DegenerateConfiguration: curvatures 1 and 2 coincide "
                                    "at stack index (3, 7)" for c in sweep)
    assert all(c.params["where"].startswith("quadric.py:") for c in sweep)
    assert {c.status for c in cases if c not in sweep} == {"pass"}


def test_verdict_digest_matches_benchmark_reference():
    # the digest benchmarks/run.py pins: a verdict change fails here, not only in the benchmark
    refs = json.loads((Path(__file__).resolve().parents[1] / "benchmarks" / "refs.json")
                      .read_text(encoding="utf-8"))["verify"]["all"]
    cases = run_suite("all", 0)
    assert len(cases) == refs["cases"] == 3957
    lines = "\n".join(f"{c.case_id},{c.status}" for c in sorted(cases, key=lambda c: c.case_id))
    assert hashlib.sha256(lines.encode()).hexdigest() == refs["digest"]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

SRC_DIR = str(Path(liesphere.__file__).resolve().parents[1])


def run_cli(*args):
    # the subprocess imports the same liesphere as the tests, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "liesphere.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cli_unknown_suite_exits_2():
    proc = run_cli("verify", "--suite", "bogus")
    assert proc.returncode == 2


def test_cli_verify_passes_and_writes_report(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--suite", "sign_certificates", "--seed", "0",
                   "--out", str(out), "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert payload["run"] == {"seed": 0, "version": "0.1.0"}
    assert all(case["status"] == "pass" for case in payload["cases"])


def test_cli_family_csv(tmp_path):
    out = tmp_path / "family.csv"
    proc = run_cli("family", "--g", "4", "--m1", "1", "--m2", "1",
                   "--theta", "0.0", "--csv", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,lambda_1,lambda_2,lambda_3,lambda_4,H,S,R"
    values = [float(v) for v in lines[1].split(",")]
    assert abs(values[5]) <= 1e-12   # H = 0 at the symmetric member
    assert abs(values[7]) <= 1e-9    # scalar flat for m1 = m2 = 1


def test_cli_family_markdown():
    proc = run_cli("family", "--g", "3", "--m1", "2", "--m2", "2",
                   "--theta", "0.1", "--markdown")
    assert proc.returncode == 0
    assert proc.stdout.startswith("| theta | lambda_1 |")


@pytest.mark.parametrize("g", (4, 6))
def test_cli_family_prints_the_closed_form_scalar_curvature(g, capsys):
    # m1 = m2 = 1 makes R = 0 exactly; the general H^2 - S form printed noise there
    assert cli.main(["family", "--g", str(g), "--grid", "10"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.endswith(",R") and len(rows) == 10
    assert [row.split(",")[-1] for row in rows] == ["0"] * 10


def test_cli_polygon_svg(tmp_path):
    out = tmp_path / "poly.svg"
    proc = run_cli("polygon", "--g", "6", "--theta", "0.1", "--svg", str(out))
    assert proc.returncode == 0
    assert out.exists()
    assert "parallel=True" in proc.stdout
    assert "12-gon" in proc.stdout


def test_cli_solve_angles():
    proc = run_cli("solve-angles", "--g", "4")
    assert proc.returncode == 0
    assert "unique_cell=True" in proc.stdout


def test_cli_search():
    proc = run_cli("search", "--g", "3", "--constraints", "cmc", "--grid", "6",
                   "--seed", "0")
    assert proc.returncode == 0
    assert "survivor" in proc.stdout


_SEARCH_ARGV = ["search", "--g", "3", "--constraints", "cmc", "--grid", "6"]
_CLI_SEQUENCE = (["verify", "--suite", "sign_certificates"], _SEARCH_ARGV + ["--seed", "3"],
                 _SEARCH_ARGV, ["family", "--g", "4", "--grid", "3"],
                 ["search", "--g", "5", "--constraints", "cmc"],
                 ["verify", "--suite", "dji_kernels"])


def _main_output(argv, capsys):
    """(exit code, stdout, stderr) of one in-process cli.main call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_parser_is_built_once_and_reused(monkeypatch, capsys):
    cli._parser.cache_clear()
    reused = [_main_output(argv, capsys) for argv in _CLI_SEQUENCE]
    assert cli._parser.cache_info().misses == 1  # one parser for the whole sequence
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0]
    assert "invalid choice: 5" in reused[4][2]
    # no --seed after a --seed 3 call still means seed 0, which gives other survivors
    assert reused[2] == _main_output(_SEARCH_ARGV + ["--seed", "0"], capsys) != reused[1]
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    assert [_main_output(argv, capsys) for argv in _CLI_SEQUENCE] == reused


def test_cli_dji(tmp_path):
    out = tmp_path / "dji.json"
    proc = run_cli("dji", "--g", "6", "--constraints", "cmc,clc", "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "kernel_dim=0" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["kernel_dimension"] == 0
    names = {c["name"] for c in payload["certificates"]}
    assert "g6_one_minus_v_over_w" in names
    assert all(c["holds"] for c in payload["certificates"])


def test_cli_dji_unpinned_cmc_only():
    proc = run_cli("dji", "--g", "4", "--constraints", "cmc", "--no-pinned")
    assert proc.returncode == 0
    assert "kernel_dim=8" in proc.stdout   # 12 unknowns minus 4 independent rows


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    # a failing case must yield exit code 1: shrink a tolerance to force failure
    proc = run_cli("verify", "--suite", "sign_certificates", "--tol", "1e30")
    # tol override raises the certificate margin requirement beyond reach -> failures
    assert proc.returncode == 1
    assert "FAIL " in proc.stdout   # exit 1 also follows a failed import
