import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liesphere
from liesphere import cli, dji, isoparam, polygon, quadric
from liesphere.errors import DomainError
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


def test_empty_search_fails_all_parallel(monkeypatch):
    monkeypatch.setattr(polygon, "constraint_search", lambda *args, **kwargs: [])
    cases = run_suite("constraint_search", seed=0)
    assert any(c.case_id.endswith("_all_parallel") for c in cases)
    assert all(c.status == "fail" for c in cases)


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


def _raising(exc_type):
    def solver(*args, **kwargs):
        raise exc_type("injected")
    return solver


def test_suite_exception_becomes_aborted_error_record(monkeypatch):
    # an exception that escapes a suite is one error record, not a crash
    monkeypatch.setattr(polygon, "solve_g4_normalized", _raising(ArithmeticError))
    cases = run_suite("angle_solvers", seed=0)
    (aborted,) = [c for c in cases if c.case_id == "angle_solvers/aborted"]
    assert aborted.status == "error"
    assert aborted.params["error"].startswith("ArithmeticError")
    assert aborted.params["where"].endswith("in solver")
    assert aborted.tolerance == 0.0


def test_cli_suite_domain_error_exits_1(monkeypatch, capsys):
    # a DomainError raised mid-suite is an errored case (exit 1), not a usage error (exit 2)
    monkeypatch.setattr(polygon, "solve_g4_normalized", _raising(DomainError))
    assert cli.main(["verify", "--suite", "angle_solvers"]) == 1
    assert "ERROR angle_solvers/aborted" in capsys.readouterr().out


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
