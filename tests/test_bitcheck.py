import importlib.util
import json
from pathlib import Path

import numpy as np

from liesphere import dji, isoparam, report

_SPEC = importlib.util.spec_from_file_location(
    "bitcheck", Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitcheck)


def _dump(**hashes):
    return {"searches": {"g3:cmc:grid5:seed0": []},
            "suites": {"seed0:x/a": {"status": "pass", "residual": "0x0.0p+0"}},
            "report_sha256": {"seed0:json": "aa", "seed0:csv": "bb", **hashes},
            "systems": {"free:g6": {"rows": [], "unknown_labels": [[1, 2]], "row_labels": []},
                        "certificates:g4": [["g4_d23_ratio", "0x1.0p+0", "positive"]]}}


def test_diff_compares_the_report_hashes():
    assert bitcheck.diff(_dump(), _dump()) == []
    assert bitcheck.diff(_dump(), _dump(**{"seed0:csv": "cc"})) == [
        'report_sha256 seed0:csv: "bb" != "cc"']


def test_diff_reads_a_dump_without_report_hashes():
    old = _dump()
    del old["report_sha256"]
    assert bitcheck.diff(old, _dump()) == [] and bitcheck.diff(_dump(), old) == []
    assert bitcheck.unshared_parts(old, _dump()) == ["report_sha256"]
    changed = _dump()
    changed["suites"]["seed0:x/a"]["status"] = "fail"
    assert len(bitcheck.diff(old, changed)) == 1


def test_main_names_the_part_it_did_not_compare(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text('{"searches": {}, "suites": {}}', encoding="utf-8")
    new.write_text('{"searches": {}, "suites": {}, "report_sha256": {"seed0:json": "aa"}}',
                   encoding="utf-8")
    assert bitcheck.main(["diff", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "report_sha256: only one dump has this part; not compared" in out
    assert out.splitlines()[-1].startswith("0 difference(s)")


def test_diff_compares_the_systems_and_reads_a_dump_without_them():
    changed = _dump()
    changed["systems"]["certificates:g4"][0][1] = "0x1.0000000000001p+0"
    assert bitcheck.diff(_dump(), changed) == [
        'systems certificates:g4: [["g4_d23_ratio", "0x1.0p+0", "positive"]] != '
        '[["g4_d23_ratio", "0x1.0000000000001p+0", "positive"]]']
    old = _dump()
    del old["systems"]
    assert bitcheck.diff(old, changed) == []
    assert bitcheck.unshared_parts(changed, old) == ["systems"]


def test_dump_systems_holds_every_dji_kernels_system_and_certificate():
    systems = json.loads(json.dumps(bitcheck.dump_systems()))
    assert len(systems) == 2 * len(report._KERNEL_SYSTEMS) + 3 + 2
    pcs = isoparam.principal_curvatures(isoparam.IsoparametricFamily(6, 2, 2, 0.0))
    built = dji.build_system(6, pcs, 2, 2, ("cmc", "clc"), dji.critical_point_pinning(6))
    entry = systems["kernel:g6:cmc+clc:m22"]
    assert np.array_equal([[float.fromhex(v) for v in row] for row in entry["rows"]], built.rows)
    assert [tuple(label) for label in entry["unknown_labels"]] == list(built.unknown_labels)
    assert entry["row_labels"] == list(built.row_labels)
    assert systems["free:g6"]["rows"] == [] and len(systems["free:g6"]["unknown_labels"]) == 30
    certificates = systems["certificates:g4"] + systems["certificates:g6"]
    assert len(certificates) == 26 and all(claim in ("positive", "negative")
                                           for _, _, claim in certificates)


def _suites(**cases):
    """A dump holding only suites entries: key -> (status, residual, tolerance)."""
    return {"suites": {key: {"status": status, "residual": float(residual).hex(),
                             "tolerance": float(tolerance).hex(), "params": {}}
                       for key, (status, residual, tolerance) in cases.items()}}


def test_suite_summary_of_a_moved_residual():
    old = _suites(**{"seed0:s/a[0]": ("pass", 1e-15, 1e-8), "seed1:s/a[1]": ("pass", 2e-15, 1e-8),
                     "seed0:s/b": ("pass", 1e-12, 1e-8)})
    new = _suites(**{"seed0:s/a[0]": ("pass", 1e-15, 1e-8), "seed1:s/a[1]": ("pass", 3e-15, 1e-8),
                     "seed0:s/b": ("pass", 1e-12, 1e-8)})
    new["suites"]["seed0:s/a[0]"]["params"] = {"draw": "0"}
    assert bitcheck.suite_summary(old, new) == [
        "suites s/a: 2 moved (1 in the residual), largest residual move 1e-15, "
        "largest moved residual/tolerance 3e-07, every status unchanged"]


def test_suite_summary_counts_a_status_flip(tmp_path, capsys):
    old = _suites(**{"seed0:s/a[0]": ("pass", 1e-9, 1e-8), "seed0:s/a[1]": ("pass", 1e-9, 1e-8)})
    new = _suites(**{"seed0:s/a[0]": ("fail", 2e-8, 1e-8), "seed0:s/a[1]": ("pass", 1e-9, 1e-8)})
    (line,) = bitcheck.suite_summary(old, new)
    assert line.startswith("suites s/a: 1 moved (1 in the residual)")
    assert "largest moved residual/tolerance 2," in line and line.endswith("1 status change(s)")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps({"searches": {}, **old}), encoding="utf-8")
    second.write_text(json.dumps({"searches": {}, **new}), encoding="utf-8")
    assert bitcheck.main(["diff", str(first), str(second)]) == 1
    out = capsys.readouterr().out.splitlines()
    # the entry line, then the family summary, then the count
    assert len(out) == 3 and out[0].startswith("suites seed0:s/a[0]: ") and out[1] == line


def test_main_prints_no_summary_for_an_unmoved_dump(tmp_path, capsys):
    cases = _suites(**{"seed0:s/a[0]": ("pass", 1e-15, 1e-8), "seed0:s/b": ("pass", 0.0, 1e-8)})
    assert bitcheck.suite_summary(cases, cases) == []
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for path in (first, second):
        path.write_text(json.dumps({"searches": {}, **cases}), encoding="utf-8")
    assert bitcheck.main(["diff", str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 difference(s) over 0 searches, 2 cases, 0 report hashes "
        "and 0 dji systems and certificate lists"]
