import importlib.util
import json
from pathlib import Path

import numpy as np

from liesphere import dji, isoparam, polygon, report

_SPEC = importlib.util.spec_from_file_location(
    "bitcheck", Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitcheck)


def _dump(**hashes):
    return {"searches": {"g3:cmc:grid5:seed0": []},
            "suites": {"seed0:x/a": {"status": "pass", "residual": "0x0.0p+0"}},
            "report_sha256": {"seed0:json": "aa", "seed0:csv": "bb", **hashes},
            "systems": {"free:g6": {"rows": [], "unknown_labels": [[1, 2]], "row_labels": []},
                        "certificates:g4": [["g4_d23_ratio", "0x1.0p+0", "positive"]]},
            "oracles": {"g6:721": {"grid_minimum": ["0x1.0p-1", "0x1.0p-1"],
                                   "polished": ["0x1.0p-1", "0x1.0p-1"],
                                   "cell_size": "0x1.0p-8", "unique_cell": True}}}


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


def test_diff_compares_the_oracles_and_names_a_dump_without_them(tmp_path, capsys):
    changed = _dump()
    changed["oracles"]["g6:721"]["unique_cell"] = False
    (line,) = bitcheck.diff(_dump(), changed)
    assert line.startswith('oracles g6:721: {') and '"unique_cell": false}' in line
    old = _dump()
    del old["oracles"]
    assert bitcheck.diff(old, changed) == []
    assert bitcheck.unshared_parts(old, changed) == ["oracles"]
    first, second = tmp_path / "old.json", tmp_path / "new.json"
    first.write_text(json.dumps(old), encoding="utf-8")
    second.write_text(json.dumps(changed), encoding="utf-8")
    assert bitcheck.main(["diff", str(first), str(second)]) == 0
    assert "oracles: only one dump has this part; not compared" in capsys.readouterr().out


def test_dump_oracles_holds_both_oracles_at_each_resolution():
    oracles = json.loads(json.dumps(bitcheck.dump_oracles()))
    assert sorted(oracles) == sorted(f"g{g}:{resolution}" for g in (4, 6)
                                     for resolution in bitcheck.ORACLE_RESOLUTIONS)
    result = polygon.g6_grid_oracle(721)
    assert oracles["g6:721"] == {"grid_minimum": [v.hex() for v in result.grid_minimum],
                                 "polished": [float(v).hex() for v in result.polished],
                                 "cell_size": result.cell_size.hex(), "unique_cell": True}


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
        "largest moved residual/tolerance 3e-07, params moved: draw, every status unchanged"]


def test_suite_summary_names_the_moved_params_and_the_largest_numeric_move():
    old = _suites(**{f"seed{s}:iso/g4[0{k}]": ("pass", 0.0, 1e-10) for s in (0, 1) for k in (0, 1)})
    new = json.loads(json.dumps(old))
    for key, (x, y) in zip(sorted(old["suites"]), (("0.00e+00", "0.00e+00"),
                                                   ("-2.31e-15", "4.66e-15"),
                                                   ("1.18e-16", "0.00e+00"),
                                                   ("0.00e+00", "0.00e+00"))):
        old["suites"][key]["params"] = {"theta": "0.1", "map_x": "0.00e+00", "map_y": "0.00e+00"}
        new["suites"][key]["params"] = {"theta": "0.1", "map_x": x, "map_y": y}
    new["suites"]["seed1:iso/g4[01]"]["params"]["error"] = "DomainError: x"
    assert bitcheck.suite_summary(old, new) == [
        "suites iso/g4: 3 moved (0 in the residual), largest residual move 0, "
        "largest moved residual/tolerance 0, params moved: error, map_x, map_y "
        "(largest numeric move 4.66e-15), every status unchanged"]


def test_suite_summary_counts_a_status_flip(tmp_path, capsys):
    old = _suites(**{"seed0:s/a[0]": ("pass", 1e-9, 1e-8), "seed0:s/a[1]": ("pass", 1e-9, 1e-8)})
    new = _suites(**{"seed0:s/a[0]": ("fail", 2e-8, 1e-8), "seed0:s/a[1]": ("pass", 1e-9, 1e-8)})
    (line,) = bitcheck.suite_summary(old, new)
    assert line.startswith("suites s/a: 1 moved (1 in the residual)")
    assert line.endswith("largest moved residual/tolerance 2, no params moved, 1 status change(s)")
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
        "0 difference(s) over 0 searches, 0 extra searches, 2 cases, 0 report hashes "
        "and 0 dji systems and certificate lists"]


def test_extra_searches_cover_what_the_refs_lack():
    specs = bitcheck.EXTRA_SEARCHES
    refs = json.loads((Path(__file__).resolve().parents[1] / "benchmarks" / "refs.json")
                      .read_text(encoding="utf-8"))
    ref_keys = {tuple(bitcheck._search_args(key)) for key in refs["survivors"]}
    assert not {(g, tuple(sorted(c)), grid, seed) for g, c, grid, seed, m1, m2 in specs
                if (m1, m2) == (1, 1)} & {(g, tuple(sorted(c)), grid, seed)
                                          for g, c, grid, seed in ref_keys}
    assert {(g, m1, m2) for g, _, _, _, m1, m2 in specs} == {
        (3, 1, 1), (3, 2, 2), (4, 1, 1), (4, 2, 2), (4, 1, 2), (6, 1, 1), (6, 2, 2)}
    assert (4, ("cmc", "csc", "clc"), 20, 5, 1, 1) in specs
    assert (6, ("csc", "clc"), 10, 0, 1, 1) in specs
    assert {grid for _, _, grid, _, _, _ in specs} == {10, 20, 55}
    assert {seed for _, _, _, seed, _, _ in specs} == {0, 5, 83}
    # the first of test_polygon's _REJECTING_SEARCHES: it draws its starts one by one
    assert specs[-1] == (3, ("cmc",), 55, 83, 1, 1)


def test_dump_extra_searches_holds_each_survivor():
    specs = [(4, ("cmc", "csc"), 10, 5, 1, 2), (4, ("clc",), 10, 0, 1, 1)]
    extra = json.loads(json.dumps(bitcheck.dump_extra_searches(specs)))
    assert sorted(extra) == ["g4:clc:grid10:seed0:m11", "g4:cmc+csc:grid10:seed5:m12"]
    for spec in specs:
        survivors = polygon.constraint_search(*spec)
        entries = extra[bitcheck._extra_key(*spec)]
        assert len(entries) == len(survivors) >= 1
        for entry, s in zip(entries, survivors):
            assert entry == {"odd": [v.hex() for v in s.gaps.odd],
                             "even": [v.hex() for v in s.gaps.even],
                             "theta1": s.theta1.hex(), "residual": s.residual.hex(),
                             "parallel": s.parallel}


def test_diff_compares_the_extra_searches_and_names_a_dump_without_them(tmp_path, capsys):
    with_extra = {**_dump(), "extra_searches": {"g4:cmc:grid10:seed0:m22": []}}
    moved = json.loads(json.dumps(with_extra))
    moved["extra_searches"]["g4:cmc:grid10:seed0:m22"] = [{"theta1": "0x1.0p-1"}]
    assert bitcheck.diff(with_extra, with_extra) == []
    assert bitcheck.diff(with_extra, moved) == [
        'extra_searches g4:cmc:grid10:seed0:m22: [] != [{"theta1": "0x1.0p-1"}]']
    assert bitcheck.diff(_dump(), moved) == []
    assert bitcheck.unshared_parts(_dump(), moved) == ["extra_searches"]
    first, second = tmp_path / "old.json", tmp_path / "new.json"
    first.write_text(json.dumps(_dump()), encoding="utf-8")
    second.write_text(json.dumps(moved), encoding="utf-8")
    assert bitcheck.main(["diff", str(first), str(second)]) == 0
    assert "extra_searches: only one dump has this part; not compared" in capsys.readouterr().out


def test_certificate_summary_names_the_moved_certificates(tmp_path, capsys):
    old = {"searches": {}, "suites": {}, "systems": {"certificates:g6": [
        ["g6_v3", (-0.5).hex(), "negative"], ["g6_w3", (2.0).hex(), "positive"],
        ["g6_w6", (-0.25).hex(), "negative"]], "certificates:g4": [
        ["g4_d23_ratio", (1.0).hex(), "positive"]]}}
    new = json.loads(json.dumps(old))
    new["systems"]["certificates:g6"][0][1] = (-0.5 * (1 + 2 ** -51)).hex()
    new["systems"]["certificates:g6"][2][1] = (-0.25 * (1 - 2 ** -52)).hex()
    line = ("systems certificates:g6: 2 moved (g6_v3, g6_w6), largest relative move 4.44e-16, "
            "every claimed sign holds with the 1e-06 margin")
    assert bitcheck.certificate_summary(old, old) == []
    assert bitcheck.certificate_summary(old, new) == [line]
    new["systems"]["certificates:g6"][1][1] = (5e-7).hex()
    assert bitcheck.certificate_summary(old, new) == [
        "systems certificates:g6: 3 moved (g6_v3, g6_w3, g6_w6), largest relative move 1, "
        "claimed sign fails the 1e-06 margin: g6_w3"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(old), encoding="utf-8")
    second.write_text(json.dumps(new), encoding="utf-8")
    assert bitcheck.main(["diff", str(first), str(second)]) == 1
    out = capsys.readouterr().out.splitlines()
    # the entry line, then the certificate summary, then the count
    assert len(out) == 3 and out[0].startswith("systems certificates:g6: [")
    assert out[1].startswith("systems certificates:g6: 3 moved")
