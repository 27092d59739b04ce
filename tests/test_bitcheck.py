import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bitcheck", Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitcheck)


def _dump(**hashes):
    return {"searches": {"g3:cmc:grid5:seed0": []},
            "suites": {"seed0:x/a": {"status": "pass", "residual": "0x0.0p+0"}},
            "report_sha256": {"seed0:json": "aa", "seed0:csv": "bb", **hashes}}


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
