"""The names that benchmarks/spans.py traces resolve in the package.

spans.py raises at install time when a traced function or suite is gone, so a
rename would first show as a failed benchmark run; these tests catch it here.
The file is read as it is and never changed.
"""

import importlib
import importlib.util
from pathlib import Path

from liesphere import report

_SPEC = importlib.util.spec_from_file_location(
    "spans", Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def test_every_traced_name_resolves_in_its_module():
    missing = [f"liesphere.{name}" for name in spans.traced_names()
               if not callable(getattr(importlib.import_module(
                   f"liesphere.{name.partition('.')[0]}"), name.partition(".")[2], None))]
    assert missing == []


def test_traced_suites_are_the_report_suites():
    assert spans.SUITES == tuple(report._SUITES)
