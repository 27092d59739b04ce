"""Output checks against the committed references in refs.json.

Every function returns a list of problems; an empty list means the call's
output matches its reference.
"""

from __future__ import annotations

import hashlib
import json
import re

THETA_TOL = 1e-6

_SURVIVOR_COUNT = re.compile(r"^(\d+) survivor\(s\) at residual")
_SURVIVOR_LINE = re.compile(r"^\s+\[\d+\] theta1=(\S+) residual=\S+ parallel=(True|False)$")


def verdict_digest(pairs) -> str:
    """sha256 over the sorted "case_id,status" lines of a report."""
    text = "\n".join(f"{case_id},{status}" for case_id, status in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()


def search_key(g: int, constraints, grid: int, seed: int) -> str:
    return f"g{g}:{'+'.join(sorted(constraints))}:grid{grid}:seed{seed}"


def check_survivors(reference: list, found: list) -> list:
    """`reference`: theta1 values; `found`: (theta1, parallel) pairs of one search."""
    problems = []
    if len(found) != len(reference):
        problems.append(f"{len(found)} survivors, reference has {len(reference)}")
    if not all(parallel for _, parallel in found):
        problems.append("a survivor is not parallel")
    if len(found) == len(reference):
        worst = max((abs(a - b) for a, b in zip(sorted(t for t, _ in found), sorted(reference))),
                    default=0.0)
        if worst > THETA_TOL:
            problems.append(f"theta1 differs from the reference by {worst:.3e}")
    return problems


def parse_search_stdout(text: str):
    """(survivor count as printed, [(theta1, parallel)]) from `liesphere search` output."""
    lines = text.splitlines()
    match = _SURVIVOR_COUNT.match(lines[0]) if lines else None
    count = int(match.group(1)) if match else -1
    found = [(float(m.group(1)), m.group(2) == "True")
             for m in map(_SURVIVOR_LINE.match, lines[1:]) if m]
    return count, found


def check_search(reference: list, code, stdout: str) -> list:
    problems = [] if code == 0 else [f"exit code {code!r}, expected 0"]
    count, found = parse_search_stdout(stdout)
    if count != len(found):
        problems.append(f"printed count {count} but {len(found)} survivor lines")
    return problems + check_survivors(reference, found)


def check_verify(reference: dict, code, stdout: str, report_path: str, seed: int) -> list:
    """Exit code, printed summary, and the verdict digest of the written JSON report."""
    problems = []
    if code != reference["exit"]:
        problems.append(f"exit code {code!r}, expected {reference['exit']}")
    if stdout != reference["stdout"].replace("{out}", report_path):
        problems.append("printed output differs from the reference")
    try:
        with open(report_path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        return problems + [f"report unreadable: {exc}"]
    cases = payload.get("cases", [])
    if payload.get("run", {}).get("seed") != seed or any(c.get("seed") != seed for c in cases):
        problems.append("report does not carry the requested seed")
    if len(cases) != reference["cases"]:
        problems.append(f"{len(cases)} cases, reference has {reference['cases']}")
    if verdict_digest((c["case_id"], c["status"]) for c in cases) != reference["digest"]:
        problems.append("verdict digest differs from the reference")
    return problems
