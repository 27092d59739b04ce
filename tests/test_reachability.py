"""Every function in the package is reached from the command line, or is listed with a reason.

The probe runs each CLI command in-process under sys.setprofile and records
the code object of every Python call. A `def` in src/liesphere/ that no
command calls is dead weight unless ALLOWED names it: such an entry is a
helper kept for a case the report does not hold yet. Adding a case changes
the verdict digest that benchmarks/refs.json pins, so each entry waits for
a change that re-pins it.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import liesphere
from liesphere import cli

ALLOWED = {
    "polygon.polygon_lie_curvature":
        "the vertex route to the family Lie-curvature constants (Phi = -1 for g = 4; "
        "Psi_nu = -1, Phi_4 = -1/3, Phi_6 = 1/3 for g = 6), checked beside "
        "lie_curvature_of_values once the constants are cases",
    "dji.recover_pair":
        "the (mu, tau) recovery step of result (iii), g = 4 with cmc and constant Lie "
        "curvature, for a case of that step",
    "isoparam.minimal_theta":
        "the minimal member H = 0, which acceptance criterion 07 checks, for a case of it",
    "quadric.curvature_sphere":
        "the curvature sphere v k1 + u k2 of a contact element, for a case of the "
        "quadric machinery",
}


def _commands(out: Path):
    search = [["search", "--g", str(g), "--constraints", constraints, "--grid", "5"]
              for g, constraints in ((3, "cmc"), (4, "cmc,csc"), (6, "cmc,clc"))]
    return [
        *(["verify", "--suite", "all", "--seed", str(seed), "--format", fmt,
           "--out", str(out / f"report{seed}.{fmt}")]
          for seed in (0, 1) for fmt in ("json", "csv")),
        ["family", "--g", "4", "--m1", "2", "--m2", "2", "--grid", "5", "--markdown"],
        ["family", "--g", "6", "--theta", "0.05", "--csv", str(out / "family.csv")],
        ["family", "--g", "3"],
        ["polygon", "--g", "4", "--svg", str(out / "octagon.svg"), "--csv", str(out / "r4.csv")],
        ["polygon", "--g", "6", "--theta", "0.08", "--svg", str(out / "dodecagon.svg"),
         "--csv", str(out / "r6.csv")],
        ["dji", "--g", "6", "--constraints", "cmc,clc", "--json", str(out / "dji.json")],
        ["dji", "--g", "4", "--constraints", "cmc,csc", "--no-pinned"],
        ["dji", "--g", "3"],
        ["solve-angles", "--g", "4"],
        ["solve-angles", "--g", "6"],
        *search,
    ]


def _definitions(package: Path) -> dict:
    """{(module, first line): qualified name} of every def; the first line is a decorator's."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[module, first] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_every_definition_is_reached_or_allowed(tmp_path):
    package = Path(liesphere.__file__).parent
    # a cached function that earlier calls in this process filled would not run again
    for name, module in list(sys.modules.items()):
        if name.startswith("liesphere."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    seen = set()

    def probe(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(probe)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in _commands(tmp_path)]
    finally:
        sys.setprofile(None)
    assert 2 not in codes  # a usage error would leave its command's functions unreached

    definitions = _definitions(package)
    called = {(Path(code.co_filename).stem, code.co_firstlineno) for code in seen
              if Path(code.co_filename).parent == package}
    unreached = {definitions[key] for key in definitions.keys() - called}
    assert sorted(unreached - ALLOWED.keys()) == []
    # an entry whose function is gone or is now called leaves the list
    assert sorted(ALLOWED.keys() - unreached) == []
