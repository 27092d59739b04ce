"""In-memory spans around liesphere's public functions, recorded from outside.

Every traced function is replaced, in each liesphere module namespace that
holds it, by a wrapper that records one span: the CLI call it belongs to,
its name, its parent span, its start and its end. Self time is a span's
duration minus the durations of its direct child spans. Nothing under
``src/`` is edited; the originals are put back when tracing ends.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from array import array

# Functions named by module.  A name that no longer exists raises at install
# time, so a refactor can never read as zero calls.
TRACED = {
    "cli": ("main",),
    "report": ("emit_report",),
    "polygon": ("constraint_search", "g4_grid_oracle", "g6_grid_oracle",
                "solve_g4_normalized", "solve_g6_normalized", "conformal_normalize",
                "isometry_reduction", "build_parallel_polygon", "polygon_from_positions",
                "angle_table"),
    "indefinite": ("random_lie_transform", "is_lie_transform", "compose", "invert"),
    "quadric": ("lie_curvature", "moebius_curvature", "cross_ratio",
                "moebius_coefficients", "lie_curvature_of_values"),
    "isoparam": ("principal_curvatures", "mean_curvature", "theta_from_mean_curvature",
                 "scalar_curvature"),
    "dji": ("g6_d5_obstruction", "build_system", "kernel_analysis", "sign_certificates"),
}

SUITES = ("lie_invariance", "cross_ratio_identity", "isoparametric_formulas",
          "angle_solvers", "dji_kernels", "sign_certificates", "isometry_reduction",
          "constraint_search")


def traced_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def replace_everywhere(original, replacement, patches: list) -> None:
    """Point every liesphere module attribute bound to `original` at `replacement`.

    Appends (namespace, attribute, original) to `patches` for restore().
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "liesphere" or mod_name.startswith("liesphere.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patches.append((module, attr, original))


def restore(patches: list) -> None:
    while patches:
        namespace, attr, original = patches.pop()
        if isinstance(namespace, dict):
            namespace[attr] = original
        else:
            setattr(namespace, attr, original)


class Tracer:
    """Span recorder; `call` is the identifier shared by the spans of one CLI call."""

    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.self_ns: list = []
        self.total_ns: list = []
        # flat span records: call, span id, name id, parent span id (-1 at top), start, end
        self.spans = array("q")
        self.call = 0
        self._ids: dict = {}
        self._next_id = 0
        self._stack: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0]  # own id, time covered by direct children
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                self.calls[nid] += 1
                self.self_ns[nid] += duration - frame[1]
                self.total_ns[nid] += duration
                self.spans.extend((self.call, span_id, nid, parent, start, end))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function and every report suite; restore on exit."""
        patches: list = []
        try:
            for mod_name, fn_names in TRACED.items():
                module = importlib.import_module(f"liesphere.{mod_name}")
                for fn_name in fn_names:
                    original = getattr(module, fn_name, None)
                    if not callable(original):
                        raise LookupError(f"traced function liesphere.{mod_name}.{fn_name} "
                                          "is missing")
                    wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                    replace_everywhere(original, wrapper, patches)
            suites = importlib.import_module("liesphere.report")._SUITES
            missing = [name for name in SUITES if name not in suites]
            if missing:
                raise LookupError(f"report._SUITES lacks {missing}")
            for name in SUITES:
                patches.append((suites, name, suites[name]))
                suites[name] = self.wrap(f"report.suite.{name}", suites[name])
            yield self
        finally:
            restore(patches)

    def stats(self) -> dict:
        """name -> (calls, self seconds, total seconds)."""
        return {name: (self.calls[k], self.self_ns[k] * 1e-9, self.total_ns[k] * 1e-9)
                for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as gzip CSV: call,span,name,parent,start_ns,end_ns."""
        rows = self.spans
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as handle:
            handle.write("call,span,name,parent,start_ns,end_ns\n")
            for k in range(0, len(rows), 6):
                handle.write(f"{rows[k]},{rows[k + 1]},{self.names[rows[k + 2]]},"
                             f"{rows[k + 3]},{rows[k + 4]},{rows[k + 5]}\n")
