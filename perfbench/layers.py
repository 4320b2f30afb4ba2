"""Per-layer spans taken from outside the package.

The tracer wraps the public functions of each npivtest module in every
module namespace that binds them (``from .basis import eval_design`` copies
the name into ``adaptive`` and ``npiv``, so wrapping ``basis`` alone would miss
most calls). Spans stay in memory as (name, start, end, parent span,
operation) and are written out once the run ends.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layer -> wrapped public functions. Each must be in its module's __all__.
LAYERS = {
    "cli": ("load_csv_dataset", "render_report"),
    "sim": ("reproduce",),
    "dgp": ("generate",),
    "randdist": ("mvn_sample", "chisq_quantile", "chisq_sf"),
    "adaptive": ("build_grid", "adaptive_scan", "image_space_scan", "compute_shat", "compute_D",
                 "compute_vhat", "gamma_hat", "decide"),
    "npiv": ("fit_from_design", "fit_restricted_cone", "cone_project", "fit_restricted_parametric"),
    "basis": ("eval_design", "tensor_design", "deriv_constraints"),
    "linalg": ("orthonormal_range", "pinv", "sym_inv_sqrt"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Counts taken at the wrapped boundary: (counter, wrapped function, count of one call).
# The *.cells counts are computed from array shapes, not reported by the package.
COUNTERS = (
    ("basis.eval_design.cells", "basis.eval_design", lambda args, kwargs, out: int(np.size(out))),
    ("linalg.orthonormal_range.cells", "linalg.orthonormal_range",
     lambda args, kwargs, out: int(np.size(args[0] if args else kwargs["b"]))),
    ("adaptive.candidates", "adaptive.adaptive_scan", lambda args, kwargs, out: len(out[1])),
    ("adaptive.candidates", "adaptive.image_space_scan", lambda args, kwargs, out: len(out[1])),
    ("npiv.cone_project.active_rows", "npiv.cone_project", lambda args, kwargs, out: len(out[1])),
)

OP = "op"  # root span of one benchmark operation; its self time is the untraced remainder


class Tracer:
    """Wraps the LAYERS functions while installed; records spans tagged with their operation, and counts."""

    def __init__(self):
        self.names = [OP, *FUNCTIONS]
        self.spans: list = []  # (name index, start, end, parent span index or -1, operation id)
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNTERS}
        self.missing: list[str] = []
        self._stack = [-1]
        self._op = -1
        self._restore: list = []

    def install(self):
        pkg_modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "npivtest" or name.startswith("npivtest."))]
        for qual in FUNCTIONS:
            mod_name, fn_name = qual.split(".")
            home = sys.modules.get(f"npivtest.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None or fn_name not in getattr(home, "__all__", ()):
                self.missing.append(qual)
                continue
            counters = [(cname, fn) for cname, target, fn in COUNTERS if target == qual]
            wrapper = self._wrap(self.names.index(qual), original, counters)
            for mod in pkg_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name_index: int, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_index, start, end, parent, self._op)
            for cname, count in counters:
                counts[cname] += count(args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def operation(self, op_id: int):
        """Root span around one benchmark operation."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (0, start, end, -1, op_id)
            self._op = -1

    def per_op(self) -> dict[int, dict[str, list]]:
        """Calls and self time per operation and span name: {op: {name: [calls, self_s]}}.

        Self time is the span's duration minus the durations of its direct
        children; spans nest strictly because one thread records them.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, list]] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            entry = out.setdefault(op, {}).setdefault(self.names[name], [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return out

    def op_walls(self) -> dict[int, float]:
        return {op: end - start for name, start, end, _, op in self.spans if name == 0}

    def save(self, path):
        """Write every span as parallel arrays (npz) with the name table."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez(path, names=np.array(self.names), name=arr[:, 0].astype(np.int32), start=arr[:, 1],
                 end=arr[:, 2], parent=arr[:, 3].astype(np.int64), op=arr[:, 4].astype(np.int64))
