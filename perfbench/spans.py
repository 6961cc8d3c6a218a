"""Span tracer for the traced benchmark run.

The tracer wraps library functions under the name their caller looks them up
by (``microhom.solver.apply_green``, ``numpy.fft.fft2``, ...) and records one
span per call: name, start, end, parent span, thread, operation number and
item (unit-load, sample or element index).  Spans stay in memory and are
written out when the run ends.  The wrappers exist only between
:meth:`Tracer.install` and :meth:`Tracer.uninstall`; the end-to-end
run never sees them.

Bytes labelled ``bytes_computed`` are sums of the array sizes a call reads
and writes, not measured memory traffic.
"""

from __future__ import annotations

import gzip
import importlib
import json
import threading
import time
import warnings

import numpy as np

ASYMMETRY_WARNING = "homogenized stiffness asymmetry"


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _unit_load_index(args, kwargs):
    load = np.asarray(kwargs.get("macro_strain", args[1] if len(args) > 1 else None))
    nonzero = np.flatnonzero(load)
    return int(nonzero[0]) if nonzero.size == 1 else None


def _fft_bytes(args, kwargs, out):
    return {"fft.bytes_computed": _nbytes(args[0], out)}


def _asymmetry(args, kwargs, out):
    return {"homogenization.asymmetry": ("max", out[1])}


def _written_bytes(args, kwargs, out):
    return {"arrayio.write_array.bytes": _nbytes(args[1])}


def _solve_counts(args, kwargs, res):
    return {
        "solver.iterations": res.iterations,
        "solver.loads_converged": int(res.converged),
    }


# (module, attribute, span name, item from args, counters from (args, kwargs, result)).
# Each function is wrapped at every module that calls it, because a module
# that did `from .x import f` looks `f` up in its own namespace.
TARGETS = [
    ("numpy.fft", "fft2", "fft.fft2", None, _fft_bytes),
    ("numpy.fft", "ifft2", "fft.ifft2", None, _fft_bytes),
    ("microhom.solver", "apply_green", "green.apply_green", None,
     lambda a, k, r: {"green.apply_green.bytes_computed": _nbytes(a[0], a[1], r)}),
    ("microhom.solver", "convergence_metric", "solver.convergence_metric", None, None),
    ("microhom.homogenization", "make_freq_grid", "green.make_freq_grid", None, None),
    ("microhom.homogenization", "green_operator", "green.green_operator", None, None),
    ("microhom.homogenization", "solve_unit_load", "solver.solve_unit_load",
     _unit_load_index, _solve_counts),
    ("microhom.homogenization", "strain_concentration",
     "homogenization.strain_concentration", None, None),
    ("microhom.dataset", "strain_concentration",
     "homogenization.strain_concentration", None, None),
    ("microhom.plate", "strain_concentration",
     "homogenization.strain_concentration", None, None),
    ("microhom.homogenization", "homogenized_stiffness",
     "homogenization.homogenized_stiffness", None, _asymmetry),
    ("microhom.plate", "homogenized_stiffness",
     "homogenization.homogenized_stiffness", None, _asymmetry),
    ("microhom.dataset", "generate_fiber_rve", "microstructure.generate_fiber_rve", None, None),
    ("microhom.plate", "generate_fiber_rve", "microstructure.generate_fiber_rve", None, None),
    ("microhom.dataset", "assign_properties", "microstructure.assign_properties", None, None),
    ("microhom.plate", "assign_properties", "microstructure.assign_properties", None, None),
    ("microhom.dataset", "write_array", "arrayio.write_array", None, _written_bytes),
    ("microhom.plate", "write_array", "arrayio.write_array", None, _written_bytes),
    ("microhom.dataset", "read_array", "arrayio.read_array", None,
     lambda a, k, r: {"arrayio.read_array.bytes": _nbytes(r)}),
    ("microhom.dataset", "generate_dataset", "dataset.generate_dataset", None, None),
    # The per-sample unit of work; private, but the only boundary around one sample.
    ("microhom.dataset", "_generate_one", "dataset.sample", lambda a, k: a[1], None),
    ("microhom.dataset", "validate_dataset", "dataset.validate_dataset", None, None),
    ("microhom.plate", "run_multiscale", "plate.run_multiscale", None, None),
    ("microhom.plate", "kl_field", "plate.kl_field", None, None),
    ("microhom.plate", "element_response", "plate.element_response", None, None),
    ("microhom.plate", "solve_plate", "plate.solve_plate", None,
     lambda a, k, r: {"plate.newton_iterations": sum(s.newton_iterations for s in r)}),
    ("microhom.plate", "assemble_stiffness", "plate.assemble_stiffness", None, None),
    ("scipy.sparse.linalg", "splu", "plate.splu", None, None),
    ("microhom.plate", "element_strains", "plate.element_strains", None, None),
]

# Marks the element or sample a worker thread is on: both the dataset and the
# plate derive each item's seed with sample_seed(master_seed, index) first.
ITEM_MARKERS = [("microhom.dataset", "sample_seed"), ("microhom.plate", "sample_seed")]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, thread, op, item]
        self.counters = {}  # op -> {counter: value}
        self.missing = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self._op = None
        self._op_root = None
        self._main = None
        self._warnings = None
        self._show = None

    # -- operations ---------------------------------------------------------
    def begin_op(self, op: int) -> None:
        """Open the root span of one traced operation (main thread)."""
        self._op = op
        self.counters[op] = {}
        self._local.item = None
        self._main = self._stack()
        self._op_root = self._open("op", None)

    def end_op(self) -> None:
        self._close(self._op_root)
        self._op = self._op_root = None

    # -- spans --------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, item):
        stack = self._stack()
        # A worker thread's first span was caused by the span open in the
        # thread that started the operation (the one that made the pool).
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        if item is None and parent is not None:
            item = self.spans[parent][6]
        if item is None:
            item = getattr(self._local, "item", None)
        span = [name, time.perf_counter(), None, parent, threading.get_ident(), self._op, item]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def _count(self, values: dict) -> None:
        if self._op is None:
            return
        with self._lock:
            counts = self.counters[self._op]
            for key, value in values.items():
                if isinstance(value, tuple):  # ("max", x)
                    counts[key] = max(counts.get(key, value[1]), value[1])
                else:
                    counts[key] = counts.get(key, 0) + value

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, fn, name, item_of, counts_of):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name, item_of(args, kwargs) if item_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counts_of is not None:
                tracer._count(counts_of(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _mark_item(self, fn):
        tracer = self

        def marked(*args, **kwargs):
            tracer._local.item = int(args[1])
            return fn(*args, **kwargs)

        marked.__wrapped__ = fn
        return marked

    def _show_warning(self, message, category, *rest):
        if ASYMMETRY_WARNING in str(message):
            self._count({"homogenization.asymmetry_warnings": 1})
        self._show(message, category, *rest)

    def _patch(self, module_name, attr, wrap) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, wrap(fn))

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, item_of, counts_of in TARGETS:
            self._patch(module_name, attr, lambda fn: self._wrap(fn, name, item_of, counts_of))
        for module_name, attr in ITEM_MARKERS:
            self._patch(module_name, attr, self._mark_item)
        # Count every asymmetry warning: "always" stops the once-per-text
        # registry from hiding repeats; each warning is still shown.
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.filterwarnings("always", message=ASYMMETRY_WARNING)
        self._show = warnings.showwarning
        warnings.showwarning = self._show_warning

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []
        self._warnings.__exit__(None, None, None)

    # -- output -------------------------------------------------------------
    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "thread", "op", "item")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union_length(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _union_length(kids) for span, kids in zip(spans, children)
    ]


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


# Per-layer metric units; the metric values come from op_metrics.
UNITS = {
    "solver.iterations": "count",
    "solver.ms_per_iteration": "ms",
    "solver.solve_unit_load.self_s": "s",
    "solver.converged_frac": "ratio",
    "solver.convergence_metric.self_s": "s",
    "fft.fft2.self_s": "s",
    "fft.ifft2.self_s": "s",
    "fft.calls": "count",
    "fft.bytes_computed": "bytes",
    "green.apply_green.self_s": "s",
    "green.apply_green.calls": "count",
    "green.apply_green.bytes_computed": "bytes",
    "green.green_operator.s": "s",
    "green.make_freq_grid.s": "s",
    "microstructure.generate_fiber_rve.s": "s",
    "microstructure.assign_properties.s": "s",
    "homogenization.strain_concentration.s.p50": "s",
    "homogenization.strain_concentration.s.p90": "s",
    "homogenization.homogenized_stiffness.s": "s",
    "homogenization.asymmetry": "GPa",
    "homogenization.asymmetry_warnings": "count",
    "arrayio.write_array.s": "s",
    "arrayio.write_array.bytes": "bytes",
    "arrayio.read_array.s": "s",
    "arrayio.read_array.bytes": "bytes",
    "dataset.validate_dataset.s": "s",
    "dataset.worker_busy_frac": "ratio",
    "dataset.sample_s.p50": "s",
    "dataset.sample_s.p90": "s",
    "plate.element_response.s": "s",
    "plate.micro_busy_frac": "ratio",
    "plate.kl_field.s": "s",
    "plate.assemble_stiffness.s": "s",
    "plate.splu.s": "s",
    "plate.element_strains.s": "s",
    "plate.solve_plate.self_s": "s",
    "plate.newton_iterations": "count",
    "plate.macro_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def op_metrics(tracer: Tracer, op: int, workers: int) -> dict:
    """Per-layer values of one traced operation (all UNITS but the overhead).

    Layers that do not run in the operation read 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    total, self_s, calls, durations = {}, {}, {}, {}
    for i, s in enumerate(spans):
        if s[5] != op:
            continue
        d = s[2] - s[1]
        total[s[0]] = total.get(s[0], 0.0) + d
        self_s[s[0]] = self_s.get(s[0], 0.0) + selfs[i]
        calls[s[0]] = calls.get(s[0], 0) + 1
        durations.setdefault(s[0], []).append(d)
    counts = tracer.counters.get(op, {})
    root = next(s for s in spans if s[5] == op and s[0] == "op")
    op_wall = root[2] - root[1]

    # Busy time of worker threads: their outermost spans.
    worker_tops = [
        s for s in spans
        if s[5] == op and s[4] != root[4] and spans[s[3]][4] == root[4]
    ]
    busy = sum(s[2] - s[1] for s in worker_tops)
    phase = (
        max(s[2] for s in worker_tops) - min(s[1] for s in worker_tops)
        if worker_tops else 0.0
    )

    loads = calls.get("solver.solve_unit_load", 0)
    iterations = counts.get("solver.iterations", 0)
    samples = durations.get("dataset.sample", [])
    conc = durations.get("homogenization.strain_concentration", [])
    generate = total.get("dataset.generate_dataset", 0.0)
    return {
        "solver.iterations": iterations,
        "solver.ms_per_iteration": (
            1e3 * total.get("solver.solve_unit_load", 0.0) / iterations if iterations else 0.0
        ),
        "solver.solve_unit_load.self_s": self_s.get("solver.solve_unit_load", 0.0),
        "solver.converged_frac": (
            counts.get("solver.loads_converged", 0) / loads if loads else 0.0
        ),
        "solver.convergence_metric.self_s": self_s.get("solver.convergence_metric", 0.0),
        "fft.fft2.self_s": self_s.get("fft.fft2", 0.0),
        "fft.ifft2.self_s": self_s.get("fft.ifft2", 0.0),
        "fft.calls": calls.get("fft.fft2", 0) + calls.get("fft.ifft2", 0),
        "fft.bytes_computed": counts.get("fft.bytes_computed", 0),
        "green.apply_green.self_s": self_s.get("green.apply_green", 0.0),
        "green.apply_green.calls": calls.get("green.apply_green", 0),
        "green.apply_green.bytes_computed": counts.get("green.apply_green.bytes_computed", 0),
        "green.green_operator.s": total.get("green.green_operator", 0.0),
        "green.make_freq_grid.s": total.get("green.make_freq_grid", 0.0),
        "microstructure.generate_fiber_rve.s": total.get("microstructure.generate_fiber_rve", 0.0),
        "microstructure.assign_properties.s": total.get("microstructure.assign_properties", 0.0),
        "homogenization.strain_concentration.s.p50": _pct(conc, 50),
        "homogenization.strain_concentration.s.p90": _pct(conc, 90),
        "homogenization.homogenized_stiffness.s": total.get("homogenization.homogenized_stiffness", 0.0),
        "homogenization.asymmetry": counts.get("homogenization.asymmetry", 0.0),
        "homogenization.asymmetry_warnings": counts.get("homogenization.asymmetry_warnings", 0),
        "arrayio.write_array.s": total.get("arrayio.write_array", 0.0),
        "arrayio.write_array.bytes": counts.get("arrayio.write_array.bytes", 0),
        "arrayio.read_array.s": total.get("arrayio.read_array", 0.0),
        "arrayio.read_array.bytes": counts.get("arrayio.read_array.bytes", 0),
        "dataset.validate_dataset.s": total.get("dataset.validate_dataset", 0.0),
        "dataset.worker_busy_frac": sum(samples) / (workers * generate) if generate else 0.0,
        "dataset.sample_s.p50": _pct(samples, 50),
        "dataset.sample_s.p90": _pct(samples, 90),
        "plate.element_response.s": total.get("plate.element_response", 0.0),
        "plate.micro_busy_frac": (
            busy / (workers * phase) if "plate.element_response" in total and phase else 0.0
        ),
        "plate.kl_field.s": total.get("plate.kl_field", 0.0),
        "plate.assemble_stiffness.s": total.get("plate.assemble_stiffness", 0.0),
        "plate.splu.s": total.get("plate.splu", 0.0),
        "plate.element_strains.s": total.get("plate.element_strains", 0.0),
        "plate.solve_plate.self_s": self_s.get("plate.solve_plate", 0.0),
        "plate.newton_iterations": counts.get("plate.newton_iterations", 0),
        "plate.macro_frac": total.get("plate.solve_plate", 0.0) / op_wall,
    }
