"""Spans around every public call into the ``dephchain`` layers.

:func:`install` wraps each public function and method of ``fock``,
``lindblad``, ``fastpath``, ``entangle`` and ``experiments`` in every
``dephchain`` namespace that binds it, so calls made by name from another
module (``experiments`` imports ``evolve``) or from inside the module
(``fock`` calls ``bilinear_operator``) are both seen. scipy's kernels are
wrapped only as ``lindblad`` and ``fastpath`` call them. Spans stay in memory
until :meth:`Tracer.dump`; :func:`layer_metrics` turns them into per-layer
self times and counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from pathlib import Path

LAYER_MODULES = ("fock", "lindblad", "fastpath", "entangle", "experiments")

# Names whose spans get their own group; the rest of a module is one group,
# except that unlisted lindblad names go to "lindblad.other".
GROUPS = {
    "lindblad.build_liouvillian": "lindblad.build",
    "lindblad.dephasing_liouvillian": "lindblad.build",
    "lindblad.evolve": "lindblad.evolve",
    "lindblad.steady_state_by_integration": "lindblad.steady",
    "lindblad.steady_state_null_space": "lindblad.steady",
    "lindblad.normalize_kernel_element": "lindblad.steady",
    "lindblad.invariant_deviations": "lindblad.checks",
    "lindblad.DensityMatrix.validate": "lindblad.checks",
    "lindblad.Trajectory.expectations": "lindblad.observe",
    "lindblad.Liouvillian.residual": "lindblad.observe",
    "lindblad.Liouvillian.apply": "lindblad.observe",
    "lindblad.Liouvillian.apply_matrix": "lindblad.observe",
    "lindblad.Liouvillian.trace_defect": "lindblad.observe",
    "lindblad.DensityMatrix.expectation": "lindblad.observe",
    "lindblad.conserved_charge_trace": "lindblad.observe",
    "lindblad.residual_of_steady_recursion": "lindblad.observe",
    "experiments.emit_plot_data": "experiments.emit",
}

# Self time of each group is reported as "<group>_s" (or "<layer>.s" for a
# whole-module group); span counts as "_calls" / ".calls" where listed.
TIME_METRICS = {
    "fock": "fock.s",
    "lindblad.build": "lindblad.build_s",
    "lindblad.evolve": "lindblad.evolve_s",
    "lindblad.dense_expm": "lindblad.dense_expm_s",
    "lindblad.expm_multiply": "lindblad.expm_multiply_s",
    "lindblad.steady": "lindblad.steady_s",
    "lindblad.checks": "lindblad.checks_s",
    "lindblad.observe": "lindblad.observe_s",
    "lindblad.other": "lindblad.other_s",
    "fastpath": "fastpath.s",
    "entangle": "entangle.s",
    "experiments": "experiments.self_s",
    "experiments.emit": "experiments.emit_s",
}
CALL_METRICS = {
    "fock": "fock.calls",
    "lindblad.build": "lindblad.build_calls",
    "lindblad.evolve": "lindblad.evolve_calls",
    "lindblad.dense_expm": "lindblad.dense_expm_calls",
    "lindblad.expm_multiply": "lindblad.expm_multiply_calls",
    "lindblad.steady": "lindblad.steady_calls",
    "lindblad.checks": "lindblad.checks_calls",
    "lindblad.observe": "lindblad.observe_calls",
    "fastpath": "fastpath.calls",
    "entangle": "entangle.calls",
}
COUNTERS = ("lindblad.superop_nnz", "lindblad.samples", "lindblad.propagated_t",
            "lindblad.steady_windows", "fastpath.nfev", "experiments.emit_bytes")


class Tracer:
    """In-memory span recorder: one (group, start, end, parent) per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []

    def wrap(self, fn, group: str | None, count=None):
        """``fn`` inside a span of ``group`` (no span when None); ``count``
        receives the result and adds to the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group is None:
                result = fn(*args, **kwargs)
                count(self.counters, result)
                return result
            index = len(self.spans)
            self.spans.append([group, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self.counters, result)
                return result
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def _count_liouvillian(counters, liouvillian):
    counters["lindblad.superop_nnz"] += int(liouvillian.matrix.nnz)


def _count_trajectory(counters, trajectory):
    counters["lindblad.samples"] += len(trajectory.times)
    counters["lindblad.propagated_t"] += float(trajectory.times[-1])


def _count_windows(counters, steady):
    counters["lindblad.steady_windows"] += int(steady.windows)


def _count_nfev(counters, solution):
    counters["fastpath.nfev"] += int(solution.nfev)


def _count_bytes(counters, paths):
    counters["experiments.emit_bytes"] += sum(Path(p).stat().st_size for p in paths)


COUNTS = {
    "lindblad.build_liouvillian": _count_liouvillian,
    "lindblad.evolve": _count_trajectory,
    "lindblad.steady_state_by_integration": _count_windows,
    "experiments.emit_plot_data": _count_bytes,
}


def _public_callables(module):
    """(group name, owner, attribute, callable) for every public function of
    ``module`` and every public method of its classes. A class that writes
    its own ``__init__`` (a builder such as ``ManyBodyBasis``) is traced at
    construction too."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, value in list(vars(module).items()):
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{layer}.{name}", module, name, value
        elif inspect.isclass(value) and not issubclass(value, BaseException):
            for attr, member in list(vars(value).items()):
                builder = attr == "__init__" and "__dataclass_fields__" not in vars(value)
                if attr.startswith("_") and not builder:
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    yield f"{layer}.{name}.{attr}", value, attr, member


def install(tracer: Tracer) -> None:
    """Wrap every public callable of the layer modules, in place, in every
    loaded ``dephchain`` namespace; call once per process, after import."""
    wrapped = {}
    for layer in LAYER_MODULES:
        for qualname, owner, attr, member in _public_callables(sys.modules[f"dephchain.{layer}"]):
            group = GROUPS.get(qualname, "lindblad.other" if layer == "lindblad" else layer)
            count = COUNTS.get(qualname)
            if inspect.ismodule(owner):
                wrapped[id(member)] = tracer.wrap(member, group, count)
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(owner, attr, type(member)(tracer.wrap(member.__func__, group, count)))
            else:
                setattr(owner, attr, tracer.wrap(member, group, count))
    for key, namespace in list(sys.modules.items()):
        if key == "dephchain" or key.startswith("dephchain."):
            for name, value in list(vars(namespace).items()):
                if id(value) in wrapped:
                    setattr(namespace, name, wrapped[id(value)])

    lindblad = sys.modules["dephchain.lindblad"]
    lindblad.expm = tracer.wrap(lindblad.expm, "lindblad.dense_expm")
    proxy = types.ModuleType(lindblad.splinalg.__name__)
    proxy.__dict__.update(vars(lindblad.splinalg))
    proxy.expm_multiply = tracer.wrap(lindblad.splinalg.expm_multiply, "lindblad.expm_multiply")
    lindblad.splinalg = proxy
    fastpath = sys.modules["dephchain.fastpath"]
    fastpath.solve_ivp = tracer.wrap(fastpath.solve_ivp, None, _count_nfev)


def layer_metrics(spans: list, counters: dict) -> tuple[dict, float]:
    """Per-layer metrics from recorded spans, and the summed self time.

    A span's self time is its duration minus its direct children's; calls
    are nested, never concurrent, so the children do not overlap.
    """
    duration = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for k, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[k]
    self_time = {group: 0.0 for group in TIME_METRICS}
    calls = {group: 0 for group in CALL_METRICS}
    for k, (group, *_rest) in enumerate(spans):
        self_time[group] += duration[k] - child_time[k]
        if group in calls:
            calls[group] += 1
    metrics = {TIME_METRICS[g]: (v, "s") for g, v in self_time.items()}
    metrics.update({CALL_METRICS[g]: (v, "count") for g, v in calls.items()})
    units = {"lindblad.propagated_t": "1/J", "experiments.emit_bytes": "bytes"}
    metrics.update({name: (counters[name], units.get(name, "count")) for name in COUNTERS})
    return metrics, sum(self_time.values())
