"""Span tracing of the program's layers, installed from outside the program.

Every traced function is wrapped and the wrapper is installed at each name
that refers to it: in the defining module and in every module that took it
with ``from ... import``.  Each call records one span (name, start, end,
parent) in memory; self times and per-layer totals are derived at the end.
Only calls made while ``Tracer.on`` is set are recorded.
"""
from __future__ import annotations

import pathlib
import sys
import time
import warnings
from collections import Counter

import numpy as np

from checks import SNAPSHOT_HEADER

# (module, attribute, span name): the functions whose calls are spans
TRACED = [
    ("numpy.fft", "fftn", "field.fft"),
    ("numpy.fft", "ifftn", "field.fft"),
    ("flrw_dirac.gamma", "apply", "gamma.apply"),
    ("flrw_dirac.solver", "rhs", "solver.rhs"),
    ("flrw_dirac.solver", "step", "solver.step"),
    ("flrw_dirac.solver", "propagate", "solver.propagate"),
    ("flrw_dirac.field", "l2_norm_sq", "field.l2_norm_sq"),
    ("flrw_dirac.field", "sobolev_norm", "field.sobolev_norm"),
    ("flrw_dirac.field", "bilinear_densities", "field.bilinear_densities"),
    ("flrw_dirac.field", "gamma2_bilinear", "field.gamma2_bilinear"),
    ("flrw_dirac.field", "cone_mass", "field.cone_mass"),
    ("flrw_dirac.field", "support_radius", "field.support_radius"),
    ("flrw_dirac.field", "save_snapshot", "field.snapshot_io"),
    ("flrw_dirac.field", "load_snapshot", "field.snapshot_io"),
    ("flrw_dirac.models", "hyperbolic_rhs_nonlinearity", "models.nonlinearity"),
    ("flrw_dirac.kernels", "free_mode_multipliers", "kernels.free_mode_multipliers"),
    ("flrw_dirac.kernels", "hyp2f1", "kernels.hyp2f1"),
    ("flrw_dirac.kernels", "kernel_K1", "kernels.kernel_K1"),
    ("flrw_dirac.kernels", "kernel_K1_time_derivative", "kernels.kernel_K1_time_derivative"),
    ("flrw_dirac.kernels", "reconstruct_free", "kernels.reconstruct_free"),
    ("flrw_dirac.blowup", "total_j_mass", "blowup.total_j_mass"),
    ("flrw_dirac.blowup", "j_integral", "blowup.j_integral"),
    ("flrw_dirac.blowup", "empirical_blowup", "blowup.empirical_blowup"),
    ("flrw_dirac.cli", "cmd_verify", "diagnostics.verify"),
    ("flrw_dirac.solver", "RunRecord.to_dict", "cli.record_json"),
    ("json", "dumps", "cli.record_json"),
    ("pathlib", "Path.write_text", "cli.record_json"),
]


def _computed_bytes(name, args, out) -> int:
    """Bytes moved, computed from array sizes (not measured)."""
    if name == "field.fft":
        return np.asarray(args[0]).nbytes + out.nbytes
    if name == "field.snapshot_io":
        field = args[0] if out is None else out
        return SNAPSHOT_HEADER.size + field.data.nbytes
    return 0


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[list] = []  # [name, start, end, parent index, bytes]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            span[4] = _computed_bytes(name, args, out)
            return out

        return wrapper

    def _count_quad_warnings(self, quad):
        from scipy.integrate import IntegrationWarning

        tracer = self

        def counted_quad(*args, **kwargs):
            if not tracer.on:
                return quad(*args, **kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                out = quad(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, IntegrationWarning):
                    tracer.counters["blowup.quad_warnings"] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return out

        return counted_quad

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every TRACED function at every name that refers to it."""
        program = [m for n, m in sorted(sys.modules.items()) if n.startswith("flrw_dirac")]
        for module_name, attr, span_name in TRACED:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(span_name, original)
            self._patch(owner, leaf, wrapper)
            for module in program:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        blowup = sys.modules["flrw_dirac.blowup"]
        self._patch(blowup, "quad", self._count_quad_warnings(blowup.quad))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: pathlib.Path) -> None:
        """Write all spans once, as CSV: name,start,end,parent,bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,bytes\n")
            for name, start, end, parent, nbytes in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{nbytes}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's.  Spans come from one
    thread, so the children of a span run one after another inside it."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


LAYER_CALLS_AND_SELF = [
    "field.fft", "gamma.apply", "solver.rhs", "solver.step", "solver.propagate",
    "field.l2_norm_sq", "field.sobolev_norm", "field.bilinear_densities",
    "field.gamma2_bilinear", "field.cone_mass", "field.support_radius",
    "models.nonlinearity", "kernels.free_mode_multipliers", "kernels.hyp2f1",
    "blowup.total_j_mass", "blowup.j_integral",
]
LAYER_SELF_ONLY = [
    "kernels.kernel_K1", "kernels.kernel_K1_time_derivative", "kernels.reconstruct_free",
]
LAYER_INCLUSIVE = [
    "blowup.empirical_blowup", "field.snapshot_io", "diagnostics.verify", "cli.record_json",
]


def layer_metrics(tracer: Tracer, ops: int, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer totals per operation, as {metric: (value, unit)}."""
    calls, self_s, incl_s, nbytes = Counter(), Counter(), Counter(), Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = span[0]
        calls[name] += 1
        self_s[name] += own
        incl_s[name] += span[2] - span[1]
        nbytes[name] += span[4]
    out = {}
    for name in LAYER_CALLS_AND_SELF:
        out[f"{name}.calls"] = (calls[name] / ops, "count")
        out[f"{name}.self_s"] = (self_s[name] / ops, "s")
    for name in LAYER_SELF_ONLY:
        out[f"{name}.self_s"] = (self_s[name] / ops, "s")
    for name in LAYER_INCLUSIVE:
        out[f"{name}.s"] = (incl_s[name] / ops, "s")
    out["field.fft.bytes"] = (nbytes["field.fft"] / ops, "B")
    out["field.snapshot_io.bytes"] = (nbytes["field.snapshot_io"] / ops, "B")
    steps = calls["solver.step"]
    out["solver.rhs_per_step"] = (calls["solver.rhs"] / steps if steps else 0.0, "ratio")
    out["blowup.quad_warnings"] = (tracer.counters["blowup.quad_warnings"] / ops, "count")
    out["other_s"] = ((traced_wall - sum(self_s.values())) / ops, "s")
    return out
