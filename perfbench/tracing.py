"""Span tracing of mfcev's layers, installed from outside the package.

Each public layer function is wrapped where its caller looks it up (for
example ``mfcev.cds.default_probability``, the name ``cds_spread`` calls),
so the package is untouched and the wrappers come off again afterwards.
A span records its name, start, end and parent span; spans stay in flat
arrays in memory and are written out once, at the end of the run.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: (module, attribute, layer name): every place a layer function is looked up
TARGETS = [
    ("mfcev.cli", "main", "cli.main"),
    ("mfcev.cli", "spread_table", "cds.spread_table"),
    ("mfcev.cli", "default_curve", "cds.default_curve"),
    ("mfcev.cli", "cds_spread", "cds.cds_spread"),
    ("mfcev.cli", "default_probability", "core.default_probability"),
    ("mfcev.cli", "mc_default_probability", "mc.estimators"),
    ("mfcev.cli", "mc_cds_spread", "mc.estimators"),
    ("mfcev.cds", "cds_spread", "cds.cds_spread"),
    ("mfcev.cds", "premium_annuity", "cds.premium_annuity"),
    ("mfcev.cds", "default_probability", "core.default_probability"),
    ("mfcev.cds", "fpt_density", "core.fpt_density"),
    ("mfcev.cds", "adaptive_quad", "core.adaptive_quad"),
    ("mfcev.core", "phi_closed", "core.phi_closed"),
    ("mfcev.core", "reg_gamma_upper", "specfun.reg_gamma_upper"),
    ("mfcev.core", "whittaker_m", "specfun.whittaker_m"),
    ("mfcev.core", "log_gamma", "specfun.log_gamma"),
    ("mfcev.specfun", "log_gamma", "specfun.log_gamma"),
    ("mfcev.mc", "simulate_fpt", "mc.simulate_fpt"),
    ("mfcev._mc_fallback", "step_paths", "mc.step"),
    ("mfcev._mc_kernel", "step_paths", "mc.step"),
]

#: arguments recorded for the specfun terms replay, per function
ARG_CAP = 20_000


class Tracer:
    """Wraps the TARGETS and keeps their spans in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        # per-layer records, keyed by span index
        self.quad = {}            # adaptive_quad span -> (integrand evals, value)
        self.spread_args = {}     # cds_spread span -> (contract, params)
        self.step = {}            # step span -> (paths in the arrays, paths alive after)
        self.gamma_args = (array("d"), array("d"))
        self.whittaker_args = (array("d"), array("d"), array("d"))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> tuple[int, int]:
        i = len(self.start)
        parent = self.current
        self.name.append(nid)
        self.parent.append(parent)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        return i, parent

    def _close(self, i: int, parent: int) -> None:
        self.end[i] = time.perf_counter()
        self.current = parent

    def _wrap(self, fn, layer: str):
        nid = self._id(layer)
        if layer == "core.adaptive_quad":
            return self._wrap_quad(fn, nid)
        record = {"cds.cds_spread": self._record_spread,
                  "mc.step": self._record_step,
                  "specfun.reg_gamma_upper": self._record_gamma,
                  "specfun.whittaker_m": self._record_whittaker}.get(layer)

        def traced(*args, **kwargs):
            i, parent = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i, parent)
            if record is not None:
                record(i, args, result)
            return result
        return traced

    def _wrap_quad(self, fn, nid: int):
        def traced(func, lo, hi, **kwargs):
            evals = 0

            def counted(t):
                nonlocal evals
                evals += 1
                return func(t)
            i, parent = self._open(nid)
            try:
                result = fn(counted, lo, hi, **kwargs)
            finally:
                self._close(i, parent)
            self.quad[i] = (evals, result)
            return result
        return traced

    def _record_spread(self, i, args, result):
        self.spread_args[i] = (args[0], args[1])

    def _record_step(self, i, args, result):
        self.step[i] = (args[0].size, result)

    def _record_gamma(self, i, args, result):
        s_arr, x_arr = self.gamma_args
        if len(s_arr) < ARG_CAP:
            s_arr.append(args[0])
            x_arr.append(args[1])

    def _record_whittaker(self, i, args, result):
        k_arr, m_arr, z_arr = self.whittaker_args
        if len(k_arr) < ARG_CAP:
            k_arr.append(args[0])
            m_arr.append(args[1])
            z_arr.append(args[2])

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TARGET that exists for the duration of the block."""
        saved = []
        for module_name, attr, layer in TARGETS:
            module = sys.modules.get(module_name)
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def timed_spreads(sink: list):
    """Time each cds_spread call at its call sites, and nothing else.

    Appends (maturity, seconds) to ``sink``; the one wrapper costs about a
    microsecond per spread, so an otherwise untraced op is not distorted.
    """
    saved = []
    for module_name in ("mfcev.cli", "mfcev.cds"):
        module = sys.modules[module_name]
        original = module.cds_spread

        def timed(contract, params, original=original):
            start = time.perf_counter()
            try:
                return original(contract, params)
            finally:
                sink.append((contract.maturity, time.perf_counter() - start))
        saved.append((module, original))
        module.cds_spread = timed
    try:
        yield sink
    finally:
        for module, original in saved:
            module.cds_spread = original


class SpanTable:
    """Durations, self times and ancestry of the recorded spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered

    def mask(self, layer: str) -> np.ndarray:
        if layer not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(layer)

    def nearest(self, layer: str) -> np.ndarray:
        """For each span, its nearest enclosing span (itself included) of ``layer``, or -1."""
        target = self.mask(layer)
        n = len(self.name)
        found = np.where(target, np.arange(n), -1)
        up = self.parent.copy()
        while True:
            todo = (found < 0) & (up >= 0)
            if not todo.any():
                return found
            hit = todo & target[np.maximum(up, 0)]
            found[hit] = up[hit]
            up = np.where(todo & ~hit, self.parent[np.maximum(up, 0)], -1)


def _median_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if len(durations) else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, spread_times: list[tuple[float, float]],
                  unwrapped_default_probability) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``n_ops`` ops.

    ``spread_times`` holds (maturity, seconds) of every cds_spread call of the
    untraced replay; ``unwrapped_default_probability`` evaluates Q(T) for the
    protection-leg residual.  Layers a workload does not reach report 0.
    """
    from mfcev.specfun import reg_gamma_upper_result, whittaker_m_result

    spans = SpanTable(tracer)
    per_op = 1.0 / max(n_ops, 1)
    m: dict[str, float] = {}

    def calls(layer):
        return int(spans.mask(layer).sum())

    def self_ms(layer):
        return float(spans.self_time[spans.mask(layer)].sum()) * 1e3 * per_op

    for layer in ("specfun.reg_gamma_upper", "specfun.whittaker_m", "specfun.log_gamma",
                  "core.default_probability", "core.fpt_density", "core.phi_closed",
                  "core.adaptive_quad"):
        m[layer + ".calls"] = calls(layer) * per_op
        m[layer + ".self_ms"] = self_ms(layer)

    s_arr, x_arr = tracer.gamma_args
    m["specfun.reg_gamma_upper.terms_mean"] = (
        statistics.fmean(reg_gamma_upper_result(s, x).terms_used for s, x in zip(s_arr, x_arr))
        if len(s_arr) else 0.0)
    k_arr, mu_arr, z_arr = tracer.whittaker_args
    m["specfun.whittaker_m.terms_mean"] = (
        statistics.fmean(whittaker_m_result(k, mu, z).terms_used
                         for k, mu, z in zip(k_arr, mu_arr, z_arr))
        if len(k_arr) else 0.0)

    # Q and g calls made on behalf of a spread, overall and at T = 10
    spread_of = spans.nearest("cds.cds_spread")
    spread_idx = np.flatnonzero(spans.mask("cds.cds_spread"))
    t10 = [i for i in spread_idx
           if i in tracer.spread_args and tracer.spread_args[i][0].maturity == 10.0]
    for layer in ("core.default_probability", "core.fpt_density"):
        owner = spread_of[spans.mask(layer)]
        owner = owner[owner >= 0]
        m[layer + ".calls_per_spread"] = len(owner) / len(spread_idx) if len(spread_idx) else 0.0
        m[layer + ".calls_per_spread_T10"] = (
            float(np.isin(owner, t10).sum()) / len(t10) if t10 else 0.0)

    quad_idx = sorted(tracer.quad)
    m["core.adaptive_quad.integrand_evals_per_call"] = (
        statistics.fmean(tracer.quad[i][0] for i in quad_idx) if quad_idx else 0.0)

    m["cds.cds_spread.p50_ms_T1"] = _median_ms([s for t, s in spread_times if t == 1.0])
    m["cds.cds_spread.p50_ms_T10"] = _median_ms([s for t, s in spread_times if t == 10.0])
    for layer in ("cds.premium_annuity", "cds.spread_table", "cds.default_curve"):
        m[layer + ".self_ms"] = self_ms(layer)
    m["cds.leg_residual_rel_max"] = _leg_residual_max(tracer, spans, unwrapped_default_probability)

    step_idx = np.flatnonzero(spans.mask("mc.step"))
    m["mc.step.calls"] = len(step_idx) * per_op
    m["mc.step.self_ms"] = self_ms("mc.step")
    if len(step_idx):
        size = np.array([tracer.step[i][0] for i in step_idx], dtype=float)
        alive_after = np.array([tracer.step[i][1] for i in step_idx], dtype=float)
        owner = spans.parent[step_idx]
        first = np.r_[True, owner[1:] != owner[:-1]]
        alive_before = np.where(first, size, np.r_[0.0, alive_after[:-1]])
        m["mc.step.path_steps_per_s"] = float(size.sum() / spans.self_time[step_idx].sum())
        m["mc.step.live_path_ratio"] = float(alive_before.sum() / size.sum())
    else:
        m["mc.step.path_steps_per_s"] = 0.0
        m["mc.step.live_path_ratio"] = 0.0
    m["mc.simulate_fpt.calls_per_op"] = calls("mc.simulate_fpt") * per_op
    m["mc.simulate_fpt.self_ms"] = self_ms("mc.simulate_fpt")
    m["mc.estimators.self_ms"] = self_ms("mc.estimators")
    m["cli.main.self_ms"] = self_ms("cli.main")
    m["trace.spans_per_op"] = len(spans.dur) * per_op
    return m


def _leg_residual_max(tracer: Tracer, spans: SpanTable, default_probability) -> float:
    """Largest relative gap between the density and integration-by-parts leg forms.

    The two ``adaptive_quad`` calls directly under a cds_spread span are the
    density integral and the survival integral, in that order.
    """
    quads: dict[int, list[float]] = {}
    for i in sorted(tracer.quad):
        quads.setdefault(int(spans.parent[i]), []).append(tracer.quad[i][1])
    worst = 0.0
    seen = set()
    for i, (contract, params) in tracer.spread_args.items():
        values = quads.get(int(i), [])
        key = (contract, params)
        if len(values) != 2 or key in seen:
            continue
        seen.add(key)
        density, survival = values
        horizon, r = contract.maturity, params.r
        parts = math.exp(-r * horizon) * default_probability(horizon, params) + r * survival
        scale = max(abs(density), abs(parts))
        if scale > 0.0:
            worst = max(worst, abs(density - parts) / scale)
    return worst
