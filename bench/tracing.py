"""Per-layer spans and work counts, recorded from outside the package.

The traced run rebinds each layer function listed below, in every barwaves
module that imported it by name, to a wrapper that records a span (name,
start, end, parent span, op id) or just counts calls.  Every rebinding is
undone when the run ends.  A function that a later change removes or
renames is reported as absent, and its metrics read 0.

Spans are kept in memory and written out at the end; self time is a span's
duration minus what its child spans cover.  A function re-entered while it
is already open (the mirror recursions) counts once, at its outermost call.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

#: (layer, module, attribute) of the functions recorded as spans.
SPANS = (
    ("material.quad", "barwaves.material", "quad"),
    ("material.rarefaction_integral", "barwaves.material",
     "rarefaction_integral"),
    ("material.tangent_point", "barwaves.material", "tangent_point"),
    ("material.invert_strain", "barwaves.material", "invert_strain"),
    ("wave_curves.backward_v", "barwaves.wave_curves", "backward_v"),
    ("wave_curves.forward_v", "barwaves.wave_curves", "forward_v"),
    ("wave_curves.forward_delta", "barwaves.wave_curves", "forward_delta"),
    ("wave_curves.decompose_backward", "barwaves.wave_curves",
     "decompose_backward"),
    ("wave_curves.decompose_forward", "barwaves.wave_curves",
     "decompose_forward"),
    ("riemann.solve", "barwaves.riemann", "solve"),
    ("riemann.middle_stress", "barwaves.riemann", "_find_middle_stress"),
    ("riemann.brentq", "barwaves.riemann", "brentq"),
    ("riemann.region_label", "barwaves.riemann", "_region_label"),
    ("riemann.thresholds", "barwaves.riemann", "thresholds"),
    ("cli.atlas", "barwaves.cli", "cmd_atlas"),
    ("sampler.profile", "barwaves.sampler", "profile"),
    ("verify.fv_reference", "barwaves.verify", "fv_reference"),
    ("verify.l1_distance", "barwaves.verify", "l1_distance"),
)

#: Functions called too often for a span each; only their calls are counted.
#: The finite-volume reference inverts the strain once per time step.
COUNTS = (
    ("material.strain", "barwaves.material", "strain"),
    ("material.strain_prime", "barwaves.material", "strain_prime"),
    ("material.strain_second", "barwaves.material", "strain_second"),
    ("sampler.sample", "barwaves.sampler", "sample"),
    ("sampler.invert_fan", "barwaves.sampler", "_invert_fan"),
    ("verify.fv_step", "barwaves.verify", "_invert_strain_grid"),
)

OP = "op"

#: Spans kept for the trace file; aggregates keep counting beyond it.
SPAN_CAP = 100_000


class _CacheStats:
    """Hits and misses of an lru_cache over the traced run, kept across
    cache_clear, which resets the cache's own statistics."""

    def __init__(self, cached):
        self._cached = cached
        self._base = cached.cache_info()
        self._hits = self._misses = 0

    def _fold(self) -> None:
        info = self._cached.cache_info()
        self._hits += info.hits - self._base.hits
        self._misses += info.misses - self._base.misses
        self._base = info

    def cache_clear(self) -> None:
        self._fold()
        self._cached.cache_clear()
        self._base = self._cached.cache_info()

    def totals(self) -> tuple[int, int, int]:
        """(hits, misses, entries now)."""
        self._fold()
        return self._hits, self._misses, self._base.currsize


class Tracer:
    """Spans of the layers in SPANS and call counts of those in COUNTS, for
    the ops bracketed by begin_op and end_op."""

    def __init__(self):
        self.names = [OP] + [layer for layer, _, _ in SPANS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self._open = [0] * n
        self.by_parent: dict[tuple[str, str], int] = {}
        self.counts = {layer: 0 for layer, _, _ in COUNTS}
        self.counts["material.quad.integrand"] = 0
        self.absent: list[str] = []
        self.ops = 0
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.dropped = 0
        self._stack: list[list] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._caches: dict[str, _CacheStats] = {}
        self._t0 = perf_counter()

    # -- recording ---------------------------------------------------------

    def _enter(self, nid: int) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if len(self.span_name) < SPAN_CAP:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent[3] if parent else -1)
            self.span_op.append(self.ops - 1)
        else:
            idx = -1
            self.dropped += 1
        frame = [nid, 0.0, 0.0, idx, parent]
        stack.append(frame)
        self._open[nid] += 1
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        t1 = perf_counter()
        nid, t0, child, idx, parent = frame
        self._stack.pop()
        dur = t1 - t0
        self._open[nid] -= 1
        self.self_time[nid] += dur - child
        if self._open[nid] == 0:
            self.calls[nid] += 1
            self.total[nid] += dur
            pname = self.names[parent[0]] if parent else ""
            key = (self.names[nid], pname)
            self.by_parent[key] = self.by_parent.get(key, 0) + 1
        if parent is not None:
            parent[2] += dur
        if idx >= 0:
            self.span_start[idx] = t0 - self._t0
            self.span_end[idx] = t1 - self._t0

    def begin_op(self) -> list:
        self.ops += 1
        return self._enter(0)

    def end_op(self, frame: list) -> None:
        self._exit(frame)

    def _span_wrapper(self, layer: str, fn):
        nid = self._ids[layer]
        enter, exit_ = self._enter, self._exit
        call = self._counting_quad(fn) if layer == "material.quad" else fn

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                return call(*args, **kwargs)
            finally:
                exit_(frame)

        if hasattr(fn, "cache_info"):
            # keep the cache interface usable, and count across clears
            stats = self._caches[layer] = _CacheStats(fn)
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = stats.cache_clear
        return wrapper

    def _counting_quad(self, quad):
        """quad with its integrand wrapped to count evaluations."""
        counts = self.counts

        def counted(func, a, b, *args, **kwargs):
            def integrand(x, *fargs):
                counts["material.quad.integrand"] += 1
                return func(x, *fargs)
            return quad(integrand, a, b, *args, **kwargs)
        return counted

    def _count_wrapper(self, layer: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for layer, module, attr in table:
                try:
                    owner = importlib.import_module(module)
                except ImportError:
                    owner = None
                original = getattr(owner, attr, None)
                if original is None:
                    self.absent.append(layer)
                    continue
                self._rebind(original, make(layer, original))

    def _rebind(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "barwaves"
                                      or name.startswith("barwaves.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, original))

    def restore(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def _layer(self, layer: str) -> tuple[int, float, float]:
        nid = self._ids[layer]
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def _under(self, layer: str, parent: str) -> int:
        return self.by_parent.get((layer, parent), 0)

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        solves = max(self._layer("riemann.solve")[0], 1)

        def per_op(x):
            return x / ops

        def ms(x):
            return 1e3 * x / ops

        tp_calls, tp_total, _ = self._layer("material.tangent_point")
        cache = self._caches.get("material.tangent_point")
        if cache is not None:
            hits, misses, entries = cache.totals()
            tp_solves = misses
            hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        else:
            tp_solves, hit_ratio, entries = tp_calls, 0.0, 0
        c = self.counts
        quad_calls, _, _ = self._layer("material.quad")
        ri_calls, ri_total, _ = self._layer("material.rarefaction_integral")
        bv_calls, _, bv_self = self._layer("wave_curves.backward_v")
        fd_calls, _, fd_self = self._layer("wave_curves.forward_delta")
        solve_calls, solve_total, _ = self._layer("riemann.solve")
        th_calls, th_total, _ = self._layer("riemann.thresholds")
        curve_evals = (self._under("wave_curves.backward_v", "riemann.region_label")
                       + self._under("wave_curves.forward_v", "riemann.region_label"))
        return {
            "material.quad.calls_per_op": per_op(quad_calls),
            "material.quad.integrand_evals_per_op":
                per_op(c["material.quad.integrand"]),
            "material.rarefaction_integral.calls_per_op": per_op(ri_calls),
            "material.rarefaction_integral.ms_per_op": ms(ri_total),
            "material.tangent_point.calls_per_op": per_op(tp_calls),
            "material.tangent_point.solves_per_op": per_op(tp_solves),
            "material.tangent_point.hit_ratio": hit_ratio,
            "material.tangent_point.ms_per_op": ms(tp_total),
            "material.tangent_point.cache_entries": float(entries),
            "material.kernel_evals_per_op": per_op(
                c["material.strain"] + c["material.strain_prime"]
                + c["material.strain_second"]),
            "material.invert_strain.calls_per_op":
                per_op(self._layer("material.invert_strain")[0]),
            "wave_curves.backward_v.calls_per_op": per_op(bv_calls),
            "wave_curves.backward_v.self_ms_per_op": ms(bv_self),
            "wave_curves.forward_delta.calls_per_op": per_op(fd_calls),
            "wave_curves.forward_delta.self_ms_per_op": ms(fd_self),
            "wave_curves.decompose.ms_per_op": ms(
                self._layer("wave_curves.decompose_backward")[1]
                + self._layer("wave_curves.decompose_forward")[1]),
            "riemann.solve.calls_per_op": per_op(solve_calls),
            "riemann.solve.ms_per_op": ms(solve_total),
            "riemann.middle_stress.ms_per_op":
                ms(self._layer("riemann.middle_stress")[1]),
            "riemann.middle_stress.residual_evals_per_solve": self._under(
                "wave_curves.backward_v", "riemann.middle_stress") / solves,
            "riemann.middle_stress.brentq_calls_per_solve": self._under(
                "riemann.brentq", "riemann.middle_stress") / solves,
            "riemann.region_label.ms_per_op":
                ms(self._layer("riemann.region_label")[1]),
            "riemann.region_label.curve_evals_per_solve": curve_evals / solves,
            "riemann.thresholds.calls_per_op": per_op(th_calls),
            "riemann.thresholds.ms_per_op": ms(th_total),
            "cli.atlas.self_ms_per_op": ms(self._layer("cli.atlas")[2]),
            "sampler.profile.ms_per_op": ms(self._layer("sampler.profile")[1]),
            "sampler.sample.calls_per_op": per_op(c["sampler.sample"]),
            "sampler.fan_inversions_per_op": per_op(c["sampler.invert_fan"]),
            "verify.fv_reference.ms_per_op":
                ms(self._layer("verify.fv_reference")[1]),
            "verify.fv_reference.steps_per_op": per_op(c["verify.fv_step"]),
            "verify.l1_distance.ms_per_op":
                ms(self._layer("verify.l1_distance")[1]),
        }

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc.update(
            absent=self.absent,
            metrics=self.metrics(),
            names=self.names,
            dropped_spans=self.dropped,
            spans={"name": list(self.span_name),
                   "start_s": list(self.span_start),
                   "end_s": list(self.span_end),
                   "parent": list(self.span_parent),
                   "op": list(self.span_op)})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def unit(metric: str) -> str:
    if metric.endswith("ms_per_op"):
        return "ms"
    if metric.endswith("hit_ratio"):
        return "ratio"
    return "count"


@contextmanager
def traced():
    """Install a Tracer for the duration of the block, then undo every
    rebinding, also when the block raises."""
    tracer = Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.restore()
