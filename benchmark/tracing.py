"""Span tracing for the benchmark's traced run.

Wrappers defined here are patched around the public functions of each accbo
module, at the name where each caller looks the function up, and removed
again afterwards. The library itself is not changed. Spans are aggregated in
memory per name: call count, inclusive seconds, and self seconds, which is a
span's duration minus the time covered by its child spans.

A span's layer is the part of its name before the first dot
("hypergrad.estimate" belongs to "hypergrad").
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter
from unittest import mock

from accbo import baselines, constants, harness, hypergrad, optimizer, problems, rng, snag
from accbo.snag import NumericalAbort

LAYERS = ("rng", "problems", "hypergrad", "snag", "optimizer", "baselines",
          "harness", "constants")


class Tracer:
    """Per-name span statistics collected on one thread."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open: list[float] = []  # child seconds of each open span
        self._opaque = 0
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: Counter = Counter()

    def call(self, name: str, fn, *args, opaque: bool = False, **kwargs):
        """Run fn inside a span. Spans opened inside an opaque span are not
        recorded, so all of its time is its own."""
        if self._opaque:
            return fn(*args, **kwargs)
        open_spans = self._open
        open_spans.append(0.0)
        self._opaque += opaque
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        except NumericalAbort as exc:
            # Count each abort once, at the innermost span it leaves.
            if not getattr(exc, "_bench_span", None):
                exc._bench_span = name
                self.counts[name.split(".", 1)[0] + ".aborts"] += 1
            raise
        finally:
            duration = self._clock() - start
            self._opaque -= opaque
            children = open_spans.pop()
            if open_spans:
                open_spans[-1] += duration
            rec = self.spans.get(name)
            if rec is None:
                rec = self.spans[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - children

    def wrap(self, name: str, fn, opaque: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, opaque=opaque, **kwargs)
        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(rec[2] for name, rec in self.spans.items()
                   if name.split(".", 1)[0] == layer)


def _rows(size) -> int:
    """Noise rows in one draw: one per oracle sample, so a (T, dim) block is T."""
    if size is None or isinstance(size, int):
        return 1
    n = 1
    for d in tuple(size)[:-1]:
        n *= int(d)
    return n


class _CountingGenerator:
    """Stands in for a numpy Generator; times and counts the rows drawn."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def normal(self, loc=0.0, scale=1.0, size=None):
        self._tracer.counts["rng.draw.rows"] += _rows(size)
        return self._tracer.call("rng.draw", self._gen.normal, loc, scale, size)

    def integers(self, low, high=None, size=None):
        self._tracer.counts["rng.draw.rows"] += _rows(size)
        return self._tracer.call("rng.draw", self._gen.integers, low, high, size)


_EXACT = ("grad_x_f", "grad_y_f", "grad_y_g", "hess_yy_g", "jac_xy_g")
_DIAG = ("true_hypergradient", "lower_minimizer")
_ORACLES = {
    "stoch_grad_y_g": "problems.oracle.g1",
    "stoch_grad_x_f": "problems.oracle.f",
    "stoch_grad_y_f": "problems.oracle.f",
    "stoch_jvp_xy_g": "problems.oracle.jvp",
    "stoch_hvp_yy_g": "problems.oracle.hvp",
}


def install(tracer: Tracer) -> contextlib.ExitStack:
    """Patch tracing wrappers around accbo's public functions.

    Closing the returned stack (or leaving its ``with`` block) removes them."""
    # Patches made before a failure inside this block are removed again.
    with contextlib.ExitStack() as stack:
        def patch(owner, name: str, value) -> None:
            stack.enter_context(mock.patch.object(owner, name, value))

        Stream = rng.RandomStream

        generator = Stream.generator
        patch(Stream, "generator", tracer.wrap(
            "rng.generator", lambda self: _CountingGenerator(generator(self), tracer)))
        patch(Stream, "child", tracer.wrap("rng.child", Stream.child))

        classes = [problems.BilevelInstance] + [
            cls for cls in vars(problems).values()
            if isinstance(cls, type) and issubclass(cls, problems.BilevelInstance)
            and cls is not problems.BilevelInstance]
        for cls in classes:
            for name, span in _ORACLES.items():
                if name in cls.__dict__:
                    patch(cls, name, tracer.wrap(span, cls.__dict__[name]))
            for name in _EXACT:
                if name in cls.__dict__:
                    patch(cls, name, tracer.wrap("problems.exact", cls.__dict__[name]))
            # Diagnostics serve logging only; whatever they call is charged to them.
            for name in _DIAG:
                if name in cls.__dict__:
                    patch(cls, name, tracer.wrap("problems.diag", cls.__dict__[name],
                                                 opaque=True))

        estimate = tracer.wrap("hypergrad.estimate", hypergrad.estimate_hypergradient)
        for module in (hypergrad, optimizer, baselines):
            patch(module, "estimate_hypergradient", estimate)
        patch(hypergrad, "neumann_inverse_apply",
              tracer.wrap("hypergrad.neumann", hypergrad.neumann_inverse_apply))

        step = tracer.wrap("snag.step", snag.snag_step)
        for module in (snag, optimizer):
            patch(module, "snag_step", step)
        mc = snag.mc_tracking_violation_rate

        def mc_counted(params, drift, n_seeds, *args, **kwargs):
            tracer.counts["snag.mc.seed_steps"] += n_seeds * params.T
            return mc(params, drift, n_seeds, *args, **kwargs)

        patch(snag, "mc_tracking_violation_rate", tracer.wrap("snag.mc", mc_counted))
        patch(snag, "run_tracking_experiment",
              tracer.wrap("snag.trajectory", snag.run_tracking_experiment))
        patch(snag.DriftProcess, "displacements",
              tracer.wrap("snag.displacements", snag.DriftProcess.displacements))

        def iterations(layer, run):
            def counted(*args, **kwargs):
                logs = run(*args, **kwargs)
                tracer.counts[layer + ".outer_iters"] += len(logs)
                return logs
            return counted

        patch(optimizer, "run_accbo",
              tracer.wrap("optimizer.run", iterations("optimizer", optimizer.run_accbo)))
        for name in ("warm_start", "momentum_update", "_lower_round"):
            patch(optimizer, name,
                  tracer.wrap("optimizer." + name.lstrip("_"), getattr(optimizer, name)))
        patch(baselines, "run_plain_momentum_bilevel", tracer.wrap(
            "baselines.run",
            iterations("baselines", baselines.run_plain_momentum_bilevel)))
        patch(baselines, "sgd_tracking_step",
              tracer.wrap("baselines.sgd_step", baselines.sgd_tracking_step))

        def sized(write):
            def counted(obj, path, *args, **kwargs):
                write(obj, path, *args, **kwargs)
                tracer.counts["harness.write.bytes"] += os.path.getsize(path)
            return counted

        for name in ("write_csv", "write_json"):
            patch(harness, name, tracer.wrap("harness.write", sized(getattr(harness, name))))

        schedule = tracer.wrap("constants.derive_schedule", constants.derive_schedule)
        for module in (constants, harness):
            patch(module, "derive_schedule", schedule)
        return stack.pop_all()


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(t: Tracer, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run. Ratios whose base is 0 read 0."""
    c = t.counts
    oracle = ("g1", "f", "jvp", "hvp")
    oracle_calls = {k: t.calls("problems.oracle." + k) for k in oracle}
    oracle_self = sum(t.self_s("problems.oracle." + k) for k in oracle)
    optimizer_self = t.layer_self_s("optimizer")
    baselines_self = t.layer_self_s("baselines")
    m = {
        "rng.generator.calls": t.calls("rng.generator"),
        "rng.generator.self_s": t.self_s("rng.generator"),
        "rng.generator.us_per_call": _per(t.self_s("rng.generator"),
                                          t.calls("rng.generator"), 1e6),
        "rng.child.calls": t.calls("rng.child"),
        "rng.child.self_s": t.self_s("rng.child"),
        "rng.draw.self_s": t.self_s("rng.draw"),
        "rng.draws_per_generator": _per(c["rng.draw.rows"], t.calls("rng.generator")),
        **{f"problems.oracle.calls.{k}": n for k, n in oracle_calls.items()},
        "problems.oracle.self_s": oracle_self,
        "problems.oracle.us_per_call": _per(oracle_self, sum(oracle_calls.values()), 1e6),
        "problems.exact.self_s": t.self_s("problems.exact"),
        "problems.diag.calls": t.calls("problems.diag"),
        "problems.diag.self_s": t.self_s("problems.diag"),
        "problems.diag.share": _per(t.self_s("problems.diag"), untraced_wall_s),
        "hypergrad.estimate.calls": t.calls("hypergrad.estimate"),
        "hypergrad.estimate.self_s": t.self_s("hypergrad.estimate"),
        "hypergrad.estimate.us_per_call": _per(t.self_s("hypergrad.estimate"),
                                               t.calls("hypergrad.estimate"), 1e6),
        "hypergrad.neumann.hvp_per_estimate": _per(oracle_calls["hvp"],
                                                   t.calls("hypergrad.estimate")),
        "hypergrad.aborts": c["hypergrad.aborts"],
        "snag.step.calls": t.calls("snag.step"),
        "snag.step.self_s": t.self_s("snag.step"),
        "snag.step.us_per_call": _per(t.self_s("snag.step"), t.calls("snag.step"), 1e6),
        "snag.mc.seed_steps": c["snag.mc.seed_steps"],
        "snag.mc.self_s": t.self_s("snag.mc"),
        "snag.mc.ns_per_seed_step": _per(t.self_s("snag.mc"),
                                         c["snag.mc.seed_steps"], 1e9),
        "snag.displacements.calls": t.calls("snag.displacements"),
        "snag.displacements.self_s": t.self_s("snag.displacements"),
        "snag.trajectory.self_s": t.self_s("snag.trajectory"),
        "snag.aborts": c["snag.aborts"],
        "optimizer.outer_iters": c["optimizer.outer_iters"],
        "optimizer.self_s": optimizer_self,
        "optimizer.us_per_outer_iter": _per(optimizer_self,
                                            c["optimizer.outer_iters"], 1e6),
        "optimizer.momentum_update.calls": t.calls("optimizer.momentum_update"),
        "optimizer.momentum_update.self_s": t.self_s("optimizer.momentum_update"),
        "optimizer.warm_start.self_s": t.self_s("optimizer.warm_start"),
        "optimizer.aborts": c["optimizer.aborts"],
        "baselines.outer_iters": c["baselines.outer_iters"],
        "baselines.self_s": baselines_self,
        "baselines.us_per_outer_iter": _per(baselines_self,
                                            c["baselines.outer_iters"], 1e6),
        "harness.write.calls": t.calls("harness.write"),
        "harness.write.bytes": c["harness.write.bytes"],
        "harness.write.self_s": t.self_s("harness.write"),
        "harness.cmd.self_s": t.self_s("harness.cmd"),
        "constants.derive_schedule.calls": t.calls("constants.derive_schedule"),
        "constants.derive_schedule.self_s": t.self_s("constants.derive_schedule"),
        "trace.overhead_frac": _per(traced_wall_s - untraced_wall_s, untraced_wall_s),
    }
    total = sum(rec[2] for rec in t.spans.values())
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = t.layer_self_s(layer)
        m[f"layer.{layer}.share"] = _per(t.layer_self_s(layer), total)
    return m
