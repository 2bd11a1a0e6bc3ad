"""Tests of the benchmark's own tracing.

Run from the repository root: python3 -m pytest benchmark/test_tracing.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
from accbo import baselines, optimizer  # noqa: E402
from accbo.constants import derive_schedule  # noqa: E402
from accbo.problems import IsotropicQuadratic  # noqa: E402
from accbo.rng import RandomStream  # noqa: E402
from accbo.snag import NumericalAbort  # noqa: E402


class FakeClock:
    """Returns the given timestamps in order, one per reading."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]; inner [1, 3] holds leaf [2, 2.5].
    t = tracing.Tracer(clock=FakeClock(0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0))
    leaf = t.wrap("c.leaf", lambda: None)
    inner_calls = iter([leaf, lambda: None])
    inner = t.wrap("b.inner", lambda: next(inner_calls)())

    def outer():
        inner()
        inner()

    t.call("a.outer", outer)
    assert t.spans["a.outer"] == [1, 10.0, 7.0]
    assert t.spans["b.inner"] == [2, 3.0, 2.5]
    assert t.spans["c.leaf"] == [1, 0.5, 0.5]
    assert t.layer_self_s("b") == 2.5


def test_opaque_span_keeps_nested_time_and_hides_children():
    t = tracing.Tracer(clock=FakeClock(0.0, 4.0))
    child = t.wrap("x.child", lambda: None)
    t.call("x.diag", child, opaque=True)
    assert t.spans == {"x.diag": [1, 4.0, 4.0]}


def test_abort_counted_once_at_innermost_span():
    t = tracing.Tracer()

    def fail():
        raise NumericalAbort("boom")

    with pytest.raises(NumericalAbort):
        t.call("optimizer.run", t.wrap("snag.step", fail))
    assert t.counts["snag.aborts"] == 1
    assert t.counts["optimizer.aborts"] == 0
    assert t.calls("optimizer.run") == 1


def _small_run():
    inst = IsotropicQuadratic(1.0, 0.5 * np.eye(2), [0.1, -0.1], [0.4, -0.3],
                              [0.2, 0.1], sigma_f1=0.01, sigma_g1=0.01)
    sched = derive_schedule(inst.constants, 0.05, 0.05, 0.2, mode="practical",
                            overrides={"alpha": 0.04, "eta": 0.002, "T0": 3, "T": 5,
                                       "S": 2, "Q": 3, "N": 2, "I": 2})
    return inst, sched


@pytest.mark.parametrize("runner, option", [
    (lambda *a, **k: optimizer.run_accbo(*a, **k), "one"),
    (lambda *a, **k: optimizer.run_accbo(*a, **k), "two"),
    (lambda inst, sched, _, st, **k: baselines.run_plain_momentum_bilevel(inst, sched, st, **k),
     None),
])
def test_wrappers_reached_where_names_are_looked_up(runner, option):
    inst, sched = _small_run()
    reference = runner(inst, sched, option, RandomStream(7))
    t = tracing.Tracer()
    with tracing.install(t):
        logs = runner(inst, sched, option, RandomStream(7))
    # Tracing changes no result, and each patched lookup site is reached.
    assert [vars(r) for r in logs] == [vars(r) for r in reference]
    assert t.calls("hypergrad.estimate") == (sched.T if option is None else 2 * sched.T - 1)
    last = logs[-1]
    assert t.calls("problems.oracle.g1") == last.calls_g1
    assert t.calls("problems.oracle.hvp") == last.calls_hvp
    if option is None:
        assert t.counts["baselines.outer_iters"] == sched.T
        assert t.calls("snag.step") == 0
    else:
        assert t.counts["optimizer.outer_iters"] == sched.T
        assert t.calls("snag.step") >= sched.T0
    assert t.counts["rng.draw.rows"] == t.calls("rng.generator")


def test_undo_restores_every_patched_name():
    import accbo.hypergrad as hypergrad
    before = (optimizer.estimate_hypergradient, baselines.estimate_hypergradient,
              optimizer.snag_step, RandomStream.__dict__["generator"])
    tracing.install(tracing.Tracer()).close()
    after = (optimizer.estimate_hypergradient, baselines.estimate_hypergradient,
             optimizer.snag_step, RandomStream.__dict__["generator"])
    assert before == after
    assert optimizer.estimate_hypergradient is hypergrad.estimate_hypergradient
