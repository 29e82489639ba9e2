"""Tests of the benchmark's own machinery (kept short: tier-1 runs them)."""

from __future__ import annotations

import sys
import types

import pytest

from perfbench.tracer import (
    UNATTRIBUTED,
    Instrumentation,
    Tracer,
    timed_generator,
)
from perfbench.workloads import DatamoverMix, PodChurn
from repro.sim.engine import Interrupt, Simulator


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work():
        clock.now += 1.0                  # root self
        tracer.enter("cluster", "outer")
        clock.now += 2.0                  # outer self
        tracer.enter("orchestration", "inner")
        clock.now += 3.0                  # inner self
        tracer.enter("orchestration", "innermost")
        clock.now += 4.0
        tracer.exit()
        tracer.exit()
        clock.now += 5.0                  # outer self
        tracer.exit()
        clock.now += 6.0                  # root self

    tracer.run(work)
    assert tracer.self_s["cluster"] == 7.0
    assert tracer.self_s["orchestration"] == 7.0
    assert tracer.self_s[UNATTRIBUTED] == 7.0
    assert sum(tracer.self_s.values()) == 21.0
    assert tracer.calls["orchestration"] == 2
    assert tracer.calls[UNATTRIBUTED] == 0
    assert tracer.name_s["outer"] == 14.0
    assert [(name, depth) for name, _l, _s, _d, depth in tracer.spans] == [
        ("innermost", 3), ("inner", 2), ("outer", 1), ("traced-run", 0)]
    assert len(tracer.chrome_trace()["traceEvents"]) == 4


def _drive(wrap: bool, body) -> tuple:
    """Run *body* as a DES process, proxied or not; returns what the
    kernel observed."""
    sim = Simulator()
    tracer = Tracer()
    gen = body(sim)
    proc = sim.process(timed_generator(gen, tracer) if wrap else gen)
    try:
        sim.run()
        result = ("ok", proc.value)
    except ValueError as exc:
        result = ("raised", str(exc))
    return result, sim.now, proc.triggered, proc.ok


def test_proxy_keeps_failing_and_interrupted_processes():
    def failing(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def interrupted(sim):
        def victim():
            try:
                yield sim.timeout(10.0)
            except Interrupt as exc:
                return f"interrupted by {exc.cause}"
        target = sim.process(victim())
        yield sim.timeout(2.0)
        target.interrupt("drain")
        value = yield target
        return value

    def returns_after_yield_from(sim):
        def child():
            yield sim.timeout(0.5)
            return 21
        value = yield from child()
        return value * 2

    for body in (failing, interrupted, returns_after_yield_from):
        assert _drive(True, body) == _drive(False, body), body.__name__


def test_proxy_close_and_throw_reach_the_generator():
    closed = []

    def gen():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    proxy = timed_generator(gen(), Tracer())
    assert next(proxy) == 1
    with pytest.raises(KeyError):
        proxy.throw(KeyError("x"))
    assert closed == [True]
    proxy = timed_generator(gen(), Tracer())
    next(proxy)
    proxy.close()
    assert closed == [True, True]


def _small_datamover() -> DatamoverMix:
    workload = DatamoverMix()
    workload.accesses_per_policy = 300
    workload.traffic_accesses = 100
    return workload


def test_same_seed_same_digest_and_seed_changes_inputs():
    workload = _small_datamover()
    first = workload.setup(1, 0)
    digest = workload.run(first).digest
    assert workload.run(workload.setup(1, 0)).digest == digest
    assert workload.setup(2, 0)["addresses"] != first["addresses"]
    churn = PodChurn()
    arrivals = [t.arrival_s for t in churn.setup(1, 0)["trace"].tenants]
    assert arrivals != [t.arrival_s
                        for t in churn.setup(2, 0)["trace"].tenants]


def _attributes(modules) -> dict:
    """Every attribute of every module and of its classes."""
    seen = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type):
                for cls_attr, cls_value in vars(value).items():
                    seen[(name, attr, cls_attr)] = cls_value
    return seen


def test_wrappers_are_restored_and_tracing_keeps_the_digest():
    modules = {name: module for name, module in sys.modules.items()
               if isinstance(module, types.ModuleType)
               and (name.startswith("repro") or name.startswith("perfbench"))}
    before = _attributes(modules)
    workload = _small_datamover()
    plain = workload.run(workload.setup(3, 0)).digest

    tracer = Tracer()
    from repro.orchestration.registry import ResourceRegistry
    original = vars(ResourceRegistry)["compute_availability"]
    with Instrumentation(tracer) as instrumentation:
        assert instrumentation.patch_count > 100
        assert vars(ResourceRegistry)["compute_availability"] is not original
        traced = tracer.run(
            lambda: workload.run(workload.setup(3, 0)).digest)
    assert traced == plain
    assert tracer.calls["datamover"] > 0
    assert tracer.calls["federation"] == 0
    assert _attributes(modules) == before


def test_scaled_repetition_keeps_the_digest_and_the_collector():
    import gc

    from perfbench.run import run_once

    workload = _small_datamover()
    workload.parts = 1
    plain = run_once(workload, 4)
    scaled = run_once(workload, 4, scale=True, last=plain)
    assert scaled.digests == plain.digests
    assert scaled.run_s[0] > 0 and scaled.setup_s[0] > 0
    assert gc.isenabled()
