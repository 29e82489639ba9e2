"""Unit tests for the DES engine."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import (
    NORMAL_PRIORITY,
    URGENT_PRIORITY,
    AllOf,
    AnyOf,
    Interrupt,
    Simulator,
)


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_fail_marks_not_ok(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        assert not event.ok

    def test_unwaited_failure_surfaces_in_run(self, sim):
        event = sim.event()
        event.fail(ValueError("lost"))
        with pytest.raises(ValueError, match="lost"):
            sim.run()


class TestTimeout:
    def test_fires_at_delay(self, sim):
        seen = []

        def proc():
            yield sim.timeout(5.0)
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [5.0]

    def test_zero_delay_allowed(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_carries_value(self, sim):
        collected = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            collected.append(value)

        sim.process(proc())
        sim.run()
        assert collected == ["payload"]


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        process = sim.process(proc())
        assert sim.run(until=process) == "done"

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield sim.timeout(1)
            yield sim.timeout(2)
            return sim.now

        assert sim.run(until=sim.process(proc())) == 3.0

    def test_processes_interleave(self, sim):
        order = []

        def worker(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.process(worker("slow", 2))
        sim.process(worker("fast", 1))
        sim.run()
        assert order == ["fast", "slow"]

    def test_yield_on_another_process(self, sim):
        def child():
            yield sim.timeout(3)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return result, sim.now

        assert sim.run(until=sim.process(parent())) == ("child-result", 3.0)

    def test_exception_in_process_propagates(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("inner failure")

        process = sim.process(proc())
        with pytest.raises(RuntimeError, match="inner failure"):
            sim.run(until=process)

    def test_failed_event_thrown_into_waiter(self, sim):
        failing = sim.event()
        caught = []

        def proc():
            try:
                yield failing
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(proc())
        failing.fail(ValueError("pushed"))
        sim.run()
        assert caught == ["pushed"]

    def test_yielding_non_event_fails_process(self, sim):
        def proc():
            yield 42  # type: ignore[misc]

        process = sim.process(proc())
        with pytest.raises(SimulationError, match="must yield events"):
            sim.run(until=process)

    def test_yielding_foreign_event_fails_process(self, sim):
        other = Simulator()

        def proc():
            yield other.event()

        process = sim.process(proc())
        with pytest.raises(SimulationError, match="different simulator"):
            sim.run(until=process)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_yield_already_processed_event(self, sim):
        done = sim.event()
        done.succeed("early")
        log = []

        def late():
            yield sim.timeout(4)
            value = yield done
            log.append((sim.now, value))

        sim.process(late())
        sim.run()
        assert log == [(4.0, "early")]

    def test_is_alive_lifecycle(self, sim):
        def proc():
            yield sim.timeout(1)

        process = sim.process(proc())
        assert process.is_alive
        sim.run()
        assert not process.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as interrupt:
                causes.append((sim.now, interrupt.cause))

        def killer(target):
            yield sim.timeout(2)
            target.interrupt("preempted")

        target = sim.process(sleeper())
        sim.process(killer(target))
        sim.run()
        assert causes == [(2.0, "preempted")]

    def test_unhandled_interrupt_fails_process(self, sim):
        def sleeper():
            yield sim.timeout(100)

        def killer(target):
            yield sim.timeout(1)
            target.interrupt()

        target = sim.process(sleeper())
        sim.process(killer(target))
        with pytest.raises(Interrupt):
            sim.run(until=target)

    def test_interrupting_finished_process_rejected(self, sim):
        def quick():
            yield sim.timeout(1)

        process = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_interrupted_process_can_continue(self, sim):
        trace = []

        def resilient():
            try:
                yield sim.timeout(100)
            except Interrupt:
                trace.append("interrupted")
            yield sim.timeout(5)
            trace.append(sim.now)

        def killer(target):
            yield sim.timeout(10)
            target.interrupt()

        target = sim.process(resilient())
        sim.process(killer(target))
        sim.run()
        assert trace == ["interrupted", 15.0]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def worker(delay):
            yield sim.timeout(delay)
            return delay

        processes = [sim.process(worker(d)) for d in (3, 1, 2)]
        finished_at = []

        def waiter():
            yield sim.all_of(processes)
            finished_at.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert finished_at == [3.0]

    def test_all_of_collects_values(self, sim):
        events = [sim.timeout(1, value="a"), sim.timeout(2, value="b")]
        condition = sim.all_of(events)
        sim.run()
        assert list(condition.value.values()) == ["a", "b"]

    def test_all_of_empty_fires_immediately(self, sim):
        condition = sim.all_of([])
        assert condition.triggered

    def test_all_of_fails_fast(self, sim):
        good = sim.timeout(5)
        bad = sim.event()
        bad.fail(RuntimeError("dead"), delay=1)
        condition = sim.all_of([good, bad])
        with pytest.raises(RuntimeError, match="dead"):
            sim.run(until=condition)

    def test_any_of_fires_on_first(self, sim):
        slow = sim.timeout(10, value="slow")
        fast = sim.timeout(1, value="fast")
        condition = sim.any_of([slow, fast])
        result = sim.run(until=condition)
        assert sim.now == 1.0
        assert list(result.values()) == ["fast"]

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            AllOf(sim, [other.event()])

    def test_any_of_type(self, sim):
        assert isinstance(sim.any_of([sim.timeout(1)]), AnyOf)


class TestSimulatorRun:
    def test_run_until_time_advances_clock(self, sim):
        sim.timeout(3)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_infinity_leaves_clock_at_last_event(self, sim):
        # Like run_window: an infinite horizon must not become the
        # clock, or every later timeout would be scheduled at inf.
        sim.timeout(3)
        sim.run(until=float("inf"))
        assert sim.now == 3.0
        later = sim.timeout(1)
        sim.run()
        assert later.processed
        assert sim.now == 4.0

    def test_run_until_past_rejected(self, sim):
        sim.timeout(1)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=2.0)

    def test_run_until_event_without_sources_raises(self, sim):
        pending = sim.event()
        with pytest.raises(SimulationError, match="ran out of events"):
            sim.run(until=pending)

    def test_run_until_foreign_event_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.run(until=other.event())

    def test_step_on_empty_heap_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek_empty_is_infinite(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_time(self, sim):
        sim.timeout(7)
        assert sim.peek() == 7.0

    def test_events_at_same_time_run_fifo(self, sim):
        order = []

        def worker(name):
            yield sim.timeout(1)
            order.append(name)

        for name in ("a", "b", "c"):
            sim.process(worker(name))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_schedule_into_past_rejected(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.schedule(event, delay=-0.5)

    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0


class TestDelayValidation:
    def test_nan_timeout_rejected(self, sim):
        with pytest.raises(SimulationError, match="finite"):
            sim.timeout(float("nan"))

    def test_infinite_timeout_rejected(self, sim):
        with pytest.raises(SimulationError, match="finite"):
            sim.timeout(float("inf"))

    def test_nan_schedule_rejected(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.schedule(event, delay=float("nan"))

    def test_infinite_schedule_rejected(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.schedule(event, delay=float("inf"))


class TestCancel:
    def test_cancelled_timeout_never_runs(self, sim):
        fired = []
        keep = sim.timeout(2)
        keep.callbacks.append(lambda e: fired.append("keep"))
        doomed = sim.timeout(1)
        doomed.callbacks.append(lambda e: fired.append("doomed"))
        doomed.cancel()
        sim.run()
        assert fired == ["keep"]
        assert sim.now == 2.0
        assert doomed.cancelled

    def test_cancel_updates_queue_accounting(self, sim):
        doomed = sim.timeout(1)
        sim.timeout(2)
        assert sim.queue_size == 2
        doomed.cancel()
        assert sim.queue_size == 1
        assert sim.peek() == 2.0

    def test_cancel_pending_event_blocks_trigger(self, sim):
        event = sim.event()
        event.cancel()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_cancel_twice_rejected(self, sim):
        doomed = sim.timeout(1)
        doomed.cancel()
        with pytest.raises(SimulationError, match="already cancelled"):
            doomed.cancel()

    def test_cancel_processed_rejected(self, sim):
        done = sim.timeout(1)
        sim.run()
        with pytest.raises(SimulationError, match="already processed"):
            done.cancel()


class TestConditionDetach:
    def test_any_of_detaches_losers(self, sim):
        slow = sim.timeout(10, value="slow")
        fast = sim.timeout(1, value="fast")
        condition = sim.any_of([slow, fast])
        sim.run(until=condition)
        # The race is decided: the loser no longer carries a callback
        # back into the condition, so its later firing adds nothing.
        assert not slow.callbacks
        sim.run()
        assert list(condition.value.values()) == ["fast"]

    def test_all_of_failure_detaches_survivors(self, sim):
        good = sim.timeout(5)
        bad = sim.event()
        bad.fail(RuntimeError("dead"), delay=1)
        condition = sim.all_of([good, bad])
        with pytest.raises(RuntimeError, match="dead"):
            sim.run(until=condition)
        assert not good.callbacks


def _logged(sim, log, label, delay, priority=NORMAL_PRIORITY):
    """Schedule an event that appends *label* to *log* when processed.

    Normal-priority events are triggered through ``succeed`` (and so
    can be cancelled); others are handed to ``schedule`` untriggered.
    """
    event = sim.event()
    event.callbacks.append(lambda _: log.append(label))
    if priority == NORMAL_PRIORITY:
        event.succeed(delay=delay)
    else:
        sim.schedule(event, delay=delay, priority=priority)
    return event


def _drain_by_run(sim, until=float("inf")):
    sim.run(until=until)


def _drain_by_step(sim, until=float("inf")):
    while sim.queue_size and sim.peek() <= until:
        sim.step()


@pytest.fixture(params=["run", "step"])
def drain(request):
    """Process every event at or before a horizon (default: all of
    them), once through ``run(until=...)`` and once through repeated
    ``step()`` calls: both entry points share one processing loop and
    must honour the same pending-event contract."""
    return {"run": _drain_by_run, "step": _drain_by_step}[request.param]


class TestPendingEvents:
    def test_orders_by_time_priority_sequence(self, sim, drain):
        log = []
        _logged(sim, log, "t2", 2.0)
        _logged(sim, log, "t1-normal-first", 1.0)
        _logged(sim, log, "t1-urgent", 1.0, priority=URGENT_PRIORITY)
        _logged(sim, log, "t1-normal-second", 1.0)
        drain(sim)
        assert log == ["t1-urgent", "t1-normal-first", "t1-normal-second",
                       "t2"]

    def test_cancelled_entries_never_surface(self, sim, drain):
        log = []
        timeouts = [sim.timeout(float(index)) for index in range(10)]
        for index, timeout in enumerate(timeouts):
            timeout.callbacks.append(lambda _, i=index: log.append(i))
        for timeout in timeouts[::2]:
            timeout.cancel()
        drain(sim)
        assert log == [1, 3, 5, 7, 9]
        assert sim.events_processed == 5

    def test_drain_empty_processes_nothing(self, sim, drain):
        drain(sim)
        drain(sim, until=1e9)
        assert sim.events_processed == 0
        assert sim.queue_size == 0

    def test_peek_empty_is_infinite(self, sim, drain):
        assert sim.peek() == float("inf")
        sim.timeout(1.0)
        drain(sim)
        assert sim.peek() == float("inf")

    def test_run_until_leaves_later_events_pending(self, sim, drain):
        early = sim.timeout(1.0)
        late = sim.timeout(5.0)
        drain(sim, until=2.0)
        assert early.processed
        assert not late.processed
        assert sim.queue_size == 1
        drain(sim, until=5.0)
        assert late.processed

    def test_run_until_horizon_is_inclusive(self, sim, drain):
        at_horizon = sim.timeout(3.0)
        drain(sim, until=3.0)
        assert at_horizon.processed

    def test_peek_and_drain_skip_cancelled_head(self, sim, drain):
        doomed = sim.timeout(1.0)
        kept = sim.timeout(2.0)
        doomed.cancel()
        assert sim.peek() == 2.0
        assert sim.queue_size == 1
        drain(sim)
        assert kept.processed
        assert not doomed.processed
        assert sim.now == 2.0

    def test_size_and_peak_count_live_entries(self, sim, drain):
        timeouts = [sim.timeout(float(index)) for index in range(5)]
        assert sim.queue_size == 5
        assert sim.queue_peak_size == 5
        timeouts[4].cancel()
        assert sim.queue_size == 4
        # A push after a cancellation reaches 5 live entries again, not
        # 6: the cancelled entry still in the heap is not counted.
        sim.timeout(9.0)
        assert sim.queue_size == 5
        assert sim.queue_peak_size == 5
        drain(sim, until=1.0)
        assert sim.queue_size == 3
        assert sim.queue_peak_size == 5
        drain(sim)
        assert sim.queue_size == 0
        assert sim.queue_peak_size == 5

    def test_peak_size_counts_same_instant_entries(self, sim):
        for _ in range(7):
            sim.timeout(1.0)
        assert sim.queue_peak_size == 7
        sim.run()
        assert sim.queue_size == 0
        assert sim.queue_peak_size == 7


def _random_tape(rng, operations):
    """A reproducible op tape: (kind, args) tuples."""
    tape = []
    for _ in range(operations):
        roll = rng.random()
        if roll < 0.55:
            kind = rng.choice(("near", "far", "burst"))
            if kind == "near":
                delay = rng.uniform(0.0, 0.01)
            elif kind == "far":
                delay = rng.uniform(10.0, 1000.0)
            else:
                delay = rng.choice((0.0, 0.5, 0.5, 2.0))
            priority = (URGENT_PRIORITY if rng.random() < 0.1
                        else NORMAL_PRIORITY)
            tape.append(("schedule", delay, priority))
        elif roll < 0.7:
            tape.append(("step",))
        elif roll < 0.85:
            tape.append(("run_until", rng.uniform(0.0, 50.0)))
        else:
            tape.append(("cancel", rng.randrange(1, 8)))
    return tape


class TestRandomTapes:
    @pytest.mark.parametrize("seed", range(8))
    def test_processed_order_matches_sorted_reference(self, seed):
        """Random schedule / cancel / step / run(until=...) steps: each
        run processes exactly the live entries it covers, in sorted
        ``(time, priority, sequence)`` order."""
        sim = Simulator()
        log = []
        pending = {}  # key (time, priority, sequence) -> event
        sequence = itertools.count()
        for op in _random_tape(random.Random(seed), operations=400):
            if op[0] == "schedule":
                _, delay, priority = op
                key = (sim.now + delay, priority, next(sequence))
                pending[key] = _logged(sim, log, key, delay, priority)
                continue
            if op[0] == "cancel":
                # Cancel the n-th oldest cancellable entry, if any.
                live = sorted((k for k in pending if pending[k].triggered),
                              key=lambda k: k[2])
                if live:
                    victim = live[min(op[1], len(live)) - 1]
                    pending.pop(victim).cancel()
                assert sim.queue_size == len(pending)
                continue
            start = len(log)
            if op[0] == "step":
                if not pending:
                    continue
                expected = [min(pending)]
                sim.step()
            else:
                horizon = sim.now + op[1]
                expected = sorted(k for k in pending if k[0] <= horizon)
                sim.run(until=horizon)
                assert sim.now == horizon
            assert log[start:] == expected
            for key in expected:
                del pending[key]
            assert sim.queue_size == len(pending)
        start = len(log)
        sim.run()
        assert log[start:] == sorted(pending)
        assert sim.queue_size == 0
        assert sim.events_processed == len(log)
