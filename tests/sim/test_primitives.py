"""Unit tests for the coordination primitives."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.primitives import (
    Broadcast,
    Gate,
    Mutex,
    PendingCounter,
    Resource,
    all_of,
    any_of,
    retry_until,
    wait_for,
)


class TestAllOf:
    def test_collects_in_input_order(self, sim):
        def body():
            futures = [sim.timeout(0.3, "slow"), sim.timeout(0.1, "fast")]
            results = yield all_of(sim, futures)
            return results

        assert sim.run_process(body()) == ["slow", "fast"]

    def test_empty_input_resolves_immediately(self, sim):
        combined = all_of(sim, [])
        assert combined.done
        assert combined.value == []

    def test_failure_propagates(self, sim):
        bad = sim.future()
        sim.schedule(0.1, bad.fail, ValueError("x"))

        def body():
            try:
                yield all_of(sim, [sim.sleep(1.0), bad])
            except ValueError:
                return sim.now

        assert sim.run_process(body()) == pytest.approx(0.1)


class TestAnyOf:
    def test_returns_first_completion(self, sim):
        def body():
            index, value = yield any_of(
                sim, [sim.timeout(0.5, "a"), sim.timeout(0.2, "b")]
            )
            return index, value, sim.now

        index, value, now = sim.run_process(body())
        assert (index, value) == (1, "b")
        assert now == pytest.approx(0.2)

    def test_empty_input_rejected(self, sim):
        with pytest.raises(SimulationError):
            any_of(sim, [])


class TestWaitFor:
    def test_future_wins(self, sim):
        def body():
            won = yield wait_for(sim, sim.timeout(0.2, "reply"), 1.0)
            return won, sim.now

        won, now = sim.run_process(body())
        assert won is True
        assert now == pytest.approx(0.2)

    def test_timeout_wins(self, sim):
        never = sim.future()

        def body():
            won = yield wait_for(sim, never, 0.5)
            return won, sim.now

        won, now = sim.run_process(body())
        assert won is False
        assert now == pytest.approx(0.5)
        assert not never.done

    def test_failure_propagates(self, sim):
        bad = sim.future()
        sim.schedule(0.1, bad.fail, ValueError("x"))

        def body():
            try:
                yield wait_for(sim, bad, 1.0)
            except ValueError:
                return "caught"
            return "missed"

        assert sim.run_process(body()) == "caught"

    def test_cancelled_timer_still_pops_in_the_simulator(self, sim):
        """Cancellation drops the waiters, never the heap entry: the
        event count of a seeded run cannot depend on who won."""
        woken = []
        timer = sim.sleep(1.0)
        timer.add_callback(woken.append)
        timer.cancel()
        before = sim.events_processed
        sim.run()
        assert sim.events_processed == before + 1
        assert sim.now == pytest.approx(1.0)
        assert woken == []

    def test_shared_deadline_is_left_to_its_owner(self, sim):
        def body():
            deadline = sim.sleep(1.0)
            first = yield wait_for(sim, sim.timeout(0.1), deadline)
            second = yield wait_for(sim, sim.future(), deadline)
            return first, second, sim.now

        first, second, now = sim.run_process(body())
        assert (first, second) == (True, False)
        assert now == pytest.approx(1.0)


class TestGate:
    def test_open_gate_passes_immediately(self, sim):
        gate = Gate(sim, open_=True)
        assert gate.wait().done

    def test_closed_gate_blocks_until_open(self, sim):
        gate = Gate(sim, open_=False)

        def body():
            yield gate.wait()
            return sim.now

        sim.schedule(0.7, gate.open)
        assert sim.run_process(body()) == pytest.approx(0.7)

    def test_open_wakes_all_waiters(self, sim):
        gate = Gate(sim, open_=False)
        woken = []

        def body(name):
            yield gate.wait()
            woken.append(name)

        for name in "abc":
            sim.spawn(body(name))
        sim.schedule(0.1, gate.open)
        sim.run()
        assert sorted(woken) == ["a", "b", "c"]


class TestMutex:
    def test_grants_in_fifo_order(self, sim):
        mutex = Mutex(sim)
        order = []

        def body(name, hold):
            yield mutex.acquire()
            order.append(f"{name}-in")
            yield sim.sleep(hold)
            order.append(f"{name}-out")
            mutex.release()

        sim.spawn(body("first", 0.2))
        sim.spawn(body("second", 0.1))
        sim.run()
        assert order == ["first-in", "first-out", "second-in", "second-out"]

    def test_release_unlocked_is_error(self, sim):
        with pytest.raises(SimulationError):
            Mutex(sim).release()

    def test_locked_flag(self, sim):
        mutex = Mutex(sim)
        assert not mutex.locked
        mutex.acquire()
        assert mutex.locked
        mutex.release()
        assert not mutex.locked


class TestPendingCounter:
    def test_waits_for_drain(self, sim):
        counter = PendingCounter(sim)
        counter.increment()
        counter.increment()

        def body():
            yield counter.wait_drained()
            return sim.now

        sim.schedule(0.3, counter.decrement)
        sim.schedule(0.8, counter.decrement)
        assert sim.run_process(body()) == pytest.approx(0.8)

    def test_zero_counter_drains_immediately(self, sim):
        assert PendingCounter(sim).wait_drained().done

    def test_negative_count_rejected(self, sim):
        with pytest.raises(SimulationError):
            PendingCounter(sim).decrement()

    def test_reusable_after_drain(self, sim):
        counter = PendingCounter(sim)
        counter.increment()
        counter.decrement()
        counter.increment()
        assert not counter.wait_drained().done


class TestResource:
    def test_serializes_beyond_concurrency(self, sim):
        resource = Resource(sim, concurrency=1)

        def body():
            first = resource.use(0.2)
            second = resource.use(0.2)
            yield all_of(sim, [first, second])
            return sim.now

        assert sim.run_process(body()) == pytest.approx(0.4)

    def test_parallel_within_concurrency(self, sim):
        resource = Resource(sim, concurrency=2)

        def body():
            yield all_of(sim, [resource.use(0.2), resource.use(0.2)])
            return sim.now

        assert sim.run_process(body()) == pytest.approx(0.2)

    def test_fifo_queue_order(self, sim):
        resource = Resource(sim, concurrency=1)
        completions = []

        def user(name, duration):
            yield resource.use(duration)
            completions.append(name)

        for name in ["a", "b", "c"]:
            sim.spawn(user(name, 0.1))
        sim.run()
        assert completions == ["a", "b", "c"]

    def test_utilization_accounting(self, sim):
        resource = Resource(sim, concurrency=2)

        def body():
            yield all_of(sim, [resource.use(1.0), resource.use(1.0)])

        sim.run_process(body())
        assert resource.completed == 2
        assert resource.utilization(elapsed=1.0) == pytest.approx(1.0)
        assert resource.utilization(elapsed=2.0) == pytest.approx(0.5)

    def test_zero_duration_is_allowed(self, sim):
        resource = Resource(sim, concurrency=1)

        def body():
            yield resource.use(0.0)
            return sim.now

        assert sim.run_process(body()) == pytest.approx(0.0)

    def test_invalid_arguments(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, concurrency=0)
        with pytest.raises(SimulationError):
            Resource(sim, concurrency=1).use(-1.0)


class TestBroadcast:
    def test_delivers_value_to_all_waiters(self, sim):
        broadcast = Broadcast(sim)
        seen = []

        def body():
            value = yield broadcast.wait()
            seen.append(value)

        sim.spawn(body())
        sim.spawn(body())
        sim.schedule(0.1, broadcast.fire, "go")
        sim.run()
        assert seen == ["go", "go"]

    def test_wait_after_fire_resolves_immediately(self, sim):
        broadcast = Broadcast(sim)
        broadcast.fire(3)
        assert broadcast.wait().value == 3

    def test_double_fire_rejected(self, sim):
        broadcast = Broadcast(sim)
        broadcast.fire()
        with pytest.raises(SimulationError):
            broadcast.fire()


class TestRetryUntil:
    def test_retries_until_accepted(self, sim):
        attempts = []

        def attempt():
            attempts.append(sim.now)
            return sim.timeout(0.1, len(attempts))

        def body():
            result = yield from retry_until(
                sim, attempt, accept=lambda v: v >= 3, backoff=0.05
            )
            return result

        assert sim.run_process(body()) == 3
        assert len(attempts) == 3

    def test_max_attempts_enforced(self, sim):
        def body():
            yield from retry_until(
                sim,
                lambda: sim.timeout(0.1, False),
                accept=bool,
                max_attempts=2,
            )

        with pytest.raises(SimulationError):
            sim.run_process(body())
