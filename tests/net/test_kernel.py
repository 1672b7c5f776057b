"""RealtimeKernel: the sim's process model on an asyncio event loop."""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.common.errors import SimulationError
from repro.net.kernel import RealtimeKernel
from repro.sim.primitives import wait_for


def test_sim_only_entry_points_are_blocked() -> None:
    async def scenario() -> None:
        kernel = RealtimeKernel()
        with pytest.raises(SimulationError):
            kernel.step()
        with pytest.raises(SimulationError):
            kernel.run()
        with pytest.raises(SimulationError):
            kernel.run_process(iter(()))

    asyncio.run(scenario())


def test_generator_process_runs_on_wall_clock() -> None:
    async def scenario() -> None:
        kernel = RealtimeKernel()
        trail = []

        def worker():
            trail.append("start")
            yield kernel.sleep(0.01)
            trail.append("slept")
            value = yield kernel.timeout(0.01, "token")
            trail.append(value)
            return 42

        result = await asyncio.wait_for(
            kernel.run_process_async(worker(), name="worker"), 5.0
        )
        assert result == 42
        assert trail == ["start", "slept", "token"]
        assert kernel.events_processed > 0

    asyncio.run(scenario())


def test_now_is_monotonic_across_ticks() -> None:
    async def scenario() -> None:
        kernel = RealtimeKernel()
        first = kernel.tick()
        await asyncio.sleep(0.01)
        second = kernel.tick()
        assert second >= first

    asyncio.run(scenario())


def test_wrap_future_resolution_and_failure() -> None:
    async def scenario() -> None:
        kernel = RealtimeKernel()
        ok = kernel.future("ok")
        wrapped = kernel.wrap_future(ok)
        kernel.post(ok.resolve, "payload")
        assert await asyncio.wait_for(wrapped, 5.0) == "payload"

        bad = kernel.future("bad")
        wrapped_bad = kernel.wrap_future(bad)
        kernel.post(bad.fail, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            await asyncio.wait_for(wrapped_bad, 5.0)

    asyncio.run(scenario())


def test_process_crash_is_recorded_not_raised() -> None:
    async def scenario() -> None:
        kernel = RealtimeKernel()

        def doomed():
            yield kernel.sleep(0.0)
            raise ValueError("expected failure")

        kernel.spawn(doomed(), name="doomed")
        await asyncio.sleep(0.05)
        assert len(kernel.crashes) == 1
        name, exc = kernel.crashes[0]
        assert name == "doomed"
        assert isinstance(exc, ValueError)

    asyncio.run(scenario())


def test_crash_list_is_bounded() -> None:
    async def scenario() -> None:
        kernel = RealtimeKernel()

        def doomed():
            yield kernel.sleep(0.0)
            raise ValueError("expected failure")

        for index in range(80):
            kernel.spawn(doomed(), name=f"doomed-{index}")
        await asyncio.sleep(0.2)
        assert len(kernel.crashes) <= 64

    asyncio.run(scenario())


class _Payload:
    """Weak-referenceable stand-in for a gather's reply set."""


def test_wait_for_cancels_the_losing_timer() -> None:
    """1 000 waits that beat a 60 s timeout leave nothing armed.

    The retention law this guards against: an uncancelled loser keeps
    its heap entry and, through its callback chain, the finished wait's
    value for the whole timeout — ``rate x deadline`` of garbage.
    """

    async def scenario() -> None:
        kernel = RealtimeKernel()
        last: list[weakref.ref] = []

        def worker():
            for _ in range(1000):
                reply = kernel.future("reply")
                payload = _Payload()
                last[:] = [weakref.ref(payload)]
                kernel.post(reply.resolve, payload)
                del payload
                assert (yield wait_for(kernel, reply, 60.0)) is True
                assert kernel.timers_pending == 0
            return kernel.timers_armed

        armed = await asyncio.wait_for(
            kernel.run_process_async(worker(), name="worker"), 30.0
        )
        assert armed == 1000
        assert kernel.timers_cancelled == 1000
        assert kernel.timers_fired == 0
        # No sleep: the value is unreachable the moment the wait returns,
        # not when the 60 s timer would have fired.
        gc.collect()
        assert last[0]() is None

    asyncio.run(scenario())


def test_wait_for_times_out_and_shares_a_deadline() -> None:
    async def scenario() -> None:
        kernel = RealtimeKernel()

        def worker():
            never = kernel.future("never")
            assert (yield wait_for(kernel, never, 0.01)) is False
            deadline = kernel.sleep(0.02)
            # A shared deadline is the caller's to cancel, not the wait's.
            ready = kernel.future("ready")
            ready.resolve("x")
            assert (yield wait_for(kernel, ready, deadline)) is True
            assert kernel.timers_pending == 1
            assert (yield wait_for(kernel, never, deadline)) is False
            late = kernel.sleep(60.0)
            late.cancel()
            late.cancel()  # idempotent
            return kernel.timers_pending

        pending = await asyncio.wait_for(
            kernel.run_process_async(worker(), name="worker"), 5.0
        )
        assert pending == 0
        assert kernel.timers_armed == 3
        assert kernel.timers_fired == 2
        assert kernel.timers_cancelled == 1

    asyncio.run(scenario())
