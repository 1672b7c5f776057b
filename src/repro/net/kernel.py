"""A wall-clock kernel that runs the simulator's processes over asyncio.

The protocol code — proxies, storage nodes, clients, the reconfiguration
manager — is written as generators that talk to a tiny kernel surface:
``now``, ``schedule()``, ``future()``, ``sleep()``, ``timeout()`` and
``spawn()``.  :class:`RealtimeKernel` implements exactly that surface on
top of the asyncio event loop, so the *unmodified* generators execute in
real time: ``schedule(delay, ...)`` becomes ``loop.call_later`` and
``now`` reads the wall clock.  ``sleep()``/``timeout()`` keep their loop
handle, so cancelling the :class:`~repro.sim.kernel.Timer` they return
frees the heap entry and everything its callback referenced at once —
what a node holds is bounded by its work in flight, not by request rate
times deadline.

``now`` is ``time.time()`` (not ``loop.time()``): version stamps are
ordered ``(timestamp, proxy)`` under the paper's globally-synchronized
clock assumption, and the wall clock is the one clock all processes on a
host (or NTP-synced hosts) share.  A per-kernel monotonic clamp protects
stamp order from small backwards steps of the wall clock.

Everything layered on the sim kernel — :class:`~repro.sim.network.Mailbox`,
:class:`~repro.sim.primitives.Resource`, ``wait_for`` — only uses this
surface, so it all runs unchanged too.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Callable, Optional

from repro.common.errors import SimulationError
from repro.sim.kernel import Future, Process, ProcessGen, Simulator, Timer

logger = logging.getLogger(__name__)


class RealtimeKernel(Simulator):
    """Drop-in :class:`~repro.sim.kernel.Simulator` backed by asyncio.

    The kernel does not own the event loop: create it inside a running
    loop (or pass one explicitly) and drive the program with ordinary
    ``await``-based code; protocol generators spawned on the kernel run
    interleaved with coroutines on the same loop.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        super().__init__()
        if loop is not None:
            self._loop = loop
        else:
            # Constructed from inside `asyncio.run(...)`: attach to the
            # running loop.  (Outside one, pass the loop explicitly.)
            self._loop = asyncio.get_running_loop()
        #: Unhandled crashes of fire-and-forget processes, for inspection
        #: (the sim kernel raises out of ``step()``; a live server must
        #: keep running, so crashes are logged and collected instead).
        self.crashes: list[tuple[str, BaseException]] = []
        #: ``sleep()``/``timeout()`` timers armed, cancelled before they
        #: fired, and fired; exported on ``/metrics``.  What is armed and
        #: neither cancelled nor fired is what the loop's heap still
        #: holds, so it tracks the work in flight, not the request rate.
        self.timers_armed: int = 0
        self.timers_cancelled: int = 0
        self.timers_fired: int = 0
        self.now = time.time()

    # -- clock ---------------------------------------------------------------

    def tick(self) -> float:
        """Advance ``now`` to the wall clock and return it.

        Called at every event dispatch; external coroutines that read
        ``kernel.now`` directly may call it first for a fresh value.  The
        clamp keeps ``now`` monotonic even if the wall clock steps back.

        The lease grant table (invariant I7) leans on this monotonicity:
        ``StorageNode`` compares grant expiries against ``now``, so a
        backwards wall-clock step can never resurrect an expired grant —
        it only stretches live ones, which is a liveness (not safety)
        effect because the primary re-validates every lease read on this
        same clock.
        """
        self.now = max(self.now, time.time())
        return self.now

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` after ``delay`` wall-clock seconds."""
        self._call(delay, callback, args)

    def _call(
        self, delay: float, callback: Callable[..., None], args: tuple
    ) -> asyncio.Handle:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        if delay == 0:
            return self._loop.call_soon(self._dispatch, callback, args)
        return self._loop.call_later(delay, self._dispatch, callback, args)

    def _schedule_now(self, callback: Callable[..., None], *args: Any) -> None:
        self._loop.call_soon(self._dispatch, callback, args)

    def _arm(self, timer: Timer, delay: float, value: Any) -> None:
        timer._handle = self._call(delay, self._expire, (timer, value))
        self.timers_armed += 1

    def _expire(self, timer: Timer, value: Any) -> None:
        timer._handle = None
        self.timers_fired += 1
        timer.resolve(value)

    def _disarm(self, timer: Timer) -> None:
        """Cancel the loop handle: the heap entry, its callback and
        everything that references are released now, not at expiry."""
        handle = timer._handle
        if handle is not None:
            timer._handle = None
            handle.cancel()
            self.timers_cancelled += 1

    @property
    def timers_pending(self) -> int:
        """Timers armed and neither cancelled nor fired yet."""
        return self.timers_armed - self.timers_cancelled - self.timers_fired

    def post(self, callback: Callable[..., None], *args: Any) -> None:
        """Hand work from asyncio code into the kernel.

        External entry points (socket readers, HTTP handlers) must not
        call into protocol state directly — routing through :meth:`post`
        refreshes ``now`` first, so every protocol step observes a
        current clock, exactly as events do in the simulator.
        """
        self._schedule_now(callback, *args)

    def _dispatch(self, callback: Callable[..., None], args: tuple) -> None:
        # Hottest function on the live runtime: every timer, message
        # delivery and process step funnels through here, so the clock
        # advance is inlined from :meth:`tick` and the crash-list bound
        # is enforced at append time (:meth:`_report_crash`) rather than
        # scanned per event.
        now = time.time()
        if now > self.now:
            self.now = now
        self.events_processed += 1
        callback(*args)

    # -- asyncio bridging ----------------------------------------------------

    def wrap_future(self, future: Future) -> "asyncio.Future[Any]":
        """An asyncio future mirroring a kernel :class:`Future`.

        Lets coroutines ``await`` protocol events (e.g. the result future
        of a reconfiguration process).
        """
        wrapped: "asyncio.Future[Any]" = self._loop.create_future()

        def _done(completed: Future) -> None:
            if wrapped.cancelled():
                return
            exc = completed.exception
            if exc is not None:
                wrapped.set_exception(exc)
            else:
                wrapped.set_result(completed._value)

        future.add_callback(_done)
        return wrapped

    async def run_process_async(self, gen: ProcessGen, name: str = "") -> Any:
        """Spawn a protocol process and await its result."""
        process = self.spawn(gen, name=name)
        return await self.wrap_future(process.result)

    # -- error reporting ------------------------------------------------------

    def _report_crash(self, process: Process, exc: BaseException) -> None:
        logger.error(
            "unhandled exception in process %s", process.name, exc_info=exc
        )
        crashes = self.crashes
        crashes.append((process.name, exc))
        # Keep only a bounded tail so a crash-looping process cannot grow
        # memory without bound on a long-lived server.
        if len(crashes) > 64:
            del crashes[: len(crashes) - 64]

    # -- sim-only entry points -----------------------------------------------

    def step(self) -> bool:
        raise SimulationError(
            "RealtimeKernel is driven by the asyncio loop; step() is "
            "simulation-only"
        )

    def run(self, until: Optional[float] = None) -> None:
        raise SimulationError(
            "RealtimeKernel is driven by the asyncio loop; run() is "
            "simulation-only"
        )

    def run_process(self, gen: ProcessGen, name: str = "") -> Any:
        raise SimulationError(
            "use `await RealtimeKernel.run_process_async(...)` instead of "
            "run_process()"
        )


__all__ = ["RealtimeKernel"]
