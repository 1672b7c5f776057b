"""Coordination primitives layered on the simulation kernel.

These are the building blocks protocol code is written with: waiting for
all/any of a set of futures, gates ("wait until condition X"), counters
("wait until the last pending operation drains" — Algorithm 3 line 14),
and FIFO queueing resources that model CPUs and disks.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.common.errors import SimulationError
from repro.sim.kernel import Future, Simulator, Timer


def all_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """A future resolving with the list of all results, in input order.

    If any input future fails, the combined future fails with that
    exception (first failure wins).
    """
    futures = list(futures)
    combined = sim.future(name=f"all_of[{len(futures)}]")
    if not futures:
        combined.resolve([])
        return combined
    remaining = [len(futures)]
    results: list[Any] = [None] * len(futures)

    def on_done(index: int, future: Future) -> None:
        if combined.done:
            return
        if future.exception is not None:
            combined.fail(future.exception)
            return
        results[index] = future._value
        remaining[0] -= 1
        if remaining[0] == 0:
            combined.resolve(results)

    for index, future in enumerate(futures):
        future.add_callback(lambda f, i=index: on_done(i, f))
    return combined


def any_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """A future resolving with ``(index, value)`` of the first completion."""
    futures = list(futures)
    if not futures:
        raise SimulationError("any_of requires at least one future")
    combined = sim.future(name=f"any_of[{len(futures)}]")

    def on_done(index: int, future: Future) -> None:
        if combined.done:
            return
        if future.exception is not None:
            combined.fail(future.exception)
        else:
            combined.resolve((index, future._value))

    for index, future in enumerate(futures):
        future.add_callback(lambda f, i=index: on_done(i, f))
    return combined


def wait_for(
    sim: Simulator, future: Future, timeout: Union[float, Timer]
) -> Future:
    """Wait for ``future``, but no longer than ``timeout``.

    Resolves ``True`` as soon as ``future`` completes (failing with its
    exception if it failed) and ``False`` if the timeout elapses first.
    A ``timeout`` in seconds arms a timer this wait owns and cancels the
    moment ``future`` wins, so nothing stays armed — and nothing the
    finished wait produced stays referenced — past the work it bounded:
    a wait with a timeout cancels its loser.  Pass a :class:`Timer`
    instead to share one deadline between several waits; the caller
    then owns it and cancels it when done.
    """
    if isinstance(timeout, Timer):
        timer, owned = timeout, False
    else:
        timer, owned = sim.sleep(timeout), True
    waited = sim.future(name="wait_for")

    def on_future(completed: Future) -> None:
        if waited.done:
            return
        if owned:
            timer.cancel()
        if completed.exception is not None:
            waited.fail(completed.exception)
        else:
            waited.resolve(True)

    def on_timeout(_timer: Future) -> None:
        if not waited.done:
            waited.resolve(False)

    future.add_callback(on_future)
    if not waited.done:
        timer.add_callback(on_timeout)
    return waited


class Gate:
    """A reusable open/closed barrier.

    Processes waiting on :meth:`wait` resume as soon as the gate is (or
    becomes) open.  Used for the "canReconfig" flag of Algorithm 2.
    """

    def __init__(self, sim: Simulator, open_: bool = True) -> None:
        self._sim = sim
        self._open = open_
        self._waiters: list[Future] = []

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.resolve(None)

    def close(self) -> None:
        self._open = False

    def wait(self) -> Future:
        future = self._sim.future(name="gate.wait")
        if self._open:
            future.resolve(None)
        else:
            self._waiters.append(future)
        return future


class Mutex:
    """FIFO mutual exclusion for processes.

    Unlike :class:`Gate`, which wakes *all* waiters when opened, a mutex
    grants the lock to one waiter at a time, in arrival order.  The
    Reconfiguration Manager uses it to serialize reconfigurations
    ("Multiple reconfigurations are executed in sequence", Section 5.2).
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._locked = False
        self._waiters: deque[Future] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Future:
        """A future resolving when the caller holds the lock."""
        future = self._sim.future(name="mutex.acquire")
        if not self._locked:
            self._locked = True
            future.resolve(None)
        else:
            self._waiters.append(future)
        return future

    def release(self) -> None:
        if not self._locked:
            raise SimulationError("Mutex released while unlocked")
        if self._waiters:
            self._waiters.popleft().resolve(None)
        else:
            self._locked = False


class PendingCounter:
    """Counts in-flight operations; lets a process wait for drain.

    Proxies use one per quorum epoch: before acknowledging a NEWQ message
    they must "wait until all pending reads/writes issued using the old
    quorum complete" (Algorithm 3, line 14).
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._count = 0
        self._drain_waiters: list[Future] = []

    @property
    def count(self) -> int:
        return self._count

    def increment(self) -> None:
        self._count += 1

    def decrement(self) -> None:
        if self._count <= 0:
            raise SimulationError("PendingCounter went negative")
        self._count -= 1
        if self._count == 0:
            waiters, self._drain_waiters = self._drain_waiters, []
            for waiter in waiters:
                waiter.resolve(None)

    def wait_drained(self) -> Future:
        future = self._sim.future(name="pending.drained")
        if self._count == 0:
            future.resolve(None)
        else:
            self._drain_waiters.append(future)
        return future


class Resource:
    """A FIFO queueing server with bounded concurrency.

    Models a storage node's disk/worker pool or a proxy's CPU: up to
    ``concurrency`` requests are in service at once; the rest queue in FIFO
    order.  ``use(duration)`` returns a future that resolves when the
    request has both reached the head of the queue and been serviced for
    ``duration`` simulated seconds.
    """

    def __init__(self, sim: Simulator, concurrency: int, name: str = "") -> None:
        if concurrency < 1:
            raise SimulationError("Resource concurrency must be >= 1")
        self._sim = sim
        self._concurrency = concurrency
        self._busy = 0
        self._queue: deque[tuple[float, Future]] = deque()
        self.name = name or "resource"
        self._use_name = f"{self.name}.use"
        #: Cumulative busy time integrated over all servers (for utilization).
        self.busy_time = 0.0
        #: Total requests served to completion.
        self.completed = 0

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def in_service(self) -> int:
        return self._busy

    def use(self, duration: float) -> Future:
        """Acquire a server, hold it ``duration`` seconds, then release."""
        if duration < 0:
            raise SimulationError("service duration must be >= 0")
        done = self._sim.future(name=self._use_name)
        if self._busy < self._concurrency:
            self._start(duration, done)
        else:
            self._queue.append((duration, done))
        return done

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of servers busy over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self._concurrency)

    def _start(self, duration: float, done: Future) -> None:
        self._busy += 1
        self._sim.schedule(duration, self._complete, duration, done)

    def _complete(self, duration: float, done: Future) -> None:
        self._busy -= 1
        self.busy_time += duration
        self.completed += 1
        if self._queue:
            next_duration, next_done = self._queue.popleft()
            self._start(next_duration, next_done)
        done.resolve(None)


class Broadcast:
    """One-shot broadcast: many waiters, one fire.

    Unlike :class:`Gate` it delivers a value and never reuses.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self._fired = False
        self._value: Any = None
        self._waiters: list[Future] = []
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    def fire(self, value: Any = None) -> None:
        if self._fired:
            raise SimulationError(f"Broadcast {self.name} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.resolve(value)

    def wait(self) -> Future:
        future = self._sim.future(name=f"{self.name}.wait")
        if self._fired:
            future.resolve(self._value)
        else:
            self._waiters.append(future)
        return future


def retry_until(
    sim: Simulator,
    attempt: Callable[[], Future],
    accept: Callable[[Any], bool],
    backoff: float = 0.0,
    max_attempts: Optional[int] = None,
) -> Generator[Future, Any, Any]:
    """Process body: repeat ``attempt`` until ``accept(result)`` holds.

    Returns the accepted result.  Used in tests and examples to model
    client-side retry loops.
    """
    attempts = 0
    while True:
        attempts += 1
        result = yield attempt()
        if accept(result):
            return result
        if max_attempts is not None and attempts >= max_attempts:
            raise SimulationError(
                f"retry_until exhausted {max_attempts} attempts"
            )
        if backoff > 0:
            yield sim.sleep(backoff)
