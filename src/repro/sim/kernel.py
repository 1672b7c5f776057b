"""Discrete-event simulation kernel.

A small, dependency-free event loop in the style of SimPy: simulated
*processes* are Python generators that ``yield`` :class:`Future` objects to
suspend themselves; the :class:`Simulator` advances virtual time and resumes
processes when the futures they wait on resolve.

The kernel is deliberately minimal — channels, resources and failure
injection are layered on top in sibling modules — but it is exact: events
scheduled for the same instant fire in scheduling order, making every run
deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from repro.common.errors import DeadlockError, SimulationError

#: The generator type simulated processes are written as.
ProcessGen = Generator["Future", Any, Any]


class Future:
    """A one-shot value that a process can wait on.

    A future starts *pending* and is later either resolved with a value or
    failed with an exception.  Callbacks added after completion fire
    immediately; a future can complete at most once.
    """

    __slots__ = ("_sim", "_done", "_value", "_exception", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"<Future {self.name or id(self)} {state}>"

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError(f"future {self!r} not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        self._complete(value, None)

    def fail(self, exception: BaseException) -> None:
        """Complete the future with an exception.

        Any process waiting on the future has the exception thrown into it
        at its ``yield`` point.
        """
        self._complete(None, exception)

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` once the future completes."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _complete(
        self, value: Any, exception: Optional[BaseException]
    ) -> None:
        if self._done:
            raise SimulationError(f"future {self!r} completed twice")
        self._done = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timer(Future):
    """The future :meth:`Simulator.sleep` returns: a deadline its owner
    can give up on.

    A wait that arms a timer and then completes for another reason must
    :meth:`cancel` it — otherwise the timer's callback chain pins
    whatever the finished wait produced until the delay runs out (see
    :func:`repro.sim.primitives.wait_for`, which does this for you).
    """

    __slots__ = ("_handle",)

    #: The live kernel's loop handle, set when it arms the timer; the
    #: simulator never touches it.
    _handle: Any

    def cancel(self) -> None:
        """Drop every waiter and disarm; a no-op once the timer fired."""
        if self._done:
            return
        self._callbacks.clear()
        self._sim._disarm(self)


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process:
    """A running simulated activity, driven by the simulator.

    Wraps a generator; each value the generator yields must be a
    :class:`Future`.  When the generator returns, :attr:`result` resolves
    with its return value, so processes can ``yield other.result`` to join.
    """

    __slots__ = ("_sim", "_gen", "_waiting_on", "name", "result", "_alive")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str) -> None:
        self._sim = sim
        self._gen = gen
        self._waiting_on: Optional[Future] = None
        self.name = name
        self.result = Future(sim, name=f"{name}.result")
        self._alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "finished"
        return f"<Process {self.name} {state}>"

    @property
    def alive(self) -> bool:
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self._alive:
            return
        self._waiting_on = None
        self._sim._schedule_now(self._step_throw, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process silently; see :func:`kill_all`."""
        kill_all((self,))

    # -- stepping machinery -------------------------------------------------

    def _start(self) -> None:
        self._sim._schedule_now(self._step_send, None)

    def _step_send(self, value: Any) -> None:
        if not self._alive:
            return
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
        except BaseException as exc:  # noqa: BLE001 - propagate via result
            self._finish(None, exc)
        else:
            self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        if not self._alive:
            return
        try:
            target = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value, None)
        except BaseException as err:  # noqa: BLE001 - propagate via result
            self._finish(None, err)
        else:
            self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Process):
            target = target.result
        if not isinstance(target, Future):
            self._finish(
                None,
                SimulationError(
                    f"process {self.name} yielded {target!r}; "
                    "processes must yield Future or Process"
                ),
            )
            return
        self._waiting_on = target
        target.add_callback(self._on_future_done)

    def _on_future_done(self, future: Future) -> None:
        if not self._alive or self._waiting_on is not future:
            return  # interrupted or killed while waiting
        self._waiting_on = None
        if future.exception is not None:
            self._step_throw(future.exception)
        else:
            self._step_send(future._value)

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        self._alive = False
        if exc is None:
            self.result.resolve(value)
            return
        # A process someone is joining on delivers its exception to the
        # joiner; a fire-and-forget process that dies is a bug in the
        # simulation and is surfaced as an unhandled crash.
        watched = bool(self.result._callbacks)
        self.result.fail(exc)
        if not watched and not isinstance(exc, Interrupt):
            self._sim._report_crash(self, exc)


def kill_all(processes: Iterable[Process]) -> None:
    """Terminate processes silently, as one step (used for node crashes).

    Every process is marked dead before any generator is closed: closing
    one runs its ``finally`` blocks, which may resolve a future another
    of them waits on, and that one must not resume.  Each ``result``
    future is failed so that joiners are not left waiting forever.
    """
    victims = [process for process in processes if process._alive]
    for process in victims:
        process._alive = False
        process._waiting_on = None
    for process in victims:
        process._gen.close()
        if not process.result.done:
            process.result.fail(Interrupt("killed"))


class Simulator:
    """The event loop: a priority queue of timestamped callbacks."""

    def __init__(self) -> None:
        #: Simulated time, strictly non-decreasing.  Protocol code that
        #: compares stored deadlines against ``now`` (e.g. the lease
        #: grant table, invariant I7) relies on exactly this property
        #: and nothing else, which is why the same code runs unchanged
        #: under the clamped wall clock of ``net.kernel.RealtimeKernel``.
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        self._process_count = itertools.count()
        self._unhandled: list[tuple[Process, BaseException]] = []
        #: Events executed so far; the perf harness divides this by wall
        #: time for its kernel events/sec regression gate.
        self.events_processed: int = 0

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._sequence), callback, args)
        )

    def _schedule_now(self, callback: Callable[..., None], *args: Any) -> None:
        self.schedule(0.0, callback, *args)

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process from a generator."""
        name = name or f"proc-{next(self._process_count)}"
        process = Process(self, gen, name)
        process._start()
        return process

    # -- waiting helpers ------------------------------------------------------

    def future(self, name: str = "") -> Future:
        return Future(self, name=name)

    def sleep(self, delay: float) -> Timer:
        """A cancellable future resolving after ``delay`` simulated seconds."""
        timer = Timer(self, name="sleep")
        self._arm(timer, delay, None)
        return timer

    def timeout(self, delay: float, value: Any = None) -> Timer:
        """Like :meth:`sleep` but resolving with ``value``."""
        timer = Timer(self, name="timeout")
        self._arm(timer, delay, value)
        return timer

    def _arm(self, timer: Timer, delay: float, value: Any) -> None:
        self.schedule(delay, timer.resolve, value)

    def _disarm(self, timer: Timer) -> None:
        """Kernel half of :meth:`Timer.cancel`.

        The simulator leaves the heap entry in place: it still pops at
        its instant and resolves a timer nobody listens to, so event
        order, sequence numbers and :attr:`events_processed` are the
        same whether or not a timer was cancelled — cancellation can
        never perturb a seeded run.  The live kernel overrides this to
        release the entry at once.
        """

    # -- running ---------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event; return False when the queue is empty."""
        if not self._queue:
            return False
        time, _seq, callback, args = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("event queue time went backwards")
        self.now = time
        self.events_processed += 1
        callback(*args)
        if self._unhandled:
            self._raise_unhandled()
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given, simulated time is advanced to exactly
        ``until`` even if the queue drains earlier.

        The loop body is :meth:`step` inlined: one iteration runs per
        simulated event, so the per-event method call and duplicate
        queue peeks are worth eliding.  Keep the two in lock-step.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}: now is already {self.now}"
            )
        queue = self._queue
        pop = heapq.heappop
        unhandled = self._unhandled
        while queue:
            time = queue[0][0]
            if until is not None and time > until:
                break
            time, _seq, callback, args = pop(queue)
            if time < self.now:
                raise SimulationError("event queue time went backwards")
            self.now = time
            self.events_processed += 1
            callback(*args)
            if unhandled:
                self._raise_unhandled()
        if until is not None:
            self.now = until

    def run_process(self, gen: ProcessGen, name: str = "") -> Any:
        """Spawn a process, run to completion, and return its result.

        Raises :class:`DeadlockError` if the event queue drains before the
        process finishes — i.e., the process is blocked forever.
        """
        process = self.spawn(gen, name=name)
        # Mark the result as watched so a failure propagates here instead of
        # being reported as an unhandled crash inside step().
        process.result.add_callback(lambda _future: None)
        while not process.result.done:
            if not self.step():
                raise DeadlockError(
                    f"simulation deadlocked waiting for {process.name}"
                )
        return process.result.value

    # -- error reporting ---------------------------------------------------------

    def _report_crash(self, process: Process, exc: BaseException) -> None:
        self._unhandled.append((process, exc))

    def _raise_unhandled(self) -> None:
        if not self._unhandled:
            return
        process, exc = self._unhandled.pop(0)
        self._unhandled.clear()
        raise SimulationError(
            f"unhandled exception in process {process.name}: {exc!r}"
        ) from exc


def as_process(sim: Simulator, futures: Iterable[Future]) -> ProcessGen:
    """Tiny helper: a process body awaiting a sequence of futures."""
    results = []
    for future in futures:
        results.append((yield future))
    return results
