"""Exception hierarchy shared by every Q-OPT subsystem.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied.

    Raised, for example, when a quorum configuration violates the
    strictness requirement ``R + W > N`` or when a cluster is built with
    fewer storage nodes than the replication degree.
    """


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting.

    This signals a logic error in a protocol implementation: some process
    is blocked on a future that can never be resolved.
    """


class NodeCrashedError(SimulationError):
    """An operation was attempted on a node that has crashed."""


class OperationError(ReproError):
    """A client-visible request-path failure.

    Unlike :class:`ProtocolError` (an invariant violation, i.e. a bug),
    an :class:`OperationError` is an *expected* outcome under faults: the
    operation could not be completed before its deadline and the caller
    is told so instead of waiting forever.  Every operation either
    succeeds or raises a subclass of this error within a bounded time.
    """


class OperationTimeoutError(OperationError):
    """An operation exceeded its end-to-end deadline."""

    def __init__(
        self,
        message: str,
        *,
        object_id: str = "",
        elapsed: float = 0.0,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.object_id = object_id
        self.elapsed = elapsed
        self.attempts = attempts


class GatherTimeoutError(OperationTimeoutError):
    """A proxy could not assemble a quorum before its gather deadline.

    Raised after the proxy has exhausted its fallback (contacting the
    remaining replicas, Section 2.1) and its ring-rotation retries.
    """


class RetriesExhaustedError(OperationTimeoutError):
    """A client gave up after its bounded retry/backoff budget."""


class ProtocolError(ReproError):
    """A replication or reconfiguration protocol invariant was violated."""


class OracleError(ReproError):
    """The machine-learning oracle could not produce a prediction."""


class NotFittedError(OracleError):
    """A model was asked to predict before being trained."""


class DatasetError(OracleError):
    """A training dataset is malformed (empty, ragged, or mislabelled)."""


class WorkloadError(ReproError):
    """A workload specification is invalid."""


class ExperimentError(ReproError):
    """An experiment harness failure (bad parameters, empty results)."""
