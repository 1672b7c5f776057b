"""Core value types shared across the Q-OPT stack.

The central type is :class:`QuorumConfig`, the (R, W) pair that the whole
paper is about.  The module also defines the process identifiers used by the
simulated Swift-like store and the version timestamps that give write
operations their total order (Section 2.1 of the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigurationError

#: Objects are addressed by opaque string identifiers, as in Swift's
#: ``/account/container/object`` paths.  We keep them as plain strings.
ObjectId = str


class NodeKind(enum.Enum):
    """Roles a simulated process can play (Figure 1 of the paper)."""

    PROXY = "proxy"
    STORAGE = "storage"
    CLIENT = "client"
    AUTONOMIC_MANAGER = "autonomic-manager"
    RECONFIG_MANAGER = "reconfig-manager"
    ORACLE = "oracle"


@dataclass(frozen=True, order=True)
class NodeId:
    """Identifier of a simulated process.

    Ordering is lexicographic on ``(kind, index)`` so node ids can be used
    as deterministic dictionary keys and tie-breakers.
    """

    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}-{self.index}"

    @staticmethod
    def proxy(index: int) -> "NodeId":
        return NodeId(NodeKind.PROXY.value, index)

    @staticmethod
    def storage(index: int) -> "NodeId":
        return NodeId(NodeKind.STORAGE.value, index)

    @staticmethod
    def client(index: int) -> "NodeId":
        return NodeId(NodeKind.CLIENT.value, index)

    @staticmethod
    def singleton(kind: NodeKind) -> "NodeId":
        return NodeId(kind.value, 0)


@dataclass(frozen=True, order=True)
class QuorumConfig:
    """A read/write quorum size pair, as it travels on the wire.

    Whether a pair is *strict* — every read quorum meets every write
    quorum, the property strong consistency rests on (Section 2.1) — is
    answered by :class:`repro.sds.quorum.QuorumSystem`.
    """

    read: int
    write: int

    def __post_init__(self) -> None:
        if self.read < 1 or self.write < 1:
            raise ConfigurationError(
                f"quorum sizes must be >= 1, got R={self.read} W={self.write}"
            )

    def __str__(self) -> str:
        return f"R={self.read},W={self.write}"

    @staticmethod
    def from_write(write: int, replication_degree: int) -> "QuorumConfig":
        """Derive the minimal strict configuration for a write-quorum size.

        The paper's Oracle only outputs W; R is derived as ``N - W + 1``
        (Section 4).
        """
        if not 1 <= write <= replication_degree:
            raise ConfigurationError(
                f"write quorum {write} outside [1, {replication_degree}]"
            )
        return QuorumConfig(read=replication_degree - write + 1, write=write)


@dataclass(frozen=True, order=True)
class VersionStamp:
    """Total order over write operations (Section 2.1).

    Writes are ordered by ``(timestamp, proxy)``: the simulated wall-clock
    timestamp first, with the issuing proxy's id as a commutative
    tie-breaker for concurrent writes, mirroring the globally-synchronized
    clock + proxy-id scheme the paper describes.  ``ZERO`` orders before
    every real write and denotes "never written".
    """

    timestamp: float
    proxy: str

    def __str__(self) -> str:
        return f"ts={self.timestamp:.6f}@{self.proxy}"


#: The stamp carried by objects that were never written.
ZERO_STAMP = VersionStamp(timestamp=float("-inf"), proxy="")


@dataclass(frozen=True)
class Version:
    """A stored object version.

    Besides the value and its :class:`VersionStamp`, a version records the
    ``cfg_no`` — the identifier of the quorum configuration in force when it
    was written.  Proxies use it to detect that a value may have been
    written with a smaller write quorum than the current one and must be
    re-read with a larger read quorum (Algorithm 4, lines 10-27).
    """

    value: Optional[bytes]
    stamp: VersionStamp
    cfg_no: int
    size: int = field(default=0)

    def is_newer_than(self, other: "Version") -> bool:
        return self.stamp > other.stamp


#: Shared placeholder for never-written objects.  ``Version`` is frozen,
#: so one instance can be handed to every caller.
_MISSING_VERSION = Version(value=None, stamp=ZERO_STAMP, cfg_no=0, size=0)


def missing_version() -> Version:
    """Placeholder version returned by replicas that never saw the object."""
    return _MISSING_VERSION


class OpType(enum.Enum):
    """The two client-facing operation types of the object store."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is OpType.WRITE
