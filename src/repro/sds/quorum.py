"""Quorum plans and the one quorum system that judges them.

Q-OPT assigns *different quorum systems to different items* (Section 5.4):
the hot objects found by top-k analysis get individual (R, W) pairs while
the tail of the access distribution shares a single default.  A
:class:`QuorumPlan` captures one installed assignment — a default
configuration plus per-object overrides — and is the unit the
Reconfiguration Manager installs under a configuration number ``cfg_no``.

:class:`QuorumSystem` is the only code that knows what a quorum *is*:
the strict threshold system over N replicas (Section 2.1).  Strictness,
the admissible write-quorum sizes, the minimal configurations, the
transition plan of Algorithm 3, the epoch-fence quorum of Algorithm 2
and the I6 recovery quorum are all answered by its methods, and
``python -m repro.qlint`` checks call sites against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.common.errors import ConfigurationError
from repro.common.types import ObjectId, QuorumConfig


@dataclass(frozen=True)
class QuorumPlan:
    """An immutable quorum assignment: default + per-object overrides."""

    default: QuorumConfig
    overrides: Mapping[ObjectId, QuorumConfig] = field(default_factory=dict)

    def quorum_for(self, object_id: ObjectId) -> QuorumConfig:
        """The (R, W) pair governing accesses to ``object_id``."""
        return self.overrides.get(object_id, self.default)

    def with_overrides(
        self, updates: Mapping[ObjectId, QuorumConfig]
    ) -> "QuorumPlan":
        """New plan with additional/replaced per-object overrides."""
        merged = dict(self.overrides)
        merged.update(updates)
        return QuorumPlan(default=self.default, overrides=merged)

    def with_default(self, default: QuorumConfig) -> "QuorumPlan":
        """New plan with a different tail (default) configuration."""
        return QuorumPlan(default=default, overrides=dict(self.overrides))

    @staticmethod
    def uniform(quorum: QuorumConfig) -> "QuorumPlan":
        """A plan assigning the same configuration to every object."""
        return QuorumPlan(default=quorum, overrides={})


@dataclass(frozen=True)
class QuorumSystem:
    """The strict threshold quorum system over ``n`` replicas.

    Any R replicas meet any W replicas exactly when ``R + W > N``, and a
    quorum larger than N cannot be formed at all.  Writes need no
    ``2W > N``: they carry globally ordered stamps (Section 2.1).  The
    system is consulted on the install, reconfiguration and recovery
    paths only; per-operation code reads ``QuorumPlan.quorum_for``.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(
                f"replication degree must be >= 1, got {self.n}"
            )

    # -- strictness (invariant I1) -------------------------------------------

    def admits(self, quorum: QuorumConfig) -> bool:
        """Whether every read quorum of ``quorum`` meets every write one."""
        return self._violation(quorum) is None

    def require_strict(self, quorum: QuorumConfig) -> QuorumConfig:
        """Raise :class:`ConfigurationError` unless admitted; return it."""
        violation = self._violation(quorum)
        if violation is not None:
            raise ConfigurationError(violation)
        return quorum

    def require_strict_plan(self, plan: QuorumPlan) -> QuorumPlan:
        """:meth:`require_strict` for the default and every override."""
        self.require_strict(plan.default)
        for object_id, quorum in plan.overrides.items():
            violation = self._violation(quorum)
            if violation is not None:
                raise ConfigurationError(
                    f"override for {object_id!r}: {violation}"
                )
        return plan

    def _violation(self, quorum: QuorumConfig) -> Optional[str]:
        if quorum.read + quorum.write <= self.n:
            return (
                f"{quorum} is not strict for N={self.n}: "
                f"R + W = {quorum.read + quorum.write} does not exceed "
                f"N = {self.n}"
            )
        if max(quorum.read, quorum.write) > self.n:
            return f"{quorum} exceeds replication degree N={self.n}"
        return None

    # -- write-quorum sizes ------------------------------------------------------

    def admissible_writes(
        self, minimum: int = 1, maximum: Optional[int] = None
    ) -> range:
        """W sizes allowed under a user's fault-tolerance bounds (Section 3).

        ``maximum`` defaults to N; raises unless
        ``1 <= minimum <= maximum <= N``.
        """
        upper = maximum or self.n
        if not 1 <= minimum <= upper <= self.n:
            raise ConfigurationError(
                "write-quorum bounds must satisfy "
                f"1 <= min ({minimum}) <= max ({upper}) <= N ({self.n})"
            )
        return range(minimum, upper + 1)

    @staticmethod
    def clamp_write(write: int, writes: range) -> int:
        """The size in ``writes`` nearest to ``write``."""
        return max(writes[0], min(writes[-1], write))

    def minimal_configs(self) -> list[QuorumConfig]:
        """``(N - W + 1, W)`` for every W, ascending: the Oracle's choices."""
        return [
            QuorumConfig.from_write(write, self.n)
            for write in self.admissible_writes()
        ]

    # -- reconfiguration and recovery ---------------------------------------------

    def transition_plan(
        self, old: QuorumPlan, new: QuorumPlan
    ) -> QuorumPlan:
        """The quorums used while moving from ``old`` to ``new``.

        Per object, the pairwise max of the old and new (R, W) — the
        per-object generalization of Algorithm 3 line 13: its read
        (write) quorum meets the write (read) quorums of both plans.
        """
        overrides = {
            object_id: _pairwise_max(
                old.quorum_for(object_id), new.quorum_for(object_id)
            )
            for object_id in sorted(set(old.overrides) | set(new.overrides))
        }
        return QuorumPlan(
            default=_pairwise_max(old.default, new.default),
            overrides=overrides,
        )

    def fence_quorum(self, plan: QuorumPlan) -> int:
        """Storage acks an epoch change needs under ``plan``.

        ``max(R, W)`` over every configuration in the plan (Algorithm 2
        lines 12-14 and 18-19): at least any W, so it meets every read
        quorum, and at least any R, so it meets every write quorum.
        """
        return max(max(q.read, q.write) for q in _configs(plan))

    def recovery_quorum(self, plan: QuorumPlan, peers: int) -> int:
        """Caught-up peers a rejoining replica must merge (invariant I6).

        The plan's largest read quorum, which meets every write quorum
        of the plan, capped at the ``peers`` there are to ask.
        """
        return min(max(q.read for q in _configs(plan)), peers)


def _configs(plan: QuorumPlan) -> list[QuorumConfig]:
    return [plan.default, *plan.overrides.values()]


def _pairwise_max(a: QuorumConfig, b: QuorumConfig) -> QuorumConfig:
    return QuorumConfig(read=max(a.read, b.read), write=max(a.write, b.write))


@dataclass(frozen=True)
class InstalledConfiguration:
    """A quorum plan together with the configuration number it got.

    Proxies keep the history of installed configurations (the paper's set
    ``Q``) to compute the read quorum needed when a read returns a version
    written under an older configuration (Algorithm 4, lines 10-17).
    """

    cfg_no: int
    plan: QuorumPlan


class ConfigurationHistory:
    """The proxy-side set ``Q`` of installed configurations.

    Supports the single query Algorithm 4 needs: the largest read quorum
    that governed ``object_id`` in any configuration between ``since``
    and ``until`` (inclusive).  History can be pruned once a maximal read
    quorum is installed (paper, footnote 2); we keep it simple and retain
    everything, which is cheap at simulation scale.
    """

    def __init__(self) -> None:
        self._installed: list[InstalledConfiguration] = []

    def __len__(self) -> int:
        return len(self._installed)

    def record(self, cfg_no: int, plan: QuorumPlan) -> None:
        if self._installed and cfg_no <= self._installed[-1].cfg_no:
            # Re-delivery of an already-known configuration (e.g. via a
            # NACK that raced a CONFIRM) is harmless; ignore it.
            return
        self._installed.append(InstalledConfiguration(cfg_no, plan))

    def latest(self) -> Optional[InstalledConfiguration]:
        return self._installed[-1] if self._installed else None

    def max_read_quorum(
        self, object_id: ObjectId, since: int, until: int
    ) -> int:
        """Largest read quorum for the object over cfg_no in [since, until].

        Returns 0 when no recorded configuration falls in the range, which
        callers treat as "no repair needed" (the version was written under
        the initial configuration).
        """
        best = 0
        for installed in self._installed:
            if since <= installed.cfg_no <= until:
                best = max(best, installed.plan.quorum_for(object_id).read)
        return best
