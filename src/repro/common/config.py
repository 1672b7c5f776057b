"""Configuration dataclasses for the simulated test-bed.

Default values mirror the experimental platform of Section 2.2 of the
paper: 10 storage nodes, 5 proxies, 5 client groups of 10 closed-loop
threads, replication degree 5, a Gigabit LAN, and storage nodes whose
writes are disk-bound while reads are mostly served from cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.types import QuorumConfig

if TYPE_CHECKING:
    from repro.sds.quorum import QuorumSystem


@dataclass(frozen=True)
class NetworkConfig:
    """Latency/bandwidth model of the cluster interconnect.

    Every node sits behind one full-duplex link of ``bandwidth``
    bytes/second: all bytes leaving a node serialize through its egress,
    all bytes arriving serialize through its ingress.  This is the
    dominant effect behind Figure 2 — a proxy relays the full object
    payload to/from each contacted replica, so the per-operation load on
    its Gigabit NIC is proportional to the quorum size.  On top of the
    transmission times, each hop pays ``base_latency`` propagation plus a
    small uniform jitter; channels stay FIFO per (sender, receiver).
    """

    #: One-way propagation + switching delay, seconds (Gigabit LAN scale).
    base_latency: float = 0.0002
    #: Per-node link bandwidth in bytes/second (1 Gbit/s ~ 125 MB/s).
    bandwidth: float = 125e6
    #: Uniform jitter added to each delivery, as a fraction of base latency.
    jitter_fraction: float = 0.25

    def validate(self) -> "NetworkConfig":
        if self.base_latency < 0:
            raise ConfigurationError("base_latency must be >= 0")
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be > 0")
        if self.jitter_fraction < 0:
            raise ConfigurationError("jitter_fraction must be >= 0")
        return self


@dataclass(frozen=True)
class StorageConfig:
    """Service-time model of one storage node.

    Reads are served from the page cache most of the time; writes must
    reach disk (Swift fsyncs objects), which is why the paper observes that
    "read operations are faster than write operations" and why balanced
    workloads favour slightly smaller read quorums.
    """

    #: Fixed CPU + cache-hit cost of serving a read, seconds.
    read_service_time: float = 0.0015
    #: Fixed cost of a write (request parsing + fsync latency), seconds.
    write_service_time: float = 0.0040
    #: Cache throughput for reads, bytes/second.
    read_bandwidth: float = 400e6
    #: Sustained disk write throughput, bytes/second (15K RPM SATA scale).
    write_bandwidth: float = 80e6
    #: Probability a read misses the cache and pays the disk penalty.
    read_miss_ratio: float = 0.20
    #: Extra latency of a cache-missing read, seconds (disk seek).
    read_miss_penalty: float = 0.0060
    #: Number of requests a storage node serves concurrently (disk queue
    #: depth / worker threads).  Requests beyond this queue FIFO.
    concurrency: int = 4
    #: Period of the background object replicator (Swift's anti-entropy
    #: daemon), seconds.  Each cycle pushes locally updated objects to the
    #: peer replicas that may have missed the foreground write quorum.
    #: 0 disables background replication.
    replication_interval: float = 1.0
    #: Longest per-object read lease a primary replica will grant,
    #: seconds.  Requested durations are clamped to this, bounding how
    #: long a partitioned leaseholder can keep serving local reads
    #: (invariant I7).
    max_lease_duration: float = 5.0

    def validate(self) -> "StorageConfig":
        if self.replication_interval < 0:
            raise ConfigurationError("replication_interval must be >= 0")
        if self.max_lease_duration < 0:
            raise ConfigurationError("max_lease_duration must be >= 0")
        if min(self.read_service_time, self.write_service_time) < 0:
            raise ConfigurationError("service times must be >= 0")
        if min(self.read_bandwidth, self.write_bandwidth) <= 0:
            raise ConfigurationError("bandwidths must be > 0")
        if not 0 <= self.read_miss_ratio <= 1:
            raise ConfigurationError("read_miss_ratio must be in [0, 1]")
        if self.concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        return self

    def mean_read_time(self, size: int) -> float:
        """Expected read service time for an object of ``size`` bytes."""
        return (
            self.read_service_time
            + self.read_miss_ratio * self.read_miss_penalty
            + size / self.read_bandwidth
        )

    def mean_write_time(self, size: int) -> float:
        """Expected write service time for an object of ``size`` bytes."""
        return self.write_service_time + size / self.write_bandwidth


@dataclass(frozen=True)
class ProxyConfig:
    """Per-request CPU cost of a proxy and its fallback behaviour."""

    #: CPU time a proxy spends marshalling one replica request, seconds.
    per_replica_cpu: float = 0.00008
    #: Worker threads per proxy process.
    concurrency: int = 16
    #: Time a proxy waits for quorum replies before falling back to the
    #: remaining replicas (Section 2.1 "if ... some replies are missing,
    #: the request is sent to the remaining replicas"), seconds.
    fallback_timeout: float = 0.5
    #: Hard deadline for one quorum gather, seconds.  Once it expires the
    #: gather resolves with a typed timeout instead of blocking forever —
    #: a crashed or partitioned quorum can no longer wedge an operation.
    gather_deadline: float = 1.5
    #: Quorum-gather attempts per operation.  After a gather deadline the
    #: proxy retries against the next ring rotation (a different replica
    #: preference order), then surfaces ``GatherTimeoutError``.
    max_gather_attempts: int = 3
    #: Per-object read-lease duration requested from primaries, seconds.
    #: 0 (the default) disables the lease subsystem entirely.  This is
    #: the *static* feature flag and must be uniform across a fleet:
    #: enabling it also makes every write quorum include the object's
    #: primary replica, which is what makes single-replica lease reads
    #: safe (invariant I7).  The same flag turns on every proxy's
    #: lease read path.
    lease_duration: float = 0.0
    #: Assumed upper bound on clock skew between a proxy and a primary
    #: replica, seconds.  The proxy treats a held lease as expired this
    #: much *early*; the check is an advisory optimization (the primary
    #: validates grants authoritatively), so skew beyond the bound costs
    #: a fallback round trip, never consistency.
    lease_skew_bound: float = 0.01

    def validate(self) -> "ProxyConfig":
        if self.per_replica_cpu < 0:
            raise ConfigurationError("per_replica_cpu must be >= 0")
        if self.concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        if self.fallback_timeout <= 0:
            raise ConfigurationError("fallback_timeout must be > 0")
        if self.gather_deadline <= self.fallback_timeout:
            raise ConfigurationError(
                "gather_deadline must exceed fallback_timeout "
                f"({self.gather_deadline} <= {self.fallback_timeout})"
            )
        if self.max_gather_attempts < 1:
            raise ConfigurationError("max_gather_attempts must be >= 1")
        if self.lease_duration < 0:
            raise ConfigurationError("lease_duration must be >= 0")
        if self.lease_skew_bound < 0:
            raise ConfigurationError("lease_skew_bound must be >= 0")
        if 0 < self.lease_duration <= self.lease_skew_bound:
            raise ConfigurationError(
                "lease_duration must exceed lease_skew_bound "
                f"({self.lease_duration} <= {self.lease_skew_bound})"
            )
        return self

    def operation_deadline(self) -> float:
        """Upper bound on the time a proxy spends on one operation's
        quorum gathers before surfacing a typed error."""
        return self.gather_deadline * self.max_gather_attempts


@dataclass(frozen=True)
class ClientConfig:
    """Deadline and retry/backoff policy of one client thread.

    A client attempt that receives no reply within ``attempt_timeout``
    is abandoned; the operation is retried (bounded exponential backoff
    with seeded jitter, so retry storms from many clients decorrelate
    deterministically) up to ``max_attempts`` times, after which the
    operation fails with ``RetriesExhaustedError``.  Every operation
    therefore resolves — success or typed error — within
    :meth:`deadline_bound` simulated seconds.
    """

    #: Per-attempt reply deadline, seconds.  Must cover the proxy's own
    #: retry budget plus round trips for the fault-free path to win.
    attempt_timeout: float = 6.0
    #: Total attempts (first try + retries).
    max_attempts: int = 3
    #: First backoff, seconds; attempt ``i`` backs off ``base * 2**i``.
    backoff_base: float = 0.05
    #: Backoff ceiling, seconds.
    backoff_cap: float = 1.0
    #: Uniform jitter added to each backoff, as a fraction of it.
    backoff_jitter: float = 0.5

    def validate(self) -> "ClientConfig":
        if self.attempt_timeout <= 0:
            raise ConfigurationError("attempt_timeout must be > 0")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ConfigurationError("backoff_base must be >= 0")
        if self.backoff_cap < self.backoff_base:
            raise ConfigurationError("backoff_cap must be >= backoff_base")
        if self.backoff_jitter < 0:
            raise ConfigurationError("backoff_jitter must be >= 0")
        return self

    def backoff(self, retry_index: int) -> float:
        """Deterministic part of the ``retry_index``-th backoff."""
        return min(self.backoff_cap, self.backoff_base * (2**retry_index))

    def deadline_bound(self) -> float:
        """Worst-case time until an operation succeeds or fails typed."""
        total = self.max_attempts * self.attempt_timeout
        for retry_index in range(self.max_attempts - 1):
            total += self.backoff(retry_index) * (1.0 + self.backoff_jitter)
        return total


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster (Section 2.2 test-bed by default)."""

    num_storage_nodes: int = 10
    num_proxies: int = 5
    clients_per_proxy: int = 10
    replication_degree: int = 5
    initial_quorum: QuorumConfig = field(
        default_factory=lambda: QuorumConfig(read=3, write=3)
    )
    #: Write-ordering scheme (Section 2.1): "timestamp" uses globally
    #: synchronized clocks + proxy-id tie-breaks; "vector" uses
    #: Dynamo-style vector clocks with commutative merges.
    versioning: str = "timestamp"
    network: NetworkConfig = field(default_factory=NetworkConfig)
    storage: StorageConfig = field(default_factory=StorageConfig)
    proxy: ProxyConfig = field(default_factory=ProxyConfig)
    client: ClientConfig = field(default_factory=ClientConfig)

    def validate(self) -> "ClusterConfig":
        if self.num_storage_nodes < 1:
            raise ConfigurationError("need at least one storage node")
        if self.num_proxies < 1:
            raise ConfigurationError("need at least one proxy")
        if self.clients_per_proxy < 1:
            raise ConfigurationError("need at least one client per proxy")
        if self.replication_degree < 1:
            raise ConfigurationError("replication degree must be >= 1")
        if self.replication_degree > self.num_storage_nodes:
            raise ConfigurationError(
                f"replication degree {self.replication_degree} exceeds "
                f"storage node count {self.num_storage_nodes}"
            )
        _system(self.replication_degree).require_strict(self.initial_quorum)
        if self.versioning not in ("timestamp", "vector"):
            raise ConfigurationError(
                "versioning must be 'timestamp' or 'vector', got "
                f"{self.versioning!r}"
            )
        self.network.validate()
        self.storage.validate()
        self.proxy.validate()
        self.client.validate()
        return self

    def with_quorum(self, quorum: QuorumConfig) -> "ClusterConfig":
        """Copy of this config with a different initial quorum."""
        return replace(self, initial_quorum=quorum)

    @property
    def total_clients(self) -> int:
        return self.num_proxies * self.clients_per_proxy


@dataclass(frozen=True)
class AutonomicConfig:
    """Knobs of the Autonomic Manager control loop (Sections 3-4)."""

    #: Number of hot objects optimized per fine-grain round (top-k size).
    top_k: int = 8
    #: Length of one monitoring round, simulated seconds.  The paper uses a
    #: 30 s moving-average window; simulations compress time so the default
    #: here is shorter but plays the same role.
    round_duration: float = 30.0
    #: Rounds to average when deciding whether fine-grain optimization is
    #: still paying off (the paper's gamma).
    gamma: int = 2
    #: Minimum average relative throughput improvement over the last gamma
    #: rounds required to continue fine-grain optimization (the theta
    #: threshold of Algorithm 1).
    theta: float = 0.02
    #: Quarantine period after each reconfiguration during which no new
    #: adaptation is evaluated (Section 4).
    quarantine: float = 5.0
    #: Lower/upper bounds the user may impose on the write quorum, e.g. for
    #: fault-tolerance constraints ("each write must contact at least
    #: k > 1 replicas", Section 3).
    min_write_quorum: int = 1
    max_write_quorum: int | None = None
    #: Maximum number of fine-grain rounds as a safety stop.
    max_rounds: int = 16
    #: Ablation hook (A2): when False, skip per-object fine-grain rounds
    #: entirely and only run the coarse tail optimization.
    enable_fine_grain: bool = True
    #: The Key Performance Indicator the loop maximizes (Section 3: "a
    #: target KPI (like throughput or latency)").  "throughput" maximizes
    #: completed operations per second; "latency" minimizes the mean
    #: operation latency.
    kpi: str = "throughput"
    #: Sliding-window size of the median filter applied to KPI samples
    #: before the stop rule (1 = no filtering); see
    #: :class:`repro.autonomic.policy.MedianFilter`.
    kpi_filter_window: int = 1

    def validate(self, replication_degree: int) -> "AutonomicConfig":
        if self.top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        if self.round_duration <= 0:
            raise ConfigurationError("round_duration must be > 0")
        if self.gamma < 1:
            raise ConfigurationError("gamma must be >= 1")
        if self.theta < 0:
            raise ConfigurationError("theta must be >= 0")
        if self.quarantine < 0:
            raise ConfigurationError("quarantine must be >= 0")
        _system(replication_degree).admissible_writes(
            self.min_write_quorum, self.max_write_quorum
        )
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.kpi not in ("throughput", "latency"):
            raise ConfigurationError(
                f"kpi must be 'throughput' or 'latency', got {self.kpi!r}"
            )
        if self.kpi_filter_window < 1:
            raise ConfigurationError("kpi_filter_window must be >= 1")
        return self


def _system(replication_degree: int) -> QuorumSystem:
    # Imported on use: ``repro.sds.quorum`` imports ``repro.common``,
    # whose package init imports this module.
    from repro.sds.quorum import QuorumSystem

    return QuorumSystem(replication_degree)
