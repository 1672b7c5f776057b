"""Storage node: Algorithm 6 of the paper plus a disk service model.

A storage node keeps the latest version of each object it replicates,
serves quorum reads/writes from proxies, and participates in epoch
changes: once it acknowledges epoch ``e`` it NACKs every operation tagged
with an older epoch, carrying the new epoch's quorum plan so stale
proxies can catch up (Algorithm 6 lines 11-13).

The service model follows Section 2.2's observations: writes must reach
disk and are substantially slower than (mostly cached) reads, and both
scale with object size.  Requests queue on a bounded-concurrency disk
resource, which is what makes quorum sizes matter: every extra replica in
a quorum adds load to the storage tier.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Tuple

from repro.common.config import StorageConfig
from repro.common.types import NodeId, ObjectId, Version, missing_version
from repro.obs.context import Observability, tracer_for
from repro.sds.messages import (
    AckNewEpoch,
    EpochNack,
    LeaseGrant,
    LeaseNack,
    LeaseRead,
    LeaseReadReply,
    LeaseRequest,
    NewEpoch,
    ReplicaRead,
    ReplicaReadReply,
    ReplicaSync,
    ReplicaWrite,
    ReplicaWriteReply,
    SyncReply,
    SyncRequest,
)
from repro.net.transport import Transport
from repro.sds.persistence import MemoryBackend, StorageBackend
from repro.sds.quorum import QuorumPlan, QuorumSystem
from repro.sds.ring import PlacementRing
from repro.sim.kernel import Simulator
from repro.sim.network import Envelope
from repro.sim.node import Node
from repro.sim.primitives import Resource

#: Wire overhead of a request/reply beyond the object payload, bytes.
_HEADER_BYTES = 256

#: How often a durable backend's batched appends are fsynced, seconds.
#: Only the live runtime spawns the flush loop, so this is wall time.
_WAL_FLUSH_INTERVAL = 0.05

#: How often a quarantined replica retransmits SYNCREQ to peers that
#: have not answered yet, seconds.
_SYNC_RETRY_INTERVAL = 0.25


class StorageNode(Node):
    """One back-end object server (Figure 1's "Storage" boxes)."""

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        node_id: NodeId,
        config: StorageConfig,
        initial_plan: QuorumPlan,
        rng: random.Random,
        ring: Optional[PlacementRing] = None,
        obs: Optional[Observability] = None,
        backend: Optional[StorageBackend] = None,
    ) -> None:
        super().__init__(sim, network, node_id)
        self._config = config.validate()
        self._rng = rng
        self._ring = ring
        self._obs = obs
        self._tracer = tracer_for(obs)
        # Persistence seam: the backend owns the version table; reads go
        # through the shared dict (identical code path to the pre-seam
        # in-memory store), mutations through ``backend.put`` so a WAL
        # backend can journal them.  The sim always gets MemoryBackend.
        self._backend: StorageBackend = (
            backend if backend is not None else MemoryBackend()
        )
        self._versions: dict[ObjectId, Version] = self._backend.versions
        self._disk = Resource(
            sim, concurrency=config.concurrency, name=f"{node_id}.disk"
        )
        # Algorithm 6 state: last epoch/configuration this node committed to.
        self._epoch_no = 0
        self._cfg_no = 0
        self._plan = initial_plan
        # Anti-entropy: objects written locally since the last cycle.
        self._dirty: set[ObjectId] = set()
        self._replicator_started = False
        self._flush_started = False
        self._recovery_started = False
        # Quarantined rejoin (invariant I6): a replica restarting from
        # durable state may have lost a torn WAL tail, so it must not
        # contribute to read quorums until it has merged the state of a
        # read quorum of live peers at the current epoch.  It keeps
        # acking writes meanwhile (they only make it fresher).
        self._recovering = False
        #: peer -> epoch it answered our SYNCREQ with.
        self._sync_replies: dict[NodeId, int] = {}
        # Per-object read-lease grants (invariant I7), held only while
        # this node is the object's primary: object -> holder proxy ->
        # (expiry, granted duration).  Deliberately in-memory: a crashed
        # primary forgets its grants and LeaseNacks every lease read
        # after restart, which is safe because grant validation is
        # primary-side.  All grants die on any epoch adoption.
        self._leases: dict[ObjectId, dict[NodeId, Tuple[float, float]]] = {}
        if self._backend.recovered and self._ring is not None:
            epoch_no, cfg_no, plan = self._backend.recovered_state()
            self._epoch_no = epoch_no
            self._cfg_no = cfg_no
            if plan is not None:
                self._plan = plan
            self._recovering = True
        # Observability counters.
        self.reads_served = 0
        self.writes_served = 0
        self.writes_discarded = 0
        self.nacks_sent = 0
        self.syncs_sent = 0
        self.syncs_applied = 0
        self.reads_declined = 0
        self.sync_requests_sent = 0
        self.sync_requests_served = 0
        self.sync_versions_applied = 0
        self.recoveries_completed = 0
        self.leases_granted = 0
        self.leases_broken = 0
        self.lease_reads_served = 0
        self.lease_nacks_sent = 0

        self.register_handler(ReplicaRead, self._on_read)
        self.register_handler(ReplicaWrite, self._on_write)
        self.register_handler(ReplicaSync, self._on_sync)
        self.register_handler(NewEpoch, self._on_new_epoch)
        self.register_handler(SyncRequest, self._on_sync_request)
        self.register_handler(SyncReply, self._on_sync_reply)
        self.register_handler(LeaseRequest, self._on_lease_request)
        self.register_handler(LeaseRead, self._on_lease_read)

    def start(self) -> None:
        super().start()
        if (
            not self._replicator_started
            and self._ring is not None
            and self._config.replication_interval > 0
        ):
            self._replicator_started = True
            self.spawn(
                self._replicator_loop(), name=f"{self.node_id}.replicator"
            )
        if self._backend.durable and not self._flush_started:
            self._flush_started = True
            self.spawn(
                self._wal_flush_loop(), name=f"{self.node_id}.walflush"
            )
        if self._recovering and not self._recovery_started:
            self._recovery_started = True
            self.spawn(
                self._recovery_loop(), name=f"{self.node_id}.recovery"
            )

    # -- protocol state (read-only views for tests) ---------------------------

    @property
    def epoch_no(self) -> int:
        return self._epoch_no

    @property
    def cfg_no(self) -> int:
        return self._cfg_no

    @property
    def disk(self) -> Resource:
        return self._disk

    @property
    def quarantined(self) -> bool:
        """True while the replica is read-excluded (invariant I6)."""
        return self._recovering

    @property
    def persistence(self) -> StorageBackend:
        return self._backend

    def version_of(self, object_id: ObjectId) -> Version:
        """Current stored version (ZERO-stamped if never written)."""
        return self._versions.get(object_id, missing_version())

    # -- Algorithm 6 ------------------------------------------------------------

    def _on_new_epoch(self, envelope: Envelope) -> None:
        message: NewEpoch = envelope.payload
        # "if epNo >= lepNo then" — adopt the newer epoch; ack either way
        # is not required by the pseudo-code, which only acks adopted
        # epochs; we follow it literally.
        if message.epoch_no >= self._epoch_no:
            self._epoch_no = message.epoch_no
            self._cfg_no = message.cfg_no
            self._plan = message.plan
            # Epoch fence for leases (invariant I7): every outstanding
            # grant was minted under a superseded configuration, so a
            # lease read against it could count toward quorums that no
            # longer intersect.  Drop them all; holders fall back to the
            # quorum path on the next LeaseNack.
            if self._leases:
                self.leases_broken += sum(
                    len(grants) for grants in self._leases.values()
                )
                self._leases.clear()
            self._backend.set_epoch(
                message.epoch_no, message.cfg_no, message.plan
            )
            self.send(
                envelope.sender,
                AckNewEpoch(epoch_no=message.epoch_no, replica=self.node_id),
                size=_HEADER_BYTES,
            )

    def _on_read(self, envelope: Envelope) -> Iterator:
        message: ReplicaRead = envelope.payload
        if self._recovering:
            # Invariant I6: a quarantined replica must not contribute to
            # read quorums — its recovered state may miss writes it (or
            # peers) acknowledged before the crash.  Silence, not a NACK:
            # a NACK would carry a *stale* epoch and send the proxy into
            # a pointless adopt/retry spin, whereas the proxy's fallback
            # fan-out simply gathers the quorum from live peers.
            self.reads_declined += 1
            return
        if message.epoch_no < self._epoch_no:
            self._nack(envelope.sender, message.op_id, envelope.trace)
            return
        started_at = self.sim.now
        span = self._tracer.start_span(
            "replica.read",
            category="storage",
            node=self._name,
            parent=envelope.trace,
            object=message.object_id,
            op_id=message.op_id,
        )
        hinted = self._versions.get(message.object_id)
        size_hint = hinted.size if hinted is not None else 0
        yield self._disk.use(self._read_service_time(size_hint))
        # Re-check the fence: a NEWEP may have been adopted while this
        # request waited in the disk queue.  Serving it anyway would let
        # a read from a superseded epoch count toward a quorum that no
        # longer intersects the fenced configuration (Section 5.3).
        if message.epoch_no < self._epoch_no:
            self._nack(envelope.sender, message.op_id, envelope.trace)
            span.finish(status="stale-epoch")
            return
        # Serve whatever is on disk once the request reaches the head of
        # the queue (a concurrent write may have landed meanwhile).
        version = self._versions.get(message.object_id, missing_version())
        self.reads_served += 1
        self.send(
            envelope.sender,
            ReplicaReadReply(
                object_id=message.object_id,
                version=version,
                op_id=message.op_id,
                replica=self.node_id,
            ),
            size=_HEADER_BYTES + version.size,
        )
        span.finish(status="ok")
        if self._obs is not None:
            self._obs.replica_read.observe(self.sim.now - started_at)

    def _on_write(self, envelope: Envelope) -> Iterator:
        message: ReplicaWrite = envelope.payload
        if message.epoch_no < self._epoch_no:
            self._nack(envelope.sender, message.op_id, envelope.trace)
            return
        started_at = self.sim.now
        span = self._tracer.start_span(
            "replica.write",
            category="storage",
            node=self._name,
            parent=envelope.trace,
            object=message.object_id,
            op_id=message.op_id,
        )
        yield self._disk.use(self._write_service_time(message.size))
        # Re-check the fence after the disk wait (see _on_read): a write
        # from a superseded epoch must be nacked, not applied — applying
        # it would resurrect state the reconfiguration already fenced off.
        if message.epoch_no < self._epoch_no:
            self._nack(envelope.sender, message.op_id, envelope.trace)
            span.finish(status="stale-epoch")
            return
        current = self._versions.get(message.object_id)
        # "storage nodes acknowledge the proxy but discard any write
        # request that is older than the latest write operation that they
        # have already acknowledged" (Section 2.1).  Equal stamps re-apply:
        # that is the read-repair write-back refreshing the version's
        # cfg_no under a newer configuration (Algorithm 4 line 27).
        if current is None or message.stamp >= current.stamp:
            self._backend.put(
                message.object_id,
                Version(
                    value=message.value,
                    stamp=message.stamp,
                    cfg_no=message.cfg_no,
                    size=message.size,
                ),
            )
            self._dirty.add(message.object_id)
            self.writes_served += 1
            # Invalidate leases on write (invariant I7).  Equal stamps
            # are re-applies of an already-leased value (stabilise
            # write-backs, duplicate quorum legs) and break nothing.
            if current is None or message.stamp > current.stamp:
                self._break_leases(message.object_id, message.stamp)
        else:
            self.writes_discarded += 1
        self.send(
            envelope.sender,
            ReplicaWriteReply(
                object_id=message.object_id,
                op_id=message.op_id,
                replica=self.node_id,
            ),
            size=_HEADER_BYTES,
        )
        span.finish(status="ok")
        if self._obs is not None:
            self._obs.replica_write.observe(self.sim.now - started_at)

    # -- anti-entropy (Swift's object replicator) -----------------------------------

    def _replicator_loop(self) -> Iterator:
        """Periodically push locally updated objects to peer replicas.

        Pushes are paced across the cycle (as Swift's replicator is
        rate-limited) so that anti-entropy traffic is a smooth background
        load rather than a periodic burst that would alias into the
        foreground throughput measurements.
        """
        interval = self._config.replication_interval
        # Desynchronize the fleet's cycles.
        yield self.sim.sleep(self._rng.uniform(0, interval))
        while self.alive:
            dirty, self._dirty = self._dirty, set()
            pacing = interval / (2 * len(dirty)) if dirty else 0.0
            # Sorted iteration: ``dirty`` is a set of object ids, and set
            # order depends on PYTHONHASHSEED — iterating it raw leaks
            # the interpreter's hash seed into message ordering, breaking
            # cross-process determinism for the same simulation seed.
            for object_id in sorted(dirty):
                version = self._versions.get(object_id)
                if version is None:
                    continue
                for peer in self._ring.replicas(object_id):
                    if peer == self.node_id:
                        continue
                    self.syncs_sent += 1
                    self.send(
                        peer,
                        ReplicaSync(object_id=object_id, version=version),
                        size=_HEADER_BYTES + version.size,
                    )
                yield self.sim.sleep(pacing)
            yield self.sim.sleep(
                interval * self._rng.uniform(0.4, 0.6)
            )

    def _on_sync(self, envelope: Envelope) -> Iterator:
        message: ReplicaSync = envelope.payload
        current = self._versions.get(message.object_id)
        if current is not None and message.version.stamp <= current.stamp:
            return
        yield self._disk.use(
            self._write_service_time(message.version.size)
        )
        # Re-check: a fresher foreground write may have landed while the
        # sync waited for the disk.
        current = self._versions.get(message.object_id)
        if current is None or message.version.stamp > current.stamp:
            self._backend.put(message.object_id, message.version)
            self.syncs_applied += 1
            self._break_leases(message.object_id, message.version.stamp)

    # -- per-object read leases (invariant I7) ---------------------------------

    def lease_holders(self, object_id: ObjectId) -> list[NodeId]:
        """Proxies currently holding an unexpired grant (test view)."""
        grants = self._leases.get(object_id, {})
        return sorted(
            holder
            for holder, (expiry, _duration) in grants.items()
            if self.sim.now < expiry
        )

    def _is_primary(self, object_id: ObjectId) -> bool:
        """Is this node the object's primary (first ring replica)?

        The primary is deterministic and identical at every node, which
        is what lets the write path require its ack without any extra
        coordination (see ``ProxyConfig.lease_duration``).
        """
        if self._ring is None:
            return False
        return self._ring.replicas(object_id)[0] == self.node_id

    def _on_lease_request(self, envelope: Envelope) -> None:
        message: LeaseRequest = envelope.payload
        if message.epoch_no < self._epoch_no:
            self._nack(envelope.sender, message.op_id, envelope.trace)
            return
        if (
            self._recovering
            or message.epoch_no > self._epoch_no
            or not self._is_primary(message.object_id)
            or self._config.max_lease_duration <= 0
        ):
            # Quarantined (I6), ahead-of-us epoch, not the primary, or
            # leases disabled server-side: refuse without epoch state —
            # the proxy simply stays on the quorum path.
            self._lease_nack(envelope.sender, message)
            return
        duration = min(message.duration, self._config.max_lease_duration)
        expiry = self.sim.now + duration
        grants = self._leases.setdefault(message.object_id, {})
        grants[envelope.sender] = (expiry, duration)
        self.leases_granted += 1
        self.send(
            envelope.sender,
            LeaseGrant(
                object_id=message.object_id,
                expiry=expiry,
                epoch_no=self._epoch_no,
                op_id=message.op_id,
                replica=self.node_id,
            ),
            size=_HEADER_BYTES,
        )

    def _on_lease_read(self, envelope: Envelope) -> Iterator:
        message: LeaseRead = envelope.payload
        if self._recovering:
            # Invariant I6: a quarantined primary's state may miss
            # acked writes, and its grant table died with the crash.
            # A LeaseNack (not silence, unlike _on_read) is safe here
            # because it carries no epoch state — the proxy drops its
            # lease and regathers from live peers.
            self.reads_declined += 1
            self._lease_nack(envelope.sender, message)
            return
        if message.epoch_no < self._epoch_no:
            self._nack(envelope.sender, message.op_id, envelope.trace)
            return
        if not self._grant_valid(message.object_id, envelope.sender):
            self._lease_nack(envelope.sender, message)
            return
        hinted = self._versions.get(message.object_id)
        size_hint = hinted.size if hinted is not None else 0
        yield self._disk.use(self._read_service_time(size_hint))
        # Re-validate after the disk wait: both the epoch fence (see
        # _on_read) and the grant itself — a NEWEP adoption or a
        # foreign write may have invalidated the lease while this
        # request sat in the disk queue.
        if message.epoch_no < self._epoch_no:
            self._nack(envelope.sender, message.op_id, envelope.trace)
            return
        if self._recovering or not self._grant_valid(
            message.object_id, envelope.sender
        ):
            self._lease_nack(envelope.sender, message)
            return
        # Sliding renewal: a served lease read refreshes the grant for
        # its original duration, so a hot read-mostly object keeps its
        # lease alive without LeaseRequest traffic.
        grants = self._leases[message.object_id]
        _old_expiry, duration = grants[envelope.sender]
        expiry = self.sim.now + duration
        grants[envelope.sender] = (expiry, duration)
        version = self._versions.get(message.object_id, missing_version())
        self.lease_reads_served += 1
        self.send(
            envelope.sender,
            LeaseReadReply(
                object_id=message.object_id,
                version=version,
                expiry=expiry,
                op_id=message.op_id,
                replica=self.node_id,
            ),
            size=_HEADER_BYTES + version.size,
        )

    def _grant_valid(self, object_id: ObjectId, holder: NodeId) -> bool:
        grants = self._leases.get(object_id)
        if not grants:
            return False
        record = grants.get(holder)
        if record is None:
            return False
        expiry, _duration = record
        if self.sim.now >= expiry:
            del grants[holder]
            if not grants:
                del self._leases[object_id]
            return False
        return True

    def _break_leases(self, object_id: ObjectId, stamp: object) -> None:
        """Invalidate grants on a write — except the writer's own.

        The writer's proxy already observed its own stamp (its stability
        watermark covers it), so its lease stays valid; every other
        holder must fall back to a quorum read once and re-acquire.
        ``getattr`` keeps the vector-clock versioning scheme working:
        a stamp without a ``proxy`` field breaks every grant.
        """
        grants = self._leases.get(object_id)
        if not grants:
            return
        writer = getattr(stamp, "proxy", None)
        broken = [
            holder for holder in sorted(grants) if str(holder) != writer
        ]
        for holder in broken:
            del grants[holder]
        self.leases_broken += len(broken)
        if not grants:
            del self._leases[object_id]

    def _lease_nack(self, recipient: NodeId, message: object) -> None:
        self.lease_nacks_sent += 1
        self.send(
            recipient,
            LeaseNack(
                object_id=message.object_id,  # type: ignore[attr-defined]
                op_id=message.op_id,  # type: ignore[attr-defined]
                epoch_no=self._epoch_no,
                replica=self.node_id,
            ),
            size=_HEADER_BYTES,
        )

    # -- crash recovery: quarantined rejoin (invariant I6) ---------------------

    def _recovery_peers(self) -> list[NodeId]:
        """Every other storage node, in deterministic (sorted) order."""
        if self._ring is None:
            return []
        return sorted(
            peer for peer in self._ring.nodes if peer != self.node_id
        )

    def _recovery_loop(self) -> Iterator:
        """Drive the catch-up sync until the quarantine can be lifted.

        Retransmits SYNCREQ to every peer that has not answered yet.
        Each iteration re-reads ``self._epoch_no``: an epoch adopted
        between retransmissions (via NEWEP or a peer's reply) must be
        reflected in the next request, not a stale captured value.
        """
        while self.alive and self._recovering:
            for peer in self._recovery_peers():
                if peer not in self._sync_replies:
                    self.sync_requests_sent += 1
                    self.send(
                        peer,
                        SyncRequest(
                            replica=self.node_id, epoch_no=self._epoch_no
                        ),
                        size=_HEADER_BYTES,
                    )
            yield self.sim.sleep(_SYNC_RETRY_INTERVAL)

    def _on_sync_request(self, envelope: Envelope) -> None:
        message: SyncRequest = envelope.payload
        del message
        if self._recovering:
            # A quarantined replica's state is not yet trustworthy; two
            # simultaneously recovering replicas must not certify each
            # other (the requester needs *caught-up* peers to count
            # toward its read-quorum's worth of replies).
            return
        self.sync_requests_served += 1
        payload_bytes = sum(v.size for v in self._versions.values())
        self.send(
            envelope.sender,
            SyncReply(
                replica=self.node_id,
                epoch_no=self._epoch_no,
                cfg_no=self._cfg_no,
                plan=self._plan,
                versions=dict(self._versions),
            ),
            size=_HEADER_BYTES + payload_bytes,
        )

    def _on_sync_reply(self, envelope: Envelope) -> None:
        """Merge a peer's state; atomic (no suspension points) by design."""
        message: SyncReply = envelope.payload
        if not self._recovering:
            return
        for object_id in sorted(message.versions):
            version = message.versions[object_id]
            current = self._versions.get(object_id)
            if current is None or version.stamp > current.stamp:
                self._backend.put(object_id, version)
                self.sync_versions_applied += 1
        if (message.epoch_no, message.cfg_no) > (self._epoch_no, self._cfg_no):
            self._epoch_no = message.epoch_no
            self._cfg_no = message.cfg_no
            self._plan = message.plan
            self._backend.set_epoch(
                message.epoch_no, message.cfg_no, message.plan
            )
        self._sync_replies[message.replica] = message.epoch_no
        self._maybe_exit_quarantine()

    def _maybe_exit_quarantine(self) -> None:
        """Lift the quarantine once the I6 catch-up condition holds.

        Condition: replies from at least ``QuorumSystem.recovery_quorum``
        (the plan's largest read quorum, capped at the peer count) distinct
        peers whose epoch is no newer than ours (we adopt newer epochs
        on sight, so this means "at the current epoch").  Any read
        quorum's worth of peers intersects every write quorum of the
        current configuration, so every write acknowledged while this
        replica was down has been merged; the replayed WAL covers every
        write acknowledged before the crash except a torn tail, which
        the same intersection argument recovers from peers.
        """
        if not self._recovering:
            return
        if any(
            epoch > self._epoch_no for epoch in self._sync_replies.values()
        ):
            return
        ring = self._ring
        assert ring is not None  # only ring members recover (__init__)
        needed = QuorumSystem(ring.replication_degree).recovery_quorum(
            self._plan, len(self._recovery_peers())
        )
        caught_up = sum(
            1
            for epoch in self._sync_replies.values()
            if epoch >= self._epoch_no
        )
        if caught_up < needed:
            return
        self._recovering = False
        self.recoveries_completed += 1
        self._sync_replies.clear()
        self._backend.set_epoch(self._epoch_no, self._cfg_no, self._plan)
        self._backend.flush()

    # -- durability ---------------------------------------------------------------

    def _wal_flush_loop(self) -> Iterator:
        """Bound how long an acked write can sit unfsynced (live only)."""
        while self.alive:
            yield self.sim.sleep(_WAL_FLUSH_INTERVAL)
            self._backend.flush()

    # -- service model ------------------------------------------------------------

    def _noise(self) -> float:
        """Multiplicative service-time variability (+-10%)."""
        return self._rng.uniform(0.9, 1.1)

    def _read_service_time(self, size: int) -> float:
        config = self._config
        time = config.read_service_time + size / config.read_bandwidth
        if self._rng.random() < config.read_miss_ratio:
            time += config.read_miss_penalty
        return time * self._noise()

    def _write_service_time(self, size: int) -> float:
        config = self._config
        time = config.write_service_time + size / config.write_bandwidth
        return time * self._noise()

    def _nack(
        self,
        recipient: NodeId,
        op_id: int,
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.nacks_sent += 1
        self._tracer.annotate(
            "epoch-nack",
            category="storage",
            node=self._name,
            op_id=op_id,
            parent_span=trace[1] if trace is not None else 0,
        )
        self.send(
            recipient,
            EpochNack(
                epoch_no=self._epoch_no,
                cfg_no=self._cfg_no,
                plan=self._plan,
                op_id=op_id,
                replica=self.node_id,
            ),
            size=_HEADER_BYTES,
        )
