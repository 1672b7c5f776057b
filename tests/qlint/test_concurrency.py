"""QC001-QC005: interleaving bugs across coroutine suspension points."""

from __future__ import annotations

from tests.qlint.conftest import rules_of


class TestCheckThenAct:
    """QC001 — a guard read before a suspension gates a write after it."""

    def test_async_check_then_act_flagged(self, lint):
        findings = lint(
            """
            class Node:
                async def admit(self, op):
                    if op.key not in self._pending:
                        await self._disk.use(1.0)
                        self._pending[op.key] = op
            """
        )
        assert rules_of(findings) == ["QC001"]

    def test_recheck_after_await_is_clean(self, lint):
        findings = lint(
            """
            class Node:
                async def admit(self, op):
                    if op.key not in self._pending:
                        await self._disk.use(1.0)
                        if op.key not in self._pending:
                            self._pending[op.key] = op
            """
        )
        assert findings == []

    def test_monotonic_max_update_is_exempt(self, lint):
        findings = lint(
            """
            class Node:
                async def observe(self, value):
                    if value > self._high_water:
                        await self._log.use(1.0)
                        self._high_water = max(self._high_water, value)
            """
        )
        assert findings == []

    def test_sim_generator_yields_count_as_suspensions(self, lint):
        findings = lint(
            """
            class Node:
                def admit(self, op):
                    if op.key not in self._pending:
                        yield self._disk.use(1.0)
                        self._pending[op.key] = op
            """
        )
        assert rules_of(findings) == ["QC001"]

    def test_plain_generator_is_not_a_coroutine(self, lint):
        # No waitable yields -> an ordinary iterator, not a protocol
        # coroutine; its yields are consumer pulls, not interleavings.
        findings = lint(
            """
            class Node:
                def snapshots(self, op):
                    if op.key not in self._pending:
                        yield op.key
                        self._pending[op.key] = op
            """
        )
        assert findings == []

    def test_write_without_prior_guard_is_clean(self, lint):
        findings = lint(
            """
            class Node:
                async def record(self, op):
                    await self._disk.use(1.0)
                    self._pending[op.key] = op
            """
        )
        assert findings == []


class TestSharedIteration:
    """QC002 — iterating a shared container around a suspension."""

    def test_items_iteration_with_await_flagged(self, lint):
        findings = lint(
            """
            class Node:
                async def flush(self):
                    for key, value in self._table.items():
                        await self._disk.use(value)
            """
        )
        assert rules_of(findings) == ["QC002"]

    def test_list_snapshot_is_clean(self, lint):
        findings = lint(
            """
            class Node:
                async def flush(self):
                    for key, value in list(self._table.items()):
                        await self._disk.use(value)
            """
        )
        assert findings == []

    def test_loop_without_suspension_is_clean(self, lint):
        findings = lint(
            """
            class Node:
                async def total(self):
                    total = 0
                    for value in self._table:
                        total += value
                    await self._disk.use(total)
            """
        )
        assert findings == []

    def test_sim_generator_iteration_flagged(self, lint):
        findings = lint(
            """
            class Node:
                def broadcast(self, payload):
                    for peer in self._ring:
                        yield self._link.use(peer, payload)
            """
        )
        assert rules_of(findings) == ["QC002"]


class TestStaleCapture:
    """QC003 form (a) — a captured epoch/cfg/plan/ring local goes stale."""

    def test_captured_epoch_used_after_await_flagged(self, lint):
        findings = lint(
            """
            class Node:
                async def write(self, op):
                    epoch = self._epoch_no
                    await self._disk.use(op.size)
                    self._reply(op, epoch)
            """
        )
        assert rules_of(findings) == ["QC003"]

    def test_recapture_after_await_is_clean(self, lint):
        findings = lint(
            """
            class Node:
                async def write(self, op):
                    epoch = self._epoch_no
                    self._admit(op, epoch)
                    await self._disk.use(op.size)
                    epoch = self._epoch_no
                    self._reply(op, epoch)
            """
        )
        assert findings == []

    def test_subscript_key_use_is_exempt(self, lint):
        # Keying a table by the value a round started with is the
        # intentional snapshot idiom, not a staleness bug.
        findings = lint(
            """
            class Node:
                async def finish(self, op):
                    epoch = self._epoch_no
                    self._acks[epoch] = op
                    await self._gate.wait()
                    del self._acks[epoch]
            """
        )
        assert findings == []

    def test_non_protocol_capture_not_tracked(self, lint):
        findings = lint(
            """
            class Node:
                async def tick(self):
                    count = self._count
                    await self._gate.wait()
                    self._report(count)
            """
        )
        assert findings == []


class TestStaleFence:
    """QC003 form (b) — an epoch/cfg fence checked before a suspension
    but acted on (a send) after it."""

    def test_send_after_suspended_fence_flagged(self, lint):
        findings = lint(
            """
            class Node:
                async def on_read(self, message):
                    if message.epoch_no < self._epoch_no:
                        return
                    await self._disk.use(message.size)
                    self.send(message.sender, self._value)
            """
        )
        assert rules_of(findings) == ["QC003"]

    def test_refenced_send_is_clean(self, lint):
        findings = lint(
            """
            class Node:
                async def on_read(self, message):
                    if message.epoch_no < self._epoch_no:
                        return
                    await self._disk.use(message.size)
                    if message.epoch_no < self._epoch_no:
                        return
                    self.send(message.sender, self._value)
            """
        )
        assert findings == []

    def test_plain_load_never_arms_the_fence(self, lint):
        # Reading the epoch to *construct* a message is not a fencing
        # decision; only functions that guard on it are in scope.
        findings = lint(
            """
            class Node:
                async def publish(self):
                    await self._gate.wait()
                    self.send(self._peer, self._epoch_no)
            """
        )
        assert findings == []


class TestStaleLeaseCapture:
    """QC004 — a captured lease/grant/expiry local goes stale across a
    suspension point (invariant I7: grants are revoked between steps)."""

    def test_captured_grant_used_after_await_flagged(self, lint):
        findings = lint(
            """
            class Replica:
                async def on_lease_read(self, message):
                    grants = self._leases.get(message.object_id)
                    await self._disk.use(message.size)
                    if grants is None:
                        return
                    self.reply(message.sender, grants)
            """
        )
        assert rules_of(findings) == ["QC004"]

    def test_captured_expiry_used_after_yield_flagged(self, lint):
        findings = lint(
            """
            class Replica:
                def on_lease_read(self, message):
                    deadline = self._lease_expiry
                    yield self._disk.use(message.size)
                    if self.sim.now < deadline:
                        self.reply(message.sender, self._value)
            """
        )
        assert rules_of(findings) == ["QC004"]

    def test_recapture_after_await_is_clean(self, lint):
        findings = lint(
            """
            class Replica:
                async def on_lease_read(self, message):
                    grants = self._leases.get(message.object_id)
                    if grants is None:
                        return
                    await self._disk.use(message.size)
                    grants = self._leases.get(message.object_id)
                    if grants is None:
                        return
                    self.reply(message.sender, grants)
            """
        )
        assert findings == []

    def test_non_lease_capture_not_tracked(self, lint):
        findings = lint(
            """
            class Replica:
                async def on_read(self, message):
                    version = self._versions.get(message.object_id)
                    await self._disk.use(message.size)
                    self.reply(message.sender, version)
            """
        )
        assert findings == []

    def test_protocol_capture_stays_qc003(self, lint):
        # epoch state is QC003's domain; QC004 must not double-report it.
        findings = lint(
            """
            class Replica:
                async def on_read(self, message):
                    epoch = self._epoch_no
                    await self._disk.use(message.size)
                    self.reply(message.sender, epoch)
            """
        )
        assert rules_of(findings) == ["QC003"]

    def test_epoch_stamped_grant_reports_both(self, lint):
        # A value derived from both lease and protocol state is stale in
        # both senses; each pass reports under its own rule.
        findings = lint(
            """
            class Replica:
                async def on_lease_read(self, message):
                    stamped = (self._epoch_no, self._lease_expiry)
                    await self._disk.use(message.size)
                    self.reply(message.sender, stamped)
            """
        )
        assert sorted(rules_of(findings)) == ["QC003", "QC004"]

    def test_rebind_to_plain_value_stops_tracking(self, lint):
        findings = lint(
            """
            class Replica:
                async def on_lease_read(self, message):
                    holder = self._grants.get(message.sender)
                    await self._disk.use(message.size)
                    holder = message.sender
                    self.reply(message.sender, holder)
            """
        )
        assert findings == []


class TestUncancelledDeadline:
    """QC005 — a timer armed inside ``any_of([...])`` outlives the wait
    it bounded; ``wait_for`` owns its timer and cancels the loser."""

    def test_sleep_inside_any_of_flagged(self, lint):
        findings = lint(
            """
            class Proxy:
                def gather(self, future):
                    yield any_of(
                        self.sim, [future, self.sim.sleep(self._deadline)]
                    )
                    return future.done
            """
        )
        assert rules_of(findings) == ["QC005"]
        assert "wait_for" in findings[0].message

    def test_timeout_inside_any_of_flagged(self, lint):
        findings = lint(
            """
            class Manager:
                def await_quorum(self, done):
                    while not done.done:
                        yield primitives.any_of(
                            self.sim, (done, self.sim.timeout(0.5, "late"))
                        )
            """
        )
        assert rules_of(findings) == ["QC005"]

    def test_wait_for_is_clean(self, lint):
        findings = lint(
            """
            class Proxy:
                def gather(self, future):
                    answered = yield wait_for(
                        self.sim, future, self._deadline
                    )
                    return answered
            """
        )
        assert findings == []

    def test_any_of_over_plain_futures_is_clean(self, lint):
        # Racing two protocol events arms no timer; a deadline held in a
        # local is the shared-deadline idiom, whose owner cancels it.
        findings = lint(
            """
            class Proxy:
                def race(self, first, second):
                    deadline = self.sim.sleep(2.0)
                    try:
                        yield any_of(self.sim, [first, second, deadline])
                    finally:
                        deadline.cancel()
            """
        )
        assert findings == []

    def test_plain_helper_outside_coroutines_not_in_scope(self, lint):
        findings = lint(
            """
            def build(sim, future):
                return any_of(sim, [future, sim.sleep(1.0)])
            """
        )
        assert findings == []
