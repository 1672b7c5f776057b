"""QS001-QS003: quorum construction, installation, and literal checks."""

from __future__ import annotations

from tests.qlint.conftest import rules_of


class TestUnvalidatedConstruction:
    def test_dead_end_construction_flagged(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build():
                quorum = QuorumConfig(read=3, write=3)
                print(quorum)
            """
        )
        assert rules_of(findings) == ["QS001"]

    def test_chained_validate_discharges(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig
            from repro.sds.quorum import QuorumSystem

            def build(n):
                quorum = QuorumSystem(n).require_strict(
                    QuorumConfig(read=3, write=3)
                )
                print(quorum)
            """
        )
        assert findings == []

    def test_assigned_then_validated_discharges(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build(system):
                quorum = QuorumConfig(read=3, write=3)
                system.require_strict(quorum)
                print(quorum)
            """
        )
        assert findings == []

    def test_returned_value_escapes_to_caller(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build():
                return QuorumConfig(read=3, write=3)
            """
        )
        assert findings == []

    def test_passed_to_validating_function_discharges(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig
            from repro.sds.quorum import QuorumSystem

            def install(plan, system):
                system.require_strict_plan(plan)

            def build(n):
                quorum = QuorumConfig(read=3, write=3)
                install(quorum, QuorumSystem(n))
            """
        )
        assert findings == []

    def test_trusted_producers_exempt(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build(n):
                quorum = QuorumConfig.from_write(3, n)
                print(quorum)
            """
        )
        assert findings == []

    def test_plan_builder_chain_checks_outermost(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig
            from repro.sds.quorum import QuorumPlan

            def build(overrides):
                plan = QuorumPlan.uniform(
                    QuorumConfig(read=3, write=3)
                ).with_overrides(overrides)
                print(plan)
            """
        )
        # Only the outermost builder is unvalidated; the inner
        # construction and the uniform() call are discharged into it.
        assert rules_of(findings) == ["QS001"]

    def test_rng_uniform_not_mistaken_for_plan(self, lint):
        findings = lint(
            """
            def draw(rng):
                jitter = rng.uniform(0.0, 1.0)
                print(jitter)
            """
        )
        assert findings == []


class TestInstallSites:
    def test_broadcast_without_validation_flagged(self, lint):
        findings = lint(
            """
            class NewQuorum:
                pass

            def broadcast(network, plan):
                network.send(NewQuorum())
            """
        )
        assert "QS002" in rules_of(findings)

    def test_broadcast_with_validation_passes(self, lint):
        findings = lint(
            """
            class NewQuorum:
                pass

            def broadcast(network, plan, system):
                system.require_strict_plan(plan)
                network.send(NewQuorum())
            """
        )
        assert findings == []

    def test_transitive_delegation_recognized(self, lint):
        findings = lint(
            """
            class NewQuorum:
                pass

            def _vet(plan, n):
                QuorumSystem(n).require_strict_plan(plan)

            def _prepare(plan, n):
                _vet(plan, n)

            def broadcast(network, plan, n):
                _prepare(plan, n)
                network.send(NewQuorum())
            """
        )
        assert findings == []

    def test_entry_point_without_validation_flagged(self, lint):
        findings = lint(
            """
            def change_global(self, quorum):
                self.pending = quorum
            """
        )
        assert rules_of(findings) == ["QS002"]

    def test_ack_message_not_an_install_site(self, lint):
        findings = lint(
            """
            class AckNewQuorum:
                pass

            def acknowledge(network):
                network.send(AckNewQuorum())
            """
        )
        assert findings == []


class TestLiteralStrictness:
    def test_non_intersecting_literals_flagged(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig
            from repro.sds.quorum import QuorumSystem

            def build():
                return QuorumSystem(5).require_strict(
                    QuorumConfig(read=2, write=2)
                )
            """
        )
        assert rules_of(findings) == ["QS003"]
        assert "R + W = 4 does not exceed N = 5" in findings[0].message

    def test_oversized_quorum_flagged(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig
            from repro.sds.quorum import QuorumSystem

            def build():
                return QuorumSystem(5).require_strict(
                    QuorumConfig(read=6, write=3)
                )
            """
        )
        assert rules_of(findings) == ["QS003"]

    def test_strict_literals_pass(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig
            from repro.sds.quorum import QuorumSystem

            def build():
                return QuorumSystem(5).require_strict(
                    QuorumConfig(read=3, write=3)
                )
            """
        )
        assert findings == []

    def test_cluster_config_literals_checked(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig
            from repro.sds.quorum import QuorumSystem

            class ClusterConfig:
                def __init__(self, replication_degree, initial_quorum):
                    self.initial_quorum = initial_quorum
                    QuorumSystem(replication_degree).require_strict(
                        self.initial_quorum
                    )

            def build():
                return ClusterConfig(
                    replication_degree=5,
                    initial_quorum=QuorumConfig(read=1, write=1),
                )
            """
        )
        assert rules_of(findings) == ["QS003"]

    def test_from_write_out_of_range_flagged(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build():
                return QuorumConfig.from_write(7, 5)
            """
        )
        assert rules_of(findings) == ["QS003"]

    def test_from_write_in_range_passes(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build():
                return QuorumConfig.from_write(3, 5)
            """
        )
        assert findings == []
