"""Nemesis building blocks: schedules and the restart policy."""

from __future__ import annotations

from repro.net.nemesis import RestartPolicy, build_schedule
from repro.net.spec import build_spec


def spec():
    return build_spec(replicas=5, proxies=1, write_quorum=4, seed=7)


class TestSchedules:
    def test_deterministic_given_seed(self) -> None:
        assert build_schedule(spec(), seed=3, cycles=6) == build_schedule(
            spec(), seed=3, cycles=6
        )

    def test_different_seeds_differ(self) -> None:
        schedules = {
            tuple(build_schedule(spec(), seed=s, cycles=6)) for s in range(8)
        }
        assert len(schedules) > 1

    def test_victims_are_storage_replicas_with_bounded_timing(self) -> None:
        replicas = {address.name for address in spec().replicas}
        for cycle in build_schedule(
            spec(),
            seed=5,
            cycles=20,
            delay_range=(1.0, 2.0),
            downtime_range=(0.25, 0.5),
        ):
            assert cycle.victim in replicas
            assert 1.0 <= cycle.delay <= 2.0
            assert 0.25 <= cycle.downtime <= 0.5

    def test_no_back_to_back_victim(self) -> None:
        for seed in range(10):
            schedule = build_schedule(spec(), seed=seed, cycles=12)
            for previous, current in zip(schedule, schedule[1:]):
                assert previous.victim != current.victim


class TestRestartPolicy:
    def test_backoff_doubles_then_caps(self) -> None:
        policy = RestartPolicy(backoff_base=0.2, backoff_cap=1.0)
        delays = [policy.backoff(attempt) for attempt in range(5)]
        assert delays[0] == 0.2
        assert delays[1] == 0.4
        assert delays[2] == 0.8
        assert delays[3] == 1.0  # capped
        assert delays[4] == 1.0

