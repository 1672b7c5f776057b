"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import argparse
import pathlib

import pytest

import repro.cli as cli
from repro.cli import build_parser, main

SPEC = pathlib.Path(__file__).parent / "net" / "fixtures" / "spec_v1_fixed_ports.json"

#: Every subcommand's flags and their defaults (positionals by dest).
#: Recorded from the four parsers this one tree replaced, minus the
#: seven flags their handlers ignored (see ``REMOVED_FLAGS``).
FLAG_DEFAULTS = {
    "figure2": {"--seed": 0, "--fast": False},
    "figure3": {},
    "tuning-impact": {},
    "oracle-accuracy": {"--seed": 0, "--fast": False},
    "qopt-vs-static": {"--seed": 0, "--fast": False},
    "reconfig-overhead": {"--seed": 0},
    "dynamic": {"--seed": 0, "--fast": False},
    "per-object": {"--seed": 0, "--fast": False},
    "predict": {"--write-ratio": 0.5, "--object-size": 65536, "--clients": 50},
    "bench": {
        "--quick": False,
        "--seed": 0,
        "--output": "BENCH_obs.json",
        "--trace": None,
        "--profile": None,
    },
    "qlint": {
        "paths": None,
        "--format": "text",
        "--select": None,
        "--list-rules": False,
        "--baseline": None,
        "--no-baseline": False,
        "--stats": False,
        "--output": None,
    },
    "serve": {"--spec": None, "--node": None},
    "cluster": {
        "--replicas": 5,
        "--proxies": 1,
        "--write-quorum": 3,
        "--seed": 0,
        "--lease-duration": 0.0,
        "--shards": 1,
        "--duration": 0.0,
    },
    "loadgen": {
        "--spec": None,
        "--shards": 0,
        "--replicas": 5,
        "--clients": 8,
        "--workload": "a",
        "--object-size": 4096,
        "--objects": 64,
        "--duration": 5.0,
        "--depth": 4,
        "--rate": 0.0,
        "--phase": None,
        "--seed": 1,
        "--output": None,
    },
    "livesmoke": {
        "--replicas": 5,
        "--proxies": 1,
        "--seed": 1,
        "--clients": 4,
        "--workload": "a",
        "--duration": 2.0,
        "--phase": None,
        "--depth": 4,
    },
    "livechaos": {
        "--replicas": 5,
        "--proxies": 1,
        "--seed": 1,
        "--clients": 4,
        "--workload": "a",
        "--objects": 32,
        "--duration": 6.0,
        "--cycles": 3,
        "--depth": 4,
        "--output": "BENCH_net_chaos.json",
    },
}

#: Flags the experiment commands used to declare and then ignore, the
#: wall-clock throughput floors ``bench`` and ``loadgen`` dropped, and
#: the result cache ``qlint`` dropped.
REMOVED_FLAGS = [
    ("figure3", "--seed", "1"),
    ("figure3", "--fast"),
    ("tuning-impact", "--seed", "1"),
    ("tuning-impact", "--fast"),
    ("predict", "--seed", "1"),
    ("predict", "--fast"),
    ("reconfig-overhead", "--fast"),
    ("bench", "--baseline", "BENCH_obs.json"),
    ("loadgen", "--shards", "2", "--baseline", "BENCH_net.json"),
    ("qlint", "--cache", ".qlint-cache"),
]


def subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return dict(action.choices)


def declared_flags(parser: argparse.ArgumentParser) -> dict:
    return {
        (action.option_strings or [action.dest])[0]: action.default
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    }


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        assert list(subcommands(parser)) == list(FLAG_DEFAULTS)
        for command in ("figure2", "figure3", "predict", "bench", "qlint"):
            args = parser.parse_args([command])
            assert args.command == command
            assert callable(args.handler)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_predict_flags(self):
        args = build_parser().parse_args(
            ["predict", "--write-ratio", "0.8", "--object-size", "1024",
             "--clients", "7"]
        )
        assert args.write_ratio == 0.8
        assert args.object_size == 1024
        assert args.clients == 7

    def test_every_flag_name_and_default_is_pinned(self):
        """67 flags over 16 commands."""
        table = {
            name: declared_flags(sub)
            for name, sub in subcommands(build_parser()).items()
        }
        assert table == FLAG_DEFAULTS
        assert sum(len(flags) for flags in table.values()) == 67

    @pytest.mark.parametrize("argv", REMOVED_FLAGS)
    def test_ignored_experiment_flags_are_rejected(self, argv, capsys):
        """Wall time: ~0.05 s for all ten cases (nothing runs)."""
        with pytest.raises(SystemExit) as error:
            build_parser().parse_args(list(argv))
        assert error.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFastCommands:
    """Commands cheap enough to execute in unit tests."""

    def test_predict_prints_sweep(self, capsys):
        assert main(["predict", "--write-ratio", "0.99"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out
        assert "R=5,W=1" in out

    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "pearson" in out

    def test_tuning_impact(self, capsys):
        assert main(["tuning-impact"]) == 0
        assert "max impact" in capsys.readouterr().out

    def test_oracle_accuracy_fast(self, capsys):
        assert main(["oracle-accuracy", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "decision tree" in out
        assert "linear fit" in out


@pytest.mark.slow
class TestSimulatorCommands:
    def test_reconfig_overhead(self, capsys):
        assert main(["reconfig-overhead"]) == 0
        out = capsys.readouterr().out
        assert "stop-the-world" in out

    def test_figure2_fast(self, capsys):
        assert main(["figure2", "--fast"]) == 0
        assert "ycsb-a" in capsys.readouterr().out


class TestLivesmokeFlags:
    """``livesmoke`` declares only the options it honours (no cluster
    boots: ``run_smoke`` is replaced; the class runs in about 0.4 s)."""

    def run(self, monkeypatch, argv):
        import repro.net.smoke as smoke

        seen = {}

        async def fake_run_smoke(**kwargs):
            seen.update(kwargs)
            return "result"

        monkeypatch.setattr(smoke, "run_smoke", fake_run_smoke)
        monkeypatch.setattr(cli, "_finish", lambda result: 0)
        assert main(["livesmoke", *argv]) == 0
        return seen

    def test_seed_zero_reaches_run_smoke(self, monkeypatch):
        assert self.run(monkeypatch, ["--seed", "0"])["seed"] == 0

    def test_defaults(self, monkeypatch):
        seen = self.run(monkeypatch, [])
        assert (seen["seed"], seen["replicas"], seen["proxies"]) == (1, 5, 1)

    @pytest.mark.parametrize(
        "flag",
        [["--shards", "2"], ["--write-quorum", "4"], ["--lease-duration", "1"]],
    )
    def test_ignored_flags_are_rejected(self, monkeypatch, flag, capsys):
        with pytest.raises(SystemExit) as error:
            self.run(monkeypatch, flag)
        assert error.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLoadgenModes:
    """``loadgen`` runs against a ``--spec`` cluster or boots a
    ``--shards`` fleet, and refuses the flags the other mode reads (no
    cluster boots: both runners are replaced; the class runs in about
    0.3 s)."""

    CI_SPEC = [
        "--phase", "4", "--phase", "2", "--duration", "3", "--clients", "6",
        "--depth", "6", "--objects", "128",
        "--output", "BENCH_net.json",
    ]
    CI_SHARDS = [
        "--shards", "2", "--duration", "2", "--clients", "6",
        "--objects", "128", "--seed", "1",
        "--output", "BENCH_net_scaleout.json",
    ]

    def run(self, monkeypatch, argv):
        import repro.net.loadgen as loadgen
        import repro.net.scaleout as scaleout

        seen = {}

        def recorder(mode):
            async def fake(*args, **kwargs):
                seen.update(kwargs, mode=mode)
                return "result"

            return fake

        monkeypatch.setattr(loadgen, "run_bench", recorder("spec"))
        monkeypatch.setattr(scaleout, "run_scaleout", recorder("shards"))
        monkeypatch.setattr(
            cli,
            "_finish",
            lambda result, output, extra: seen.update(output=output) or 0,
        )
        assert main(["loadgen", *argv]) == 0
        return seen

    def test_ci_spec_command_line(self, monkeypatch):
        seen = self.run(monkeypatch, ["--spec", str(SPEC), *self.CI_SPEC])
        assert seen["mode"] == "spec"
        assert seen["phases"] == [4, 2]
        assert (seen["clients"], seen["pipeline_depth"]) == (6, 6)
        assert seen["output"] == "BENCH_net.json"

    def test_ci_shards_command_line(self, monkeypatch):
        seen = self.run(monkeypatch, self.CI_SHARDS)
        assert seen["mode"] == "shards"
        assert (seen["shards"], seen["replicas"], seen["seed"]) == (2, 5, 1)
        assert seen["output"] == "BENCH_net_scaleout.json"

    def test_replicas_reaches_the_fleet(self, monkeypatch):
        seen = self.run(monkeypatch, ["--shards", "3", "--replicas", "3"])
        assert (seen["shards"], seen["replicas"]) == (3, 3)

    def test_spec_defaults_to_two_phases(self, monkeypatch):
        assert self.run(monkeypatch, ["--spec", str(SPEC)])["phases"] == [4, 2]

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "one of the arguments --spec --shards is required"),
            (["--spec", str(SPEC), "--shards", "2"], "not allowed with"),
            (
                ["--spec", str(SPEC), "--replicas", "5"],
                "--replicas: only with --shards",
            ),
            (["--shards", "2", "--phase", "4"], "--phase: only with --spec"),
            (["--shards", "1"], "scaleout needs at least 2 shards"),
        ],
    )
    def test_flags_the_mode_ignores_are_rejected(
        self, monkeypatch, capsys, argv, message
    ):
        with pytest.raises(SystemExit) as error:
            self.run(monkeypatch, argv)
        assert error.value.code == 2
        assert message in capsys.readouterr().err
