"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in COMMANDS:
            args = parser.parse_args(
                [command] if command != "predict" else ["predict"]
            )
            assert args.command == command

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
        import repro.net.cli as net_cli
        import repro.net.smoke as smoke

        seen = {}

        async def fake_run_smoke(**kwargs):
            seen.update(kwargs)
            return "result"

        monkeypatch.setattr(smoke, "run_smoke", fake_run_smoke)
        monkeypatch.setattr(net_cli, "_finish", lambda result: 0)
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
