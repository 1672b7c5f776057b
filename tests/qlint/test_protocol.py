"""QP001/QP002: wire-registry exhaustiveness and quorum arithmetic."""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.qlint.astutils import SourceFile
from repro.qlint.protocol import ProtocolLinter, WIRE_REGISTRY_GOLDEN
from repro.qlint.runner import run_suite

from tests.qlint.conftest import rules_of

MESSAGES = """
    from dataclasses import dataclass

    @dataclass
    class Ping:
        seq: int

    @dataclass
    class Pong:
        seq: int
"""

HANDLERS = """
    import messages

    def wire(dispatcher):
        dispatcher.register_handler(messages.Ping, on_ping)
        dispatcher.register_handler(messages.Pong, on_pong)
"""


def _lint_tree(
    tmp_path: Path,
    files: Dict[str, str],
    select: Optional[Sequence[str]] = None,
):
    for name, code in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))
    return run_suite(paths=[tmp_path], select=select)


def _lint_with_golden(
    tmp_path: Path, files: Dict[str, str], golden: Sequence[str]
):
    sources = []
    for name, code in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))
        sources.append(SourceFile.parse(path))
    linter = ProtocolLinter(golden=golden)
    linter.prepare(sources)
    findings = []
    for source in sources:
        findings.extend(linter.run(source))
    return findings


class TestExhaustiveness:
    def test_registered_and_handled_is_clean(self, tmp_path):
        findings = _lint_tree(
            tmp_path,
            {
                "messages.py": MESSAGES,
                "registry.py": (
                    "import messages\n"
                    "WIRE_TYPES = (messages.Ping, messages.Pong)\n"
                ),
                "handlers.py": HANDLERS,
            },
        )
        assert findings == []

    def test_unregistered_message_flagged(self, tmp_path):
        findings = _lint_tree(
            tmp_path,
            {
                "messages.py": MESSAGES,
                "registry.py": (
                    "import messages\nWIRE_TYPES = (messages.Ping,)\n"
                ),
                "handlers.py": HANDLERS,
            },
        )
        assert rules_of(findings) == ["QP001"]
        assert "not registered" in findings[0].message
        assert findings[0].symbol == "Pong"

    def test_unhandled_message_flagged(self, tmp_path):
        findings = _lint_tree(
            tmp_path,
            {
                "messages.py": MESSAGES,
                "registry.py": (
                    "import messages\n"
                    "WIRE_TYPES = (messages.Ping, messages.Pong)\n"
                ),
                "handlers.py": (
                    "import messages\n\n"
                    "def wire(dispatcher):\n"
                    "    dispatcher.register_handler(messages.Ping, None)\n"
                ),
            },
        )
        assert rules_of(findings) == ["QP001"]
        assert "register_handler" in findings[0].message
        assert findings[0].symbol == "Pong"

    def test_embedded_value_type_needs_no_handler(self, tmp_path):
        findings = _lint_tree(
            tmp_path,
            {
                "messages.py": """
                    from dataclasses import dataclass

                    @dataclass
                    class Stats:
                        reads: int

                    @dataclass
                    class Round:
                        stats: Stats
                """,
                "registry.py": (
                    "import messages\n"
                    "WIRE_TYPES = (messages.Stats, messages.Round)\n"
                ),
                "handlers.py": (
                    "import messages\n\n"
                    "def wire(dispatcher):\n"
                    "    dispatcher.register_handler(messages.Round, None)\n"
                ),
            },
        )
        assert findings == []

    def test_no_registry_in_scope_stays_silent(self, tmp_path):
        # Linting messages.py alone: exhaustiveness is undecidable.
        findings = _lint_tree(tmp_path, {"messages.py": MESSAGES})
        assert findings == []


class TestGoldenOrder:
    GOLDEN = ("Ping", "Pong")

    def test_appending_is_allowed(self, tmp_path):
        findings = _lint_with_golden(
            tmp_path,
            {
                "net/codec.py": (
                    "WIRE_TYPES = (Ping, Pong, Probe)\n"
                ),
            },
            golden=self.GOLDEN,
        )
        assert findings == []

    def test_reordering_flagged(self, tmp_path):
        findings = _lint_with_golden(
            tmp_path,
            {"net/codec.py": "WIRE_TYPES = (Pong, Ping)\n"},
            golden=self.GOLDEN,
        )
        assert rules_of(findings) == ["QP001"]
        assert "append-only" in findings[0].message

    def test_removal_flagged(self, tmp_path):
        findings = _lint_with_golden(
            tmp_path,
            {"net/codec.py": "WIRE_TYPES = (Ping,)\n"},
            golden=self.GOLDEN,
        )
        assert rules_of(findings) == ["QP001"]

    def test_non_codec_module_not_pinned(self, tmp_path):
        findings = _lint_with_golden(
            tmp_path,
            {"other.py": "WIRE_TYPES = (Pong, Ping)\n"},
            golden=self.GOLDEN,
        )
        assert findings == []

    def test_golden_matches_live_registry(self):
        """The pinned prefix and the shipped codec must agree."""
        from repro.net.codec import WIRE_TYPES

        names = tuple(t.__name__ for t in WIRE_TYPES)
        assert names[: len(WIRE_REGISTRY_GOLDEN)] == WIRE_REGISTRY_GOLDEN


class TestQuorumArithmetic:
    def test_half_half_split_flagged(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build(n):
                return QuorumConfig(read=n // 2, write=n // 2)
            """,
            select=["QP002"],
        )
        assert rules_of(findings) == ["QP002"]

    def test_majority_majority_flagged(self, lint):
        # Strict, but a second copy of the sizing rule: only the quorum
        # system may compute quorum sizes.
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build(n):
                return QuorumConfig(read=n // 2 + 1, write=n // 2 + 1)
            """,
            select=["QP002"],
        )
        assert rules_of(findings) == ["QP002"]

    def test_off_by_one_complement_flagged(self, lint):
        # The paper's rule is R = N - W + 1; R = N - W only *touches*.
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build(n, w):
                return QuorumConfig(read=n - w, write=w)
            """,
            select=["QP002"],
        )
        assert rules_of(findings) == ["QP002"]

    def test_paper_rule_outside_quorum_module_flagged(self, lint):
        # The paper's rule itself lives in QuorumConfig.from_write;
        # restating it elsewhere is the drift QP002 exists to stop.
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build(n, w):
                return QuorumConfig(read=n - w + 1, write=w)
            """,
            select=["QP002"],
        )
        assert rules_of(findings) == ["QP002"]

    def test_min_max_call_flagged(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def widen(a, b):
                return QuorumConfig(read=max(a.read, b.read), write=b.write)
            """,
            select=["QP002"],
        )
        assert rules_of(findings) == ["QP002"]

    def test_quorum_module_is_exempt(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def widen(a, b):
                return QuorumConfig(read=max(a.read, b.read), write=b.write)
            """,
            name="sds/quorum.py",
            select=["QP002"],
        )
        assert findings == []

    def test_opaque_sizes_are_undecidable(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build(r, w):
                return QuorumConfig(read=r, write=w)
            """,
            select=["QP002"],
        )
        assert findings == []

    def test_alternative_degree_names_recognized(self, lint):
        findings = lint(
            """
            from repro.common.types import QuorumConfig

            def build(self):
                return QuorumConfig(
                    read=self.num_replicas // 2,
                    write=self.num_replicas // 2,
                )
            """,
            select=["QP002"],
        )
        assert rules_of(findings) == ["QP002"]
