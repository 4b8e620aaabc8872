"""Bench CLI smoke tests (fast subsets only)."""

import re
from pathlib import Path

import pytest

from repro.bench.__main__ import EXPERIMENTS, main, parse_args

REPO = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
_INLINE_CODE = re.compile(r"`[^`]+`")
_COMMAND = re.compile(r"python -m repro\.bench\b([^#`)\n]*)")


def documented_commands(text: str) -> list[list[str]]:
    """The arguments of every ``python -m repro.bench ...`` a document spells.

    An inline code span may wrap across lines (a fenced block never does), so
    spans are flattened first; a command ends at a backtick, ``#``, ``)`` or
    the end of its line.
    """
    flat = _INLINE_CODE.sub(
        lambda span: " ".join(span.group().split()), text.replace("```", "")
    )
    return [tail.split() for tail in _COMMAND.findall(flat)]


class TestCli:
    def test_table1_subset(self, capsys):
        assert main(["table1", "--sf", "100"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "worst_order" in out

    def test_plans_subset(self, capsys):
        assert main(["plans", "--sf", "10"]) == 0
        out = capsys.readouterr().out
        assert "Q50 @ SF 10" in out
        assert "INL enabled" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9000"])

    def test_multiple_experiments(self, capsys):
        assert main(["fig6", "table1", "--sf", "100"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Table 1" in out


class TestRegistry:
    def test_registry_is_the_nine_experiments(self):
        assert EXPERIMENTS == (
            "fig6", "fig7", "table1", "fig8", "qerror",
            "feedback", "skew", "transfer", "plans",
        )  # fmt: skip

    @pytest.mark.parametrize("flag", ("--job-slots", "--check-baseline", "--write-baseline"))
    def test_removed_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            parse_args(["fig6", flag])


class TestDocumentedCommands:
    def test_extraction(self):
        text = (
            "run `python -m repro.bench\nfig7 --sf 100` or (python -m repro.bench)\n"
            "```\npython -m repro.bench skew [--smoke]  # comment\n```\n"
        )
        assert documented_commands(text) == [
            ["fig7", "--sf", "100"], [], ["skew", "[--smoke]"],
        ]  # fmt: skip

    @pytest.mark.parametrize("doc", DOCS)
    def test_every_documented_command_parses(self, doc, capsys):
        """Each spelled command passes the real parser: registered experiments
        (``<name>`` is a placeholder, ``[--flag]`` an optional flag), real flags."""
        commands = documented_commands((REPO / doc).read_text(encoding="utf-8"))
        assert commands, f"{doc} no longer shows how to run the bench CLI"
        for tokens in commands:
            try:
                parse_args([t.strip("[]") for t in tokens if not t.startswith("<")])
            except SystemExit:
                pytest.fail(f"{doc}: `python -m repro.bench {' '.join(tokens)}`: {capsys.readouterr().err}")
