"""Every code reference the documents spell must resolve.

README.md, DESIGN.md, EXPERIMENTS.md and the verify recipe name files, tests
and API members in backticks. A deletion or rename that leaves one of those
names behind is caught here:

- a ``…py`` path exists — from the repo root, ``src/`` or ``src/repro/``,
  or for a bare ``test_*.py`` name somewhere under ``tests/`` — and a
  ``::Name[::test]`` suffix names a class or function (and method) the file
  defines;
- a bare ``TestClass::test_name`` names a method of some test class;
- ``Name.attr`` (optionally ``repro.``-qualified, optionally called) names a
  class or function defined under ``src/repro`` and, for a class, a member
  that is a method, property, class attribute or dataclass field;
- a bare CamelCase ``Name`` is defined under ``src/repro`` (or is a builtin).
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import importlib
import re
from functools import cache
from pathlib import Path

import pytest

from tests.bench.test_cli import DOCS, REPO

_SPAN = re.compile(r"`([^`]+)`")
_PATH = re.compile(r"^([\w/.-]+\.py)((?:::\w+(?:\[[^\]]*\])?){0,2})$")
_TEST = re.compile(r"^(Test\w+)::(test_\w+)")
_CAMEL = r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+"
_API = re.compile(rf"^(?:repro\.)?({_CAMEL})\.(\w+)(?:\(.*\))?$")
_NAME = re.compile(rf"^(?:repro\.)?({_CAMEL})$")


def inline_spans(text: str) -> list[str]:
    """Backticked spans outside fenced blocks, whitespace-flattened (a span
    may wrap across lines)."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return [" ".join(span.split()) for span in _SPAN.findall(text)]


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _locate(name: str) -> Path | None:
    for base in (REPO, REPO / "src", REPO / "src" / "repro"):
        if (base / name).is_file():
            return base / name
    if "/" not in name:
        return next((REPO / "tests").rglob(name), None)
    return None


def _members(path: Path) -> dict[str, set[str]]:
    """Top-level classes and functions of one file -> the functions each
    class body defines (empty for a function)."""
    return {
        node.name: {
            child.name for child in node.body if isinstance(child, ast.FunctionDef)
        }
        for node in _tree(path).body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }


@cache
def known_tests() -> frozenset[tuple[str, str]]:
    """Every (TestClass, method) pair under ``tests/``."""
    return frozenset(
        (cls, method)
        for path in (REPO / "tests").rglob("test_*.py")
        for cls, methods in _members(path).items()
        for method in methods
    )


@cache
def definitions() -> dict[str, str]:
    """Top-level class/function name -> defining ``repro`` module."""
    found: dict[str, str] = {}
    root = REPO / "src"
    for path in sorted((root / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in _tree(path).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                found.setdefault(node.name, module)
    return found


def _has_member(obj: object, attr: str) -> bool:
    if hasattr(obj, attr):
        return True
    return dataclasses.is_dataclass(obj) and any(
        field.name == attr for field in dataclasses.fields(obj)
    )


def unresolved(span: str) -> str | None:
    """Why ``span`` does not resolve, or ``None`` when it does (or is not a
    reference this test checks)."""
    if match := _PATH.match(span):
        path = _locate(match.group(1))
        if path is None:
            return "no such file"
        parts = [re.sub(r"\[.*\]$", "", p) for p in match.group(2).split("::")[1:]]
        members = _members(path)
        if parts and parts[0] not in members:
            return f"{path.name} defines no {parts[0]}"
        if len(parts) == 2 and parts[1] not in members[parts[0]]:
            return f"{parts[0]} has no {parts[1]}"
        return None
    if match := _TEST.match(span):
        if match.groups() not in known_tests():
            return "no such test under tests/"
        return None
    if match := _API.match(span):
        name, attr = match.groups()
        if name not in definitions():
            return f"nothing under src/repro defines {name}"
        obj = getattr(importlib.import_module(definitions()[name]), name)
        if not _has_member(obj, attr):
            return f"{name} has no member {attr}"
        return None
    if match := _NAME.match(span):
        name = match.group(1)
        if name not in definitions() and not hasattr(builtins, name):
            return f"nothing under src/repro defines {name}"
    return None


class TestExtraction:
    def test_spans_wrap_and_fences_are_skipped(self):
        text = "see `Session.\nexecute` and\n```\n`Nope.gone`\n```\n`x`"
        assert inline_spans(text) == ["Session. execute", "x"]

    @pytest.mark.parametrize(
        "span",
        [
            "src/repro/core/policy.py",
            "repro/core/policy.py",
            "optimizers/base.py::final_job_stages",
            "test_golden_schedules.py",
            "benchmarks/test_fig6_overheads.py::test_fig6_pushdown",
            "tests/core/test_policy.py::TestEarlyFuse::test_policy_does_not_change_the_rule",
            "tests/engine/scheduler/test_scheduler.py::TestDeterminismGuard",
            "TestEarlyFuse::test_tight_estimates_fuse_the_tail",
            "ReplanPolicy.default()",
            "repro.ReplanPolicy",
            "ExecutionResult.phases",
            "QueryTrace.verifications",
            "PlanEstimator.join_phase_cost",
            "ValueError",
            "BENCH_24.json",
        ],
    )
    def test_live_references_resolve(self, span):
        assert unresolved(span) is None

    @pytest.mark.parametrize(
        "span",
        [
            "src/repro/core/feedback.py",
            "test_feedback_log.py",
            "tests/core/test_policy.py::TestAdaptiveSession",
            "tests/core/test_policy.py::TestEarlyFuse::test_gone",
            "TestDeterminismGuard::test_policy_off_matches_no_policy",
            "ReplanPolicy.off()",
            "ReplanPolicy.min_history",
            "ServiceStore.feedback",
            "NoSuchClass",
            "repro.NoSuchClass",
            "NoSuchClass.derive",
        ],
    )
    def test_deleted_references_are_caught(self, span):
        assert unresolved(span) is not None


@pytest.mark.parametrize("doc", DOCS)
def test_every_documented_reference_resolves(doc):
    spans = inline_spans((REPO / doc).read_text(encoding="utf-8"))
    broken = [f"`{span}`: {why}" for span in spans if (why := unresolved(span))]
    assert not broken, f"{doc}:\n" + "\n".join(broken)
