"""Every module has a row, and every row names a reader that exists.

DESIGN.md §3.2 lists each non-``__init__`` module under ``src/repro`` with
one reader outside ``tests/``: a file under ``src/``, ``benchmarks/`` or
``examples/`` that imports it, or a ``python -m …`` command that README.md
shows. The table and the tree must agree both ways: a module added without a
row fails here, and so does a row left behind by a deleted module or a
reader that stopped importing it.

A file imports a module when its syntax tree holds ``import m``,
``from m import …``, ``from package import m``, or the module's dotted name
as a whole string constant: the strategy registry and the lazy exports
resolve their modules through ``importlib.import_module`` by name.
"""

from __future__ import annotations

import ast
import re
from functools import cache
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
DESIGN = REPO / "DESIGN.md"
README = REPO / "README.md"
READER_ROOTS = ("src/", "benchmarks/", "examples/")
_COMMAND = re.compile(r"^python -m ([\w.]+)$")


def modules_on_disk() -> set[str]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def census() -> dict[str, str]:
    """Module -> the reader DESIGN.md §3.2's table names for it."""
    text = DESIGN.read_text(encoding="utf-8")
    section = text.split("### 3.2 Module census", 1)[1].split("\n#", 1)[0]
    table: dict[str, str] = {}
    for line in section.splitlines():
        cells = re.findall(r"`([^`]+)`", line)
        if not line.startswith("| `") or len(cells) != 2:
            continue
        module, reader = cells
        assert module not in table, f"{module} has two rows"
        table[module] = reader
    return table


@cache
def imported_names(path: Path) -> frozenset[str]:
    """Every dotted name ``path`` imports, or spells as a whole string."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return frozenset(names)


def reader_problem(module: str, reader: str) -> str | None:
    """Why ``reader`` does not read ``module``, or ``None`` when it does."""
    if match := _COMMAND.match(reader):
        if module not in (match.group(1), f"{match.group(1)}.__main__"):
            return f"`{reader}` runs {match.group(1)}, not {module}"
        if reader not in README.read_text(encoding="utf-8"):
            return f"README.md does not show `{reader}`"
        return None
    if not reader.startswith(READER_ROOTS) or not reader.endswith(".py"):
        return f"{reader} is neither a file under {READER_ROOTS} nor a command"
    path = REPO / reader
    if not path.is_file():
        return f"{reader} does not exist"
    if module not in imported_names(path):
        return f"{reader} does not import {module}"
    return None


def test_the_census_lists_every_module_once():
    listed = set(census())
    on_disk = modules_on_disk()
    assert sorted(on_disk - listed) == [], "modules without a row"
    assert sorted(listed - on_disk) == [], "rows without a module"


@pytest.mark.parametrize("module", sorted(modules_on_disk()))
def test_every_module_has_a_reader(module):
    reader = census().get(module)
    assert reader is not None, f"{module} has no row in DESIGN.md §3.2"
    assert reader_problem(module, reader) is None, reader_problem(module, reader)


class TestReaderCheck:
    def test_an_import_is_a_reader(self):
        assert reader_problem("repro.session", "src/repro/__init__.py") is None

    def test_a_registry_string_is_a_reader(self):
        registry = "src/repro/optimizers/__init__.py"
        assert reader_problem("repro.optimizers.ingres", registry) is None

    def test_a_documented_command_is_a_reader(self):
        assert reader_problem("repro.bench.__main__", "python -m repro.bench") is None

    @pytest.mark.parametrize(
        ("module", "reader"),
        [
            ("repro.session", "src/repro/cluster/config.py"),
            ("repro.session", "tests/conftest.py"),
            ("repro.session", "src/repro/no_such_file.py"),
            ("repro.session", "python -m repro.bench"),
            ("repro.bench.sweep", "python -m repro.bench.sweep"),
        ],
    )
    def test_a_non_reader_is_caught(self, module, reader):
        assert reader_problem(module, reader) is not None
