"""The golden harness: one record format, one exact compare, one re-record.

A record is a JSON file under ``tests/records/`` mapping cell -> facet ->
the facet's text as a list of lines, or ``"sha256:<hex>"`` for the bulky
facets a record names in ``digested``. Every facet compares exactly; a
mismatch fails with a unified diff of the lines that moved, and a re-record
shows the same lines in ``git diff``. ``MODULES`` names the module that
defines each record as ``RECORD`` and runs its cells. Re-record only after a
change meant to move what a record pins, saying in the commit which cells
and facets moved and why::

    PYTHONPATH=src python -m tests.golden cells|schedules|sinks|sketches|all

Every cell of the named records runs first; then each file is replaced whole
(a temporary file renamed over it), so a failed run leaves the records as
they were.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import importlib
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

RECORDS_DIR = Path(__file__).with_name("records")
MODULES = {
    "cells": "tests.engine.equivalence",
    "schedules": "tests.engine.scheduler.test_golden_schedules",
    "sinks": "tests.engine.test_sink_partitions",
    "sketches": "tests.stats.test_golden_state",
}


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def load(path: Path) -> dict[str, dict]:
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Record:
    name: str
    cells: tuple[str, ...]
    run: Callable[[str], dict[str, str]]  # one cell's facet -> text
    digested: frozenset[str] = frozenset()

    @property
    def path(self) -> Path:
        return RECORDS_DIR / f"{self.name}.json"

    def entry(self, facets: dict[str, str]) -> dict:
        return {
            facet: digest(text) if facet in self.digested else text.splitlines()
            for facet, text in facets.items()
        }

    def check(self, cell: str) -> dict[str, str]:
        """Run one cell and compare it with the record; returns its facets."""
        facets = self.run(cell)
        recorded, current = load(self.path)[cell], self.entry(facets)
        moved = [f for f in {**recorded, **current} if recorded.get(f) != current.get(f)]
        if moved:
            diff = [
                line
                for f in moved
                for line in difflib.unified_diff(
                    _lines(recorded.get(f)), _lines(current.get(f)),
                    f"{cell} {f} (recorded)", f"{cell} {f} (now)", lineterm="", n=1,
                )
            ]
            raise AssertionError(
                f"{cell}: diverges from the golden record on {', '.join(moved)}\n"
                + "\n".join(diff)
            )
        return facets


def _lines(value: list[str] | str | None) -> list[str]:
    return [value] if isinstance(value, str) else value or []


def record(name: str) -> Record:
    return importlib.import_module(MODULES[name]).RECORD


def main(argv: list[str]) -> int:
    names = list(MODULES) if argv == ["all"] else argv
    if not names or not set(names) <= set(MODULES):
        print(f"usage: python -m tests.golden {'|'.join(MODULES)}|all", file=sys.stderr)
        return 2
    records = [record(name) for name in names]
    runs = [{cell: r.entry(r.run(cell)) for cell in r.cells} for r in records]
    for r, entries in zip(records, runs):
        temporary = r.path.with_name(r.path.name + ".tmp")
        text = json.dumps(entries, indent=1, ensure_ascii=False) + "\n"
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, r.path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
