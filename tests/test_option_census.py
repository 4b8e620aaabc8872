"""Every settable value has a row, and every row is a settable value.

DESIGN.md §3.1 tabulates each option a caller can set on a planner strategy
(its ``PlannerSpec`` options, read off the constructor) or on the front door
(``Session``, ``QueryService`` and the two ``Session`` entry points),
naming the code outside ``tests/`` that sets or reads it. The table and the
signatures must agree both ways: an option added without a row fails here,
and so does a row left behind by a deleted option.
"""

from __future__ import annotations

import inspect
import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro.optimizers import available_strategies, optimizer_class
from repro.service import QueryService
from repro.session import Session
from repro.spec import _accepted_options

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"

FRONT_DOOR = {
    "Session": Session.__init__,
    "QueryService": QueryService.__init__,
    "Session.execute": Session.execute,
    "Session.submit": Session.submit,
}


def census() -> dict[str, set[str]]:
    """Surface -> the options DESIGN.md §3.1's table gives it."""
    text = DESIGN.read_text(encoding="utf-8")
    section = text.split("### 3.1 Option census", 1)[1].split("\n#", 1)[0]
    table: dict[str, set[str]] = defaultdict(set)
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[1].startswith("`"):
            continue
        surfaces = (
            available_strategies()
            if cells[0] == "every strategy"
            else re.findall(r"`([^`]+)`", cells[0])
        )
        assert cells[2], f"row {line!r} names no reader"
        for surface in surfaces:
            table[surface].add(cells[1].strip("`"))
    return table


def parameters(function) -> set[str]:
    return set(inspect.signature(function).parameters) - {"self"}


def actual() -> dict[str, set[str]]:
    options = {
        name: set(_accepted_options(optimizer_class(name)))
        for name in available_strategies()
    }
    options.update({name: parameters(f) for name, f in FRONT_DOOR.items()})
    return options


@pytest.mark.parametrize("surface", sorted(actual()))
def test_options_match_the_census(surface):
    assert actual()[surface] == census().get(surface, set())


def test_the_census_names_no_other_surface():
    assert set(census()) <= set(actual())
