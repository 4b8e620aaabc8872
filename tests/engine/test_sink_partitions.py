"""The ``sinks`` golden record: every Sink's stored partitions, row by row.

The cost clock never reads the host's physical layout, so the ``cells``
record cannot see a row that lands in the wrong partition of an intermediate
as long as the result rows come out the same. The next Reader, the
``ServiceCache`` replay and a hash join skipping its exchange on a truthfully
partitioned input all rest on that layout. For each suite query under
``dynamic`` and ``cost_based`` at SF 10 and 100 (seed 42) the record holds
one line per Sink in run order: its name without the query namespace, then
one digest of ``repr`` of each stored partition's rows.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.bench.runner import SWEEP_QUERIES
from repro.bench.sweep import Key, execute
from repro.engine.operators.sink import SinkOp
from tests.engine.datasets import partition_rows_of
from tests.golden import Record, load

SCALE_FACTORS = (10, 100)
STRATEGIES = ("dynamic", "cost_based")
CELLS = [
    f"{label}/{strategy}/sf{sf}"
    for sf in SCALE_FACTORS
    for label in SWEEP_QUERIES
    for strategy in STRATEGIES
]


def rows_digest(rows: list[dict]) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def sink_partitions(cell: str) -> dict[str, str]:
    """Run one cell; one line per Sink: its name and partition digests."""
    label, strategy, sf = cell.split("/")
    written: list[str] = []
    sink_execute = SinkOp.execute

    def recording(self, state):
        data = sink_execute(self, state)
        digests = map(rows_digest, partition_rows_of(state.datasets.get(self.name)))
        written.append(" ".join([re.sub(r"^__q\d+__", "", self.name), *digests]))
        return data

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SinkOp, "execute", recording)
        execute(Key(label, int(sf.removeprefix("sf")), strategy))
    return {"sinks": "\n".join(written)}


RECORD = Record("sinks", tuple(CELLS), sink_partitions)


@pytest.mark.parametrize("cell", CELLS)
def test_sink_partitions_match_recording(cell):
    RECORD.check(cell)


def test_some_sink_spreads_over_partitions():
    """The recording is not vacuous: a Sink holds rows in many partitions."""
    empty = rows_digest([])
    spread = max(
        sum(digest != empty for digest in line.split()[1:])
        for entry in load(RECORD.path).values()
        for line in entry["sinks"]
    )
    assert spread >= 20
