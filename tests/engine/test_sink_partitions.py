"""Every Sink's stored partitions, pinned row by row and partition by partition.

The cost clock never reads the host's physical layout, so the golden
fingerprints cannot see a row that lands in the wrong partition of an
intermediate as long as the result rows come out the same. Storage can: a
Sink stores its columns with the bounds of each cluster partition, the next
Reader and ``ServiceCache`` replay serve them as written, and the modeled
cluster's partition-local semantics (a hash join skipping the exchange on a
truthfully partitioned input) rest on them.

``sink_partitions.json`` holds, for each suite query under ``dynamic`` and
``cost_based`` at SF 10 and SF 100 (seed 42), every Sink of the run in
order: its name without the query namespace and one digest per stored
partition of ``repr`` of its rows (the dataset's rows between two bounds) —
the values, their order and the column order. Re-record on purpose only, after a change meant to move what
intermediates hold::

    PYTHONPATH=src python -m tests.engine.test_sink_partitions \\
        > tests/engine/sink_partitions.json
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.bench.runner import SWEEP_QUERIES, run_query
from repro.engine.operators.sink import SinkOp
from tests.engine.datasets import partition_rows_of

RECORD_PATH = Path(__file__).with_name("sink_partitions.json")
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


def sink_partitions(cell: str, monkeypatch) -> list[list]:
    """Run one cell; per Sink, its un-namespaced name and partition digests."""
    label, strategy, sf = cell.split("/")
    written: list[list] = []
    execute = SinkOp.execute

    def recording(self, state):
        data = execute(self, state)
        stored = state.datasets.get(self.name)
        written.append(
            [
                re.sub(r"^__q\d+__", "", self.name),
                [rows_digest(rows) for rows in partition_rows_of(stored)],
            ]
        )
        return data

    monkeypatch.setattr(SinkOp, "execute", recording)
    run_query(label, int(sf.removeprefix("sf")), strategy)
    monkeypatch.setattr(SinkOp, "execute", execute)
    return written


@pytest.mark.parametrize("cell", CELLS)
def test_sink_partitions_match_recording(cell, monkeypatch):
    recorded = json.loads(RECORD_PATH.read_text())[cell]
    got = sink_partitions(cell, monkeypatch)
    assert [name for name, _ in got] == [name for name, _ in recorded]
    for (name, digests), (_, expected) in zip(got, recorded):
        moved = [p for p, (a, b) in enumerate(zip(digests, expected)) if a != b]
        assert len(digests) == len(expected) and not moved, (
            f"{cell}: Sink {name} moved in partitions {moved}"
        )


def test_some_sink_spreads_over_partitions():
    """The recording is not vacuous: a Sink holds rows in many partitions."""
    recorded = json.loads(RECORD_PATH.read_text())
    empty = rows_digest([])
    spread = max(
        sum(digest != empty for digest in digests)
        for sinks in recorded.values()
        for _, digests in sinks
    )
    assert spread >= 20


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    print(json.dumps({cell: sink_partitions(cell, patch) for cell in CELLS}, indent=0))
