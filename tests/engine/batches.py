"""Test helpers: a :class:`ColumnBatch` from per-partition columns, and back.

Operators hand each other one batch of flat columns plus partition bounds;
tests still describe inputs and expectations partition by partition.
``batch_of`` concatenates per-partition column dicts (a column some
partition lacks reads as nulls there, as an absent physical column always
did) and ``partition_slices`` cuts a batch back at its bounds.
"""

from __future__ import annotations

from itertools import accumulate

from repro.engine.data import ColumnBatch


def batch_of(parts: list[dict], lengths: list[int] | None = None) -> ColumnBatch:
    """One batch from per-partition ``{name: values}`` dicts, in order.

    A part's length is its first column's unless ``lengths`` gives it (a
    part with no column at all)."""
    if lengths is None:
        lengths = [len(next(iter(part.values()), ())) for part in parts]
    names = list(dict.fromkeys(name for part in parts for name in part))
    columns = {
        name: [
            value
            for part, length in zip(parts, lengths)
            for value in part.get(name, [None] * length)
        ]
        for name in names
    }
    return ColumnBatch(columns, list(accumulate(lengths, initial=0)))


def partition_slices(batch: ColumnBatch) -> list[tuple[dict[str, list], int]]:
    """Per partition: its columns as lists (in the batch's column order) and
    its length."""
    bounds = batch.bounds
    return [
        ({name: list(col[lo:hi]) for name, col in batch.columns.items()}, hi - lo)
        for lo, hi in zip(bounds, bounds[1:])
    ]
