"""Test helpers: a stored :class:`Dataset` from per-partition rows, and back.

Storage keeps a dataset the way a batch travels — one flat run of rows
(base data: the row dicts; intermediates: column tuples) partition after
partition, plus ``bounds``. Tests still describe datasets partition by
partition: ``dataset_of`` lays per-partition row lists out flat, and
``partition_rows_of`` cuts a dataset's rows back at its bounds.
"""

from __future__ import annotations

from itertools import accumulate

from repro.common.types import Schema
from repro.storage.dataset import Dataset


def dataset_of(
    name: str,
    schema: Schema,
    parts: list[list[dict]],
    partition_key: str | None = None,
    is_intermediate: bool = False,
    scale: float = 1.0,
) -> Dataset:
    """A dataset backed by row dicts, partition ``p`` holding ``parts[p]``."""
    return Dataset(
        name=name,
        schema=schema,
        bounds=list(accumulate(map(len, parts), initial=0)),
        row_dicts=[row for part in parts for row in part],
        partition_key=partition_key,
        is_intermediate=is_intermediate,
        scale=scale,
    )


def partition_rows_of(dataset: Dataset) -> list[list[dict]]:
    """Per partition, its rows as :meth:`Dataset.rows` gives them."""
    rows = list(dataset.rows())
    bounds = dataset.bounds
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
