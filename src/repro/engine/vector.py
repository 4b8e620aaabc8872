"""Execution kernels of the data plane (DESIGN.md §10).

Rows flow between operators as parallel columns
(:class:`~repro.engine.data.ColumnarData`); scans read only referenced
columns from storage, filter+project fuse into one pass per partition, and
joins build/probe over key columns instead of per-row dicts, through a table
whose containers do not grow with its key count (:class:`HashTable`). The
cost clock charges from row counts and the logical column map, never from
what a kernel physically touched.

The kernels here are free functions on purpose: the mutation tests
monkeypatch them to prove the golden-fingerprint harness
(``tests/engine/equivalence.py``) catches a broken kernel.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from repro.common.rng import partition_slots
from repro.engine.data import ColumnPartition

if TYPE_CHECKING:
    from repro.lang.ast import EvaluationContext

# -- fused scan + filter + project ---------------------------------------------


def fused_filter_project(
    partition: ColumnPartition,
    predicates: tuple,
    live: tuple[str, ...],
    evaluation: EvaluationContext,
) -> tuple[dict[str, Sequence], int]:
    """One pass over a partition: filter, then project.

    The one filter kernel: ``SelectOp`` and the planner-side pre-filtering
    passes both run it. The survivors start as the partition's ``range`` and
    are refined predicate by predicate (a short-circuiting conjunction: a
    later predicate never sees a row an earlier one rejected); ``live`` names
    the columns to gather for them — the projection part of the fusion. Over
    a scan's partition only the predicate and ``live`` columns are ever read
    from storage. While the survivors are still the ``range``, a column is
    read as a slice.
    """
    survivors: list[int] | range = range(partition.length)
    for predicate in predicates:
        if not survivors:
            break
        values = _take(partition.column(predicate.column), survivors)
        mask = predicate.evaluate_batch(values, evaluation)
        survivors = list(compress(survivors, mask))
    columns = {name: _take(partition.column(name), survivors) for name in live}
    return columns, len(survivors)


def filter_columns(
    columns: Mapping[str, Sequence],
    length: int,
    predicates: tuple,
    evaluation: EvaluationContext,
) -> tuple[dict[str, Sequence], int]:
    """:func:`fused_filter_project` keeping every physical column. No caller
    in ``src/``: ``benchmarks/e2e/spans.py`` wraps both names."""
    return fused_filter_project(
        ColumnPartition(columns, length), predicates, tuple(columns), evaluation
    )


def _take(column: Sequence, positions: list[int] | range) -> Sequence:
    if type(positions) is range:
        return column[positions.start : positions.stop]
    return gather(column, positions)


def semi_join_filter(
    partitions: Sequence[ColumnPartition],
    rows: int,
    filters: tuple,
) -> tuple[list[ColumnPartition], int]:
    """Bloom semi-join filter over a dataflow's partitions, filter by filter.

    ``filters`` is an ordered tuple of ``(qualified column, BloomFilter)``
    pairs; a row survives only when every filter column is non-null and its
    value might be in the corresponding filter (null join keys never match,
    so they are dropped exactly like the join itself would drop them). A
    filter column absent from a partition reads as all-null and eliminates
    that partition. Each filter is probed once, over the surviving keys of
    every partition, so a key several partitions hold is digested once, and
    a later filter sees only an earlier one's survivors. ``rows`` is the row
    count probed, passed for the caller's record and not read here.
    """
    survivors: list[Sequence[int]] = [range(p.length) for p in partitions]
    for column, bloom in filters:
        present: list[list[int]] = []
        keys: list = []
        for partition, kept in zip(partitions, survivors):
            col = partition.columns.get(column)
            positions = [] if col is None else [i for i in kept if col[i] is not None]
            present.append(positions)
            keys.extend([col[i] for i in positions])
        verdicts = iter(bloom.might_contain_all(keys))
        survivors = [
            list(compress(positions, islice(verdicts, len(positions))))
            for positions in present
        ]
    out = [
        ColumnPartition(
            {name: gather(col, kept) for name, col in partition.columns.items()},
            len(kept),
        )
        for partition, kept in zip(partitions, survivors)
    ]
    return out, sum(map(len, survivors))


# -- hash-join kernels ---------------------------------------------------------


def _columns_or_nulls(
    columns: Mapping[str, Sequence], length: int, names: tuple[str, ...]
) -> list[Sequence]:
    """The named columns; a physically absent one reads as nulls."""
    return [
        col if (col := columns.get(name)) is not None else [None] * length
        for name in names
    ]


def join_key_column(
    columns: Mapping[str, Sequence], length: int, keys: tuple[str, ...]
) -> Sequence:
    """Per-row join keys from key columns; ``None`` marks a null key.

    A single-column key is the column itself, not a copy; composite keys are
    tuples, ``None`` where a component is null (no key column null: no test).
    """
    parts = _columns_or_nulls(columns, length, keys)
    if len(parts) == 1:
        return parts[0]
    if any(None in part for part in parts):
        return [None if None in key else key for key in zip(*parts)]
    return list(zip(*parts))


def probe_key_column(
    columns: Mapping[str, Sequence], length: int, keys: tuple[str, ...]
) -> Iterable:
    """:func:`join_key_column` for the probe side: composite keys stay a lazy
    ``zip``. A table built from collapsed keys holds no tuple with a null
    component, so an uncollapsed probe tuple misses anyway, and ``zip``
    recycles one tuple where a list would keep one per probe row alive
    (DESIGN.md §10.3)."""
    parts = _columns_or_nulls(columns, length, keys)
    return parts[0] if len(parts) == 1 else zip(*parts)


class HashTable(NamedTuple):
    """A join's build side, keyed for :func:`probe_hash_table`.

    Non-null build keys all distinct: ``positions`` maps key -> build
    position and ``groups`` is ``None``. Otherwise ``positions`` maps key ->
    group id (1, 2, ... in first-occurrence order) and ``groups`` is
    ``(order, bounds)``: the non-null build positions stably sorted by group
    id, and group ``g``'s slice of them, ``order[bounds[g - 1]:bounds[g]]``.
    """

    positions: dict
    groups: tuple[list[int], list[int]] | None


def build_hash_table(key_column: Sequence) -> HashTable:
    """The table over the build keys; null keys never match (SQL).

    Either shape is a fixed number of containers, however many distinct keys
    there are, so the cycle collector has no per-key object to count or walk
    (DESIGN.md §10.3). Duplicate keys are grouped by one stable sort of the
    build positions by group id; null rows take an id past the last group,
    sort to the end and are cut off.
    """
    length = len(key_column)
    positions: dict = dict(zip(key_column, range(length)))
    nulls = key_column.count(None)
    positions.pop(None, None)
    if len(positions) == length - nulls:
        return HashTable(positions, None)
    # each key's value becomes its group id: the keys are already in
    # first-occurrence order, and new values leave the iteration alone
    positions.update(zip(positions, count(1)))
    null_group = positions[None] = len(positions) + 1  # null rows sort last
    codes = list(map(positions.__getitem__, key_column))
    del positions[None]
    order = sorted(range(length), key=codes.__getitem__)  # stable
    del order[length - nulls :]
    sizes = Counter(codes)  # first occurrences: groups 1, 2, ... in order
    sizes.pop(null_group, None)
    return HashTable(positions, (order, list(accumulate(sizes.values(), initial=0))))


def probe_hash_table(
    table: HashTable, key_column: Iterable
) -> tuple[list[int], list[int]]:
    """Batched probe: (build positions, probe positions) per output row, in
    nested-loop order: probe rows in order, each one's matches in build order.
    The table holds no ``None`` key, so a null probe key misses like any other.
    """
    positions, groups = table
    hits = list(map(positions.get, key_column))
    if groups is None:  # a hit is a position, and position 0 is falsy
        probe_idx = [row for row, hit in enumerate(hits) if hit is not None]
        return [hits[row] for row in probe_idx], probe_idx
    # a hit is a group id, at least 1, so it is truthy
    order, bounds = groups
    matched = list(compress(hits, hits))
    ends = list(map(bounds.__getitem__, matched))
    starts = list(map(bounds.__getitem__, map((-1).__add__, matched)))
    return (
        list(chain.from_iterable(map(order.__getitem__, map(slice, starts, ends)))),
        list(
            chain.from_iterable(
                map(repeat, compress(range(len(hits)), hits), map(sub, ends, starts))
            )
        ),
    )


def gather(column: Sequence, positions: Iterable[int]) -> list:
    return [column[i] for i in positions]


# -- exchange routing ----------------------------------------------------------


def route_partitions(key_values: Sequence, partition_count: int) -> list[int]:
    """Destination partition per row of an engine exchange or join placement:
    :func:`repro.common.rng.partition_slots`, the one routing definition.

    A function of its own rather than an alias, so that engine routing is
    timed apart from ingestion's, which calls the definition directly.
    """
    return partition_slots(key_values, partition_count)
