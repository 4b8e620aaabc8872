"""Execution kernels of the data plane (DESIGN.md §10).

Rows flow between operators as one batch of flat columns
(:class:`~repro.engine.data.ColumnarData`), and every kernel runs once per
operator over the whole batch, never once per partition: scans read only
referenced columns from storage, filter+project fuse into one pass, and
joins build/probe over key columns instead of per-row dicts, through a table
whose containers do not grow with its key count (:class:`HashTable`). The
cost clock charges from row counts and the logical column map, never from
what a kernel physically touched.

The kernels here are free functions on purpose: the mutation tests
monkeypatch them to prove the golden-fingerprint harness
(``tests/engine/equivalence.py``) catches a broken kernel.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, chain, compress, count, repeat
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from repro.common.rng import partition_slots
from repro.engine.data import ColumnBatch

if TYPE_CHECKING:
    from repro.lang.ast import EvaluationContext

# -- fused scan + filter + project ---------------------------------------------


def fused_filter_project(
    batch: ColumnBatch,
    predicates: tuple,
    live: tuple[str, ...],
    evaluation: EvaluationContext,
) -> ColumnBatch:
    """One pass over a dataflow's batch: filter, then project.

    The one filter kernel: ``SelectOp`` and the planner-side pre-filtering
    passes both run it, once per operator or pass whatever the partition
    count. The survivors start as the batch's ``range`` and are refined
    predicate by predicate (a short-circuiting conjunction: a later
    predicate never sees a row an earlier one rejected); ``live`` names the
    columns to gather for them — the projection part of the fusion. Over a
    scan's batch only the predicate and ``live`` columns are ever read from
    storage. While the survivors are still the ``range``, a column is handed
    over as it is. Each partition keeps its survivors: the new bounds come
    from bisecting them.
    """
    survivors: list[int] | range = range(batch.length)
    for predicate in predicates:
        if not survivors:
            break
        values = _take(batch.column(predicate.column), survivors)
        mask = predicate.evaluate_batch(values, evaluation)
        survivors = list(compress(survivors, mask))
    columns = {name: _take(batch.column(name), survivors) for name in live}
    return ColumnBatch(columns, rebound(batch.bounds, survivors))


def filter_columns(
    columns: Mapping[str, Sequence],
    length: int,
    predicates: tuple,
    evaluation: EvaluationContext,
) -> ColumnBatch:
    """:func:`fused_filter_project` over one partition, keeping every
    physical column. No caller in ``src/``: ``benchmarks/e2e/spans.py``
    wraps both names."""
    return fused_filter_project(
        ColumnBatch(columns, [0, length]), predicates, tuple(columns), evaluation
    )


def _take(column: Sequence, positions: list[int] | range) -> Sequence:
    # a range is only ever the whole batch: no predicate has run yet
    if type(positions) is range:
        return column
    return gather(column, positions)


def rebound(bounds: list[int], positions: Sequence[int]) -> list[int]:
    """The partition offsets of the rows at ascending ``positions``: each
    kept row stays in its partition, in order."""
    if type(positions) is range:
        return bounds
    return list(map(bisect_left, repeat(positions), bounds))


def semi_join_filter(
    batch: ColumnBatch,
    rows: int,
    filters: tuple,
) -> tuple[ColumnBatch, int]:
    """Bloom semi-join filter over a dataflow's batch, filter by filter.

    ``filters`` is an ordered tuple of ``(qualified column, BloomFilter)``
    pairs; a row survives only when every filter column is non-null and its
    value might be in the corresponding filter (null join keys never match,
    so they are dropped exactly like the join itself would drop them). A
    filter column absent from the batch reads as all-null and eliminates
    every row. Each filter is probed once, over the surviving keys, so a key
    several partitions hold is digested once, and a later filter sees only
    an earlier one's survivors. ``rows`` is the row count probed, passed for
    the caller's record and not read here.
    """
    survivors: Sequence[int] = range(batch.length)
    for column, bloom in filters:
        col = batch.columns.get(column)
        present = [] if col is None else [i for i in survivors if col[i] is not None]
        verdicts = bloom.might_contain_all([col[i] for i in present])
        survivors = list(compress(present, verdicts))
    out = ColumnBatch(
        {name: gather(col, survivors) for name, col in batch.columns.items()},
        rebound(batch.bounds, survivors),
    )
    return out, len(survivors)


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


def partition_order(
    slots: Sequence[int], partition_count: int
) -> tuple[list[int], list[int]]:
    """Rows regrouped by destination: the positions stably sorted by slot
    (source order kept within a destination) and the destinations' bounds."""
    order = sorted(range(len(slots)), key=slots.__getitem__)
    sizes = Counter(slots)
    bounds = list(accumulate(map(sizes.__getitem__, range(partition_count)), initial=0))
    return order, bounds
