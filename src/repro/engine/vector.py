"""Execution kernels of the data plane (DESIGN.md §10).

Rows flow between operators as fixed-size chunks of parallel column lists
(:class:`~repro.engine.data.ColumnarData`); scans read only referenced
columns, scan+filter+project fuse into one pass per chunk, and joins
build/probe over key columns instead of per-row dicts. The cost clock
charges from row counts and the logical column map, never from what a
kernel physically touched.

The kernels here are free functions on purpose: the mutation tests
monkeypatch them to prove the golden-fingerprint harness
(``tests/engine/equivalence.py``) catches a broken kernel.
"""

from __future__ import annotations

from itertools import chain, compress

from repro.common.rng import stable_hash, stable_hashes

#: Rows per chunk in the fused scan/filter/project kernel. Chunk size never
#: leaks into results or simulated cost (pinned by the chunking property
#: test); it only bounds the working set of one kernel invocation.
DEFAULT_CHUNK_SIZE = 1024


# -- fused scan + filter + project ---------------------------------------------


def fused_filter_project(
    partition,
    predicates: tuple,
    live: tuple[str, ...],
    evaluation,
    chunk_size: int,
) -> tuple[dict[str, list], int]:
    """One pass over a lazy scan partition in chunks: filter, then project.

    ``partition`` is a :class:`~repro.engine.data.LazyRowPartition`: its
    ``prefix`` is the scan alias qualifier (empty for intermediates, whose
    stored names are already qualified) and ``storage_column`` serves each
    referenced field as one flat list — pivoted from the stored rows once
    per dataset lifetime and memoized. ``live`` names the qualified columns
    to materialize for surviving rows — the projection part of the fusion;
    columns the query never references are never pivoted at all.

    Per chunk the survivor index list is refined predicate by predicate
    (a short-circuiting conjunction: a later predicate never sees a row an
    earlier one rejected), and only then are the live columns gathered for
    the survivors.
    """
    prefix = partition.prefix
    plen = len(prefix)
    pred_cols = []
    for predicate in predicates:
        column = predicate.column
        key = column[plen:] if plen and column.startswith(prefix) else column
        pred_cols.append(partition.storage_column(key))
    out_columns = []
    for name in live:
        key = name[plen:] if plen and name.startswith(prefix) else name
        out_columns.append((name, partition.storage_column(key)))

    out: dict[str, list] = {name: [] for name in live}
    length = 0
    for start in range(0, partition.length, chunk_size):
        stop = min(start + chunk_size, partition.length)
        survivors: list[int] | range = range(start, stop)
        for predicate, col in zip(predicates, pred_cols):
            if not survivors:
                break
            values = [col[i] for i in survivors]
            mask = predicate.evaluate_batch(values, evaluation)
            survivors = [i for i, ok in zip(survivors, mask) if ok]
        if not survivors:
            continue
        length += len(survivors)
        for name, col in out_columns:
            out[name].extend([col[i] for i in survivors])
    return out, length


def filter_columns(
    columns: dict[str, list],
    length: int,
    predicates: tuple,
    evaluation,
    chunk_size: int,
) -> tuple[dict[str, list], int]:
    """Filter an already-columnar partition, chunk by chunk.

    Same survivor-refinement contract as :func:`fused_filter_project`; the
    gather step copies every physical column for the surviving indices.
    """
    names = list(columns)
    pred_cols = [columns.get(p.column) for p in predicates]
    out: dict[str, list] = {name: [] for name in names}
    out_length = 0
    for start in range(0, length, chunk_size):
        stop = min(start + chunk_size, length)
        survivors: list[int] | range = range(start, stop)
        for predicate, col in zip(predicates, pred_cols):
            if not survivors:
                break
            if col is None:
                values: list = [None] * len(survivors)
            else:
                values = [col[i] for i in survivors]
            mask = predicate.evaluate_batch(values, evaluation)
            survivors = [i for i, ok in zip(survivors, mask) if ok]
        if not survivors:
            continue
        out_length += len(survivors)
        for name in names:
            col = columns[name]
            out[name].extend(col[i] for i in survivors)
    return out, out_length


def semi_join_filter(
    columns: dict[str, list],
    length: int,
    filters: tuple,
    chunk_size: int,
) -> tuple[dict[str, list], int]:
    """Bloom semi-join filter over a columnar partition, chunk by chunk.

    ``filters`` is an ordered tuple of ``(qualified column, BloomFilter)``
    pairs; a row survives only when every filter column is non-null and its
    value might be in the corresponding filter (null join keys never match,
    so they are dropped exactly like the join itself would drop them). A
    filter column absent from the partition reads as all-null and eliminates
    the chunk.
    """
    names = list(columns)
    filter_cols = [columns.get(column) for column, _ in filters]
    out: dict[str, list] = {name: [] for name in names}
    out_length = 0
    for start in range(0, length, chunk_size):
        stop = min(start + chunk_size, length)
        survivors: list[int] | range = range(start, stop)
        for (_, bloom), col in zip(filters, filter_cols):
            if not survivors:
                break
            if col is None:
                survivors = []
                break
            present = [i for i in survivors if col[i] is not None]
            verdicts = bloom.might_contain_all([col[i] for i in present])
            survivors = list(compress(present, verdicts))
        if not survivors:
            continue
        out_length += len(survivors)
        for name in names:
            col = columns[name]
            out[name].extend(col[i] for i in survivors)
    return out, out_length


# -- hash-join kernels ---------------------------------------------------------


def join_key_column(
    columns: dict[str, list], length: int, keys: tuple[str, ...]
) -> list:
    """Per-row join keys from key columns; ``None`` marks a null key.

    Single-column keys use the raw value (``None`` stays ``None``);
    composite keys become tuples, collapsed to ``None`` when any component
    is null.
    """
    if len(keys) == 1:
        col = columns.get(keys[0])
        return list(col) if col is not None else [None] * length

    parts = [
        columns.get(k) if columns.get(k) is not None else [None] * length
        for k in keys
    ]
    return [
        None if any(part is None for part in key) else key
        for key in zip(*parts)
    ]


def build_hash_table(key_column: list) -> dict:
    """Row positions per key, skipping null keys (SQL: never match)."""
    table: dict = {}
    for position, key in enumerate(key_column):
        if key is not None:
            table.setdefault(key, []).append(position)
    return table


def probe_hash_table(table: dict, key_column: list) -> tuple[list[int], list[int]]:
    """Batched probe: (build positions, probe positions) per output row.

    Output order is that of a nested loop: probe rows in order, each one's
    matches in build insertion order.
    """
    build_idx: list[int] = []
    probe_idx: list[int] = []
    get = table.get
    for position, key in enumerate(key_column):
        if key is None:
            continue
        matches = get(key)
        if matches:
            build_idx.extend(matches)
            probe_idx.extend([position] * len(matches))
    return build_idx, probe_idx


def gather(column: list, positions: list[int]) -> list:
    return [column[i] for i in positions]


# -- exchange routing ----------------------------------------------------------

#: Per-partition-count route memos shared across exchanges. Routing is a pure
#: function of (key value, partition count) — ``stable_hash(key) % count`` —
#: so the cache can outlive any single exchange or query.
_route_caches: dict[int, dict] = {}

#: Key types a route memo may be keyed by: for these, two keys share a dict
#: slot only when ``stable_hash`` agrees on them too (``True == 1`` hash
#: alike). A float does not qualify — ``0 == 0.0`` but they hash apart — and
#: inside a tuple neither does a bool, because ``repr((True,)) != repr((1,))``.
_MEMO_SCALARS = frozenset({int, bool, str, type(None)})
_MEMO_TUPLE_PARTS = frozenset({int, str, type(None)})


def shared_route_cache(partition_count: int) -> dict:
    cache = _route_caches.get(partition_count)
    if cache is None:
        cache = _route_caches[partition_count] = {}
    return cache


def _memo_safe(key_values: list) -> bool:
    kinds = set(map(type, key_values))
    if kinds <= _MEMO_SCALARS:
        return True
    return kinds == {tuple} and (
        set(map(type, chain.from_iterable(key_values))) <= _MEMO_TUPLE_PARTS
    )


def route_partitions(key_values: list, partition_count: int, cache: dict) -> list[int]:
    """Destination partition per row: ``stable_hash(key) % partition_count``.

    This is the routing definition — whatever the process routed before.
    Repeated keys reuse the cached slot instead of re-hashing, but only in a
    batch whose key types cannot alias in a dict (``_MEMO_SCALARS``); any
    other batch (DOUBLE or mixed-type keys) is hashed without touching the
    memo, one digest per distinct key.
    """
    if not _memo_safe(key_values):
        return [h % partition_count for h in stable_hashes(key_values)]
    routes = list(map(cache.get, key_values))
    if None in routes:
        for position, slot in enumerate(routes):
            if slot is None:
                key = key_values[position]
                slot = cache.get(key)  # an earlier miss of this batch may have set it
                if slot is None:
                    slot = cache[key] = stable_hash(key) % partition_count
                routes[position] = slot
    return routes
