"""Persistent ingestion-sketch store.

A :class:`~repro.session.Session`'s ingestion-time GK/HLL sketches are
recollected on every restart. The query service keeps them in a
:class:`ServiceStore` instead, keyed by dataset name + a *content token*,
with JSON ``save``/``load`` round-tripping. Restoring sketches is only sound
when the dataset's rows are byte-identical to the ones they describe — which
is exactly what the content token proves — so a restored service makes the
same cardinality estimates as the process that saved it. The store
serialises on save: an ingestion hands over its live entry (sketches built
on first read, DESIGN.md §5c) and ``to_state()``, which reads every one,
runs when the state is asked for.
"""

from __future__ import annotations

import json
import os
import warnings
from collections.abc import Iterable

from repro.common.errors import StatisticsError
from repro.common.rng import stable_hash, stable_hash_of_repr
from repro.common.types import Schema
from repro.stats.catalog import DatasetStatistics

#: bump when the on-disk layout changes; mismatched files are rejected.
STORE_FORMAT_VERSION = 2


def _row_shape(keys: tuple) -> tuple[list, str]:
    """Sorted ``keys`` and, for rows with exactly those keys, the text of
    ``repr((acc, tuple((key, repr(row[key])) for key in order)))`` as a
    ``%`` template over ``(acc, *(repr(repr(row[key])) for key in order))``.

    The token folds that repr for every row; per distinct key set, the sort
    and the punctuation are paid once instead of once per row.
    """
    order = sorted(keys)
    pairs = ", ".join("(" + repr(key).replace("%", "%%") + ", %s)" for key in order)
    return order, "(%d, (" + pairs + ("," if len(order) == 1 else "") + "))"


def ingest_token(schema: Schema, rows: Iterable[dict], scale: float) -> str:
    """Content token of one ingestion: schema layout + every row + scale.

    Two ingestions with equal tokens produce byte-identical datasets and
    therefore byte-identical ingestion sketches, so the store may hand back
    persisted sketches instead of recollecting. The fold visits rows in
    ingestion order — order changes partition layouts, so it must (and does)
    change the token.
    """
    acc = stable_hash(
        (
            tuple(schema.field_names),
            schema.row_width,
            tuple(schema.primary_key),
            repr(scale),
        )
    )
    templates: dict[tuple, tuple[list, str]] = {}
    for row in rows:
        keys = tuple(row)
        shape = templates.get(keys)
        if shape is None:
            shape = templates[keys] = _row_shape(keys)
        order, template = shape
        acc = stable_hash_of_repr(
            template % (acc, *[repr(repr(row[key])) for key in order])
        )
    return f"{acc:016x}"


class ServiceStore:
    """Ingestion-sketch persistence for one query service."""

    def __init__(self) -> None:
        #: dataset name -> {"token": content token, "stats": live entry or state}.
        self._sketches: dict[str, dict] = {}

    # -- sketches -------------------------------------------------------------

    def sketches_for(self, name: str, token: str) -> DatasetStatistics | None:
        """Persisted ingestion statistics for ``name``, iff content matches.

        Each call materializes a fresh :class:`DatasetStatistics` (sketches
        included) from the stored state, so callers may mutate their copy —
        e.g. re-registering under a different name — without corrupting the
        store.
        """
        entry = self._sketches.get(name)
        if entry is None or entry["token"] != token:
            return None
        return DatasetStatistics.from_state(self._state_of(entry)["stats"])

    def remember_sketches(
        self, name: str, token: str, stats: DatasetStatistics
    ) -> None:
        """Keep one ingestion's statistics under its content token — the
        live entry, not its state: serialising reads every sketch."""
        self._sketches[name] = {"token": token, "stats": stats}

    @staticmethod
    def _state_of(entry: dict) -> dict:
        """``entry`` as persisted: a live statistics entry serialised now."""
        stats = entry["stats"]
        if isinstance(stats, DatasetStatistics):
            return {"token": entry["token"], "stats": stats.to_state()}
        return entry

    def sketched_datasets(self) -> list[str]:
        return sorted(self._sketches)

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "version": STORE_FORMAT_VERSION,
            "sketches": {
                name: self._state_of(self._sketches[name])
                for name in sorted(self._sketches)
            },
        }

    def restore_state(self, state: dict) -> None:
        version = state.get("version")
        if version != STORE_FORMAT_VERSION:
            raise StatisticsError(
                f"unsupported service-store format {version!r} "
                f"(this build reads version {STORE_FORMAT_VERSION})"
            )
        sketches = dict(state["sketches"])
        # Sketch states stay dicts until an ingestion asks for them; rebuild
        # each once here so a damaged one fails the load (where ``open``
        # falls back) and not a later ingestion.
        for entry in sketches.values():
            DatasetStatistics.from_state(entry["stats"])
        self._sketches = sketches

    def save(self, path: str) -> None:
        """Write the store as JSON (atomically: temp file + rename).

        A failure mid-write (serialization error, disk full, interrupt) must
        not leave a half-written ``.tmp`` orphan behind: the temp file is
        removed on any exit path where the rename did not happen.
        """
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.to_state(), handle, indent=1, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    def load(self, path: str) -> None:
        with open(path, encoding="utf-8") as handle:
            self.restore_state(json.load(handle))

    @classmethod
    def open(cls, path: str) -> ServiceStore:
        """A store loaded from ``path`` when it exists, else a fresh one.

        An unreadable store (truncated or corrupt JSON from a crashed
        writer, a wrong-format file, an unsupported version) degrades to a
        fresh store with a warning: persisted sketches are an optimization,
        never a correctness input, so refusing to start over them would be
        strictly worse than starting cold. ``load`` may have partially
        mutated the store before raising, so the fallback is a new instance.
        """
        store = cls()
        if os.path.exists(path):
            try:
                store.load(path)
            except (OSError, ValueError, KeyError, TypeError, StatisticsError) as exc:
                warnings.warn(
                    f"service store {path!r} is unreadable ({exc}); "
                    "starting fresh",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return cls()
        return store
