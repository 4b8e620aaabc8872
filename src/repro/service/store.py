"""Persistent per-dataset feedback and sketch store.

A :class:`~repro.session.Session`'s :class:`~repro.core.policy.FeedbackLog`
dies with the process, and its ingestion-time GK/HLL sketches are recollected
on every restart. The query service keys both by *dataset* instead:

- :class:`StoredFeedback` is a drop-in ``FeedbackLog`` that additionally
  routes every observation into a per-dataset-group sub-log (the sorted
  FROM-clause datasets of the observed query). Adaptive policies resolving
  thresholds for a query whose dataset group has enough history derive from
  that group's window — TPC-H misestimates stop inflating the trigger
  threshold of TPC-DS queries — and fall back to the combined window below
  ``min_history``.
- :class:`ServiceStore` bundles the feedback log with persisted ingestion
  sketches keyed by dataset name + a *content token*, plus JSON
  ``save``/``load`` round-tripping. Restoring sketches is only sound when
  the dataset's rows are byte-identical to the ones they describe — which is
  exactly what the content token proves — so a restored service derives the
  same :class:`~repro.core.policy.RuntimeThresholds` and the same
  cardinality estimates as the process that saved it. The store serialises
  on save: an ingestion hands over its live entry (sketches built on first
  read, DESIGN.md §5c) and ``to_state()``, which reads every one, runs when
  the state is asked for.
"""

from __future__ import annotations

import json
import os
import warnings
from collections.abc import Iterable

from repro.cluster.config import ClusterConfig
from repro.common.errors import StatisticsError
from repro.common.rng import stable_hash, stable_hash_of_repr
from repro.common.types import Schema
from repro.core.policy import FeedbackLog, ReplanPolicy, RuntimeThresholds
from repro.engine.metrics import ExecutionResult
from repro.lang.ast import Query
from repro.stats.catalog import DatasetStatistics

#: bump when the on-disk layout changes; mismatched files are rejected.
STORE_FORMAT_VERSION = 1


def dataset_group_key(datasets: tuple[str, ...]) -> str:
    """Stable key for one dataset group (sorted names joined by ``+``)."""
    return "+".join(sorted(datasets))


def query_group_key(query: object) -> str:
    """The dataset-group key of a query's FROM clause."""
    tables = getattr(query, "tables", ())
    return dataset_group_key(tuple({table.dataset for table in tables}))


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


class StoredFeedback(FeedbackLog):
    """Feedback history keyed by dataset group, drop-in for ``FeedbackLog``.

    The combined (superclass) window still sees every observation, so code
    that reads ``session.feedback`` aggregates keeps working; per-group
    sub-logs narrow adaptive derivation to the datasets the query touches.
    """

    def __init__(self, window: int = 64) -> None:
        super().__init__(window)
        #: dataset-group key -> that group's own history window.
        self.groups: dict[str, FeedbackLog] = {}

    def observe_result(self, result: ExecutionResult, datasets: tuple[str, ...] = ()) -> None:
        super().observe_result(result, datasets=datasets)
        if not datasets:
            return
        key = dataset_group_key(datasets)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = FeedbackLog(self.window)
        group.observe_result(result, datasets=datasets)

    def derive(
        self, policy: ReplanPolicy, cluster: ClusterConfig | None = None, query: Query | None = None
    ) -> RuntimeThresholds:
        """Thresholds from the query's dataset group when it has history.

        Falls back to the combined window when the query is unknown or its
        group has fewer than ``policy.min_history`` finite records — a cold
        group behaves exactly like a plain session-wide log.
        """
        if query is not None:
            group = self.groups.get(query_group_key(query))
            if group is not None and group.records >= policy.min_history:
                return group.derive(policy, cluster)
        return super().derive(policy, cluster)

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        state = super().to_state()
        state["groups"] = {
            key: log.to_state() for key, log in sorted(self.groups.items())
        }
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.groups = {
            key: FeedbackLog.from_state(group_state)
            for key, group_state in state.get("groups", {}).items()
        }


class ServiceStore:
    """Feedback + ingestion-sketch persistence for one query service."""

    def __init__(self, window: int = 64) -> None:
        self.feedback = StoredFeedback(window)
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
            "feedback": self.feedback.to_state(),
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
        self.feedback.restore_state(state["feedback"])
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
    def open(cls, path: str, window: int = 64) -> ServiceStore:
        """A store loaded from ``path`` when it exists, else a fresh one.

        An unreadable store (truncated or corrupt JSON from a crashed
        writer, a wrong-format file, an unsupported version) degrades to a
        fresh store with a warning: persisted feedback is an optimization,
        never a correctness input, so refusing to start over it would be
        strictly worse than starting cold. ``load`` may have partially
        mutated the store before raising, so the fallback is a new instance.
        """
        store = cls(window)
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
                return cls(window)
        return store
