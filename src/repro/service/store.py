"""Persistent ingestion-sketch store.

A :class:`~repro.session.Session`'s ingestion-time GK/HLL sketches are
recollected on every restart. The query service keeps them in a
:class:`ServiceStore` instead, keyed by dataset name + a *content token*,
with JSON ``save``/``load`` round-tripping. Restoring sketches is only sound
when the dataset's rows are byte-identical to the ones they describe — which
is exactly what the content token proves — so a restored service makes the
same cardinality estimates as the process that saved it. The store persists
what was built and builds nothing: an ingestion hands over its live entry
(sketches built on first read, DESIGN.md §5c), and ``save`` writes each
field's halves that some read already built. A restart adopts those and
builds the rest from the re-ingested rows on first read, as ingestion does.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import warnings
from collections.abc import Iterable
from itertools import islice

from repro.common.errors import StatisticsError
from repro.common.types import Schema
from repro.stats.catalog import DatasetStatistics
from repro.stats.collector import FieldStatistics

#: bump when the on-disk layout or the content token changes; mismatched
#: files are rejected.
STORE_FORMAT_VERSION = 3

#: rows the content token encodes at a time; part of the token's format.
TOKEN_CHUNK_ROWS = 4096


def _token_bytes(chunk: tuple) -> bytes:
    """``chunk`` as the content token feeds it: a tag, a length, and the
    ``marshal`` format-2 bytes — or, for a chunk holding a value marshal
    refuses (a ``dict`` subclass, a ``Decimal``), its ``repr``."""
    try:
        tag, body = b"m", marshal.dumps(chunk, 2)
    except ValueError:
        tag, body = b"r", repr(chunk).encode()
    return tag + len(body).to_bytes(8, "big") + body


def ingest_token(schema: Schema, rows: Iterable[dict], scale: float) -> str:
    """Content token of one ingestion: schema layout + scale + every row.

    One streamed 8-byte ``blake2b`` over the schema header, the scale and
    the rows in ingestion order, fed :data:`TOKEN_CHUNK_ROWS` rows at a time
    as tuples (a list, a tuple and a generator of the same rows encode
    alike). ``marshal`` format 2 writes no back-references, so its bytes
    depend on values and key order, never on object identity; ``1``,
    ``1.0`` and ``True`` encode apart, and so do ``0.0`` and ``-0.0``.

    Two ingestions with equal tokens produce byte-identical datasets and
    therefore byte-identical ingestion sketches, so the store may hand back
    persisted sketches instead of recollecting. Row order changes partition
    layouts, so it changes the token; so does a row's key order, and so may
    a value whose encoding follows a set's iteration order or an object's
    address. Those are false misses: each costs a recollection, never a
    wrong sketch.
    """
    digest = hashlib.blake2b(digest_size=8)
    header = (
        tuple(schema.field_names),
        schema.row_width,
        tuple(schema.primary_key),
        repr(scale),
    )
    digest.update(_token_bytes(header))
    rows = iter(rows)
    while chunk := tuple(islice(rows, TOKEN_CHUNK_ROWS)):
        digest.update(_token_bytes(chunk))
    return digest.hexdigest()


class ServiceStore:
    """Ingestion-sketch persistence for one query service: per dataset
    name, the content token of the last ingestion and its sketch halves
    built so far — a live entry until saved, a validated state once loaded."""

    def __init__(self) -> None:
        #: dataset name -> {"token": content token, "stats": live entry or state}.
        self._sketches: dict[str, dict] = {}

    # -- sketches -------------------------------------------------------------

    def sketches_for(self, name: str, token: str) -> dict[str, dict] | None:
        """The persisted halves of ``name``'s sketches per field
        (:meth:`FieldStatistics.built_state`), iff the content matches.

        Read-only: an ingestion adopts them onto its own entry
        (:meth:`FieldStatistics.adopt_state`), which makes its own copies.
        """
        entry = self._sketches.get(name)
        if entry is None or entry["token"] != token:
            return None
        return self._state_of(entry)["stats"]["fields"]

    def remember_sketches(
        self, name: str, token: str, stats: DatasetStatistics
    ) -> None:
        """Keep one ingestion's statistics under its content token — the
        live entry, whose sketches built by the time of a save persist."""
        self._sketches[name] = {"token": token, "stats": stats}

    @staticmethod
    def _state_of(entry: dict) -> dict:
        """``entry`` as persisted: a live entry's built halves, read now."""
        stats = entry["stats"]
        if isinstance(stats, DatasetStatistics):
            return {"token": entry["token"], "stats": stats.built_state()}
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
        # each persisted half once here so a damaged one fails the load
        # (where ``open`` falls back) and not a later ingestion.
        for entry in sketches.values():
            for field_state in entry["stats"]["fields"].values():
                FieldStatistics(field_state["field_name"]).adopt_state(field_state)
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
