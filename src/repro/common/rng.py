"""Deterministic random number helpers.

All data generation and sampling in the library is seeded so experiments are
exactly reproducible run to run. ``derive`` gives independent substreams from
one master seed without the correlated-stream pitfalls of reusing a seed.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable, Collection, Hashable, Iterable, Iterator, Sequence
from itertools import chain, repeat
from typing import Any

_INT128_LIMIT = 1 << 127
_INT_KINDS = frozenset({int, bool})


def derive(seed: int, *labels: str | int) -> random.Random:
    """Return a ``random.Random`` derived from ``seed`` and a label path.

    Two calls with the same seed and labels always produce identical streams;
    different label paths produce statistically independent streams.
    """
    digest = hashlib.sha256()
    digest.update(str(seed).encode())
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode())
    return random.Random(int.from_bytes(digest.digest()[:8], "big"))


#: The prepared state of the one digest step. Every stable hash copies it and
#: feeds the copy one encoding: the same 8 bytes as ``blake2b(data,
#: digest_size=8)``, without parsing that constructor's keywords per key.
_BLAKE2B_8 = hashlib.blake2b(digest_size=8)


def _encode_key(key: int | str) -> bytes:
    """The bytes a dedupe key is digested as: the one encoder.

    A key is what :func:`stable_hash` tells values apart by — an int (or
    bool) by value, anything else by its ``repr``. An int takes a fixed
    16-byte two's complement; out past it, which hypothesis finds, the buffer
    is sized to the value (-2**127 has always taken 17 bytes, so it stays on
    that side).
    """
    if isinstance(key, str):
        return key.encode()
    if -_INT128_LIMIT < key < _INT128_LIMIT:
        return key.to_bytes(16, "big", signed=True)
    return key.to_bytes((key.bit_length() + 8) // 8, "big", signed=True)


def _digests(blobs: Iterable[bytes]) -> list[int]:
    """The one digest step of a batch: each blob's 8-byte blake2b, big-endian."""
    copy, from_bytes = _BLAKE2B_8.copy, int.from_bytes
    digests: list[int] = []
    append = digests.append
    for data in blobs:
        state = copy()
        state.update(data)
        append(from_bytes(state.digest(), "big"))
    return digests


def stable_hash(value: object) -> int:
    """A hash that is stable across processes (unlike ``hash`` for str).

    Used for hash partitioning and HyperLogLog so results do not depend on
    ``PYTHONHASHSEED``.
    """
    state = _BLAKE2B_8.copy()  # the digest step of one value
    state.update(_encode_key(value if isinstance(value, int) else repr(value)))
    return int.from_bytes(state.digest(), "big")


# Batch encoders: :func:`_encode_key` of every key of an iterable, a uniform
# batch's as C-level maps with no Python call per key.

Encoder = Callable[[Iterable[Any]], Iterator[bytes]]


def _per_key(keys: Iterable[int | str]) -> Iterator[bytes]:
    return map(_encode_key, keys)


def _strings(strings: Iterable[str]) -> Iterator[bytes]:
    return map(str.encode, map(repr, strings))


def _small_ints(ints: Iterable[int]) -> Iterator[bytes]:
    # in [0, 2**127) the unsigned 16-byte encoding is the signed one
    return map(int.to_bytes, ints, repeat(16), repeat("big"))


def _batch_keys(values: Iterable[object]) -> tuple[Sequence[Any], set[Any], Encoder]:
    """``(keys, distinct keys, batch encoder)`` of a list, tuple or iterable.

    Each value's key is what :func:`stable_hash` encodes — an int (or bool)
    by value, anything else by ``repr`` — so "distinct" is not ``==``:
    ``1``/``1.0``/``True`` and ``0.0``/``-0.0`` compare equal but hash apart,
    NaNs the reverse. Strings dedupe before paying for ``repr`` (equal
    strings have equal reprs). An all-int batch checks the 16-byte range
    once, over its distinct keys.
    """
    keys: Sequence[Any] = values if isinstance(values, (list, tuple)) else list(values)
    kinds = set(map(type, keys))
    if kinds == {str}:
        return keys, set(keys), _strings
    if kinds <= _INT_KINDS:
        distinct = set(keys)
        small = not distinct or (min(distinct) >= 0 and max(distinct) < _INT128_LIMIT)
        return keys, distinct, _small_ints if small else _per_key
    keys = [v if isinstance(v, int) else repr(v) for v in keys]
    return keys, set(keys), _per_key


def _fresh_hashes(values: Iterable[object]) -> list[int]:
    """``[stable_hash(v) for v in values]``, digested without the memo.

    A batch at least three quarters distinct is digested in order; otherwise
    each distinct key is digested once and looked up. A key table costs more
    per distinct key than a digest, and more the larger it grows: the two
    paths cost the same at about 4/5 distinct in 1,024-key batches and about
    1/2 in 150k-key ones.
    """
    keys, distinct, encode = _batch_keys(values)
    if 4 * len(distinct) >= 3 * len(keys):
        return _digests(encode(keys))
    table = dict(zip(distinct, _digests(encode(distinct))))
    return list(map(table.__getitem__, keys))


#: Key kinds a memo may be keyed by: for these, two keys share a dict slot
#: only when ``stable_hash`` agrees on them too (``True == 1`` hash alike). A
#: float does not qualify — ``0 == 0.0`` but they hash apart — nor does an
#: int or str subclass, and inside a tuple neither does a bool, because
#: ``repr((True,)) != repr((1,))``.
_UNALIASED = frozenset({int, bool, str, type(None)})
_UNALIASED_IN_TUPLES = frozenset({int, str, type(None)})


def _unaliased(keys: Sequence[Any]) -> bool:
    """True when a memo may be keyed by ``keys``: all of the kinds above, or
    all tuples of the kinds allowed inside one."""
    kinds = set(map(type, keys))
    return kinds <= _UNALIASED or (
        kinds == {tuple}
        and set(map(type, chain.from_iterable(keys))) <= _UNALIASED_IN_TUPLES
    )


#: The process-wide digest memo: key -> ``stable_hash(key)``, for keys of
#: the kinds :func:`_unaliased` admits. A digest is a pure function of its
#: key, so it outlives any one load, sketch or query; like the route memos
#: it is never trimmed.
_DIGESTS: dict[Hashable, int] = {}


def _recalled(keys: Collection[Hashable]) -> list[int]:
    """Each key's digest from the memo, in order; on a miss the distinct
    missing keys are digested in one batch and stored first."""
    try:
        return list(map(_DIGESTS.__getitem__, keys))
    except KeyError:
        missing = list(set(keys).difference(_DIGESTS))
        encoded, _, encode = _batch_keys(missing)
        _DIGESTS.update(zip(missing, _digests(encode(encoded))))
        return list(map(_DIGESTS.__getitem__, keys))


def stable_hashes(values: Iterable[object]) -> list[int]:
    """``[stable_hash(v) for v in values]``, whatever the process hashed before.

    A batch whose key kinds cannot alias in a dict reads the digest memo;
    any other batch (floats, int or str subclasses, tuples holding a float
    or a bool) is digested afresh.
    """
    keys: Sequence[Any] = values if isinstance(values, (list, tuple)) else list(values)
    return _recalled(keys) if _unaliased(keys) else _fresh_hashes(keys)


def distinct_stable_hashes(values: Iterable[object]) -> list[int]:
    """``{stable_hash(v) for v in values}`` as a list, one digest each."""
    keys: Sequence[Any] = values if isinstance(values, (list, tuple)) else list(values)
    if _unaliased(keys):
        return _recalled(set(keys))
    _, distinct, encode = _batch_keys(keys)
    return _digests(encode(distinct))


#: Process-wide route memos, one per partition count. Routing is a pure
#: function of (key, partition count), so a slot outlives any one load,
#: exchange or query.
_ROUTES: dict[int, dict[Hashable, int]] = {}


def partition_slots(keys: Sequence[Hashable], partition_count: int) -> list[int]:
    """``[stable_hash(k) % partition_count for k in keys]``: the one routing
    definition — of ingestion, join placement and the exchange alike —
    whatever the process routed before.

    A batch whose key kinds cannot alias in a dict reads the process-wide
    route memo, and its distinct missing keys are digested in one batch; any
    other batch is digested without touching the memo. A miss bypasses the
    digest memo: a slot is cheaper to keep than to derive from a digest on
    every hit, and a first load would otherwise pay to fill both memos.
    """
    if not _unaliased(keys):
        return [h % partition_count for h in _fresh_hashes(keys)]
    memo = _ROUTES.setdefault(partition_count, {})
    slots: list[Any] = list(map(memo.get, keys))
    if None in slots:
        missing = list({key for key, slot in zip(keys, slots) if slot is None})
        memo.update(zip(missing, [h % partition_count for h in _fresh_hashes(missing)]))
        slots = list(map(memo.__getitem__, keys))
    return slots
