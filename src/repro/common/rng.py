"""Deterministic random number helpers.

All data generation and sampling in the library is seeded so experiments are
exactly reproducible run to run. ``derive`` gives independent substreams from
one master seed without the correlated-stream pitfalls of reusing a seed.
"""

from __future__ import annotations

import hashlib
import random

_INT128_LIMIT = 1 << 127


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


def stable_hash(value: object) -> int:
    """A hash that is stable across processes (unlike ``hash`` for str).

    Used for hash partitioning and HyperLogLog so results do not depend on
    ``PYTHONHASHSEED``.
    """
    if isinstance(value, int):
        if -_INT128_LIMIT < value < _INT128_LIMIT:
            data = value.to_bytes(16, "big", signed=True)
        else:
            # A fixed 16-byte encoding overflows out here, which hypothesis
            # finds: size the buffer to the value (-2**127 has always taken
            # 17 bytes, so it stays on this side).
            data = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    else:
        data = repr(value).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def _hash_distinct(values) -> tuple[list, dict]:
    """Per-value dedupe keys, and the ``stable_hash`` of each distinct key.

    "Distinct" is by what :func:`stable_hash` encodes — ints (and bools) by
    value, everything else by ``repr`` — not by ``==``: ``1``/``1.0``/``True``
    and ``0.0``/``-0.0`` compare equal but hash apart, NaNs the reverse.
    """
    keys = values if isinstance(values, (list, tuple)) else list(values)
    from_bytes, blake2b = int.from_bytes, hashlib.blake2b
    kinds = set(map(type, keys))
    if kinds == {str}:
        # Equal strings have equal reprs, so dedupe before paying for repr.
        return keys, {
            text: from_bytes(blake2b(repr(text).encode(), digest_size=8).digest(), "big")
            for text in set(keys)
        }
    if not kinds <= {int, bool}:
        keys = [v if isinstance(v, int) else repr(v) for v in keys]
    table = {}
    for key in set(keys):
        if isinstance(key, str):
            data = key.encode()
        elif -_INT128_LIMIT < key < _INT128_LIMIT:
            data = key.to_bytes(16, "big", signed=True)
        else:
            data = key.to_bytes((key.bit_length() + 8) // 8, "big", signed=True)
        table[key] = from_bytes(blake2b(data, digest_size=8).digest(), "big")
    return keys, table


def stable_hashes(values) -> list[int]:
    """``[stable_hash(v) for v in values]``, digesting each distinct input once."""
    keys, table = _hash_distinct(values)
    return [table[key] for key in keys]


def distinct_stable_hashes(values):
    """``{stable_hash(v) for v in values}`` as an iterable, one digest each."""
    return _hash_distinct(values)[1].values()
