"""Deterministic Bloom filters for predicate transfer.

Predicate transfer (Yang et al., "Predicate Transfer: Efficient
Pre-Filtering on Multi-Join Queries") propagates approximate membership
filters across join edges before execution. The filter here is a textbook
partitioned-bit Bloom filter with two engineering constraints imposed by
this codebase:

- **Determinism.** Hashing goes through :func:`repro.common.rng.stable_hash`
  (keyed blake2b), so filter contents — and therefore which false positives
  survive a probe — are identical across processes, engines and platforms.
  The byte-identity guarantee of DESIGN.md §10 extends through the semi-join
  filter operator only because of this.
- **Honest cost accounting.** The filter is *built* over stored
  (scaled-down) rows but *charged* at modeled scale: ``charge_bytes`` is the
  wire size a filter sized for the modeled cardinality would have, which is
  what the cost model's ``bloom_transfer`` bills for shipping it.

Index derivation uses Kirsch-Mitzenmacher double hashing: one 64-bit hash
split into two halves drives all ``hash_count`` probes, so each add/probe
costs a single blake2b invocation regardless of ``hash_count`` — and, since
both directions work a column at a time (:meth:`BloomFilter.add_all`,
:meth:`BloomFilter.might_contain_all`), one test per *distinct* key of the
column, deduplicated by what :func:`stable_hash` encodes. The semi-join
kernel probes a filter once per operator, so the column is the surviving
keys of all the operator's partitions.

Both directions see keys **as the join compares them** (:func:`_as_compared`):
a filter may keep too much, never too little, so two keys the join would
match must set and test the same bits.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Sequence

from repro.common.errors import ReproError
from repro.common.rng import distinct_stable_hashes, stable_hashes

_LN2 = math.log(2.0)

#: smallest filter ever allocated — tiny inputs still get a real bit array.
MIN_BITS = 64
#: default false-positive probability for transfer filters.
DEFAULT_FPP = 0.01


def bloom_bit_count(expected: int, fpp: float = DEFAULT_FPP) -> int:
    """Optimal bit-array size for ``expected`` keys at probability ``fpp``."""
    n = max(1, int(expected))
    bits = math.ceil(-n * math.log(fpp) / (_LN2 * _LN2))
    return max(MIN_BITS, bits)


def bloom_hash_count(bit_count: int, expected: int) -> int:
    """Optimal probe count ``k = m/n * ln 2`` (at least one)."""
    n = max(1, int(expected))
    return max(1, round(bit_count / n * _LN2))


def bloom_size_bytes(expected: float, fpp: float = DEFAULT_FPP) -> float:
    """Modeled wire size of a filter sized for ``expected`` keys.

    ``expected`` may be fractional (modeled cardinalities are stored counts
    times a scale factor); the result is the analytic optimal bit count in
    bytes, without the :data:`MIN_BITS` floor or integer rounding — it feeds
    the cost model, not an allocation.
    """
    n = max(1.0, float(expected))
    bits = -n * math.log(fpp) / (_LN2 * _LN2)
    return bits / 8.0


def _as_compared(values: Iterable[object]) -> Sequence[object]:
    """The keys as the join compares them: an integral float is its int.

    The join matches through a dict, where ``1 == 1.0 == True`` and
    ``0.0 == -0.0``; :func:`stable_hash` encodes ints by value and floats by
    ``repr``, so hashing an INT key and an equal DOUBLE key as they come
    would set and test different bits — a false *negative*. (Not fixed in
    ``stable_hash``: HLL registers and partition routing hash through it.)
    A batch with no float in it pays the type scan and nothing else.
    """
    keys = values if isinstance(values, (list, tuple)) else list(values)
    if float not in set(map(type, keys)):
        return keys
    return [int(v) if type(v) is float and v.is_integer() else v for v in keys]


class BloomFilter:
    """A deterministic Bloom filter over arbitrary hashable-by-repr values.

    The bit array is a ``bytearray`` (bit ``i`` is bit ``i & 7`` of byte
    ``i >> 3``), so setting or testing a bit costs the same whatever the
    filter's size.
    """

    __slots__ = ("bit_count", "hash_count", "charge_bytes", "_bytes")

    def __init__(
        self, bit_count: int, hash_count: int, charge_bytes: float = 0.0
    ) -> None:
        if bit_count < 1 or hash_count < 1:
            raise ReproError("a Bloom filter needs >= 1 bit and >= 1 hash")
        self.bit_count = int(bit_count)
        self.hash_count = int(hash_count)
        #: modeled wire size in bytes, billed by ``CostModel.bloom_transfer``
        #: when the filter ships to a probe job; defaults to the physical
        #: size when the builder does not override it.
        self.charge_bytes = (
            float(charge_bytes) if charge_bytes > 0.0 else float(self.size_bytes)
        )
        self._bytes = bytearray(self.size_bytes)

    @classmethod
    def build(
        cls,
        values: Iterable[object],
        expected: int,
        fpp: float = DEFAULT_FPP,
        charge_bytes: float | None = None,
    ) -> BloomFilter:
        """A filter sized for ``expected`` keys, populated from ``values``.

        ``None`` values are skipped: a null join key never matches, and the
        probe side drops null keys before consulting the filter.
        """
        bit_count = bloom_bit_count(expected, fpp)
        bloom = cls(
            bit_count,
            bloom_hash_count(bit_count, expected),
            charge_bytes if charge_bytes is not None else 0.0,
        )
        bloom.add_all([value for value in values if value is not None])
        return bloom

    def add(self, value: object) -> None:
        self.add_all((value,))

    def add_all(self, values: Iterable[object]) -> None:
        """Insert a column of values (bits are a union: only distinct keys matter)."""
        data, bit_count, probes = self._bytes, self.bit_count, range(self.hash_count)
        for digest in distinct_stable_hashes(_as_compared(values)):
            low = digest & 0xFFFFFFFF
            high = (digest >> 32) | 1
            for i in probes:
                bit = (low + i * high) % bit_count
                data[bit >> 3] |= 1 << (bit & 7)

    def might_contain(self, value: object) -> bool:
        """False means definitely absent; True means present or false positive."""
        return self.might_contain_all((value,))[0]

    def might_contain_all(self, values: Iterable[object]) -> list[bool]:
        """:meth:`might_contain` per value of a column, in order."""
        data, bit_count, probes = self._bytes, self.bit_count, range(self.hash_count)
        hashes = stable_hashes(_as_compared(values))
        verdicts = dict.fromkeys(hashes, True)
        for digest in verdicts:
            low = digest & 0xFFFFFFFF
            high = (digest >> 32) | 1
            for i in probes:
                bit = (low + i * high) % bit_count
                if not data[bit >> 3] >> (bit & 7) & 1:
                    verdicts[digest] = False
                    break
        return [verdicts[digest] for digest in hashes]

    @property
    def size_bytes(self) -> int:
        """Physical size of the bit array in bytes."""
        return (self.bit_count + 7) // 8

    @property
    def bits_set(self) -> int:
        return int.from_bytes(self._bytes, "little").bit_count()

    def fingerprint(self) -> str:
        """Stable 64-bit content identity (used in cache tokens).

        Hashes the bit array as one big-endian integer (bit 0 last), the
        layout every recorded cache token and golden digest was taken over.
        """
        header = f"{self.bit_count}|{self.hash_count}|".encode()
        return hashlib.blake2b(header + self._bytes[::-1], digest_size=8).hexdigest()

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.bit_count}, hashes={self.hash_count}, "
            f"set={self.bits_set})"
        )
