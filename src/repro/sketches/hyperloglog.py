"""HyperLogLog distinct-count sketch.

Formula (1) in the paper divides by ``max(U(A.k), U(B.k))``, the number of
unique join-key values, estimated with HyperLogLog [Flajolet et al. 2007].
This implementation uses 2**p registers with the standard bias correction and
linear counting for the small-cardinality range, plus lossless merge (needed
to combine per-partition sketches).

The registers are held in the smaller of two forms, after HLL++'s sparse
mode [Heule, Nunkesser and Hall, EDBT 2013]: while few are set, the sorted
``(index, rank)`` pairs of the non-zero ones, packed ``index << 8 | rank`` at
:data:`PAIR_BYTES` each; from the point where the pairs would be no smaller
than one byte per register, the dense ``bytearray``. The form is a function
of the registers alone (sparse exactly while ``PAIR_BYTES * set < 2**p``), so
it never changes what the sketch estimates or persists.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import compress

from repro.common.errors import StatisticsError
from repro.common.rng import distinct_stable_hashes, stable_hash

#: Bytes one packed ``(index, rank)`` pair costs in the sparse form.
PAIR_BYTES = 4


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


class HyperLogLog:
    """HyperLogLog cardinality estimator.

    Parameters
    ----------
    precision:
        Number of index bits ``p``; the sketch keeps ``2**p`` registers and
        has a relative standard error of about ``1.04 / sqrt(2**p)``.
    """

    def __init__(self, precision: int = 12) -> None:
        if not 4 <= precision <= 18:
            raise StatisticsError(f"precision must be in [4, 18], got {precision}")
        self.precision = precision
        self._m = 1 << precision
        # Exactly one of the two forms is held; the other is None.
        self._pairs: array | None = array("I")
        self._registers: bytearray | None = None
        self._count = 0  # raw insertions, handy for tests/diagnostics
        # Memoized cardinality(); invalidated whenever a register changes.
        self._cardinality_cache: float | None = None

    def add(self, value: object) -> None:
        """Insert one value (any hashable/reprable object)."""
        self._observe((stable_hash(value),))
        self._count += 1

    def extend(self, values) -> None:
        """Insert a batch: state ends exactly as after ``add`` of each value.

        Registers are a running max, so only the distinct hashes matter.
        """
        values = values if isinstance(values, (list, tuple)) else list(values)
        self._observe(distinct_stable_hashes(values))
        self._count += len(values)

    def _observe(self, hashes) -> None:
        """Fold a sized batch of hashes into the registers.

        A batch long enough to fill the pairs runs on the dense array and
        the result is then held in the smaller form; a shorter one updates
        the pairs in place and goes dense at the pair that crosses over.
        """
        if self._pairs is not None:
            if PAIR_BYTES * len(hashes) >= self._m:
                self._registers, self._pairs = self._dense(), None
                self._observe_registers(hashes)
                self._hold(self._registers)
                return
            hashes = iter(hashes)
            self._observe_pairs(hashes)
            if self._pairs is not None:
                return
        self._observe_registers(hashes)

    def _observe_pairs(self, hashes) -> None:
        """Update the sparse pairs until they would outgrow the dense array."""
        pairs, mask, shift = self._pairs, self._m - 1, self.precision
        for h in hashes:
            remaining = h >> shift
            rank = (remaining & -remaining).bit_length() or 65 - shift
            index = h & mask
            packed = index << 8 | rank
            at = bisect_left(pairs, index << 8)
            if at == len(pairs) or pairs[at] >> 8 != index:
                pairs.insert(at, packed)
            elif packed > pairs[at]:
                pairs[at] = packed
            else:
                continue
            self._cardinality_cache = None
            if PAIR_BYTES * len(pairs) >= self._m:
                self._registers, self._pairs = self._dense(), None
                return

    def _observe_registers(self, hashes) -> None:
        registers, mask, shift = self._registers, self._m - 1, self.precision
        for h in hashes:
            remaining = h >> shift
            # 1-based position of the lowest set bit of the remaining 64-p
            # bits; one past them when there is none.
            rank = (remaining & -remaining).bit_length() or 65 - shift
            if rank > registers[h & mask]:
                registers[h & mask] = rank
                self._cardinality_cache = None

    def _dense(self) -> bytearray:
        """The registers one byte each: the dense array itself, or built
        from the pairs."""
        if self._registers is not None:
            return self._registers
        registers = bytearray(self._m)
        for pair in self._pairs:
            registers[pair >> 8] = pair & 0xFF
        return registers

    def _hold(self, registers: bytearray) -> None:
        """Keep ``registers`` in whichever form is smaller."""
        m = self._m
        if PAIR_BYTES * (m - registers.count(0)) < m:
            set_indexes = compress(range(m), registers)
            self._pairs = array("I", [i << 8 | registers[i] for i in set_indexes])
            self._registers = None
        else:
            self._pairs, self._registers = None, registers

    @property
    def nbytes(self) -> int:
        """Bytes the registers occupy: :data:`PAIR_BYTES` per pair while
        sparse, one per register once dense."""
        if self._pairs is None:
            return self._m
        return PAIR_BYTES * len(self._pairs)

    def cardinality(self) -> float:
        """Estimated number of distinct inserted values.

        The harmonic sum ``sum(2**-register)`` is taken as one exact integer
        over ``2**top`` — a C-level ``count`` per rank held, one division —
        instead of a float addition per register. Every partial sum of the
        per-register loop is a multiple of ``2**-max_rank`` no larger than
        ``2**precision``, so while ``precision + max_rank <= 53`` that loop
        was exact too and the two agree bit for bit; beyond it this is the
        correctly rounded value. The sparse form counts the ranks of its
        pairs, every register it leaves out being a zero. The estimate is
        memoized until the next register update — the planner re-reads the
        same frozen sketches at every re-optimization point.
        """
        if self._cardinality_cache is not None:
            return self._cardinality_cache
        m = self._m
        top = 65 - self.precision  # the largest rank _observe can store
        if self._pairs is None:
            ranks = self._registers
        else:
            ranks = bytes(map((0xFF).__and__, self._pairs))
        count = ranks.count
        zeros = m - len(ranks) + count(0)
        scaled_sum = zeros << top
        unseen = m - zeros
        for rank in range(1, top + 1):
            if not unseen:
                break
            held = count(rank)
            scaled_sum += held << (top - rank)
            unseen -= held
        estimate = _alpha(m) * m * m / (scaled_sum / (1 << top))
        if estimate <= 2.5 * m and zeros:
            # Linear counting regime.
            estimate = m * math.log(m / zeros)
        self._cardinality_cache = estimate
        return estimate

    def merge(self, other: HyperLogLog) -> HyperLogLog:
        """Return a new sketch equivalent to observing both streams.

        Two sparse sketches merge as a union by index that keeps the higher
        rank. Otherwise the register-wise max runs on the two dense arrays
        read as big integers (SWAR): registers are at most
        ``65 - precision < 128``, so with bit 7 of every byte of ``mine``
        set, subtracting ``theirs`` never borrows across a byte and leaves
        bit 7 set exactly where ``mine >= theirs``.
        """
        if self.precision != other.precision:
            raise StatisticsError(
                f"cannot merge HLLs of different precision "
                f"({self.precision} vs {other.precision})"
            )
        m = self._m
        merged = HyperLogLog(self.precision)
        merged._count = self._count + other._count
        if self._pairs is not None and other._pairs is not None:
            # Sorted packed pairs put each index's highest rank last, which
            # is the one a dict keyed by index keeps.
            union = {pair >> 8: pair for pair in sorted(self._pairs + other._pairs)}
            merged._pairs = array("I", union.values())
            if PAIR_BYTES * len(union) >= m:
                merged._registers, merged._pairs = merged._dense(), None
            return merged
        high_bits = int.from_bytes(b"\x80" * m, "little")
        mine = int.from_bytes(self._dense(), "little")
        theirs = int.from_bytes(other._dense(), "little")
        # 0xFF in every byte where mine >= theirs, 0x00 elsewhere.
        keep_mine = ((((mine | high_bits) - theirs) & high_bits) >> 7) * 0xFF
        merged._pairs = None
        merged._registers = bytearray(
            (theirs ^ ((mine ^ theirs) & keep_mine)).to_bytes(m, "little")
        )
        return merged

    @property
    def relative_error(self) -> float:
        """Expected relative standard error for this precision."""
        return 1.04 / math.sqrt(self._m)

    def __len__(self) -> int:
        return self._count

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot: the dense registers hex-packed, in
        either form."""
        return {
            "precision": self.precision,
            "count": self._count,
            "registers": self._dense().hex(),
        }

    @classmethod
    def from_state(cls, state: dict) -> HyperLogLog:
        """Rebuild a sketch from :meth:`to_state` output, in the smaller form.

        The restored sketch's :meth:`cardinality` is identical to the
        original's — the estimate is a pure function of the registers.
        """
        sketch = cls(int(state["precision"]))
        registers = bytearray.fromhex(state["registers"])
        if len(registers) != sketch._m:
            raise StatisticsError(
                f"corrupt HLL state: {len(registers)} registers for "
                f"precision {sketch.precision}"
            )
        top = 65 - sketch.precision
        # What is left after deleting every legal rank (a C-level pass).
        illegal = registers.translate(None, bytes(range(top + 1)))
        if illegal:
            raise StatisticsError(
                f"corrupt HLL state: register {max(illegal)} exceeds the "
                f"largest rank {top} of precision {sketch.precision}"
            )
        sketch._hold(registers)
        sketch._count = int(state["count"])
        return sketch
