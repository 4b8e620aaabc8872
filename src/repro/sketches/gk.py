"""Greenwald-Khanna epsilon-approximate quantile sketch.

The paper (Section 4) collects quantile sketches following the
Greenwald-Khanna algorithm [Wang et al., SIGMOD 2013 study] to extract the
right borders of equi-height histogram buckets. This module implements the
classic GK summary: a sorted list of tuples ``(value, g, delta)`` where the
rank of ``value`` is known to within ``epsilon * n`` — ``g`` is the gap between
a tuple's minimum rank and the previous tuple's, ``delta`` the uncertainty in
its rank. The tuples are held as three parallel lists, so a flush bisects the
values directly and allocates nothing per inserted value.

The sketch supports streaming insertion, merging (two summaries of two
streams into a valid, not byte-identical, summary of both), rank and
quantile queries.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.common.errors import StatisticsError

if TYPE_CHECKING:
    from repro.sketches.histogram import EquiHeightHistogram

#: Bytes one ``(value, g, delta)`` summary entry is charged in :attr:`nbytes`.
ENTRY_BYTES = 24


class GKQuantileSketch:
    """Streaming epsilon-approximate quantiles (Greenwald-Khanna 2001).

    Parameters
    ----------
    epsilon:
        Maximum rank error as a fraction of the stream length. Rank queries
        are accurate to ``epsilon * n`` and quantile queries to the matching
        value error.
    """

    def __init__(self, epsilon: float = 0.01) -> None:
        if not 0 < epsilon < 1:
            raise StatisticsError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._values: list[float] = []
        self._gaps: list[int] = []
        self._deltas: list[int] = []
        self._count = 0
        self._buffer: list[float] = []
        # Buffering amortizes insertion cost: we sort and bulk-insert.
        self._buffer_cap = max(16, int(1.0 / epsilon))
        # Memoized quantile() answers; invalidated on every summary change.
        self._quantile_cache: dict[float, float] = {}
        # Histograms built from the summary, by bucket count; same lifetime.
        self._histogram_cache: dict[int, EquiHeightHistogram] = {}

    def __len__(self) -> int:
        return self._count + len(self._buffer)

    @property
    def count(self) -> int:
        return len(self)

    def add(self, value: float) -> None:
        """Insert one value into the sketch."""
        self._buffer.append(value)
        if len(self._buffer) >= self._buffer_cap:
            self._flush()

    def extend(self, values) -> None:
        """Insert a batch: state ends exactly as after ``add`` of each value.

        The buffer is topped up in slices and flushed at the same fills as
        ``add`` would, because the summary depends on where the flushes
        (sort + compress) fall in the stream.
        """
        values = values if isinstance(values, (list, tuple)) else list(values)
        buffer, cap = self._buffer, self._buffer_cap
        start = 0
        while start < len(values):
            room = cap - len(buffer)
            buffer.extend(values[start : start + room])
            start += room
            if len(buffer) >= cap:
                self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        self._quantile_cache.clear()
        self._histogram_cache.clear()
        values, gaps, deltas = self._values, self._gaps, self._deltas
        count, band, size = self._count, 2 * self.epsilon, len(values)
        for value in sorted(self._buffer):
            count += 1
            # First entry with a value not below this one.
            at = bisect_left(values, value)
            if at == 0 or at == size:
                # New minimum or maximum is always exact.
                deltas.insert(at, 0)
            else:
                # _threshold() - 1 as of this insertion, spelled without calls.
                threshold = int(band * count)
                deltas.insert(at, threshold - 1 if threshold > 1 else 0)
            values.insert(at, value)
            gaps.insert(at, 1)
            size += 1
        self._count = count
        self._buffer.clear()
        self._compress()

    def _threshold(self) -> int:
        return max(1, int(2 * self.epsilon * self._count))

    def _compress(self) -> None:
        values, gaps, deltas = self._values, self._gaps, self._deltas
        if len(values) < 3:
            return
        threshold = self._threshold()
        out_values, out_gaps, out_deltas = values[:1], gaps[:1], deltas[:1]
        # Merge adjacent entries while the combined band stays within budget;
        # the first and last entries (exact minimum and maximum) never merge.
        tail_gap = None  # gap of the output's tail once it is past the first entry
        for value, gap, delta in zip(values[1:-1], gaps[1:-1], deltas[1:-1]):
            if tail_gap is not None and tail_gap + gap + delta <= threshold:
                tail_gap += gap
                out_values[-1], out_gaps[-1], out_deltas[-1] = value, tail_gap, delta
            else:
                tail_gap = gap
                out_values.append(value)
                out_gaps.append(gap)
                out_deltas.append(delta)
        out_values.append(values[-1])
        out_gaps.append(gaps[-1])
        out_deltas.append(deltas[-1])
        self._values, self._gaps, self._deltas = out_values, out_gaps, out_deltas

    def rank(self, value: float) -> int:
        """Approximate number of inserted values ``<= value``."""
        self._flush()
        if self._count == 0:
            return 0
        rmin = 0
        for entry_value, gap in zip(self._values, self._gaps):
            if entry_value > value:
                return rmin
            rmin += gap
        return self._count

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (``0 <= q <= 1``) of the stream."""
        if not 0 <= q <= 1:
            raise StatisticsError(f"quantile fraction must be in [0, 1], got {q}")
        self._flush()
        if self._count == 0:
            raise StatisticsError("cannot query quantiles of an empty sketch")
        cached = self._quantile_cache.get(q)
        if cached is not None:
            return cached
        target = q * (self._count - 1) + 1
        budget = self._threshold() / 2 + 1
        rmin = 0
        result = self._values[-1]
        for value, gap, delta in zip(self._values, self._gaps, self._deltas):
            rmin += gap
            if target <= rmin + delta + budget and rmin + budget >= target:
                result = value
                break
        self._quantile_cache[q] = result
        return result

    def histogram_cache(self) -> dict[int, EquiHeightHistogram]:
        """Histograms derived from the current summary, by bucket count.

        Owned by the sketch so that it empties where the summary changes
        (``_flush``); pending buffered values are flushed before it is
        handed out, so whatever it holds describes the whole stream.
        """
        self._flush()
        return self._histogram_cache

    def quantiles(self, buckets: int) -> list[float]:
        """Right borders of ``buckets`` equi-height buckets (Section 4).

        Returns ``buckets`` values; the last is the stream maximum.
        """
        if buckets < 1:
            raise StatisticsError("bucket count must be >= 1")
        return [self.quantile((i + 1) / buckets) for i in range(buckets)]

    @property
    def minimum(self) -> float:
        self._flush()
        if self._count == 0:
            raise StatisticsError("empty sketch has no minimum")
        return self._values[0]

    @property
    def maximum(self) -> float:
        self._flush()
        if self._count == 0:
            raise StatisticsError("empty sketch has no maximum")
        return self._values[-1]

    def merge(self, other: GKQuantileSketch) -> GKQuantileSketch:
        """Merge two sketches into a new one.

        The merged sketch honours ``max(self.epsilon, other.epsilon)``: the
        summaries are interleaved by value and recompressed, and an entry
        taken from one adds ``g + delta - 1`` of its successor in the other
        to its own ``delta`` — all it knows of its rank among the other's
        values. Without that widening a chain of merges drifts.
        """
        self._flush()
        other._flush()
        merged = GKQuantileSketch(max(self.epsilon, other.epsilon))
        values = self._values + other._values
        gaps = self._gaps + other._gaps
        deltas = self._deltas + other._deltas
        order = sorted(range(len(values)), key=values.__getitem__)
        mine = len(self._values)
        above = [0, 0]  # g + delta - 1 of the next entry up, per source summary
        for i in reversed(order):
            source = i >= mine
            reach = gaps[i] + deltas[i] - 1
            deltas[i] += above[not source]
            above[source] = reach
        merged._values = [values[i] for i in order]
        merged._gaps = [gaps[i] for i in order]
        merged._deltas = [deltas[i] for i in order]
        merged._count = self._count + other._count
        merged._compress()
        return merged

    @property
    def nbytes(self) -> int:
        """Bytes held by a fixed formula: :data:`ENTRY_BYTES` per summary
        entry, a buffered value counting as one. Flushes nothing."""
        return ENTRY_BYTES * (len(self._values) + len(self._buffer))

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot of the sketch.

        The buffer is flushed first, so the state is exactly the compressed
        summary — a sketch restored with :meth:`from_state` answers every
        rank/quantile query identically to the original (both operate on the
        same flushed entries).
        """
        self._flush()
        return {
            "epsilon": self.epsilon,
            "count": self._count,
            "entries": [list(e) for e in zip(self._values, self._gaps, self._deltas)],
        }

    @classmethod
    def from_state(cls, state: dict) -> GKQuantileSketch:
        """Rebuild a sketch from :meth:`to_state` output."""
        sketch = cls(state["epsilon"])
        sketch._count = int(state["count"])
        for value, gap, delta in state["entries"]:
            sketch._values.append(value)
            sketch._gaps.append(int(gap))
            sketch._deltas.append(int(delta))
        return sketch
