"""Greenwald-Khanna quantile sketch tests, including the epsilon rank bound."""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StatisticsError
from repro.sketches.gk import GKQuantileSketch
from tests.conftest import mixed_column_batches, quantile_rank_gap, same_state


class TestValidation:
    def test_epsilon_bounds(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(StatisticsError):
                GKQuantileSketch(bad)

    def test_empty_quantile_raises(self):
        with pytest.raises(StatisticsError):
            GKQuantileSketch().quantile(0.5)

    def test_quantile_fraction_bounds(self):
        sketch = GKQuantileSketch()
        sketch.add(1.0)
        with pytest.raises(StatisticsError):
            sketch.quantile(1.5)

    def test_buckets_positive(self):
        sketch = GKQuantileSketch()
        sketch.add(1.0)
        with pytest.raises(StatisticsError):
            sketch.quantiles(0)

    def test_empty_min_max_raise(self):
        with pytest.raises(StatisticsError):
            GKQuantileSketch().minimum
        with pytest.raises(StatisticsError):
            GKQuantileSketch().maximum


class TestBasics:
    def test_count_tracks_inserts(self):
        sketch = GKQuantileSketch()
        sketch.extend(range(100))
        assert len(sketch) == 100

    def test_min_max_exact(self):
        sketch = GKQuantileSketch(0.05)
        values = [random.Random(1).uniform(-50, 50) for _ in range(1000)]
        sketch.extend(values)
        assert sketch.minimum == min(values)
        assert sketch.maximum == max(values)

    def test_single_value(self):
        sketch = GKQuantileSketch()
        sketch.add(7.0)
        assert sketch.quantile(0.0) == 7.0
        assert sketch.quantile(1.0) == 7.0

    def test_quantiles_are_monotone(self):
        sketch = GKQuantileSketch(0.02)
        sketch.extend(random.Random(2).gauss(0, 1) for _ in range(5000))
        borders = sketch.quantiles(16)
        assert borders == sorted(borders)
        assert borders[-1] == sketch.maximum

    def test_rank_monotone(self):
        sketch = GKQuantileSketch(0.02)
        sketch.extend(range(1000))
        assert sketch.rank(-1) == 0
        assert sketch.rank(2000) == 1000
        assert sketch.rank(100) <= sketch.rank(500)

    def test_summary_much_smaller_than_stream(self):
        sketch = GKQuantileSketch(0.01)
        sketch.extend(random.Random(3).random() for _ in range(50_000))
        assert sketch.summary_size() < 5_000


class TestAccuracy:
    def test_uniform_quantiles_within_epsilon(self):
        epsilon = 0.01
        n = 20_000
        sketch = GKQuantileSketch(epsilon)
        rng = random.Random(4)
        values = [rng.random() for _ in range(n)]
        sketch.extend(values)
        ordered = sorted(values)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            estimate = sketch.quantile(q)
            true_rank = q * (n - 1)
            # locate estimate's true rank; must be within ~2*eps*n
            import bisect

            est_rank = bisect.bisect_left(ordered, estimate)
            assert abs(est_rank - true_rank) <= 2 * epsilon * n + 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=400,
        )
    )
    def test_rank_error_bound_property(self, values):
        epsilon = 0.05
        sketch = GKQuantileSketch(epsilon)
        sketch.extend(values)
        ordered = sorted(values)
        n = len(values)
        for q in (0.0, 0.5, 1.0):
            assert quantile_rank_gap(sketch, ordered, q) <= 2 * epsilon * n + 1


class TestMerge:
    def test_merge_counts(self):
        a, b = GKQuantileSketch(0.02), GKQuantileSketch(0.02)
        a.extend(range(500))
        b.extend(range(500, 1000))
        merged = a.merge(b)
        assert len(merged) == 1000
        assert merged.minimum == 0
        assert merged.maximum == 999

    def test_merge_median_close(self):
        rng = random.Random(5)
        a, b = GKQuantileSketch(0.02), GKQuantileSketch(0.02)
        values = [rng.gauss(10, 2) for _ in range(10_000)]
        for i, value in enumerate(values):
            (a if i % 2 else b).add(value)
        merged = a.merge(b)
        true_median = sorted(values)[5000]
        assert abs(merged.quantile(0.5) - true_median) < 0.5

    def test_merge_keeps_looser_epsilon(self):
        a, b = GKQuantileSketch(0.01), GKQuantileSketch(0.05)
        a.add(1.0)
        b.add(2.0)
        assert a.merge(b).epsilon == 0.05

    def test_merge_does_not_mutate_inputs(self):
        a, b = GKQuantileSketch(), GKQuantileSketch()
        a.extend(range(10))
        b.extend(range(10))
        a.merge(b)
        assert len(a) == 10
        assert len(b) == 10


@st.composite
def merge_trees(draw):
    """``(stream, parts, picks)``: a seeded stream (elementwise drawing keeps
    streams too short for rank error to show) cut anywhere into up to 40
    parts, empty ones included, and the pair to merge at each step of a tree."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["uniform", "ties", "ascending", "descending"]))
    length = draw(st.integers(1, 3000))
    stream = [
        float(rng.randrange(30)) if shape == "ties" else rng.uniform(-1e6, 1e6)
        for _ in range(length)
    ]
    if shape in ("ascending", "descending"):
        stream.sort(reverse=shape == "descending")
    cuts = sorted(draw(st.lists(st.integers(0, length), max_size=39)))
    edges = [0, *cuts, length]
    parts = [stream[a:b] for a, b in zip(edges, edges[1:])]
    picks = [
        draw(st.tuples(st.integers(0, left - 1), st.integers(0, left - 2)))
        for left in range(len(parts), 1, -1)
    ]
    return stream, parts, picks


class TestMergeTree:
    """Merging is how per-partition summaries combine, to any depth: the
    merged summary must stay a valid one (2 * epsilon * n bounds ``rank`` and
    ``quantile`` — what a single pass is held to above)."""

    @staticmethod
    def merged(parts, picks, epsilon):
        sketches = []
        for part in parts:
            sketches.append(GKQuantileSketch(epsilon))
            sketches[-1].extend(part)
        for first, second in picks:
            a = sketches.pop(first)
            b = sketches.pop(second)
            sketches.append(a.merge(b))
        return sketches[0]

    @staticmethod
    def check(merged, stream, epsilon):
        ordered = sorted(stream)
        n = len(ordered)
        slack = 2 * epsilon * n + 1
        assert len(merged) == n
        assert (merged.minimum, merged.maximum) == (ordered[0], ordered[-1])
        for value in ordered[:: max(1, n // 40)]:
            assert abs(merged.rank(value) - bisect.bisect_right(ordered, value)) <= slack
        for step in range(21):
            assert quantile_rank_gap(merged, ordered, step / 20) <= slack

    @settings(max_examples=100, deadline=None)
    @given(merge_trees(), st.sampled_from([0.01, 0.05]))
    def test_any_tree_over_any_split_stays_within_the_bound(self, tree, epsilon):
        stream, parts, picks = tree
        self.check(self.merged(parts, picks, epsilon), stream, epsilon)

    @pytest.mark.parametrize("parts", [1, 2, 4, 10, 40])
    def test_a_chain_as_deep_as_the_partition_count_does_not_drift(self, parts):
        # 4,000 uniform values, epsilon 0.01, merged left to right: without
        # the delta widening the worst quantile read 0.9% / 1.9% / 5.8% /
        # 14.6% of n off at 2 / 4 / 10 / 40 parts, always high
        rng = random.Random(7)
        stream = [rng.random() * 10_000 for _ in range(4000)]
        size = len(stream) // parts
        chunks = [stream[i * size : (i + 1) * size] for i in range(parts)]
        chain = [(0, 0)] * (parts - 1)
        self.check(self.merged(chunks, chain, 0.01), stream, 0.01)


class PerValueGK:
    """The pre-batch insertion path, kept as the reference: a hand-rolled
    binary search and one ``(value, g, delta)`` triple per entry."""

    def __init__(self, epsilon: float = 0.01) -> None:
        self.epsilon = epsilon
        self.entries: list[list] = []
        self.count = 0
        self.buffer: list[float] = []
        self.cap = max(16, int(1.0 / epsilon))

    def threshold(self) -> int:
        return max(1, int(2 * self.epsilon * self.count))

    def add(self, value: float) -> None:
        self.buffer.append(value)
        if len(self.buffer) >= self.cap:
            self.flush()

    def flush(self) -> None:
        if not self.buffer:
            return
        for value in sorted(self.buffer):
            self.insert_sorted(value)
        self.buffer.clear()
        self.compress()

    def insert_sorted(self, value: float) -> None:
        entries = self.entries
        self.count += 1
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid][0] < value:
                lo = mid + 1
            else:
                hi = mid
        exact = lo == 0 or lo == len(entries)
        entries.insert(lo, [value, 1, 0 if exact else max(0, self.threshold() - 1)])

    def compress(self) -> None:
        entries = self.entries
        if len(entries) < 3:
            return
        threshold = self.threshold()
        out = [entries[0]]
        for entry in entries[1:-1]:
            last = out[-1]
            if last is not entries[0] and last[1] + entry[1] + entry[2] <= threshold:
                entry[1] += last[1]
                out[-1] = entry
            else:
                out.append(entry)
        out.append(entries[-1])
        self.entries = out

    def to_state(self) -> dict:
        self.flush()
        return {"epsilon": self.epsilon, "count": self.count, "entries": self.entries}


def numeric(batch: list) -> list[float]:
    return [float(value) for value in batch if isinstance(value, (int, float))]


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(mixed_column_batches(), st.sampled_from([0.01, 0.05]))
    def test_extend_leaves_the_state_of_per_value_add(self, batches, epsilon):
        batched, single = GKQuantileSketch(epsilon), GKQuantileSketch(epsilon)
        for batch in batches:
            batched.extend(numeric(batch))
            for value in numeric(batch):
                single.add(value)
        assert len(batched) == len(single) == sum(len(numeric(b)) for b in batches)
        assert same_state(batched.to_state(), single.to_state())

    @pytest.mark.parametrize("seed", range(4))
    def test_state_matches_the_per_value_reference(self, seed):
        rng = random.Random(seed)
        draws = [
            lambda: rng.gauss(0, 1),
            lambda: float(rng.randrange(20)),  # heavy ties
            lambda: float(rng.randrange(10**6)),
            lambda: rng.choice([0.0, -0.0, float("inf"), float("-inf")]),
        ]
        stream = [rng.choice(draws)() for _ in range(rng.randrange(900, 2500))]
        stream += sorted(stream[:400]) + sorted(stream[:400], reverse=True)
        sketch, reference = GKQuantileSketch(), PerValueGK()
        cut = rng.randrange(len(stream))
        sketch.extend(stream[:cut])
        sketch.extend(iter(stream[cut:]))
        for value in stream:
            reference.add(value)
        assert same_state(sketch.to_state(), reference.to_state())

    def test_state_round_trips(self):
        sketch = GKQuantileSketch()
        sketch.extend(float(i * 7 % 1000) for i in range(3000))
        restored = GKQuantileSketch.from_state(sketch.to_state())
        assert restored.to_state() == sketch.to_state()
        assert restored.quantiles(8) == sketch.quantiles(8)
