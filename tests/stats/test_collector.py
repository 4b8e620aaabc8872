"""Statistics collector tests."""

import enum
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.histogram import EquiHeightHistogram
from repro.stats.collector import FieldStatistics, StatisticsCollector
from tests.conftest import mixed_column_batches, same_state
from tests.stats.reference_collector import EagerFieldStatistics


def rows(n=100):
    return [{"a": i % 10, "b": f"s{i % 4}", "c": None if i % 5 == 0 else i} for i in range(n)]


class TestFieldStatistics:
    def test_numeric_feeds_both_sketches(self):
        stats = FieldStatistics("a")
        stats.observe_batches([[i % 10 for i in range(100)]])
        assert abs(stats.distinct_count - 10) <= 1
        assert len(stats.quantiles) == 100

    def test_strings_skip_quantiles(self):
        stats = FieldStatistics("b")
        stats.observe_batches([["x", "y"]])
        assert len(stats.quantiles) == 0
        assert abs(stats.distinct_count - 2) <= 0.5

    def test_nulls_counted_not_sketched(self):
        stats = FieldStatistics("c")
        stats.observe_batches([[None, 1]])
        assert stats.null_count == 1
        assert len(stats.quantiles) == 1

    def test_histogram_none_for_non_numeric(self):
        stats = FieldStatistics("b")
        stats.observe_batches([["x"]])
        assert stats.histogram() is None

    def test_histogram_for_numeric(self):
        stats = FieldStatistics("a")
        stats.observe_batches([list(range(200))])
        histogram = stats.histogram(8)
        assert histogram is not None
        assert histogram.total == 200

    def test_merge_combines(self):
        a, b = FieldStatistics("a"), FieldStatistics("a")
        a.observe_batches([list(range(50))])
        b.observe_batches([[*range(50, 100), None]])
        merged = a.merge(b)
        assert merged.null_count == 1
        assert abs(merged.distinct_count - 100) <= 5
        assert len(merged.quantiles) == 100

    def test_boolean_treated_numeric(self):
        stats = FieldStatistics("flag")
        stats.observe_batches([[True, False]])
        assert len(stats.quantiles) == 2


class TestCollector:
    def test_row_count(self):
        collector = StatisticsCollector(["a"])
        collector.observe_rows(rows(42))
        assert collector.row_count == 42

    def test_tracked_fields_only(self):
        collector = StatisticsCollector(["a"])
        collector.observe_rows(rows())
        assert collector.tracked_field_names == ["a"]

    def test_missing_field_counts_null(self):
        collector = StatisticsCollector(["ghost"])
        collector.observe_rows([{"a": 1}])
        assert collector.field("ghost").null_count == 1

    def test_sketch_cost_units(self):
        collector = StatisticsCollector(["a", "b"])
        collector.observe_rows(rows(10))
        assert collector.sketch_cost_units() == 20

    def test_empty_tracked_fields_cost(self):
        collector = StatisticsCollector([])
        collector.observe_rows(rows(10))
        assert collector.sketch_cost_units() == 10


def observe_per_value(stats: EagerFieldStatistics, values) -> None:
    """The pre-batch collection path, one value at a time (the reference)."""
    for value in values:
        if value is None:
            stats.null_count += 1
            continue
        stats.distinct.add(value)
        if isinstance(value, (int, float)):
            stats.quantiles.add(float(value))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 9


class Celsius(float):
    pass


class TestBatchPath:
    @settings(max_examples=60, deadline=None)
    @given(mixed_column_batches())
    def test_observe_column_leaves_the_state_of_per_value_collection(self, batches):
        batched, single = FieldStatistics("f"), EagerFieldStatistics("f")
        for batch in batches:
            batched.observe_batches([batch])
            observe_per_value(single, batch)
        assert same_state(batched.to_state(), single.to_state())
        assert batched.null_count == single.null_count
        assert len(batched.quantiles) == len(single.quantiles)
        assert len(batched.distinct) == len(single.distinct)
        assert batched.distinct.cardinality() == single.distinct.cardinality()

    def test_numeric_detection_is_by_isinstance(self):
        # int/float subclasses are numeric; other number types are not.
        column = [Level.HIGH, Celsius(21.5), True, 3, Decimal("2.5"), Fraction(1, 3), "7"]
        batched, single = FieldStatistics("f"), EagerFieldStatistics("f")
        batched.observe_batches([column])
        observe_per_value(single, column)
        assert len(batched.quantiles) == 4
        assert len(batched.distinct) == 7
        assert batched.to_state() == single.to_state()

    @settings(max_examples=30, deadline=None)
    @given(mixed_column_batches(), mixed_column_batches())
    def test_rows_columns_and_single_rows_agree(self, a_batches, b_batches):
        a = [value for batch in a_batches for value in batch]
        b = [value for batch in b_batches for value in batch]
        length = min(len(a), len(b))
        # ragged rows: "b" is missing (not None) in every third row
        rows = [
            {"a": a[i]} if i % 3 == 0 else {"a": a[i], "b": b[i]} for i in range(length)
        ]
        tracked = ["a", "b", "ghost"]
        by_rows, by_columns, by_row = (StatisticsCollector(tracked) for _ in range(3))
        cut = len(a_batches[0]) if len(a_batches[0]) <= length else length
        by_rows.observe_rows(rows[:cut])
        by_rows.observe_rows(iter(rows[cut:]))
        by_columns.observe_columns(
            {"a": [a[:cut], a[cut:length]], "b": [[row.get("b") for row in rows]]},
            length,
        )
        for row in rows:
            by_row.observe_rows([row])
        for collector in (by_rows, by_columns, by_row):
            assert collector.row_count == length
            assert collector.field("ghost").null_count == length
            for name in tracked:
                assert same_state(
                    collector.field(name).to_state(), by_rows.field(name).to_state()
                )
        reference = EagerFieldStatistics("b")
        observe_per_value(reference, [row.get("b") for row in rows])
        assert same_state(by_rows.field("b").to_state(), reference.to_state())


def histogram_view(histogram: EquiHeightHistogram | None) -> str:
    """What a histogram answers from, NaN borders and ``-0.0`` included."""
    if histogram is None:
        return "None"
    return repr((histogram.buckets, histogram.minimum, histogram.total))


def uncached_view(field: FieldStatistics, bucket_count: int) -> str:
    """The histogram of ``field``'s sketch built past the cache (like
    ``histogram()``, this flushes the sketch's insert buffer)."""
    if len(field.quantiles) == 0:
        return "None"
    return histogram_view(EquiHeightHistogram.from_sketch(field.quantiles, bucket_count))


class TestHistogramCache:
    @settings(max_examples=60, deadline=None)
    @given(mixed_column_batches(), mixed_column_batches(), st.sampled_from([4, 32]))
    def test_cached_histogram_is_the_one_from_sketch_builds(
        self, batches, other_batches, bucket_count
    ):
        # ``twin`` sees the same values and is flushed at the same points,
        # but its histograms are always built from the sketch.
        cached, twin = FieldStatistics("x"), FieldStatistics("x")
        for batch in batches:
            cached.observe_batches([batch])
            twin.observe_batches([batch])
            first = cached.histogram(bucket_count)
            assert histogram_view(first) == uncached_view(twin, bucket_count)
            assert cached.histogram(bucket_count) is first  # nothing changed since

        other = FieldStatistics("x")
        for batch in other_batches:
            other.observe_batches([batch])
        other.histogram(bucket_count)
        merged = cached.merge(other)
        assert histogram_view(merged.histogram(bucket_count)) == uncached_view(
            twin.merge(other), bucket_count
        )
        # merging flushed the operands but did not change what they describe
        assert histogram_view(cached.histogram(bucket_count)) == uncached_view(
            twin, bucket_count
        )

        restored = FieldStatistics.from_state(cached.to_state())
        assert histogram_view(restored.histogram(bucket_count)) == uncached_view(
            twin, bucket_count
        )
        assert same_state(restored.to_state(), twin.to_state())

    def test_values_still_in_the_insert_buffer_invalidate(self):
        stats = FieldStatistics("a")
        stats.observe_batches([list(range(200))])
        before = stats.histogram(8)
        stats.observe_batches([[1000.0]])  # one value: stays in GK's buffer
        after = stats.histogram(8)
        assert (before.total, after.total) == (200, 201)
        assert after.buckets[-1].upper == 1000.0

    def test_bucket_counts_are_cached_apart(self):
        stats = FieldStatistics("a")
        stats.observe_batches([list(range(200))])
        assert len(stats.histogram(8).buckets) == 8
        assert len(stats.histogram(32).buckets) == 32
        assert len(stats.histogram(8).buckets) == 8
