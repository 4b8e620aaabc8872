"""HyperLogLog distinct-count tests, including the relative error bound."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StatisticsError
from repro.common.rng import stable_hash
from repro.sketches.hyperloglog import HyperLogLog
from tests.conftest import mixed_column_batches


class TestValidation:
    def test_precision_bounds(self):
        for bad in (3, 19, 0):
            with pytest.raises(StatisticsError):
                HyperLogLog(bad)

    def test_merge_precision_mismatch(self):
        with pytest.raises(StatisticsError):
            HyperLogLog(10).merge(HyperLogLog(12))


class TestAccuracy:
    def test_empty_is_zero(self):
        assert HyperLogLog().cardinality() == 0.0

    def test_small_exact_via_linear_counting(self):
        hll = HyperLogLog(12)
        for i in range(50):
            hll.add(i)
        assert abs(hll.cardinality() - 50) <= 2

    def test_duplicates_ignored(self):
        hll = HyperLogLog(12)
        for _ in range(10_000):
            hll.add("same")
        assert abs(hll.cardinality() - 1) <= 0.5

    @pytest.mark.parametrize("true_count", (1000, 10_000, 100_000))
    def test_relative_error(self, true_count):
        hll = HyperLogLog(12)
        for i in range(true_count):
            hll.add(i)
        estimate = hll.cardinality()
        # expected relative std error ~1.6%; allow 5 sigma
        assert abs(estimate - true_count) / true_count < 5 * hll.relative_error

    def test_strings_and_ints_distinct_domains(self):
        hll = HyperLogLog(12)
        for i in range(500):
            hll.add(i)
            hll.add(str(i))
        assert abs(hll.cardinality() - 1000) < 100

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(), min_size=0, max_size=300))
    def test_linear_regime_property(self, values):
        hll = HyperLogLog(12)
        for value in values:
            hll.add(value)
        if values:
            assert abs(hll.cardinality() - len(values)) <= max(3, 0.1 * len(values))


class TestMerge:
    def test_merge_equals_union(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        for i in range(3000):
            a.add(i)
        for i in range(1500, 4500):
            b.add(i)
        union = a.merge(b).cardinality()
        assert abs(union - 4500) / 4500 < 0.08

    def test_merge_idempotent_on_same_stream(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        for i in range(2000):
            a.add(i)
            b.add(i)
        assert abs(a.merge(b).cardinality() - a.cardinality()) < 1e-9

    def test_merge_does_not_mutate(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        a.add(1)
        b.add(2)
        a.merge(b)
        assert abs(a.cardinality() - 1) <= 0.5

    def test_len_counts_raw_insertions(self):
        hll = HyperLogLog(12)
        for _ in range(7):
            hll.add("x")
        assert len(hll) == 7


def bit_loop_registers(precision: int, values) -> bytearray:
    """Registers by the textbook per-value loop (the pre-batch ``add``)."""
    registers = bytearray(1 << precision)
    for value in values:
        h = stable_hash(value)
        index = h & ((1 << precision) - 1)
        remaining = h >> precision
        rank = 1
        while remaining & 1 == 0 and rank <= 64 - precision:
            rank += 1
            remaining >>= 1
        registers[index] = max(registers[index], rank)
    return registers


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(mixed_column_batches(), st.sampled_from([4, 12]))
    def test_extend_leaves_the_state_of_per_value_add(self, batches, precision):
        batched, single = HyperLogLog(precision), HyperLogLog(precision)
        for batch in batches:
            batched.extend(batch)
            for value in batch:
                single.add(value)
        column = [value for batch in batches for value in batch]
        assert batched.to_state() == single.to_state()
        assert len(batched) == len(single) == len(column)
        assert batched.cardinality() == single.cardinality()
        assert batched._registers == bit_loop_registers(precision, column)

    def test_equal_values_that_hash_apart_stay_apart(self):
        # 1 == 1.0 == True and 0.0 == -0.0, but stable_hash encodes ints by
        # value and everything else by repr: a set() dedupe would lose some.
        column = [1, 1.0, True, 0.0, -0.0, float("nan"), float("nan"), (1,), (1.0,)]
        hll = HyperLogLog(12)
        hll.extend(column)
        assert hll._registers == bit_loop_registers(12, column)
        assert sum(1 for register in hll._registers if register) == 7

    def test_all_zero_remainder_takes_the_top_rank(self):
        hll = HyperLogLog(4)
        hll._observe((0b0101,))
        assert hll._registers[0b0101] == 61

    def test_extend_accepts_a_generator(self):
        hll = HyperLogLog()
        hll.extend(i % 7 for i in range(100))
        assert len(hll) == 100
