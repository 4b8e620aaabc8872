"""HyperLogLog distinct-count tests, including the relative error bound."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StatisticsError
from repro.common.rng import stable_hash
from repro.sketches.hyperloglog import PAIR_BYTES, HyperLogLog, _alpha
from tests.conftest import mixed_column_batches


class TestValidation:
    def test_precision_bounds(self):
        for bad in (3, 19, 0):
            with pytest.raises(StatisticsError):
                HyperLogLog(bad)

    def test_merge_precision_mismatch(self):
        with pytest.raises(StatisticsError):
            HyperLogLog(10).merge(HyperLogLog(12))

    @pytest.mark.parametrize("precision", [4, 12, 18])
    def test_from_state_rejects_a_register_no_hash_can_produce(self, precision):
        hll = HyperLogLog(precision)
        hll.extend(range(100))
        state = hll.to_state()
        registers = bytearray.fromhex(state["registers"])
        registers[3] = 65 - precision  # the top rank itself is legal
        state["registers"] = registers.hex()
        assert HyperLogLog.from_state(state).to_state() == state
        registers[3] = 66 - precision
        state["registers"] = registers.hex()
        with pytest.raises(StatisticsError, match="corrupt HLL state: register"):
            HyperLogLog.from_state(state)


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


def registers_of(sketch: HyperLogLog) -> bytes:
    """One byte per register, in whichever form the sketch holds them."""
    return bytes.fromhex(sketch.to_state()["registers"])


def smaller_form_nbytes(registers) -> int:
    """Bytes of the smaller form: a pair per set register, or the array."""
    pairs = PAIR_BYTES * (len(registers) - registers.count(0))
    return pairs if pairs < len(registers) else len(registers)


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
        assert registers_of(batched) == bit_loop_registers(precision, column)

    def test_equal_values_that_hash_apart_stay_apart(self):
        # 1 == 1.0 == True and 0.0 == -0.0, but stable_hash encodes ints by
        # value and everything else by repr: a set() dedupe would lose some.
        column = [1, 1.0, True, 0.0, -0.0, float("nan"), float("nan"), (1,), (1.0,)]
        hll = HyperLogLog(12)
        hll.extend(column)
        registers = registers_of(hll)
        assert registers == bit_loop_registers(12, column)
        assert sum(1 for register in registers if register) == 7

    def test_all_zero_remainder_takes_the_top_rank(self):
        hll = HyperLogLog(4)
        hll._observe((0b0101,))
        assert registers_of(hll)[0b0101] == 61

    def test_extend_accepts_a_generator(self):
        hll = HyperLogLog()
        hll.extend(i % 7 for i in range(100))
        assert len(hll) == 100


# -- register algebra: merge and cardinality against their per-register loops ------


def sketch_of(precision: int, registers: bytearray, count: int = 0) -> HyperLogLog:
    return HyperLogLog.from_state(
        {"precision": precision, "count": count, "registers": registers.hex()}
    )


def _finish(m: int, inverse_sum: float, zeros: int) -> float:
    estimate = _alpha(m) * m * m / inverse_sum
    if estimate <= 2.5 * m and zeros:
        estimate = m * math.log(m / zeros)
    return estimate


def sequential_cardinality(registers: bytearray) -> float:
    """The estimate by one float addition per register, left to right."""
    inverse_sum = 0.0
    zeros = 0
    for register in registers:
        inverse_sum += 2.0 ** (-register)
        if register == 0:
            zeros += 1
    return _finish(len(registers), inverse_sum, zeros)


def exact_cardinality(registers: bytearray) -> float:
    """The estimate from the harmonic sum as a rational, rounded once."""
    held = Counter(registers)
    inverse_sum = sum(Fraction(count, 1 << rank) for rank, count in held.items())
    return _finish(len(registers), float(inverse_sum), held[0])


@st.composite
def register_arrays(draw, precision: int) -> bytearray:
    """Any register array a sketch of this precision can hold.

    The bulk is drawn from a seeded generator under a drawn cap (2**18
    registers are too many to draw one by one); a few drawn overrides let
    hypothesis place single extreme registers itself.
    """
    m, top = 1 << precision, 65 - precision
    cap = draw(st.integers(0, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    registers = bytearray(rng.choices(range(cap + 1), k=m))
    overrides = st.tuples(st.integers(0, m - 1), st.integers(0, top))
    for index, rank in draw(st.lists(overrides, max_size=6)):
        registers[index] = rank
    return registers


@st.composite
def register_pairs(draw) -> tuple[int, bytearray, bytearray]:
    precision = draw(st.integers(4, 18))
    return (
        precision,
        draw(register_arrays(precision)),
        draw(register_arrays(precision)),
    )


class TestRegisterAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(register_pairs(), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_merge_is_the_per_register_max(self, pair, left_count, right_count):
        precision, left_registers, right_registers = pair
        left = sketch_of(precision, left_registers, left_count)
        right = sketch_of(precision, right_registers, right_count)
        left.cardinality()  # a memoized estimate must not travel into the merge
        before = left.to_state(), right.to_state()

        merged = left.merge(right)

        expected = bytearray(map(max, left_registers, right_registers))
        assert registers_of(merged) == expected
        assert len(merged) == left_count + right_count
        assert (left.to_state(), right.to_state()) == before
        assert merged.cardinality() == exact_cardinality(expected)
        assert merged.cardinality() == sketch_of(precision, expected).cardinality()
        assert right.merge(left).to_state() == merged.to_state()

    @settings(max_examples=60, deadline=None)
    @given(register_pairs())
    def test_cardinality_is_the_register_loop(self, pair):
        precision, registers, _ = pair
        estimate = sketch_of(precision, registers).cardinality()
        assert estimate == exact_cardinality(registers)
        if precision + max(registers) <= 53:
            # every partial sum of the loop is exact here, so it agrees too
            assert estimate == sequential_cardinality(registers)

    def test_sketches_built_from_values_stay_in_the_exact_regime(self):
        hll = HyperLogLog(12)
        hll.extend(range(200_000))
        registers = registers_of(hll)
        assert 12 + max(registers) <= 53
        assert hll.cardinality() == sequential_cardinality(registers)

    def test_beyond_53_bits_the_loop_rounds_and_the_estimate_does_not(self):
        # 2048 registers at rank 50 after 2048 at rank 1: each 2**-50 is
        # under half an ulp of the running sum 1024.0 and the loop drops it.
        registers = bytearray([1]) * 2048 + bytearray([50]) * 2048
        estimate = sketch_of(12, registers).cardinality()
        assert estimate == exact_cardinality(registers)
        assert estimate != sequential_cardinality(registers)


# -- the sparse form: same registers, fewer bytes --------------------------------


@st.composite
def sparse_register_arrays(draw, precision: int) -> bytearray:
    """A register array with at most 2**p / 4 registers set."""
    m, top = 1 << precision, 65 - precision
    rng = random.Random(draw(st.integers(0, 2**32)))
    registers = bytearray(m)
    for index in rng.sample(range(m), draw(st.integers(0, m // 4))):
        registers[index] = rng.randint(1, top)
    return registers


@st.composite
def dense_register_arrays(draw, precision: int) -> bytearray:
    """A register array with more than 2**p / 4 registers set."""
    registers = draw(register_arrays(precision))
    quarter = (len(registers) >> 2) + 1
    registers[:quarter] = bytes(max(1, register) for register in registers[:quarter])
    return registers


def arrays_in(precision: int, sparse: bool):
    return (sparse_register_arrays if sparse else dense_register_arrays)(precision)


class TestSparseForm:
    @pytest.mark.parametrize(
        "left_sparse, right_sparse", [(True, True), (True, False), (False, False)]
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_merge_in_every_pair_of_forms(self, left_sparse, right_sparse, data):
        precision = data.draw(st.integers(4, 18))
        left_registers = data.draw(arrays_in(precision, left_sparse))
        right_registers = data.draw(arrays_in(precision, right_sparse))
        left = sketch_of(precision, left_registers, 3)
        right = sketch_of(precision, right_registers, 4)
        assert left.nbytes == smaller_form_nbytes(left_registers)
        assert right.nbytes == smaller_form_nbytes(right_registers)

        merged = left.merge(right)

        expected = bytearray(map(max, left_registers, right_registers))
        assert registers_of(merged) == expected
        assert merged.nbytes == smaller_form_nbytes(expected)
        assert len(merged) == 7
        assert merged.cardinality() == exact_cardinality(expected)
        assert right.merge(left).to_state() == merged.to_state()
        assert registers_of(left) == left_registers

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 18).flatmap(lambda p: st.tuples(st.just(p), sparse_register_arrays(p))))
    def test_cardinality_and_round_trip_of_the_sparse_form(self, drawn):
        precision, registers = drawn
        sketch = sketch_of(precision, registers, 11)
        assert sketch.nbytes == PAIR_BYTES * (len(registers) - registers.count(0))
        assert sketch.cardinality() == exact_cardinality(registers)
        if precision + max(registers) <= 53:
            assert sketch.cardinality() == sequential_cardinality(registers)
        state = sketch.to_state()
        assert state["registers"] == registers.hex()
        restored = HyperLogLog.from_state(state)
        assert restored.to_state() == state
        assert restored.nbytes == sketch.nbytes
        assert restored.cardinality() == sketch.cardinality()

    @settings(max_examples=60, deadline=None)
    @given(mixed_column_batches(), st.sampled_from([4, 6, 8]))
    def test_sparse_to_dense_switch_keeps_the_registers(self, batches, precision):
        batched, single = HyperLogLog(precision), HyperLogLog(precision)
        column = []
        for batch in batches:
            batched.extend(batch)
            for value in batch:
                single.add(value)
                column.append(value)
                registers = registers_of(single)
                assert single.nbytes == smaller_form_nbytes(registers)
            expected = bit_loop_registers(precision, column)
            assert registers_of(batched) == registers_of(single) == expected
            assert batched.nbytes == smaller_form_nbytes(expected)
            assert batched.cardinality() == exact_cardinality(expected)

    def test_the_form_switches_where_the_pairs_reach_the_array(self):
        hll = HyperLogLog(4)  # 16 registers: pairs while at most 3 are set
        seen = []
        for value in range(200):
            hll.add(value)
            seen.append(registers_of(hll).count(0))
            set_count = 16 - seen[-1]
            assert hll.nbytes == (PAIR_BYTES * set_count if set_count < 4 else 16)
        assert 16 - max(seen) < 4 <= 16 - min(seen)  # both forms were held

    def test_fifty_distinct_values_hold_a_few_hundred_bytes(self):
        hll = HyperLogLog(12)
        hll.extend(range(50))
        assert hll.nbytes <= 512
        assert abs(hll.cardinality() - 50) <= 2
