"""Deterministic Bloom filter tests (repro.engine.bloom)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.common.rng import stable_hash
from repro.engine.bloom import (
    BloomFilter,
    bloom_bit_count,
    bloom_hash_count,
    bloom_size_bytes,
)
from repro.engine.vector import semi_join_filter
from tests.conftest import mixed_column_batches


class TestSizing:
    def test_bit_count_grows_with_expected(self):
        assert bloom_bit_count(1000) > bloom_bit_count(100) > bloom_bit_count(10)

    def test_bit_count_grows_with_tighter_fpp(self):
        assert bloom_bit_count(100, 0.001) > bloom_bit_count(100, 0.1)

    def test_minimum_floor(self):
        assert bloom_bit_count(1) >= 64
        assert bloom_hash_count(64, 1) >= 1

    def test_size_bytes_is_analytic(self):
        # No MIN_BITS floor, no rounding: scales linearly with expected keys.
        assert bloom_size_bytes(2000) == pytest.approx(2 * bloom_size_bytes(1000))

    def test_rejects_degenerate(self):
        with pytest.raises(ReproError):
            BloomFilter(0, 1)
        with pytest.raises(ReproError):
            BloomFilter(64, 0)


class TestMembership:
    def test_no_false_negatives(self):
        values = [f"key-{i}" for i in range(500)]
        bloom = BloomFilter.build(values, expected=len(values))
        assert all(bloom.might_contain(v) for v in values)

    def test_absent_values_mostly_rejected(self):
        bloom = BloomFilter.build(range(1000), expected=1000, fpp=0.01)
        false_positives = sum(
            bloom.might_contain(i) for i in range(1000, 3000)
        )
        # 2000 probes at 1% target: allow generous slack, but nowhere near
        # "everything passes".
        assert false_positives < 100

    def test_none_values_skipped(self):
        bloom = BloomFilter.build([None, "a", None], expected=3)
        assert bloom.might_contain("a")
        assert bloom.bits_set <= bloom.hash_count

    def test_mixed_types(self):
        bloom = BloomFilter.build([1, "1", (1, 2)], expected=3)
        assert bloom.might_contain(1)
        assert bloom.might_contain("1")
        assert bloom.might_contain((1, 2))


class TestDeterminism:
    def test_identical_builds_identical_fingerprints(self):
        a = BloomFilter.build(range(100), expected=100)
        b = BloomFilter.build(range(100), expected=100)
        assert a.fingerprint() == b.fingerprint()
        assert a.bits_set == b.bits_set

    def test_different_contents_differ(self):
        a = BloomFilter.build(range(100), expected=100)
        b = BloomFilter.build(range(1, 101), expected=100)
        assert a.fingerprint() != b.fingerprint()

    def test_insertion_order_irrelevant(self):
        a = BloomFilter.build([1, 2, 3], expected=3)
        b = BloomFilter.build([3, 1, 2], expected=3)
        assert a.fingerprint() == b.fingerprint()

    def test_large_filter_fingerprint(self):
        # Regression: fingerprinting went through repr() of the bit-array
        # int, which exceeds CPython's int-to-str digit limit for filters
        # sized for realistic cardinalities.
        bloom = BloomFilter.build(range(10_000), expected=10_000)
        assert bloom.size_bytes * 8 >= 4300 * 3  # big enough to have crashed
        assert len(bloom.fingerprint()) == 16


class TestChargeBytes:
    def test_defaults_to_physical_size(self):
        bloom = BloomFilter(640, 4)
        assert bloom.charge_bytes == float(bloom.size_bytes)

    def test_override_wins(self):
        bloom = BloomFilter(640, 4, charge_bytes=12345.5)
        assert bloom.charge_bytes == 12345.5

    def test_build_passes_override(self):
        bloom = BloomFilter.build([1], expected=1, charge_bytes=99.0)
        assert bloom.charge_bytes == 99.0


# -- the column-at-a-time paths against one stable_hash per value -------------------


class PerValueBloom:
    """The filter as one ``stable_hash`` call per added or probed value.

    Re-pinned with the INT-vs-DOUBLE fix: the twin sees a key as the join
    compares it (an integral float is its int), like the filter it mirrors —
    hashing ``1.0`` by ``repr`` was the false negative.
    """

    def __init__(self, bit_count: int, hash_count: int) -> None:
        self.bit_count, self.hash_count, self.bits = bit_count, hash_count, 0

    def _positions(self, value: object):
        if type(value) is float and value.is_integer():
            value = int(value)
        digest = stable_hash(value)
        low, high = digest & 0xFFFFFFFF, (digest >> 32) | 1
        return [(low + i * high) % self.bit_count for i in range(self.hash_count)]

    def add(self, value: object) -> None:
        for position in self._positions(value):
            self.bits |= 1 << position

    def might_contain(self, value: object) -> bool:
        return all(self.bits >> position & 1 for position in self._positions(value))

    def fingerprint(self) -> str:
        header = f"{self.bit_count}|{self.hash_count}|".encode()
        payload = self.bits.to_bytes((self.bit_count + 7) // 8, "big")
        return hashlib.blake2b(header + payload, digest_size=8).hexdigest()


def per_value_twin(bloom: BloomFilter, values) -> PerValueBloom:
    twin = PerValueBloom(bloom.bit_count, bloom.hash_count)
    for value in values:
        if value is not None:
            twin.add(value)
    return twin


class TestColumnAtATime:
    @settings(max_examples=60, deadline=None)
    @given(
        mixed_column_batches(),
        mixed_column_batches(),
        st.sampled_from([1, 7, 1024]),
    )
    def test_build_and_probe_match_the_per_value_filter(
        self, build_batches, probe_batches, chunk_size
    ):
        build = [value for batch in build_batches for value in batch]
        # probing the build column too makes true positives certain
        probe = [value for batch in probe_batches for value in batch] + build
        bloom = BloomFilter.build(build, expected=max(1, len(build)))
        twin = per_value_twin(bloom, build)
        assert bloom.fingerprint() == twin.fingerprint()
        assert bloom.bits_set == bin(twin.bits).count("1")

        columns = {"key": probe, "position": list(range(len(probe)))}
        kept, kept_length = semi_join_filter(
            columns, len(probe), (("key", bloom),), chunk_size
        )
        expected = [
            position
            for position, value in enumerate(probe)
            if value is not None and twin.might_contain(value)
        ]
        assert kept["position"] == expected
        assert kept_length == len(expected)
        assert [repr(value) for value in kept["key"]] == [
            repr(probe[position]) for position in expected
        ]

    @settings(max_examples=30, deadline=None)
    @given(mixed_column_batches())
    def test_scalar_calls_are_the_one_value_column(self, batches):
        column = [value for batch in batches for value in batch]
        one_by_one = BloomFilter(640, 4)
        at_once = BloomFilter(640, 4)
        twin = PerValueBloom(640, 4)
        for value in column:
            one_by_one.add(value)  # add() does not skip None; build() does
            twin.add(value)
        at_once.add_all(column)
        assert one_by_one.fingerprint() == at_once.fingerprint() == twin.fingerprint()
        probes = column + [0, "absent", 2.5, None]
        verdicts = [twin.might_contain(value) for value in probes]
        assert at_once.might_contain_all(probes) == verdicts
        assert [at_once.might_contain(value) for value in probes] == verdicts

    def test_equal_values_that_hash_apart_stay_apart(self):
        # 1 == 1.0 == True and 0.0 == -0.0 as dict keys — which is how the
        # join matches — so the filter must say "maybe" for all of them.
        # Re-pinned: this test used to assert [.., 1.0 -> False, ..,
        # -0.0 -> False, ..], i.e. the false negative that made
        # predicate_transfer return 0 of 58 rows on an INT = DOUBLE join.
        # NaNs hash by repr, so every NaN still meets every other.
        nan = float("nan")
        bloom = BloomFilter.build([1, 0.0, nan], expected=3, fpp=1e-9)
        assert bloom.might_contain_all(
            [1, True, 1.0, 0.0, -0.0, nan, float("nan"), 2**127, 2**127 + 1]
        ) == [True, True, True, True, True, True, True, False, False]
        assert BloomFilter.build([2.0, -0.0], expected=2, fpp=1e-9).might_contain_all(
            [2, 0, False, 2.5]
        ) == [True, True, True, False]

    def test_fingerprint_is_the_one_recorded_before_the_byte_array(self):
        # Re-recorded with the INT-vs-DOUBLE fix: the input holds 1.0, which
        # now sets the bits of 1 (already present) where it used to set
        # repr's — one bit fewer. The new literal is what the parent
        # (830624f) prints for the same input *without* the 1.0, so nothing
        # else about the bit layout or the fingerprint moved.
        values = [*range(100), None, "a", 1.0, True, (1, 2)]
        bloom = BloomFilter.build(values, expected=100)
        assert bloom.fingerprint() == "f1810530fa004b3e"
        assert (bloom.bits_set, bloom.bit_count, bloom.hash_count) == (502, 959, 7)
        values.remove(1.0)
        assert BloomFilter.build(values, expected=100).fingerprint() == bloom.fingerprint()

    def test_a_null_filter_column_eliminates_the_partition(self):
        bloom = BloomFilter.build([1, 2], expected=2)
        kept, length = semi_join_filter({"v": [1, 2]}, 2, (("key", bloom),), 1024)
        assert (kept, length) == ({"v": []}, 0)
