"""Deterministic randomness helpers."""

import hashlib

from hypothesis import given, settings

from repro.common.rng import (
    derive,
    distinct_stable_hashes,
    stable_hash,
    stable_hashes,
)
from tests.conftest import mixed_column_batches


class TestDerive:
    def test_same_labels_same_stream(self):
        a = derive(42, "x", 1)
        b = derive(42, "x", 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_differ(self):
        a = derive(42, "x")
        b = derive(42, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert derive(1, "x").random() != derive(2, "x").random()

    def test_label_path_not_concatenation_ambiguous(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert derive(7, "ab", "c").random() != derive(7, "a", "bc").random()


class TestStableHash:
    def test_int_stability(self):
        # Frozen values: if these change, partitioning of stored data changes.
        assert stable_hash(0) == stable_hash(0)
        assert stable_hash(12345) != stable_hash(12346)

    def test_string_vs_int_distinct(self):
        assert stable_hash("1") != stable_hash(1)

    def test_negative_ints_supported(self):
        assert isinstance(stable_hash(-17), int)

    def test_spread_over_partitions(self):
        # Keys should spread reasonably over 40 buckets.
        buckets = [0] * 40
        for i in range(4000):
            buckets[stable_hash(i) % 40] += 1
        assert min(buckets) > 50
        assert max(buckets) < 200


def sized_buffer_hash(value: object) -> int:
    """``stable_hash`` as first written: every int sizes its own buffer."""
    if isinstance(value, int):
        length = max(16, (value.bit_length() + 8) // 8)
        data = value.to_bytes(length, "big", signed=True)
    else:
        data = repr(value).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class TestStableHashFrozen:
    #: recorded before the int fast path and the batch variants existed:
    #: stored partition layouts, HLL registers and ServiceStore tokens all
    #: depend on these exact values.
    FROZEN = {
        0: 0x5250A507F994740E,
        12345: 0xFEA76CA35F468EAE,
        -17: 0x8D4862C1658C5917,
        True: 0xBE28C32B13FEBF82,
        2**127 - 1: 0xF77C9AD13400B14F,
        2**127: 0xF1881F1070D120AF,
        -(2**127): 0xA87B6D26A294532E,
        -(2**127) - 1: 0x64489C4A61CFF3B0,
        2**200: 0x52D30F4B375F64CA,
        "1": 0x8335276F1385B27B,
        "a'b": 0x2C3C266A4408203E,
        (1, "x", None): 0xECF766BA99F22CDA,
        None: 0x536FD5A56C585C00,
    }
    FROZEN_FLOATS = [
        (1.0, 0xBEC9A06D1C986B42),
        (-0.0, 0xA3472E6653D0CDFA),
        (float("nan"), 0xE3F0BF10B8CC4488),
    ]

    def test_frozen_values(self):
        for value, expected in [*self.FROZEN.items(), *self.FROZEN_FLOATS]:
            assert stable_hash(value) == expected, value

    def test_int_fast_path_equals_sized_buffer(self):
        edge = 2**127
        values = [edge + d for d in range(-3, 4)] + [-edge + d for d in range(-3, 4)]
        values += [0, 1, -1, True, False, 2**64, -(2**64), 2**1000, -(2**1000)]
        values += [1.0, -0.0, 0.0, float("nan"), float("inf"), "", "x", (1, 2), (), None]
        for value in values:
            assert stable_hash(value) == sized_buffer_hash(value), value


class TestBatchHashes:
    @settings(max_examples=60, deadline=None)
    @given(mixed_column_batches())
    def test_batch_equals_per_value(self, batches):
        for batch in batches:
            expected = [stable_hash(value) for value in batch]
            assert stable_hashes(batch) == expected
            assert stable_hashes(iter(batch)) == expected
            assert sorted(distinct_stable_hashes(batch)) == sorted(set(expected))

    def test_uniform_columns(self):
        for column in (
            [5, 3, 5, -(2**130), True, 3],
            ["a", "b", "a", "'", ""],
            [1.0, 1, True, 0.0, -0.0, float("nan"), float("nan")],
            [],
        ):
            assert stable_hashes(column) == [stable_hash(value) for value in column]
