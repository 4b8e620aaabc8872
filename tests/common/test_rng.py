"""Deterministic randomness helpers."""

import hashlib
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import (
    derive,
    distinct_stable_hashes,
    stable_hash,
    stable_hashes,
)
from tests.conftest import count_digests, mixed_column_batches


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


class Flag(IntEnum):
    OFF = 0
    ON = 1


def digest_key(value: object) -> object:
    """What ``stable_hash`` tells values apart by."""
    return value if isinstance(value, int) else repr(value)


_EDGE = 2**127

#: Each kind of batch the kernel has a path for, with the values on its edges.
BATCH_KINDS = [
    st.integers(0, 2**20),
    st.one_of(
        st.sampled_from([_EDGE + d for d in range(-3, 4)] + [-_EDGE + d for d in range(-3, 4)]),
        st.integers(-(2**20), 2**20),
    ),
    st.one_of(st.booleans(), st.integers(-2, 2)),
    st.one_of(
        st.sampled_from(["", "'", '"', "a'b", "\\", "é", "日本", "\x00"]),
        st.text(max_size=4),
    ),
    st.one_of(
        st.sampled_from([0.0, -0.0, float("nan"), 1.0, None, (), (1, "x", None), (True,)]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    st.one_of(
        st.sampled_from([_EDGE, -_EDGE - 1, True, 1, 1.0, -0.0, float("nan"), None, "1", "é"]),
        st.integers(-5, 5),
        st.tuples(st.integers(-1, 1), st.sampled_from([1, 1.0, True, "1", None])),
    ),
]


@st.composite
def hash_batches(draw) -> tuple[list, bool]:
    """``(batch, mostly distinct?)``: a batch of one kind whose keys are all
    distinct, or drawn from a few distinct values so most of them repeat."""
    values = st.sampled_from(BATCH_KINDS).flatmap(lambda kind: kind)
    kind = draw(st.sampled_from(BATCH_KINDS))
    if draw(st.booleans()):
        return draw(st.lists(kind, max_size=120, unique_by=digest_key)), True
    pool = draw(st.lists(kind, min_size=1, max_size=4, unique_by=digest_key))
    if draw(st.booleans()):  # a stray value of another kind among the repeats
        pool.append(draw(values))
    length = draw(st.integers(3 * len(pool), 160))
    return [draw(st.sampled_from(pool)) for _ in range(length)], False


def counted_digests(call, *args) -> tuple[object, int]:
    """``call(*args)``, and how many digests it took."""
    digests = []
    with pytest.MonkeyPatch.context() as patch:
        count_digests(patch, digests)
        return call(*args), len(digests)


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

    @settings(max_examples=200, deadline=None)
    @given(hash_batches())
    def test_batch_equals_per_value_on_either_path(self, drawn):
        batch, mostly_distinct = drawn
        expected = [stable_hash(value) for value in batch]
        distinct = {digest_key(value) for value in batch}
        hashes, digests = counted_digests(stable_hashes, batch)
        assert hashes == expected
        assert stable_hashes(iter(batch)) == expected
        # in order when at least 3/4 distinct, else one digest per distinct key
        in_order = 4 * len(distinct) >= 3 * len(batch)
        assert in_order == mostly_distinct
        assert digests == (len(batch) if in_order else len(distinct))
        for source in (batch, iter(batch)):
            unique, digests = counted_digests(distinct_stable_hashes, source)
            assert len(unique) == digests == len(distinct)
            assert set(unique) == set(expected)

    def test_an_int_subclass_hashes_by_value(self):
        for batch in ([Flag.ON, Flag.OFF], [Flag.ON, 1.0, "x"], [Flag.ON] * 5):
            assert stable_hashes(batch) == [stable_hash(v) for v in batch]
        assert stable_hash(Flag.ON) == stable_hash(1)

    def test_each_edge_value_alone_and_beside_ints(self):
        edges = [_EDGE + d for d in range(-3, 4)] + [-_EDGE + d for d in range(-3, 4)]
        for value in [*edges, True, False, -0.0, float("nan"), "'", "é", (1,), None]:
            for batch in ([value], [value, 0, 1, 2], [value, value, value, 7]):
                assert stable_hashes(batch) == [stable_hash(v) for v in batch]
                assert stable_hash(value) == sized_buffer_hash(value)
