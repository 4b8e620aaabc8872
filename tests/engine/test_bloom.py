"""Deterministic Bloom filter tests (repro.engine.bloom)."""

import hashlib
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cost import CostModel
from repro.common import rng
from repro.common.errors import ReproError
from repro.common.rng import stable_hash
from repro.common.types import DataType
from repro.engine.bloom import (
    BloomFilter,
    bloom_bit_count,
    bloom_hash_count,
    bloom_size_bytes,
)
from repro.engine.data import ColumnarData
from repro.engine.metrics import JobMetrics
from repro.engine.operators.base import ExecState, PhysicalOperator
from repro.engine.operators.filters import SemiJoinFilterOp
from repro.engine.vector import semi_join_filter
from repro.lang.ast import EvaluationContext
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog
from tests.conftest import count_digests, mixed_column_batches, small_cluster
from tests.engine.batches import batch_of, partition_slices


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
        self, build_batches, probe_batches, partition_rows
    ):
        # Re-pinned when the probe went from one kernel call per chunk of a
        # partition to one call per operator: the chunk-size axis is now the
        # probe column cut into partitions of that many rows.
        build = [value for batch in build_batches for value in batch]
        # probing the build column too makes true positives certain
        probe = [value for batch in probe_batches for value in batch] + build
        bloom = BloomFilter.build(build, expected=max(1, len(build)))
        twin = per_value_twin(bloom, build)
        assert bloom.fingerprint() == twin.fingerprint()
        assert bloom.bits_set == bin(twin.bits).count("1")

        positions = list(range(len(probe)))
        cuts = [
            positions[start : start + partition_rows]
            for start in range(0, len(probe), partition_rows)
        ]
        parts = [{"key": [probe[p] for p in cut], "position": cut} for cut in cuts]
        kept, kept_length = semi_join_filter(
            batch_of(parts), len(probe), (("key", bloom),)
        )
        assert len(kept.bounds) == len(parts) + 1
        total = 0
        for part, (out, length) in zip(parts, partition_slices(kept)):
            expected = [
                position
                for position in part["position"]
                if probe[position] is not None and twin.might_contain(probe[position])
            ]
            assert out["position"] == expected
            assert length == len(expected)
            assert [repr(value) for value in out["key"]] == [
                repr(probe[position]) for position in expected
            ]
            total += len(expected)
        assert kept_length == total

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
        # Re-pinned for the one-call-per-operator kernel: a sibling partition
        # that holds the column keeps its rows. Re-pinned again for the
        # batch: a column is physically present in every partition or in
        # none, so the partition without keys holds nulls there.
        bloom = BloomFilter.build([1, 2], expected=2)
        batch = batch_of([{"v": [1, 2]}, {"v": [3, 4], "key": [1, 2]}])
        kept, length = semi_join_filter(batch, 4, (("key", bloom),))
        assert partition_slices(kept) == [
            ({"v": [], "key": []}, 0),
            ({"v": [3, 4], "key": [1, 2]}, 2),
        ]
        assert length == 2

    def test_an_absent_filter_column_eliminates_every_row(self):
        bloom = BloomFilter.build([1, 2], expected=2)
        kept, length = semi_join_filter(
            batch_of([{"v": [1, 2]}, {"v": [3]}]), 3, (("key", bloom),)
        )
        assert partition_slices(kept) == [({"v": []}, 0), ({"v": []}, 0)]
        assert length == 0


# -- one probe per operator against the per-partition, chunked kernel ---------------


def per_partition_semi_join_filter(columns, length, filters, chunk_size):
    """The semi-join kernel as it was before it probed once per operator: one
    call per partition, a ``might_contain_all`` per filter per chunk."""
    sources = dict(columns)
    filter_cols = [sources.get(column) for column, _ in filters]
    out = {name: [] for name in sources}
    out_length = 0
    for start in range(0, length, chunk_size):
        survivors = range(start, min(start + chunk_size, length))
        for (_, bloom), col in zip(filters, filter_cols):
            if not survivors:
                break
            if col is None:
                survivors = []
                break
            present = [i for i in survivors if col[i] is not None]
            verdicts = bloom.might_contain_all([col[i] for i in present])
            survivors = list(compress(present, verdicts))
        out_length += len(survivors)
        for name, col in sources.items():
            out[name].extend(col[i] for i in survivors)
    return out, out_length


class _Given(PhysicalOperator):
    """A child operator that returns fixed data."""

    def __init__(self, data: ColumnarData) -> None:
        self.data = data

    def execute(self, state: ExecState) -> ColumnarData:
        return self.data


def run_semi_join(parts, filters) -> ColumnarData:
    cluster = small_cluster()
    state = ExecState(
        cluster=cluster,
        cost=CostModel(cluster),
        datasets=DatasetCatalog(),
        statistics=StatisticsCatalog(),
        evaluation=EvaluationContext(),
        metrics=JobMetrics(),
    )
    data = ColumnarData(batch_of(parts), {"t.k": DataType.INT})
    return SemiJoinFilterOp(_Given(data), filters).execute(state)


_KEY = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, float("nan"), None, "1", "k", 2, 3])


@st.composite
def drawn_filter(draw) -> BloomFilter:
    """A filter over a few keys: exact, lossy, or saturated (every bit set,
    so every probe is a positive and only the null rule drops a row)."""
    bloom = BloomFilter.build(
        draw(st.lists(_KEY, max_size=8)),
        expected=draw(st.integers(1, 8)),
        fpp=draw(st.sampled_from([1e-9, 0.01, 0.5])),
    )
    if draw(st.booleans()):
        bloom._bytes[:] = b"\xff" * len(bloom._bytes)
    return bloom


@st.composite
def filtered_partitions(draw):
    """``(partitions, filters)``: 1–3 filters over columns ``a``/``b``/``c``,
    and partitions (some empty) each holding a subset of those columns —
    null in the partitions that lack one, once they form a batch."""
    filters = tuple(
        (draw(st.sampled_from("abc")), draw(drawn_filter()))
        for _ in range(draw(st.integers(1, 3)))
    )
    partitions = []
    for _ in range(draw(st.integers(0, 6))):
        length = draw(st.integers(0, 12))
        held = draw(st.lists(st.sampled_from("abc"), unique=True))
        columns = {"pos": list(range(length))}
        for name in held:
            columns[name] = draw(st.lists(_KEY, min_size=length, max_size=length))
        partitions.append((columns, length))
    return partitions, filters


class TestOneProbePerOperator:
    def test_an_operator_digests_each_surviving_key_once(self, monkeypatch):
        # 40 partitions share 3 keys: the per-partition kernel digested the
        # 3 keys in each of them, 120 digests for one filter.
        partitions = [{"t.k": [1, 2, 3, 1]} for _ in range(40)]
        first = BloomFilter.build([1, 2], expected=2, fpp=1e-9)
        second = BloomFilter.build([1, 2, 3], expected=3)
        assert not first.might_contain(3)
        probed = []
        might_contain_all = BloomFilter.might_contain_all

        def recording(bloom, values):
            probed.append((bloom, list(values)))
            return might_contain_all(bloom, values)

        monkeypatch.setattr(BloomFilter, "might_contain_all", recording)
        digests = []
        count_digests(monkeypatch, digests)

        out = run_semi_join(partitions, (("t.k", first),))
        assert len(digests) == 3 and [bloom for bloom, _ in probed] == [first]
        assert out.row_count == 40 * 3

        digests.clear()
        probed.clear()
        out = run_semi_join(partitions, (("t.k", first), ("t.k", second)))
        # the second filter sees only the first one's survivors, 1 and 2,
        # and the first run digested every key either filter probes
        assert len(digests) == 0
        assert [bloom for bloom, _ in probed] == [first, second]
        assert 3 not in probed[1][1] and len(probed[1][1]) == 40 * 3
        assert out.row_count == 40 * 3

        digests.clear()
        monkeypatch.setattr(rng, "_DIGESTS", {})
        out = run_semi_join(partitions, (("t.k", first), ("t.k", second)))
        # from an empty memo the two filters digest each key once between them
        assert len(digests) == 3 and out.row_count == 40 * 3

    @settings(max_examples=200, deadline=None)
    @given(filtered_partitions(), st.sampled_from([1, 3, 1024]))
    def test_equals_the_per_partition_chunked_kernel(self, case, chunk_size):
        partitions, filters = case
        batch = batch_of(
            [columns for columns, _ in partitions],
            [length for _, length in partitions],
        )
        kept, kept_rows = semi_join_filter(batch, batch.length, filters)
        assert len(kept.bounds) == len(partitions) + 1
        total = 0
        for (part, part_length), (out, out_length) in zip(
            partition_slices(batch), partition_slices(kept)
        ):
            columns, length = per_partition_semi_join_filter(
                part, part_length, filters, chunk_size
            )
            assert out_length == length
            assert out["pos"] == columns["pos"]
            # repr keeps 1 / 1.0 / True and 0.0 / -0.0 apart and NaN equal
            assert repr(out) == repr(columns)
            total += length
        assert kept_rows == total
