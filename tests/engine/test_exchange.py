"""Exchange connector tests."""

from enum import IntEnum
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import rng
from repro.common.rng import stable_hash
from repro.engine.exchange import columnar_broadcast_exchange, columnar_hash_exchange
from repro.storage.dataset import partition_rows

from tests.engine.batches import batch_of, partition_slices


def part(**columns) -> dict:
    return columns


def route_on(parts, name, partition_count) -> list[tuple[dict, int]]:
    batch = batch_of(parts)
    out = columnar_hash_exchange([batch], batch.column(name), partition_count)
    return partition_slices(out)


class Suit(IntEnum):
    ONE = 1


#: Keys that compare equal but hash apart (``1``/``1.0``/``True``/``Suit.ONE``,
#: ``0.0``/``-0.0``, ``(1,)``/``(1.0,)``/``(True,)``) or the reverse (NaN).
_ALIASING_KEYS = (
    1, 1.0, True, Suit.ONE, 0, 0.0, -0.0, False, float("nan"), None, "1", "",
    (1,), (1.0,), (True,), (1, "a"), ("1", None), (None,),
)  # fmt: skip


@st.composite
def routed_batches(draw) -> list[list]:
    """1-4 batches over one small pool of keys, so batches repeat each other's
    keys; a pool of ints, strings, None and their tuples is memo-safe."""
    pool = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_ALIASING_KEYS),
                st.integers(-3, 3),
                st.text(max_size=2),
                st.tuples(st.integers(-2, 2), st.text(max_size=1)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    batch = st.lists(st.sampled_from(pool), max_size=30)
    return draw(st.lists(batch, min_size=1, max_size=4))


def exchanged(batch: list, count: int) -> list[list[int]]:
    """Source positions per destination of a hash exchange on ``batch``."""
    out = columnar_hash_exchange([batch_of([part(at=list(range(len(batch))))])], batch, count)
    return [columns["at"] for columns, _ in partition_slices(out)]


def ingested(batch: list, count: int) -> list[list[int]]:
    """Source positions per partition of ingesting rows keyed by ``batch``."""
    rows = [{"at": position, "k": key} for position, key in enumerate(batch)]
    return [[row["at"] for row in held] for held in partition_rows(rows, count, "k")]


class TestHashExchange:
    def test_preserves_all_rows(self):
        out = route_on([part(k=list(range(10))), part(k=list(range(10, 20)))], "k", 4)
        assert sum(length for _, length in out) == 20
        assert sorted(k for columns, _ in out for k in columns["k"]) == list(range(20))

    def test_routes_by_stable_hash(self):
        out = route_on([part(k=list(range(50)), v=list(range(50, 100)))], "k", 8)
        for pid, (columns, _) in enumerate(out):
            for k, v in zip(columns["k"], columns["v"]):
                assert stable_hash(k) % 8 == pid
                assert v == k + 50  # columns stay row-aligned

    def test_equal_keys_colocate(self):
        out = route_on([part(k=[5], n=[i]) for i in range(10)], "k", 4)
        # one destination, source order kept within it
        assert [columns["n"] for columns, length in out if length] == [list(range(10))]

    def test_empty_input(self):
        out = columnar_hash_exchange([batch_of([part(), part()])], [], 4)
        assert partition_slices(out) == [({}, 0)] * 4

    def test_null_route_key_is_routed_like_any_value(self):
        out = route_on([part(k=[None, None], n=[0, 1])], "k", 8)
        assert out[stable_hash(None) % 8] == ({"k": [None, None], "n": [0, 1]}, 2)

    def test_missing_physical_column_is_null_filled(self):
        """An absent column reads as nulls (``ColumnBatch.column``): routed
        on one, every row goes where a null key goes."""
        out = route_on([part(k=[1, 2], v=[10, 20]), part(k=[1, 3])], "absent", 4)
        assert out[stable_hash(None) % 4] == (
            {"k": [1, 2, 1, 3], "v": [10, 20, None, None]},
            4,
        )

    @settings(max_examples=100, deadline=None)
    @example(
        [
            list(range(200)),
            [float(i) for i in range(200)],
            [(float(i),) for i in range(200)],
            [(i,) for i in range(200)],
            [(True,), (1,), (False, "x"), (0, "x")],
            [0, 0.0, False, "0", None, -0.0, (0,), (0.0,), 1, True],
        ],
        8,
    )
    @given(routed_batches(), st.integers(1, 9))
    def test_routing_ignores_what_the_process_routed_before(self, batches, count):
        """The process-wide route memo must not alias keys ``stable_hash``
        tells apart (``0 == 0.0 == False`` and ``(2,) == (2.0,)`` share a dict
        slot): every layout of the exchange and of ingestion, whichever
        routed a key first, is the per-row ``stable_hash(key) % n``."""
        for routes in ((exchanged, ingested), (ingested, exchanged)):
            with mock.patch.dict(rng._ROUTES, clear=True):
                for batch in batches:
                    expected = [[] for _ in range(count)]
                    for position, key in enumerate(batch):
                        expected[stable_hash(key) % count].append(position)
                    for route in routes:
                        assert route(batch, count) == expected


class TestBroadcastExchange:
    """The batch is already one run of flat columns: the copy every
    partition receives is the batch itself."""

    def test_gathers_everything_in_order(self):
        batch = batch_of([part(k=[1, 2], v=["a", "b"]), part(k=[], v=[]), part(k=[3])])
        gathered = columnar_broadcast_exchange([batch])
        assert gathered is batch and gathered.length == 3
        assert gathered.columns == {"k": [1, 2, 3], "v": ["a", "b", None]}

    def test_empty(self):
        gathered = columnar_broadcast_exchange([batch_of([part(), part()])])
        assert (gathered.columns, gathered.length) == ({}, 0)
