"""Exchange connector tests."""

from repro.common.rng import stable_hash
from repro.engine.data import ColumnPartition
from repro.engine.exchange import columnar_broadcast_exchange, columnar_hash_exchange
from repro.engine.vector import route_partitions, shared_route_cache


def part(**columns) -> ColumnPartition:
    return ColumnPartition(columns, len(next(iter(columns.values()), [])))


def route_on(partitions, name, partition_count):
    return columnar_hash_exchange(
        partitions, [p.column(name) for p in partitions], partition_count
    )


class TestHashExchange:
    def test_preserves_all_rows(self):
        out = route_on([part(k=list(range(10))), part(k=list(range(10, 20)))], "k", 4)
        assert sum(p.length for p in out) == 20
        assert sorted(k for p in out for k in p.columns["k"]) == list(range(20))

    def test_routes_by_stable_hash(self):
        out = route_on([part(k=list(range(50)), v=list(range(50, 100)))], "k", 8)
        for pid, partition in enumerate(out):
            for k, v in zip(partition.columns["k"], partition.columns["v"]):
                assert stable_hash(k) % 8 == pid
                assert v == k + 50  # columns stay row-aligned

    def test_equal_keys_colocate(self):
        out = route_on([part(k=[5], n=[i]) for i in range(10)], "k", 4)
        # one destination, source order kept within it
        assert [p.columns["n"] for p in out if p.length] == [list(range(10))]

    def test_empty_input(self):
        out = columnar_hash_exchange([part(), part()], [[], []], 4)
        assert [(p.columns, p.length) for p in out] == [({}, 0)] * 4

    def test_null_route_key_is_routed_like_any_value(self):
        out = route_on([part(k=[None, None], n=[0, 1])], "k", 8)
        assert out[stable_hash(None) % 8].columns == {"k": [None, None], "n": [0, 1]}

    def test_missing_physical_column_is_null_filled(self):
        """An absent column reads as nulls (``ColumnPartition.column``)."""
        out = route_on([part(k=[1, 2], v=[10, 20]), part(k=[1, 3])], "k", 1)
        assert out[0].columns == {"k": [1, 2, 1, 3], "v": [10, 20, None, None]}

    def test_routing_ignores_what_the_process_routed_before(self):
        """The process-global memo must not alias keys ``stable_hash`` tells
        apart: ``0 == 0.0 == False`` and ``(2,) == (2.0,)`` share a dict slot."""
        cache = shared_route_cache(8)
        ints = list(range(200))
        assert route_partitions(ints, 8, cache) == [stable_hash(i) % 8 for i in ints]
        for batch in (
            [float(i) for i in ints],
            [(float(i),) for i in ints],
            [(i,) for i in ints],
            [(True,), (1,), (False, "x"), (0, "x")],
            [0, 0.0, False, "0", None, -0.0, (0,), (0.0,), 1, True],
        ):
            expected = [stable_hash(key) % 8 for key in batch]
            assert route_partitions(batch, 8, cache) == expected
            assert route_partitions(batch, 8, cache) == expected  # memo hit path


class TestBroadcastExchange:
    def test_gathers_everything_in_order(self):
        gathered = columnar_broadcast_exchange(
            [part(k=[1, 2], v=["a", "b"]), part(k=[], v=[]), part(k=[3])]
        )
        assert gathered.length == 3
        assert gathered.columns == {"k": [1, 2, 3], "v": ["a", "b", None]}

    def test_empty(self):
        gathered = columnar_broadcast_exchange([part(), part()])
        assert (gathered.columns, gathered.length) == ({}, 0)
