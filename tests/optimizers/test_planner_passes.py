"""Differential tests: the planner-side passes against their row-wise references.

``sketch_online``'s sketch pass, predicate transfer's filter build, pilot-run's
prefix sample and worst-order's exact count scan stored columns through the
engine's filter kernel; ``tests/optimizers/reference_passes.py`` keeps each as
the row-at-a-time loop it replaces. On generated universes — sparse rows,
nulls, UDF / parameter / BETWEEN / null-valued predicates — both must
produce the same sketch state, the same Bloom filters, the same sample and
the same virtual charge, bit for bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import DataType, Schema
from repro.core.predicate_transfer import _build_filters, transfer_adjacency
from repro.engine.job import Job
from repro.engine.operators.scan import ScanOp
from repro.engine.operators.select import SelectOp
from repro.engine.operators.sink import SinkOp
from repro.lang.ast import (
    BetweenPredicate,
    ComparisonPredicate,
    EvaluationContext,
    ParameterPredicate,
    UdfPredicate,
)
from repro.lang.builder import QueryBuilder
from repro.optimizers.pilot_run import PilotRunOptimizer
from repro.optimizers.sketch_online import SketchOnlineOptimizer
from repro.optimizers.worst_order import true_filtered_rows
from repro.session import Session
from repro.stats.collector import FieldStatistics

from tests.conftest import quantile_rank_gap, same_state, small_cluster
from tests.optimizers import reference_passes as reference

T = Schema.of(
    ("id", DataType.INT),
    ("k", DataType.INT),
    ("v", DataType.INT),
    ("w", DataType.INT),
    ("n", DataType.INT),  # never stored: every row reads null
    primary_key=("id",),
)
D = Schema.of(("d_id", DataType.INT), ("attr", DataType.INT), primary_key=("d_id",))
#: no primary key: rows land round-robin, so partition ends are known
R = Schema.of(("v", DataType.INT))

_MISSING = object()
_value = st.one_of(st.none(), st.just(_MISSING), st.integers(-3, 12))
_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
_predicate = st.one_of(
    st.builds(ComparisonPredicate, st.just("t.v"), _ops, st.integers(-3, 12)),
    st.builds(ComparisonPredicate, st.just("t.w"), st.sampled_from(["=", "!="]), st.none()),
    st.builds(ComparisonPredicate, st.just("t.n"), _ops, st.integers(0, 3)),
    st.builds(BetweenPredicate, st.just("t.w"), st.integers(-3, 5), st.integers(3, 12)),
    st.builds(ParameterPredicate, st.just("t.v"), _ops, st.just("p")),
    st.builds(UdfPredicate, st.just("t.w"), st.just("mymod10"), _ops, st.integers(0, 9)),
)  # fmt: skip


def _universe(t_rows, d_attrs, predicates, parameter):
    session = Session(small_cluster())
    session.load(
        "t",
        T,
        [
            {
                name: value
                for name, value in (("id", i), ("k", k), ("v", v), ("w", w))
                if value is not _MISSING
            }
            for i, (k, v, w) in enumerate(t_rows)
        ],
        scale=3.0,
    )
    session.load("d", D, [{"d_id": i, "attr": a} for i, a in enumerate(d_attrs)])
    builder = (
        QueryBuilder()
        .select("t.v", "d.attr")
        .from_table("t")
        .from_table("d")
        .where_compare("d.attr", ">=", 2)
        .join("t.k", "d.d_id")
        .join("t.w", "d.attr")
        .bind(p=parameter)
    )
    for predicate in predicates:
        builder.where(predicate)
    query = builder.build()
    return session, query, EvaluationContext(query.parameters, session.udfs)


def _same_entry(left, right) -> bool:
    scales = [
        {name: getattr(stats, "scale", None) for name, stats in entry.fields.items()}
        for entry in (left, right)
    ]
    return same_state(left.to_state(), right.to_state()) and scales[0] == scales[1]


universes = given(
    t_rows=st.lists(st.tuples(_value, _value, _value), max_size=90),
    d_attrs=st.lists(st.integers(0, 6), min_size=1, max_size=12),
    predicates=st.lists(_predicate, max_size=3),
    parameter=st.integers(-3, 12),
)


class TestGeneratedUniverses:
    @universes
    @settings(max_examples=40, deadline=None)
    def test_sketch_pass(self, **universe):
        session, query, context = _universe(**universe)
        optimizer = SketchOnlineOptimizer()
        for alias in query.aliases:
            entry, delta = optimizer._sketch_pass(query, alias, session, context)
            expected, charge, survivors = reference.sketch_pass(
                optimizer, query, alias, session, context
            )
            # nothing merged, nothing built yet: null counts and HLL registers
            # are those of per-partition sketches merged in partition order,
            # the distributed dataflow the pass stands for
            for name, batches in survivors.items():
                merged = FieldStatistics(name)
                for batch in batches:
                    worker = FieldStatistics(name)
                    worker.observe_batches([batch])
                    merged = merged.merge(worker)
                assert entry.fields[name].null_count == merged.null_count
                assert entry.fields[name].distinct.to_state() == merged.distinct.to_state()
            # read, the quantile half is the single pass over the survivors
            assert _same_entry(entry, expected)
            assert delta == charge
            for name, batches in survivors.items():
                exact = sorted(v for batch in batches for v in batch if v is not None)
                sketch = entry.fields[name].quantiles
                assert len(sketch) == len(exact)
                for q in (0.0, 0.25, 0.5, 0.75, 1.0) if exact else ():
                    gap = quantile_rank_gap(sketch, exact, q)
                    assert gap <= sketch.epsilon * len(exact) + 1

    @universes
    @settings(max_examples=40, deadline=None)
    def test_transfer_filter_build(self, **universe):
        session, query, context = _universe(**universe)
        adjacency = transfer_adjacency(query)
        # the read-back case: t's rows as a Sink wrote them
        sink = SinkOp(
            SelectOp(ScanOp("t", "t"), query.predicates_for("t"))
            if query.predicates_for("t")
            else ScanOp("t", "t"),
            "__reduced_t",
            ("t.k", "t.w"),
        )
        session.executor.execute(Job(sink, label="reduce"), query.parameters)
        for alias, current in (("t", None), ("d", None), ("t", "__reduced_t")):
            arguments = (query, alias, current, session, context, adjacency)
            built, delta = _build_filters(*arguments)
            expected, charge = reference.build_filters(*arguments)
            assert {c: b.fingerprint() for c, b in built.items()} == {
                c: b.fingerprint() for c, b in expected.items()
            }
            assert [b.charge_bytes for b in built.values()] == [
                b.charge_bytes for b in expected.values()
            ]
            assert delta == charge

    @universes
    @settings(max_examples=40, deadline=None)
    def test_pilot_sample(self, **universe):
        session, query, context = _universe(**universe)
        for limit in (1, 2, 5, 1000):
            optimizer = PilotRunOptimizer(sample_limit=limit)
            for alias in query.aliases:
                entry, scanned = optimizer._pilot_entry(query, alias, session, context)
                expected, reference_scanned, _ = reference.pilot_entry(
                    limit, query, alias, session, context
                )
                assert scanned == reference_scanned
                assert _same_entry(entry, expected)

    @universes
    @settings(max_examples=40, deadline=None)
    def test_true_filtered_rows(self, **universe):
        session, query, context = _universe(**universe)
        for alias in query.aliases:
            assert true_filtered_rows(query, alias, session) == (
                reference.true_filtered_rows(query, alias, session, context)
            )


class TestPilotStopsWhereTheRowScanDid:
    """37 rows round-robin over 4 partitions (10 + 9 + 9 + 9): the limit
    lands mid-partition, exactly on a partition end, on the last row, and
    nowhere."""

    ROWS = 37
    LIMITS = (1, 3, 4, 7, 10, 12, 19, 37, 38)

    def _session(self):
        session = Session(small_cluster())
        session.load("r", R, [{"v": i} for i in range(self.ROWS)])
        session.load("d", D, [{"d_id": i, "attr": i} for i in range(5)])
        return session

    def _query(self, *predicates):
        builder = (
            QueryBuilder().select("r.v").from_table("r").from_table("d")
            .join("r.v", "d.d_id")
        )  # fmt: skip
        for predicate in predicates:
            builder.where(predicate)
        return builder.build()

    def _compare(self, session, query, limit):
        context = EvaluationContext(query.parameters, session.udfs)
        entry, scanned = PilotRunOptimizer(sample_limit=limit)._pilot_entry(
            query, "r", session, context
        )
        expected, reference_scanned, sample = reference.pilot_entry(
            limit, query, "r", session, context
        )
        assert scanned == reference_scanned
        assert _same_entry(entry, expected)
        return scanned, sample

    @pytest.mark.parametrize("limit", LIMITS)
    def test_without_predicates_the_sample_is_the_storage_prefix(self, limit):
        session = self._session()
        assert session.datasets.get("r").bounds == [0, 10, 19, 28, 37]
        scanned, sample = self._compare(session, self._query(), limit)
        assert scanned == len(sample) == min(limit, self.ROWS)

    @pytest.mark.parametrize("limit", LIMITS)
    def test_with_a_selective_predicate(self, limit):
        # keeps v = 0, 20 (partition 0) and 10, 30 (partition 2)
        predicate = UdfPredicate("r.v", "mymod10", "=", 0)
        scanned, sample = self._compare(self._session(), self._query(predicate), limit)
        assert [row["v"] for row in sample] == [0, 20, 10, 30][:limit]
        assert scanned == {1: 1, 3: 22, 4: 27}.get(limit, self.ROWS)

    def test_nothing_qualifies(self):
        predicate = ComparisonPredicate("r.v", "<", 0)
        scanned, sample = self._compare(self._session(), self._query(predicate), 5)
        assert scanned == self.ROWS and sample == []
