"""Statistics cost what is read: sketches are built on first read.

Three contracts (DESIGN.md §5c): whatever is read, whenever, is byte for byte
what eager collection leaves (``reference_collector.py``); nothing is built
that nothing reads — ingestion digests no value, a query that reads no
quantile sketch builds none, and query-time collection digests each distinct
value of a collected column once, inside the pass; and an entry that outlives
the data it describes — dropped namespace, cache replay, retained checkpoint,
failed job, a caller's mutated list — still builds the identical sketch,
because what it keeps are references to stored tuples or an immutable
snapshot of the ingested rows, not the caller's containers.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import (
    SWEEP_QUERIES,
    clear_cache,
    run_query,
    workbench_for_query,
)
from repro.common import rng
from repro.common.types import DataType, Schema
from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.core.policy import ReplanPolicy
from repro.engine.job import Job
from repro.engine.operators.scan import ScanOp
from repro.engine.operators.sink import SinkOp
from repro.lang.ast import split_column
from repro.optimizers import available_strategies
from repro.service import QueryService, ServiceConfig, ingest_token
from repro.session import Session
from repro.sketches.gk import GKQuantileSketch
from repro.spec import PlannerSpec
from repro.stats.collector import FieldStatistics, StatisticsCollector
from repro.storage import ingest
from tests.conftest import (
    _MIXED_VALUE,
    build_star_session,
    count_digests,
    load_star_data,
    same_state,
    small_cluster,
    star_query,
)
from tests.core.test_checkpoint_sweep import (
    CHECKPOINTED_JOB_INDEXES,
    build_sweep_session,
    sweep_query,
)
from tests.engine.equivalence import GOLDEN_SCALE_FACTOR
from tests.stats.reference_collector import (
    EagerCollector,
    EagerFieldStatistics,
    eager_state,
)

READS = (
    "distinct", "distinct_count", "null_count",
    "quantiles", "histogram", "len", "merge", "state",
)  # fmt: skip
FEEDS = ("batches", "collector", "rows")


@st.composite
def feeding_plans(draw):
    """``[(feed, batches, read), ...]``: 1-60 batches of 0-300 values drawn
    from a small mixed pool (so ``1``/``1.0``/``True``, ``0.0``/``-0.0``,
    nulls and strings collide), some empty, some all-null, grouped into
    consecutive calls, each followed by one kind of read or none."""
    pool = draw(st.lists(_MIXED_VALUE, min_size=1, max_size=24))
    rng = random.Random(draw(st.integers(0, 2**32)))
    batches = []
    for _ in range(draw(st.integers(1, 60))):
        shape = rng.random()
        size = 0 if shape < 0.1 else rng.randrange(301)
        batches.append(
            (None,) * size if shape > 0.9 else tuple(rng.choices(pool, k=size))
        )
    cuts = sorted(draw(st.lists(st.integers(0, len(batches)), max_size=6)))
    edges = [0, *cuts, len(batches)]
    return [
        (
            draw(st.sampled_from(FEEDS)),
            batches[a:b],
            draw(st.sampled_from((None, *READS))),
        )
        for a, b in zip(edges, edges[1:])
    ]


TABLE_FIELDS = ("mixed", "sparse", "nulls", "ghost")


@st.composite
def ingestion_plans(draw):
    """``[(rows, reads), ...]``: 1-5 ``observe_rows`` calls on one collector
    over ``TABLE_FIELDS`` — mixed values, a key any row may miss, an all-null
    field, a field no row has; 0-260 rows a call (empty tables included, the
    GK insert buffer straddled) — each followed by reads of any field, of
    any kind, in any order."""
    row = st.fixed_dictionaries(
        {"mixed": _MIXED_VALUE, "nulls": st.none()}, optional={"sparse": _MIXED_VALUE}
    )
    reads = st.lists(
        st.tuples(st.sampled_from(TABLE_FIELDS), st.sampled_from(READS)), max_size=4
    )
    calls = st.tuples(st.lists(row, max_size=260), reads)
    return draw(st.lists(calls, min_size=1, max_size=5))


def feed(stats: FieldStatistics, how: str, batches: list) -> None:
    if how == "batches":
        stats.observe_batches(batches)
    elif how == "collector":
        collector = StatisticsCollector([stats.field_name])
        collector.fields[stats.field_name] = stats
        collector.observe_columns(
            {stats.field_name: batches}, sum(map(len, batches))
        )
    else:  # the ingestion entry point, interleaved: order must still hold
        collector = StatisticsCollector([stats.field_name])
        collector.fields[stats.field_name] = stats
        collector.observe_rows(
            {stats.field_name: value} for batch in batches for value in batch
        )


def read(stats: FieldStatistics, how: str | None, reference: EagerFieldStatistics):
    """One kind of read, on both sides: a GK read flushes the sketch's insert
    buffer, and the summary depends on where the flushes fall."""
    if how == "distinct":
        assert stats.distinct.to_state() == reference.distinct.to_state()
    elif how == "distinct_count":
        assert stats.distinct_count == max(1.0, reference.distinct.cardinality())
    elif how == "null_count":
        assert stats.null_count == reference.null_count
    elif how == "quantiles":
        assert stats.quantiles is stats.quantiles
    elif how == "histogram":
        built = stats.histogram(8)
        assert (built is None) == (len(reference.quantiles) == 0)
        reference.quantiles.histogram_cache()
    elif how == "len":
        assert len(stats.quantiles) == len(reference.quantiles)
    elif how == "merge":
        merged = stats.merge(FieldStatistics(stats.field_name))
        twin = reference.quantiles.merge(GKQuantileSketch())
        assert same_state(merged.quantiles.to_state(), twin.to_state())
        assert merged.null_count == reference.null_count
        assert merged.distinct.to_state() == reference.distinct.to_state()
    elif how == "state":
        assert same_state(stats.to_state(), reference.to_state())


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(feeding_plans())
    def test_what_is_read_is_what_eager_collection_leaves(self, plan):
        stats, reference = FieldStatistics("f"), EagerFieldStatistics("f")
        for how, batches, then in plan:
            feed(stats, how, batches)
            for batch in batches:
                reference.observe_column(batch)
            read(stats, then, reference)
        # a state written before anything else read it restores to the same
        restored = FieldStatistics.from_state(stats.to_state())
        assert same_state(restored.to_state(), reference.to_state())
        assert same_state(stats.to_state(), reference.to_state())

    @settings(max_examples=40, deadline=None)
    @given(ingestion_plans())
    def test_ingested_tables_read_in_any_order_leave_the_eager_state(self, plan):
        collector, reference = StatisticsCollector(TABLE_FIELDS), EagerCollector(TABLE_FIELDS)
        for call, (rows, reads) in enumerate(plan):
            collector.observe_rows(iter(rows) if call % 2 else rows)
            reference.observe_rows(rows)
            rows.clear()  # the snapshot is the collector's own
            for name, how in reads:
                read(collector.fields[name], how, reference.fields[name])
        assert collector.row_count == reference.row_count
        for name in TABLE_FIELDS:
            assert same_state(
                collector.fields[name].to_state(), reference.fields[name].to_state()
            )

    def test_a_replay_is_kept_in_place_of_transient_batches(self):
        batches = [[3, 1, None], [], [2.5, "x"], [None]]

        class Replay:
            iterations = 0

            def __iter__(self):
                Replay.iterations += 1
                return iter([list(batch) for batch in batches])

        stats = FieldStatistics("f")
        stats.observe_batches(batches, replay=Replay())
        assert (stats.null_count, Replay.iterations) == (2, 0)
        assert same_state(stats.to_state(), eager_state("f", batches))
        stats.to_state()
        assert Replay.iterations == 1  # read once, then built


# -- nothing read, nothing built ---------------------------------------------------

SPIED_STRATEGIES = (
    ("dynamic", {}),
    ("cost_based", {}),
    ("pilot_run", {}),
    ("sketch_online", {}),
    ("dynamic", {"policy": ReplanPolicy.default()}),
)


def distinct_digest_inputs(batches) -> int:
    """Distinct non-null values as ``stable_hash`` tells them apart."""
    return len(
        {
            value if isinstance(value, int) else repr(value)
            for batch in batches
            for value in batch
            if value is not None
        }
    )


class TestNothingReadNothingBuilt:
    def test_suite_queries_build_no_quantile_sketch_and_digest_once(self, monkeypatch):
        for label in SWEEP_QUERIES:  # base tables read in full: not what is spied
            statistics = workbench_for_query(label, GOLDEN_SCALE_FACTOR).session.statistics
            for name in statistics.names():
                statistics.get(name).to_state()

        gk_calls, passes = [], []
        for name in ("extend", "merge"):
            original = getattr(GKQuantileSketch, name)

            def spy(self, *args, _name=name, _original=original):
                gk_calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(GKQuantileSketch, name, spy)

        observe_columns = StatisticsCollector.observe_columns

        def counting_observe_columns(collector, columns, length):
            digests = []
            with monkeypatch.context() as patch:
                count_digests(patch, digests)
                observe_columns(collector, columns, length)
            expected = sum(
                distinct_digest_inputs(columns[name]) for name in collector.fields
            )
            passes.append((len(digests), expected))

        monkeypatch.setattr(
            StatisticsCollector, "observe_columns", counting_observe_columns
        )
        for label in SWEEP_QUERIES:
            for strategy, options in SPIED_STRATEGIES:
                run_query(label, GOLDEN_SCALE_FACTOR, strategy, **options)
        assert gk_calls == []
        # not vacuous: collection ran, and over columns with repeats
        assert len(passes) > 100 and sum(digests for digests, _ in passes) > 10_000
        assert [digests for digests, _ in passes] == [wanted for _, wanted in passes]

    def test_ingestion_digests_nothing_and_queries_build_what_they_name(
        self, monkeypatch
    ):
        clear_cache()  # the suite tables are ingested under the spy
        digests, extends, routed = [], [], []
        earlier: dict[int, set] = {}  # partition count -> keys routed so far
        partition_rows = ingest.partition_rows
        extend = GKQuantileSketch.extend

        def routing_excepted(rows, partition_count, partition_key):
            before = len(digests)
            partitions = partition_rows(rows, partition_count, partition_key)
            if partition_key is not None:  # the route memo's misses, seen
                keys = {row.get(partition_key) for row in rows}  # ints and strs
                routed_before = earlier.setdefault(partition_count, set())
                routed.append((len(digests) - before, len(keys - routed_before)))
                routed_before |= keys
            del digests[before:]
            return partitions

        def counting_extend(sketch, values):
            extends.append(1)
            extend(sketch, values)

        with monkeypatch.context() as patch:
            patch.setattr(rng, "_ROUTES", {})  # nothing routed before the test
            patch.setattr(ingest, "partition_rows", routing_excepted)
            count_digests(patch, digests)
            patch.setattr(GKQuantileSketch, "extend", counting_extend)
            sessions = {
                workbench_for_query(label, GOLDEN_SCALE_FACTOR).session
                for label in SWEEP_QUERIES
            }
        # not vacuous: the spy sees every keyed table's routing digests — one
        # per key no earlier load routed, so a load of keys that an earlier
        # one routed (``partsupp``'s, as ``part``'s) digests none
        assert len(routed) > 10 and {seen == 0 for seen, _ in routed} == {True, False}
        assert [seen for seen, _ in routed] == [missed for _, missed in routed]
        assert (digests, extends) == ([], [])

        joined, filtered = set(), set()  # (dataset, field) the queries name
        for label in SWEEP_QUERIES:
            query = workbench_for_query(label, GOLDEN_SCALE_FACTOR).query(label)
            for column in (c for join in query.joins for c in (join.left, join.right)):
                alias, name = split_column(column)
                joined.add((query.table(alias).dataset, name))
            for predicate in query.predicates:
                alias, name = split_column(predicate.column)
                filtered.add((query.table(alias).dataset, name))
            for strategy in available_strategies():
                run_query(label, GOLDEN_SCALE_FACTOR, strategy)
        fields = {
            (name, field): stats
            for session in sessions
            for name in session.statistics.names()
            for field, stats in session.statistics.get(name).fields.items()
        }
        counted = {key for key, stats in fields.items() if not stats._uncounted}
        read = {key for key, stats in fields.items() if not stats._unread}
        assert counted <= joined | filtered and read <= filtered
        # today's reading: join keys and ``=`` predicates; range predicates
        assert (len(fields), len(counted), len(read)) == (88, 48, 4)

    def test_a_sink_digests_a_value_once_however_many_partitions_hold_it(
        self, monkeypatch
    ):
        session = build_sweep_session()
        column = [row["f_k1"] for row in session.datasets.get("fact").rows()]
        assert len(set(column)) == 40 < len(column)
        digests = []
        sink = SinkOp(ScanOp("fact", "fact"), "__kept", ("fact.f_k1",), ("fact.f_k1",))
        count_digests(monkeypatch, digests)
        session.executor.execute(Job(sink, label="sink"), {})
        assert len(digests) == 40


# -- lifetime ------------------------------------------------------------------------


@pytest.fixture
def observed(monkeypatch):
    """Every query-time ``(field statistics, copy of the values it was
    fed)`` pair, recorded while the data is certainly still there."""
    seen: list[tuple[FieldStatistics, list[list]]] = []
    observe_batches = FieldStatistics.observe_batches

    def recording(stats, batches, replay=None):
        seen.append((stats, [list(batch) for batch in batches]))
        observe_batches(stats, batches, replay)

    monkeypatch.setattr(FieldStatistics, "observe_batches", recording)
    return seen


def assert_builds_what_was_fed(seen) -> None:
    assert seen
    fed: dict[int, list] = {}
    for stats, batches in seen:
        fed.setdefault(id(stats), [stats, []])[1].extend(batches)
    for stats, batches in fed.values():
        assert same_state(stats.to_state(), eager_state(stats.field_name, batches))
    assert any(len(stats.quantiles) for stats, _ in fed.values())


class TestLifetime:
    @pytest.mark.parametrize("strategy", ["dynamic", "pilot_run", "sketch_online"])
    def test_read_after_the_query_finished_and_its_data_is_gone(
        self, strategy, observed
    ):
        session = build_sweep_session()
        session.execute(sweep_query(), strategy)
        session.reset_intermediates()
        assert not any(name.startswith("__") for name in session.datasets.names())
        # a re-ingest replaces the base rows a sketch pass's recipe re-reads
        fact = session.datasets.get("fact")
        session.load(
            "fact", fact.schema, [{"f_id": 0, "f_k1": 1, "f_x": 3}], replace=True
        )
        assert_builds_what_was_fed(observed)

    def test_read_after_the_cache_replayed_the_intermediate_to_another_tenant(
        self, observed
    ):
        service = QueryService(
            small_cluster(),
            config=ServiceConfig(result_cache=False, intermediate_cache=True),
        )
        load_star_data(service)
        first = service.session("a").submit(star_query(), "dynamic")
        service.run_all()
        service.session("a").reset_intermediates()
        service.reset_scheduler()
        second = service.session("b").submit(star_query(), "dynamic")
        service.run_all()
        assert service.cache.stats.intermediate_hits >= 1
        assert second.result().rows == first.result().rows
        service.session("b").reset_intermediates()
        assert_builds_what_was_fed(observed)

    def test_read_after_a_checkpoint_was_retained_across_reset_scheduler(
        self, observed
    ):
        session = build_star_session()
        doomed = session.submit(
            star_query(), PlannerSpec.of("dynamic", fail_after_jobs=2)
        )
        session.run_all()
        checkpoint = doomed.error.checkpoint
        session.reset_scheduler()
        session.submit(star_query())
        session.run_all()
        kept = [n for n in checkpoint.run.statistics.names() if n.startswith("__")]
        assert kept
        assert_builds_what_was_fed(observed)
        DynamicOptimizer().resume(checkpoint, session)
        assert_builds_what_was_fed(observed)

    @pytest.mark.parametrize("fail_after", CHECKPOINTED_JOB_INDEXES)
    def test_read_after_a_failed_job_at_every_index(self, fail_after, observed):
        session = build_sweep_session()
        optimizer = DynamicOptimizer(fail_after_jobs=fail_after)
        with pytest.raises(SimulatedFailure) as failure:
            optimizer.execute(sweep_query(), session)
        assert_builds_what_was_fed(observed)  # between failure and resume
        optimizer.resume(failure.value.checkpoint, session)
        session.reset_intermediates()
        assert_builds_what_was_fed(observed)

    def test_what_a_sink_keeps_are_the_stored_tuples_themselves(self):
        session = build_sweep_session()
        tracked = ("fact.f_k1", "fact.f_k2")
        sink = SinkOp(ScanOp("fact", "fact"), "__kept", (*tracked, "fact.f_x"), tracked)
        session.executor.execute(Job(sink, label="sink"), {})
        stored = session.datasets.get("__kept")
        for name in tracked:
            (kept,) = session.statistics.get("__kept").fields[name]._unread
            assert len(kept) == stored.partition_count > 1
            for batch, partition in zip(kept, stored.partitions):
                assert batch is partition.column(name)


# -- the ingested snapshot ---------------------------------------------------------

SNAPSHOT_SCHEMA = Schema.of(
    ("id", DataType.INT), ("v", DataType.INT), ("s", DataType.STRING), primary_key=("id",)
)


class Row(dict):
    """A row dict a ``weakref`` can watch."""


def snapshot_rows(count: int = 300) -> list[Row]:
    return [
        Row(id=i, v=None if i % 7 == 0 else i % 13, s=f"s{i % 5}") for i in range(count)
    ]


def eager_table_state(rows) -> dict[str, dict]:
    reference = EagerCollector(SNAPSHOT_SCHEMA.field_names)
    reference.observe_rows(rows)
    return {name: stats.to_state() for name, stats in reference.fields.items()}


@pytest.mark.parametrize("stack", [Session, QueryService])
class TestIngestedSnapshot:
    """``load`` snapshots its rows once: through both stacks, partitions,
    content token and every sketch built later see the rows as they were."""

    def test_an_iterator_of_rows_loads_what_the_list_loads(self, stack):
        rows = snapshot_rows()
        by_list, by_iterator = stack(), stack()
        listed = by_list.load("t", SNAPSHOT_SCHEMA, rows)
        iterated = by_iterator.load("t", SNAPSHOT_SCHEMA, (row for row in rows))
        assert iterated.row_count == by_iterator.statistics.get("t").row_count == 300
        assert [part.rows() for part in iterated.partitions] == [
            part.rows() for part in listed.partitions
        ]
        assert same_state(
            by_iterator.statistics.get("t").to_state(),
            by_list.statistics.get("t").to_state(),
        )
        if stack is QueryService:
            tokens = {
                service.store.to_state()["sketches"]["t"]["token"]
                for service in (by_list, by_iterator)
            }
            assert tokens == {ingest_token(SNAPSHOT_SCHEMA, rows, 1.0)}

    @pytest.mark.parametrize(
        "mutate", [list.clear, list.reverse, lambda rows: rows.append(Row(id=-1, v=99))]
    )
    def test_mutating_the_callers_list_after_load_changes_no_statistic(
        self, stack, mutate
    ):
        rows = snapshot_rows()
        expected = eager_table_state(rows)
        target = stack()
        target.load("t", SNAPSHOT_SCHEMA, rows)
        mutate(rows)
        entry = target.statistics.get("t")
        assert entry.row_count == 300
        for name, state in expected.items():
            assert same_state(entry.fields[name].to_state(), state)

    def test_replace_and_a_dropped_stack_release_the_previous_snapshot(self, stack):
        rows, replacement = snapshot_rows(), snapshot_rows(10)
        first, second = weakref.ref(rows[0]), weakref.ref(replacement[0])
        target = stack()
        target.load("t", SNAPSHOT_SCHEMA, rows)
        del rows
        assert first() is not None  # the partitions and the unread snapshot
        target.load("t", SNAPSHOT_SCHEMA, replacement, replace=True)
        del replacement
        gc.collect()
        assert first() is None and second() is not None
        del target
        gc.collect()
        assert second() is None
