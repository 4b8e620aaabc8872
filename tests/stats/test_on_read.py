"""Query-time statistics build their quantile sketch on first read.

Three contracts (DESIGN.md §5c): whatever is read, whenever, is byte for byte
what eager collection leaves (``reference_collector.py``); a query that reads
no quantile sketch builds none, and digests each distinct value of a
collected column once; and an entry that outlives the data it describes —
dropped namespace, cache replay, retained checkpoint, failed job — still
builds the identical sketch, because what it keeps are references to stored
tuples, not copies.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import SWEEP_QUERIES, run_query, workbench_for_query
from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.core.policy import ReplanPolicy
from repro.engine.job import Job
from repro.engine.operators.scan import ScanOp
from repro.engine.operators.sink import SinkOp
from repro.service import QueryService, ServiceConfig
from repro.sketches.gk import GKQuantileSketch
from repro.spec import PlannerSpec
from repro.stats.collector import FieldStatistics, StatisticsCollector
from tests.conftest import (
    _MIXED_VALUE,
    build_star_session,
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
from tests.stats.reference_collector import EagerFieldStatistics, eager_state

READS = ("quantiles", "histogram", "len", "merge", "state")
FEEDS = ("batches", "collector", "column")


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


def feed(stats: FieldStatistics, how: str, batches: list) -> None:
    if how == "batches":
        stats.observe_batches(batches)
    elif how == "collector":
        collector = StatisticsCollector([stats.field_name])
        collector.fields[stats.field_name] = stats
        collector.observe_columns(
            {stats.field_name: batches}, sum(map(len, batches))
        )
    else:  # the eager entry point, interleaved: order must still hold
        for batch in batches:
            stats.observe_column(batch)


def read(stats: FieldStatistics, how: str | None, reference: EagerFieldStatistics):
    """One kind of read, on both sides: a GK read flushes the sketch's insert
    buffer, and the summary depends on where the flushes fall."""
    if how == "quantiles":
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
            # null count and HLL are current without any read
            assert stats.null_count == reference.null_count
            assert stats.distinct.to_state() == reference.distinct.to_state()
            read(stats, then, reference)
        # a state written before anything else read it restores to the same
        restored = FieldStatistics.from_state(stats.to_state())
        assert same_state(restored.to_state(), reference.to_state())
        assert same_state(stats.to_state(), reference.to_state())

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


def counting_blake2b(digests: list):
    """``hashlib.blake2b``, appending to ``digests`` at every call."""
    blake2b = hashlib.blake2b

    def counting(*args, **kwargs):
        digests.append(1)
        return blake2b(*args, **kwargs)

    return counting


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
        for label in SWEEP_QUERIES:  # ingestion (eager, by design) happens here
            workbench_for_query(label, GOLDEN_SCALE_FACTOR)

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
                patch.setattr(hashlib, "blake2b", counting_blake2b(digests))
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

    def test_a_sink_digests_a_value_once_however_many_partitions_hold_it(
        self, monkeypatch
    ):
        session = build_sweep_session()
        column = [row["f_k1"] for row in session.datasets.get("fact").rows()]
        assert len(set(column)) == 40 < len(column)
        digests = []
        sink = SinkOp(ScanOp("fact", "fact"), "__kept", ("fact.f_k1",), ("fact.f_k1",))
        monkeypatch.setattr(hashlib, "blake2b", counting_blake2b(digests))
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
