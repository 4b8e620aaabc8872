"""The intermediate cache on the shared clock: a cached push-down costs nothing.

A push-down's cache token binds only the parameters its own predicates read,
so a dimension push-down keeps its identity while the fact table's window
moves. The scheduler looks every cacheable request up once, when it becomes
ready and before any batching: a hit is answered at that instant, takes no
slot and narrows no other job's slice. Every executed cacheable request
stores its materialization — solo or as a merged-scan branch — and the entry
is served only once the job that produced it has completed.
"""

from __future__ import annotations

from repro.engine.metrics import JobMetrics
from repro.engine.operators.sink import SinkOp
from repro.lang.builder import QueryBuilder
from repro.service import QueryService, ServiceConfig
from repro.service import cache as service_cache
from repro.spec import PlannerSpec
from repro.testing import evaluate_reference, rows_equal_unordered

from tests.conftest import load_star_data, small_cluster, submit_strategy


def window_query(low: int, *, dc_high: int = 1, parameterized: bool = True):
    """The star query plus a fact-table window ``[low, low + 299]``.

    The window reads ``$low``/``$high`` unless ``parameterized`` is False,
    in which case it is spelled as literals. Either way the fact table is a
    push-down candidate of its own, beside ``db`` (one UDF) and ``dc`` (two
    simple predicates).
    """
    builder = (
        QueryBuilder()
        .select("fact.f_val", "da.a_attr")
        .from_table("fact")
        .from_table("da")
        .from_table("db")
        .from_table("dc")
        .where_eq("da.a_attr", 2)
        .where_udf("mymod10", "db.b_attr", "=", 1)
        .where_compare("dc.c_attr", ">=", 1)
        .where_compare("dc.c_attr", "<=", dc_high)
        .join("fact.f_a", "da.a_id")
        .join("fact.f_b", "db.b_id")
        .join("fact.f_c", "dc.c_id")
    )
    if parameterized:
        builder.where_param("fact.f_val", ">=", "low")
        builder.where_param("fact.f_val", "<=", "high")
        builder.bind(low=low, high=low + 299)
    else:
        builder.where_compare("fact.f_val", ">=", low)
        builder.where_compare("fact.f_val", "<=", low + 299)
    return builder.build()


def db_query():
    """``fact ⋈ db`` whose only push-down candidate is ``db``."""
    return (
        QueryBuilder()
        .select("fact.f_val")
        .from_table("fact")
        .from_table("db")
        .where_udf("mymod10", "db.b_attr", "=", 1)
        .join("fact.f_b", "db.b_id")
        .build()
    )


def build_service(job_slots: int = 1, result_cache: bool = True) -> QueryService:
    service = QueryService(
        small_cluster(),
        job_slots=job_slots,
        config=ServiceConfig(result_cache=result_cache),
    )
    load_star_data(service)
    return service


def run_round(service: QueryService, queries) -> list:
    handles = [
        service.session(f"t{i}").submit(query, "dynamic")
        for i, query in enumerate(queries)
    ]
    service.run_all()
    for handle, query in zip(handles, queries):
        assert rows_equal_unordered(
            handle.result().rows, evaluate_reference(query, service)
        )
    return handles


def replayed_pushdowns(handle) -> set[str]:
    """Aliases whose push-down the handle's run answered from the cache."""
    return {
        record.label.rsplit("σ(", 1)[1].rstrip(")")
        for record in handle.result().trace.dataflows
        if record.replayed
    }


def phase_seconds(handle, phase: str) -> float:
    (span,) = [s for s in handle.result().trace.phase_spans() if s.name == phase]
    return span.duration_seconds


class TestReplayAcrossParameters:
    def test_dimension_pushdowns_replay_when_only_the_window_moves(self):
        service = build_service()
        run_round(service, [window_query(0)])
        (second,) = run_round(service, [window_query(400)])
        # the fact push-down reads the window and re-runs; db and dc do not
        assert replayed_pushdowns(second) == {"db", "dc"}
        assert phase_seconds(second, "pushdown:db") == 0.0
        assert phase_seconds(second, "pushdown:dc") == 0.0
        assert phase_seconds(second, "pushdown:fact") > 0.0

    def test_a_replayed_pushdown_carries_its_estimate(self):
        """A replayed push-down's phase span carries the request's estimate
        against the replayed output's modeled rows, as an executed one does."""
        service = build_service()
        (first,) = run_round(service, [window_query(0)])
        (second,) = run_round(service, [window_query(400)])
        assert replayed_pushdowns(second) == {"db", "dc"}
        for alias in ("db", "dc"):
            phase = f"pushdown:{alias}"
            spans = [
                next(s for s in handle.result().trace.phase_spans() if s.name == phase)
                for handle in (first, second)
            ]
            (record,) = second.result().trace.estimates_for(phase)
            assert record.operator == phase
            assert (spans[1].estimated_rows, spans[1].modeled_rows_out) == (
                record.estimated_rows,
                record.actual_rows,
            )
            # same request, same output: the replay reads what the run wrote
            assert (spans[1].estimated_rows, spans[1].modeled_rows_out) == (
                spans[0].estimated_rows,
                spans[0].modeled_rows_out,
            )

    def test_a_replayed_pushdown_span_carries_its_dataflow(self):
        """A replayed push-down's record sits on its own phase span, marked
        ``replayed``, with the same reads and writes as the executed one."""
        service = build_service()
        (first,) = run_round(service, [window_query(0)])
        (second,) = run_round(service, [window_query(400)])
        for alias in ("db", "dc"):
            phase = f"pushdown:{alias}"
            executed, replayed = [
                next(s for s in handle.result().trace.phase_spans() if s.name == phase)
                for handle in (first, second)
            ]
            assert not executed.dataflow.replayed
            assert replayed.dataflow.replayed
            assert replayed.dataflow.cache_token == executed.dataflow.cache_token
            assert replayed.dataflow.writes == tuple(
                name.replace(first.namespace, second.namespace)
                for name in executed.dataflow.writes
            )
            assert replayed.dataflow in second.result().trace.dataflows

    def test_replay_wins_over_a_merged_scan(self):
        """Two queries ready at once would merge their ``dc`` scans; the one
        the cache can answer is replayed instead of riding the merge."""
        service = build_service()
        run_round(service, [window_query(0)])
        replayed, fresh = run_round(
            service, [window_query(400), window_query(600, dc_high=2)]
        )
        assert replayed_pushdowns(replayed) == {"db", "dc"}
        assert phase_seconds(replayed, "pushdown:dc") == 0.0
        # the other query's db push-down is the same work: replayed too;
        # its dc push-down is new and ran alone
        assert replayed_pushdowns(fresh) == {"db"}
        assert phase_seconds(fresh, "pushdown:dc") > 0.0
        merged = [e for e in service.scheduler.timeline.events if e.batched]
        assert all("dc" not in e.label for e in merged)

    def test_a_replay_shares_the_tuples_the_sink_wrote(self, monkeypatch):
        """A replayed push-down is the Sink's store itself — its column
        tuples and bounds, under the requesting query's name — not a copy."""
        service = build_service()
        written, replayed = [], []
        execute = SinkOp.execute
        register = service_cache.register_intermediate

        def recording_sink(self, state):
            data = execute(self, state)
            written.append(state.datasets.get(self.name))
            return data

        def recording_replay(*args, **kwargs):
            replayed.append(register(*args, **kwargs))
            return replayed[-1]

        monkeypatch.setattr(SinkOp, "execute", recording_sink)
        monkeypatch.setattr(service_cache, "register_intermediate", recording_replay)
        run_round(service, [window_query(0)])
        assert replayed == []
        sunk = list(written)
        (second,) = run_round(service, [window_query(400)])
        assert replayed_pushdowns(second) == {"db", "dc"} and len(replayed) == 2
        for dataset in replayed:
            (source,) = [sink for sink in sunk if sink.columns is dataset.columns]
            assert dataset.name != source.name and dataset.bounds is source.bounds
            assert dataset.row_count > 0 and dataset.is_intermediate
            for name, column in dataset.columns.items():
                assert type(column) is tuple and dataset.column(name) is column

    def test_entries_survive_reset_scheduler(self):
        service = build_service()
        run_round(service, [window_query(0)])
        service.reset_scheduler()
        (second,) = run_round(service, [window_query(400)])
        assert replayed_pushdowns(second) == {"db", "dc"}


class AfterWarmUp:
    """``dynamic``, with one short coordinator-side job before its first stage."""

    def __init__(self) -> None:
        self.inner = PlannerSpec.of("dynamic").make()

    def stages(self, query, session, namespace=""):
        inner = self.inner.stages(query, session, namespace=namespace)
        item = next(inner)
        run = (item[0] if isinstance(item, list) else item).run
        yield run.charge("warm-up", JobMetrics(startup=0.01, jobs=1), kind="pilot")
        while True:
            payload = yield item
            try:
                item = inner.send(payload)
            except StopIteration as stop:
                return stop.value


class TestReplayOnTheSharedClock:
    def test_replay_leaves_the_real_job_at_full_width(self):
        """With two slots, the replayed db and dc push-downs launch nothing,
        so the fact push-down beside them owns the whole cluster."""
        service = build_service(job_slots=2)
        run_round(service, [window_query(0, parameterized=False)])
        (second,) = run_round(service, [window_query(400, parameterized=False)])
        assert replayed_pushdowns(second) == {"db", "dc"}
        (fact_job,) = [
            event
            for event in service.scheduler.timeline.events
            if event.label == "pushdown:fact" and event.queries == (second.query_id,)
        ]
        assert fact_job.slice_partitions == service.cluster.partitions
        assert service.cache.stats.intermediate_hits == 2
        replays = [
            record
            for record in second.result().trace.dataflows
            if record.replayed
        ]
        assert len(replays) == 2
        # a replay runs no cluster job, so no zero-length event stands for it
        assert all(e.duration_seconds > 0.0 for e in service.scheduler.timeline.events)

    def test_no_replay_from_a_producer_in_flight(self):
        """The second query asks for db's push-down while the first query's
        db job is still running in the other slot: it must run its own."""
        service = build_service(job_slots=2, result_cache=False)
        producer = service.session("a").submit(db_query(), "dynamic")
        consumer = submit_strategy(
            service.scheduler,
            db_query(),
            AfterWarmUp(),
            service.session("b"),
            tenant="b",
        )
        service.run_all()
        assert service.cache.stats.intermediate_hits == 0
        assert replayed_pushdowns(consumer) == set()
        events = service.scheduler.timeline.events
        (warm_up,) = [e for e in events if e.label == "warm-up"]
        (produced,) = [
            e
            for e in events
            if e.label == "pushdown:db" and e.queries == (producer.query_id,)
        ]
        assert produced.start_seconds < warm_up.end_seconds < produced.end_seconds
        expected = evaluate_reference(db_query(), service)
        for handle in (producer, consumer):
            assert rows_equal_unordered(handle.result().rows, expected)
        # once the producer has completed, its entry is served
        (later,) = run_round(service, [db_query()])
        assert replayed_pushdowns(later) == {"db"}


class TestHitRateAccounting:
    def test_every_cacheable_request_is_one_hit_or_one_miss(self):
        service = build_service(job_slots=2)
        handles = run_round(service, [window_query(0), window_query(400)])
        handles += run_round(
            service, [window_query(600), window_query(600, dc_high=2), window_query(0)]
        )
        # the first round merged its same-dataset scans
        assert service.scheduler.scans_saved > 0
        cacheable = sum(
            1
            for handle in handles
            if not handle.schedule.cache_hit
            for record in handle.result().trace.dataflows
            if record.cache_token is not None
        )
        stats = service.cache.stats
        assert stats.intermediate_hits + stats.intermediate_misses == cacheable
        assert stats.intermediate_hits > 0
