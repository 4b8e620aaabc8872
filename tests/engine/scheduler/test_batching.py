"""Shared launches: concurrent queries' jobs ride one cluster launch.

Two queries whose push-down candidates scan the same base dataset share one
scan job per dataset, and a light job (one whose input read is below one
job start-up) rides the launch of another query's job: fewer cluster jobs,
the start-up split across the branches, a shared scan split across the
branches that read it, and byte-identical rows. Two heavy jobs over
different datasets never share, nor does coordinator-side (virtual-cost)
work. A blocking run's scheduler, whose rule launches every request by
itself, restores solo-run charges exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.engine.scheduler import JobScheduler, SchedulerConfig, solo_scheduler
from repro.lang.builder import QueryBuilder
from repro.optimizers import make_optimizer
from repro.session import Session

from tests.conftest import (
    build_star_session,
    load_star_data,
    small_cluster,
    star_query,
    submit_strategy,
)
from tests.service.test_intermediate_replay import AfterWarmUp, db_query


def double_db_query():
    """Two aliases of the same base dataset, each a push-down candidate."""
    return (
        QueryBuilder()
        .select("fact.f_val", "b1.b_attr")
        .from_table("fact")
        .from_table("db", "b1")
        .from_table("db", "b2")
        .where_udf("mymod10", "b1.b_attr", "=", 1)
        .where_udf("mymod10", "b2.b_attr", "=", 2)
        .join("fact.f_b", "b1.b_id")
        .join("fact.f_c", "b2.b_id")
        .build()
    )


def fact_window_query():
    """``fact ⋈ da`` whose only push-down candidate is the fact window."""
    return (
        QueryBuilder()
        .select("fact.f_val")
        .from_table("fact")
        .from_table("da")
        .where_compare("fact.f_val", ">=", 100)
        .where_compare("fact.f_val", "<=", 300)
        .join("fact.f_a", "da.a_id")
        .build()
    )


def fact_db_query():
    """``fact ⋈ db`` with two push-down candidates: the heavy fact window
    (ready first) and a light UDF filter on ``db``."""
    return (
        QueryBuilder()
        .select("fact.f_val", "db.b_attr")
        .from_table("fact")
        .from_table("db")
        .where_compare("fact.f_val", ">=", 100)
        .where_compare("fact.f_val", "<=", 300)
        .where_udf("mymod10", "db.b_attr", "=", 1)
        .join("fact.f_b", "db.b_id")
        .build()
    )


def small_star_session() -> Session:
    """The star universe with its fact table modeled small (2e4 rows):
    ``dynamic`` fuses into its final job, and that job reads less than one
    start-up."""
    session = Session(small_cluster())
    load_star_data(session, fact_scale=10.0)
    return session


def phase_seconds(result, phase: str) -> float:
    (span,) = [s for s in result.trace.phase_spans() if s.name == phase]
    return span.duration_seconds


def run_pair(session, first, second):
    """Submit two ``(query, strategy)`` pairs on one fresh scheduler."""
    scheduler = JobScheduler(session.executor, SchedulerConfig())
    handles = [
        submit_strategy(scheduler, query, strategy, session)
        for query, strategy in (first, second)
    ]
    scheduler.run_all()
    return scheduler, handles


class TestCrossQueryBatching:
    def test_fewer_scan_jobs_than_solo_runs(self):
        solo = build_star_session().execute(star_query())

        session = build_star_session()
        handles = [session.submit(star_query()) for _ in range(2)]
        session.run_all()
        scheduler = session.scheduler
        results = [h.result() for h in handles]

        # The db and dc pushdown scans each merged across the two queries,
        # and the first query's light final job rode the second query's
        # join: three shared launches, two base scans avoided.
        assert scheduler.scans_saved == 2
        assert scheduler.cluster_jobs == 2 * solo.metrics.jobs - 3
        assert sum(e.batched for e in scheduler.timeline.events) == 3
        # Per-query job counts are unchanged — the cluster ran fewer, and
        # every launch's start-up is charged exactly once across its riders.
        startup = solo.metrics.startup / solo.metrics.jobs
        for result in results:
            assert result.metrics.jobs == solo.metrics.jobs
            assert result.metrics.startup < solo.metrics.startup
        assert sum(r.metrics.startup for r in results) == pytest.approx(
            scheduler.cluster_jobs * startup
        )

    def test_rows_unchanged_and_time_saved(self):
        solo = build_star_session().execute(star_query())

        session = build_star_session()
        handles = [session.submit(star_query()) for _ in range(2)]
        session.run_all()
        results = [h.result() for h in handles]

        for result in results:
            assert result.rows == solo.rows
            assert result.plan_description == solo.plan_description
        total = sum(r.seconds for r in results)
        assert total < 2 * solo.seconds
        # The shared base scans are charged once, not twice.
        scanned = sum(r.metrics.tuples_scanned for r in results)
        assert scanned < 2 * solo.metrics.tuples_scanned
        # Makespan equals total charged work: the cluster never idles and
        # every merged job's width is the sum of its branches' shares.
        makespan = max(e.end_seconds for e in session.scheduler.timeline.events)
        assert makespan == pytest.approx(total)

    def test_batching_disabled_restores_solo_charges(self):
        solo = build_star_session().execute(star_query())

        session = build_star_session()
        scheduler = solo_scheduler(session)
        handles = [
            submit_strategy(scheduler, star_query(), make_optimizer("dynamic"), session)
            for _ in range(2)
        ]
        scheduler.run_all()

        assert scheduler.scans_saved == 0
        assert scheduler.cluster_jobs == 2 * solo.metrics.jobs
        for handle in handles:
            result = handle.result()
            assert result.rows == solo.rows
            assert asdict(result.metrics) == asdict(solo.metrics)


class TestSameQueryBatching:
    def test_two_aliases_of_one_dataset_share_the_scan(self):
        query = double_db_query()
        direct_session = build_star_session()
        direct = make_optimizer("dynamic").execute(query, direct_session)

        session = build_star_session()
        handle = session.submit(query)
        session.run_all()
        scheduled = handle.result()

        assert session.scheduler.scans_saved == 1
        assert scheduled.rows == direct.rows
        assert scheduled.plan_description == direct.plan_description
        # The two db scans merged into one cluster job: same answer,
        # strictly cheaper than the unbatched direct run.
        assert scheduled.seconds < direct.seconds
        assert scheduled.metrics.tuples_scanned < direct.metrics.tuples_scanned

    def test_solo_star_query_never_batches(self):
        # Candidates scan distinct datasets (db, dc): nothing to merge, so a
        # lone submission stays byte-identical to the blocking run.
        direct = build_star_session().execute(star_query())
        session = build_star_session()
        handle = session.submit(star_query())
        session.run_all()
        assert session.scheduler.scans_saved == 0
        assert asdict(handle.result().metrics) == asdict(direct.metrics)

    def test_solo_execute_never_batches_even_shared_datasets(self):
        # A blocking run merges no scan even when the query's own pushdown
        # scans share a dataset: it is charged what a scheduler without
        # shared launches charges (the win belongs to submit/run_all).
        query = double_db_query()
        session = build_star_session()
        unbatched = solo_scheduler(session)
        handle = submit_strategy(unbatched, query, make_optimizer("dynamic"), session)
        unbatched.run_all()
        solo = build_star_session().execute(query)
        assert asdict(solo.metrics) == asdict(handle.result().metrics)
        assert solo.rows == handle.result().rows


class TestSharedLaunch:
    def test_light_final_jobs_share_one_launch(self):
        solo = small_star_session().execute(star_query())
        session = small_star_session()
        handles = [session.submit(star_query()) for _ in range(2)]
        session.run_all()

        (launch,) = [
            e for e in session.scheduler.timeline.events if e.kind == "shared-launch"
        ]
        assert launch.branches == ((1, "final"), (2, "final"))
        for handle in handles:
            result = handle.result()
            assert result.rows == solo.rows
            # each final is charged half the launch's start-up, the rest as solo
            assert phase_seconds(result, "final") == pytest.approx(
                phase_seconds(solo, "final") - 0.5
            )

    def test_heavy_requests_over_different_datasets_never_share(self):
        session = build_star_session()
        # db modeled at 4e7 rows: both push-downs read more than a start-up
        rows = list(session.datasets.get("db").rows())
        session.load("db", session.datasets.get("db").schema, rows, scale=1e6, replace=True)
        cost = session.executor.cost
        for name in ("fact", "db"):
            dataset = session.datasets.get(name)
            read = cost.scan(dataset.modeled_rows, dataset.schema.row_width)
            assert read > cost.job_startup()

        scheduler, (window, join) = run_pair(
            session,
            (fact_window_query(), make_optimizer("dynamic")),
            (db_query(), make_optimizer("dynamic")),
        )
        first = scheduler.timeline.events[:2]
        assert [e.label for e in first] == ["pushdown:fact", "pushdown:db"]
        assert [e.queries for e in first] == [(window.query_id,), (join.query_id,)]
        assert not any(e.batched for e in first)

    def test_every_ready_light_request_rides_a_heavy_launch(self):
        # Each query's db push-down is ready behind its fact window, so it is
        # not the query's next request; it rides the fact launch anyway, and
        # with nothing launched beside it that launch has the full cluster.
        solo = build_star_session().execute(fact_db_query())
        session = build_star_session()
        scheduler = JobScheduler(session.executor, SchedulerConfig(job_slots=2))
        handles = [
            submit_strategy(
                scheduler, fact_db_query(), make_optimizer("dynamic"), session
            )
            for _ in range(2)
        ]
        scheduler.run_all()

        first, *rest = scheduler.timeline.events
        assert first.branches == (
            (1, "pushdown:fact"),
            (2, "pushdown:fact"),
            (1, "pushdown:db"),
            (2, "pushdown:db"),
        )
        assert first.slice_partitions == session.executor.cluster.partitions
        assert all(e.start_seconds >= first.end_seconds for e in rest)
        for handle in handles:
            assert handle.result().rows == solo.rows

    @pytest.mark.parametrize("warm_up_first", [True, False])
    def test_virtual_cost_request_never_shares(self, warm_up_first):
        # the other query's first job is a light push-down, ready at once
        pair = [(db_query(), AfterWarmUp()), (db_query(), make_optimizer("dynamic"))]
        if not warm_up_first:
            pair.reverse()
        scheduler, _ = run_pair(build_star_session(), *pair)
        (warm_up,) = [e for e in scheduler.timeline.events if e.label == "warm-up"]
        assert not warm_up.batched
        assert len(warm_up.queries) == 1


class TestTimelineExport:
    def test_chrome_trace_shows_waits_and_batches(self):
        session = build_star_session()
        for _ in range(2):
            session.submit(star_query())
        session.run_all()
        timeline = session.scheduler.timeline

        payload = json.loads(timeline.to_chrome_trace())
        events = payload["traceEvents"]
        assert any(e["name"] == "wait" for e in events)
        assert any(e["args"].get("batched") for e in events if e["name"] != "wait")
        tids = {e["tid"] for e in events}
        assert tids == {1, 2}

        rendered = timeline.render()
        assert "merged scan" in rendered
        assert "q1+q2" in rendered

    def test_render_pins_a_mixed_launch(self):
        """Same-dataset merges render as ``scan[key] ×n``; a launch whose
        branches do different work renders as ``launch ×n``, and its Chrome
        trace events list every branch's phase."""
        session = build_star_session()
        for _ in range(2):
            session.submit(star_query())
        session.run_all()
        timeline = session.scheduler.timeline
        assert timeline.render() == "\n".join(
            [
                "     start        end queries      kind          label",
                "      0.00       1.00 q1+q2        batched-scan *scan[db] ×2",
                "      1.00       2.00 q1+q2        batched-scan *scan[dc] ×2",
                "      2.00      22.80 q1           join          join:da+fact",
                "     22.80      46.62 q2+q1        shared-launch*launch ×2",
                "     46.62      50.65 q2           final         final",
                "(* = merged scan or shared launch serving several queries)",
            ]
        )
        events = json.loads(timeline.to_chrome_trace())["traceEvents"]
        launches = [e for e in events if e["name"] == "launch ×2"]
        assert {e["tid"] for e in launches} == {1, 2}
        for event in launches:
            assert event["args"]["branches"] == [
                {"query": 2, "phase": "join:da+fact"},
                {"query": 1, "phase": "final"},
            ]
