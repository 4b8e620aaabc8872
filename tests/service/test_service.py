"""Query service behavior: caching, invalidation, admission, tenancy."""

import pytest

from repro.common.errors import AdmissionError, OptimizationError
from repro.engine.scheduler import SchedulerConfig
from repro.service import QueryService, ServiceConfig
from repro.service.cache import VALUE_BYTES, result_nbytes
from repro.spec import PlannerSpec

from tests.conftest import dim_schema, load_star_data, small_cluster, star_query


def build_service(**kwargs) -> QueryService:
    service = QueryService(small_cluster(), **kwargs)
    load_star_data(service)
    return service


class TestTenantSessions:
    def test_sessions_are_memoized_per_tenant(self):
        service = build_service()
        assert service.session("a") is service.session("a")
        assert service.session("a") is not service.session("b")
        assert service.tenants() == ["a", "b"]

    def test_empty_tenant_rejected(self):
        with pytest.raises(ValueError):
            QueryService(small_cluster()).session("")

    def test_directly_built_empty_tenant_rejected(self):
        from repro.session import Session

        with pytest.raises(ValueError, match="non-empty"):
            Session(service=QueryService(small_cluster()), tenant="")

    def test_directly_built_handle_follows_a_scheduler_reset(self):
        from repro.session import Session

        service = build_service()
        direct = Session(service=service, tenant="alice")
        opened = service.session("bob")
        service.reset_scheduler()
        assert direct.scheduler is opened.scheduler is service.scheduler
        handles = [
            handle.submit(star_query(), "cost_based") for handle in (direct, opened)
        ]
        service.run_all()
        assert [h.status for h in handles] == ["done", "done"]

    def test_tenant_session_rejects_private_stack_arguments(self):
        from repro.session import Session

        service = QueryService(small_cluster())
        with pytest.raises(OptimizationError, match="QueryService"):
            Session(cluster=small_cluster(), service=service, tenant="a")

    def test_tenant_sessions_share_the_service_stack(self):
        service = build_service()
        a, b = service.session("a"), service.session("b")
        assert a.executor is b.executor is service.executor
        assert a.scheduler is b.scheduler is service.scheduler
        assert a.dataset_rows("fact") == 2000


    def test_explain_on_one_tenant_keeps_anothers_checkpoint(self):
        """A blocking run on one tenant, explained or not, drops what it
        materialized and leaves another tenant's failed checkpoint alone."""
        from repro.core.driver import DynamicOptimizer

        service = build_service()
        doomed = service.session("a").submit(
            star_query(), PlannerSpec.of("dynamic", fail_after_jobs=2)
        )
        service.run_all()
        kept = [n for n in service.datasets.names() if n.startswith("__")]
        assert kept
        other = service.session("b")
        other.execute(star_query(), "dynamic")
        other.execute(star_query(), "dynamic").explain_analyze()
        # each side run dropped what it materialized and nothing else
        assert [n for n in service.datasets.names() if n.startswith("__")] == kept
        resumed = DynamicOptimizer().resume(doomed.error.checkpoint, other)
        assert resumed.rows == other.execute(star_query(), "dynamic").rows

    def test_execute_carries_the_tenant_like_submit(self):
        result = build_service().session("alice").execute(star_query())
        assert result.schedule.tenant == "alice"


class TestResultCache:
    def test_repeat_submission_answered_from_cache(self):
        service = build_service()
        tenant = service.session("a")
        first = tenant.submit(star_query(), "dynamic")
        service.run_all()
        second = service.session("b").submit(star_query(), "dynamic")
        service.run_all()

        assert not first.schedule.cache_hit
        assert second.schedule.cache_hit
        assert second.schedule.busy_seconds == 0.0
        assert second.result().rows == first.result().rows
        assert service.cache.stats.result_hits == 1
        report = second.result().explain_analyze()
        assert "answered from result cache" in report

    def test_a_fully_cached_round_adds_no_timeline_event(self):
        """A result-cache hit runs no cluster job, so the cluster timeline
        (one event per job) does not grow; the hit is on the schedule record."""
        service = build_service()  # both caches on
        first = [
            service.session(tenant).submit(star_query(), strategy)
            for tenant, strategy in (("a", "dynamic"), ("b", "cost_based"))
        ]
        service.run_all()
        events = list(service.scheduler.timeline.events)
        jobs = service.scheduler.cluster_jobs
        assert events and jobs == len(events)
        repeat = [
            service.session(tenant).submit(star_query(), strategy)
            for tenant, strategy in (("b", "dynamic"), ("a", "cost_based"))
        ]
        service.run_all()
        assert all(handle.schedule.cache_hit for handle in repeat)
        assert [handle.schedule.tenant for handle in repeat] == ["b", "a"]
        assert service.cache.stats.result_hits == len(first)
        assert service.scheduler.timeline.events == events
        assert service.scheduler.cluster_jobs == jobs

    def test_a_callers_row_edits_never_reach_a_hit(self):
        service = build_service()
        first = service.session("a").submit(star_query(), "dynamic")
        service.run_all()
        original = [dict(row) for row in first.result().rows]
        field = next(iter(original[0]))
        first.result().rows[0][field] = "CORRUPTED"
        hit = service.session("b").submit(star_query(), "dynamic")
        service.run_all()
        assert hit.schedule.cache_hit
        assert hit.result().rows == original
        hit.result().rows[0][field] = "CORRUPTED"
        again = service.session("c").submit(star_query(), "dynamic")
        service.run_all()
        assert again.schedule.cache_hit
        assert again.result().rows == original

    def test_repeated_template_mix_is_mostly_cache_hits(self):
        """Skew pays: a mix dominated by a few hot templates, submitted by
        several tenants up front and drained once, is mostly answered at
        admission — a repeat hits as soon as its first instance finished."""
        service = build_service()
        mix = (5, 5, 6, 5, 5, 7, 5, 6, 5, 5, 6, 5, 5, 6, 5, 7)
        handles = [
            service.session(f"tenant-{i % 4}").submit(star_query(limit=n), "dynamic")
            for i, n in enumerate(mix)
        ]
        service.run_all()
        hits = sum(handle.schedule.cache_hit for handle in handles)
        assert hits == service.cache.stats.result_hits
        assert hits / len(handles) > 0.5
        first: dict[int, list] = {}
        for handle, n in zip(handles, mix):
            assert handle.result().rows == first.setdefault(n, handle.result().rows)

    def test_cache_key_distinguishes_parameters_and_strategy(self):
        service = build_service()
        tenant = service.session("a")
        tenant.submit(star_query(), "dynamic")
        service.run_all()
        other = tenant.submit(star_query(), "cost_based")
        service.run_all()
        assert not other.schedule.cache_hit

    def test_reingest_invalidates_cached_results(self):
        service = build_service()
        tenant = service.session("a")
        first = tenant.submit(star_query(), "dynamic")
        service.run_all()
        # replacing a dimension bumps its version; the cached result depends
        # on it and must be evicted even though the rows are identical
        service.load(
            "da",
            dim_schema("a"),
            [{"a_id": i, "a_attr": i % 7} for i in range(50)],
            replace=True,
        )
        second = tenant.submit(star_query(), "dynamic")
        service.run_all()
        assert not second.schedule.cache_hit
        assert service.cache.stats.invalidations >= 1
        assert second.result().rows == first.result().rows


def one_entry_budget() -> int:
    """A byte budget that holds any one of ``star_query``'s pushdown
    materializations and never two."""
    probe = build_service(config=ServiceConfig(result_cache=False))
    probe.session("a").submit(star_query(), "dynamic")
    probe.run_all()
    sizes = sorted(entry.nbytes for entry in probe.cache._intermediates.values())
    assert len(sizes) >= 2 and sizes[-1] < sizes[0] + sizes[1]
    return sizes[-1]


class TestIntermediateCache:
    def test_pushdown_replay_is_free_and_answer_preserving(self):
        service = build_service(
            config=ServiceConfig(result_cache=False, intermediate_cache=True)
        )
        tenant = service.session("a")
        first = tenant.submit(star_query(), "dynamic")
        service.run_all()
        tenant.reset_intermediates()
        service.reset_scheduler()
        second = tenant.submit(star_query(), "dynamic")
        service.run_all()

        assert service.cache.stats.intermediate_hits >= 1
        assert second.result().rows == first.result().rows
        # replayed materializations charge nothing, so the repeat is cheaper
        assert (
            second.result().metrics.total_seconds
            < first.result().metrics.total_seconds
        )

    def test_forced_eviction_recomputes_instead_of_crashing(self):
        """Regression guard: with a one-entry intermediate cache, each
        query's own pushdown materializations evict one another, so a token
        a queued query resolved against is usually gone by fetch time.
        Every such lookup must fall back to recomputing the materialization
        — never raise — and every round must still answer correctly."""
        service = build_service(
            config=ServiceConfig(
                result_cache=False,
                intermediate_cache=True,
                intermediate_cache_bytes=one_entry_budget(),
            )
        )
        baseline = build_service(
            config=ServiceConfig(result_cache=False, intermediate_cache=False)
        )
        expected = baseline.session("a").submit(star_query(), "dynamic")
        baseline.run_all()
        for tenant in ("a", "b", "c"):
            session = service.session(tenant)
            handle = session.submit(star_query(), "dynamic")
            service.run_all()
            assert handle.result().rows == expected.result().rows
            session.reset_intermediates()
            service.reset_scheduler()
        # the tiny cache actually thrashed: evicted tokens read as misses
        # (recomputes), and the capacity bound held throughout
        assert service.cache.stats.intermediate_misses >= 1
        assert len(service.cache._intermediates) <= 1

    def test_fetch_after_eviction_is_a_miss_not_a_crash(self):
        """Unit-level pin of the same contract on ServiceCache itself: a
        token evicted between store and fetch reads as a miss (None)."""
        service = build_service(
            config=ServiceConfig(
                result_cache=False,
                intermediate_cache=True,
                intermediate_cache_bytes=one_entry_budget(),
            )
        )
        tenant = service.session("a")
        tenant.submit(star_query(), "dynamic")
        service.run_all()
        cache = service.cache
        assert len(cache._intermediates) == 1
        (token,) = cache._intermediates
        cache._intermediates.clear()  # forced eviction

        class _Request:
            cache_token = token

        assert cache.fetch_intermediate(service.executor, _Request()) is None
        assert cache.stats.intermediate_misses >= 1

    def test_reingest_evicts_dependent_intermediates(self):
        service = build_service(
            config=ServiceConfig(result_cache=False, intermediate_cache=True)
        )
        tenant = service.session("a")
        tenant.submit(star_query(), "dynamic")
        service.run_all()
        tenant.reset_intermediates()
        hits_before = service.cache.stats.intermediate_hits
        service.load(
            "db",
            dim_schema("b"),
            [{"b_id": i, "b_attr": i % 5} for i in range(40)],
            replace=True,
        )
        service.reset_scheduler()
        tenant.submit(star_query(), "dynamic")
        service.run_all()
        # the db pushdown re-ran; only non-db pushdowns may have replayed
        stats = service.cache.stats
        assert stats.invalidations >= 1
        assert stats.intermediate_misses >= 1
        assert stats.intermediate_hits >= hits_before


def assert_held_bytes_add_up(cache) -> None:
    held = sum(entry.nbytes for entry in cache._intermediates.values())
    assert cache.stats.held_bytes == held <= cache.intermediate_bytes


class TestByteBudget:
    def test_held_bytes_follow_every_store_and_removal(self, monkeypatch):
        service = build_service(
            config=ServiceConfig(
                result_cache=False, intermediate_cache_bytes=one_entry_budget()
            )
        )
        cache = service.cache
        calls = []
        for name in ("store_intermediate", "fetch_intermediate"):

            def checked(*args, _name=name, _method=getattr(cache, name)):
                outcome = _method(*args)
                assert_held_bytes_add_up(cache)
                calls.append(_name)
                return outcome

            monkeypatch.setattr(cache, name, checked)
        tenant = service.session("a")

        def run_once():
            handle = tenant.submit(star_query(), "dynamic")
            service.run_all()
            tenant.reset_intermediates()
            service.reset_scheduler()
            return handle.result().rows

        expected = run_once()
        assert run_once() == expected
        assert cache.stats.evictions >= 1  # two entries never fit one's budget
        assert cache.stats.held_bytes > 0
        # eager invalidation: the catalog listener drops dependents
        db_rows = [{"b_id": i, "b_attr": i % 5} for i in range(40)]
        dc_rows = [{"c_id": i, "c_attr": i % 3} for i in range(30)]
        service.load("db", dim_schema("b"), db_rows, replace=True)
        service.load("dc", dim_schema("c"), dc_rows, replace=True)
        assert_held_bytes_add_up(cache)
        assert cache.stats.held_bytes == 0
        run_once()
        # stale on fetch: a re-ingest the cache was not told about
        service.datasets._listeners.remove(cache.invalidate_dataset)
        invalidations = cache.stats.invalidations
        service.load("db", dim_schema("b"), db_rows, replace=True)
        service.load("dc", dim_schema("c"), dc_rows, replace=True)
        run_once()
        assert cache.stats.invalidations > invalidations
        assert {"store_intermediate", "fetch_intermediate"} <= set(calls)
        assert cache.stats.oversized == 0

    def test_an_entry_over_the_whole_budget_is_not_stored(self):
        service = build_service(
            config=ServiceConfig(result_cache=False, intermediate_cache_bytes=1)
        )
        baseline = build_service(
            config=ServiceConfig(result_cache=False, intermediate_cache=False)
        )
        expected = baseline.session("a").submit(star_query(), "dynamic")
        baseline.run_all()
        handle = service.session("a").submit(star_query(), "dynamic")
        service.run_all()
        assert handle.result().rows == expected.result().rows
        stats = service.cache.stats
        assert stats.oversized >= 2
        assert stats.held_bytes == stats.evictions == 0
        assert not service.cache._intermediates


    def test_results_are_charged_by_value_and_evicted_by_bytes(self, monkeypatch):
        """One star result's bytes as the whole budget: a second answer
        evicts the first, held bytes add up after every store and removal,
        and a budget below one answer stores nothing."""
        solo = build_service().session("a").execute(star_query(), "dynamic")
        budget = result_nbytes(solo.rows)
        assert budget == VALUE_BYTES * 2 * len(solo.rows)  # two columns a row
        service = build_service(
            config=ServiceConfig(intermediate_cache=False, result_cache_bytes=budget)
        )
        cache = service.cache

        def checked(*args, _store=cache.store_result):
            _store(*args)
            held = sum(entry.nbytes for entry in cache._results.values())
            assert cache.stats.result_held_bytes == held <= cache.result_bytes

        monkeypatch.setattr(cache, "store_result", checked)
        tenant = service.session("a")

        def submit(strategy):
            handle = tenant.submit(star_query(), strategy)
            service.run_all()
            return handle

        submit("dynamic")
        submit("cost_based")  # same rows, another key: evicts dynamic's
        assert cache.stats.evictions == 1
        assert submit("cost_based").schedule.cache_hit
        assert not submit("dynamic").schedule.cache_hit
        service.load(
            "da",
            dim_schema("a"),
            [{"a_id": i, "a_attr": i % 7} for i in range(50)],
            replace=True,
        )
        assert cache.stats.result_held_bytes == 0

        tight = build_service(
            config=ServiceConfig(intermediate_cache=False, result_cache_bytes=budget - 1)
        )
        tight.session("a").submit(star_query(), "dynamic")
        tight.run_all()
        assert tight.cache.stats.oversized == 1
        assert not tight.cache._results


class TestAdmissionControl:
    def test_bounded_queue_rejects_overflow(self):
        service = build_service(
            scheduler_config=SchedulerConfig(max_queued=2),
            config=ServiceConfig(result_cache=False, intermediate_cache=False),
        )
        tenant = service.session("a")
        tenant.submit(star_query(), "dynamic")
        tenant.submit(star_query(), "dynamic")
        with pytest.raises(AdmissionError, match="tenant 'a'"):
            tenant.submit(star_query(), "dynamic")

    def test_fair_admission_interleaves_tenants(self):
        config = SchedulerConfig(max_concurrent_queries=1)
        service = build_service(
            scheduler_config=config,
            config=ServiceConfig(result_cache=False, intermediate_cache=False),
        )
        a_handles = [
            service.session("a").submit(star_query(), "dynamic")
            for _ in range(3)
        ]
        b_handle = service.session("b").submit(star_query(), "dynamic")
        service.run_all()
        # deficit round-robin: b's only query is admitted right after a's
        # first, ahead of a's own backlog
        assert b_handle.schedule.admitted_at < a_handles[1].schedule.admitted_at


class TestObservability:
    def test_queue_delay_annotation_in_explain_analyze(self):
        service = build_service(
            scheduler_config=SchedulerConfig(max_concurrent_queries=1),
            config=ServiceConfig(result_cache=False, intermediate_cache=False),
        )
        service.session("a").submit(star_query(), "dynamic")
        delayed = service.session("b").submit(star_query(), "dynamic")
        service.run_all()
        assert delayed.schedule.queue_delay_seconds > 0.0
        report = delayed.result().explain_analyze()
        assert "-- schedule: queue delay" in report
        assert "tenant 'b'" in report

    def test_timeline_carries_tenant_lanes(self):
        service = build_service()
        service.session("a").submit(star_query(), "dynamic")
        service.session("b").submit(star_query(), "cost_based")
        service.run_all()
        timeline = service.scheduler.timeline
        assert timeline.multi_tenant
        assert timeline.tenant_names() == ["a", "b"]
        assert any("a" in e.tenants for e in timeline.events)
        assert "tenant" in timeline.render()
        assert '"name": "tenant a"' in timeline.to_chrome_trace()

    def test_service_reports_cache_and_tenants(self):
        service = build_service()
        service.session("a").submit(star_query(), "dynamic")
        service.run_all()
        assert service.tenants() == ["a"]
        assert "fact" in service.datasets.names()
        assert service.cache.stats.result_misses == 1
