"""A failed job publishes nothing, and a failed query leaks no namespace.

The checkpoint sweep's every-job-index failure
(``tests/core/test_checkpoint_sweep.py``) runs here through a query service
with both caches on and a restored sketch store, beside two clean twins of
the same query on other tenants, at one and at two job slots. Two kinds of
failure are injected at every index: the driver's ``SimulatedFailure``
after job ``k`` (its checkpoint is kept, then resumed), and job ``k`` itself
failing in the executor after its sink wrote (nothing is kept).

After every case: the twins' rows and the resumed rows are the reference
answer; no ``__q`` intermediate is left once the checkpoint has resumed (a
leak is what Q003 exists to prevent); and every intermediate-cache entry a
later query can replay was stored by a job that completed, and replays the
rows a clean run stored under its token.
"""

from __future__ import annotations

import pytest

from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.engine.scheduler import scheduler as scheduler_module
from repro.service import QueryService
from repro.spec import PlannerSpec
from repro.testing import evaluate_reference, rows_equal_unordered
from tests.conftest import small_cluster
from tests.core.test_checkpoint_sweep import (
    CHECKPOINTED_JOB_INDEXES,
    CLEAN_JOBS,
    load_sweep_data,
    sweep_query,
)

CASES = [
    *(("driver", k) for k in CHECKPOINTED_JOB_INDEXES),
    *(("executor", k) for k in range(1, CLEAN_JOBS + 1)),
]


class InjectedJobFailure(RuntimeError):
    """Job ``k`` of the doomed query fails after its operators ran."""


def entry_rows(entry) -> tuple[list[int], dict[str, tuple]]:
    return entry.dataset.bounds, entry.dataset.columns


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """``(store path, reference rows, token -> clean entry rows)`` from one
    clean service run whose built sketches are saved as the store."""
    service = QueryService(small_cluster())
    load_sweep_data(service)
    result = service.session("warm").execute(sweep_query())
    path = str(tmp_path_factory.mktemp("store") / "sweep.store")
    service.save_store(path)
    entries = {
        token: (entry_rows(entry), entry.stats.row_count)
        for token, entry in service.cache._intermediates.items()
    }
    assert entries, "the sweep query's push-down is cacheable"
    reference = evaluate_reference(sweep_query(), service.session("warm"))
    assert rows_equal_unordered(result.rows, reference)
    return path, reference, entries


def restored_service(path: str, job_slots: int) -> QueryService:
    service = QueryService(small_cluster(), job_slots=job_slots)
    service.load_store(path)
    assert service.store.sketched_datasets()  # the store is attached
    load_sweep_data(service)
    return service


def live_namespaces(service) -> set[str]:
    return {
        name.split("__")[1]
        for name in service.datasets.names()
        if name.startswith("__q")
    }


@pytest.mark.parametrize("job_slots", [1, 2])
@pytest.mark.parametrize("kind, k", CASES)
def test_a_failed_job_publishes_nothing(kind, k, job_slots, clean, monkeypatch):
    path, reference, clean_entries = clean
    service = restored_service(path, job_slots)
    cache = service.cache

    doomed_spec = PlannerSpec.of("dynamic", fail_after_jobs=k if kind == "driver" else None)
    doomed = service.session("a").submit(sweep_query(), doomed_spec)
    twins = [service.session(t).submit(sweep_query(), "dynamic") for t in ("b", "c")]

    # who created each stored entry, and which requests' jobs failed
    creators: dict[int, object] = {}
    failed: set[int] = set()
    current: list = [None]
    jobs = [0]
    run_request = scheduler_module.run_request
    execute = service.executor.execute
    store = cache.store_intermediate

    def tracking_run_request(executor, request, *args, **kwargs):
        current[0] = request
        return run_request(executor, request, *args, **kwargs)

    def failing_execute(job, *args, **kwargs):
        outcome = execute(job, *args, **kwargs)
        request = current[0]
        if kind == "executor" and request.run.namespace == doomed.namespace:
            jobs[0] += 1
            if jobs[0] == k:
                failed.add(id(request))
                raise InjectedJobFailure(f"job {k} failed")
        return outcome

    def tracking_store(executor, request):
        before = cache._intermediates.get(request.cache_token)
        store(executor, request)
        after = cache._intermediates.get(request.cache_token)
        if after is not None and after is not before:
            creators[id(after)] = request

    monkeypatch.setattr(scheduler_module, "run_request", tracking_run_request)
    monkeypatch.setattr(service.executor, "execute", failing_execute)
    monkeypatch.setattr(cache, "store_intermediate", tracking_store)
    service.run_all()

    for twin in twins:
        assert rows_equal_unordered(twin.result().rows, reference)
    assert doomed.failed
    if kind == "executor":
        assert isinstance(doomed.error, InjectedJobFailure)
        assert live_namespaces(service) == set()
    else:
        assert isinstance(doomed.error, SimulatedFailure)
        checkpoint = doomed.error.checkpoint
        assert live_namespaces(service) <= {checkpoint.run.namespace.lstrip("_")}
        resumed = DynamicOptimizer().resume(checkpoint, service.session("a"))
        assert rows_equal_unordered(resumed.rows, reference)
        assert resumed.metrics.jobs == CLEAN_JOBS
        assert live_namespaces(service) == set()

    visible = [(t, e) for t, e in cache._intermediates.items() if e.visible]
    assert visible
    for token, entry in visible:
        creator = creators.get(id(entry))
        assert creator is not None and id(creator) not in failed, token
        assert (entry_rows(entry), entry.stats.row_count) == clean_entries[token]
