"""One driver: every blocking entry point is a one-query schedule.

``Session.execute``, ``Optimizer.execute`` (a replayed plan tree included)
and ``DynamicOptimizer.resume`` run on a private scheduler like any
submission. So every query they finish is verified once at completion (its
trace goes through the query-completion pass once), carries a schedule
record, and leaves no ``__q*`` dataset behind.
"""

from __future__ import annotations

import pytest

from repro.analysis import runtime
from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.engine.metrics import ExecutionResult
from repro.optimizers import BestOrderOptimizer, available_strategies, make_optimizer

from tests.conftest import build_star_session, star_query


def leftovers(session) -> list[str]:
    return [name for name in session.datasets.names() if name.startswith("__q")]


@pytest.fixture
def verified(monkeypatch) -> list:
    """The traces the query-completion pass ran on, in order."""
    traces = []
    check = runtime.verify_query_completion

    def spy(executor, trace, *args, **kwargs):
        traces.append(trace)
        return check(executor, trace, *args, **kwargs)

    monkeypatch.setattr(runtime, "verify_query_completion", spy)
    return traces


def assert_verified_once(result, verified: list) -> None:
    assert sum(trace is result.trace for trace in verified) == 1


@pytest.mark.parametrize("name", sorted(available_strategies()))
def test_optimizer_execute_is_verified_scheduled_and_released(name, verified):
    session = build_star_session()
    result = make_optimizer(name).execute(star_query(), session)
    assert_verified_once(result, verified)
    assert result.schedule is not None
    assert result.schedule.queue_delay_seconds == 0.0
    assert leftovers(session) == []


def test_execute_tree_is_verified_and_released(verified):
    session = build_star_session()
    plan = DynamicOptimizer().execute(star_query(), session).plan
    result = BestOrderOptimizer(tree=plan).execute(star_query(), session)
    assert_verified_once(result, verified)
    assert result.phases == ["best-order"]
    assert leftovers(session) == []


@pytest.mark.parametrize("fail_after", [1, 3])
def test_resume_finishes_under_the_checkpoints_namespace(fail_after, verified):
    session = build_star_session()
    optimizer = DynamicOptimizer(fail_after_jobs=fail_after)
    with pytest.raises(SimulatedFailure) as failure:
        optimizer.execute(star_query(), session)
    checkpoint = failure.value.checkpoint
    kept = leftovers(session)
    # the failed run's intermediates are its checkpoint, kept in its namespace
    assert kept
    assert all(name.startswith(f"{checkpoint.run.namespace}__") for name in kept)
    # a blocking run in between takes another namespace and drops only its own
    session.execute(star_query())
    assert leftovers(session) == kept

    result = optimizer.resume(checkpoint, session)
    # one query: verified once over the jobs before and after the failure,
    # then released as a whole
    assert_verified_once(result, verified)
    assert result.phases == session.execute(star_query()).phases
    assert leftovers(session) == []


@pytest.mark.parametrize("name", sorted(available_strategies()))
def test_explain_analyze_runs_a_verified_query(name, monkeypatch, verified):
    explained = []
    render = ExecutionResult.explain_analyze

    def spy(result):
        explained.append(result)
        return render(result)

    monkeypatch.setattr(ExecutionResult, "explain_analyze", spy)
    session = build_star_session()
    text = session.execute(star_query(), name).explain_analyze()
    (result,) = explained
    assert text == render(result)
    assert_verified_once(result, verified)
    assert leftovers(session) == []


def test_verifications_hold_one_record_per_job_and_one_per_query(verified):
    session = build_star_session()
    result = session.execute(star_query(), "dynamic")
    # plain dynamic charges no virtual cost: every phase is one gated job,
    # and each job and the query are checked once
    stats = session.executor.verifier_stats
    assert stats.jobs_verified == len(result.phases)
    assert stats.queries_verified == 1
    assert_verified_once(result, verified)
    assert leftovers(session) == []
