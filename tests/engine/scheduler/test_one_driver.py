"""One driver: every blocking entry point is a one-query schedule.

``Optimizer.execute``, ``execute_tree``, ``DynamicOptimizer.resume`` and
``Session.explain``/``explain_analyze`` run on a private scheduler like any
submission. So every query they finish is verified once at completion (one
``phase="query"`` record among its trace's verifications), carries a
schedule record, and leaves no ``__q*`` dataset behind.
"""

from __future__ import annotations

import pytest

from repro.analysis.dataflow import QUERY_RULES_CHECKED
from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.engine.metrics import ExecutionResult
from repro.optimizers import available_strategies, execute_tree, make_optimizer

from tests.conftest import build_star_session, star_query


def query_records(result) -> list:
    return [r for r in result.trace.verifications if r.phase == "query"]


def leftovers(session) -> list[str]:
    return [name for name in session.datasets.names() if name.startswith("__q")]


def assert_verified_once(result) -> None:
    (record,) = query_records(result)
    assert record.clean
    assert record.rules_checked == QUERY_RULES_CHECKED


@pytest.mark.parametrize("name", sorted(available_strategies()))
def test_optimizer_execute_is_verified_scheduled_and_released(name):
    session = build_star_session()
    result = make_optimizer(name).execute(star_query(), session)
    assert_verified_once(result)
    assert result.schedule is not None
    assert result.schedule.queue_delay_seconds == 0.0
    assert leftovers(session) == []


def test_execute_tree_is_verified_and_released():
    session = build_star_session()
    optimizer = DynamicOptimizer()
    optimizer.execute(star_query(), session)
    result = execute_tree(optimizer.last_tree, star_query(), session)
    assert_verified_once(result)
    assert result.phases == ["single-job"]
    assert leftovers(session) == []


@pytest.mark.parametrize("fail_after", [1, 3])
def test_resume_finishes_under_the_checkpoints_namespace(fail_after):
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
    assert_verified_once(result)
    assert result.phases == session.execute(star_query()).phases
    assert leftovers(session) == []


@pytest.mark.parametrize("name", sorted(available_strategies()))
def test_explain_analyze_runs_a_verified_query(name, monkeypatch):
    explained = []
    render = ExecutionResult.explain_analyze

    def spy(result):
        explained.append(result)
        return render(result)

    monkeypatch.setattr(ExecutionResult, "explain_analyze", spy)
    session = build_star_session()
    text = session.explain_analyze(star_query(), name)
    (result,) = explained
    assert text == render(result)
    assert_verified_once(result)
    assert leftovers(session) == []


def test_explain_counts_job_records_only():
    session = build_star_session()
    report = session.explain(star_query(), "dynamic")
    result = build_star_session().execute(star_query(), "dynamic")
    jobs = [r for r in result.trace.verifications if r.phase != "query"]
    # plain dynamic charges no virtual cost: every phase is one gated job
    assert report.verified_jobs == len(jobs) == len(result.phases)
    assert report.diagnostics == ()
    assert f"verifier: {len(jobs)} job(s) checked — clean" in report.describe()
    assert leftovers(session) == []
