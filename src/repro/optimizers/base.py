"""Optimizer interface, the shared final-job tail and the plan-replay helper.

Every optimization strategy implements :class:`Optimizer` as a *stage
generator*: :meth:`Optimizer.stages` starts one
:class:`~repro.engine.scheduler.request.QueryRun`, plans, ``yield``s the
requests the run builds (``run.job`` / ``run.charge``), receives each job's
:class:`~repro.engine.scheduler.request.JobOutcome` back, and finally
returns the run's :class:`~repro.engine.metrics.ExecutionResult`, whose
metrics cover the whole execution (including any overhead jobs the strategy
ran). Every strategy ends the same way — one job that returns rows to the
user — so that tail is written once, in :func:`final_job_stages`.
:meth:`Optimizer.execute` runs the generator as a one-query schedule on a
private job scheduler, the same driver that interleaves concurrent queries:
one code path, one driver.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.algebra.jobgen import build_final_job
from repro.algebra.plan import PlanNode
from repro.engine.metrics import ExecutionResult
from repro.engine.scheduler.request import QueryRun, Stages
from repro.engine.scheduler.scheduler import run_solo
from repro.lang.ast import Query

if TYPE_CHECKING:
    from repro.session import Session


class Optimizer:
    """Base class for optimization strategies."""

    #: registry key / display name
    name = "base"

    def execute(self, query: Query, session: Session) -> ExecutionResult:
        """Run the strategy to completion, blocking (the serial entry)."""
        return run_solo(
            query,
            lambda namespace: self.stages(query, session, namespace=namespace),
            session,
        )

    def stages(self, query: Query, session: Session, namespace: str = "") -> Stages:
        """The strategy as a resumable stage generator.

        ``namespace`` is the scheduler handle's: it prefixes every
        intermediate dataset name, so queries scheduled together cannot
        collide and the scheduler can drop what the query wrote once it
        finishes.
        """
        raise NotImplementedError


def final_job_stages(
    run: QueryRun,
    plan: PlanNode,
    query: Query,
    session: Session,
    *,
    phase: str = "final",
    kind: str = "final",
    described: PlanNode | None = None,
    decisions: Iterable = (),
) -> Stages:
    """The tail of every strategy: one job returning rows to the user.

    Compiles ``plan`` over ``query`` (the run's query as rewritten so far —
    its leaves may be intermediates), runs it as phase ``phase`` and returns
    the run's result. ``described`` is the tree the result reports when it
    is not ``plan`` itself: drivers that materialized intermediates resolve
    them back to the original FROM entries first.
    """
    job = build_final_job(plan, query, session.datasets)
    outcome = yield run.job(phase, job, kind=kind)
    return run.result(outcome.data, described or plan, decisions)


def single_job_stages(
    tree: PlanNode, query: Query, session: Session, namespace: str, label: str = ""
) -> Stages:
    """Stage generator running a fully annotated plan tree as one job."""
    phase = label or "single-job"
    run = QueryRun(query, session, phase, namespace)
    return (
        yield from final_job_stages(
            run, tree, query, session, phase=phase, kind="single"
        )
    )

