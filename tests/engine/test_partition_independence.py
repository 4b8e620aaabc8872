"""Host work does not scale with the modeled partition count.

The modeled cluster's partitions are what the cost clock charges; the host
runs every kernel once per operator over the dataflow's one batch
(DESIGN.md §10.1). So the same query over the same rows, stored in 4 or in
40 partitions, makes the same number of filter-kernel, predicate-batch and
gather calls in every job — and in the planner-side passes between jobs.
(Before the batch, SF 10's Q9 under ``dynamic`` made 10x the
``fused_filter_project`` calls at 40 partitions.)
"""

from __future__ import annotations

import pytest

from repro.cluster.config import ClusterConfig
from repro.engine import vector
from repro.engine.executor import Executor
from repro.lang import ast
from repro.session import Session
from repro.spec import PlannerSpec
from repro.workloads import get_workload

COUNTED = ("fused_filter_project", "evaluate_batch", "gather")


@pytest.fixture(scope="module")
def sessions():
    """The TPC-H universe at SF 10 on a 4-partition and a 40-partition cluster."""
    out = {}
    for nodes in (1, 10):
        session = Session(ClusterConfig(nodes=nodes, cores_per_node=4))
        get_workload("tpch", 10).load_into(session)
        out[session.executor.cluster.partitions] = session
    return out


def counted_run(session, strategy: str, monkeypatch) -> list[tuple]:
    """Run Q9; per job, and per stretch of planner-side work before each job
    and after the last: the job's label and each counted call's count."""
    counts = dict.fromkeys(COUNTED, 0)

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    for name in ("fused_filter_project", "gather"):
        monkeypatch.setattr(vector, name, counting(name, getattr(vector, name)))
    for cls in vars(ast).values():
        if isinstance(cls, type) and "evaluate_batch" in vars(cls):
            monkeypatch.setattr(
                cls, "evaluate_batch", counting("evaluate_batch", cls.evaluate_batch)
            )
    stretches: list[tuple] = []
    execute = Executor.execute

    def per_job(self, job, *args, **kwargs):
        stretches.append(("between jobs", *counts.values()))
        counts.update(dict.fromkeys(COUNTED, 0))
        out = execute(self, job, *args, **kwargs)
        stretches.append((job.label, *counts.values()))
        counts.update(dict.fromkeys(COUNTED, 0))
        return out

    monkeypatch.setattr(Executor, "execute", per_job)
    query = get_workload("tpch", 10).queries["Q9"]()
    try:
        result = session.execute(query, PlannerSpec.of(strategy))
    finally:
        session.reset_intermediates()
        monkeypatch.undo()
    stretches.append(("after the last job", *counts.values()))
    return [result.plan_description, result.rows, stretches]


@pytest.mark.parametrize(
    "strategy", ["dynamic", "cost_based", "predicate_transfer", "sketch_online", "pilot_run"]
)
def test_kernel_calls_per_job_are_independent_of_partitions(
    sessions, strategy, monkeypatch
):
    few = counted_run(sessions[4], strategy, monkeypatch)
    many = counted_run(sessions[40], strategy, monkeypatch)
    assert few[0] == many[0]  # the same plan, so the same jobs
    assert sorted(map(repr, few[1])) == sorted(map(repr, many[1]))
    assert few[2] == many[2]
    assert sum(stretch[1] for stretch in many[2]) > 0  # the kernel did run
