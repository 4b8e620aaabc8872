"""Exhaustive checkpoint/resume sweep over a 5-join query.

Injects a simulated failure after *every* job index the driver checkpoints
at, resumes from the carried checkpoint, and verifies the Section-8 recovery
contract each time: the answer is unchanged and no completed join stage is
ever re-executed (the combined job count equals a clean run's).
"""

from __future__ import annotations

import random

import pytest

from repro.common.types import DataType, Schema
from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.lang.builder import QueryBuilder
from repro.session import Session
from repro.testing import evaluate_reference, rows_equal_unordered
from tests.conftest import small_cluster

#: jobs in a clean dynamic run of the sweep query: 1 pushdown + 3 join
#: materializations (6 tables down to the 2-join endgame) + 1 final job.
CLEAN_JOBS = 5
#: the driver checks the failure injector after the pushdown phase and after
#: each join materialization — i.e. at job counts 1..CLEAN_JOBS-1.
CHECKPOINTED_JOB_INDEXES = tuple(range(1, CLEAN_JOBS))

FACT_SCHEMA = Schema.of(
    ("f_id", DataType.INT),
    ("f_k1", DataType.INT),
    ("f_k2", DataType.INT),
    ("f_k3", DataType.INT),
    ("f_k4", DataType.INT),
    ("f_k5", DataType.INT),
    ("f_x", DataType.INT),
    primary_key=("f_id",),
)

DIMENSIONS = (("d1", 40), ("d2", 30), ("d3", 20), ("d4", 15), ("d5", 10))


#: modeled rows per stored fact row: large enough that every one of the three
#: re-optimization points still costs less than the joins behind it (at
#: scale 1 the driver's cost rule fuses them all into the final job).
FACT_SCALE = 1_000_000


def build_sweep_session(seed: int = 11) -> Session:
    session = Session(small_cluster())
    load_sweep_data(session, seed)
    return session


def load_sweep_data(target, seed: int = 11) -> None:
    """Load the sweep universe into anything with ``.load`` (Session/service)."""
    rng = random.Random(seed)
    target.load(
        "fact",
        FACT_SCHEMA,
        [
            {
                "f_id": i,
                "f_k1": rng.randrange(40),
                "f_k2": rng.randrange(30),
                "f_k3": rng.randrange(20),
                "f_k4": rng.randrange(15),
                "f_k5": rng.randrange(10),
                "f_x": rng.randrange(100),
            }
            for i in range(1500)
        ],
        scale=FACT_SCALE,
    )
    for prefix, count in DIMENSIONS:
        schema = Schema.of(
            (f"{prefix}_id", DataType.INT),
            (f"{prefix}_attr", DataType.INT),
            primary_key=(f"{prefix}_id",),
        )
        target.load(
            prefix,
            schema,
            [{f"{prefix}_id": i, f"{prefix}_attr": i % 4} for i in range(count)],
        )


def sweep_query():
    builder = (
        QueryBuilder()
        .select("fact.f_id", "d1.d1_attr")
        .from_table("fact")
        .where_udf("mymod10", "fact.f_x", "=", 3)
    )
    for index, (prefix, _) in enumerate(DIMENSIONS, start=1):
        builder = builder.from_table(prefix).join(
            f"fact.f_k{index}", f"{prefix}.{prefix}_id"
        )
    return builder.build()


@pytest.fixture(scope="module")
def clean_run():
    session = build_sweep_session()
    query = sweep_query()
    result = DynamicOptimizer().execute(query, session)
    session.reset_intermediates()
    reference = evaluate_reference(query, session)
    return result, reference


class TestCheckpointSweep:
    def test_clean_run_shape(self, clean_run):
        """Guard: the sweep below covers every checkpointed job index."""
        result, reference = clean_run
        assert result.metrics.jobs == CLEAN_JOBS
        assert result.phases[0] == "pushdown:fact"
        assert result.phases[-1] == "final"
        assert rows_equal_unordered(result.rows, reference)

    @pytest.mark.parametrize("fail_after", CHECKPOINTED_JOB_INDEXES)
    def test_resume_from_every_checkpoint(self, fail_after, clean_run):
        clean, reference = clean_run
        session = build_sweep_session()
        query = sweep_query()
        optimizer = DynamicOptimizer(fail_after_jobs=fail_after)
        with pytest.raises(SimulatedFailure) as excinfo:
            optimizer.execute(query, session)
        checkpoint = excinfo.value.checkpoint

        # the failure fired at exactly the requested job index, and every
        # join stage completed by then is already materialized on "disk"
        assert checkpoint.run.metrics.jobs == fail_after
        materialized = [
            name
            for name in session.datasets.names()
            if name.startswith(f"{checkpoint.run.namespace}__join_")
        ]
        assert len(materialized) == checkpoint.iteration

        result = optimizer.resume(checkpoint, session)
        session.reset_intermediates()

        assert rows_equal_unordered(result.rows, reference)
        # no completed join stage re-executes: checkpointed + resumed jobs
        # together add up to exactly a clean run's job count
        assert result.metrics.jobs == clean.metrics.jobs
        assert result.phases == clean.phases
        # the checkpointed tracer kept recording: the resumed trace covers
        # the whole run, not just the tail
        assert [s.name for s in result.trace.phase_spans()] == clean.phases
        assert result.trace.root.end_seconds == pytest.approx(result.seconds)
