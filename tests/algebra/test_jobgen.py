"""Job construction tests: compilation, projection push-down, Figure 4 jobs."""

import pytest

from repro.algebra.jobgen import (
    build_final_job,
    build_pushdown_job,
    build_sink_job,
    compile_plan,
    leaf_provides,
    node_provides,
    query_required_columns,
)
from repro.algebra.plan import JoinNode, LeafNode
from repro.algebra.toolkit import PlannerToolkit
from repro.common.errors import PlanError
from repro.engine.operators.joins import JoinAlgorithm
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.select import ProjectOp, SelectOp
from repro.engine.operators.sink import DistributeResultOp, SinkOp
from repro.lang.ast import ComparisonPredicate

from tests.conftest import star_query


def fact_da_plan(toolkit, algorithm=JoinAlgorithm.BROADCAST):
    conditions = toolkit.conditions_across(frozenset(("fact",)), frozenset(("da",)))
    node = toolkit.make_join(toolkit.leaf("da"), toolkit.leaf("fact"), conditions)
    return node.with_algorithm(algorithm)


@pytest.fixture
def toolkit(star_session):
    return PlannerToolkit(star_query(), star_session)


class TestCompile:
    def test_leaf_with_predicates_gets_select(self, star_session, toolkit):
        op = compile_plan(toolkit.leaf("da"), star_session.datasets)
        assert isinstance(op, SelectOp)
        assert isinstance(op.children[0], ScanOp)

    def test_plain_leaf_is_scan(self, star_session, toolkit):
        op = compile_plan(toolkit.leaf("fact"), star_session.datasets)
        assert isinstance(op, ScanOp)

    def test_intermediate_leaf_is_reader(self, star_session):
        from repro.storage.ingest import register_intermediate
        from repro.common.types import DataType, Schema

        register_intermediate(
            "inter",
            Schema.of(("fact.f_a", DataType.INT)),
            {},
            [0, 0],
            None,
            star_session.datasets,
        )
        leaf = LeafNode("inter", "inter", is_intermediate=True)
        op = compile_plan(leaf, star_session.datasets)
        assert isinstance(op, ReaderOp)

    def test_inl_probe_must_be_base_leaf(self, star_session, toolkit):
        inner = fact_da_plan(toolkit)
        bad = JoinNode(
            build=toolkit.leaf("db"),
            probe=inner,
            build_keys=("db.b_id",),
            probe_keys=("fact.f_b",),
            algorithm=JoinAlgorithm.INDEX_NESTED_LOOP,
        )
        with pytest.raises(PlanError):
            compile_plan(bad, star_session.datasets)

    def test_inl_probe_must_be_predicate_free(self, star_session, toolkit):
        bad = JoinNode(
            build=toolkit.leaf("db"),
            probe=toolkit.leaf("da"),  # has predicates
            build_keys=("db.b_id",),
            probe_keys=("da.a_id",),
            algorithm=JoinAlgorithm.INDEX_NESTED_LOOP,
        )
        with pytest.raises(PlanError):
            compile_plan(bad, star_session.datasets)


class TestProjectionPushdown:
    def test_projection_inserted_when_required_given(self, star_session, toolkit):
        plan = fact_da_plan(toolkit)
        op = compile_plan(plan, star_session.datasets, {"fact.f_val"})
        assert isinstance(op, ProjectOp)
        assert set(op.columns) <= {"fact.f_val"}

    def test_leaf_projection_keeps_keys(self, star_session, toolkit):
        plan = fact_da_plan(toolkit)
        job = build_final_job(plan, star_query(), star_session.datasets)
        data, _ = star_session.executor.execute(job)
        # executing works because join keys survived below the join
        assert data.row_count >= 0

    def test_no_projection_without_required(self, star_session, toolkit):
        op = compile_plan(fact_da_plan(toolkit), star_session.datasets)
        assert not isinstance(op, ProjectOp)

    def test_query_required_columns(self):
        query = star_query()
        required = query_required_columns(query)
        assert "fact.f_val" in required and "da.a_attr" in required

    def test_provides_helpers(self, star_session, toolkit):
        leaf = toolkit.leaf("da")
        assert leaf_provides(leaf, star_session.datasets) == {"da.a_id", "da.a_attr"}
        plan = fact_da_plan(toolkit)
        provides = node_provides(plan, star_session.datasets)
        assert {"da.a_id", "fact.f_val"} <= provides


class TestJobBuilders:
    def test_final_job_shape(self, star_session, toolkit):
        job = build_final_job(fact_da_plan(toolkit), star_query(), star_session.datasets)
        assert isinstance(job.root, DistributeResultOp)
        assert job.phase == "final"

    def test_final_job_with_tail(self, star_session, toolkit):
        query = star_query()
        from dataclasses import replace

        grouped = replace(
            query, group_by=("da.a_attr",), order_by=("da.a_attr",), limit=3
        )
        job = build_final_job(fact_da_plan(toolkit), grouped, star_session.datasets)
        data, _ = star_session.executor.execute(job)
        assert data.row_count <= 3
        assert all("count" in row for row in data.all_rows())

    def test_sink_job_materializes(self, star_session, toolkit):
        job = build_sink_job(
            fact_da_plan(toolkit),
            "i0",
            ("fact.f_val", "fact.f_b"),
            ("fact.f_b",),
            star_session.datasets,
        )
        assert isinstance(job.root, SinkOp)
        star_session.executor.execute(job)
        assert star_session.datasets.get("i0").is_intermediate

    def test_pushdown_job(self, star_session):
        from repro.lang.ast import TableRef

        job = build_pushdown_job(
            TableRef("da", "da"),
            (ComparisonPredicate("da.a_attr", "=", 2),),
            ("da.a_id",),
            "filtered_da",
            ("da.a_id",),
        )
        assert job.phase == "pushdown"
        data, metrics = star_session.executor.execute(job)
        assert all(set(row) == {"da.a_id"} for row in data.all_rows())
        assert metrics.materialize > 0

    def test_job_render(self, star_session, toolkit):
        job = build_final_job(fact_da_plan(toolkit), star_query(), star_session.datasets)
        text = job.render()
        assert "Job" in text and "DistributeResult" in text

    def test_jobs_carry_their_source_plan(self, star_session, toolkit):
        plan = fact_da_plan(toolkit)
        final = build_final_job(plan, star_query(), star_session.datasets)
        sink = build_sink_job(plan, "i0", ("fact.f_val",), (), star_session.datasets)
        assert final.plan is plan and sink.plan is plan


class TestErrorPaths:
    """Unknown node types and released namespaces fail loudly, not mid-job."""

    def test_node_provides_rejects_unknown_node(self, star_session):
        class WeirdNode:
            """A plan-node type the analyzers were never taught about."""

        with pytest.raises(PlanError, match="cannot analyze"):
            node_provides(WeirdNode(), star_session.datasets)

    def test_compile_plan_rejects_unknown_node(self, star_session):
        class WeirdNode:
            pass

        with pytest.raises(PlanError, match="cannot compile"):
            compile_plan(WeirdNode(), star_session.datasets)

    def test_reader_over_released_namespace_is_flagged(self, star_session):
        """A sink job recompiled after its ``__q<id>`` namespace was dropped
        (the scheduler's failure cleanup) must verify as P002 before launch,
        not crash mid-query."""
        from repro.analysis.verifier import verify_job
        from repro.common.types import DataType, Schema
        from repro.storage.ingest import register_intermediate

        register_intermediate(
            "__q3_i0",
            Schema.of(("fact.f_a", DataType.INT)),
            {"fact.f_a": (1,)},
            [0, 1],
            None,
            star_session.datasets,
        )
        leaf = LeafNode("__q3_i0", "__q3_i0", is_intermediate=True)
        job = build_sink_job(
            leaf, "__q3_i1", ("fact.f_a",), (), star_session.datasets
        )
        assert verify_job(job, star_session.datasets) == []
        star_session.datasets.drop("__q3_i0")
        codes = [d.code for d in verify_job(job, star_session.datasets)]
        assert "P002" in codes
