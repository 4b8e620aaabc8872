"""Mutation tests: every verifier rule fires on exactly the bug it names.

Each test plants one specific defect in an otherwise healthy job or plan and
asserts the expected code — and only defects trip: the first test pins the
clean-baseline behavior every mutation is measured against.
"""

from dataclasses import replace

import pytest

from repro.algebra.jobgen import build_final_job
from repro.algebra.plan import JoinNode, LeafNode
from repro.algebra.toolkit import PlannerToolkit
from repro.analysis.diagnostics import (
    LINT_RULES,
    PLAN_RULES,
    QUERY_RULES,
    RULES,
    Diagnostic,
    PlanVerificationError,
)
from repro.analysis.verifier import verify_job, verify_plan
from repro.cluster.config import ClusterConfig
from repro.common.types import DataType, Schema
from repro.engine.job import Job
from repro.engine.operators.joins import HashJoinOp, JoinAlgorithm
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.select import ProjectOp, SelectOp
from repro.engine.operators.sink import DistributeResultOp, SinkOp
from repro.lang.ast import ComparisonPredicate

from tests.conftest import build_star_session, star_query


def codes(diagnostics: list[Diagnostic]) -> list[str]:
    return [d.code for d in diagnostics]


@pytest.fixture
def session():
    return build_star_session()


@pytest.fixture
def toolkit(session):
    return PlannerToolkit(star_query(), session)


def fact_da_join(toolkit) -> JoinNode:
    conditions = toolkit.conditions_across(
        frozenset(("fact",)), frozenset(("da",))
    )
    return toolkit.make_join(toolkit.leaf("fact"), toolkit.leaf("da"), conditions)


class TestCleanBaseline:
    def test_rule_produced_final_job_is_clean(self, session, toolkit):
        job = build_final_job(fact_da_join(toolkit), star_query(), session.datasets)
        diagnostics = verify_job(
            job,
            session.datasets,
            statistics=session.statistics,
            cluster=session.cluster,
            cost=session.executor.cost,
        )
        assert diagnostics == []

    def test_plan_rules_without_statistics_still_run(self, session, toolkit):
        # No statistics -> the estimate-based P005 degrades gracefully while
        # the catalog-only rules (P004, P006) still apply.
        assert verify_plan(fact_da_join(toolkit), session.datasets) == []


class TestP001DanglingColumn:
    def test_select_on_missing_column(self, session):
        root = DistributeResultOp(
            SelectOp(
                ScanOp("da", "da"),
                (ComparisonPredicate("da.no_such", "=", 1),),
            )
        )
        job = Job(root, label="broken", phase="final")
        assert "P001" in codes(verify_job(job, session.datasets))

    def test_sink_keeping_missing_column(self, session):
        root = SinkOp(ScanOp("da", "da"), "i0", ("da.a_id", "da.ghost"))
        job = Job(root, label="broken", phase="join-1")
        assert "P001" in codes(verify_job(job, session.datasets))


class TestP002SourceKind:
    def test_reader_on_released_namespace(self, session):
        root = SinkOp(ReaderOp("__q7_i0"), "i1", ())
        job = Job(root, label="broken", phase="join-2")
        found = verify_job(job, session.datasets)
        assert "P002" in codes(found)
        assert any("released namespace" in d.message for d in found)

    def test_scan_of_unknown_dataset(self, session):
        job = Job(DistributeResultOp(ScanOp("nope", "n")), phase="final")
        assert "P002" in codes(verify_job(job, session.datasets))

    def test_reader_on_base_dataset(self, session):
        job = Job(SinkOp(ReaderOp("da"), "i0", ()), phase="join-1")
        assert "P002" in codes(verify_job(job, session.datasets))


class TestP003PhaseTail:
    def test_final_phase_ending_in_sink(self, session):
        job = Job(SinkOp(ScanOp("da", "da"), "i0", ("da.a_id",)), phase="final")
        assert "P003" in codes(verify_job(job, session.datasets))

    def test_materializing_phase_ending_in_distribute(self, session):
        job = Job(DistributeResultOp(ScanOp("da", "da")), phase="pushdown:da")
        assert "P003" in codes(verify_job(job, session.datasets))

    def test_untagged_job_needs_some_tail(self, session):
        job = Job(ScanOp("da", "da"), phase="")
        assert "P003" in codes(verify_job(job, session.datasets))


class TestP004KeyTypes:
    @pytest.fixture
    def typed_session(self, session):
        session.load(
            "names",
            Schema.of(
                ("n_key", DataType.STRING),
                ("n_label", DataType.STRING),
                primary_key=("n_key",),
            ),
            [{"n_key": str(i), "n_label": f"n{i}"} for i in range(10)],
        )
        return session

    def test_int_joined_to_string(self, typed_session):
        plan = JoinNode(
            build=LeafNode("names", "names"),
            probe=LeafNode("fact", "fact"),
            build_keys=("names.n_key",),
            probe_keys=("fact.f_a",),
        )
        assert "P004" in codes(verify_plan(plan, typed_session.datasets))

    def test_numeric_class_is_compatible(self, typed_session):
        # INT-to-INT joins (and the wider numeric/ordinal class) never trip.
        plan = JoinNode(
            build=LeafNode("da", "da"),
            probe=LeafNode("fact", "fact"),
            build_keys=("da.a_id",),
            probe_keys=("fact.f_a",),
        )
        assert codes(verify_plan(plan, typed_session.datasets)) == []


class TestP005BroadcastBudget:
    def plan_args(self, session):
        return dict(
            statistics=session.statistics,
            cluster=session.cluster,
            cost=session.executor.cost,
        )

    def big_build_broadcast(self) -> JoinNode:
        # fact is 2000 stored rows at scale 10_000 — far over the 40 MB
        # broadcast budget; built directly so no decision was recorded.
        return JoinNode(
            build=LeafNode("fact", "fact"),
            probe=LeafNode("da", "da"),
            build_keys=("fact.f_a",),
            probe_keys=("da.a_id",),
            algorithm=JoinAlgorithm.BROADCAST,
        )

    def test_unrecorded_over_budget_broadcast(self, session):
        plan = self.big_build_broadcast()
        assert "P005" in codes(
            verify_plan(plan, session.datasets, **self.plan_args(session))
        )

    def test_recorded_over_budget_broadcast(self, session, toolkit):
        # A rule-produced join mutated to BROADCAST keeps its recorded
        # decision bytes; when those are over budget the rule fires.
        node = fact_da_join(toolkit)
        forced = replace(
            node,
            algorithm=JoinAlgorithm.BROADCAST,
            decided_build_bytes=9e9,
        )
        assert "P005" in codes(
            verify_plan(forced, session.datasets, **self.plan_args(session))
        )

    def test_recorded_decision_is_trusted(self, session):
        # The planner may know better than ingestion statistics (the
        # best-order baseline replays measured runtime sizes): an in-budget
        # record suppresses the re-estimate even when it would be over.
        plan = replace(self.big_build_broadcast(), decided_build_bytes=1000.0)
        assert codes(
            verify_plan(plan, session.datasets, **self.plan_args(session))
        ) == []

    def test_recorded_decision_needs_no_statistics(self):
        # One leaf has no statistics, so no fresh estimate can be built; the
        # forced broadcast's recorded build (sized by the planner under a
        # 1-byte budget, hence hash) is still over budget.
        session = build_star_session(
            cluster=ClusterConfig(
                nodes=2, cores_per_node=2, broadcast_budget_bytes=1.0
            )
        )
        node = fact_da_join(PlannerToolkit(star_query(), session))
        assert node.algorithm is JoinAlgorithm.HASH
        statistics = session.statistics.copy()
        statistics.remove("fact")
        forced = node.with_algorithm(JoinAlgorithm.BROADCAST)
        found = verify_plan(
            forced,
            session.datasets,
            statistics=statistics,
            cluster=session.cluster,
            cost=session.executor.cost,
        )
        assert codes(found) == ["P005"]

    def test_hash_join_never_budget_checked(self, session):
        plan = replace(
            self.big_build_broadcast(), algorithm=JoinAlgorithm.HASH
        )
        assert codes(
            verify_plan(plan, session.datasets, **self.plan_args(session))
        ) == []


class TestP006CartesianJoin:
    def test_join_without_keys(self, session):
        plan = JoinNode(
            build=LeafNode("fact", "fact"),
            probe=LeafNode("da", "da"),
            build_keys=(),
            probe_keys=(),
        )
        assert codes(verify_plan(plan, session.datasets)) == ["P006"]


class TestP007DuplicateOutput:
    def test_project_with_duplicate_columns(self, session):
        root = DistributeResultOp(
            ProjectOp(ScanOp("da", "da"), ("da.a_id", "da.a_id"))
        )
        job = Job(root, phase="final")
        assert "P007" in codes(verify_job(job, session.datasets))

    def test_join_inputs_colliding(self, session):
        # Both sides provide da.* — the row-dict merge would silently
        # overwrite the probe side's values.
        root = DistributeResultOp(
            HashJoinOp(
                ScanOp("da", "da"),
                ScanOp("da", "da"),
                ("da.a_id",),
                ("da.a_id",),
            )
        )
        job = Job(root, phase="final")
        assert "P007" in codes(verify_job(job, session.datasets))

    def test_sink_with_duplicate_keeps(self, session):
        root = SinkOp(ScanOp("da", "da"), "i0", ("da.a_id", "da.a_id"))
        job = Job(root, phase="join-1")
        assert "P007" in codes(verify_job(job, session.datasets))


class TestDiagnostics:
    def test_rule_tables_cover_all_codes(self):
        assert set(PLAN_RULES) == {f"P00{i}" for i in range(1, 8)}
        assert set(QUERY_RULES) == {f"Q00{i}" for i in range(1, 7)}
        assert set(LINT_RULES) == {f"D00{i}" for i in range(1, 10)} | {"F401", "F821", "W001"}
        assert RULES == {**PLAN_RULES, **QUERY_RULES, **LINT_RULES}

    def test_error_payload(self):
        diagnostics = [
            Diagnostic(code="P002", message="gone", job_label="j", phase="join-1"),
            Diagnostic(code="P006", message="cross", job_label="j", phase="join-1"),
        ]
        error = PlanVerificationError(diagnostics, job_label="j")
        assert error.codes() == ("P002", "P006")
        assert error.diagnostics == tuple(diagnostics)
        assert "P002" in str(error) and "j" in str(error)

    def test_render_mentions_rule_name(self):
        diagnostic = Diagnostic(code="P005", message="too big", job_label="j")
        assert "broadcast-over-budget" in diagnostic.render()
