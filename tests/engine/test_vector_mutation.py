"""Mutation tests: the golden-fingerprint harness must catch a broken kernel.

Each test plants one specific defect in a kernel (the free functions in
``repro.engine.vector`` exist exactly so they can be patched here — always
the body that runs, never a name that merely forwards to it) and asserts the
golden check FAILS — proving the harness has the sensitivity the data
plane's guarantee rests on. The first test pins the clean baseline
every mutation is measured against, in the style of the plan verifier's
mutation suite.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster.cost import CostModel
from repro.common.types import DataType
from repro.engine import vector
from repro.engine.data import ColumnPartition, ColumnarData
from repro.engine.metrics import JobMetrics
from repro.engine.operators import select
from repro.engine.operators.base import ExecState
from repro.engine.operators.select import SelectOp
from repro.lang.ast import ComparisonPredicate, EvaluationContext
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog

from tests.conftest import small_cluster
from tests.engine.equivalence import assert_matches_golden

CASE = "Q50/from_order"


def test_clean_baseline_passes():
    assert_matches_golden(CASE)


def _inverted_mask(original):
    def inverted(partition, predicates, live, evaluation, chunk_size):
        flipped = tuple(_NegatedPredicate(p) for p in predicates)
        return original(partition, flipped, live, evaluation, chunk_size)

    return inverted


def _dropped_predicate(original):
    def drops_last(partition, predicates, live, evaluation, chunk_size):
        return original(partition, predicates[:-1], live, evaluation, chunk_size)

    return drops_last


def _projection_off_by_one(original):
    def skips_first_survivor(partition, predicates, live, evaluation, chunk_size):
        columns, length = original(partition, predicates, live, evaluation, chunk_size)
        if length:
            return {n: col[1:] for n, col in columns.items()}, length - 1
        return columns, length

    return skips_first_survivor


def _dead_column_gather(original):
    def drops_a_live_column(partition, predicates, live, evaluation, chunk_size):
        columns, length = original(partition, predicates, live, evaluation, chunk_size)
        if columns:
            columns.pop(sorted(columns)[0])
        return columns, length

    return drops_a_live_column


class TestFusedKernelMutations:
    """Flip each branch of the fused filter+project kernel — the one body
    ``SelectOp`` runs on every partition, scanned or already in flight."""

    def _plant(self, monkeypatch, mutation):
        monkeypatch.setattr(
            vector, "fused_filter_project", mutation(vector.fused_filter_project)
        )

    def test_inverted_predicate_mask_is_caught(self, monkeypatch):
        self._plant(monkeypatch, _inverted_mask)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(CASE)

    def test_dropped_predicate_is_caught(self, monkeypatch):
        self._plant(monkeypatch, _dropped_predicate)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(CASE)

    def test_projection_off_by_one_is_caught(self, monkeypatch):
        self._plant(monkeypatch, _projection_off_by_one)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(CASE)

    def test_dead_column_gather_is_caught(self, monkeypatch):
        self._plant(monkeypatch, _dead_column_gather)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(CASE)


class TestPlannerSideKernelMutations:
    """The same four defects, planted where only a planner-side pass can hit
    them: ``SelectOp`` keeps the clean kernel, so the cell can only move
    because ``sketch_online``'s pre-filtering scan ran the mutated one."""

    CELL = "Q50/sketch_online"

    def _plant(self, monkeypatch, mutation):
        clean = vector.fused_filter_project
        monkeypatch.setattr(
            select, "vector", SimpleNamespace(fused_filter_project=clean)
        )
        monkeypatch.setattr(vector, "fused_filter_project", mutation(clean))

    def test_shielded_select_alone_leaves_the_cell_clean(self, monkeypatch):
        self._plant(monkeypatch, lambda original: original)
        assert_matches_golden(self.CELL)

    @pytest.mark.parametrize(
        "mutation", [_inverted_mask, _dropped_predicate, _projection_off_by_one]
    )
    def test_mutated_sketch_pass_moves_the_cell(self, monkeypatch, mutation):
        self._plant(monkeypatch, mutation)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(self.CELL)

    def test_dead_column_gather_breaks_the_sketch_pass(self, monkeypatch):
        # the pass reads every column it asked for, so a dropped one is not
        # a silent divergence but an immediate failure
        self._plant(monkeypatch, _dead_column_gather)
        with pytest.raises(KeyError):
            assert_matches_golden(self.CELL)


class TestJoinKernelMutations:
    def test_reordered_probe_matches_are_caught(self, monkeypatch):
        original = vector.probe_hash_table

        def reversed_matches(table, key_column):
            build_idx, probe_idx = original(table, key_column)
            return build_idx[::-1], probe_idx[::-1]

        monkeypatch.setattr(vector, "probe_hash_table", reversed_matches)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(CASE)


class _NegatedPredicate:
    """Wrapper flipping a predicate's batch verdicts (the planted bug)."""

    def __init__(self, inner):
        self.inner = inner
        self.column = inner.column

    def evaluate_batch(self, values, context):
        return [not ok for ok in self.inner.evaluate_batch(values, context)]


class TestFilterColumnsMutation:
    """A Select over an already-extracted input (no scan under it) is not on
    the bench-query path, so the kernel's chunk handling there is pinned by
    a direct operator-level check against an inline expected row list."""

    VALUES = [(i % 5, i) for i in range(97)]
    EXPECTED = [{"t.a": a, "t.v": v} for a, v in VALUES if a <= 2]
    PREDICATE = ComparisonPredicate("t.a", "<=", 2)

    def _partitions(self) -> list[ColumnPartition]:
        return [
            ColumnPartition(
                {"t.a": [a for a, _ in chunk], "t.v": [v for _, v in chunk]},
                len(chunk),
            )
            for chunk in (self.VALUES[:50], self.VALUES[50:])
        ]

    def _select(self) -> list[dict]:
        columns = {"t.a": DataType.INT, "t.v": DataType.INT}
        data = ColumnarData(self._partitions(), columns)
        op = SelectOp(_Stub(data), (self.PREDICATE,))
        return op.execute(_state()).all_rows()

    def test_clean_operator_baseline(self):
        assert self._select() == self.EXPECTED and self.EXPECTED

    def test_chunk_boundary_mutation_is_caught(self, monkeypatch):
        original = vector.fused_filter_project

        def drops_chunk_tail(partition, predicates, live, evaluation, chunk_size):
            shorter = ColumnPartition(partition.columns, max(0, partition.length - 1))
            return original(shorter, predicates, live, evaluation, chunk_size)

        monkeypatch.setattr(vector, "fused_filter_project", drops_chunk_tail)
        assert self._select() != self.EXPECTED

    def test_filter_columns_is_the_same_kernel(self, monkeypatch):
        """``filter_columns`` survives only as a name the benchmark wraps: it
        must answer as the kernel does, and through it."""
        partition = self._partitions()[0]
        predicates, context = (self.PREDICATE,), EvaluationContext()
        assert vector.filter_columns(
            partition.columns, partition.length, predicates, context, 16
        ) == vector.fused_filter_project(
            partition, predicates, ("t.a", "t.v"), context, 16
        )
        monkeypatch.setattr(vector, "fused_filter_project", lambda *_: "the kernel")
        assert vector.filter_columns({}, 0, predicates, context, 16) == "the kernel"


class _Stub:
    children = ()

    def __init__(self, data):
        self.data = data

    def run(self, state):
        return self.data


def _state() -> ExecState:
    cluster = small_cluster()
    return ExecState(
        cluster=cluster,
        cost=CostModel(cluster),
        datasets=DatasetCatalog(),
        statistics=StatisticsCatalog(),
        evaluation=EvaluationContext(),
        metrics=JobMetrics(),
        chunk_size=16,
    )
