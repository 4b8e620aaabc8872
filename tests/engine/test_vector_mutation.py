"""Mutation tests: the golden-fingerprint harness must catch a broken kernel.

Each test plants one specific defect in a kernel (the free functions in
``repro.engine.vector`` exist exactly so they can be patched here) and
asserts the golden check FAILS — proving the harness has the sensitivity
the data plane's guarantee rests on. The first test pins the clean baseline
every mutation is measured against, in the style of the plan verifier's
mutation suite.
"""

from __future__ import annotations

import pytest

from repro.cluster.cost import CostModel
from repro.common.types import DataType
from repro.engine import vector
from repro.engine.data import ColumnPartition, ColumnarData
from repro.engine.metrics import JobMetrics
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


class TestFusedKernelMutations:
    """Flip each branch of the fused scan+filter+project kernel."""

    def test_inverted_predicate_mask_is_caught(self, monkeypatch):
        original = vector.fused_filter_project

        def inverted(partition, predicates, live, evaluation, chunk_size):
            flipped = tuple(_NegatedPredicate(p) for p in predicates)
            return original(partition, flipped, live, evaluation, chunk_size)

        monkeypatch.setattr(vector, "fused_filter_project", inverted)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(CASE)

    def test_dropped_predicate_is_caught(self, monkeypatch):
        original = vector.fused_filter_project

        def drops_last(partition, predicates, live, evaluation, chunk_size):
            return original(
                partition, predicates[:-1], live, evaluation, chunk_size
            )

        monkeypatch.setattr(vector, "fused_filter_project", drops_last)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(CASE)

    def test_projection_off_by_one_is_caught(self, monkeypatch):
        original = vector.fused_filter_project

        def skips_first_survivor(
            partition, predicates, live, evaluation, chunk_size
        ):
            columns, length = original(
                partition, predicates, live, evaluation, chunk_size
            )
            if length:
                return {n: col[1:] for n, col in columns.items()}, length - 1
            return columns, length

        monkeypatch.setattr(
            vector, "fused_filter_project", skips_first_survivor
        )
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(CASE)

    def test_dead_column_gather_is_caught(self, monkeypatch):
        original = vector.fused_filter_project

        def drops_a_live_column(
            partition, predicates, live, evaluation, chunk_size
        ):
            columns, length = original(
                partition, predicates, live, evaluation, chunk_size
            )
            if columns:
                columns.pop(sorted(columns)[0])
            return columns, length

        monkeypatch.setattr(
            vector, "fused_filter_project", drops_a_live_column
        )
        with pytest.raises(AssertionError, match="diverges from the golden"):
            assert_matches_golden(CASE)


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
    """``filter_columns`` serves already-extracted inputs (no lazy scan under
    the Select); it is not on the bench-query path, so its mutation is pinned
    by a direct operator-level check against an inline expected row list."""

    VALUES = [(i % 5, i) for i in range(97)]
    EXPECTED = [{"t.a": a, "t.v": v} for a, v in VALUES if a <= 2]

    def _select(self) -> list[dict]:
        columns = {"t.a": DataType.INT, "t.v": DataType.INT}
        partitions = [
            ColumnPartition(
                {"t.a": [a for a, _ in chunk], "t.v": [v for _, v in chunk]},
                len(chunk),
            )
            for chunk in (self.VALUES[:50], self.VALUES[50:])
        ]
        predicate = ComparisonPredicate("t.a", "<=", 2)
        op = SelectOp(_Stub(ColumnarData(partitions, columns)), (predicate,))
        return op.execute(_state()).all_rows()

    def test_clean_operator_baseline(self):
        assert self._select() == self.EXPECTED and self.EXPECTED

    def test_chunk_boundary_mutation_is_caught(self, monkeypatch):
        original = vector.filter_columns

        def drops_chunk_tail(columns, length, predicates, evaluation, chunk_size):
            return original(
                columns, max(0, length - 1), predicates, evaluation, chunk_size
            )

        monkeypatch.setattr(vector, "filter_columns", drops_chunk_tail)
        assert self._select() != self.EXPECTED


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
