"""Mutation tests: the golden harness must catch a broken kernel.

Each test plants one specific defect in a kernel (the free functions in
``repro.engine.vector`` exist exactly so they can be patched here — always
the body that runs, never a name that merely forwards to it) and asserts the
golden check FAILS — proving the harness has the sensitivity the data
plane's guarantee rests on. The first test pins the clean baseline
every mutation is measured against, in the style of the plan verifier's
mutation suite.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

import pytest

from repro.cluster.cost import CostModel
from repro.common.types import DataType
from repro.engine import vector
from repro.engine.data import ColumnarData, ColumnBatch
from repro.engine.metrics import JobMetrics
from repro.engine.operators import select
from repro.engine.operators.base import ExecState
from repro.engine.operators.select import SelectOp
from repro.lang.ast import ComparisonPredicate, EvaluationContext
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog

from tests.conftest import small_cluster
from tests.engine.equivalence import RECORD

CASE = "Q50/from_order"


def test_clean_baseline_passes():
    RECORD.check(CASE)


def _inverted_mask(original):
    def inverted(batch, predicates, live, evaluation):
        flipped = tuple(_NegatedPredicate(p) for p in predicates)
        return original(batch, flipped, live, evaluation)

    return inverted


def _dropped_predicate(original):
    def drops_last(batch, predicates, live, evaluation):
        return original(batch, predicates[:-1], live, evaluation)

    return drops_last


def _projection_off_by_one(original):
    def skips_first_survivor(batch, predicates, live, evaluation):
        kept = original(batch, predicates, live, evaluation)
        if kept.length:
            return ColumnBatch(
                {n: col[1:] for n, col in kept.columns.items()},
                [max(0, bound - 1) for bound in kept.bounds],
            )
        return kept

    return skips_first_survivor


def _dead_column_gather(original):
    def drops_a_live_column(batch, predicates, live, evaluation):
        kept = original(batch, predicates, live, evaluation)
        if kept.columns:
            kept.columns.pop(sorted(kept.columns)[0])
        return kept

    return drops_a_live_column


class TestFusedKernelMutations:
    """Flip each branch of the fused filter+project kernel — the one body
    ``SelectOp`` runs on every batch, scanned or already in flight."""

    def _plant(self, monkeypatch, mutation):
        monkeypatch.setattr(
            vector, "fused_filter_project", mutation(vector.fused_filter_project)
        )

    def test_inverted_predicate_mask_is_caught(self, monkeypatch):
        """The failure prints the metrics lines that moved."""
        self._plant(monkeypatch, _inverted_mask)
        with pytest.raises(AssertionError, match="diverges from the golden") as failure:
            RECORD.check(CASE)
        assert re.search(r"^-tuples_joined=\d+\n\+tuples_joined=\d+$", str(failure.value), re.M)

    def test_dropped_predicate_is_caught(self, monkeypatch):
        self._plant(monkeypatch, _dropped_predicate)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            RECORD.check(CASE)

    def test_projection_off_by_one_is_caught(self, monkeypatch):
        self._plant(monkeypatch, _projection_off_by_one)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            RECORD.check(CASE)

    def test_dead_column_gather_is_caught(self, monkeypatch):
        self._plant(monkeypatch, _dead_column_gather)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            RECORD.check(CASE)


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
        RECORD.check(self.CELL)

    @pytest.mark.parametrize(
        "mutation", [_inverted_mask, _dropped_predicate, _projection_off_by_one]
    )
    def test_mutated_sketch_pass_moves_the_cell(self, monkeypatch, mutation):
        self._plant(monkeypatch, mutation)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            RECORD.check(self.CELL)

    def test_dead_column_gather_breaks_the_sketch_pass(self, monkeypatch):
        # the pass reads every column it asked for, so a dropped one is not
        # a silent divergence but an immediate failure
        self._plant(monkeypatch, _dead_column_gather)
        with pytest.raises(KeyError):
            RECORD.check(self.CELL)


class TestJoinKernelMutations:
    def test_reordered_probe_matches_are_caught(self, monkeypatch):
        original = vector.probe_hash_table

        def reversed_matches(table, key_column):
            build_idx, probe_idx = original(table, key_column)
            return build_idx[::-1], probe_idx[::-1]

        monkeypatch.setattr(vector, "probe_hash_table", reversed_matches)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            RECORD.check(CASE)

    def test_unstable_group_order_is_caught(self, monkeypatch):
        """Each key's build rows come out in reverse build order, as an
        unstable sort by group id could leave them."""
        original = vector.build_hash_table

        def unstable(key_column):
            table = original(key_column)
            if table.groups is not None:
                order, bounds = table.groups
                for start, end in zip(bounds, bounds[1:]):
                    order[start:end] = order[start:end][::-1]
            return table

        monkeypatch.setattr(vector, "build_hash_table", unstable)
        with pytest.raises(AssertionError, match="diverges from the golden"):
            RECORD.check(CASE)


class _NegatedPredicate:
    """Wrapper flipping a predicate's batch verdicts (the planted bug)."""

    def __init__(self, inner):
        self.inner = inner
        self.column = inner.column

    def evaluate_batch(self, values, context):
        return [not ok for ok in self.inner.evaluate_batch(values, context)]


class TestFilterColumnsMutation:
    """A Select over an already-extracted input (no scan under it) is not on
    the bench-query path, so the kernel's handling of partition ends there is
    pinned by a direct operator-level check against an inline expected row
    list and partition bounds."""

    VALUES = [(i % 5, i) for i in range(97)]
    EXPECTED = [{"t.a": a, "t.v": v} for a, v in VALUES if a <= 2]
    #: survivors per partition: rows 0-49 and 50-96
    EXPECTED_BOUNDS = [0, 30, 59]
    PREDICATE = ComparisonPredicate("t.a", "<=", 2)

    def _batch(self) -> ColumnBatch:
        return ColumnBatch(
            {"t.a": [a for a, _ in self.VALUES], "t.v": [v for _, v in self.VALUES]},
            [0, 50, 97],
        )

    def _select(self) -> ColumnarData:
        columns = {"t.a": DataType.INT, "t.v": DataType.INT}
        data = ColumnarData(self._batch(), columns)
        op = SelectOp(_Stub(data), (self.PREDICATE,))
        return op.execute(_state())

    def test_clean_operator_baseline(self):
        out = self._select()
        assert out.all_rows() == self.EXPECTED and self.EXPECTED
        assert out.batch.bounds == self.EXPECTED_BOUNDS

    def test_chunk_boundary_mutation_is_caught(self, monkeypatch):
        original = vector.fused_filter_project

        def drops_last_row(batch, predicates, live, evaluation):
            bounds = batch.bounds[:-1] + [max(0, batch.length - 1)]
            return original(ColumnBatch(batch.columns, bounds), predicates, live, evaluation)

        monkeypatch.setattr(vector, "fused_filter_project", drops_last_row)
        assert self._select().all_rows() != self.EXPECTED

    def test_partition_bounds_mutation_is_caught(self, monkeypatch):
        """A kernel that keeps the right rows but loses track of which
        partition holds them."""
        original = vector.fused_filter_project

        def ignores_partitions(batch, predicates, live, evaluation):
            kept = original(batch, predicates, live, evaluation)
            return ColumnBatch(kept.columns, [0] * (len(kept.bounds) - 1) + [kept.length])

        monkeypatch.setattr(vector, "fused_filter_project", ignores_partitions)
        out = self._select()
        assert out.all_rows() == self.EXPECTED
        assert out.batch.bounds != self.EXPECTED_BOUNDS

    def test_filter_columns_is_the_same_kernel(self, monkeypatch):
        """``filter_columns`` survives only as a name the benchmark wraps: it
        must answer as the kernel does over one partition, and through it."""
        batch = self._batch()
        one = ColumnBatch(batch.columns, [0, batch.length])
        predicates, context = (self.PREDICATE,), EvaluationContext()
        got = vector.filter_columns(batch.columns, batch.length, predicates, context)
        want = vector.fused_filter_project(one, predicates, ("t.a", "t.v"), context)
        assert (got.columns, got.bounds) == (want.columns, want.bounds)
        monkeypatch.setattr(vector, "fused_filter_project", lambda *_: "the kernel")
        assert vector.filter_columns({}, 0, predicates, context) == "the kernel"


class _CountingPredicate:
    """Wrapper counting the batches a predicate is asked to evaluate."""

    def __init__(self, inner):
        self.inner = inner
        self.column = inner.column
        self.calls = 0

    def evaluate_batch(self, values, context):
        self.calls += 1
        return self.inner.evaluate_batch(values, context)


class TestOnePassPerPartition:
    """Restated for the batch: one pass per *operator*, however many
    partitions the batch spans."""

    def test_each_predicate_evaluates_one_batch_per_partition(self):
        rows = 3000
        predicates = (
            _CountingPredicate(ComparisonPredicate("t.a", "<", 2)),
            _CountingPredicate(ComparisonPredicate("t.v", ">=", 100)),
        )
        batch = ColumnBatch(
            {"t.a": [i % 5 for i in range(rows)], "t.v": list(range(rows))},
            list(range(0, rows + 1, 75)),  # 40 partitions
        )
        data = ColumnarData(batch, {"t.a": DataType.INT, "t.v": DataType.INT})
        out = SelectOp(_Stub(data), predicates).execute(_state())
        assert [p.calls for p in predicates] == [1, 1]
        assert out.row_count == sum(1 for i in range(100, rows) if i % 5 < 2)
        assert len(out.batch.bounds) == 41


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
    )
