"""Figure-6 experiment machinery at test scale: modes, monotonicity."""

import pytest

from repro.bench.overhead import (
    _tree_with_materialized_filters,
    overhead_report,
    pushdown_variant,
)
from repro.bench.runner import workbench_for_query
from repro.core.driver import DynamicOptimizer
from repro.core.predicate_pushdown import intermediate_name_for
from repro.testing import rows_equal_unordered


class TestOverheadModes:
    @pytest.mark.parametrize("query", ("Q17", "Q50", "Q8", "Q9"))
    def test_decomposition_is_consistent(self, query):
        report = overhead_report(query, 10)
        # the full run is never cheaper than the no-online-stats run, which
        # is never cheaper than the upfront replay of the same plan
        assert report.full_seconds >= report.no_online_stats_seconds - 1e-9
        assert report.no_online_stats_seconds >= report.upfront_seconds - 1e-9

    #: (full, upfront, no online statistics, push-down variant) seconds at
    #: SF 10, recorded when the "no online statistics" figure was a second
    #: dynamic run with its statistics charge refunded job by job.
    REFUNDED_RUN_FIGURES = {
        "Q17": (
            15.71885157377671,
            7.151437754680821,
            15.390950566927396,
            10.154745973776713,
        ),
        "Q50": (
            7.82648616549178,
            4.777680017552054,
            7.804786098368493,
            5.77790056549178,
        ),
        "Q8": (
            18.19924435875,
            11.178103682749999,
            17.70924410875,
            12.929603682749999,
        ),
        "Q9": (
            21.838220474999996,
            16.166831674999997,
            21.556020474999997,
            18.381060474999998,
        ),
    }

    @pytest.mark.parametrize("query", sorted(REFUNDED_RUN_FIGURES))
    def test_fold_reproduces_the_refunded_run(self, query):
        report = overhead_report(query, 10)
        assert (
            report.full_seconds,
            report.upfront_seconds,
            report.no_online_stats_seconds,
            report.pushdown_variant_seconds,
        ) == self.REFUNDED_RUN_FIGURES[query]

    def test_tree_swap_replaces_filtered_leaves(self):
        bench = workbench_for_query("Q17", 10)
        optimizer = DynamicOptimizer()
        optimizer.execute(bench.query("Q17"), bench.session)
        tree = optimizer.last_tree
        swapped = _tree_with_materialized_filters(
            tree,
            {"d1": intermediate_name_for("d1")},
        )
        d1_leaves = [l for l in swapped.leaves() if l.alias == "d1"]
        assert d1_leaves[0].is_intermediate
        assert d1_leaves[0].predicates == ()
        # other filtered leaves untouched
        d2_leaves = [l for l in swapped.leaves() if l.alias == "d2"]
        assert d2_leaves[0].predicates
        bench.session.reset_intermediates()

    def test_swapped_tree_executes_same_rows(self):
        bench = workbench_for_query("Q50", 10)
        query = bench.query("Q50")
        optimizer = DynamicOptimizer()
        baseline = optimizer.execute(query, bench.session)
        replay = pushdown_variant(query, bench.session, optimizer.last_tree)
        assert replay.phases[-1] == "single-job"
        assert rows_equal_unordered(replay.rows, baseline.rows)
