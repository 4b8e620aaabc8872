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
