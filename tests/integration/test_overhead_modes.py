"""Figure-6 experiment machinery at test scale: modes, monotonicity, and
the ablation variants pinned to the compositions they replaced."""

import pytest

from repro.bench.overhead import figure6, overhead_reports
from repro.bench.runner import workbench_for_query
from repro.bench.sweep import Key, Sweep, _tree_with_materialized_filters, execute
from repro.core.driver import DynamicOptimizer
from repro.core.predicate_pushdown import intermediate_name_for
from repro.testing import rows_equal_unordered

SWEEP = Sweep()


def overhead_report(query: str):
    (report,) = overhead_reports(SWEEP.run(figure6((10,), (query,))))
    return report


class TestOverheadModes:
    @pytest.mark.parametrize("query", ("Q17", "Q50", "Q8", "Q9"))
    def test_decomposition_is_consistent(self, query):
        report = overhead_report(query)
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
        report = overhead_report(query)
        assert (
            report.full_seconds,
            report.upfront_seconds,
            report.no_online_stats_seconds,
            report.pushdown_variant_seconds,
        ) == self.REFUNDED_RUN_FIGURES[query]

    def test_tree_swap_replaces_filtered_leaves(self):
        bench = workbench_for_query("Q17", 10)
        tree = DynamicOptimizer().execute(bench.query("Q17"), bench.session).plan
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
        baseline = execute(Key("Q50", 10, "dynamic"))
        replay = execute(Key("Q50", 10, "pushdown_replay"))
        assert replay.phases[-1] == "single-job"
        assert rows_equal_unordered(replay.rows, baseline.rows)

    #: (single_shot, no_pushdown) seconds at SF 10, recorded from the
    #: stage-generator compositions these two variants replaced
    ABLATION_FIGURES = {
        "Q17": (9.687465973776712, 13.03630455468082),
        "Q50": (8.528300565491783, 6.826265617552054),
        "Q8": (10.89560368275, 16.44774435875),
        "Q9": (18.321060475, 17.065091675),
    }

    @pytest.mark.parametrize("query", sorted(ABLATION_FIGURES))
    def test_ablations_reproduce_the_compositions(self, query):
        single_shot, no_pushdown = SWEEP.run(
            [Key(query, 10, "single_shot"), Key(query, 10, "no_pushdown")]
        )
        assert (single_shot.seconds, no_pushdown.seconds) == self.ABLATION_FIGURES[query]
