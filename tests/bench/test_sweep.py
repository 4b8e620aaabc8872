"""The sweep runner and the three extension experiments it runs.

Each experiment's predicate is pinned both ways: its full cell list meets it,
and a list that lacks what it claims fails it. The runner is pinned to run
each distinct cell once per CLI invocation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.bench import sweep as sweep_module
from repro.bench.__main__ import main
from repro.bench.sweep import (
    ADAPTIVE_OPTIMIZERS,
    FEEDBACK,
    SKEW_KNOBS,
    STATIC_OPTIMIZERS,
    TRANSFER_VARIANTS,
    TRANSFER_WORKLOADS,
    VARIANTS,
    Sweep,
    feedback_ok,
    format_sweep,
    grouped,
    skew_keys,
    skew_ok,
    transfer_keys,
    transfer_ok,
)
from repro.optimizers import available_strategies


@pytest.fixture(scope="module")
def sweep():
    return Sweep()


class TestSkewSweep:
    def test_full_grid_shows_separation(self, sweep):
        """In an adversarial cell both adaptive planners beat every static
        strategy on simulated time while cost_based's worst Q-error exceeds
        the replan trigger."""
        cells = sweep.run(skew_keys())
        assert len(cells) == len(SKEW_KNOBS) * len(available_strategies())
        assert skew_ok(cells)

    def test_stock_cell_not_sufficient(self, sweep):
        """The condition is about the adversarial regime: the stock universe
        alone must not satisfy it."""
        assert not skew_ok(sweep.run(skew_keys(((0.0, 0.0),))))

    def test_sets_disjoint_and_registered(self):
        registered = set(available_strategies())
        assert set(ADAPTIVE_OPTIMIZERS) <= registered
        assert set(STATIC_OPTIMIZERS) <= registered
        assert not set(ADAPTIVE_OPTIMIZERS) & set(STATIC_OPTIMIZERS)

    def test_format(self, sweep):
        text = format_sweep(sweep.run(skew_keys(((1.3, 0.9),))))
        assert "J2 @ SF 10 skew=1.3 correlation=0.9" in text
        width = max(len(name) for name in VARIANTS)
        rows = text.splitlines()[2:]
        assert len(rows) == len(available_strategies())
        for row in rows:  # no name overflows its column
            assert row[2 : 2 + width].strip() in VARIANTS and row[2 + width] == " "


class TestTransferSweep:
    def test_full_list_shows_both_regimes(self, sweep):
        """Some workload where a transfer variant beats plain dynamic on
        simulated seconds, and some where dynamic beats both."""
        cells = sweep.run(transfer_keys())
        assert len(cells) == len(TRANSFER_WORKLOADS) * (1 + len(TRANSFER_VARIANTS))
        assert transfer_ok(cells)

    def test_single_regime_not_sufficient(self, sweep):
        win_only = sweep.run(transfer_keys((("Q8", 100, 0.0, 0.0),)))
        lose_only = sweep.run(transfer_keys((("Q8", 10, 0.0, 0.0),)))
        assert not transfer_ok(win_only)
        assert not transfer_ok(lose_only)
        assert transfer_ok(win_only + lose_only)

    def test_format(self, sweep):
        text = format_sweep(sweep.run(transfer_keys((("Q8", 10, 0.0, 0.0),))))
        assert text.startswith("Q8 @ SF 10\n")
        assert "predicate_transfer" in text and "dynamic+transfer" in text

    def test_variants_registered(self):
        assert set(available_strategies()) <= set(VARIANTS)
        assert set(TRANSFER_VARIANTS) <= set(VARIANTS)
        # the report's variant column is as wide as the longest name
        assert max(map(len, VARIANTS)) == len("predicate_transfer")

    def test_identical_rows_across_variants(self, sweep):
        """Bloom filters are false-positive-only, so every variant returns
        the same result rows on the same workload."""
        groups = grouped(sweep.run(transfer_keys()))
        for group in groups.values():
            assert len({cell.rows for cell in group.values()}) == 1
        assert groups[(100, "Q8", 0.0, 0.0, False)]["dynamic"].rows > 0


class TestFeedbackExperiment:
    """On the engineered skewed star the policy run must trigger on a Q-error
    miss, change the join order mid-run and finish cheaper than the fixed
    schedule, refresh job included; on the uniform star plain dynamic fuses
    and beats the driver made to take every point."""

    @pytest.fixture(scope="class")
    def cells(self, sweep):
        return sweep.run(FEEDBACK)

    def test_report(self, cells):
        fixed, policy, every_point, fused = cells
        assert fixed.rows == policy.rows  # same answer either way
        assert any(d.action == "replan" for d in policy.decisions)
        assert fixed.plan != policy.plan  # the endgame flipped
        assert policy.seconds < fixed.seconds  # and paid for the refresh

        assert every_point.rows == fused.rows
        assert every_point.decisions == ()
        assert [d.action for d in fused.decisions] == ["fuse"]
        assert fused.seconds < every_point.seconds
        assert feedback_ok(cells)
        assert not feedback_ok(cells[:3])  # a missing cell fails it too

        text = format_sweep(cells)
        assert "replan" in text and "fuse" in text

    @pytest.mark.parametrize(
        "position, change",
        [
            (1, lambda fixed, every_point: {"decisions": ()}),
            (1, lambda fixed, every_point: {"plan": fixed.plan}),
            (1, lambda fixed, every_point: {"metrics": fixed.metrics}),
            (3, lambda fixed, every_point: {"decisions": ()}),
            (3, lambda fixed, every_point: {"metrics": every_point.metrics}),
        ],
        ids=["no-replan", "same-plan", "no-saving", "no-fuse", "fuse-not-cheaper"],
    )
    def test_each_failed_condition_fails_the_verdict(self, cells, position, change):
        broken = list(cells)
        broken[position] = replace(broken[position], **change(cells[0], cells[2]))
        assert not feedback_ok(broken)

    def test_cli_wires_the_experiment(self, capsys):
        assert main(["feedback"]) == 0
        out = capsys.readouterr().out
        assert "Feedback-driven re-planning" in out
        assert "shown: the policy replans" in out

    def test_cli_fails_when_the_verdict_fails(self, monkeypatch, capsys):
        measure = sweep_module.measure

        def no_saving(key, seed=42):
            cell = measure(key, seed)
            if key != FEEDBACK[1]:
                return cell
            return replace(cell, metrics=replace(cell.metrics, compute=1e9))

        monkeypatch.setattr(sweep_module, "measure", no_saving)
        assert main(["feedback"]) == 1
        assert "NOT SHOWN" in capsys.readouterr().out


class TestRunner:
    def test_each_distinct_cell_runs_once(self, monkeypatch, capsys):
        """Figures 7/8, the Q-error report and the appendix plans share cells:
        one invocation runs each of them once."""
        measure = sweep_module.measure
        runs: Counter = Counter()

        def counted(key, seed=42):
            runs[key] += 1
            return measure(key, seed)

        monkeypatch.setattr(sweep_module, "measure", counted)
        assert main(["fig7", "fig8", "qerror", "plans", "--sf", "10"]) == 0
        assert set(runs.values()) == {1}
        # 4 queries x (6 Figure-7 strategies + 5 Figure-8 ones + the 2 the
        # Q-error report adds)
        assert len(runs) == 4 * (6 + 5 + 2)
        capsys.readouterr()

    def test_figure6_shares_figure7_cells(self, monkeypatch, capsys):
        """Figure 6 folds ``dynamic`` and ``best_order`` cells Figure 7 and
        Table 1 also read: one invocation runs them once."""
        measure = sweep_module.measure
        runs: Counter = Counter()

        def counted(key, seed=42):
            runs[key] += 1
            return measure(key, seed)

        monkeypatch.setattr(sweep_module, "measure", counted)
        assert main(["fig6", "fig7", "table1", "--sf", "10"]) == 0
        assert set(runs.values()) == {1}
        # 4 queries x (6 Figure-7 strategies + Figure 6's push-down replay)
        assert len(runs) == 4 * (6 + 1)
        capsys.readouterr()
