"""The ``feedback`` experiment end to end (smoke configuration).

This is the acceptance check for the feedback extension: on the engineered
skewed universe the policy run must (a) trigger on a Q-error miss, (b)
provably change the join order mid-run, and (c) finish with a lower
simulated total cost than the fixed schedule, refresh job included.
"""

from __future__ import annotations

from repro.bench.feedback import format_feedback, run_feedback


class TestFeedbackExperiment:
    def test_smoke_report(self):
        report = run_feedback(smoke=True)

        fixed, policy = report.skew
        assert fixed.rows == policy.rows  # same answer either way
        assert any(d.action == "replan" for d in policy.decisions)
        assert report.skew_order_changed  # the endgame flipped
        assert report.skew_improvement > 0.0  # and paid for the refresh

        every_point, fused = report.fuse
        assert every_point.rows == fused.rows
        assert every_point.decisions == ()
        assert [d.action for d in fused.decisions] == ["fuse"]  # plain dynamic
        assert fused.seconds < every_point.seconds

        text = format_feedback(report)
        assert "join order changed mid-run: True" in text
        assert "replan" in text and "fuse" in text

    def test_cli_wires_the_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["feedback", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "Feedback-driven re-planning" in out
        assert "policy decisions" in out
