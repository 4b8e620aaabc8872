"""Feedback-driven re-planning (DESIGN.md §8).

The contract under test: without a policy every execution is the fixed
paper schedule; with one, a bad Q-error miss buys one extra re-optimization
job (sketch refresh) that can flip the endgame join order and pay for itself,
and an unbounded (inf) miss never triggers. Policy or no policy, the driver's
cost rule fuses the remaining joins into the final job when one more
re-optimization point would cost more than they do — and says so in a
decision carrying both sides of the inequality.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

import pytest

from repro.bench.feedback import EveryPoint, fuse_query, load_universe, skew_query
from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.core.policy import REPLAN_QERROR, ReplanPolicy
from repro.obs.trace import Tracer
from repro.session import Session
from repro.testing import rows_equal_unordered


@pytest.fixture(scope="module")
def universe():
    """The engineered skew/uniform universe (smoke size), shared per module."""
    session = Session()
    load_universe(session, smoke=True)
    return session


@pytest.fixture(scope="module")
def full_universe():
    """The same universe at the size ``bench feedback`` reports."""
    session = Session()
    load_universe(session)
    return session


def run(session, query, policy=None, optimizer=None) -> "ExecutionResult":  # noqa: F821
    optimizer = optimizer or DynamicOptimizer(policy=policy)
    try:
        return optimizer.execute(query, session)
    finally:
        session.reset_intermediates()


class TestPolicyValidation:
    def test_constructors(self):
        assert ReplanPolicy.default() == ReplanPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"qerror_threshold": 0.5},
            {"widen_max_tables": 2},
            {"min_history": 0},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        # the policy has no settings: the trigger and bound are constants
        with pytest.raises(TypeError):
            ReplanPolicy(**kwargs)

    def test_is_bad_miss(self):
        policy = ReplanPolicy.default()
        assert REPLAN_QERROR == 4.0
        assert policy.is_bad_miss(4.01)
        assert not policy.is_bad_miss(4.0)
        assert not policy.is_bad_miss(None)
        assert not policy.is_bad_miss(float("nan"))


class TestNonFiniteQError:
    """Regression: ``is_bad_miss`` guarded NaN but not inf, so a degenerate
    zero-estimate stage (infinite Q-error) bought a replan on every
    remaining join. The trigger now applies an isfinite rule."""

    def test_inf_is_not_a_bad_miss(self):
        policy = ReplanPolicy.default()
        assert not policy.is_bad_miss(float("inf"))

    def test_nan_and_none_still_ignored(self):
        policy = ReplanPolicy.default()
        assert not policy.is_bad_miss(float("nan"))
        assert not policy.is_bad_miss(None)

    def test_finite_miss_still_triggers(self):
        policy = ReplanPolicy.default()
        assert policy.is_bad_miss(REPLAN_QERROR * 2)

    def test_all_inf_trace_never_replans(self, universe, monkeypatch):
        """Every stage the policy consults reports an unbounded miss: the
        trigger stays silent and the run is the fixed schedule's."""
        fixed = run(universe, skew_query())
        latest = Tracer.latest_estimate

        def unbounded(self, phase=None):
            record = latest(self, phase)
            return None if record is None else replace(record, estimated_rows=0.0)

        monkeypatch.setattr(Tracer, "latest_estimate", unbounded)
        assert math.isinf(replace(fixed.trace.estimates[0], estimated_rows=0.0).q_error)
        result = run(universe, skew_query(), policy=ReplanPolicy.default())
        assert result.decisions == ()
        assert result.phases == fixed.phases
        assert result.seconds == fixed.seconds


class TestQErrorTrigger:
    def test_bad_miss_triggers_replan_and_flips_the_endgame(self, universe):
        fixed = run(universe, skew_query())
        replanned = run(universe, skew_query(), policy=ReplanPolicy.default())

        actions = [d.action for d in replanned.decisions]
        assert "replan" in actions
        trigger = next(d for d in replanned.decisions if d.action == "replan")
        assert trigger.q_error > trigger.threshold
        assert math.isfinite(trigger.q_error)
        # the refresh ran as a charged phase of its own
        assert "replan:__join_0" in replanned.phases
        # corrected sketches flipped the endgame join order...
        assert replanned.plan_description != fixed.plan_description
        # ...same answer, cheaper run (refresh included)
        assert rows_equal_unordered(replanned.rows, fixed.rows)
        assert replanned.seconds < fixed.seconds

    def test_widened_pick_still_answers_correctly(self, universe):
        fixed = run(universe, skew_query())
        widened = run(universe, skew_query(), policy=ReplanPolicy.default())
        assert rows_equal_unordered(widened.rows, fixed.rows)
        (trigger,) = (d for d in widened.decisions if d.action == "replan")
        assert "widened next pick to bounded enumeration" in trigger.detail

    def test_decisions_describe_readably(self, universe):
        result = run(universe, skew_query(), policy=ReplanPolicy.default())
        text = result.decisions[0].describe()
        assert "replan" in text and "q=" in text


class InfOnRecord(DynamicOptimizer):
    """``dynamic`` whose run starts with one unbounded miss on its record."""

    def prepare_stages(self, run, session):
        run.tracer.record_estimate("prepare", "σ(nothing)", 0.0, 5.0)
        return (yield from super().prepare_stages(run, session))


class TestEarlyFuse:
    """The driver's cost rule: fuse when one more point costs more than the
    joins still to run (DESIGN.md §8); no policy is involved."""

    def test_tight_estimates_fuse_the_tail(self, universe):
        every_point = run(universe, fuse_query(), optimizer=EveryPoint())
        fused = run(universe, fuse_query())  # no policy: the rule is the driver's

        assert every_point.decisions == ()
        (decision,) = fused.decisions
        assert decision.action == "fuse" and decision.phase == "join-0"
        # both sides of the inequality, the factor and the joins fused
        point, remaining, factor = (
            float(number)
            for number in re.findall(r"(\d+\.\d+)(?:s| x|:)", decision.detail)
        )
        assert "the 4 joins still to run" in decision.detail
        assert factor == pytest.approx(decision.q_error, abs=0.005)
        assert point > remaining * factor
        assert decision.threshold == pytest.approx(point / remaining, rel=0.01)
        assert decision.describe() in fused.explain_analyze()
        # both materialization points were skipped: push-downs + one final job
        assert len(fused.phases) == len(every_point.phases) - 2
        assert not any(phase.startswith("join:") for phase in fused.phases)
        assert rows_equal_unordered(fused.rows, every_point.rows)
        assert fused.seconds < every_point.seconds

    def test_policy_does_not_change_the_rule(self, universe):
        plain = run(universe, fuse_query())
        with_policy = run(universe, fuse_query(), policy=ReplanPolicy.default())
        assert with_policy.decisions == plain.decisions
        assert with_policy.seconds == plain.seconds

    def test_an_unbounded_miss_on_record_never_fuses(self, universe):
        every_point = run(universe, fuse_query(), optimizer=EveryPoint())
        result = run(universe, fuse_query(), optimizer=InfOnRecord())
        assert result.decisions == ()
        assert result.phases == every_point.phases
        assert result.seconds == every_point.seconds

    def test_skewed_run_never_fuses(self, full_universe):
        """Each point there costs about a second against several seconds of
        joins behind it, so the schedule the replan policy repairs still
        runs — and the repair's 139.1 -> 62.9 s survives the rule."""
        fixed = run(full_universe, skew_query())
        replanned = run(full_universe, skew_query(), policy=ReplanPolicy.default())
        assert fixed.decisions == ()
        assert [d.action for d in replanned.decisions] == ["replan"]
        assert fixed.seconds == pytest.approx(139.14, abs=0.01)
        assert replanned.seconds == pytest.approx(62.88, abs=0.01)
        assert rows_equal_unordered(replanned.rows, fixed.rows)

    def test_fixed_schedule_comparators_take_every_point(self, universe):
        for name in ("ingres", "pilot_run"):
            result = universe.execute(fuse_query(), name)
            universe.reset_intermediates()
            assert result.decisions == ()
            assert sum(phase.startswith("join:") for phase in result.phases) == 2


class TestCheckpointWithPolicy:
    def test_resume_preserves_thresholds_and_answer(self, universe):
        clean = run(universe, skew_query(), policy=ReplanPolicy.default())

        optimizer = DynamicOptimizer(
            policy=ReplanPolicy.default(), fail_after_jobs=4
        )
        with pytest.raises(SimulatedFailure) as excinfo:
            optimizer.execute(skew_query(), universe)
        checkpoint = excinfo.value.checkpoint
        resumed = optimizer.resume(checkpoint, universe)
        universe.reset_intermediates()

        assert rows_equal_unordered(resumed.rows, clean.rows)
        assert resumed.phases == clean.phases
        assert [d.action for d in resumed.decisions] == [
            d.action for d in clean.decisions
        ]
