"""Feedback-driven re-planning (DESIGN.md §8).

The contract under test: with the policy *off* every execution is
byte-identical to the fixed paper schedule; with it *on*, a bad Q-error miss
buys one extra re-optimization job (sketch refresh) that can flip the
endgame join order and pay for itself; adaptive thresholds converge to the
session's observed history without a single unbounded (inf) record poisoning
them. Policy or no policy, the driver's cost rule fuses the remaining joins
into the final job when one more re-optimization point would cost more than
they do — and says so in a decision carrying both sides of the inequality.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict

import pytest

from repro.bench.feedback import EveryPoint, fuse_query, load_universe, skew_query
from repro.common.errors import OptimizationError
from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.core.policy import FeedbackLog, ReplanPolicy, RuntimeThresholds
from repro.session import Session
from repro.spec import PlannerSpec
from repro.testing import rows_equal_unordered

from tests.conftest import build_star_session, small_cluster, star_query


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
        assert not ReplanPolicy.off().enabled
        assert ReplanPolicy.default(6.0).qerror_threshold == 6.0
        adaptive = ReplanPolicy.adaptive_policy(min_history=3)
        assert adaptive.adaptive
        assert adaptive.min_history == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"qerror_threshold": 0.5},
            {"widen_max_tables": 2},
            {"min_history": 0},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(OptimizationError):
            ReplanPolicy(**kwargs)

    def test_is_bad_miss(self):
        thresholds = RuntimeThresholds(qerror_threshold=4.0)
        policy = ReplanPolicy.default()
        assert policy.is_bad_miss(4.01, thresholds)
        assert not policy.is_bad_miss(4.0, thresholds)
        assert not policy.is_bad_miss(None, thresholds)
        assert not policy.is_bad_miss(float("nan"), thresholds)
        assert ReplanPolicy.off().is_bad_miss(100.0, thresholds) is False

    def test_resolve_defaults(self):
        assert ReplanPolicy.off().resolve(None) == RuntimeThresholds()
        assert ReplanPolicy.default(7.0).resolve(None) == RuntimeThresholds(
            qerror_threshold=7.0
        )

    def test_resolve_adaptive_without_history_is_static(self):
        session = Session(small_cluster())
        thresholds = ReplanPolicy.adaptive_policy().resolve(session)
        assert thresholds == RuntimeThresholds()


class TestNonFiniteQError:
    """Regression: ``is_bad_miss`` guarded NaN but not inf, so a degenerate
    zero-estimate stage (infinite Q-error) bought a replan on every
    remaining join — while ``observe_qerror`` correctly refused to keep the
    same value. Both sides now apply the same isfinite rule."""

    THRESHOLDS = RuntimeThresholds()

    def test_inf_is_not_a_bad_miss(self):
        policy = ReplanPolicy.default()
        assert not policy.is_bad_miss(float("inf"), self.THRESHOLDS)

    def test_nan_and_none_still_ignored(self):
        policy = ReplanPolicy.default()
        assert not policy.is_bad_miss(float("nan"), self.THRESHOLDS)
        assert not policy.is_bad_miss(None, self.THRESHOLDS)

    def test_finite_miss_still_triggers(self):
        policy = ReplanPolicy.default()
        assert policy.is_bad_miss(
            self.THRESHOLDS.qerror_threshold * 2, self.THRESHOLDS
        )

    def test_all_inf_trace_never_replans(self):
        """An all-inf Q-error history pins the decision: the trigger stays
        silent on every stage, matching what the adaptive window (which
        counts but never keeps inf) would derive."""
        policy = ReplanPolicy.default()
        log = FeedbackLog()
        for _ in range(16):
            log.observe_qerror(float("inf"))
        assert log.records == 0 and log.infinite_records == 16
        assert not any(
            policy.is_bad_miss(float("inf"), self.THRESHOLDS) for _ in range(16)
        )


class TestFeedbackLog:
    def test_infinite_records_are_counted_not_kept(self):
        log = FeedbackLog()
        log.observe_qerror(float("inf"))
        log.observe_qerror(float("nan"))
        log.observe_qerror(2.0)
        assert log.records == 1
        assert log.infinite_records == 2
        assert log.qerror_quantile(0.5) == 2.0

    def test_window_bounds_history(self):
        log = FeedbackLog(window=4)
        for q in (1.0, 2.0, 3.0, 4.0, 5.0):
            log.observe_qerror(q)
        assert log.records == 4
        assert min(log.q_errors) == 2.0

    def test_derive_waits_for_min_history(self):
        log = FeedbackLog()
        policy = ReplanPolicy.adaptive_policy(min_history=8)
        for _ in range(7):
            log.observe_qerror(40.0)
        assert log.derive(policy) == RuntimeThresholds(
            qerror_threshold=policy.qerror_threshold
        )

    def test_derive_chronic_misses_deepen_everything(self):
        log = FeedbackLog()
        policy = ReplanPolicy.adaptive_policy(min_history=8)
        for _ in range(12):
            log.observe_qerror(40.0)
        thresholds = log.derive(policy, small_cluster())
        # tail clamps at 8x the base, median stays above it: chronic misses
        assert thresholds.qerror_threshold == policy.qerror_threshold * 8.0
        assert thresholds.stats_cutoff == 2
        assert thresholds.pushdown_min_predicates == 1

    def test_derive_tight_estimates_relax_the_cutoff(self):
        log = FeedbackLog()
        policy = ReplanPolicy.adaptive_policy(min_history=8)
        for _ in range(12):
            log.observe_qerror(1.1)
        thresholds = log.derive(policy, small_cluster())
        assert thresholds.qerror_threshold == 2.0  # floor
        assert thresholds.stats_cutoff == 4
        assert thresholds.pushdown_min_predicates == 2

    def test_derive_budget_shrinks_with_spills(self):
        log = FeedbackLog()
        policy = ReplanPolicy.adaptive_policy(min_history=4)
        for _ in range(6):
            log.observe_qerror(2.0)
        log.query_costs.append((5.0, 100.0))  # spilled
        log.query_costs.append((0.0, 80.0))
        cluster = small_cluster()
        thresholds = log.derive(policy, cluster)
        assert log.spill_ratio == 0.5
        assert thresholds.broadcast_budget_bytes == pytest.approx(
            cluster.broadcast_threshold_bytes * 0.5
        )

    def test_derive_budget_floor(self):
        log = FeedbackLog()
        policy = ReplanPolicy.adaptive_policy(min_history=4)
        for _ in range(6):
            log.observe_qerror(2.0)
        for _ in range(5):
            log.query_costs.append((1.0, 10.0))  # every query spilled
        cluster = small_cluster()
        thresholds = log.derive(policy, cluster)
        assert thresholds.broadcast_budget_bytes == pytest.approx(
            cluster.broadcast_threshold_bytes * 0.25
        )

    def test_sessions_feed_the_log_through_the_scheduler(self):
        session = build_star_session()
        assert session.feedback.queries == 0
        session.execute(star_query())
        session.reset_intermediates()
        assert session.feedback.queries == 1
        assert session.feedback.records > 0


class TestPolicyOffDeterminism:
    """ReplanPolicy.off() (and no policy at all) is the fixed schedule."""

    def test_off_matches_no_policy(self, universe):
        baseline = run(universe, skew_query())
        off = run(universe, skew_query(), policy=ReplanPolicy.off())
        assert off.rows == baseline.rows
        assert off.plan_description == baseline.plan_description
        assert off.phases == baseline.phases
        assert asdict(off.metrics) == asdict(baseline.metrics)
        assert off.seconds == baseline.seconds
        assert off.decisions == () and baseline.decisions == ()

    def test_high_threshold_never_triggers(self, universe):
        baseline = run(universe, skew_query())
        lenient = run(
            universe, skew_query(), policy=ReplanPolicy.default(qerror_threshold=100.0)
        )
        assert lenient.decisions == ()
        assert lenient.phases == baseline.phases
        assert lenient.seconds == baseline.seconds


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

    def test_refresh_can_be_disabled(self, universe):
        policy = ReplanPolicy(refresh_sketches=False, widen_search=False)
        result = run(universe, skew_query(), policy=policy)
        # the miss is still logged, but no refresh job ran
        assert [d.action for d in result.decisions] == ["replan"]
        assert not any(p.startswith("replan:") for p in result.phases)

    def test_widened_pick_still_answers_correctly(self, universe):
        fixed = run(universe, skew_query())
        policy = ReplanPolicy(refresh_sketches=False, widen_search=True)
        widened = run(universe, skew_query(), policy=policy)
        assert rows_equal_unordered(widened.rows, fixed.rows)
        assert any(d.action == "replan" for d in widened.decisions)

    def test_decisions_describe_readably(self, universe):
        result = run(universe, skew_query(), policy=ReplanPolicy.default())
        text = result.decisions[0].describe()
        assert "replan" in text and "q=" in text


class InfOnRecord(DynamicOptimizer):
    """``dynamic`` whose run starts with one unbounded miss on its record."""

    def prepare_stages(self, run, session):
        run.tracer.record_estimate("prepare", "σ(nothing)", 0.0, 5.0)
        yield from ()


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


class TestAdaptiveSession:
    def test_threshold_converges_to_observed_history(self):
        session = Session()
        load_universe(session, smoke=True)
        policy = ReplanPolicy.adaptive_policy(min_history=4)
        spec = PlannerSpec.of("dynamic", policy=policy)

        first = policy.resolve(session)
        assert first == RuntimeThresholds()  # no history yet

        session.execute(skew_query(), spec)
        session.reset_intermediates()
        adapted = policy.resolve(session)
        assert adapted != first
        assert adapted.qerror_threshold >= 2.0
        assert adapted.qerror_threshold <= policy.qerror_threshold * 8.0

        # the adapted run still answers correctly and still triggers
        result = session.execute(skew_query(), spec)
        session.reset_intermediates()
        assert any(d.action == "replan" for d in result.decisions)


class TestCheckpointWithPolicy:
    def test_resume_preserves_thresholds_and_answer(self, universe):
        clean = run(universe, skew_query(), policy=ReplanPolicy.default())

        optimizer = DynamicOptimizer(
            policy=ReplanPolicy.default(), fail_after_jobs=4
        )
        with pytest.raises(SimulatedFailure) as excinfo:
            optimizer.execute(skew_query(), universe)
        checkpoint = excinfo.value.checkpoint
        # the checkpoint carries the resolved thresholds and policy state
        assert checkpoint.thresholds == RuntimeThresholds(qerror_threshold=4.0)
        resumed = optimizer.resume(checkpoint, universe)
        universe.reset_intermediates()

        assert rows_equal_unordered(resumed.rows, clean.rows)
        assert resumed.phases == clean.phases
        assert [d.action for d in resumed.decisions] == [
            d.action for d in clean.decisions
        ]
