"""PlannerSpec: the typed optimizer-selection API.

Contract: every Session entry point resolves its planner argument through
``resolve_planner``; an invalid spec fails at construction time; a bare
strategy-name string still resolves positionally.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict

import pytest

from repro.common.errors import OptimizationError
from repro.core.policy import ReplanPolicy
from repro.spec import PlannerSpec, resolve_planner

from tests.conftest import build_star_session, star_query


class TestPlannerSpecValidation:
    def test_defaults(self):
        spec = PlannerSpec()
        assert spec.strategy == "dynamic"
        assert spec.options == ()
        assert spec.policy is None

    def test_unknown_strategy_raises(self):
        with pytest.raises(OptimizationError):
            PlannerSpec.of("quantum")

    def test_unknown_option_raises_with_accepted_list(self):
        with pytest.raises(OptimizationError, match="does not accept"):
            PlannerSpec.of("dynamic", warp_factor=9)

    def test_option_valid_for_other_strategy_still_raises(self):
        # sample_limit belongs to pilot_run, not cost_based
        PlannerSpec.of("pilot_run", sample_limit=100)
        with pytest.raises(OptimizationError):
            PlannerSpec.of("cost_based", sample_limit=100)

    def test_duplicate_option_raises(self):
        with pytest.raises(OptimizationError, match="duplicate"):
            PlannerSpec("dynamic", (("inl_enabled", True), ("inl_enabled", False)))

    def test_policy_option_must_be_a_replan_policy(self):
        with pytest.raises(OptimizationError, match="ReplanPolicy"):
            PlannerSpec.of("dynamic", policy="aggressive")
        spec = PlannerSpec.of("dynamic", policy=ReplanPolicy.default())
        assert spec.policy == ReplanPolicy.default()

    def test_specs_are_hashable_and_order_insensitive(self):
        a = PlannerSpec.of("dynamic", inl_enabled=True, pre_filter="transfer")
        b = PlannerSpec.of("dynamic", pre_filter="transfer", inl_enabled=True)
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize(
        "strategy, name",
        (
            # Fig. 6 and the ablations are folds and stage compositions over
            # one run, not constructor variants of the driver.
            *(
                pytest.param("dynamic", name, id=name)
                for name in (
                    "charge_online_stats",
                    "pushdown_enabled",
                    "reoptimize_joins",
                    "collect_online_sketches",
                )
            ),
            # options no caller set to anything but their default
            ("from_order", "force_hash"),
            ("predicate_transfer", "fpp"),
            ("ingres", "policy"),
            ("pilot_run", "policy"),
        ),
    )
    def test_removed_driver_options_raise(self, strategy, name):
        with pytest.raises(OptimizationError, match=name):
            PlannerSpec.of(strategy, **{name: None})

    def test_make_builds_the_configured_optimizer(self):
        optimizer = PlannerSpec.of("dynamic", inl_enabled=True).make()
        assert optimizer.name == "dynamic"
        assert optimizer.inl_enabled


class TestResolvePlanner:
    def test_spec_passes_through(self):
        spec = PlannerSpec.of("ingres")
        assert resolve_planner(spec) is spec

    def test_non_string_planner_raises(self):
        with pytest.raises(OptimizationError, match="PlannerSpec or a"):
            resolve_planner(42)

    def test_bare_call_defaults_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_planner() == PlannerSpec()

    def test_bare_string_resolves_without_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_planner("pilot_run") == PlannerSpec.of("pilot_run")


class TestStringFormEquivalence:
    """The bare strategy-name string produces byte-identical executions."""

    def test_string_execute_matches_spec_execute(self):
        string_session = build_star_session()
        by_name = string_session.execute(star_query(), "cost_based")

        spec_session = build_star_session()
        spec = spec_session.execute(star_query(), PlannerSpec.of("cost_based"))

        assert by_name.rows == spec.rows
        assert by_name.plan_description == spec.plan_description
        assert by_name.phases == spec.phases
        assert asdict(by_name.metrics) == asdict(spec.metrics)
        assert by_name.seconds == spec.seconds

    def test_invalid_option_fails_at_submit_time(self):
        session = build_star_session()
        with pytest.raises(OptimizationError):
            session.submit(star_query(), PlannerSpec.of("dynamic", x=1))
