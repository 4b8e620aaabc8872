"""Re-planning policy: a Q-error trigger on the dynamic loop.

The tracer records an :class:`~repro.obs.trace.EstimateRecord` (and hence a
Q-error) at every re-optimization point; the paper's driver never reads it
back. Attaching a :class:`ReplanPolicy` makes the driver consult it after
every materialized stage: a measured Q-error above :data:`REPLAN_QERROR`
makes the driver (a) re-collect sketches on the mis-estimated intermediate
when the fixed schedule had skipped them (an extra re-optimization, charged
to the clock), and (b) plan the *next* step with a bounded bushy enumeration
over at most :data:`WIDEN_MAX_TABLES` tables instead of the greedy rule.
Without a policy the driver runs the paper's fixed schedule. (Whether a
re-optimization point is taken at all is not policy: the driver's cost rule,
``DynamicOptimizer.fuse_plan``, decides that for every run and records a
``fuse`` :class:`PolicyDecision` when it fires.)

Consulting the policy charges zero simulated seconds. Only the *actions* it
triggers (a sketch-refresh job, a different join order) touch the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Q-error above which a materialized stage counts as a bad miss.
REPLAN_QERROR = 4.0
#: the widened pick's enumeration bound: greedy beyond this many tables.
WIDEN_MAX_TABLES = 8


@dataclass(frozen=True)
class PolicyDecision:
    """One decision that changed (or shaped) the schedule."""

    phase: str
    #: "replan" (bad miss: refresh + extra re-optimization), "widen"
    #: (next pick came from bounded enumeration), "fuse" (one more point
    #: would not pay for itself: remaining joins run as the final job; here
    #: ``q_error`` is the factor applied and ``threshold`` the factor at
    #: which the point would have been taken).
    action: str
    q_error: float
    threshold: float
    detail: str = ""

    def describe(self) -> str:
        q = "inf" if math.isinf(self.q_error) else f"{self.q_error:.2f}"
        text = f"{self.phase}: {self.action} (q={q}, threshold={self.threshold:.2f})"
        if self.detail:
            text += f" — {self.detail}"
        return text


@dataclass(frozen=True)
class ReplanPolicy:
    """The re-planning policy: refresh + widen after a bad miss.

    It has no settings; attaching one (``PlannerSpec.of("dynamic",
    policy=ReplanPolicy.default())``) is the whole choice.
    """

    @classmethod
    def default(cls) -> ReplanPolicy:
        """The policy (the one there is)."""
        return cls()

    def is_bad_miss(self, q_error: float | None) -> bool:
        """Did this stage's estimate miss badly enough to replan?

        Non-finite Q-errors never trigger: an infinite Q-error from a
        zero-estimate stage says the *estimate* was degenerate, not that
        replanning will help, and treating it as an automatic miss let a
        single degenerate stage buy a replan on every remaining join.
        """
        if q_error is None or not math.isfinite(q_error):
            return False
        return q_error > REPLAN_QERROR
