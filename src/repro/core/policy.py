"""Feedback-driven re-planning policy: Q-error triggers + adaptive thresholds.

The tracer records an :class:`~repro.obs.trace.EstimateRecord` (and hence a
Q-error) at every re-optimization point, but the classic driver never reads
it back — the schedule is fixed (iterate to the two-join endgame) and the
planning constants (broadcast budget, the ``tables_after <= 3``
online-statistics cutoff, the push-down candidate rule) are static. This
module closes that loop:

- :class:`ReplanPolicy` — the *typed policy API*: a frozen dataclass the
  driver consults after every materialized stage. A measured Q-error above
  the trigger threshold makes the driver (a) re-collect sketches on the
  mis-estimated intermediate when the fixed schedule had skipped them (an
  extra re-optimization, charged to the clock), and (b) optionally widen the
  *next* planning step from the greedy rule to a bounded bushy enumeration.
  (Whether a re-optimization point is taken at all is not policy: the
  driver's cost rule, ``DynamicOptimizer.fuse_plan``, decides that for every
  run and records a ``fuse`` decision here when it fires.)
- :class:`FeedbackLog` — a per-:class:`~repro.session.Session` accumulator
  of misestimate/spill history *across* queries. Adaptive policies derive
  their :class:`RuntimeThresholds` from it: the trigger threshold converges
  to the tail of the observed Q-error distribution, the broadcast budget
  shrinks when joins the planner thought memory-resident spilled (the
  robust-hash-join argument of arXiv:2112.02480), the online-statistics
  cutoff deepens when estimates are chronically wrong, and the push-down
  rule turns aggressive (any predicated table qualifies) for workloads whose
  estimates keep missing.
- :class:`RuntimeThresholds` — the resolved constants one execution runs
  under. The defaults are exactly the paper's static constants, which is
  what keeps ``ReplanPolicy.off()`` byte-identical to the fixed schedule.

Everything here is pure planning state: consulting a policy charges zero
simulated seconds. Only the *actions* it triggers (a sketch-refresh job, a
different join order) touch the clock.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.common.errors import OptimizationError

#: The paper's online-statistics cutoff: sketches are skipped once the join
#: would leave this many (or fewer) tables — "we know that we are not going
#: to further re-optimize".
DEFAULT_STATS_CUTOFF = 3
#: The paper's push-down rule: tables with at least this many local
#: predicates (or any complex one) are pre-executed.
DEFAULT_PUSHDOWN_MIN_PREDICATES = 2
#: A session whose median Q-error is at most this has tight estimates: the
#: adaptive statistics cutoff relaxes.
TIGHT_QERROR = 1.5


@dataclass(frozen=True)
class RuntimeThresholds:
    """The planning constants one dynamic run executes under.

    The defaults reproduce the paper's fixed behavior; adaptive policies
    replace them with values derived from the session's
    :class:`FeedbackLog`. ``broadcast_budget_bytes=None`` means "use the
    cluster's configured budget".
    """

    #: Q-error above which a stage counts as a bad miss (trigger).
    qerror_threshold: float = 4.0
    #: skip online sketches when ``tables_after <= stats_cutoff``.
    stats_cutoff: int = DEFAULT_STATS_CUTOFF
    #: planner-side broadcast build budget override (modeled bytes).
    broadcast_budget_bytes: float | None = None
    #: minimum simple-predicate count for push-down candidacy.
    pushdown_min_predicates: int = DEFAULT_PUSHDOWN_MIN_PREDICATES


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
    """Typed re-planning policy consulted at every re-optimization point.

    Construct directly for full control, or use :meth:`off` (fixed paper
    schedule, byte-identical to no policy), :meth:`default` (static trigger
    threshold), or :meth:`adaptive` (thresholds derived from the session's
    :class:`FeedbackLog`).
    """

    #: master switch; disabled policies never consult or decide anything.
    enabled: bool = True
    #: Q-error that makes a materialized stage a bad miss.
    qerror_threshold: float = 4.0
    #: on a bad miss, re-collect sketches on the mis-estimated intermediate
    #: if the fixed schedule had skipped them (charged to the clock).
    refresh_sketches: bool = True
    #: on a bad miss, plan the *next* step with a bounded bushy enumeration
    #: over the surviving tables instead of the greedy rule.
    widen_search: bool = True
    #: enumeration bound: fall back to greedy beyond this many tables.
    widen_max_tables: int = 8
    #: derive RuntimeThresholds from the session's FeedbackLog.
    adaptive: bool = False
    #: finite Q-error observations required before adaptation kicks in.
    min_history: int = 8

    def __post_init__(self) -> None:
        if self.qerror_threshold < 1.0:
            raise OptimizationError("qerror_threshold must be >= 1 (a Q-error)")
        if self.widen_max_tables < 3:
            raise OptimizationError("widen_max_tables must be >= 3")
        if self.min_history < 1:
            raise OptimizationError("min_history must be >= 1")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def off(cls) -> ReplanPolicy:
        """The fixed paper schedule; byte-identical to passing no policy."""
        return cls(enabled=False)

    @classmethod
    def default(cls, qerror_threshold: float = 4.0) -> ReplanPolicy:
        """Static trigger threshold, refresh + widen on a miss."""
        return cls(qerror_threshold=qerror_threshold)

    @classmethod
    def adaptive_policy(cls, min_history: int = 8) -> ReplanPolicy:
        """Thresholds derived at runtime from the session's FeedbackLog."""
        return cls(adaptive=True, min_history=min_history)

    # -- resolution -----------------------------------------------------------

    def resolve(self, session=None, query=None) -> RuntimeThresholds:
        """The thresholds one run should execute under.

        Disabled policies resolve to the paper's static constants; adaptive
        ones consult the session's :class:`FeedbackLog` (falling back to the
        static constants until enough history accumulates). ``query`` is the
        query about to run, when known: dataset-keyed feedback stores (the
        query service's :class:`~repro.service.store.StoredFeedback`) use it
        to derive thresholds from the history of that query's dataset group
        instead of the whole workload; the base log ignores it.
        """
        if not self.enabled:
            return RuntimeThresholds()
        feedback = getattr(session, "feedback", None) if session is not None else None
        if self.adaptive and feedback is not None:
            return feedback.derive(
                self, getattr(session, "cluster", None), query=query
            )
        return RuntimeThresholds(qerror_threshold=self.qerror_threshold)

    # -- stage verdicts -------------------------------------------------------

    def is_bad_miss(self, q_error: float | None, thresholds: RuntimeThresholds) -> bool:
        """Did this stage's estimate miss badly enough to replan?

        Non-finite Q-errors never trigger: ``observe_qerror`` already counts
        inf/NaN separately instead of folding them into the adaptive window
        (they would pin every derived threshold), and the trigger must apply
        the same rule — an infinite Q-error from a zero-estimate stage says
        the *estimate* was degenerate, not that replanning will help, and
        treating it as an automatic miss let a single degenerate stage buy a
        replan on every remaining join.
        """
        if not self.enabled or q_error is None or not math.isfinite(q_error):
            return False
        return q_error > thresholds.qerror_threshold


class FeedbackLog:
    """Per-session misestimate/spill history across query executions.

    The :class:`~repro.engine.scheduler.scheduler.JobScheduler` feeds every
    finished :class:`~repro.engine.metrics.ExecutionResult` into the owning
    session's log; adaptive policies then derive their
    :class:`RuntimeThresholds` from the recent window. Observation is pure
    bookkeeping — it never changes the result being observed.
    """

    def __init__(self, window: int = 64) -> None:
        if window < 1:
            raise OptimizationError("feedback window must be >= 1")
        self.window = window
        #: finite Q-errors of recent estimate records (newest last).
        self.q_errors: deque[float] = deque(maxlen=window)
        #: per-query (spill_seconds, total_seconds) pairs.
        self.query_costs: deque[tuple[float, float]] = deque(maxlen=window)
        #: unbounded misses (zero-estimate or zero-actual stages) seen.
        self.infinite_records = 0
        #: total queries observed (lifetime, not windowed).
        self.queries = 0

    # -- observation ----------------------------------------------------------

    def observe_result(self, result, datasets: tuple[str, ...] = ()) -> None:
        """Fold one finished execution into the history.

        ``datasets`` names the base datasets the query read, when the caller
        knows them (the scheduler passes the query's FROM-clause datasets).
        The base log keeps one undifferentiated history and ignores them;
        dataset-keyed stores override this to route the observation into the
        matching per-dataset-group log as well.
        """
        self.queries += 1
        metrics = getattr(result, "metrics", None)
        if metrics is not None:
            self.query_costs.append(
                (float(metrics.spill), float(metrics.total_seconds))
            )
        trace = getattr(result, "trace", None)
        if trace is None:
            return
        for record in getattr(trace, "estimates", ()):
            self.observe_qerror(record.q_error)

    def observe_qerror(self, q_error: float) -> None:
        """Record one estimate-accuracy point (inf/NaN are counted, not kept).

        Guarding here is what keeps adaptive thresholds finite: a single
        zero-estimate stage must never turn the trigger threshold into
        ``inf`` and silently disable re-planning for the rest of the session.
        """
        if math.isnan(q_error) or math.isinf(q_error):
            self.infinite_records += 1
            return
        self.q_errors.append(float(q_error))

    # -- aggregates -----------------------------------------------------------

    @property
    def records(self) -> int:
        return len(self.q_errors)

    def qerror_quantile(self, fraction: float) -> float | None:
        """The ``fraction`` quantile of the recent finite Q-errors."""
        if not self.q_errors:
            return None
        ordered = sorted(self.q_errors)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    @property
    def spill_ratio(self) -> float:
        """Fraction of recent queries that spilled at all."""
        if not self.query_costs:
            return 0.0
        spilled = sum(1 for spill, _ in self.query_costs if spill > 0.0)
        return spilled / len(self.query_costs)

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot of the full history window."""
        return {
            "window": self.window,
            "q_errors": list(self.q_errors),
            "query_costs": [[spill, total] for spill, total in self.query_costs],
            "infinite_records": self.infinite_records,
            "queries": self.queries,
        }

    @classmethod
    def from_state(cls, state: dict) -> FeedbackLog:
        """Rebuild a log from :meth:`to_state` output.

        Derivation is a pure function of the restored deques, so a
        round-tripped log produces identical :class:`RuntimeThresholds`.
        """
        log = cls(int(state["window"]))
        log.restore_state(state)
        return log

    def restore_state(self, state: dict) -> None:
        """Load :meth:`to_state` output into this log in place."""
        self.q_errors.clear()
        self.q_errors.extend(float(q) for q in state["q_errors"])
        self.query_costs.clear()
        self.query_costs.extend(
            (float(spill), float(total)) for spill, total in state["query_costs"]
        )
        self.infinite_records = int(state["infinite_records"])
        self.queries = int(state["queries"])

    # -- derivation -----------------------------------------------------------

    def derive(self, policy: ReplanPolicy, cluster=None, query=None) -> RuntimeThresholds:
        """Adaptive thresholds from the observed history.

        ``query`` is accepted for interface compatibility with dataset-keyed
        stores (which narrow the history to the query's dataset group); the
        base log derives from its single undifferentiated window.

        - **Trigger threshold** converges to the 75th percentile of the
          observed finite Q-errors (clamped to ``[2, 8x the configured
          base]``): on a workload whose estimates are usually tight, even a
          2x miss is anomalous and worth re-planning; on a chronically noisy
          one the threshold rises so the driver does not pay a refresh job
          at every stage.
        - **Broadcast budget** shrinks proportionally to the fraction of
          recent queries that spilled (floor: a quarter of the configured
          budget) — a spill means a build the planner thought memory-resident
          was not, so the planning-side memory threshold was too optimistic.
        - **Online-statistics cutoff** deepens to 2 (never skip) when the
          median Q-error exceeds the trigger threshold, and relaxes to 4
          (skip one iteration earlier) when the median shows estimates are
          reliably tight.
        - **Push-down rule** turns aggressive (any predicated table
          qualifies) when the median Q-error exceeds the trigger threshold —
          exact post-predicate cardinalities are the cheapest estimate
          repair available.
        """
        if not policy.adaptive or self.records < policy.min_history:
            return RuntimeThresholds(qerror_threshold=policy.qerror_threshold)

        tail = self.qerror_quantile(0.75)
        threshold = min(
            max(2.0, tail if tail is not None else policy.qerror_threshold),
            policy.qerror_threshold * 8.0,
        )

        budget: float | None = None
        if cluster is not None and self.spill_ratio > 0.0:
            base = cluster.broadcast_threshold_bytes
            budget = base * max(0.25, 1.0 - self.spill_ratio)

        median = self.qerror_quantile(0.5)
        cutoff = DEFAULT_STATS_CUTOFF
        min_predicates = DEFAULT_PUSHDOWN_MIN_PREDICATES
        if median is not None:
            if median > threshold:
                cutoff = 2  # chronic misses: keep sketching to the endgame
                min_predicates = 1  # and measure every predicated table
            elif median <= TIGHT_QERROR:
                cutoff = 4  # estimates are tight: skip sketches earlier

        return RuntimeThresholds(
            qerror_threshold=threshold,
            stats_cutoff=cutoff,
            broadcast_budget_bytes=budget,
            pushdown_min_predicates=min_predicates,
        )
