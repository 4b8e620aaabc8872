"""One cell, one sweep: the runner every grid experiment of the bench reads.

The paper's evaluation is a grid of runs: a query at a scale factor under a
strategy, read for its simulated seconds, rows and plan. A :class:`Key` names
one such cell — query, scale factor, variant, the two
:class:`~repro.workloads.WorkloadSpec` knobs and whether the Figure-8 indexed
nested loop join is enabled — and a :class:`Cell` is what running it
measured. :func:`execute` is the one way the bench runs a query, and
:class:`Sweep` runs lists of keys and keeps every cell it ran, so one CLI
invocation runs each distinct cell once however many experiments read it. A
variant is a registered strategy or one of :data:`VARIANTS`' compositions and
ablations. The paper figures are key lists in :mod:`repro.bench.comparison`,
:mod:`repro.bench.overhead` and :mod:`repro.bench.plans`; the three extension
experiments are here, each a key list and the predicate its cells must meet:

- **skew** sweeps every strategy over a grid of Zipf ``skew`` and hot-key
  ``correlation`` on the JOB chain J2. The stock cell is the regime where
  every strategy lands close; as the knobs rise, the independence and
  uniformity assumptions behind ingestion-time statistics break. The
  *static* planners commit to a join order from those statistics; the
  *adaptive* ones (``dynamic``, and ``sketch_online``'s post-filter sketches)
  measure the filtered data first. ``best_order`` replays an uncharged
  scout's plan (an oracle bound); ``pilot_run`` and ``ingres`` adapt
  partially; none of the three is in the predicate. :func:`skew_ok` holds
  when some adversarial cell has both adaptive planners beating every static
  one while ``cost_based``'s worst Q-error exceeds the replan trigger.
- **transfer** sets Bloom pre-filtering (``predicate_transfer``, and the
  transfer passes as ``dynamic``'s prelude) against plain ``dynamic``.
  Transfer pays in filter builds, shipping and reduce-job launches, so it
  loses where job start-ups dominate (SF 10) or the keys mostly survive
  (Q9 at SF 100), and wins where transitive reduction bites before the first
  join (Q8, Q17, J2 at SF 100). Under hot-key joins the blowup happens inside
  the join, which no pre-filter removes. :func:`transfer_ok` holds when both
  regimes appear.
- **feedback** runs the two stars of :mod:`repro.bench.feedback`: the fixed
  schedule against a :class:`~repro.core.policy.ReplanPolicy` on the skewed
  one, plain ``dynamic`` against the driver made to take every point on the
  uniform one. :func:`feedback_ok` holds when the policy replans, changes the
  plan and pays for itself, and ``dynamic`` fuses and wins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, Sequence

from repro.algebra.plan import JoinNode, LeafNode, PlanNode
from repro.bench import feedback
from repro.bench.runner import workbench_for_query
from repro.core.driver import DriverState, DynamicOptimizer, EveryPoint, greedy_full_plan
from repro.core.policy import REPLAN_QERROR, PolicyDecision, ReplanPolicy
from repro.core.predicate_pushdown import pushdown_stages
from repro.engine.metrics import ExecutionResult, JobMetrics
from repro.engine.scheduler import QueryRun
from repro.engine.scheduler.request import Stages
from repro.lang.ast import Query
from repro.obs.report import qerror_stats
from repro.optimizers import Optimizer, available_strategies, optimizer_class
from repro.optimizers.base import final_job_stages
from repro.session import Session


# -- ablations ----------------------------------------------------------------


class NoPushdown(DynamicOptimizer):
    """The re-optimization loop without the push-down prelude: local
    predicates are evaluated inline by whichever job first reads a table."""

    def prepare_stages(self, run: QueryRun, session: Session) -> Stages:
        return (yield from ())


class SingleShot(DynamicOptimizer):
    """Push-down without feedback: the push-down jobs, then every join
    planned greedily over the refined statistics and run as one job."""

    def resume_stages(self, state: DriverState, session: Session) -> Stages:
        plan = greedy_full_plan(self._toolkit(state, session))
        return (yield from self._final_stages(state, session, plan))


def _tree_with_materialized_filters(
    tree: PlanNode, intermediates: dict[str, str]
) -> PlanNode:
    """Replace filtered leaves by their push-down materializations."""
    if isinstance(tree, LeafNode):
        if tree.alias in intermediates:
            return LeafNode(
                alias=tree.alias,
                dataset=intermediates[tree.alias],
                predicates=(),
                is_intermediate=True,
            )
        return tree
    assert isinstance(tree, JoinNode)
    return replace(
        tree,
        build=_tree_with_materialized_filters(tree.build, intermediates),
        probe=_tree_with_materialized_filters(tree.probe, intermediates),
    )


class PushdownReplay(Optimizer):
    """Figure 6's push-down bar: the push-down jobs, then the dynamic plan
    with its filtered leaves swapped for their materializations, as one job.
    The plan comes from an uncharged scout, as ``best_order``'s does."""

    def stages(self, query: Query, session: Session, namespace: str = "") -> Stages:
        # the scout is a blocking run of its own before the first yield
        tree = DynamicOptimizer().execute(query, session).plan
        run = QueryRun(query, session, "pushdown", namespace)
        outcome = yield from pushdown_stages(run, session)
        swapped = _tree_with_materialized_filters(tree, outcome.intermediates)
        return (
            yield from final_job_stages(
                run, swapped, outcome.query, session, phase="single-job", kind="single"
            )
        )


#: variant name -> optimizer factory: every registered strategy, plus the
#: compositions, the fixed schedule and the ablations the experiments compare
VARIANTS: dict[str, Callable[..., Optimizer]] = {
    **{name: optimizer_class(name) for name in available_strategies()},
    "dynamic+transfer": partial(DynamicOptimizer, pre_filter="transfer"),
    "dynamic+policy": partial(DynamicOptimizer, policy=ReplanPolicy.default()),
    "every_point": EveryPoint,
    "no_pushdown": NoPushdown,
    "single_shot": SingleShot,
    "pushdown_replay": PushdownReplay,
    "movement_aware": partial(optimizer_class("cost_based"), movement_aware=True),
}

#: the cells one comparison ranks: a key without its variant
Group = tuple[int, str, float, float, bool]


@dataclass(frozen=True)
class Key:
    """One cell of the grid: what runs, on which universe."""

    query: str
    scale_factor: int
    variant: str
    skew: float = 0.0
    correlation: float = 0.0
    inl_enabled: bool = False

    @property
    def group(self) -> Group:
        return (
            self.scale_factor, self.query, self.skew, self.correlation,
            self.inl_enabled,
        )  # fmt: skip


@dataclass(frozen=True)
class Cell:
    """What one key's run measured (its result rows are not kept)."""

    key: Key
    metrics: JobMetrics
    rows: int
    plan: str
    decisions: tuple[PolicyDecision, ...]
    qerror_records: int
    final_qerror: float | None
    worst_qerror: float | None
    mean_qerror: float | None

    @property
    def seconds(self) -> float:
        return self.metrics.total_seconds

    @property
    def jobs(self) -> int:
        return self.metrics.jobs


@cache
def _feedback_session(seed: int) -> Session:
    session = Session()
    feedback.load_universe(session, seed)
    return session


def execute(key: Key, seed: int = 42) -> ExecutionResult:
    """Run one cell's query under its variant, on its cached universe (with
    the Figure-8 indexes when the indexed nested loop join is enabled)."""
    if key.query in feedback.QUERIES:
        query, session = feedback.QUERIES[key.query](), _feedback_session(seed)
    else:
        bench = workbench_for_query(
            key.query, key.scale_factor, seed, key.skew, key.correlation
        )
        if key.inl_enabled:
            bench.ensure_indexes()
        query, session = bench.query(key.query), bench.session
    options = {"inl_enabled": True} if key.inl_enabled else {}
    return VARIANTS[key.variant](**options).execute(query, session)


def measure(key: Key, seed: int = 42) -> Cell:
    """Run one cell and keep what the reports read."""
    result = execute(key, seed)
    stats = qerror_stats(result.trace)
    return Cell(
        key=key,
        metrics=result.metrics,
        rows=len(result.rows),
        plan=result.plan_description,
        decisions=result.decisions,
        qerror_records=stats["records"],
        final_qerror=stats["final"],
        worst_qerror=stats["worst"],
        mean_qerror=stats["mean"],
    )


class Sweep:
    """Runs keys, each distinct key once for the sweep's lifetime."""

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self._cells: dict[Key, Cell] = {}

    def run(self, keys: Sequence[Key]) -> list[Cell]:
        for key in keys:
            if key not in self._cells:
                self._cells[key] = measure(key, self.seed)
        return [self._cells[key] for key in keys]


def grouped(cells: Sequence[Cell]) -> dict[Group, dict[str, Cell]]:
    """Cells by group (sorted), then by variant (in run order)."""
    groups: dict[Group, dict[str, Cell]] = {}
    for cell in cells:
        groups.setdefault(cell.key.group, {})[cell.key.variant] = cell
    return dict(sorted(groups.items()))


def qerror_text(value: float | None) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return "inf"
    return f"{value:.2f}"


# -- skew ---------------------------------------------------------------------

#: the chain keeps result sizes bounded as skew rises while the Zipf head
#: still dominates every join input; J1/J3's stars explode instead
SKEW_QUERY = "J2"
SKEW_SCALE_FACTOR = 10
#: (skew, correlation): Zipf exponents x hot-key correlation probabilities
SKEW_KNOBS = tuple((s, c) for s in (0.0, 0.7, 1.1, 1.3) for c in (0.0, 0.9))

#: strategies that commit to a join order from estimator statistics
STATIC_OPTIMIZERS = ("cost_based", "from_order", "worst_order", "greedy_static")
#: strategies that measure the filtered data before (or while) ordering joins
ADAPTIVE_OPTIMIZERS = ("dynamic", "sketch_online")


def skew_keys(
    knobs: Sequence[tuple[float, float]] = SKEW_KNOBS,
) -> list[Key]:
    """Every registered strategy at every knob setting."""
    return [
        Key(SKEW_QUERY, SKEW_SCALE_FACTOR, name, skew, correlation)
        for skew, correlation in knobs
        for name in available_strategies()
    ]


def skew_ok(cells: Sequence[Cell]) -> bool:
    """Some adversarial cell has both adaptive planners beating every static
    one while ``cost_based``'s worst Q-error exceeds the replan trigger."""
    for (_, _, skew, correlation, _), group in grouped(cells).items():
        if skew <= 0 or correlation <= 0:
            continue
        if not set(ADAPTIVE_OPTIMIZERS + STATIC_OPTIMIZERS) <= set(group):
            continue
        static_floor = min(group[name].seconds for name in STATIC_OPTIMIZERS)
        worst = group["cost_based"].worst_qerror
        if (
            all(group[name].seconds < static_floor for name in ADAPTIVE_OPTIMIZERS)
            and worst is not None
            and worst > REPLAN_QERROR
        ):
            return True
    return False


# -- transfer -----------------------------------------------------------------

#: the transfer variants measured against the plain dynamic baseline
TRANSFER_VARIANTS = ("predicate_transfer", "dynamic+transfer")

#: (query, scale factor, skew, correlation): both regimes represented
TRANSFER_WORKLOADS: tuple[tuple[str, int, float, float], ...] = (
    ("Q8", 10, 0.0, 0.0),  # startup-dominated: transfer loses
    ("Q8", 100, 0.0, 0.0),  # transitive reduction bites: transfer wins
    ("Q17", 100, 0.0, 0.0),
    ("Q9", 100, 0.0, 0.0),  # keys mostly survive: filters are dead weight
    ("Q50", 100, 0.0, 0.0),
    ("J2", 100, 0.0, 0.0),
    ("J2", 10, 1.3, 0.9),  # adversarial: the blowup is inside the join
)


def transfer_keys(
    workloads: Sequence[tuple[str, int, float, float]] = TRANSFER_WORKLOADS,
) -> list[Key]:
    """Plain ``dynamic`` and both transfer variants at every workload."""
    return [
        Key(query, scale_factor, variant, skew, correlation)
        for query, scale_factor, skew, correlation in workloads
        for variant in ("dynamic",) + TRANSFER_VARIANTS
    ]


def transfer_ok(cells: Sequence[Cell]) -> bool:
    """Some workload has a transfer variant beating plain ``dynamic`` on
    simulated seconds, and some has ``dynamic`` beating both."""
    wins = losses = 0
    for group in grouped(cells).values():
        transfer = [group[name].seconds for name in TRANSFER_VARIANTS if name in group]
        if "dynamic" not in group or not transfer:
            continue
        baseline = group["dynamic"].seconds
        wins += min(transfer) < baseline
        losses += all(seconds > baseline for seconds in transfer)
    return wins >= 1 and losses >= 1


# -- feedback -----------------------------------------------------------------

#: the fixed schedule and the policy on the skewed star, then the driver made
#: to take every point and plain ``dynamic`` on the uniform one
FEEDBACK = (
    Key("skewed_star", feedback.SCALE_FACTOR, "dynamic"),
    Key("skewed_star", feedback.SCALE_FACTOR, "dynamic+policy"),
    Key("uniform_star", feedback.SCALE_FACTOR, "every_point"),
    Key("uniform_star", feedback.SCALE_FACTOR, "dynamic"),
)


def feedback_ok(cells: Sequence[Cell]) -> bool:
    """The policy replans, changes the plan and finishes cheaper than the
    fixed schedule; plain ``dynamic`` fuses the uniform star and beats the
    driver that takes every point."""
    found = {cell.key: cell for cell in cells}
    if not all(key in found for key in FEEDBACK):
        return False
    fixed, policy, every_point, fused = (found[key] for key in FEEDBACK)
    return (
        any(decision.action == "replan" for decision in policy.decisions)
        and policy.plan != fixed.plan
        and policy.seconds < fixed.seconds
        and any(decision.action == "fuse" for decision in fused.decisions)
        and fused.seconds < every_point.seconds
    )


# -- report -------------------------------------------------------------------

#: the variant column fits the longest variant name
_NAME_WIDTH = max(len(name) for name in VARIANTS)


def format_sweep(cells: Sequence[Cell]) -> str:
    """One block per group, its variants sorted by simulated seconds."""
    lines = []
    for (scale_factor, query, skew, correlation, inl_enabled), group in grouped(
        cells
    ).items():
        knobs = f" skew={skew:g} correlation={correlation:g}" if skew or correlation else ""
        inl = " (INL enabled)" if inl_enabled else ""
        lines.append(f"{query} @ SF {scale_factor}{knobs}{inl}")
        lines.append(
            f"  {'variant':{_NAME_WIDTH}s} {'sim s':>10s} {'rows':>7s} {'jobs':>5s}"
            f" {'final-q':>8s} {'worst-q':>8s}  {'decided':11s} plan"
        )
        for cell in sorted(group.values(), key=lambda c: c.seconds):
            decided = "+".join(d.action for d in cell.decisions) or "-"
            lines.append(
                f"  {cell.key.variant:{_NAME_WIDTH}s} {cell.seconds:10.2f}"
                f" {cell.rows:7d} {cell.jobs:5d} {qerror_text(cell.final_qerror):>8s}"
                f" {qerror_text(cell.worst_qerror):>8s}  {decided:11s} {cell.plan}"
            )
    return "\n".join(lines)
