"""The runtime dynamic optimization driver — Algorithm 1 of the paper.

Orchestrates the full loop: predicate push-down jobs, the re-optimization
loop (plan cheapest join -> construct job -> materialize + online statistics
-> reconstruct query), and the two-join endgame whose job returns results to
the user. Subclasses (the INGRES-like and pilot-run baselines) override the
ranking function and the statistics source but reuse the machinery — which
mirrors how the paper describes those comparisons.

The driver is written as *resumable stage generators* over one
:class:`~repro.engine.scheduler.request.QueryRun`: each re-optimization
stage ``yield``s a request the run builds and receives the
:class:`~repro.engine.scheduler.request.JobOutcome` back. The run owns what
the loop accrues (working statistics, cumulative metrics, trace); the
checkpoint, :class:`DriverState`, is that run plus where the loop is. The
:class:`~repro.engine.scheduler.scheduler.JobScheduler` drives the
generators, interleaving concurrent queries on a shared simulated clock;
``execute``/``resume`` are one-query schedules on a private one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.algebra.jobgen import build_sink_job
from repro.algebra.plan import JoinNode, LeafNode, PlanNode
from repro.algebra.toolkit import PlannerToolkit
from repro.analysis.runtime import verify_plan_before_jobgen
from repro.common.errors import OptimizationError
from repro.common.types import Schema
from repro.core.planner import (
    PlannedJoin,
    Planner,
    RankFunction,
    rank_by_result_cardinality,
)
from repro.core.policy import (
    REPLAN_QERROR,
    WIDEN_MAX_TABLES,
    PolicyDecision,
    ReplanPolicy,
)
from repro.core.predicate_pushdown import join_columns_of, pushdown_stages
from repro.core.predicate_transfer import transfer_stages
from repro.core.reconstruction import reconstruct_after_join
from repro.engine.metrics import ExecutionResult, JobMetrics
from repro.engine.scheduler.request import QueryRun, Stages
from repro.engine.scheduler.scheduler import run_solo
from repro.lang.ast import Query, split_column
from repro.optimizers.base import Optimizer, final_job_stages
from repro.stats.collector import StatisticsCollector

if TYPE_CHECKING:
    from repro.session import Session


def resolve_logical(node: PlanNode, registry: dict[str, PlanNode]) -> PlanNode:
    """Rewrite a plan over intermediates into one over the original tables.

    Each materialized intermediate remembers the (already resolved) subtree
    that produced it; substituting those subtrees yields the full logical
    join tree the dynamic run effectively executed — the artifact the
    appendix figures draw and the best-order baseline replays.
    """
    if isinstance(node, LeafNode):
        return registry.get(node.dataset, node)
    if isinstance(node, JoinNode):
        return JoinNode(
            build=resolve_logical(node.build, registry),
            probe=resolve_logical(node.probe, registry),
            build_keys=node.build_keys,
            probe_keys=node.probe_keys,
            algorithm=node.algorithm,
            estimated_rows=node.estimated_rows,
            decided_build_bytes=node.decided_build_bytes,
        )
    raise OptimizationError(f"cannot resolve node type {type(node).__name__}")


def original_leaves(
    query: Query, intermediates: dict[str, str]
) -> dict[str, PlanNode]:
    """Registry entries resolving each pre-filter intermediate (push-down or
    transfer) back to the FROM entry and local predicates it materialized."""
    return {
        name: LeafNode(
            alias=alias,
            dataset=query.table(alias).dataset,
            predicates=query.predicates_for(alias),
        )
        for alias, name in intermediates.items()
    }


def greedy_full_plan(toolkit: PlannerToolkit) -> PlanNode:
    """Estimate-only greedy join tree (no execution between decisions).

    Every join of the toolkit's query planned in one shot by repeatedly
    merging the pair with the smallest estimated result — the same greedy
    policy as the loop, minus the feedback, and the same tie-break as
    :meth:`Planner.ranked_joins` (the sorted alias names), so the FROM order
    never picks between equal estimates. A round ranks its candidates on
    unannotated joins (formula (1) does not depend on which input builds)
    and annotates only the merge it takes. The fuse rule and the single-shot
    ablation run it over the statistics measured so far; ``greedy_static``
    over the ingestion-time ones.
    """
    estimate = toolkit.estimator.estimate
    nodes: list[PlanNode] = [toolkit.leaf(alias) for alias in toolkit.query.aliases]
    while len(nodes) > 1:
        best = None
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                left, right = nodes[i], nodes[j]
                conditions = toolkit.conditions_across(left.aliases, right.aliases)
                if not conditions:
                    continue
                left_keys, right_keys = toolkit.oriented_keys(conditions, left.aliases)
                rows = estimate(JoinNode(left, right, left_keys, right_keys)).modeled_rows
                key = (rows, tuple(sorted(left.aliases | right.aliases)))
                if best is None or key < best[0]:
                    best = (key, i, j, conditions)
        if best is None:
            raise OptimizationError("join graph is disconnected (cross product)")
        (rows, _), i, j, conditions = best
        joined = toolkit.make_join(nodes[i], nodes[j], conditions, estimated_rows=rows)
        nodes = [n for k, n in enumerate(nodes) if k not in (i, j)] + [joined]
    return nodes[0]


def _row_width(toolkit: PlannerToolkit, columns: tuple[str, ...]) -> int:
    """Serialized bytes per row of a projection onto qualified ``columns``."""
    lookup = toolkit.session.datasets.schema_lookup
    fields = []
    for column in columns:
        alias = toolkit.resolver.provider(column)
        schema = lookup(toolkit.query.table(alias).dataset)
        # intermediates keep qualified field names, base datasets plain ones
        name = column if schema.has_field(column) else split_column(column)[1]
        fields.append((column, schema.field_type(name)))
    return Schema.of(*fields).row_width


@dataclass
class DriverState:
    """Resumable execution state of one dynamic run: the run plus where the
    loop is.

    The :class:`~repro.engine.scheduler.request.QueryRun` carries what every
    strategy accrues (original query, working statistics, cumulative
    metrics, trace — so a resumed run extends the same trace instead of
    starting a new one); this adds what only the re-optimization loop needs
    to continue: the reconstructed query, the logical-subtree registry and
    the feedback policy's memory. Together with the intermediates already
    materialized in the session's dataset catalog this is exactly the
    paper's Section-8 fault-tolerance checkpoint: "recover from a failure by
    not having to start over from the beginning of a long-running query".
    """

    run: QueryRun
    current: Query
    registry: dict[str, PlanNode] = field(default_factory=dict)
    iteration: int = 0
    #: decisions taken so far — the feedback policy's and the fuse rule's
    #: (surfaced on ExecutionResult).
    policy_log: list[PolicyDecision] = field(default_factory=list)
    #: a bad miss armed the widened (bounded-enumeration) next pick.
    widen_pending: bool = False


class SimulatedFailure(RuntimeError):
    """Raised by the failure injector; carries the last completed checkpoint."""

    def __init__(self, checkpoint: DriverState) -> None:
        super().__init__("simulated mid-query failure")
        self.checkpoint = checkpoint


class DynamicOptimizer(Optimizer):
    """The paper's contribution: INGRES-style re-optimization + statistics."""

    name = "dynamic"

    def __init__(
        self,
        inl_enabled: bool = False,
        rank: RankFunction = rank_by_result_cardinality,
        fail_after_jobs: int | None = None,
        policy: ReplanPolicy | None = None,
        pre_filter: str | None = None,
    ) -> None:
        if pre_filter not in (None, "transfer"):
            raise OptimizationError(
                f"unknown pre_filter {pre_filter!r}; choose 'transfer' or None"
            )
        #: optional pre-filtering prelude: "transfer" runs the predicate
        #: transfer passes (Bloom-filter propagation) in place of plain
        #: predicate push-down before the re-optimization loop starts.
        self.pre_filter = pre_filter
        self.inl_enabled = inl_enabled
        self.rank = rank
        #: feedback policy consulted after every materialized stage; None
        #: reproduces the fixed paper schedule.
        self.policy = policy
        #: failure injector: raise SimulatedFailure once this many jobs have
        #: completed (testing the Section-8 checkpoint/resume story)
        self.fail_after_jobs = fail_after_jobs
        #: the resolved logical tree of the last execution (plan capture)
        self.last_tree: PlanNode | None = None

    # -- hooks for subclasses ---------------------------------------------------

    def prepare_stages(self, run: QueryRun, session: Session) -> Stages:
        """Stages that run before the loop plans its first join; returns
        their rewritten query and intermediates, or ``None``.

        The base strategy runs predicate push-down, or with
        ``pre_filter="transfer"`` the transfer passes, whose reduce jobs
        apply each alias's local predicates on their first reduction;
        pilot-run samples each table instead.
        """
        if self.pre_filter == "transfer":
            return (yield from transfer_stages(run, session))
        return (yield from pushdown_stages(run, session))

    def sketch_columns(
        self, state: DriverState, stats_columns: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Which of ``stats_columns`` (the picked join's columns later joins
        read) its Sink sketches. None in the last loop iteration(s): "we
        know that we are not going to further re-optimize"."""
        if len(state.current.tables) - 1 <= 3:
            return ()
        return stats_columns

    def fuse_plan(
        self,
        state: DriverState,
        toolkit: PlannerToolkit,
        picked: PlannedJoin,
        keep: tuple[str, ...],
        stats_columns: tuple[str, ...],
    ) -> PlanNode | None:
        """The plan to run as the final job *now*, or ``None`` to take the
        re-optimization point after ``picked``.

        A point has to pay for itself. Its price is the cost model's own
        charge: one more job start-up, the Sink writing the picked join's
        estimated output at its kept width, the next job reading it back, the
        sketches over ``stats_columns``. All it can improve is the joins
        still to run — exchange, build, probe and spill of the greedy plan
        over what is left; leaf scans happen either way. That side is an
        estimate, so it is multiplied by the worst Q-error this run has
        measured, and an unbounded miss on record means it cannot be priced
        at all: the point is taken. Strategies that by definition make no
        result estimates override this to keep the fixed schedule.
        """
        factor = 1.0
        for record in state.run.tracer.estimates:
            if not math.isfinite(record.q_error):
                return None
            factor = max(factor, record.q_error)
        estimator = toolkit.estimator
        cost = estimator.cost
        rows = picked.node.estimated_rows
        width = _row_width(toolkit, keep)
        point = (
            cost.job_startup()
            + cost.materialize(rows, width)
            + cost.read_materialized(rows, width)
            + cost.statistics(rows, len(stats_columns))
        )
        # Every remaining input tuple passes at least one build or probe (a
        # possible INL inner side, a predicate-free base table, is looked up
        # instead), which bounds the joins from below without planning them;
        # at the paper's scales that settles nearly every point.
        leaves = (toolkit.leaf(alias) for alias in state.current.aliases)
        floor = cost.probe(
            sum(
                estimator.estimate(leaf).modeled_rows
                for leaf in leaves
                if not self.inl_enabled or leaf.is_intermediate or leaf.predicates
            )
        )
        if point <= floor * factor:
            return None
        plan = greedy_full_plan(toolkit)
        remaining = estimator.join_phase_cost(plan)
        if point <= remaining * factor:
            return None
        state.policy_log.append(
            PolicyDecision(
                phase=f"join-{state.iteration}",
                action="fuse",
                q_error=factor,
                # the Q-error factor at which the point would have been taken
                threshold=point / remaining if remaining > 0.0 else math.inf,
                detail=f"one more point costs {point:.3f}s, the "
                f"{len(plan.join_nodes())} joins still to run "
                f"{remaining:.3f}s x {factor:.2f}: fused into the final job",
            )
        )
        return plan

    # -- main entry -------------------------------------------------------------

    def stages(self, query: Query, session: Session, namespace: str = "") -> Stages:
        """The full dynamic run as one resumable stage generator."""
        run = QueryRun(query, session, self.name, namespace)
        state = DriverState(run=run, current=query)
        outcome = yield from self.prepare_stages(run, session)
        if outcome is not None:
            state.current = outcome.query
            state.registry.update(original_leaves(query, outcome.intermediates))
        self._maybe_fail(state)
        return (yield from self.resume_stages(state, session))

    def resume(self, state: DriverState, session: Session) -> ExecutionResult:
        """Continue a run from a re-optimization-point checkpoint.

        The intermediates the checkpoint references must still exist in the
        session's dataset catalog (they do, unless ``reset_intermediates``
        ran) — this is the paper's Section-8 recovery story: completed join
        stages are never repeated after a failure. The resumed query runs
        under the namespace those intermediates live in, so it is verified
        and released as the one query it is.
        """
        run = state.run
        return run_solo(
            run.query,
            lambda namespace: self.resume_stages(state, session),
            session,
            namespace=run.namespace,
        )

    def resume_stages(self, state: DriverState, session: Session) -> Stages:
        """The re-optimization loop from a checkpoint, one stage per join."""
        run = state.run
        while True:
            toolkit = self._toolkit(state, session)
            planner = Planner(toolkit, self.rank)
            if len(toolkit.join_graph()) <= 2:
                break
            picked = self._pick_join(state, planner, toolkit)
            keep, stats_columns = self._sink_columns(state.current, toolkit, picked)
            stats_columns = self.sketch_columns(state, stats_columns)
            fused = self.fuse_plan(state, toolkit, picked, keep, stats_columns)
            if fused is not None:
                return (yield from self._final_stages(state, session, fused))
            # Plan-time verification (DESIGN.md §14): check the picked join's
            # logical subtree at the re-optimization point that produced it,
            # before jobgen — the compiled job re-verifies at the launch gate.
            verify_plan_before_jobgen(session.executor, picked.node, run.statistics)
            name = f"{run.namespace}__join_{state.iteration}"
            job = build_sink_job(
                picked.node,
                name,
                keep,
                stats_columns,
                session.datasets,
                phase=f"join-{state.iteration}",
            )
            # Phase names strip the namespace so a run's phase list does not
            # depend on its query id (join:__join_0+dc under any __q<id>).
            pair = sorted(a.removeprefix(run.namespace) for a in picked.pair)
            phase_name = f"join:{'+'.join(pair)}"
            yield run.job(phase_name, job, kind="join")
            state.registry[name] = resolve_logical(picked.node, state.registry)
            state.current = reconstruct_after_join(
                state.current, toolkit.resolver, picked.pair, name
            )
            state.iteration += 1
            if self.policy is not None:
                # Consult before the failure injector: the consult (and any
                # refresh it buys) belongs to the stage, so a checkpoint taken
                # here already carries the stage's feedback.
                yield from self._consult_policy(
                    state, session, name, phase_name, bool(stats_columns)
                )
            self._maybe_fail(state)

        return (yield from self._final_stages(state, session))

    def _final_stages(
        self, state: DriverState, session: Session, plan: PlanNode | None = None
    ) -> Stages:
        """The job that returns rows to the user: ``plan`` over everything
        still unjoined (the fuse rule's greedy tree), or by default the
        endgame ordering of at most two joins."""
        run = state.run
        if plan is None:
            plan = Planner(self._toolkit(state, session), self.rank).final_plan()
        verify_plan_before_jobgen(session.executor, plan, run.statistics)
        self.last_tree = resolve_logical(plan, state.registry)
        return (
            yield from final_job_stages(
                run,
                plan,
                state.current,
                session,
                described=self.last_tree,
                decisions=state.policy_log,
            )
        )

    def _maybe_fail(self, state: DriverState) -> None:
        if (
            self.fail_after_jobs is not None
            and state.run.metrics.jobs >= self.fail_after_jobs
        ):
            self.fail_after_jobs = None  # fail once
            raise SimulatedFailure(state)

    # -- feedback policy --------------------------------------------------------

    def _toolkit(self, state: DriverState, session: Session) -> PlannerToolkit:
        """Planning toolkit over the run's current query and statistics."""
        return PlannerToolkit(
            state.current, session, state.run.statistics, self.inl_enabled
        )

    def _pick_join(
        self,
        state: DriverState,
        planner: Planner,
        toolkit: PlannerToolkit,
    ) -> PlannedJoin:
        """The next join: greedy, or the widened pick after a bad miss.

        When the previous stage's estimate missed badly, the policy arms a
        one-shot *widened* planning step: the bounded bushy enumeration over
        the surviving tables replaces the greedy "cheapest next join" rule
        (the greedy rule is what propagated the miss). Beyond the size
        bound, or when both agree, the greedy pick stands.
        """
        if not state.widen_pending:
            return planner.cheapest_join()
        state.widen_pending = False
        from repro.optimizers.enumeration import bounded_first_join

        widened = bounded_first_join(toolkit, WIDEN_MAX_TABLES)
        greedy = planner.cheapest_join()
        if widened is None or widened.pair == greedy.pair:
            return greedy
        strip = state.run.namespace
        state.policy_log.append(
            PolicyDecision(
                phase=f"join-{state.iteration}",
                action="widen",
                q_error=state.policy_log[-1].q_error,  # the miss that armed it
                threshold=REPLAN_QERROR,
                detail="enumeration picked "
                + "+".join(sorted(a.removeprefix(strip) for a in widened.pair))
                + " over greedy "
                + "+".join(sorted(a.removeprefix(strip) for a in greedy.pair)),
            )
        )
        return widened

    def _consult_policy(
        self,
        state: DriverState,
        session: Session,
        name: str,
        phase_name: str,
        had_sketches: bool,
    ) -> Stages:
        """Compare the stage's measured Q-error against the trigger threshold.

        Runs right after a join stage materialized. Reading the tracer's
        latest estimate record costs zero simulated seconds; only the
        *actions* a bad miss triggers (the sketch-refresh job, a widened next
        pick) touch the clock.
        """
        record = state.run.tracer.latest_estimate(phase=phase_name)
        if record is None:
            return
        q = record.q_error
        if not self.policy.is_bad_miss(q):
            return
        details = []
        if not had_sketches:
            refreshed = yield from self.refresh_stages(state, session, name)
            if refreshed:
                details.append(
                    f"refreshed sketches on {name.removeprefix(state.run.namespace)}"
                )
        state.widen_pending = True
        details.append("widened next pick to bounded enumeration")
        state.policy_log.append(
            PolicyDecision(
                phase=phase_name,
                action="replan",
                q_error=q,
                threshold=REPLAN_QERROR,
                detail="; ".join(details),
            )
        )

    def refresh_stages(
        self, state: DriverState, session: Session, name: str
    ) -> Stages:
        """Extra re-optimization: re-sketch a mis-estimated intermediate.

        The fixed schedule skips online statistics in the last loop
        iteration(s); after a bad miss that skip is exactly what leaves the
        endgame blind (an unsketched intermediate's distinct counts fall
        back to its row count, deflating every estimate involving it). The
        refresh reads the materialized intermediate back and sketches its
        future join columns, charged as one extra cluster job (launch + read
        + sketch maintenance) on the simulated clock — the driver gathers
        the sketches in-process and yields the charge as a virtual-cost
        request, the same pattern as pilot-run sampling.
        """
        dataset = session.datasets.get(name)
        columns = tuple(
            sorted(
                column
                for column in join_columns_of(state.current)
                if dataset.schema.has_field(column)
            )
        )
        if not columns:
            return False
        collector = StatisticsCollector(columns)
        collector.observe_columns(
            {name: dataset.column(name) for name in columns}, dataset.row_count
        )
        state.run.statistics.register_from_collector(
            name, collector, dataset.schema.row_width, dataset.scale
        )
        cost = session.executor.cost
        delta = JobMetrics()
        delta.startup = cost.job_startup()
        delta.scan = cost.read_materialized(
            dataset.modeled_rows, dataset.schema.row_width
        )
        delta.stats = cost.statistics(dataset.modeled_rows, len(columns))
        delta.tuples_scanned = dataset.row_count
        delta.jobs = 1
        yield state.run.charge(
            f"replan:{name.removeprefix(state.run.namespace)}", delta, kind="replan"
        )
        return True

    # -- helpers ----------------------------------------------------------------

    def _sink_columns(
        self, current: Query, toolkit: PlannerToolkit, picked
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Columns the intermediate must keep / collect sketches on.

        Keep = columns of the joined pair still referenced by the remaining
        query; sketch only those that participate in subsequent join stages
        (Section 5.3's "Online Statistics").
        """
        a, b = sorted(picked.pair)
        pair_columns = toolkit.resolver.columns_of(a) | toolkit.resolver.columns_of(b)
        remaining_joins = [
            c
            for c in current.joins
            if frozenset(toolkit.resolver.join_sides(c)) != picked.pair
        ]
        referenced = set(current.select) | set(current.group_by) | set(current.order_by)
        future_join_columns = set()
        for condition in remaining_joins:
            future_join_columns.add(condition.left)
            future_join_columns.add(condition.right)
        referenced |= future_join_columns
        keep = tuple(sorted(pair_columns & referenced))
        if not keep:
            # Degenerate but legal: nothing downstream references the pair;
            # keep the join keys so the intermediate is non-empty-schema.
            keep = picked.node.probe_keys
        stats_columns = tuple(sorted(pair_columns & future_join_columns))
        return keep, stats_columns
