"""Figure 6: overhead of re-optimization points, online statistics, and
predicate push-down.

Left side (paper): two executions per query and a fold —

1. the full dynamic run;
2. "statistics upfront": the captured optimal plan executed as one
   pipelined job (all statistics known from the start, no re-optimization);
3. the full run's metrics with the online-statistics charge folded out —
   the same run, the same plans, its sketch cost uncharged.

``re-optimization overhead = (3) - (2)`` and ``online statistics overhead =
(1) - (3)``, both reported relative to the full run — matching the paper's
~10% (SF 100) to ~15-20% (SF 1000) re-optimization and 1-5% statistics
figures.

Right side: the baseline is again the upfront plan with inline filters; the
"predicate push-down" variant runs the push-down materialization jobs first
and then executes the *same* plan with the filtered leaves replaced by their
materialized intermediates. The delta isolates the push-down materialization
cost (≤3% in the paper).

The ablations' single-shot and no-push-down runs are compositions here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.algebra.plan import JoinNode, LeafNode, PlanNode
from repro.algebra.toolkit import PlannerToolkit
from repro.bench.runner import workbench_for_query
from repro.core.driver import (
    DriverState,
    DynamicOptimizer,
    greedy_full_plan,
    original_leaves,
    resolve_logical,
)
from repro.core.predicate_pushdown import pushdown_stages
from repro.engine.metrics import ExecutionResult
from repro.engine.scheduler import QueryRun, run_solo
from repro.optimizers.base import execute_tree, final_job_stages


@dataclass(frozen=True)
class OverheadReport:
    """Figure 6 numbers for one (query, scale factor)."""

    query: str
    scale_factor: int
    full_seconds: float
    upfront_seconds: float
    no_online_stats_seconds: float
    pushdown_variant_seconds: float

    @property
    def reoptimization_fraction(self) -> float:
        """Re-optimization overhead relative to the full dynamic run."""
        return max(0.0, self.no_online_stats_seconds - self.upfront_seconds) / self.full_seconds

    @property
    def online_stats_fraction(self) -> float:
        """Online statistics overhead relative to the full dynamic run."""
        return max(0.0, self.full_seconds - self.no_online_stats_seconds) / self.full_seconds

    @property
    def pushdown_fraction(self) -> float:
        """Predicate push-down materialization overhead vs the baseline."""
        return (
            self.pushdown_variant_seconds - self.upfront_seconds
        ) / self.upfront_seconds


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
    return dc_replace(
        tree,
        build=_tree_with_materialized_filters(tree.build, intermediates),
        probe=_tree_with_materialized_filters(tree.probe, intermediates),
    )


def pushdown_variant(query, session, tree: PlanNode) -> ExecutionResult:
    """Push-down materialization + same plan over the materialized leaves,
    as one run: the push-down jobs, then ``tree`` with its filtered leaves
    swapped for their materializations as the single final job."""

    def stages(namespace: str):
        run = QueryRun(query, session, "pushdown", namespace)
        outcome = yield from pushdown_stages(run, session)
        swapped = _tree_with_materialized_filters(tree, outcome.intermediates)
        return (
            yield from final_job_stages(
                run, swapped, outcome.query, session, phase="single-job", kind="single"
            )
        )

    return run_solo(query, stages, session)


def single_shot_variant(query, session) -> ExecutionResult:
    """Push-down without feedback: the push-down jobs, then every join
    planned greedily over the refined statistics and run as one job."""

    def stages(namespace: str):
        run = QueryRun(query, session, "single-shot", namespace)
        outcome = yield from pushdown_stages(run, session)
        plan = greedy_full_plan(PlannerToolkit(outcome.query, session, run.statistics))
        registry = original_leaves(query, outcome.intermediates)
        described = resolve_logical(plan, registry)
        return (
            yield from final_job_stages(
                run, plan, outcome.query, session, phase="single-shot", described=described
            )
        )

    return run_solo(query, stages, session)


def no_pushdown_variant(query, session) -> ExecutionResult:
    """The re-optimization loop without the push-down prelude: local
    predicates are evaluated inline by whichever job first reads a table."""

    def stages(namespace: str):
        state = DriverState(QueryRun(query, session, "dynamic", namespace), query)
        return (yield from DynamicOptimizer().resume_stages(state, session))

    return run_solo(query, stages, session)


def overhead_report(query_label: str, scale_factor: int, seed: int = 42) -> OverheadReport:
    """All Figure 6 measurements for one query at one scale factor."""
    bench = workbench_for_query(query_label, scale_factor, seed)
    query = bench.query(query_label)
    session = bench.session
    full = DynamicOptimizer().execute(query, session)
    upfront = execute_tree(full.plan, query, session)
    pushdown = pushdown_variant(query, session, full.plan)
    return OverheadReport(
        query=query_label,
        scale_factor=scale_factor,
        full_seconds=full.seconds,
        upfront_seconds=upfront.seconds,
        # the same run, its sketch cost uncharged (exact: a fixed-order sum)
        no_online_stats_seconds=dc_replace(full.metrics, stats=0.0).total_seconds,
        pushdown_variant_seconds=pushdown.seconds,
    )


def figure6(scale_factors=(100, 1000), seed: int = 42) -> list[OverheadReport]:
    """Every group of Figure 6 (both sides share these runs)."""
    from repro.bench.runner import QUERIES

    return [
        overhead_report(label, scale_factor, seed)
        for scale_factor in scale_factors
        for label in QUERIES
    ]


def format_reports(reports: list[OverheadReport]) -> str:
    lines = []
    for r in reports:
        lines.append(
            f"{r.query} @ SF {r.scale_factor}: total={r.full_seconds:9.1f}s"
            f"  re-opt={r.reoptimization_fraction * 100:5.1f}%"
            f"  online-stats={r.online_stats_fraction * 100:4.1f}%"
            f"  pushdown={r.pushdown_fraction * 100:+5.1f}%"
        )
    return "\n".join(lines)
