"""Adversarial skew sweep: every strategy against the knobbed JOB universe.

``python -m repro.bench skew`` sweeps all registered strategies over a grid
of the two :class:`~repro.workloads.WorkloadSpec` knobs — Zipf ``skew`` on
the fact-table foreign keys and filter/hot-key ``correlation`` — and
tabulates simulated execution time and estimate accuracy (Q-error) per
cell. The stock cell (0, 0) is the estimator-friendly regime where every
strategy lands close; as the knobs rise, the independence and uniformity
assumptions behind ingestion-time statistics break and the strategies
split into two populations:

- **static** planners (``cost_based``, ``from_order``, ``worst_order``,
  ``greedy_static``) commit to a join order from pre-computed estimates
  and cannot recover when the hot keys concentrate the joins;
- **adaptive** planners — ``dynamic`` (runtime re-optimization) and
  ``sketch_online`` (post-filter sketches measured during the
  pre-filtering scans) — observe the actual filtered universe before
  ordering the joins.

``best_order`` sits outside both sets: it replays the plan an *uncharged*
scout run of the dynamic strategy found, so it is an oracle bound, not an
estimator. ``pilot_run``/``ingres`` adapt partially (sampling, stepwise
decomposition) and are reported but not part of the acceptance check.

:func:`skew_ok` encodes the experiment's acceptance condition: at least
one adversarial cell must show both adaptive planners beating **every**
static strategy on simulated time while ``cost_based``'s worst Q-error
exceeds the feedback policy's replan trigger — i.e. the regime where the
paper's dynamic approach is load-bearing actually exists in the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import run_query
from repro.core.policy import REPLAN_QERROR
from repro.obs.report import qerror_stats
from repro.optimizers import available_strategies

#: the sweep's query: J2 (the 5-table chain over cast_info) keeps result
#: sizes bounded as skew rises while the Zipf head still dominates every
#: join input; J1/J3's star shape explodes multiplicatively instead.
SKEW_QUERY = "J2"
SKEW_SCALE_FACTOR = 10

#: the full grid: Zipf exponents x hot-key correlation probabilities
SKEWS = (0.0, 0.7, 1.1, 1.3)
CORRELATIONS = (0.0, 0.9)
#: CI configuration: the stock cell plus one deep-adversarial cell
SMOKE_CELLS = ((0.0, 0.0), (1.3, 0.9))

#: strategies that commit to a join order from estimator statistics
STATIC_OPTIMIZERS = ("cost_based", "from_order", "worst_order", "greedy_static")
#: strategies that measure the filtered data before (or while) ordering joins
ADAPTIVE_OPTIMIZERS = ("dynamic", "sketch_online")

@dataclass(frozen=True)
class SkewCell:
    """One (skew, correlation, strategy) measurement."""

    query: str
    scale_factor: int
    skew: float
    correlation: float
    optimizer: str
    seconds: float
    rows: int
    final_qerror: float | None
    worst_qerror: float | None


def sweep_cell(
    skew: float,
    correlation: float,
    optimizer: str,
    query: str = SKEW_QUERY,
    scale_factor: int = SKEW_SCALE_FACTOR,
    seed: int = 42,
) -> SkewCell:
    """Run one strategy against one knob setting of the universe."""
    result = run_query(
        query, scale_factor, optimizer, seed=seed,
        skew=skew, correlation=correlation,
    )
    stats = qerror_stats(result.trace)
    return SkewCell(
        query=query,
        scale_factor=scale_factor,
        skew=skew,
        correlation=correlation,
        optimizer=optimizer,
        seconds=result.metrics.total_seconds,
        rows=len(result.rows),
        final_qerror=stats["final"],
        worst_qerror=stats["worst"],
    )


def run_skew(
    cells: tuple[tuple[float, float], ...] | None = None,
    optimizers: tuple[str, ...] | None = None,
    query: str = SKEW_QUERY,
    scale_factor: int = SKEW_SCALE_FACTOR,
    seed: int = 42,
    smoke: bool = False,
) -> list[SkewCell]:
    """The sweep: every strategy at every grid cell, registry-enumerated."""
    if cells is None:
        cells = (
            SMOKE_CELLS
            if smoke
            else tuple((s, c) for s in SKEWS for c in CORRELATIONS)
        )
    optimizers = optimizers or available_strategies()
    return [
        sweep_cell(skew, correlation, optimizer, query, scale_factor, seed)
        for skew, correlation in cells
        for optimizer in optimizers
    ]


def _grouped(cells: list[SkewCell]) -> dict[tuple[float, float], list[SkewCell]]:
    groups: dict[tuple[float, float], list[SkewCell]] = {}
    for cell in cells:
        groups.setdefault((cell.skew, cell.correlation), []).append(cell)
    return groups


def skew_ok(cells: list[SkewCell]) -> bool:
    """True when some adversarial cell shows the separation the paper needs:
    both adaptive planners beat every static strategy on simulated time and
    ``cost_based``'s worst Q-error exceeds the replan trigger."""
    for (skew, correlation), group in _grouped(cells).items():
        if skew <= 0 or correlation <= 0:
            continue
        seconds = {cell.optimizer: cell.seconds for cell in group}
        required = set(ADAPTIVE_OPTIMIZERS) | set(STATIC_OPTIMIZERS)
        if not required <= set(seconds):
            continue
        static_floor = min(seconds[name] for name in STATIC_OPTIMIZERS)
        if not all(seconds[name] < static_floor for name in ADAPTIVE_OPTIMIZERS):
            continue
        cost = next(c for c in group if c.optimizer == "cost_based")
        if cost.worst_qerror is not None and cost.worst_qerror > REPLAN_QERROR:
            return True
    return False


def format_skew(cells: list[SkewCell]) -> str:
    """Tabulate the grid, one block per (skew, correlation) cell."""

    def fmt(value: float | None) -> str:
        if value is None:
            return "-"
        if value == float("inf"):
            return "inf"
        return f"{value:.2f}"

    lines = []
    for (skew, correlation), group in sorted(_grouped(cells).items()):
        first = group[0]
        lines.append(
            f"{first.query} @ SF {first.scale_factor} — "
            f"skew={skew:g} correlation={correlation:g}"
        )
        lines.append(
            f"  {'optimizer':14s} {'sim s':>9s} {'rows':>7s}"
            f" {'final-q':>8s} {'worst-q':>8s}"
        )
        for cell in sorted(group, key=lambda c: c.seconds):
            tag = (
                " [adaptive]" if cell.optimizer in ADAPTIVE_OPTIMIZERS
                else " [static]" if cell.optimizer in STATIC_OPTIMIZERS
                else ""
            )
            lines.append(
                f"  {cell.optimizer:14s} {cell.seconds:9.1f} {cell.rows:7d}"
                f" {fmt(cell.final_qerror):>8s} {fmt(cell.worst_qerror):>8s}"
                f"{tag}"
            )
    verdict = (
        "adaptive planners beat every static strategy in an adversarial cell "
        f"with cost_based worst Q-error > {REPLAN_QERROR:g} (replan trigger)"
        if skew_ok(cells)
        else "SEPARATION NOT SHOWN: no adversarial cell met the acceptance "
        "condition"
    )
    lines.append(verdict)
    return "\n".join(lines)
