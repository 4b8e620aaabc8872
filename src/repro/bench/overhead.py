"""Figure 6: overhead of re-optimization points, online statistics, and
predicate push-down, folded from sweep cells.

Left side (paper): two cells per query and a fold —

1. ``dynamic``, the full dynamic run;
2. ``best_order``, "statistics upfront": the dynamic plan executed as one
   pipelined job (all statistics known from the start, no re-optimization);
3. the full run's metrics with the online-statistics charge folded out —
   the same run, the same plans, its sketch cost uncharged.

``re-optimization overhead = (3) - (2)`` and ``online statistics overhead =
(1) - (3)``, both reported relative to the full run — matching the paper's
~10% (SF 100) to ~15-20% (SF 1000) re-optimization and 1-5% statistics
figures.

Right side: the baseline is again the upfront plan with inline filters; the
``pushdown_replay`` cell runs the push-down materialization jobs first and
then executes the *same* plan with the filtered leaves replaced by their
materialized intermediates. The delta isolates the push-down materialization
cost (≤3% in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.bench.runner import QUERIES
from repro.bench.sweep import Cell, Key, grouped

#: the cells each Figure 6 group folds: the full run, the upfront replay and
#: the push-down replay
_VARIANTS = ("dynamic", "best_order", "pushdown_replay")


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


def figure6(
    scale_factors: Sequence[int] = (100, 1000),
    queries: Sequence[str] = tuple(QUERIES),
) -> list[Key]:
    """Every cell of Figure 6 (both sides share them)."""
    return [
        Key(query, scale_factor, variant)
        for scale_factor in scale_factors
        for query in queries
        for variant in _VARIANTS
    ]


def overhead_reports(cells: Sequence[Cell]) -> list[OverheadReport]:
    """One report per (query, scale factor) group of Figure 6 cells."""
    reports = []
    for (scale_factor, query, *_), group in grouped(cells).items():
        full = group["dynamic"]
        reports.append(
            OverheadReport(
                query=query,
                scale_factor=scale_factor,
                full_seconds=full.seconds,
                upfront_seconds=group["best_order"].seconds,
                # the same run, its sketch cost uncharged (exact: a fixed-order sum)
                no_online_stats_seconds=replace(full.metrics, stats=0.0).total_seconds,
                pushdown_variant_seconds=group["pushdown_replay"].seconds,
            )
        )
    return reports


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
