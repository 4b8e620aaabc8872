"""Figure 7 / Figure 8 and the estimate-accuracy report, as sweep key lists.

Figure 7 compares the dynamic approach against static cost-based
optimization, the user-order baselines (best/worst), pilot-run and the
INGRES-like approach at scale factors 10/100/1000. Figure 8 repeats the
comparison with secondary indexes present and the indexed nested loop join
enabled (worst-order is excluded there, as in the paper: without hints it
would never choose INL, so its time is unchanged). The Q-error report reads
the same bars' traces, plus stock AsterixDB's FROM order and the sketch-based
planner. Run a list through :class:`~repro.bench.sweep.Sweep`.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.runner import (
    COMPARISON_OPTIMIZERS,
    QERROR_OPTIMIZERS,
    QUERIES,
    SCALE_FACTORS,
)
from repro.bench.sweep import Cell, Key, grouped, qerror_text


def _bars(
    scale_factors: Sequence[int],
    queries: Sequence[str],
    optimizers: Sequence[str],
    inl_enabled: bool = False,
) -> list[Key]:
    return [
        Key(query, scale_factor, optimizer, inl_enabled=inl_enabled)
        for scale_factor in scale_factors
        for query in queries
        for optimizer in optimizers
    ]


def figure7(
    scale_factors: Sequence[int] = SCALE_FACTORS,
    queries: Sequence[str] = tuple(QUERIES),
) -> list[Key]:
    """Every bar of Figure 7."""
    return _bars(scale_factors, queries, COMPARISON_OPTIMIZERS)


def figure8(
    scale_factors: Sequence[int] = SCALE_FACTORS,
    queries: Sequence[str] = tuple(QUERIES),
) -> list[Key]:
    """Every bar of Figure 8 (INL enabled, worst-order excluded)."""
    optimizers = tuple(o for o in COMPARISON_OPTIMIZERS if o != "worst_order")
    return _bars(scale_factors, queries, optimizers, inl_enabled=True)


def qerror(scale_factors: Sequence[int] = (10,)) -> list[Key]:
    """Every row of the Q-error report."""
    return _bars(scale_factors, tuple(QUERIES), QERROR_OPTIMIZERS)


def format_cells(cells: Sequence[Cell]) -> str:
    """Render cells as the figure's groups of bars, in text."""
    lines = []
    for (scale_factor, query, *_), group in grouped(cells).items():
        lines.append(f"{query} @ SF {scale_factor} ({scale_factor}GB nominal)")
        bars = list(group.values())
        base = group["dynamic"].seconds if "dynamic" in group else bars[0].seconds
        for cell in bars:
            ratio = cell.seconds / base if base else float("inf")
            lines.append(
                f"  {cell.key.variant:12s} {cell.seconds:10.1f}s"
                f"  ({ratio:5.2f}x dynamic)  rows={cell.rows}"
            )
    return "\n".join(lines)


def format_qerror(cells: Sequence[Cell]) -> str:
    """Render Q-error summaries grouped like the Figure 7 bar groups."""
    lines = []
    for (scale_factor, query, *_), group in grouped(cells).items():
        lines.append(f"{query} @ SF {scale_factor} — estimate accuracy (Q-error)")
        lines.append(
            f"  {'optimizer':12s} {'points':>6s} {'final':>8s}"
            f" {'worst':>8s} {'mean':>8s}"
        )
        for cell in group.values():
            lines.append(
                f"  {cell.key.variant:12s} {cell.qerror_records:6d}"
                f" {qerror_text(cell.final_qerror):>8s}"
                f" {qerror_text(cell.worst_qerror):>8s}"
                f" {qerror_text(cell.mean_qerror):>8s}"
            )
    return "\n".join(lines)
