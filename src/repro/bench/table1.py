"""Table 1: average improvement of the dynamic approach per method.

The paper reports, for 100GB and 1000GB, the average (over the four queries)
of each method's execution time divided by the dynamic approach's:

    | Data Size | Cost-Based | Pilot-run | Ingres-like | Best-order | Worst-order |
    | 100       | 1.34x      | 1.28x     | 1.4x        | 0.88x      | 5.2x        |
    | 1000      | 1.27x      | 1.20x     | 1.27x       | 0.85x      | >10x        |
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bench.sweep import Cell, grouped

#: the paper's Table 1, for side-by-side reporting
PAPER_TABLE1 = {
    100: {
        "cost_based": 1.34,
        "pilot_run": 1.28,
        "ingres": 1.40,
        "best_order": 0.88,
        "worst_order": 5.2,
    },
    1000: {
        "cost_based": 1.27,
        "pilot_run": 1.20,
        "ingres": 1.27,
        "best_order": 0.85,
        "worst_order": 10.0,
    },
}


@dataclass(frozen=True)
class ImprovementRow:
    scale_factor: int
    ratios: dict  # optimizer -> average (method seconds / dynamic seconds)


def improvement_rows(
    cells: Sequence[Cell], scale_factors=(100, 1000)
) -> list[ImprovementRow]:
    """Compute Table 1 from Figure 7 cells."""
    rows = []
    for scale_factor in scale_factors:
        ratios: dict[str, list[float]] = {}
        for (sf, *_), group in grouped(cells).items():
            if sf != scale_factor or "dynamic" not in group:
                continue
            for optimizer, cell in group.items():
                if optimizer != "dynamic":
                    ratio = cell.seconds / group["dynamic"].seconds
                    ratios.setdefault(optimizer, []).append(ratio)
        averages = {opt: sum(values) / len(values) for opt, values in ratios.items()}
        rows.append(ImprovementRow(scale_factor, averages))
    return rows


def format_rows(rows: list[ImprovementRow]) -> str:
    lines = [
        "Average improvement of the dynamic approach (method time / dynamic time)",
        f"{'SF':>5} | " + " | ".join(f"{o:>11}" for o in rows[0].ratios),
    ]
    for row in rows:
        lines.append(
            f"{row.scale_factor:>5} | "
            + " | ".join(f"{row.ratios[o]:>10.2f}x" for o in row.ratios)
        )
        paper = PAPER_TABLE1.get(row.scale_factor)
        if paper:
            lines.append(
                "paper | "
                + " | ".join(f"{paper.get(o, float('nan')):>10.2f}x" for o in row.ratios)
            )
    return "\n".join(lines)
