"""Appendix figures 11-23: the join trees each optimizer produces.

The paper's appendix renders, per query / scale factor / optimizer, the join
tree with algorithm markers (plain hash, 'b' broadcast, 'i' indexed nested
loop). The plans are read off the Figure 7 and Figure 8 cells, and
``format_matrix`` prints them in the appendix's per-query blocks.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.sweep import Cell


def format_matrix(cells: Sequence[Cell]) -> str:
    lines = []
    current = None
    for cell in cells:
        key = cell.key
        header = (key.query, key.scale_factor, key.inl_enabled)
        if header != current:
            current = header
            suffix = " (INL enabled)" if key.inl_enabled else ""
            lines.append(f"-- {key.query} @ SF {key.scale_factor}{suffix}")
        lines.append(f"   {key.variant:12s} {cell.plan}")
    return "\n".join(lines)
