"""INGRES-like baseline (Section 7.2 / Wong & Youssefi 1976).

Same decomposition machinery as the dynamic approach — single-variable
predicate queries, materialized intermediate results (stored "in a temporary
file for simplicity"), iterative re-optimization — but "the choice of the
next best subquery to be executed is only based on dataset cardinalities
(without other statistical information)". No formula-(1) result estimation,
no sketches on intermediates: just row counts.
"""

from __future__ import annotations

from repro.core.driver import DynamicOptimizer
from repro.core.planner import rank_by_input_cardinality


class IngresLikeOptimizer(DynamicOptimizer):
    """Cardinality-only incremental optimization."""

    name = "ingres"

    def __init__(self, inl_enabled: bool = False, policy=None) -> None:
        super().__init__(
            inl_enabled=inl_enabled, rank=rank_by_input_cardinality, policy=policy
        )

    def fuse_plan(self, state, toolkit, picked, keep, stats_columns):
        """No result estimates to price a point with: the fixed schedule."""
        return None

    def sketch_columns(self, state, stats_columns):
        """Intermediates keep row counts only — INGRES has no sketch
        framework, so no online quantile/HLL collection (or cost)."""
        return ()

    def refresh_stages(self, state, session, name):
        """No sketches to refresh after a bad miss either."""
        yield from ()
        return False
