"""Plan-level estimation: cardinalities, widths and costs of join trees.

This is the machinery the *static* optimizers run on: leaf cardinalities from
ingestion-time statistics (with the independence assumption and default
factors for complex predicates — the very weaknesses the paper exploits), join
cardinalities from formula (1) with distinct counts inherited from base
datasets, and an analytic cost built from the same cost-model formulas the
engine charges.

The dynamic optimizer uses the same join-cardinality formula but feeds it
*measured* statistics of materialized inputs, so its one-join-ahead estimates
are far more accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.plan import JoinNode, LeafNode, PlanNode
from repro.cluster.config import ClusterConfig
from repro.cluster.cost import CostModel
from repro.common.errors import PlanError
from repro.engine.operators.joins import JoinAlgorithm
from repro.stats.catalog import StatisticsCatalog
from repro.stats.estimation import filtered_cardinality, resolve_field


@dataclass(frozen=True)
class NodeEstimate:
    """Estimated physical properties of a plan node's output.

    ``rows`` is in stored (simulated) units; ``scale`` converts to the
    modeled full-scale dataset (DESIGN.md §2). Size-based decisions —
    broadcast eligibility, cost formulas — use the modeled quantities.
    """

    rows: float
    row_width: int
    scale: float = 1.0

    @property
    def modeled_rows(self) -> float:
        return self.rows * self.scale

    @property
    def byte_size(self) -> float:
        """Modeled full-scale byte size."""
        return self.modeled_rows * self.row_width


class PlanEstimator:
    """Estimates cardinalities and costs over plan trees.

    ``alias_datasets`` maps each FROM alias to the statistics-catalog entry
    to use for it — the level of indirection that lets the dynamic approach
    swap a base dataset for its post-predicate materialization.

    An estimator is bound to one query and one statistics snapshot (one
    :class:`~repro.algebra.toolkit.PlannerToolkit`), so every estimate is a
    value: ``estimate`` and ``cout_cost`` are computed once per distinct plan
    node and the per-leaf distinct-count lookups once per (alias, column),
    for the estimator's lifetime. The next re-optimization point builds a new
    toolkit over the new statistics, which is the only invalidation there is.
    """

    def __init__(
        self,
        statistics: StatisticsCatalog,
        alias_datasets: dict[str, str],
        cluster: ClusterConfig,
        cost: CostModel,
        composite_rule: str = "max",
    ) -> None:
        if composite_rule not in ("max", "product"):
            raise PlanError(f"unknown composite rule {composite_rule!r}")
        self.statistics = statistics
        self.alias_datasets = alias_datasets
        self.cluster = cluster
        self.cost = cost
        #: How multi-conjunct join estimates combine: "max" divides by the
        #: most selective single conjunct (the runtime planner's conservative
        #: reading of formula (1)); "product" multiplies every conjunct's
        #: factor under independence — the classic Selinger behavior the
        #: static baseline inherits, which collapses correlated composite
        #: keys (TPC-DS ticket/item/customer) toward zero and makes
        #: fact-to-fact joins look free.
        self.composite_rule = composite_rule
        self._estimates: dict[PlanNode, NodeEstimate] = {}
        self._cout_costs: dict[PlanNode, float] = {}
        #: (alias, column) -> U(column) read off that alias's statistics, or
        #: None when they do not sketch the column.
        self._leaf_distincts: dict[tuple[str, str], float | None] = {}

    # -- cardinalities ------------------------------------------------------

    def estimate(self, node: PlanNode) -> NodeEstimate:
        found = self._estimates.get(node)
        if found is None:
            found = self._estimates[node] = self._estimate(node)
        return found

    def _estimate(self, node: PlanNode) -> NodeEstimate:
        if isinstance(node, LeafNode):
            stats = self.statistics.get(self.alias_datasets[node.alias])
            return NodeEstimate(
                filtered_cardinality(stats, node.predicates),
                stats.row_width,
                stats.scale,
            )
        if not isinstance(node, JoinNode):
            raise PlanError(f"cannot estimate node type {type(node).__name__}")
        if len(node.build_keys) != len(node.probe_keys):
            raise PlanError(
                f"join {node.describe()} has {len(node.build_keys)} build keys "
                f"{node.build_keys} but {len(node.probe_keys)} probe keys "
                f"{node.probe_keys}"
            )
        build = self.estimate(node.build)
        probe = self.estimate(node.probe)
        divisor = 1.0
        for build_key, probe_key in zip(node.build_keys, node.probe_keys):
            u_build = self.column_distinct(node.build, build_key, build.rows)
            u_probe = self.column_distinct(node.probe, probe_key, probe.rows)
            if self.composite_rule == "product":
                divisor *= max(u_build, u_probe, 1.0)
            else:
                divisor = max(divisor, u_build, u_probe)
        rows = build.rows * probe.rows / divisor
        # Static plans pipeline full concatenated rows; this width inflation
        # (vs the narrow projected intermediates the dynamic approach
        # materializes) is one reason static misses broadcast opportunities.
        width = build.row_width + probe.row_width
        return NodeEstimate(max(0.0, rows), width, max(build.scale, probe.scale))

    def column_distinct(self, node: PlanNode, column: str, node_rows: float) -> float:
        """U(column) at this node: inherited from the providing leaf, capped
        by the node's row count (the standard System-R propagation)."""
        for leaf in node.leaves():
            distinct = self._leaf_distinct(leaf.alias, column)
            if distinct is not None:
                return max(1.0, min(distinct, node_rows))
        return max(1.0, node_rows)

    def _leaf_distinct(self, alias: str, column: str) -> float | None:
        key = (alias, column)
        if key not in self._leaf_distincts:
            stats = self.statistics.get(self.alias_datasets[alias])
            field = resolve_field(stats, column)
            self._leaf_distincts[key] = (
                field.distinct_count
                if field is not None and len(field.distinct) > 0
                else None
            )
        return self._leaf_distincts[key]

    # -- costs --------------------------------------------------------------

    def cout_cost(self, node: PlanNode) -> float:
        """Classic cardinality cost: the sum of estimated intermediate sizes.

        This is the metric the paper's static cost-based baseline minimizes
        ("to assign a cost for each plan ... depends heavily on statistical
        information"): every join contributes its estimated (modeled) output
        volume. It carries no awareness of partitioning or data movement —
        that fidelity gap, plus the default selectivity factors, is what the
        runtime dynamic approach exploits.
        """
        if isinstance(node, LeafNode):
            return 0.0
        if not isinstance(node, JoinNode):
            raise PlanError(f"cannot cost node type {type(node).__name__}")
        found = self._cout_costs.get(node)
        if found is None:
            out = self.estimate(node)
            found = self._cout_costs[node] = (
                self.cout_cost(node.build)
                + self.cout_cost(node.probe)
                + out.modeled_rows * out.row_width
            )
        return found

    def plan_cost(self, node: PlanNode) -> float:
        """Movement-aware execution-cost estimate of a full plan (mirrors the
        engine's cost model; used by ablations, not the paper baseline)."""
        return self._cost(node, leaf_scans=True)[0]

    def join_phase_cost(self, node: PlanNode) -> float:
        """The joins' share of :meth:`plan_cost`: exchange, build, probe and
        spill of every join in the tree, with no leaf scan in it — what is
        still to run once the inputs are read, whichever job reads them."""
        return self._cost(node, leaf_scans=False)[0]

    def _cost(self, node: PlanNode, leaf_scans: bool) -> tuple[float, NodeEstimate]:
        if isinstance(node, LeafNode):
            estimate = self.estimate(node)
            if not leaf_scans:
                return 0.0, estimate
            stats = self.statistics.get(self.alias_datasets[node.alias])
            modeled = stats.row_count * stats.scale
            seconds = self.cost.scan(modeled, stats.row_width)
            if node.predicates:
                seconds += self.cost.predicate_eval(modeled, len(node.predicates))
            return seconds, estimate
        if not isinstance(node, JoinNode):
            raise PlanError(f"cannot cost node type {type(node).__name__}")
        build_cost, build = self._cost(node.build, leaf_scans)
        probe_cost, probe = self._cost(node.probe, leaf_scans)
        out = self.estimate(node)
        if node.algorithm is JoinAlgorithm.HASH:
            seconds = build_cost + probe_cost
            seconds += self.cost.hash_exchange(build.modeled_rows, build.row_width)
            seconds += self.cost.hash_exchange(probe.modeled_rows, probe.row_width)
            seconds += self.cost.hash_build(build.modeled_rows)
            seconds += self.cost.probe(probe.modeled_rows + out.modeled_rows)
            seconds += self.cost.spill(build.byte_size, probe.byte_size)
        elif node.algorithm is JoinAlgorithm.BROADCAST:
            seconds = build_cost + probe_cost
            seconds += self.cost.broadcast_exchange(
                build.modeled_rows, build.row_width
            )
            seconds += self.cost.broadcast_build(build.modeled_rows)
            seconds += self.cost.probe(probe.modeled_rows + out.modeled_rows)
        else:  # INL looks its inner side up through the index: no scan of it.
            seconds = build_cost
            seconds += self.cost.broadcast_exchange(
                build.modeled_rows, build.row_width
            )
            seconds += self.cost.index_lookups(build.modeled_rows)
            seconds += self.cost.probe(out.modeled_rows)
        return seconds, out
