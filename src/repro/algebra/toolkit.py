"""Shared planning toolkit used by every optimizer.

Wraps a query + session + statistics source and provides the operations all
strategies need: the join graph, per-leaf cardinality estimates, formula-(1)
pair estimates, join-condition orientation, and construction of
algorithm-annotated :class:`JoinNode` objects via the JoinAlgorithmRule.

Optimizers differ in *which statistics catalog* feeds the toolkit (ingestion
sketches, pilot-run samples, or measured re-optimization statistics) and in
how they rank candidate joins — not in this machinery.
"""

from __future__ import annotations

from repro.algebra.estimation import PlanEstimator
from repro.algebra.plan import JoinNode, LeafNode, PlanNode
from repro.algebra.rules.join_algorithm import JoinSide, choose_algorithm
from repro.common.errors import OptimizationError
from repro.engine.operators.joins import JoinAlgorithm
from repro.lang.ast import JoinCondition, Query, split_column
from repro.lang.binding import ColumnResolver
from repro.stats.catalog import StatisticsCatalog
from repro.stats.estimation import filtered_cardinality, join_cardinality


def alias_stats_key(alias: str) -> str:
    """Catalog key for per-alias statistics overrides."""
    return f"__alias_stats_{alias}"


class PlannerToolkit:
    """Planning utilities bound to one query + statistics snapshot."""

    def __init__(
        self,
        query: Query,
        session,
        statistics: StatisticsCatalog | None = None,
        inl_enabled: bool = False,
        composite_rule: str = "max",
    ) -> None:
        self.query = query
        self.session = session
        self.statistics = statistics if statistics is not None else session.statistics
        self.inl_enabled = inl_enabled
        self.resolver = ColumnResolver(query, session.datasets.schema_lookup)
        self.cluster = session.cluster
        self.estimator = PlanEstimator(
            self.statistics,
            {t.alias: self._stats_name(t.alias, t.dataset) for t in query.tables},
            self.cluster,
            session.executor.cost,
            composite_rule=composite_rule,
        )

    def _stats_name(self, alias: str, dataset: str) -> str:
        """Statistics entry for one FROM entry.

        Per-alias overrides (``__alias_stats_<alias>``, registered e.g. by
        pilot runs) shadow the dataset-level entry — the indirection that
        lets one dataset appear under several aliases with different
        sample-estimated cardinalities.
        """
        override = alias_stats_key(alias)
        if self.statistics.has(override):
            return override
        return dataset

    # -- leaves ---------------------------------------------------------------

    def leaf(self, alias: str) -> LeafNode:
        table = self.query.table(alias)
        dataset = self.session.datasets.get(table.dataset)
        return LeafNode(
            alias=alias,
            dataset=table.dataset,
            predicates=self.query.predicates_for(alias),
            is_intermediate=dataset.is_intermediate,
        )

    def table_statistics(self, alias: str):
        table = self.query.table(alias)
        return self.statistics.get(self._stats_name(alias, table.dataset))

    def leaf_rows(self, alias: str) -> float:
        """S(x): qualified rows of one FROM entry under current statistics."""
        return filtered_cardinality(
            self.table_statistics(alias), self.query.predicates_for(alias)
        )

    # -- join graph -------------------------------------------------------------

    def join_graph(self) -> dict[frozenset, list[JoinCondition]]:
        return self.resolver.join_graph()

    def estimate_pair(self, a: str, b: str, conditions) -> float:
        """Formula (1) for joining FROM entries ``a`` and ``b``."""
        stats_a = self.table_statistics(a)
        stats_b = self.table_statistics(b)
        oriented = [self._orient_condition(c, a) for c in conditions]
        sim_estimate = join_cardinality(
            stats_a,
            stats_b,
            oriented,
            left_rows=self.leaf_rows(a),
            right_rows=self.leaf_rows(b),
        )
        # Report in modeled full-scale rows so ranks compare consistently
        # across tables with different per-row scales.
        return sim_estimate * max(stats_a.scale, stats_b.scale)

    def input_cardinality(self, a: str, b: str) -> float:
        """INGRES-style rank: just the input sizes, no result estimation."""
        return (
            self.leaf_rows(a) * self.table_statistics(a).scale
            + self.leaf_rows(b) * self.table_statistics(b).scale
        )

    def _orient_condition(self, condition: JoinCondition, left_alias: str) -> JoinCondition:
        provider_left = self.resolver.provider(condition.left)
        if provider_left == left_alias:
            return condition
        return JoinCondition(condition.right, condition.left)

    def oriented_keys(
        self, conditions, build_aliases: frozenset
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Split each condition's columns into (build_keys, probe_keys)."""
        build_keys, probe_keys = [], []
        for condition in conditions:
            left_provider = self.resolver.provider(condition.left)
            if left_provider in build_aliases:
                build_keys.append(condition.left)
                probe_keys.append(condition.right)
            else:
                build_keys.append(condition.right)
                probe_keys.append(condition.left)
        return tuple(build_keys), tuple(probe_keys)

    # -- algorithm annotation -----------------------------------------------------

    def side_for(self, node: PlanNode) -> JoinSide:
        """Describe one join input for the JoinAlgorithmRule."""
        estimate = self.estimator.estimate(node)
        rows = estimate.rows
        byte_size = rows * estimate.row_width * estimate.scale
        if isinstance(node, LeafNode):
            dataset = self.session.datasets.get(node.dataset)
            table = self.query.table(node.alias)
            return JoinSide(
                rows=rows,
                byte_size=byte_size,
                is_base=not dataset.is_intermediate,
                dataset=node.dataset,
                alias=node.alias,
                indexed_fields=frozenset(dataset.indexes),
                filtered=bool(node.predicates) or dataset.is_intermediate,
                predicate_free=not node.predicates,
                broadcast_hint=table.broadcast_hint,
            )
        return JoinSide(rows=rows, byte_size=byte_size, filtered=True)

    def make_join(
        self,
        left: PlanNode,
        right: PlanNode,
        conditions,
        honor_hints_only: bool = False,
        force_hash: bool = False,
        build_side: str = "auto",
        estimated_rows: float | None = None,
    ) -> JoinNode:
        """Orient + annotate a join between two subtrees.

        ``build_side``: "auto" lets the algorithm rule pick the smaller
        input; "left" pins the left subtree as the build (stock AsterixDB's
        right-deep compilation builds on the accumulated input — Figure 4),
        unless a broadcast hint on the right side overrides it.
        """
        if not conditions:
            raise OptimizationError(
                f"no join condition between {sorted(left.aliases)} and "
                f"{sorted(right.aliases)} (cross products unsupported)"
            )
        left_keys, right_keys = self.oriented_keys(conditions, left.aliases)
        left_side = self.side_for(left)
        right_side = self.side_for(right)
        left_fields = tuple(split_column(c)[1] for c in left_keys)
        right_fields = tuple(split_column(c)[1] for c in right_keys)

        if force_hash:
            build_is_left = (
                True
                if build_side == "left"
                else left_side.byte_size <= right_side.byte_size
            )
            algorithm = None
        else:
            choice = choose_algorithm(
                left_side,
                right_side,
                left_fields,
                right_fields,
                self.cluster,
                inl_enabled=self.inl_enabled,
                honor_hints_only=honor_hints_only,
            )
            build_is_left = choice.build_is_left
            algorithm = choice.algorithm
            if (
                build_side == "left"
                and algorithm is JoinAlgorithm.HASH
                and not (honor_hints_only and right_side.broadcast_hint)
            ):
                # Right-deep compilation: the accumulated (left) input feeds
                # the build step unless a hint redirected the join.
                build_is_left = True

        if build_is_left:
            build, probe = left, right
            build_keys, probe_keys = left_keys, right_keys
        else:
            build, probe = right, left
            build_keys, probe_keys = right_keys, left_keys

        if estimated_rows is None:
            estimate = self.estimator.estimate(
                JoinNode(build, probe, build_keys, probe_keys)
            )
            estimated_rows = estimate.modeled_rows
        return JoinNode(
            build=build,
            probe=probe,
            build_keys=build_keys,
            probe_keys=probe_keys,
            algorithm=algorithm or JoinAlgorithm.HASH,
            estimated_rows=estimated_rows,
            decided_build_bytes=(
                left_side if build_is_left else right_side
            ).byte_size,
        )

    def conditions_across(
        self, left_aliases: frozenset, right_aliases: frozenset
    ) -> list[JoinCondition]:
        """Join conditions connecting two disjoint alias sets."""
        across = []
        for condition in self.query.joins:
            a, b = self.resolver.join_sides(condition)
            if (a in left_aliases and b in right_aliases) or (
                a in right_aliases and b in left_aliases
            ):
                across.append(condition)
        return across
