"""Plan-level estimation tests: leaves, joins, widths, cost metrics."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.estimation import PlanEstimator
from repro.algebra.plan import JoinNode, LeafNode
from repro.algebra.toolkit import PlannerToolkit
from repro.bench.runner import SWEEP_QUERIES, workbench_for_query
from repro.common.errors import PlanError
from repro.common.types import DataType, Schema
from repro.core.driver import DynamicOptimizer
from repro.engine.operators.joins import JoinAlgorithm
from repro.lang.builder import QueryBuilder
from repro.optimizers.enumeration import best_bushy_plan
from repro.session import Session
from repro.stats.estimation import DEFAULT_EQUALITY_SELECTIVITY

from tests.conftest import build_star_session, small_cluster, star_query


@pytest.fixture(scope="module")
def toolkit():
    session = build_star_session()
    return PlannerToolkit(star_query(), session)


def make_join_node(toolkit, a, b):
    conditions = toolkit.conditions_across(frozenset((a,)), frozenset((b,)))
    return toolkit.make_join(toolkit.leaf(a), toolkit.leaf(b), conditions)


class TestLeafEstimates:
    def test_unfiltered_leaf_is_row_count(self, toolkit):
        estimate = toolkit.estimator.estimate(toolkit.leaf("fact"))
        assert estimate.rows == 2000
        assert estimate.scale == 10_000.0

    def test_simple_filter_uses_histogram(self, toolkit):
        estimate = toolkit.estimator.estimate(toolkit.leaf("da"))
        # a_attr = 2 over 7 values of 50 rows ~ 7-8 rows
        assert estimate.rows == pytest.approx(50 / 7, rel=0.6)

    def test_udf_filter_uses_default(self, toolkit):
        estimate = toolkit.estimator.estimate(toolkit.leaf("db"))
        assert estimate.rows == pytest.approx(40 * DEFAULT_EQUALITY_SELECTIVITY)


class TestJoinEstimates:
    def test_fk_join_close_to_fact_size(self, toolkit):
        node = JoinNode(
            build=LeafNode("da", "da"),
            probe=LeafNode("fact", "fact"),
            build_keys=("da.a_id",),
            probe_keys=("fact.f_a",),
        )
        estimate = toolkit.estimator.estimate(node)
        assert estimate.rows == pytest.approx(2000, rel=0.15)

    def test_join_width_is_concatenated(self, toolkit):
        node = make_join_node(toolkit, "fact", "da")
        estimate = toolkit.estimator.estimate(node)
        left = toolkit.estimator.estimate(toolkit.leaf("fact"))
        right = toolkit.estimator.estimate(toolkit.leaf("da"))
        assert estimate.row_width == left.row_width + right.row_width

    def test_join_scale_is_max(self, toolkit):
        node = make_join_node(toolkit, "fact", "da")
        assert toolkit.estimator.estimate(node).scale == 10_000.0

    def test_key_tuples_of_different_length_are_rejected(self, toolkit):
        node = JoinNode(
            build=LeafNode("da", "da"),
            probe=LeafNode("fact", "fact"),
            build_keys=("da.a_id", "da.a_attr"),
            probe_keys=("fact.f_a",),
        )
        with pytest.raises(PlanError, match=r"\(da ⋈ fact\) has 2 build keys"):
            toolkit.estimator.estimate(node)

    def test_modeled_rows(self, toolkit):
        estimate = toolkit.estimator.estimate(toolkit.leaf("fact"))
        assert estimate.modeled_rows == 2000 * 10_000.0
        assert estimate.byte_size == estimate.modeled_rows * estimate.row_width


class TestCosts:
    def test_cout_is_sum_of_intermediate_volumes(self, toolkit):
        inner = make_join_node(toolkit, "fact", "da")
        outer = toolkit.make_join(
            inner,
            toolkit.leaf("db"),
            toolkit.conditions_across(inner.aliases, frozenset(("db",))),
        )
        inner_only = toolkit.estimator.cout_cost(inner)
        total = toolkit.estimator.cout_cost(outer)
        assert total > inner_only > 0
        assert toolkit.estimator.cout_cost(toolkit.leaf("fact")) == 0.0

    def test_movement_cost_positive_and_orders_algorithms(self, toolkit):
        node = make_join_node(toolkit, "fact", "da")
        hash_cost = toolkit.estimator.plan_cost(
            node.with_algorithm(JoinAlgorithm.HASH)
        )
        bcast_cost = toolkit.estimator.plan_cost(
            node.with_algorithm(JoinAlgorithm.BROADCAST)
        )
        assert hash_cost > 0 and bcast_cost > 0
        # tiny filtered dim vs big fact: broadcast must be cheaper
        assert bcast_cost < hash_cost


class TestJoinPhaseCost:
    """``plan_cost`` is leaf scans plus per-join terms; ``join_phase_cost`` is
    the second half alone — the driver's fuse rule prices "the joins still to
    run" with it, so no join may contribute nothing or less (an INL join
    drops its inner side's *scan*, never anything a child charged)."""

    @pytest.fixture(scope="class", params=sorted(SWEEP_QUERIES))
    def suite_plan(self, request):
        bench = workbench_for_query(request.param, 100)
        bench.ensure_indexes()
        query = bench.query(request.param)
        try:
            result = DynamicOptimizer(inl_enabled=True).execute(query, bench.session)
        finally:
            bench.session.reset_intermediates()
        toolkit = PlannerToolkit(query, bench.session, inl_enabled=True)
        return toolkit.estimator, result.plan

    def test_every_join_costs_at_least_what_it_reads(self, suite_plan):
        estimator, plan = suite_plan
        for node in plan.join_nodes():
            inl = node.algorithm is JoinAlgorithm.INDEX_NESTED_LOOP
            assert isinstance(node.probe, LeafNode) or not inl
            read = [node.build] if inl else [node.build, node.probe]
            assert estimator.plan_cost(node) >= sum(map(estimator.plan_cost, read))
            assert estimator.join_phase_cost(node) > (
                estimator.join_phase_cost(node.build)
                + estimator.join_phase_cost(node.probe)
            )

    def test_plan_cost_is_scans_plus_join_phase(self, suite_plan):
        estimator, plan = suite_plan
        inner = {
            node.probe
            for node in plan.join_nodes()
            if node.algorithm is JoinAlgorithm.INDEX_NESTED_LOOP
        }
        scans = sum(
            estimator.plan_cost(leaf) for leaf in plan.leaves() if leaf not in inner
        )
        assert estimator.join_phase_cost(plan) > 0.0
        assert estimator.plan_cost(plan) == pytest.approx(
            scans + estimator.join_phase_cost(plan)
        )


class TestCompositeRules:
    def test_product_rule_collapses_composites(self):
        session = build_star_session()
        query = star_query()
        # add a second (redundant) conjunct between fact and da
        from dataclasses import replace
        from repro.lang.ast import JoinCondition

        query2 = replace(
            query, joins=query.joins + (JoinCondition("fact.f_b", "da.a_attr"),)
        )
        max_toolkit = PlannerToolkit(query2, session, composite_rule="max")
        product_toolkit = PlannerToolkit(query2, session, composite_rule="product")
        node_max = make_join_node(max_toolkit, "fact", "da")
        node_product = make_join_node(product_toolkit, "fact", "da")
        est_max = max_toolkit.estimator.estimate(node_max).rows
        est_product = product_toolkit.estimator.estimate(node_product).rows
        assert est_product < est_max

    def test_unknown_rule_rejected(self):
        session = build_star_session()
        from repro.common.errors import PlanError

        with pytest.raises(PlanError):
            PlannerToolkit(star_query(), session, composite_rule="geometric")


# -- one estimator per toolkit, every estimate computed once -----------------------

CHAIN = tuple(f"t{i}" for i in range(7))


def build_chain_toolkit() -> PlannerToolkit:
    """Seven tables joined t0 - t1 - ... - t6, alternate ones filtered."""
    session = Session(small_cluster())
    builder = QueryBuilder().select("t0.id")
    for index, name in enumerate(CHAIN):
        schema = Schema.of(
            ("id", DataType.INT), ("next", DataType.INT), ("attr", DataType.INT),
            primary_key=("id",),
        )  # fmt: skip
        size = 40 * (index + 1)
        rows = [
            {"id": i, "next": (i * 7) % (size + 40), "attr": i % (index + 2)}
            for i in range(size)
        ]
        session.load(name, schema, rows, scale=10.0 ** (index % 3))
        builder.from_table(name)
        if index % 2:
            builder.where_compare(f"{name}.attr", "<=", 1)
    for left, right in zip(CHAIN, CHAIN[1:]):
        builder.join(f"{left}.next", f"{right}.id")
    return PlannerToolkit(builder.build(), session)


@pytest.fixture(scope="module")
def chain_toolkit():
    return build_chain_toolkit()


def fresh_estimator(estimator: PlanEstimator) -> PlanEstimator:
    return PlanEstimator(
        estimator.statistics,
        estimator.alias_datasets,
        estimator.cluster,
        estimator.cost,
        estimator.composite_rule,
    )


@st.composite
def chain_trees(draw, toolkit: PlannerToolkit, low: int = 0, high: int = len(CHAIN)):
    """A cross-product-free bushy tree over ``CHAIN[low:high]``: any split
    point, either side building, any algorithm annotation."""
    if high - low == 1:
        return toolkit.leaf(CHAIN[low])
    cut = draw(st.integers(low + 1, high - 1))
    left = draw(chain_trees(toolkit, low, cut))
    right = draw(chain_trees(toolkit, cut, high))
    left_key, right_key = f"{CHAIN[cut - 1]}.next", f"{CHAIN[cut]}.id"
    algorithm = draw(st.sampled_from(list(JoinAlgorithm)))
    if draw(st.booleans()):
        return JoinNode(left, right, (left_key,), (right_key,), algorithm)
    return JoinNode(right, left, (right_key,), (left_key,), algorithm)


class TestMemoisedEstimator:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_shared_estimator_equals_a_fresh_one_per_node(self, chain_toolkit, data):
        trees = [
            data.draw(chain_trees(chain_toolkit, low, high))
            for low, high in data.draw(
                st.lists(
                    st.tuples(st.integers(0, 3), st.integers(4, 7)),
                    min_size=1,
                    max_size=3,
                )
            )
        ]
        nodes = [
            node for tree in trees for node in (*tree.leaves(), *tree.join_nodes())
        ]
        visits = data.draw(
            st.permutations(
                [
                    (node, method)
                    for node in nodes
                    for method in ("estimate", "cout_cost", "plan_cost")
                ]
            )
        )
        shared = fresh_estimator(chain_toolkit.estimator)
        for node, method in visits:
            reference = fresh_estimator(chain_toolkit.estimator)
            assert getattr(shared, method)(node) == getattr(reference, method)(node)

    def test_dp_estimates_every_distinct_node_once(self, chain_toolkit, monkeypatch):
        computed = []
        body = PlanEstimator._estimate

        def counting(self, node):
            computed.append(node)
            return body(self, node)

        monkeypatch.setattr(PlanEstimator, "_estimate", counting)
        toolkit = build_chain_toolkit()
        plan = best_bushy_plan(toolkit)

        assert Counter(computed).most_common(1)[0][1] == 1
        assert sum(isinstance(node, LeafNode) for node in computed) == len(CHAIN)
        # a 7-chain has 56 connected (interval, cut) splits; each is estimated
        # as planned and, when the algorithm rule annotates it, once more
        joins = len(computed) - len(CHAIN)
        assert 56 <= joins <= 2 * 56
        assert sorted(plan.aliases) == list(CHAIN)
        assert toolkit.estimator.cout_cost(plan) == fresh_estimator(
            toolkit.estimator
        ).cout_cost(plan)
