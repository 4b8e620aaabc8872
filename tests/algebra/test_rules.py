"""JoinAlgorithmRule and PushDownPredicateRule tests."""

from repro.algebra.rules.join_algorithm import JoinSide, choose_algorithm
from repro.algebra.rules.pushdown import (
    needs_pushdown,
    pushdown_candidates,
    surviving_columns,
)
from repro.cluster.config import ClusterConfig
from repro.engine.operators.joins import JoinAlgorithm
from repro.lang.ast import (
    ComparisonPredicate,
    JoinCondition,
    ParameterPredicate,
    Query,
    TableRef,
    UdfPredicate,
)

CLUSTER = ClusterConfig(broadcast_budget_bytes=1000.0)


def side(bytes_, **kwargs):
    defaults = dict(rows=bytes_ / 10, byte_size=bytes_)
    defaults.update(kwargs)
    return JoinSide(**defaults)


class TestJoinAlgorithmRule:
    def test_hash_when_both_large(self):
        choice = choose_algorithm(side(5000), side(8000), ("k",), ("k",), CLUSTER)
        assert choice.algorithm is JoinAlgorithm.HASH
        assert choice.build_is_left  # smaller side builds

    def test_broadcast_when_one_side_fits(self):
        choice = choose_algorithm(side(500), side(8000), ("k",), ("k",), CLUSTER)
        assert choice.algorithm is JoinAlgorithm.BROADCAST
        assert choice.build_is_left

    def test_broadcast_orientation_right(self):
        choice = choose_algorithm(side(8000), side(500), ("k",), ("k",), CLUSTER)
        assert choice.algorithm is JoinAlgorithm.BROADCAST
        assert not choice.build_is_left

    def test_inl_requires_enable_flag(self):
        build = side(500, filtered=True)
        probe = side(9000, is_base=True, indexed_fields=frozenset(("k",)))
        choice = choose_algorithm(build, probe, ("j",), ("k",), CLUSTER)
        assert choice.algorithm is JoinAlgorithm.BROADCAST
        choice = choose_algorithm(
            build, probe, ("j",), ("k",), CLUSTER, inl_enabled=True
        )
        assert choice.algorithm is JoinAlgorithm.INDEX_NESTED_LOOP

    def test_inl_requires_index_on_first_field(self):
        build = side(500, filtered=True)
        probe = side(9000, is_base=True, indexed_fields=frozenset(("other",)))
        choice = choose_algorithm(
            build, probe, ("j",), ("k",), CLUSTER, inl_enabled=True
        )
        assert choice.algorithm is not JoinAlgorithm.INDEX_NESTED_LOOP

    def test_inl_requires_filtered_build(self):
        # "the dataset that gets broadcast must be filtered"
        build = side(500, filtered=False)
        probe = side(9000, is_base=True, indexed_fields=frozenset(("k",)))
        choice = choose_algorithm(
            build, probe, ("j",), ("k",), CLUSTER, inl_enabled=True
        )
        assert choice.algorithm is JoinAlgorithm.BROADCAST

    def test_inl_requires_base_predicate_free_probe(self):
        build = side(500, filtered=True)
        probe = side(
            9000,
            is_base=True,
            indexed_fields=frozenset(("k",)),
            predicate_free=False,
        )
        choice = choose_algorithm(
            build, probe, ("j",), ("k",), CLUSTER, inl_enabled=True
        )
        assert choice.algorithm is not JoinAlgorithm.INDEX_NESTED_LOOP

    def test_inl_size_budget(self):
        build = side(5000, filtered=True)  # too big for the 1000-byte budget
        probe = side(90_000, is_base=True, indexed_fields=frozenset(("k",)))
        choice = choose_algorithm(
            build, probe, ("j",), ("k",), CLUSTER, inl_enabled=True
        )
        assert choice.algorithm is JoinAlgorithm.HASH

    def test_hints_only_mode_defaults_to_hash(self):
        choice = choose_algorithm(
            side(10), side(8000), ("k",), ("k",), CLUSTER, honor_hints_only=True
        )
        assert choice.algorithm is JoinAlgorithm.HASH

    def test_hints_only_mode_respects_hint(self):
        hinted = side(10, broadcast_hint=True)
        choice = choose_algorithm(
            hinted, side(8000), ("k",), ("k",), CLUSTER, honor_hints_only=True
        )
        assert choice.algorithm is JoinAlgorithm.BROADCAST
        assert choice.build_is_left


def query_with_predicates():
    return Query(
        select=("a.x", "b.y"),
        tables=(TableRef("ta", "a"), TableRef("tb", "b"), TableRef("tc", "c")),
        predicates=(
            ComparisonPredicate("a.x", "=", 1),
            ComparisonPredicate("a.y", "<", 2),
            UdfPredicate("b.z", "mymod10", "=", 3),
            ComparisonPredicate("c.w", "=", 4),
        ),
        joins=(JoinCondition("a.k", "b.k"), JoinCondition("b.j", "c.j")),
        group_by=("b.y",),
    )


class TestPushdownRule:
    def test_needs_pushdown_multiple(self):
        predicates = (
            ComparisonPredicate("a.x", "=", 1),
            ComparisonPredicate("a.y", "=", 2),
        )
        assert needs_pushdown(predicates)

    def test_needs_pushdown_single_complex(self):
        assert needs_pushdown((UdfPredicate("a.x", "mymod10", "=", 1),))
        assert needs_pushdown((ParameterPredicate("a.x", "=", "p"),))

    def test_single_simple_not_pushed(self):
        assert not needs_pushdown((ComparisonPredicate("a.x", "=", 1),))

    def test_surviving_columns(self):
        query = query_with_predicates()
        alias_columns = {"a.x", "a.y", "a.k"}
        kept = surviving_columns(query, alias_columns)
        # a.x in select, a.k in a join; a.y only in a local predicate -> dropped
        assert set(kept) == {"a.x", "a.k"}

    def test_candidates(self):
        query = query_with_predicates()
        columns = {
            "a": {"a.x", "a.y", "a.k"},
            "b": {"b.y", "b.z", "b.k", "b.j"},
            "c": {"c.w", "c.j"},
        }
        candidates = pushdown_candidates(query, columns)
        # a: two predicates -> yes; b: one complex -> yes; c: one simple -> no
        assert [c.table.alias for c in candidates] == ["a", "b"]
        b_candidate = candidates[1]
        assert set(b_candidate.keep_columns) == {"b.y", "b.k", "b.j"}
