"""Query AST and predicate evaluation tests."""

import pytest

from repro.common.errors import QueryError
from repro.lang.ast import (
    BetweenPredicate,
    ComparisonPredicate,
    EvaluationContext,
    JoinCondition,
    ParameterPredicate,
    Query,
    TableRef,
    UdfPredicate,
    split_column,
)
from repro.lang.udf import default_registry


def context(**params):
    return EvaluationContext(params, default_registry())


class TestSplitColumn:
    def test_roundtrip(self):
        assert split_column("a.b") == ("a", "b")

    @pytest.mark.parametrize("bad", ["plain", ".b", "a.", ""])
    def test_malformed(self, bad):
        with pytest.raises(QueryError):
            split_column(bad)


class TestComparisonPredicate:
    def test_all_operators(self):
        row = {"t.x": 5}
        cases = {
            ("=", 5): True,
            ("=", 4): False,
            ("!=", 4): True,
            ("<", 6): True,
            ("<=", 5): True,
            (">", 5): False,
            (">=", 5): True,
        }
        for (op, value), expected in cases.items():
            assert ComparisonPredicate("t.x", op, value).evaluate(row, context()) is expected

    def test_null_never_matches(self):
        predicate = ComparisonPredicate("t.x", "=", None)
        assert predicate.evaluate({"t.x": None}, context()) is False

    def test_invalid_operator(self):
        with pytest.raises(QueryError):
            ComparisonPredicate("t.x", "~", 1)

    def test_alias_and_complexity(self):
        predicate = ComparisonPredicate("t.x", "=", 1)
        assert predicate.alias == "t"
        assert predicate.is_complex is False

    def test_describe(self):
        assert "t.x = 1" in ComparisonPredicate("t.x", "=", 1).describe()


class TestBetweenPredicate:
    def test_inclusive(self):
        predicate = BetweenPredicate("t.x", 1, 3)
        assert predicate.evaluate({"t.x": 1}, context())
        assert predicate.evaluate({"t.x": 3}, context())
        assert not predicate.evaluate({"t.x": 4}, context())

    def test_null(self):
        assert not BetweenPredicate("t.x", 1, 3).evaluate({"t.x": None}, context())


class TestParameterPredicate:
    def test_binds_at_runtime(self):
        predicate = ParameterPredicate("t.x", "=", "p")
        assert predicate.is_complex
        assert predicate.evaluate({"t.x": 9}, context(p=9))
        assert not predicate.evaluate({"t.x": 9}, context(p=8))

    def test_unbound_raises(self):
        with pytest.raises(QueryError):
            ParameterPredicate("t.x", "=", "p").evaluate({"t.x": 1}, context())


class TestUdfPredicate:
    def test_evaluates_through_registry(self):
        predicate = UdfPredicate("t.x", "mymod10", "=", 3)
        assert predicate.is_complex
        assert predicate.evaluate({"t.x": 13}, context())
        assert not predicate.evaluate({"t.x": 14}, context())

    def test_unknown_udf_raises(self):
        with pytest.raises(QueryError):
            UdfPredicate("t.x", "ghost", "=", 1).evaluate({"t.x": 1}, context())


def sample_query():
    return Query(
        select=("a.x",),
        tables=(TableRef("ta", "a"), TableRef("tb", "b"), TableRef("tc", "c")),
        predicates=(ComparisonPredicate("a.x", "=", 1),),
        joins=(
            JoinCondition("a.k", "b.k"),
            JoinCondition("b.j", "c.j"),
            JoinCondition("b.j2", "c.j2"),
        ),
    )


class TestQuery:
    def test_duplicate_aliases_rejected(self):
        with pytest.raises(QueryError):
            Query(select=("a.x",), tables=(TableRef("t", "a"), TableRef("u", "a")))

    def test_table_lookup(self):
        query = sample_query()
        assert query.table("b").dataset == "tb"
        with pytest.raises(QueryError):
            query.table("ghost")

    def test_join_count_merges_conjuncts(self):
        # b-c has two conditions but is one join
        assert sample_query().join_count() == 2

    def test_conditions_between(self):
        conditions = [c for c in sample_query().joins if set(c.aliases()) == {"b", "c"}]
        assert len(conditions) == 2

    def test_predicates_for(self):
        query = sample_query()
        assert len(query.predicates_for("a")) == 1
        assert query.predicates_for("b") == ()

    def test_describe_contains_clauses(self):
        text = sample_query().describe()
        assert "SELECT a.x" in text
        assert "FROM" in text
        assert "a.k = b.k" in text

    def test_join_condition_aliases(self):
        assert JoinCondition("a.k", "b.k").aliases() == ("a", "b")
