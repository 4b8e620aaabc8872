"""Mini SQL parser tests."""

import pytest

from repro.common.errors import ParseError
from repro.lang.ast import (
    BetweenPredicate,
    ComparisonPredicate,
    ParameterPredicate,
    UdfPredicate,
)
from repro.lang.parser import STATEMENT_CACHE_SIZE, _parse_statement, parse_query


class TestParserBasics:
    def test_minimal(self):
        query = parse_query("SELECT t.x FROM t")
        assert query.select == ("t.x",)
        assert query.tables[0].dataset == "t"
        assert query.tables[0].alias == "t"

    def test_alias_with_as(self):
        query = parse_query("SELECT o.x FROM orders AS o")
        assert query.tables[0].dataset == "orders"
        assert query.tables[0].alias == "o"

    def test_alias_without_as(self):
        query = parse_query("SELECT o.x FROM orders o")
        assert query.tables[0].alias == "o"

    def test_multiple_tables_and_select(self):
        query = parse_query("SELECT a.x, b.y FROM ta a, tb b WHERE a.k = b.k")
        assert query.aliases == ("a", "b")
        assert len(query.joins) == 1

    def test_case_insensitive_keywords(self):
        query = parse_query("select t.x from t where t.x = 1")
        assert len(query.predicates) == 1


class TestPredicates:
    def test_comparison_int(self):
        query = parse_query("SELECT t.x FROM t WHERE t.x >= 10")
        (predicate,) = query.predicates
        assert isinstance(predicate, ComparisonPredicate)
        assert predicate.op == ">=" and predicate.value == 10

    def test_comparison_string(self):
        query = parse_query("SELECT t.x FROM t WHERE t.s = 'ASIA'")
        assert query.predicates[0].value == "ASIA"

    def test_comparison_float_and_negative(self):
        query = parse_query("SELECT t.x FROM t WHERE t.v < -2.5")
        assert query.predicates[0].value == -2.5

    def test_not_equal_spellings(self):
        for spelling in ("!=", "<>"):
            query = parse_query(f"SELECT t.x FROM t WHERE t.x {spelling} 3")
            assert query.predicates[0].op == "!="

    def test_between(self):
        query = parse_query("SELECT t.x FROM t WHERE t.d BETWEEN 5 AND 9")
        (predicate,) = query.predicates
        assert isinstance(predicate, BetweenPredicate)
        assert (predicate.low, predicate.high) == (5, 9)

    def test_udf(self):
        query = parse_query("SELECT t.x FROM t WHERE myyear(t.d) = 1998")
        (predicate,) = query.predicates
        assert isinstance(predicate, UdfPredicate)
        assert predicate.udf == "myyear"

    def test_parameter(self):
        query = parse_query("SELECT t.x FROM t WHERE t.m = $moy", moy=9)
        (predicate,) = query.predicates
        assert isinstance(predicate, ParameterPredicate)
        assert query.parameters == {"moy": 9}

    def test_join_vs_local_disambiguation(self):
        query = parse_query(
            "SELECT a.x FROM ta a, tb b WHERE a.k = b.k AND a.x = 1"
        )
        assert len(query.joins) == 1
        assert len(query.predicates) == 1

    def test_join_requires_equality(self):
        with pytest.raises(ParseError):
            parse_query("SELECT a.x FROM ta a, tb b WHERE a.k < b.k")


class TestTail:
    def test_group_order_limit(self):
        query = parse_query(
            "SELECT t.g FROM t GROUP BY t.g ORDER BY t.g LIMIT 3"
        )
        assert query.group_by == ("t.g",)
        assert query.order_by == ("t.g",)
        assert query.limit == 3


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "FROM t",                       # missing SELECT
            "SELECT t.x",                   # missing FROM
            "SELECT x FROM t",              # unqualified column
            "SELECT t.x FROM t WHERE",      # dangling WHERE
            "SELECT t.x FROM t LIMIT",      # dangling LIMIT
            "SELECT t.x FROM t extra.tok",  # trailing garbage
            "SELECT t.x FROM t WHERE t.x ~ 3",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises((ParseError, ValueError)):
            parse_query(text)


class TestStatementCache:
    """Each distinct text is parsed once; every call binds its own
    ``parameters`` dict."""

    TEXT = "SELECT t.x FROM t WHERE t.m = $moy AND t.y > 3"

    def test_parameters_are_bound_per_call(self):
        first = parse_query(self.TEXT, moy=9)
        second = parse_query(self.TEXT, moy=10)
        assert first == second  # parameters take no part in equality
        assert first.parameters == {"moy": 9}
        assert second.parameters == {"moy": 10}

    def test_a_text_without_parameters_gets_a_fresh_dict(self):
        first = parse_query("SELECT t.x FROM t")
        second = parse_query("SELECT t.x FROM t")
        assert first.parameters == second.parameters == {}
        assert first.parameters is not second.parameters
        first.parameters["moy"] = 9
        assert parse_query("SELECT t.x FROM t").parameters == {}

    def test_a_bad_text_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ParseError):
                parse_query("SELECT t.x FROM t WHERE")

    def test_the_least_recently_used_text_is_evicted(self):
        _parse_statement.cache_clear()
        texts = [
            f"SELECT t.x FROM t WHERE t.x = {i}" for i in range(STATEMENT_CACHE_SIZE + 1)
        ]
        for text in texts:
            parse_query(text)
        held = _parse_statement.cache_info()
        assert held.currsize == STATEMENT_CACHE_SIZE
        parse_query(texts[1])  # the oldest text still held
        assert _parse_statement.cache_info().hits == held.hits + 1
        parse_query(texts[0])  # evicted: parsed again
        assert _parse_statement.cache_info().misses == held.misses + 1


class TestEndToEnd:
    def test_parsed_query_executes(self, star_session):
        query = parse_query(
            """
            SELECT fact.f_val, da.a_attr
            FROM fact, da, db
            WHERE da.a_attr = 2
              AND mymod10(db.b_attr) = 1
              AND fact.f_a = da.a_id
              AND fact.f_b = db.b_id
            """
        )
        from repro.testing import evaluate_reference, rows_equal_unordered

        result = star_session.execute(query, "dynamic")
        star_session.reset_intermediates()
        assert rows_equal_unordered(
            result.rows, evaluate_reference(query, star_session)
        )

    def test_paper_q50_as_sql(self, star_session):
        text = """
        SELECT store.s_store_id, ss.ss_sales_price
        FROM store_sales ss, store_returns sr, date_dim d1, date_dim d2, store
        WHERE d1.d_moy = $moy AND d1.d_year = $year
          AND d1.d_date_sk = sr.sr_returned_date_sk
          AND ss.ss_customer_sk = sr.sr_customer_sk
          AND ss.ss_item_sk = sr.sr_item_sk
          AND ss.ss_ticket_number = sr.sr_ticket_number
          AND ss.ss_sold_date_sk = d2.d_date_sk
          AND ss.ss_store_sk = store.s_store_sk
        """
        parsed = parse_query(text, moy=9, year=2000)
        from repro.workloads.tpcds import query_50

        built = query_50()
        assert parsed.join_count() == built.join_count()
        assert set(parsed.aliases) == set(built.aliases)
