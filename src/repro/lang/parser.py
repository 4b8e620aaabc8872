"""A miniature SQL parser for the supported query fragment.

The reproduction's dynamic optimizer feeds reconstructed queries "as new
input to the SQL++ parser" (Section 6); this module provides the matching
front end so queries can be written as text::

    SELECT o.o_total, c.c_name
    FROM orders AS o, customers AS c
    WHERE mymod10(c.c_segment) = 3
      AND o.o_date BETWEEN 100 AND 200
      AND o.o_status = 'F'
      AND o.o_cust = c.c_id
      AND c.c_score > $threshold
    GROUP BY c.c_name
    ORDER BY c.c_name
    LIMIT 10

Supported grammar (case-insensitive keywords)::

    query     := SELECT columns FROM tables [WHERE conjunct] [GROUP BY columns]
                 [ORDER BY columns] [LIMIT int]
    tables    := table (',' table)*
    table     := name [[AS] alias]
    conjunct  := predicate (AND predicate)*
    predicate := column op value            -- local comparison
               | column BETWEEN value AND value
               | name '(' column ')' op value   -- UDF predicate
               | column op '$' name         -- parameterized predicate
               | column '=' column          -- join condition
    value     := int | float | quoted string
    op        := = | != | <> | < | <= | > | >=

Everything compiles onto :class:`~repro.lang.builder.QueryBuilder`, so the
parser accepts exactly what the engine can execute.

A service sees the same few statement texts over and over with different
parameter values, so each distinct text is parsed once: the parsed
:class:`Query` is immutable apart from its ``parameters`` dict, which every
call binds afresh.
"""

from __future__ import annotations

import re
from dataclasses import replace
from functools import lru_cache

from repro.common.errors import ParseError
from repro.lang.ast import Query
from repro.lang.builder import QueryBuilder

_TOKEN_RE = re.compile(
    r"""
    \s*(
        '(?:[^'])*'            # quoted string
      | \$[A-Za-z_][\w]*       # parameter
      | [A-Za-z_][\w]*(?:\.[A-Za-z_][\w]*)?   # identifier or column
      | -?\d+\.\d+             # float
      | -?\d+                  # int
      | <> | <= | >= | != | = | < | >
      | [(),]
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select",
    "from",
    "where",
    "and",
    "group",
    "order",
    "by",
    "limit",
    "as",
    "between",
}


def _tokenize(text: str) -> list[str]:
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            if text[position:].strip() == "":
                break
            raise ParseError(f"cannot tokenize near: {text[position:position + 20]!r}")
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.position = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> str | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of query")
        self.position += 1
        return token

    def accept_keyword(self, *words: str) -> bool:
        saved = self.position
        for word in words:
            token = self.peek()
            if token is None or token.lower() != word:
                self.position = saved
                return False
            self.position += 1
        return True

    def expect_keyword(self, *words: str) -> None:
        if not self.accept_keyword(*words):
            raise ParseError(f"expected {' '.join(words).upper()} near {self.peek()!r}")

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ParseError(f"expected {token!r}, got {got!r}")

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Query:
        builder = QueryBuilder()
        self.expect_keyword("select")
        for column in self._column_list():
            builder.select(column)
        self.expect_keyword("from")
        self._tables(builder)
        if self.accept_keyword("where"):
            self._conjunct(builder)
        if self.accept_keyword("group", "by"):
            builder.group_by(*self._column_list())
        if self.accept_keyword("order", "by"):
            builder.order_by(*self._column_list())
        if self.accept_keyword("limit"):
            builder.limit(int(self.next()))
        if self.peek() is not None:
            raise ParseError(f"trailing tokens starting at {self.peek()!r}")
        return builder.build()

    def _column_list(self) -> list[str]:
        columns = [self._column()]
        while self.peek() == ",":
            self.next()
            columns.append(self._column())
        return columns

    def _column(self) -> str:
        token = self.next()
        if "." not in token or token.lower() in _KEYWORDS:
            raise ParseError(f"expected qualified column, got {token!r}")
        return token

    def _tables(self, builder: QueryBuilder) -> None:
        while True:
            name = self.next()
            if name.lower() in _KEYWORDS or "." in name:
                raise ParseError(f"expected table name, got {name!r}")
            alias = None
            if self.accept_keyword("as"):
                alias = self.next()
            else:
                token = self.peek()
                if (
                    token is not None
                    and token not in (",",)
                    and token.lower() not in _KEYWORDS
                    and re.fullmatch(r"[A-Za-z_]\w*", token)
                ):
                    alias = self.next()
            builder.from_table(name, alias)
            if self.peek() == ",":
                self.next()
                continue
            break

    def _conjunct(self, builder: QueryBuilder) -> None:
        self._predicate(builder)
        while self.accept_keyword("and"):
            self._predicate(builder)

    def _predicate(self, builder: QueryBuilder) -> None:
        token = self.next()
        if self.peek() == "(":  # UDF predicate: name(column) op value
            udf = token
            self.expect("(")
            column = self._column()
            self.expect(")")
            op = self._operator()
            builder.where_udf(udf, column, op, self._value())
            return
        column = token
        if "." not in column:
            raise ParseError(f"expected column or UDF call, got {column!r}")
        if self.accept_keyword("between"):
            low = self._value()
            self.expect_keyword("and")
            builder.where_between(column, low, self._value())
            return
        op = self._operator()
        operand = self.next()
        if operand.startswith("$"):
            builder.where_param(column, op, operand[1:])
        elif "." in operand and re.fullmatch(r"[A-Za-z_]\w*\.[A-Za-z_]\w*", operand):
            if op != "=":
                raise ParseError(f"join conditions must use '=', got {op!r}")
            builder.join(column, operand)
        else:
            builder.where_compare(column, op, self._literal(operand))

    def _operator(self) -> str:
        token = self.next()
        if token == "<>":
            return "!="
        if token in ("=", "!=", "<", "<=", ">", ">="):
            return token
        raise ParseError(f"expected comparison operator, got {token!r}")

    def _value(self) -> object:
        return self._literal(self.next())

    def _literal(self, token: str) -> object:
        if token.startswith("'") and token.endswith("'"):
            return token[1:-1]
        try:
            if re.fullmatch(r"-?\d+", token):
                return int(token)
            return float(token)
        except ValueError:
            raise ParseError(f"expected literal value, got {token!r}") from None


#: Distinct statement texts whose parse is kept (least recently used first
#: out); a service's working set of texts is a few dozen.
STATEMENT_CACHE_SIZE = 1024


@lru_cache(maxsize=STATEMENT_CACHE_SIZE)
def _parse_statement(text: str) -> Query:
    """The parse of one text, shared by every call that passes it (a text
    that fails to parse is not cached: it raises again on every call)."""
    return _Parser(_tokenize(text)).parse()


def parse_query(text: str, **parameters: object) -> Query:
    """Parse SQL text into a :class:`Query`, binding ``parameters``.

    Every call returns its own ``parameters`` dict, so binding or mutating
    one query's parameters never reaches another parse of the same text.
    """
    query = _parse_statement(text)
    return replace(query, parameters={**query.parameters, **parameters})
