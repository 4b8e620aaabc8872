"""UDF registry tests."""

import pytest

from repro.common.errors import QueryError
from repro.common.types import DataType, Schema
from repro.engine.job import Job
from repro.engine.operators.scan import ScanOp
from repro.engine.operators.select import AssignOp, SelectOp
from repro.lang.ast import UdfPredicate
from repro.lang.udf import UdfRegistry, apply_udf, default_registry
from repro.session import Session


class TestRegistry:
    def test_register_and_get(self):
        registry = UdfRegistry()
        registry.register("double", lambda v: v * 2)
        assert registry.get("double")(3) == 6

    def test_duplicate_rejected(self):
        registry = UdfRegistry()
        registry.register("f", lambda v: v)
        with pytest.raises(QueryError):
            registry.register("f", lambda v: v)

    def test_missing_raises(self):
        with pytest.raises(QueryError):
            UdfRegistry().get("ghost")

    def test_has_and_names(self):
        registry = default_registry()
        assert registry.has("myyear")
        assert "mysub" in registry.names()


class TestDefaultUdfs:
    def test_myyear_cycle(self):
        myyear = default_registry().get("myyear")
        assert myyear(0) == 1992
        assert myyear(6 * 365) == 1998
        assert myyear(7 * 365) == 1992  # wraps
        assert myyear(None) is None

    def test_mysub_extracts_suffix(self):
        mysub = default_registry().get("mysub")
        assert mysub("Brand#3") == "#3"
        assert mysub("Brand#42") == "#42"
        assert mysub("NoHash") == "NoHash"
        assert mysub(None) is None

    def test_mymod(self):
        registry = default_registry()
        assert registry.get("mymod100")(250) == 50
        assert registry.get("mymod10")(37) == 7
        assert registry.get("mymod10")(None) is None


class _Counting:
    """A UDF that records every argument it is called with."""

    def __init__(self, fn=repr) -> None:
        self.calls: list = []
        self.fn = fn

    def __call__(self, value):
        self.calls.append(value)
        return self.fn(value)


def _typed(values) -> list[tuple[type, str]]:
    return [(type(value), repr(value)) for value in values]


class TestApplyUdf:
    """UDFs are deterministic scalar functions: over exact int/str/None
    values one call per distinct value answers every row."""

    COLUMN = ["Brand#3", None, 7, "Brand#3", 7, None, 7000, 7000]

    def test_called_once_per_distinct_value(self):
        udf = _Counting()
        column = [int(str(v)) if type(v) is int else v for v in self.COLUMN]
        assert apply_udf(udf, column) == [repr(value) for value in column]
        assert sorted(map(repr, udf.calls)) == sorted(map(repr, set(column)))

    @pytest.mark.parametrize(
        "column",
        [
            [1, 1.0, True, 1, True, 1.0],
            [0.0, -0.0, float("nan"), float("nan"), 0.0, -0.0],
            [False, 0, 0.0, False],
        ],
    )
    def test_other_kinds_are_answered_row_by_row(self, column):
        udf = _Counting()
        assert apply_udf(udf, column) == [repr(value) for value in column]
        assert _typed(udf.calls) == _typed(column)

    def test_a_udf_that_rejects_null_still_raises(self):
        def strict(value):
            return value + 1

        with pytest.raises(TypeError):
            apply_udf(strict, [1, 2, None, 1])

    def test_predicate_and_assign_apply_once_per_distinct_value(self):
        session = Session()
        udf = _Counting(lambda value: value % 10)
        session.udfs.register("counted", udf)
        rows = [{"k": i, "v": 1000 + i % 3} for i in range(30)]
        session.load("t", Schema.of(("k", DataType.INT), ("v", DataType.INT)), rows)
        predicate = UdfPredicate(column="t.v", udf="counted", op="=", value=1)
        data, _ = session.executor.execute(
            Job(SelectOp(ScanOp("t", "t"), (predicate,)), label="select")
        )
        assert data.row_count == 10 and len(udf.calls) == 3
        udf.calls.clear()
        data, _ = session.executor.execute(
            Job(AssignOp(ScanOp("t", "t"), "m", "counted", "t.v"), label="assign")
        )
        assert [row["m"] for row in data.all_rows()] == [
            row["t.v"] % 10 for row in data.all_rows()
        ]
        assert sorted(udf.calls) == [1000, 1001, 1002]
