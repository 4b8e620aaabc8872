"""The value pool: one object per distinct value across a catalog's base columns.

``Dataset.column`` stores a column of exact ``int``/``str``/``None`` values
through its catalog's pool (DESIGN.md §10.3 rule 4), and any other column as
read. The pool may change which object stands for a value, never the value:
per element, a pooled column equals the plain pivot ``[row.get(f) for row in
rows]`` by ``type`` and ``repr``.
"""

from __future__ import annotations

import gc

from hypothesis import given, settings

from repro.common.types import DataType, Schema
from repro.session import Session
from repro.storage import dataset as dataset_module

from tests.conftest import mixed_sparse_rows
from tests.engine.datasets import dataset_of


class _Int(int):
    pass


class _Str(str):
    pass


NAN = float("nan")

#: Pivoted in this order into one pool: the ``ints`` column fills it with
#: ``0``/``1`` before the ``bools`` and ``numbers`` columns are read, so a
#: pool that took ``True`` or ``1.0`` by value would hand back ``1``.
COLUMNS = {
    "ints": [0, 1, 1, 300, None],
    "strs": ["a", "bb", "a", None, "bb"],
    "bools": [True, False, True, False, True],
    "numbers": [1, 1.0, True, 1, 1.0],
    "zeros": [0, 0.0, -0.0, 0.0, -0.0],
    "nan": [NAN, 1.0, NAN, float("nan"), None],
    "nulls": [None, None, None, None, None],
    "int_subclass": [_Int(1), 1, 300, _Int(300), 1],
    "str_subclass": [_Str("a"), "a", "bb", _Str("bb"), "a"],
    "sparse": [5, 6, 5, 6, 5],
}


def _rows() -> list[dict]:
    rows = [{name: values[i] for name, values in COLUMNS.items()} for i in range(5)]
    del rows[2]["sparse"]  # a row lacking the field reads as null
    return rows


def _schema(names) -> Schema:
    return Schema.of(*((name, DataType.INT) for name in names))


def _typed(values) -> list[tuple[type, str]]:
    return [(type(value), repr(value)) for value in values]


def _mismatches(rows: list[dict]) -> list[str]:
    """Fields whose pooled column differs from the plain pivot by type or
    repr, every field pivoted in ``COLUMNS`` order into one pool."""
    stored = dataset_of("t", _schema(COLUMNS), [rows[:2], rows[2:]])
    return [
        name
        for name in COLUMNS
        if _typed(stored.column(name)) != _typed(row.get(name) for row in rows)
    ]


def _fresh(values: list) -> list:
    """Equal values as new objects: ints beyond the small-int cache are
    parsed anew, strings of two or more characters sliced anew."""
    return [
        v if v is None else int(str(v)) if type(v) is int else (v + "!")[:-1]
        for v in values
    ]


def _load(session: Session, name: str, columns: dict[str, list], **options) -> None:
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    session.load(name, _schema(columns), rows, **options)


class TestPooledColumnsKeepEveryValue:
    def test_each_element_keeps_its_type_and_repr(self):
        assert _mismatches(_rows()) == []

    def test_other_columns_are_stored_as_read(self):
        rows = _rows()
        stored = dataset_of("t", _schema(COLUMNS), [rows[:2], rows[2:]])
        assert stored.column("ints")[3] == 300
        assert stored.column("int_subclass")[2] is rows[2]["int_subclass"]
        assert _typed(stored.column("sparse")) == _typed([5, 6, None, 6, 5])

    @given(mixed_sparse_rows())
    @settings(deadline=None)
    def test_generated_rows_pivot_alike(self, drawn):
        fields, _, rows = drawn
        stored = dataset_of("t", _schema(fields), [rows[:7], rows[7:]])
        for name in fields:
            assert _typed(stored.column(name)) == _typed(row.get(name) for row in rows)

    def test_a_stored_column_leaves_the_collector(self):
        rows = _rows()
        stored = dataset_of("t", _schema(COLUMNS), [rows])
        # a subclass instance has a ``__dict__``: it, and a tuple holding
        # it, stay tracked whatever the pool does
        columns = [stored.column(name) for name in COLUMNS if "subclass" not in name]
        gc.collect()
        assert all(type(column) is tuple for column in columns)
        assert not any(gc.is_tracked(column) for column in columns)

    def test_pooling_floats_and_bools_by_value_is_caught(self, monkeypatch):
        """Mutation: pool every column. ``True``/``1.0`` come back as ``1``
        and ``-0.0`` as ``0``, which the type-and-repr check sees."""
        monkeypatch.setattr(dataset_module, "exact_atoms", lambda values: True)
        assert {"bools", "numbers", "zeros"} <= set(_mismatches(_rows()))


class TestOneCatalogOnePool:
    def test_equal_values_of_two_datasets_are_one_object(self):
        session = Session()
        keys = [1000, 2000, 3000]
        names = ["xx", "yy", "xx"]
        _load(session, "a", {"k": _fresh(keys), "s": _fresh(names)})
        _load(session, "b", {"fk": _fresh(keys[::-1]), "t": _fresh(names)})
        a, b = session.datasets.get("a"), session.datasets.get("b")
        assert a.pool is b.pool is session.datasets.pool
        assert all(x is y for x, y in zip(a.column("k"), b.column("fk")[::-1]))
        assert all(x is y for x, y in zip(a.column("s"), b.column("t")))
        assert a.column("s")[0] is a.column("s")[2]

    def test_two_sessions_share_nothing(self):
        first, second = Session(), Session()
        _load(first, "a", {"k": _fresh([1000, 2000]), "s": _fresh(["xx", "yy"])})
        _load(second, "a", {"k": _fresh([1000, 2000]), "s": _fresh(["xx", "yy"])})
        one, other = first.datasets.get("a"), second.datasets.get("a")
        assert first.datasets.pool is not second.datasets.pool
        for name in ("k", "s"):
            assert one.column(name) == other.column(name)
            assert not any(x is y for x, y in zip(one.column(name), other.column(name)))

    def test_a_replacing_reload_does_not_grow_the_pool(self):
        session = Session()
        columns = {"k": [1000, 2000, 1000], "s": ["xx", "yy", None]}
        _load(session, "a", {n: _fresh(v) for n, v in columns.items()})
        first = session.datasets.get("a")
        pooled = [first.column(name) for name in columns]
        size = len(session.datasets.pool)
        _load(session, "a", {n: _fresh(v) for n, v in columns.items()}, replace=True)
        again = session.datasets.get("a")
        assert again is not first
        assert [again.column(name) for name in columns] == pooled
        assert len(session.datasets.pool) == size

    def test_a_dataset_built_alone_keeps_a_private_pool(self):
        rows = [{"k": 1000}]
        one, other = (dataset_of("t", _schema(["k"]), [rows]) for _ in range(2))
        assert one.pool is not other.pool
