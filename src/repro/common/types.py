"""Schema primitives shared by storage, the engine and the optimizers.

A :class:`Schema` is an ordered collection of :class:`Field` objects. Rows are
plain dicts keyed by field name; the schema carries the type and estimated
width information that the cost model needs to translate tuple counts into
byte volumes.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from repro.common.errors import SchemaError


class DataType(enum.Enum):
    """Logical column types supported by the simulated BDMS."""

    INT = "int"
    BIGINT = "bigint"
    DOUBLE = "double"
    STRING = "string"
    DATE = "date"  # stored as an int ordinal (days since epoch)
    BOOLEAN = "boolean"

    @property
    def byte_width(self) -> int:
        """Estimated serialized width in bytes, used by the cost model."""
        return _TYPE_WIDTHS[self]


_TYPE_WIDTHS = {
    DataType.INT: 4,
    DataType.BIGINT: 8,
    DataType.DOUBLE: 8,
    DataType.STRING: 24,
    DataType.DATE: 4,
    DataType.BOOLEAN: 1,
}


@dataclass(frozen=True)
class Field:
    """A named, typed column of a dataset."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name must be non-empty")


@dataclass(frozen=True)
class Schema:
    """Ordered collection of fields describing a dataset or intermediate.

    ``primary_key`` names the field(s) the dataset is hash-partitioned on; an
    intermediate result typically has no primary key.
    """

    fields: tuple[Field, ...]
    primary_key: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {names}")
        for key in self.primary_key:
            if key not in names:
                raise SchemaError(f"primary key field {key!r} not in schema")

    @classmethod
    def of(cls, *pairs: tuple[str, DataType], primary_key: tuple[str, ...] = ()) -> Schema:
        """Build a schema from ``(name, dtype)`` pairs."""
        return cls(tuple(Field(name, dtype) for name, dtype in pairs), primary_key)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def field_type(self, name: str) -> DataType:
        for f in self.fields:
            if f.name == name:
                return f.dtype
        raise SchemaError(f"unknown field {name!r}")

    @property
    def row_width(self) -> int:
        """Estimated serialized bytes per row (cost-model input)."""
        return sum(f.dtype.byte_width for f in self.fields) + 8  # header

    def project(self, names: list[str] | tuple[str, ...]) -> Schema:
        """Return a schema containing only ``names``, in the given order."""
        by_name = {f.name: f for f in self.fields}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise SchemaError(f"cannot project missing fields: {missing}")
        pk = tuple(k for k in self.primary_key if k in names)
        return Schema(tuple(by_name[n] for n in names), pk)


#: Value kinds whose equal values are interchangeable: same type, same
#: ``repr``. ``float`` is not (``0.0 == -0.0``, NaN), nor is ``bool``
#: (``True == 1``) or any subclass, whose type an equal value would drop.
_EXACT_ATOMS = frozenset({int, str, type(None)})


def exact_atoms(values: Iterable[object]) -> bool:
    """True when every value is an exact ``int``, ``str`` or ``None``: one
    object may then stand for all values equal to it (the storage value
    pool, DESIGN.md §10.3 rule 4) and a deterministic function's answer for
    one stands for all (UDFs, DESIGN.md §5)."""
    return set(map(type, values)) <= _EXACT_ATOMS


def field_values(rows: Sequence[dict], name: str) -> list:
    """Field ``name`` of every row, in order; a row lacking it reads as
    null. One C-level pass when every row has the field (the common case),
    the per-row ``get`` only after a miss."""
    try:
        return list(map(itemgetter(name), rows))
    except KeyError:
        return [row.get(name) for row in rows]
