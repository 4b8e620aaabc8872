"""User-defined function registry.

The paper's modified queries wrap predicates in UDFs (``myyear``, ``mysub``,
``myrand``) precisely because a static optimizer cannot estimate their
selectivity and must fall back to default factors. The registry is the single
evaluation authority: predicates reference UDFs by name so queries stay
serializable and reconstruction-friendly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.common.errors import QueryError
from repro.common.types import exact_atoms


class UdfRegistry:
    """Named scalar functions usable in :class:`~repro.lang.ast.UdfPredicate`.

    A UDF is a deterministic scalar function: its answer depends on its
    argument alone, so :func:`apply_udf` may reuse one answer for every value
    equal to the argument.
    """

    def __init__(self) -> None:
        self._functions: dict[str, Callable[[object], object]] = {}

    def register(self, name: str, fn: Callable[[object], object]) -> None:
        if name in self._functions:
            raise QueryError(f"UDF {name!r} already registered")
        self._functions[name] = fn

    def get(self, name: str) -> Callable[[object], object]:
        try:
            return self._functions[name]
        except KeyError:
            raise QueryError(f"unknown UDF {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> list[str]:
        return sorted(self._functions)


def apply_udf(fn: Callable[[object], object], values: Sequence[object]) -> list[object]:
    """``fn`` of every value, in order (nulls included: a UDF that rejects
    ``None`` raises). Over exact ``int``/``str``/``None`` values
    (:func:`~repro.common.types.exact_atoms`) ``fn`` is called once per
    distinct value; any other column — floats (``0.0 == -0.0``, NaN),
    ``bool``, subclasses — is answered row by row, since an equal value of
    another type may get another answer."""
    if exact_atoms(values):
        answers = {value: fn(value) for value in set(values)}
        return list(map(answers.__getitem__, values))
    return [fn(value) for value in values]


def _myyear(value: object) -> object:
    """Year of a date ordinal (days since 1992-01-01, 7-year cycle)."""
    if value is None:
        return None
    return 1992 + (int(value) // 365) % 7


def _mysub(value: object) -> object:
    """Trailing '#...' token of a brand string: 'Brand#3' -> '#3'."""
    if value is None:
        return None
    text = str(value)
    if "#" not in text:
        return text
    return "#" + text.rsplit("#", 1)[1]


def _mymod100(value: object) -> object:
    if value is None:
        return None
    return int(value) % 100


def _mymod10(value: object) -> object:
    if value is None:
        return None
    return int(value) % 10


def default_registry() -> UdfRegistry:
    """Registry pre-loaded with the paper's example UDFs.

    - ``myyear(o_orderdate)``: extract the year from a date ordinal — the
      modified TPC-H Q9 filters ``myyear(o_orderdate) = 1998``.
    - ``mysub(p_brand)``: extract the trailing brand digit as ``'#n'`` — the
      modified Q9 filters ``mysub(p_brand) = '#3'``.
    - ``mymod100`` / ``mymod10``: generic opaque numeric filters for tests.
    """
    registry = UdfRegistry()
    registry.register("myyear", _myyear)
    registry.register("mysub", _mysub)
    registry.register("mymod100", _mymod100)
    registry.register("mymod10", _mymod10)
    return registry
