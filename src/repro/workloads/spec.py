"""Typed workload specifications: the public workload-selection API.

:class:`WorkloadSpec` is the one surface over every registered workload:
schemas, the generated tables, session loading, secondary indexes and the
named query suite all hang off a single frozen value built by
:func:`get_workload`::

    from repro.workloads import get_workload

    spec = get_workload("job", 100, skew=1.3, correlation=0.9)
    spec.load_into(session)
    result = session.execute(spec.query("J1"))

Only the JOB generator takes the ``skew``/``correlation`` knobs. The TPC
universes are the paper's stock ones: a non-zero knob there, a negative or
non-finite ``skew`` and a ``correlation`` outside [0, 1] are rejected when
the spec is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.common.errors import CatalogError
from repro.lang.ast import Query
from repro.workloads import job, tpcds, tpch
from repro.workloads.job import schema as job_schema
from repro.workloads.tpcds import schema as tpcds_schema
from repro.workloads.tpch import schema as tpch_schema

if TYPE_CHECKING:
    from repro.session import Session


@dataclass(frozen=True)
class _Provider:
    """Everything the registry knows about one workload implementation."""

    schemas: Mapping[str, object]
    generate: Callable[..., dict[str, list[dict]]]
    real_row_counts: Callable[[int], dict[str, int]]
    scale_unit: Callable[[int], int]
    create_secondary_indexes: Callable
    queries: Mapping[str, Callable[[], Query]]
    #: the generator takes the skew/correlation knobs (JOB only)
    takes_knobs: bool = False


_PROVIDERS: dict[str, _Provider] = {
    "tpch": _Provider(
        schemas=tpch_schema.SCHEMAS,
        generate=tpch.generate,
        real_row_counts=tpch_schema.real_row_counts,
        scale_unit=tpch.scale_unit,
        create_secondary_indexes=tpch.create_secondary_indexes,
        queries={"Q8": tpch.query_8, "Q9": tpch.query_9},
    ),
    "tpcds": _Provider(
        schemas=tpcds_schema.SCHEMAS,
        generate=tpcds.generate,
        real_row_counts=tpcds_schema.real_row_counts,
        scale_unit=tpcds.scale_unit,
        create_secondary_indexes=tpcds.create_secondary_indexes,
        queries={"Q17": tpcds.query_17, "Q50": tpcds.query_50},
    ),
    "job": _Provider(
        schemas=job_schema.SCHEMAS,
        generate=job.generate,
        real_row_counts=job_schema.real_row_counts,
        scale_unit=job.scale_unit,
        create_secondary_indexes=job.create_secondary_indexes,
        queries={"J1": job.query_j1, "J2": job.query_j2, "J3": job.query_j3},
        takes_knobs=True,
    ),
}


def available_workloads() -> tuple[str, ...]:
    """Registered workload names, sorted."""
    return tuple(sorted(_PROVIDERS))


@dataclass(frozen=True)
class WorkloadSpec:
    """A validated (workload, scale, knobs) selection.

    Frozen and hashable so benches can cache loaded sessions per spec.
    """

    name: str
    scale_factor: int
    seed: int = 42
    skew: float = 0.0
    correlation: float = 0.0
    #: resolved provider — an implementation detail, excluded from identity
    _provider: _Provider = field(
        default=None, repr=False, compare=False  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if self._provider is None:
            raise CatalogError("build WorkloadSpec via get_workload(...)")
        # validates the scale factor eagerly, like PlannerSpec validates names
        self._provider.scale_unit(self.scale_factor)
        if not (math.isfinite(self.skew) and self.skew >= 0):
            raise CatalogError(f"skew must be finite and >= 0, got {self.skew!r}")
        if not 0 <= self.correlation <= 1:
            raise CatalogError(
                f"correlation must lie in [0, 1], got {self.correlation!r}"
            )
        if (self.skew or self.correlation) and not self._provider.takes_knobs:
            raise CatalogError(
                f"workload {self.name!r} takes no skew/correlation knobs; "
                "only 'job' does"
            )

    # -- data -------------------------------------------------------------------

    @property
    def schemas(self) -> Mapping[str, object]:
        """Table name -> :class:`~repro.common.types.Schema`."""
        return self._provider.schemas

    def generate(self) -> dict[str, list[dict]]:
        """All tables of this universe, keyed by table name."""
        if self._provider.takes_knobs:
            return self._provider.generate(
                self.scale_factor, self.seed,
                skew=self.skew, correlation=self.correlation,
            )
        return self._provider.generate(self.scale_factor, self.seed)

    def load_into(self, session: Session) -> None:
        """Generate and ingest every table, carrying modeled per-row scale
        (modeled rows per stored row), so the cost clock and broadcast
        decisions reflect the nominal scale factor."""
        real = self._provider.real_row_counts(self.scale_factor)
        for name, rows in self.generate().items():
            session.load(
                name,
                self._provider.schemas[name],
                rows,
                scale=real[name] / max(1, len(rows)),
            )

    def create_secondary_indexes(self, session: Session) -> None:
        """The workload's INL indexes (idempotence is the session's concern)."""
        self._provider.create_secondary_indexes(session)

    # -- queries ----------------------------------------------------------------

    @property
    def queries(self) -> dict[str, Callable[[], Query]]:
        """The named query suite: label -> zero-argument factory."""
        return dict(self._provider.queries)

    def query(self, label: str) -> Query:
        """Build one suite query by label."""
        try:
            factory = self._provider.queries[label]
        except KeyError:
            raise CatalogError(
                f"workload {self.name!r} has no query {label!r}; "
                f"suite: {sorted(self._provider.queries)}"
            ) from None
        return factory()


def get_workload(
    name: str,
    scale_factor: int,
    seed: int = 42,
    skew: float = 0.0,
    correlation: float = 0.0,
) -> WorkloadSpec:
    """Build a :class:`WorkloadSpec` for a registered workload.

    Raises :class:`~repro.common.errors.CatalogError` for unknown names and
    out-of-range knobs — at spec-build time, not when the data is first
    touched. The knobs are stored as floats, so ``skew=1`` and ``skew=1.0``
    name one universe.
    """
    try:
        provider = _PROVIDERS[name]
    except KeyError:
        raise CatalogError(
            f"unknown workload {name!r}; choose from {sorted(_PROVIDERS)}"
        ) from None
    return WorkloadSpec(
        name=name,
        scale_factor=scale_factor,
        seed=seed,
        skew=float(skew),
        correlation=float(correlation),
        _provider=provider,
    )
