"""Typed planner specification: the public optimizer-selection API.

:class:`PlannerSpec` is a frozen dataclass naming a registered strategy plus
validated options (including a :class:`~repro.core.policy.ReplanPolicy`).
Construction validates eagerly — an unknown strategy or an option the
strategy's constructor does not accept raises
:class:`~repro.common.errors.OptimizationError` at spec-build time, not when
the query runs. Both :class:`~repro.session.Session` entry points
(``execute``/``submit``) take the spec, or a bare strategy-name string, as
their one planner argument and resolve it through :func:`resolve_planner`,
so they validate identically.

    from repro import PlannerSpec, ReplanPolicy, Session

    spec = PlannerSpec.of("dynamic", policy=ReplanPolicy.default())
    result = Session().execute(query, spec)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from repro.common.errors import OptimizationError
from repro.core.policy import ReplanPolicy

if TYPE_CHECKING:
    from repro.optimizers.base import Optimizer


@cache
def _accepted_options(cls: type) -> frozenset[str]:
    """The option names ``cls``'s constructor accepts, read once per class."""
    return frozenset(inspect.signature(cls.__init__).parameters) - {"self"}


@dataclass(frozen=True)
class PlannerSpec:
    """A validated (strategy, options) pair selecting an optimizer.

    ``options`` is stored as a sorted tuple of ``(name, value)`` pairs so
    specs stay hashable and order-insensitive; build them with :meth:`of`.
    """

    strategy: str = "dynamic"
    options: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        from repro.optimizers import optimizer_class  # late import: avoids a cycle

        cls = optimizer_class(self.strategy)  # raises on unknown strategies
        allowed = _accepted_options(cls)
        unknown = sorted(key for key, _ in self.options if key not in allowed)
        if unknown:
            raise OptimizationError(
                f"optimizer {self.strategy!r} does not accept option(s) "
                f"{unknown}; accepted: {sorted(allowed)}"
            )
        seen: set[str] = set()
        for key, value in self.options:
            if key in seen:
                raise OptimizationError(f"duplicate option {key!r}")
            seen.add(key)
            if key == "policy" and value is not None:
                if not isinstance(value, ReplanPolicy):
                    raise OptimizationError(
                        "the 'policy' option must be a ReplanPolicy "
                        f"(got {type(value).__name__})"
                    )

    @classmethod
    def of(cls, strategy: str = "dynamic", **options) -> PlannerSpec:
        """Build a spec from keyword options (the usual constructor)."""
        return cls(strategy, tuple(sorted(options.items())))

    @property
    def policy(self) -> ReplanPolicy | None:
        """The attached re-planning policy, if any."""
        value = dict(self.options).get("policy")
        return value if isinstance(value, ReplanPolicy) else None

    def make(self) -> Optimizer:
        """Instantiate the configured optimizer strategy."""
        from repro.optimizers import make_optimizer

        return make_optimizer(self.strategy, **dict(self.options))


def resolve_planner(
    planner: PlannerSpec | str | None = None, entry: str = "execute"
) -> PlannerSpec:
    """The :class:`PlannerSpec` a Session entry point's ``planner`` names.

    ``planner`` may be a spec (the usual API), a strategy name string
    (positional shorthand for an option-less spec), or ``None`` (the default
    spec).
    """
    if isinstance(planner, PlannerSpec):
        return planner
    if planner is None:
        return PlannerSpec()
    if not isinstance(planner, str):
        raise OptimizationError(
            f"Session.{entry}: planner must be a PlannerSpec or a "
            f"strategy name (got {type(planner).__name__})"
        )
    return PlannerSpec.of(planner)
