"""Typed planner specification: the public optimizer-selection API.

:class:`PlannerSpec` replaces the stringly-typed
``Session.execute(query, optimizer="dynamic", **options)`` surface: a frozen
dataclass naming a registered strategy plus validated options (including a
:class:`~repro.core.policy.ReplanPolicy`). Construction validates eagerly —
an unknown strategy or an option the strategy's constructor does not accept
raises :class:`~repro.common.errors.OptimizationError` at spec-build time,
not when the query runs. All four :class:`~repro.session.Session` entry
points (``execute``/``submit``/``explain``/``explain_analyze``) resolve their
arguments through :func:`resolve_planner`, so they validate identically. A
bare strategy-name string is still accepted positionally; the old
``optimizer=``/loose-keyword form (deprecated since the spec landed) was
removed and now fails fast with the equivalent spec spelled out in the
error.

    from repro import PlannerSpec, ReplanPolicy, Session

    spec = PlannerSpec.of("dynamic", policy=ReplanPolicy.default())
    result = Session().execute(query, spec)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cache

from repro.common.errors import OptimizationError
from repro.core.policy import ReplanPolicy


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

    def with_options(self, **options) -> PlannerSpec:
        """A copy with ``options`` merged over the existing ones."""
        merged = dict(self.options)
        merged.update(options)
        return PlannerSpec(self.strategy, tuple(sorted(merged.items())))

    def as_dict(self) -> dict:
        """Plain-dict view (strategy + options), e.g. for logging."""
        return {"strategy": self.strategy, "options": dict(self.options)}

    @property
    def policy(self) -> ReplanPolicy | None:
        """The attached re-planning policy, if any."""
        value = dict(self.options).get("policy")
        return value if isinstance(value, ReplanPolicy) else None

    def make(self):
        """Instantiate the configured optimizer strategy."""
        from repro.optimizers import make_optimizer

        return make_optimizer(self.strategy, **dict(self.options))


def resolve_planner(
    planner=None,
    optimizer: str | None = None,
    options: dict | None = None,
    entry: str = "execute",
) -> PlannerSpec:
    """Normalize any Session entry-point arguments into a :class:`PlannerSpec`.

    ``planner`` may be a spec (the usual API), a strategy name string
    (positional shorthand for an option-less spec), or ``None`` (the default
    spec). The removed legacy ``optimizer=`` keyword and loose ``**options``
    fail fast with :class:`~repro.common.errors.OptimizationError` spelling
    out the equivalent :meth:`PlannerSpec.of` call.
    """
    options = dict(options or {})
    if isinstance(planner, PlannerSpec):
        if optimizer is not None or options:
            raise OptimizationError(
                f"Session.{entry}: pass options inside the PlannerSpec, "
                "not alongside it"
            )
        return planner
    if optimizer is not None or options:
        name = optimizer if optimizer is not None else planner
        rendered = ", ".join(
            [repr(name if isinstance(name, str) else "dynamic")]
            + [f"{key}=..." for key in sorted(options)]
        )
        raise OptimizationError(
            f"Session.{entry}: the legacy optimizer=/keyword-option form was "
            f"removed; pass a PlannerSpec instead, e.g. "
            f"PlannerSpec.of({rendered})"
        )
    if planner is None:
        return PlannerSpec()
    if not isinstance(planner, str):
        raise OptimizationError(
            f"Session.{entry}: planner must be a PlannerSpec or a "
            f"strategy name (got {type(planner).__name__})"
        )
    return PlannerSpec.of(planner)
