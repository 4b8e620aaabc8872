"""Optimization strategies: the dynamic approach and its nine comparators.

Imports are lazy (PEP 562) because the dynamic optimizer lives in
``repro.core`` and subclasses/uses pieces from this package — eager imports
in both directions would cycle.
"""

from __future__ import annotations

from importlib import import_module

from repro.common.errors import OptimizationError
from repro.optimizers.base import Optimizer, single_job_stages

#: name -> (module, class) for every registered strategy
OPTIMIZERS = {
    "dynamic": ("repro.core.driver", "DynamicOptimizer"),
    "cost_based": ("repro.optimizers.static_cost", "CostBasedOptimizer"),
    "from_order": ("repro.optimizers.from_order", "FromOrderOptimizer"),
    "best_order": ("repro.optimizers.best_order", "BestOrderOptimizer"),
    "worst_order": ("repro.optimizers.worst_order", "WorstOrderOptimizer"),
    "pilot_run": ("repro.optimizers.pilot_run", "PilotRunOptimizer"),
    "ingres": ("repro.optimizers.ingres", "IngresLikeOptimizer"),
    "greedy_static": ("repro.optimizers.greedy_static", "GreedyStaticOptimizer"),
    "sketch_online": ("repro.optimizers.sketch_online", "SketchOnlineOptimizer"),
    "predicate_transfer": ("repro.optimizers.transfer", "PredicateTransferOptimizer"),
}

_LAZY_EXPORTS = {
    **{class_name: (module, class_name) for module, class_name in OPTIMIZERS.values()},
    "PlannerToolkit": ("repro.algebra.toolkit", "PlannerToolkit"),
    "alias_stats_key": ("repro.algebra.toolkit", "alias_stats_key"),
    "best_bushy_plan": ("repro.optimizers.enumeration", "best_bushy_plan"),
    "from_order_plan": ("repro.optimizers.from_order", "from_order_plan"),
}


def available_strategies() -> tuple[str, ...]:
    """Registered strategy names in registry (paper-presentation) order.

    The single source every sweep enumerates from — benches that need a
    stable display order use this tuple directly; benches that sweep
    exhaustively sort it.
    """
    return tuple(OPTIMIZERS)


def optimizer_class(name: str):
    """Resolve a registered optimizer name to its class."""
    try:
        module_name, class_name = OPTIMIZERS[name]
    except KeyError:
        raise OptimizationError(
            f"unknown optimizer {name!r}; choose from {sorted(OPTIMIZERS)}"
        ) from None
    return getattr(import_module(module_name), class_name)


def make_optimizer(name: str, **options) -> Optimizer:
    """Instantiate a registered optimizer by name."""
    return optimizer_class(name)(**options)


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(import_module(module_name), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "OPTIMIZERS",
    "Optimizer",
    "available_strategies",
    "make_optimizer",
    "optimizer_class",
    "single_job_stages",
    *sorted(_LAZY_EXPORTS),
]
