"""Static analysis: verification, determinism lint, and plan-quality diagnosis.

Four tools live here, all producing typed records with stable rule codes
(DESIGN.md §9 and §14):

- the **plan/job verifier** (:mod:`repro.analysis.verifier`, rules
  ``P001``–``P007``) proves structural invariants of compiled jobs *before*
  they launch — the runtime dynamic driver compiles a fresh plan at every
  re-optimization point, so a plan bug would otherwise surface mid-query
  after simulated hours of work;
- the **query-level dataflow verifier** (:mod:`repro.analysis.dataflow`,
  rules ``Q001``–``Q006``) checks the whole job *sequence* a query executed:
  intermediate read/write ordering, dead sinks, namespace containment,
  cross-query cache-token collisions, charge-attribution conservation
  against the tracer's clock, and transfer-pass soundness;
- the **determinism lint** (:mod:`repro.analysis.lint`, rules
  ``D001``–``D009``, ``F401``, ``F821`` plus ``W001``) is an AST pass over
  the engine source enforcing the simulated-clock / seeded-RNG /
  ordered-iteration rules the scheduler's byte-identity guarantees depend
  on;
- the **plan-quality diagnosis engine** (:mod:`repro.analysis.diagnose`)
  routes the tracer's per-re-opt-point Q-errors through a hypothesis table
  and emits ranked "why was this plan bad" candidates into
  ``explain_analyze`` and the ``python -m repro.analysis.diagnose`` CLI.

The verifiers are wired into the execution path by
:mod:`repro.analysis.runtime`: the per-job gate sits in
:func:`repro.engine.scheduler.request.run_request`, plan-time verification
runs at every re-optimization point before jobgen, and the query-level pass
runs when the scheduler finishes a query. None of them can be switched off.
"""

from repro.analysis.diagnostics import (
    LINT_RULES,
    PLAN_RULES,
    QUERY_RULES,
    RULES,
    Diagnostic,
    PlanVerificationError,
)

# The remaining re-exports resolve lazily: the verifier imports the algebra
# and operator modules, which import the engine package, which imports
# repro.analysis.runtime for the gate — an eager import here would re-enter
# this package while it is still initializing. Lazy resolution also keeps
# ``python -m repro.analysis.lint`` free of runpy's double-import warning.
_LAZY = {
    "lint_paths": "repro.analysis.lint",
    "lint_source": "repro.analysis.lint",
    "VerifierStats": "repro.analysis.runtime",
    "verify_before_launch": "repro.analysis.runtime",
    "verify_plan_before_jobgen": "repro.analysis.runtime",
    "verify_query_completion": "repro.analysis.runtime",
    "RULES_CHECKED_PER_JOB": "repro.analysis.verifier",
    "verify_job": "repro.analysis.verifier",
    "verify_plan": "repro.analysis.verifier",
    "JobDataflow": "repro.analysis.dataflow",
    "TransferSummary": "repro.analysis.dataflow",
    "QUERY_RULES_CHECKED": "repro.analysis.dataflow",
    "dataflow_of": "repro.analysis.dataflow",
    "verify_query_dataflow": "repro.analysis.dataflow",
    "Hypothesis": "repro.analysis.diagnose",
    "diagnose_records": "repro.analysis.diagnose",
    "diagnose_trace": "repro.analysis.diagnose",
    "format_diagnosis": "repro.analysis.diagnose",
}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "LINT_RULES",
    "PLAN_RULES",
    "QUERY_RULES",
    "QUERY_RULES_CHECKED",
    "RULES",
    "RULES_CHECKED_PER_JOB",
    "Diagnostic",
    "Hypothesis",
    "JobDataflow",
    "PlanVerificationError",
    "TransferSummary",
    "VerifierStats",
    "dataflow_of",
    "diagnose_records",
    "diagnose_trace",
    "format_diagnosis",
    "lint_paths",
    "lint_source",
    "verify_before_launch",
    "verify_job",
    "verify_plan",
    "verify_plan_before_jobgen",
    "verify_query_completion",
    "verify_query_dataflow",
]
