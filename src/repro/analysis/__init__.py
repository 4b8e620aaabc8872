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
:func:`repro.engine.scheduler.request.run_request`, the transfer prelude
audits its own alias rewiring where it makes it, and the query-level pass
runs when the scheduler finishes a query. None of them can be switched off.

The package re-exports nothing: every reader imports the submodule it
needs.
"""
