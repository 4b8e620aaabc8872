"""Predicate transfer as a standalone strategy [Yang et al., CIDR 2024].

The pure pre-filtering bet: spend the whole runtime-adaptivity budget
*before* the first join. A forward and a backward pass over the join graph
ship Bloom filters along every join edge and reduce each FROM entry to
(a superset of) the rows that survive the full join — see
``repro.core.predicate_transfer`` for the scheduler. The joins themselves
are then planned **once**, by the same exhaustive bushy DP every static
strategy uses, but over *measured* post-transfer statistics, and executed as
one pipelined final job.

This sits between ``sketch_online`` (measure after local predicates, plan
once) and ``dynamic`` (measure after every join, replan every step): like
COMPASS it never re-optimizes, but its leaf statistics already reflect the
joins' reducing effect, not just the local predicates'. The trade is paid in
transfer machinery — per-entry reduce jobs, filter builds, filter shipping —
which ``bench transfer`` shows winning on join-reductive workloads and
losing when the joins keep most rows anyway.

Composes with the scheduler (stage generators; the reduce jobs are real
Scan/Reader → Select → SemiJoinFilter → Sink jobs), the P001-P007 verifier,
the service cache (reduce jobs carry content-addressed cache tokens) and the
golden-fingerprint harness: Bloom filters err on the side of keeping rows,
so results are byte-identical to every other strategy.
"""

from __future__ import annotations

from repro.algebra.toolkit import PlannerToolkit
from repro.core.driver import original_leaves, resolve_logical
from repro.core.predicate_transfer import transfer_stages
from repro.engine.scheduler.request import QueryRun
from repro.lang.ast import Query
from repro.optimizers.base import Optimizer, final_job_stages
from repro.optimizers.enumeration import best_bushy_plan


class PredicateTransferOptimizer(Optimizer):
    """Bloom-filter pre-filtering passes, then one static bushy plan."""

    name = "predicate_transfer"

    def __init__(self, inl_enabled: bool = False) -> None:
        self.inl_enabled = inl_enabled

    def stages(self, query: Query, session, namespace: str = ""):
        run = QueryRun(query, session, self.name, namespace)
        outcome = yield from transfer_stages(run, session)

        toolkit = PlannerToolkit(
            outcome.query, session, run.statistics, self.inl_enabled
        )
        plan = best_bushy_plan(toolkit)
        # Report the plan in terms of the original FROM entries, not the
        # transfer intermediates (plan capture / Figure 5 reconstruction).
        described = resolve_logical(
            plan, original_leaves(query, outcome.intermediates)
        )
        return (
            yield from final_job_stages(
                run, plan, outcome.query, session, described=described
            )
        )
