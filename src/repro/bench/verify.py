"""Verifier sweep: every strategy x evaluation query must verify clean.

``python -m repro.bench verify`` runs all registered optimization strategies
(plus the ``dynamic+transfer`` prelude variant) over the paper's four
evaluation queries plus the JOB-style suite (J1-J3) with the
verify-on-compile gate (it always runs) and reports, per combination, how
many jobs, plan-time checks and query-level (Q001–Q006) passes the
:mod:`repro.analysis` verifiers ran. The sweep asserts **zero diagnostics**:
any :class:`~repro.analysis.diagnostics.PlanVerificationError` means a
strategy compiled a structurally broken job — a reproduction bug, not a
data point — so the row is tabulated as FAILED and the experiment exits
non-zero.

Verification charges zero *simulated* seconds; what it costs is host time,
and host time has one owner: ``benchmarks/e2e`` reports it as
``analysis.verify_s`` / ``analysis.verify_share`` per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.diagnostics import PlanVerificationError
from repro.bench.runner import SWEEP_QUERIES, run_query, workbench_for_query
from repro.optimizers import available_strategies

#: the verifier sweep covers every registered strategy, not just the
#: Figure 7 comparison set — greedy_static, from_order and sketch_online
#: included; enumerated from the registry so new planners enroll for free.
#: ``dynamic+transfer`` additionally sweeps the dynamic driver with the
#: Bloom-propagation prelude (``pre_filter="transfer"``), the path the Q006
#: transfer-soundness rule exists for.
VERIFY_OPTIMIZERS = tuple(sorted(available_strategies())) + ("dynamic+transfer",)


@dataclass(frozen=True)
class VerifyRow:
    """One (query, scale factor, strategy) sweep cell."""

    query: str
    scale_factor: int
    optimizer: str
    jobs_verified: int
    diagnostics: tuple[str, ...]
    plans_verified: int = 0
    queries_verified: int = 0

    @property
    def clean(self) -> bool:
        return not self.diagnostics


def verify_cell(
    label: str, scale_factor: int, optimizer: str, seed: int = 42
) -> VerifyRow:
    """Run one query under one strategy and account the gate's work.

    An optimizer spelled ``name+variant`` (currently ``dynamic+transfer``)
    runs strategy ``name`` with the matching planner option — the only
    variant today is the ``pre_filter="transfer"`` prelude.
    """
    bench = workbench_for_query(label, scale_factor, seed)
    stats = bench.session.executor.verifier_stats
    before = replace(stats)
    name, _, variant = optimizer.partition("+")
    options: dict[str, object] = {"pre_filter": variant} if variant else {}
    diagnostics: tuple[str, ...] = ()
    try:
        run_query(label, scale_factor, name, seed=seed, **options)
    except PlanVerificationError as error:
        diagnostics = error.codes()
    return VerifyRow(
        query=label,
        scale_factor=scale_factor,
        optimizer=optimizer,
        jobs_verified=stats.jobs_verified - before.jobs_verified,
        diagnostics=diagnostics,
        plans_verified=stats.plans_verified - before.plans_verified,
        queries_verified=stats.queries_verified - before.queries_verified,
    )


def run_verify(
    scale_factors=(10, 100),
    queries: tuple[str, ...] | None = None,
    optimizers: tuple[str, ...] = VERIFY_OPTIMIZERS,
    seed: int = 42,
) -> list[VerifyRow]:
    """The full sweep: every strategy x query x scale factor.

    The default query set is :data:`~repro.bench.runner.SWEEP_QUERIES` —
    the paper's four evaluation queries plus the JOB suite.
    """
    rows = []
    for scale_factor in scale_factors:
        for label in queries or tuple(SWEEP_QUERIES):
            for optimizer in optimizers:
                rows.append(verify_cell(label, scale_factor, optimizer, seed))
    return rows


def verify_ok(rows: list[VerifyRow]) -> bool:
    return all(row.clean for row in rows)


def format_verify(rows: list[VerifyRow]) -> str:
    """Tabulate the sweep with per-cell and aggregate check counts."""
    lines = []
    groups: dict[tuple[int, str], list[VerifyRow]] = {}
    for row in rows:
        groups.setdefault((row.scale_factor, row.query), []).append(row)
    for (scale_factor, query), group in sorted(groups.items()):
        lines.append(f"{query} @ SF {scale_factor} — verify-on-compile sweep")
        lines.append(
            f"  {'optimizer':16s} {'jobs':>5s} {'plans':>5s} {'qry':>3s}"
            f" {'verdict':>10s}"
        )
        for row in group:
            verdict = "clean" if row.clean else "FAILED " + ",".join(
                row.diagnostics
            )
            lines.append(
                f"  {row.optimizer:16s} {row.jobs_verified:5d}"
                f" {row.plans_verified:5d} {row.queries_verified:3d}"
                f" {verdict:>10s}"
            )
    total_jobs = sum(row.jobs_verified for row in rows)
    total_plans = sum(row.plans_verified for row in rows)
    total_queries = sum(row.queries_verified for row in rows)
    dirty = [row for row in rows if not row.clean]
    lines.append(
        f"total: {total_jobs} job(s), {total_plans} plan(s) and "
        f"{total_queries} query-level pass(es) verified across {len(rows)} "
        "run(s)"
    )
    if dirty:
        lines.append(
            "FAILED: "
            + "; ".join(
                f"{row.query}/sf{row.scale_factor}/{row.optimizer}: "
                + ",".join(row.diagnostics)
                for row in dirty
            )
        )
    else:
        lines.append("all runs verified clean (0 diagnostics)")
    return "\n".join(lines)
