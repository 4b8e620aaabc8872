"""Predicate-transfer experiment: when does pre-filtering pay?

``python -m repro.bench transfer`` measures the three-way contest the
predicate-transfer literature sets up against runtime re-optimization:

- ``dynamic`` — the paper's approach: plan-as-you-go with measured
  statistics, no pre-filtering beyond predicate push-down;
- ``predicate_transfer`` — pure pre-filtering: Bloom-filter forward and
  backward passes reduce every FROM entry, then one static bushy plan;
- ``dynamic+transfer`` — the composition: the transfer passes run as the
  dynamic driver's prelude (``PlannerSpec.of("dynamic",
  pre_filter="transfer")``), and the re-optimization loop runs over the
  reduced intermediates.

The sweep spans both regimes on purpose. Transfer pays its way in filter
builds, filter shipping and per-entry reduce-job launches — all charged to
the simulated clock — so it *loses* where the data is small (job startups
dominate: every SF-10 cell) or where the joins keep most rows anyway
(TPC-H Q9 at SF 100, where the lineitem keys nearly all survive). It *wins*
where transitive reduction bites before the first join: the SF-100 Q8 /
Q17 / J2 cells, where the dynamic baseline materializes intermediates that
transfer's reduced inputs never produce. The adversarial skew cell shows
the paper's own regime is not subsumed: under hot-key joins the blowup
happens *inside* the join, which no pre-filter can remove.

:func:`transfer_ok` pins that both regimes exist: at least one workload
where a transfer variant beats plain ``dynamic`` on simulated seconds, and
at least one where ``dynamic`` beats both transfer variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import run_query

#: variant name -> (strategy, planner options)
VARIANTS: dict[str, tuple[str, dict]] = {
    "dynamic": ("dynamic", {}),
    "predicate_transfer": ("predicate_transfer", {}),
    "dynamic+transfer": ("dynamic", {"pre_filter": "transfer"}),
}

#: the transfer variants measured against the plain dynamic baseline
TRANSFER_VARIANTS = ("predicate_transfer", "dynamic+transfer")

#: (query, scale factor, skew, correlation) — both regimes represented;
#: see the module docstring for why each cell lands where it does.
WORKLOADS: tuple[tuple[str, int, float, float], ...] = (
    ("Q8", 10, 0.0, 0.0),   # startup-dominated: transfer loses
    ("Q8", 100, 0.0, 0.0),  # transitive reduction bites: transfer wins
    ("Q17", 100, 0.0, 0.0),
    ("Q9", 100, 0.0, 0.0),  # keys mostly survive: filters are dead weight
    ("Q50", 100, 0.0, 0.0),
    ("J2", 100, 0.0, 0.0),
    ("J2", 10, 1.3, 0.9),   # adversarial: the blowup is inside the join
)

#: CI configuration: one winning and one losing cell of the same query
SMOKE_WORKLOADS: tuple[tuple[str, int, float, float], ...] = (
    ("Q8", 10, 0.0, 0.0),
    ("Q8", 100, 0.0, 0.0),
)


@dataclass(frozen=True)
class TransferCell:
    """One (workload, variant) measurement."""

    query: str
    scale_factor: int
    skew: float
    correlation: float
    variant: str
    seconds: float
    rows: int
    jobs: int


def sweep_cell(
    query: str,
    scale_factor: int,
    skew: float,
    correlation: float,
    variant: str,
    seed: int = 42,
) -> TransferCell:
    """Run one variant against one workload cell."""
    strategy, options = VARIANTS[variant]
    result = run_query(
        query, scale_factor, strategy, seed=seed,
        skew=skew, correlation=correlation, **options,
    )
    return TransferCell(
        query=query,
        scale_factor=scale_factor,
        skew=skew,
        correlation=correlation,
        variant=variant,
        seconds=result.metrics.total_seconds,
        rows=len(result.rows),
        jobs=result.metrics.jobs,
    )


def run_transfer(
    workloads: tuple[tuple[str, int, float, float], ...] | None = None,
    variants: tuple[str, ...] | None = None,
    seed: int = 42,
    smoke: bool = False,
) -> list[TransferCell]:
    """The sweep: every variant at every workload cell."""
    if workloads is None:
        workloads = SMOKE_WORKLOADS if smoke else WORKLOADS
    variants = variants or tuple(VARIANTS)
    return [
        sweep_cell(query, scale_factor, skew, correlation, variant, seed)
        for query, scale_factor, skew, correlation in workloads
        for variant in variants
    ]


def _grouped(
    cells: list[TransferCell],
) -> dict[tuple[str, int, float, float], list[TransferCell]]:
    groups: dict[tuple[str, int, float, float], list[TransferCell]] = {}
    for cell in cells:
        key = (cell.query, cell.scale_factor, cell.skew, cell.correlation)
        groups.setdefault(key, []).append(cell)
    return groups


def transfer_ok(cells: list[TransferCell]) -> bool:
    """True when the sweep shows both regimes: some workload where a
    transfer variant beats plain ``dynamic`` on simulated seconds, and some
    workload where ``dynamic`` beats both transfer variants."""
    wins = losses = 0
    for group in _grouped(cells).values():
        seconds = {cell.variant: cell.seconds for cell in group}
        if "dynamic" not in seconds:
            continue
        transfer = [
            seconds[name] for name in TRANSFER_VARIANTS if name in seconds
        ]
        if not transfer:
            continue
        if min(transfer) < seconds["dynamic"]:
            wins += 1
        if all(value > seconds["dynamic"] for value in transfer):
            losses += 1
    return wins >= 1 and losses >= 1


def format_transfer(cells: list[TransferCell]) -> str:
    """Tabulate the sweep, one block per workload cell."""
    lines = []
    for (query, scale_factor, skew, correlation), group in sorted(
        _grouped(cells).items()
    ):
        knobs = (
            f" skew={skew:g} correlation={correlation:g}"
            if skew or correlation
            else ""
        )
        lines.append(f"{query} @ SF {scale_factor}{knobs} — pre-filtering contest")
        lines.append(
            f"  {'variant':20s} {'sim s':>10s} {'rows':>7s} {'jobs':>5s}"
        )
        baseline = next(
            (cell.seconds for cell in group if cell.variant == "dynamic"), None
        )
        for cell in sorted(group, key=lambda c: c.seconds):
            delta = ""
            if baseline is not None and cell.variant != "dynamic":
                sign = "-" if cell.seconds < baseline else "+"
                delta = f"  ({sign}{abs(cell.seconds - baseline):.1f}s vs dynamic)"
            lines.append(
                f"  {cell.variant:20s} {cell.seconds:10.1f} {cell.rows:7d}"
                f" {cell.jobs:5d}{delta}"
            )
    verdict = (
        "both regimes shown: transfer beats dynamic somewhere and loses to "
        "it somewhere"
        if transfer_ok(cells)
        else "REGIMES NOT SHOWN: the sweep lacks a transfer win or a "
        "transfer loss against plain dynamic"
    )
    lines.append(verdict)
    return "\n".join(lines)
