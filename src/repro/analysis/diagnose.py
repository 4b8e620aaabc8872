"""Plan-quality diagnosis: Q-error records → ranked "why was this plan bad".

A trace reads as one :class:`~repro.obs.trace.EstimateRecord` per
re-optimization point — the estimated vs measured cardinality at every
materialized stage, pushdown, transfer reduction and final join. A large
Q-error *names the symptom*; this module routes each symptom through a
hypothesis table (the querytorque pattern: error locus × error direction →
candidate root cause) and emits ranked :class:`Hypothesis` records:

=============================  ==================================================
hypothesis                     routed from
=============================  ==================================================
correlated-filter-             scan/transfer-stage **under**\\ estimate — the
underestimate                  independence assumption multiplied correlated
                               predicate selectivities
stale-base-statistics          scan-stage **over**\\ estimate — the base sketch
                               predicts more survivors than the data has
skewed-join-key                join-stage **under**\\ estimate — a heavy-hitter
                               key broke the uniform-frequency join model
stale-sketch-overestimate      join-stage **over**\\ estimate — distinct-count
                               sketches of an unsketched/stale intermediate
                               deflate (or inflate) the denominator
unhelpful-transfer-filter      a transfer reduction that barely reduced: the
                               Bloom passes cost real simulated seconds and
                               removed (almost) nothing
vanishing-intermediate         measured rows hit zero against a nonzero
                               estimate (unbounded Q-error)
zero-support-estimate          the estimate was zero against measured rows
=============================  ==================================================

Ranked output lands in ``explain_analyze`` (the "plan-quality diagnosis"
section) and in the ``python -m repro.analysis.diagnose`` CLI, which either
re-runs a bench query or reads an exported trace JSON. Diagnosis is pure
post-hoc analysis: zero simulated cost, nothing about the run changes.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import CatalogError

if TYPE_CHECKING:
    from repro.obs.trace import EstimateRecord, QueryTrace

#: Q-error at or below this is a hit, not a symptom (default CLI threshold).
DEFAULT_THRESHOLD = 2.0

#: A transfer reduction whose measured rows stay within this factor of the
#: local-predicate estimate removed (almost) nothing beyond the predicates —
#: the filters were paid for but did not help.
UNHELPFUL_TRANSFER_FACTOR = 1.5


@dataclass(frozen=True)
class Hypothesis:
    """One ranked "why was this plan bad" candidate."""

    #: stable hypothesis slug (e.g. ``skewed-join-key``)
    code: str
    #: phase of the estimate record that produced it
    phase: str
    #: operator label of the record (e.g. ``HashJoin``, ``transfer:l``)
    operator: str
    #: the record's Q-error (``inf`` for one-sided-zero misses)
    q_error: float
    #: ``"under"`` | ``"over"`` | ``"flat"`` — estimate vs measurement
    direction: str
    #: one-line human-readable hypothesis
    summary: str
    #: the numbers behind it (estimated vs actual rows)
    evidence: str

    def render(self) -> str:
        q = "inf" if math.isinf(self.q_error) else f"{self.q_error:.1f}x"
        return (
            f"{self.code} [{q} {self.direction}] {self.phase} / "
            f"{self.operator}: {self.summary} ({self.evidence})"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "phase": self.phase,
            "operator": self.operator,
            "q_error": self.q_error,
            "direction": self.direction,
            "summary": self.summary,
            "evidence": self.evidence,
        }


def _locus(record: "EstimateRecord") -> str:
    """Where in the pipeline the estimate was made: transfer | scan | join."""
    if record.phase.startswith("transfer"):
        return "transfer"
    if record.phase.startswith(("pushdown", "single-job")):
        return "scan"
    return "join"


def _direction(record: "EstimateRecord") -> str:
    if record.estimated_rows < record.actual_rows:
        return "under"
    if record.estimated_rows > record.actual_rows:
        return "over"
    return "flat"


def _evidence(record: "EstimateRecord") -> str:
    return (
        f"estimated {record.estimated_rows:.0f} rows, "
        f"measured {record.actual_rows:.0f}"
    )


def _route(record: "EstimateRecord", threshold: float) -> Hypothesis | None:
    """The hypothesis table: one record → at most one ranked candidate."""
    locus = _locus(record)
    direction = _direction(record)
    q = record.q_error
    if math.isinf(q):
        if record.actual_rows <= 0.0:
            return Hypothesis(
                code="vanishing-intermediate",
                phase=record.phase,
                operator=record.operator,
                q_error=q,
                direction="over",
                summary="the stage produced zero rows against a nonzero "
                "estimate; every downstream estimate involving it is "
                "unbounded — check for an empty join or a predicate that "
                "excludes everything",
                evidence=_evidence(record),
            )
        return Hypothesis(
            code="zero-support-estimate",
            phase=record.phase,
            operator=record.operator,
            q_error=q,
            direction="under",
            summary="the optimizer estimated zero rows for a stage that "
            "produced some; a sketch reported no support for a value that "
            "exists (stale or under-sampled statistics)",
            evidence=_evidence(record),
        )
    if locus == "transfer":
        if q <= UNHELPFUL_TRANSFER_FACTOR:
            return Hypothesis(
                code="unhelpful-transfer-filter",
                phase=record.phase,
                operator=record.operator,
                q_error=q,
                direction=direction,
                summary="the transfer reduction kept about as many rows as "
                "local predicates alone predicted; the Bloom build/probe "
                "cost bought (almost) no reduction on this alias",
                evidence=_evidence(record),
            )
        if q <= threshold:
            return None
        if direction == "under":
            return Hypothesis(
                code="correlated-filter-underestimate",
                phase=record.phase,
                operator=record.operator,
                q_error=q,
                direction=direction,
                summary="more rows survived the transfer reduction than the "
                "local-predicate estimate allowed; the predicate "
                "selectivities are correlated with the join keys",
                evidence=_evidence(record),
            )
        # A large overestimate at a transfer point means the filters worked
        # far better than local predicates predicted — a win, not a symptom.
        return None
    if q <= threshold:
        return None
    if locus == "scan":
        if direction == "under":
            return Hypothesis(
                code="correlated-filter-underestimate",
                phase=record.phase,
                operator=record.operator,
                q_error=q,
                direction=direction,
                summary="the materialized scan kept more rows than the "
                "sketch-based selectivity product predicted; the filters "
                "are likely correlated (independence assumption broke)",
                evidence=_evidence(record),
            )
        return Hypothesis(
            code="stale-base-statistics",
            phase=record.phase,
            operator=record.operator,
            q_error=q,
            direction=direction,
            summary="the scan produced far fewer rows than the base "
            "statistics predicted; the dataset's sketches no longer match "
            "its contents (re-ingest or re-sketch)",
            evidence=_evidence(record),
        )
    if direction == "under":
        return Hypothesis(
            code="skewed-join-key",
            phase=record.phase,
            operator=record.operator,
            q_error=q,
            direction=direction,
            summary="the join produced far more rows than the "
            "uniform-frequency model predicted; a heavy-hitter join key "
            "(skew) is multiplying matches the distinct-count model "
            "cannot see",
            evidence=_evidence(record),
        )
    return Hypothesis(
        code="stale-sketch-overestimate",
        phase=record.phase,
        operator=record.operator,
        q_error=q,
        direction=direction,
        summary="the join produced far fewer rows than estimated; the "
        "input's distinct-count sketches are stale or missing (an "
        "unsketched intermediate falls back to its row count), deflating "
        "the join-key denominator",
        evidence=_evidence(record),
    )


def _rank_key(hypothesis: Hypothesis) -> tuple[float, str, str]:
    # Most severe first: inf sorts above any finite Q-error; ties break on
    # (phase, operator) for determinism. The unhelpful-transfer-filter
    # hypotheses (q ~ 1) land last naturally.
    q = hypothesis.q_error if not math.isinf(hypothesis.q_error) else float("1e308")
    return (-q, hypothesis.phase, hypothesis.operator)


def diagnose_records(
    records: list["EstimateRecord"], threshold: float = DEFAULT_THRESHOLD
) -> list[Hypothesis]:
    """Route every estimate record through the hypothesis table; rank them."""
    hypotheses = []
    for record in records:
        hypothesis = _route(record, threshold)
        if hypothesis is not None:
            hypotheses.append(hypothesis)
    hypotheses.sort(key=_rank_key)
    return hypotheses


def diagnose_trace(trace: "QueryTrace") -> list[Hypothesis]:
    """Ranked hypotheses for one finished query trace."""
    return diagnose_records(list(trace.estimates))


def format_diagnosis(hypotheses: list[Hypothesis]) -> str:
    if not hypotheses:
        return "no plan-quality symptoms above threshold"
    lines = [
        f"  {rank}. {hypothesis.render()}"
        for rank, hypothesis in enumerate(hypotheses, start=1)
    ]
    return "\n".join(lines)


# -- CLI -------------------------------------------------------------------------


def _records_from_trace_file(path: str) -> list["EstimateRecord"]:
    from repro.obs.trace import EstimateRecord

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return [
        EstimateRecord(
            phase=str(entry.get("phase", "")),
            operator=str(entry.get("operator", "")),
            estimated_rows=float(entry.get("estimated_rows", 0.0)),
            actual_rows=float(entry.get("actual_rows", 0.0)),
        )
        for entry in payload.get("estimates", [])
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.diagnose",
        description="Ranked plan-quality hypotheses from Q-error records: "
        "re-run a bench query, or read an exported trace JSON.",
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="path to a QueryTrace JSON export (skips running anything)",
    )
    parser.add_argument("--query", default="Q8", help="bench query label")
    parser.add_argument("--sf", type=int, default=10, help="scale factor")
    parser.add_argument(
        "--optimizer",
        default="dynamic",
        help="bench variant: a strategy name or a composition such as "
        "dynamic+transfer",
    )
    parser.add_argument("--skew", type=float, default=0.0, help="J1-J3 only")
    parser.add_argument("--correlation", type=float, default=0.0, help="J1-J3 only")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="Q-error above which a record becomes a symptom",
    )
    args = parser.parse_args(argv)

    if args.trace is not None:
        records = _records_from_trace_file(args.trace)
        source = args.trace
    else:
        from repro.bench.sweep import VARIANTS, Key, execute

        if args.optimizer not in VARIANTS:
            parser.error(
                f"unknown --optimizer {args.optimizer!r}; choose from {sorted(VARIANTS)}"
            )
        key = Key(args.query, args.sf, args.optimizer, args.skew, args.correlation)
        try:
            result = execute(key, args.seed)
        except CatalogError as error:  # e.g. a knob on a TPC query
            parser.error(str(error))
        records = list(result.trace.estimates) if result.trace else []
        source = f"{args.query} @ SF {args.sf} under {args.optimizer}"

    hypotheses = diagnose_records(records, threshold=args.threshold)
    print(f"plan-quality diagnosis for {source}")
    print(
        f"  {len(records)} estimate record(s), "
        f"{len(hypotheses)} hypothesis(es) at threshold {args.threshold:g}"
    )
    print(format_diagnosis(hypotheses))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
