"""Typed diagnostics shared by the plan verifier and the determinism lint.

Every finding is a :class:`Diagnostic` carrying a stable rule code. Codes are
part of the public contract (tests assert them, CI greps them, DESIGN.md §9
and §14 tabulate them): ``P…`` codes come from the plan/job verifier, ``Q…``
codes from the query-level dataflow verifier (whole-job-sequence invariants),
and ``D…``/``F…``/``W…`` codes from the source-level lint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import PlanError

#: Plan/job verifier rules (structural invariants of compiled jobs).
PLAN_RULES: dict[str, str] = {
    "P001": "dangling-column",
    "P002": "reader-missing-intermediate",
    "P003": "bad-phase-tail",
    "P004": "join-key-type-mismatch",
    "P005": "broadcast-over-budget",
    "P006": "cartesian-join",
    "P007": "duplicate-output-column",
}

#: Query-level dataflow verifier rules (invariants of the whole job
#: *sequence* a query executed, DESIGN.md §14).
QUERY_RULES: dict[str, str] = {
    "Q001": "dead-sink",
    "Q002": "read-before-write",
    "Q003": "namespace-leak",
    "Q004": "cache-token-collision",
    "Q005": "charge-attribution-leak",
    "Q006": "transfer-pass-unsound",
}

#: Determinism lint rules (AST/source invariants of the engine source).
LINT_RULES: dict[str, str] = {
    "D001": "wall-clock-in-engine-code",
    "D002": "bare-random",
    "D003": "unordered-set-iteration",
    "D004": "queue-delay-in-jobmetrics",
    "D005": "collector-state-in-library-code",
    "D006": "interpreter-object-size",
    "D007": "binary-decoder",
    "D008": "per-value-digest",
    "D009": "stable-hash-outside-kernel",
    "F401": "unused-import",
    "F821": "undefined-name",
    "W001": "stale-suppression-pragma",
}

#: All rule codes -> short rule names.
RULES: dict[str, str] = {**PLAN_RULES, **QUERY_RULES, **LINT_RULES}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable rule code plus a human-readable message.

    ``job_label``/``phase`` locate verifier findings inside an execution;
    ``path``/``line`` locate lint findings inside the source tree. Either
    group may be empty depending on which tool produced the record.
    """

    code: str
    message: str
    job_label: str = ""
    phase: str = ""
    path: str = ""
    line: int = 0
    severity: str = "error"

    @property
    def rule(self) -> str:
        """Short rule name for the code (e.g. ``dangling-column``)."""
        return RULES.get(self.code, "unknown-rule")

    def render(self) -> str:
        where = ""
        if self.path:
            where = f" {self.path}:{self.line}" if self.line else f" {self.path}"
        elif self.job_label:
            where = f" [{self.job_label}]"
        return f"{self.code} {self.rule}{where}: {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (the lint CLI's ``--format json`` output)."""
        return {
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
            "job_label": self.job_label,
            "phase": self.phase,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
        }


class PlanVerificationError(PlanError):
    """A compiled job failed verification; carries the full diagnostics.

    Raised by the verify-on-compile gate before the offending job launches,
    so a broken plan costs zero simulated seconds. ``diagnostics`` preserves
    every finding (a job can violate several rules at once).
    """

    def __init__(
        self, diagnostics: tuple[Diagnostic, ...] | list[Diagnostic], job_label: str = ""
    ) -> None:
        self.diagnostics: tuple[Diagnostic, ...] = tuple(diagnostics)
        self.job_label = job_label
        codes = ", ".join(d.code for d in self.diagnostics) or "no diagnostics"
        label = f" for job {job_label!r}" if job_label else ""
        detail = "; ".join(d.render() for d in self.diagnostics)
        super().__init__(f"plan verification failed{label} ({codes}): {detail}")

    def codes(self) -> tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)
