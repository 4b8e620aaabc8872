"""Query-level dataflow verifier: invariants of the whole job *sequence*.

The P001–P007 verifier (:mod:`repro.analysis.verifier`) proves one compiled
job at a time. But the runtime dynamic driver recompiles the plan at every
materialization point, the predicate-transfer prelude rewires the query's
FROM entries onto Bloom-reduced intermediates, and the scheduler interleaves
the jobs of concurrent queries — so a whole class of bugs only exists *across*
jobs: an intermediate written that nothing ever reads, a Reader launched
before its Sink, a cache token that collides across namespaces, simulated
seconds that no phase span owns. This module checks exactly that layer.

While a query runs, the verify-on-compile gate extracts one
:class:`JobDataflow` record per launched (or cache-replayed) job — what the
job reads, writes, scans, and which Bloom filters it probes — onto the query's
tracer; the transfer prelude additionally records its filter builds and one
:class:`TransferSummary` describing the alias rewiring. When the scheduler
finishes the query, :func:`verify_query_dataflow` replays the sequence:

========  ==========================  ===============================================
code      rule                        invariant
========  ==========================  ===============================================
``Q001``  dead-sink                   every intermediate written is read by a later
                                      job (a dead sink is pure wasted materialization)
``Q002``  read-before-write           every intermediate read was written by an
                                      *earlier* job of the same query — never by a
                                      concurrent query's namespace, which may be
                                      released at any moment
``Q003``  namespace-leak              every intermediate a query writes
                                      lives under its ``__q<id>__`` prefix, so the
                                      scheduler's end-of-query release can drop it
``Q004``  cache-token-collision       cache tokens are namespace-free and map to one
                                      scan signature; batch keys name a dataset the
                                      job actually scans
``Q005``  charge-attribution-leak     every simulated second is owned by exactly one
                                      phase span: no gaps between spans, and the
                                      trace total equals the metrics total
``Q006``  transfer-pass-unsound       every Bloom probe follows its filter's build,
                                      and ``replace_filtered_table`` rewired exactly
                                      the aliases the pass reduced
========  ==========================  ===============================================

Like the per-job gate, all of this costs zero simulated seconds — only host
wall time, metered on :class:`~repro.analysis.runtime.VerifierStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.analysis.diagnostics import Diagnostic
from repro.engine.job import Job
from repro.engine.operators.filters import SemiJoinFilterOp
from repro.engine.operators.joins import IndexNestedLoopJoinOp
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.sink import SinkOp

if TYPE_CHECKING:
    from repro.engine.scheduler.request import JobRequest

#: How many rules one query-completion pass evaluates (trace records).
QUERY_RULES_CHECKED = 6

#: Positive inter-span gaps below this fraction of the total (or this many
#: absolute seconds, whichever is larger) are float noise, not leaks.
_CLOCK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class JobDataflow:
    """What one executed (or cache-replayed) job reads, writes and probes.

    Extracted from the compiled operator tree by the verify-on-compile gate
    and appended to the query's tracer; content is fully deterministic
    (names and content-addressed Bloom fingerprints, never wall time).
    """

    phase: str
    label: str
    kind: str = "job"
    #: intermediates read back (``ReaderOp`` datasets)
    reads: tuple[str, ...] = ()
    #: intermediates written (``SinkOp`` names)
    writes: tuple[str, ...] = ()
    #: base datasets scanned (``ScanOp`` + INL inner datasets)
    scans: tuple[str, ...] = ()
    #: Bloom-filter fingerprints probed (``SemiJoinFilterOp``)
    probes: tuple[str, ...] = ()
    #: Bloom-filter fingerprints built (transfer filter-build passes)
    builds: tuple[str, ...] = ()
    cache_token: str | None = None
    batch_key: str | None = None
    #: True when the job was answered from the intermediate cache (its
    #: writes were re-registered without launching anything).
    replayed: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "phase": self.phase,
            "label": self.label,
            "kind": self.kind,
            "reads": list(self.reads),
            "writes": list(self.writes),
            "scans": list(self.scans),
            "probes": list(self.probes),
            "builds": list(self.builds),
            "cache_token": self.cache_token,
            "batch_key": self.batch_key,
            "replayed": self.replayed,
        }


@dataclass(frozen=True)
class TransferSummary:
    """End-of-transfer rewiring record: the ``Q006`` audit input.

    Recorded by :func:`repro.core.predicate_transfer.transfer_stages` after
    its ``replace_filtered_table`` rewrite loop, capturing which aliases the
    pass reduced and the (alias, dataset) binding of every FROM entry before
    and after the rewrite.
    """

    phase: str = "transfer"
    #: aliases the pass reduced (``executed_aliases``)
    reduced: tuple[str, ...] = ()
    #: (alias, final intermediate name) per reduced alias
    intermediates: tuple[tuple[str, str], ...] = ()
    #: (alias, dataset) of the original query's FROM entries
    original_tables: tuple[tuple[str, str], ...] = ()
    #: (alias, dataset) of the rewritten query's FROM entries
    rewritten_tables: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "phase": self.phase,
            "reduced": list(self.reduced),
            "intermediates": [list(pair) for pair in self.intermediates],
            "original_tables": [list(pair) for pair in self.original_tables],
            "rewritten_tables": [list(pair) for pair in self.rewritten_tables],
        }


DataflowRecord = Union[JobDataflow, TransferSummary]


def dataflow_of(job: Job, request: "JobRequest | None" = None) -> JobDataflow:
    """Extract one job's dataflow record from its compiled operator tree."""
    reads: list[str] = []
    writes: list[str] = []
    scans: list[str] = []
    probes: list[str] = []
    stack = [job.root]
    while stack:
        operator = stack.pop()
        if isinstance(operator, ReaderOp):
            reads.append(operator.dataset)
        elif isinstance(operator, ScanOp):
            scans.append(operator.dataset)
        elif isinstance(operator, SinkOp):
            writes.append(operator.name)
        elif isinstance(operator, SemiJoinFilterOp):
            probes.extend(bloom.fingerprint() for _, bloom in operator.filters)
        elif isinstance(operator, IndexNestedLoopJoinOp):
            scans.append(operator.inner_dataset)
        stack.extend(reversed(operator.children))
    return JobDataflow(
        phase=job.phase,
        label=job.label,
        kind=getattr(request, "kind", "job") if request is not None else "job",
        reads=tuple(reads),
        writes=tuple(writes),
        scans=tuple(sorted(set(scans))),
        probes=tuple(probes),
        cache_token=getattr(request, "cache_token", None),
        batch_key=getattr(request, "batch_key", None),
    )


def verify_query_dataflow(
    records: list[DataflowRecord],
    namespace: str,
    token_registry: dict[str, tuple[str, ...]] | None = None,
    trace: object | None = None,
    metrics_total: float | None = None,
) -> list[Diagnostic]:
    """Verify one query's whole job sequence; returns Q001–Q006 diagnostics.

    ``records`` is the per-query dataflow sequence in execution order and
    ``namespace`` (``__q<id>``) the query's intermediate prefix: writes must
    live under it (Q003), reads under it must follow the write (Q002), and
    reads of foreign ``__q`` namespaces are cross-query hazards (Q002).
    ``token_registry`` is a cache-token → scan-signature map persisted
    *across* queries by the owning scheduler, so Q004 sees collisions
    between concurrent queries. ``trace``/``metrics_total`` feed the Q005
    charge-conservation audit.
    """
    diagnostics: list[Diagnostic] = []
    diagnostics.extend(_check_ordering(records, namespace))
    diagnostics.extend(_check_dead_sinks(records))
    diagnostics.extend(_check_tokens(records, token_registry))
    diagnostics.extend(_check_transfer(records))
    if trace is not None and metrics_total is not None:
        diagnostics.extend(_check_charges(trace, metrics_total))
    return diagnostics


def _job_records(records: list[DataflowRecord]) -> list[JobDataflow]:
    return [record for record in records if isinstance(record, JobDataflow)]


def _diag(code: str, message: str, label: str = "", phase: str = "") -> Diagnostic:
    return Diagnostic(code=code, message=message, job_label=label, phase=phase)


# -- Q001 / Q002 / Q003: the write/read/release ledger --------------------------


def _check_ordering(
    records: list[DataflowRecord], namespace: str
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    prefix = f"{namespace}__"
    written: set[str] = set()
    for record in _job_records(records):
        for read in record.reads:
            if read.startswith(prefix):
                if read not in written:
                    findings.append(
                        _diag(
                            "Q002",
                            f"job reads intermediate {read!r} before any "
                            "earlier job of this query wrote it",
                            record.label,
                            record.phase,
                        )
                    )
            elif read.startswith("__q"):
                findings.append(
                    _diag(
                        "Q002",
                        f"job reads {read!r} from a foreign query "
                        f"namespace (this query is {namespace!r}) — the "
                        "owner may release it at any moment",
                        record.label,
                        record.phase,
                    )
                )
        for write in record.writes:
            if not write.startswith(prefix):
                findings.append(
                    _diag(
                        "Q003",
                        f"job writes {write!r} outside its {namespace!r} "
                        "namespace — the scheduler's end-of-query release "
                        "will never drop it",
                        record.label,
                        record.phase,
                    )
                )
            written.add(write)
    return findings


def _check_dead_sinks(records: list[DataflowRecord]) -> list[Diagnostic]:
    jobs = _job_records(records)
    findings: list[Diagnostic] = []
    for index, record in enumerate(jobs):
        for write in record.writes:
            read_later = any(
                write in later.reads for later in jobs[index + 1 :]
            )
            if not read_later:
                findings.append(
                    _diag(
                        "Q001",
                        f"intermediate {write!r} is written but never read "
                        "by a later job — a dead sink (pure wasted "
                        "materialization)",
                        record.label,
                        record.phase,
                    )
                )
    return findings


# -- Q004: cache tokens and batch keys -------------------------------------------


def _check_tokens(
    records: list[DataflowRecord],
    token_registry: dict[str, tuple[str, ...]] | None,
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    seen: dict[str, tuple[str, ...]] = {}
    for record in _job_records(records):
        if record.batch_key is not None and record.batch_key not in record.scans:
            findings.append(
                _diag(
                    "Q004",
                    f"batch key {record.batch_key!r} names a dataset the job "
                    "never scans — a merged-scan discount would be applied "
                    "to a scan that cannot physically merge",
                    record.label,
                    record.phase,
                )
            )
        token = record.cache_token
        if token is None:
            continue
        if "__q" in token:
            findings.append(
                _diag(
                    "Q004",
                    "cache token contains a query namespace (\"__q\") — "
                    "tokens must be namespace-free or concurrent queries "
                    "can never share (or worse, falsely share) entries",
                    record.label,
                    record.phase,
                )
            )
        signature = record.scans
        previous = seen.get(token)
        if previous is None and token_registry is not None:
            previous = token_registry.get(token)
        if previous is not None and previous != signature:
            findings.append(
                _diag(
                    "Q004",
                    f"cache token collision: token maps to scan signature "
                    f"{previous!r} elsewhere but {signature!r} here — two "
                    "different jobs would replay each other's results",
                    record.label,
                    record.phase,
                )
            )
        seen[token] = signature
    if token_registry is not None:
        token_registry.update(seen)
    return findings


# -- Q005: charge-attribution conservation ---------------------------------------


def _check_charges(trace: object, metrics_total: float) -> list[Diagnostic]:
    """Audit the trace's phase spans against the query's metrics total.

    Every simulated second a query is charged must be owned by exactly one
    phase span. Two leak shapes are checked, both at the *clock* level
    (operator-cost sums are deliberately not compared — a batched scan's
    operator spans legitimately show the undiscounted in-job clock):

    - a **gap** between consecutive phase spans (or before the first):
      positive, seconds charged with no owning span (the queue-delay leak
      class); negative, seconds taken back or owned by two spans;
    - a **total mismatch**: the trace's end differs from the metrics total,
      i.e. some charge bypassed the tracer entirely.
    """
    findings: list[Diagnostic] = []
    root = getattr(trace, "root", None)
    if root is None:
        return findings
    tolerance = max(_CLOCK_TOLERANCE, abs(metrics_total) * _CLOCK_TOLERANCE)
    spans = [span for span in root.children if span.kind == "phase"]
    cursor = 0.0
    for span in spans:
        gap = span.start_seconds - cursor
        if abs(gap) > tolerance:
            message = (
                f"{gap:.6f} simulated second(s) charged before phase "
                f"{span.name!r} are owned by no span — a silent cost leak "
                "(the queue-delay-in-metrics class)"
                if gap > 0
                else f"phase {span.name!r} starts {-gap:.6f} simulated "
                "second(s) before the previous phase ended — a charge taken "
                "back, or seconds owned by two spans"
            )
            findings.append(_diag("Q005", message, phase=span.name))
        cursor = span.end_seconds
    if abs(root.end_seconds - metrics_total) > tolerance:
        findings.append(
            _diag(
                "Q005",
                f"trace total {root.end_seconds:.6f}s != metrics total "
                f"{metrics_total:.6f}s — some charge bypassed the tracer",
                phase="query",
            )
        )
    return findings


# -- Q006: transfer-pass soundness -----------------------------------------------


def _check_transfer(records: list[DataflowRecord]) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    built: set[str] = set()
    written: set[str] = set()
    for record in records:
        if isinstance(record, TransferSummary):
            findings.extend(_check_transfer_summary(record, written))
            continue
        for probe in record.probes:
            if probe not in built:
                findings.append(
                    _diag(
                        "Q006",
                        "job probes a Bloom filter whose build pass did not "
                        f"precede it (fingerprint {probe[:12]}…)",
                        record.label,
                        record.phase,
                    )
                )
        built.update(record.builds)
        written.update(record.writes)
    return findings


def _check_transfer_summary(
    summary: TransferSummary, written: set[str]
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    reduced = set(summary.reduced)
    intermediates = dict(summary.intermediates)
    original = dict(summary.original_tables)
    rewritten = dict(summary.rewritten_tables)
    if reduced != set(intermediates):
        findings.append(
            _diag(
                "Q006",
                f"transfer pass reduced aliases {sorted(reduced)} but "
                f"recorded intermediates for {sorted(intermediates)}",
                phase=summary.phase,
            )
        )
    if set(original) != set(rewritten):
        findings.append(
            _diag(
                "Q006",
                "transfer rewrite changed the query's alias set "
                f"({sorted(original)} -> {sorted(rewritten)})",
                phase=summary.phase,
            )
        )
    for alias, name in sorted(intermediates.items()):
        if rewritten.get(alias) != name:
            findings.append(
                _diag(
                    "Q006",
                    f"replace_filtered_table left alias {alias!r} on "
                    f"{rewritten.get(alias)!r} instead of its reduced "
                    f"intermediate {name!r}",
                    phase=summary.phase,
                )
            )
        if name not in written:
            findings.append(
                _diag(
                    "Q006",
                    f"transfer intermediate {name!r} (alias {alias!r}) was "
                    "never materialized by an earlier job",
                    phase=summary.phase,
                )
            )
    for alias, dataset in sorted(original.items()):
        if alias in reduced:
            continue
        if alias in rewritten and rewritten[alias] != dataset:
            findings.append(
                _diag(
                    "Q006",
                    f"transfer rewrite rewired alias {alias!r} (now on "
                    f"{rewritten[alias]!r}) although the pass never "
                    "reduced it",
                    phase=summary.phase,
                )
            )
    return findings
