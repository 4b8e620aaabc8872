"""Query-level dataflow verifier: invariants of the whole job *sequence*.

The P001–P007 verifier (:mod:`repro.analysis.verifier`) proves one compiled
job at a time. But the runtime dynamic driver recompiles the plan at every
materialization point, the predicate-transfer prelude rewires the query's
FROM entries onto Bloom-reduced intermediates, and the scheduler interleaves
the jobs of concurrent queries — so a whole class of bugs only exists *across*
jobs: an intermediate written that nothing ever reads, a Reader launched
before its Sink, a cache token that collides across namespaces, simulated
seconds that no phase span owns. This module checks exactly that layer.

While a query runs, :func:`~repro.engine.scheduler.request.run_request`
sets one :class:`JobDataflow` record on the phase span of every executed (or
cache-replayed) job — what the job reads, writes, scans, and which Bloom
filters it probes — and of every transfer filter-build pass, which names the
filters it built. When the scheduler finishes the query,
:func:`verify_query_dataflow` replays the records in phase order
(``QueryTrace.dataflows``):

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
``Q006``  transfer-pass-unsound       every Bloom probe follows its filter's build;
                                      and ``replace_filtered_table`` rewired exactly
                                      the aliases the pass reduced — checked by
                                      :func:`check_transfer_rewrite` inside the
                                      transfer prelude, right after the rewrite, so
                                      a finding fails the query before any join job
                                      launches
========  ==========================  ===============================================

Like the per-job gate, all of this costs zero simulated seconds — only host
wall time, metered on :class:`~repro.analysis.runtime.VerifierStats`.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic
from repro.engine.job import Job
from repro.engine.operators.filters import SemiJoinFilterOp
from repro.engine.operators.joins import IndexNestedLoopJoinOp
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.sink import SinkOp

#: Positive inter-span gaps below this fraction of the total (or this many
#: absolute seconds, whichever is larger) are float noise, not leaks.
_CLOCK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class JobDataflow:
    """What one executed (or cache-replayed) job reads, writes and probes.

    Set on the job's phase span by ``run_request`` (the fields a compiled
    operator tree holds come from :func:`job_io`); content is fully
    deterministic (names and content-addressed Bloom fingerprints, never
    wall time).
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


#: (reads, writes, scans, probes) of one compiled job
JobIO = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], tuple[str, ...]]


def job_io(job: Job) -> JobIO:
    """What one job's compiled operator tree reads, writes, scans and probes."""
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
    return tuple(reads), tuple(writes), tuple(sorted(set(scans))), tuple(probes)


def verify_query_dataflow(
    records: list[JobDataflow],
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
    between concurrent queries; a pass that finds a Q004 leaves it as it
    was. ``trace``/``metrics_total`` feed the Q005
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


def _diag(code: str, message: str, label: str = "", phase: str = "") -> Diagnostic:
    return Diagnostic(code=code, message=message, job_label=label, phase=phase)


# -- Q001 / Q002 / Q003: the write/read/release ledger --------------------------


def _check_ordering(
    records: list[JobDataflow], namespace: str
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    prefix = f"{namespace}__"
    written: set[str] = set()
    for record in records:
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


def _check_dead_sinks(records: list[JobDataflow]) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for index, record in enumerate(records):
        for write in record.writes:
            read_later = any(
                write in later.reads for later in records[index + 1 :]
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
    records: list[JobDataflow],
    token_registry: dict[str, tuple[str, ...]] | None,
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    seen: dict[str, tuple[str, ...]] = {}
    for record in records:
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
    # A pass that raised Q004 publishes nothing: its colliding signature
    # would otherwise fail every later correct query holding the token.
    if token_registry is not None and not findings:
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


def _check_transfer(records: list[JobDataflow]) -> list[Diagnostic]:
    """Every Bloom probe follows the build pass of its filter."""
    findings: list[Diagnostic] = []
    built: set[str] = set()
    for record in records:
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
    return findings


def check_transfer_rewrite(
    reduced: Iterable[str],
    intermediates: Mapping[str, str],
    original: Mapping[str, str],
    rewritten: Mapping[str, str],
    written: Collection[str],
) -> list[Diagnostic]:
    """The rewiring half of ``Q006``, run where the rewrite is made.

    The transfer prelude calls this right after its ``replace_filtered_table``
    loop. ``reduced`` are the aliases the pass reduced and ``intermediates``
    maps each to its final intermediate; ``original`` and ``rewritten`` map
    every FROM alias to its dataset before and after the rewrite;
    ``written`` holds the datasets materialized so far.
    """
    findings: list[Diagnostic] = []
    aliases = set(reduced)
    if aliases != set(intermediates):
        findings.append(
            _diag(
                "Q006",
                f"transfer pass reduced aliases {sorted(aliases)} but "
                f"recorded intermediates for {sorted(intermediates)}",
                phase="transfer",
            )
        )
    if set(original) != set(rewritten):
        findings.append(
            _diag(
                "Q006",
                "transfer rewrite changed the query's alias set "
                f"({sorted(original)} -> {sorted(rewritten)})",
                phase="transfer",
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
                    phase="transfer",
                )
            )
        if name not in written:
            findings.append(
                _diag(
                    "Q006",
                    f"transfer intermediate {name!r} (alias {alias!r}) was "
                    "never materialized by an earlier job",
                    phase="transfer",
                )
            )
    for alias, dataset in sorted(original.items()):
        if alias in aliases:
            continue
        if alias in rewritten and rewritten[alias] != dataset:
            findings.append(
                _diag(
                    "Q006",
                    f"transfer rewrite rewired alias {alias!r} (now on "
                    f"{rewritten[alias]!r}) although the pass never "
                    "reduced it",
                    phase="transfer",
                )
            )
    return findings
