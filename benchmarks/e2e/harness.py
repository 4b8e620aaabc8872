"""Closed-loop driver: run a workload's fixed op list, time it, check it.

One process, one thread, one client: the next op starts when the previous
one returned. Host timings use ``time.perf_counter`` around ``Op.call`` only;
everything else (digests, fresh sessions, ``gc.collect()`` between passes)
happens between ops, outside the timed region.

Host times are reported *speed-normalized*. The reference box is a 2-vCPU VM
without hardware counters whose effective CPU speed moves both in episodes
of 5-20 s and from one 100 ms to the next (a fixed pure-Python loop read
52-75 ms on one day and 67-117 ms on another; steal time is ~0, so
``process_time`` moves with it). That puts run-to-run spreads of raw wall
metrics at 11-20%. A calibration kernel (``calibrate``: column pivots,
blake2b routing, hash build/probe and sorted inserts over rows scattered
through a persistent heap -- the instruction mix of the system, none of its
code) runs between ops, and each op's wall time is scaled by
``REFERENCE_CALIBRATION / local calibration time``, i.e. expressed in
seconds *at the reference speed*. Over twelve differently seeded runs of the
four workloads the spread of ``ops_per_s`` went from 13-16% raw to 4-7%
scaled. Raw wall values are kept beside the scaled ones in the run's report
under ``out/``.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

#: what ``calibrate`` typically reads on the reference box
REFERENCE_CALIBRATION = 0.0040

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99, 95, 90, 75)
#: samples that must lie beyond the reported tail percentile
MIN_BEYOND = 10


def tail_percentile(samples: int) -> int:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it.

    Falls back to p75 when even that is unsupported: smoke sizings, and the
    16 simulated query latencies of ``ingest_cold`` (every full sizing has at
    least 40 ops).
    """
    for candidate in TAIL_PERCENTILES:
        if samples * (100 - candidate) >= MIN_BEYOND * 100:
            return candidate
    return TAIL_PERCENTILES[-1]


def percentile(values: list[float], percent: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100 * len(ordered)))
    return ordered[rank - 1]


def digest_rows(rows: list[dict]) -> str:
    """Order-insensitive canonical digest of a result set."""
    lines = sorted(repr(sorted(row.items())) for row in rows)
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return f"{len(rows)}:{digest.hexdigest()[:24]}"


@dataclass
class QueryOutcome:
    """One query answered inside an op."""

    key: str  #: oracle key: which expected digest this answer must equal
    digest: str | None  #: None when the query raised or was rejected
    sim_latency: float = 0.0  #: simulated submission-to-completion seconds
    error: str | None = None


@dataclass
class Outcome:
    """What an op produced, summarized outside the timed region."""

    sim_seconds: float = 0.0
    queries: list[QueryOutcome] = field(default_factory=list)
    #: non-query self-check (row counts after a load, bytes after a save)
    ok: bool = True
    error: str | None = None


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``finish`` is not."""

    label: str
    call: Callable[[], object]
    finish: Callable[[object], Outcome]


@dataclass
class OpRecord:
    label: str
    seconds: float  #: raw wall seconds of ``Op.call``
    outcome: Outcome
    scaled: float = 0.0  #: ``seconds`` at the reference machine speed


#: the calibration kernel's heap: rows in shuffled memory order, so a strided
#: slice misses cache the way a scan over a large dataset does
_HEAP = [{"a": i, "b": f"k{i}", "c": i * 0.5, "d": None} for i in range(60_000)]
random.Random(1).shuffle(_HEAP)
_STRIDE = 30
_offset = 0


def _calibration_body() -> float:
    global _offset
    started = perf_counter()
    _offset = (_offset + 1) % _STRIDE
    rows = _HEAP[_offset::_STRIDE]
    keys = [row["a"] for row in rows]
    names = [row["b"] for row in rows]
    blake = hashlib.blake2b
    [
        int.from_bytes(blake(repr(name).encode(), digest_size=8).digest(), "big") & 7
        for name in names[:1000]
    ]
    table: dict[int, list[int]] = {}
    for position, key in enumerate(keys):
        table.setdefault(key % 500, []).append(position)
    hits = [position for key in keys for position in table.get(key % 997, ())]
    ordered: list[int] = []
    for key in keys[:400]:
        bisect.insort(ordered, key)
    [names[position] for position in hits[:2000]]
    return perf_counter() - started


def calibrate() -> float:
    """Seconds the calibration kernel takes right now (twice the faster of
    two bodies, so one GC pause or interrupt does not count)."""
    return 2.0 * min(_calibration_body(), _calibration_body())


class SpeedMeter:
    """Machine speed between ``mark()`` calls, read off the calibration kernel."""

    def __init__(self) -> None:
        #: (entered, calibration seconds, left) per mark
        self._marks: list[tuple[float, float, float]] = []

    def mark(self) -> None:
        entered = perf_counter()
        self._marks.append((entered, calibrate(), perf_counter()))

    def gaps(self) -> list[float]:
        """Raw wall seconds between consecutive marks, calibration excluded."""
        return [after[0] - before[2] for before, after in zip(self._marks, self._marks[1:])]

    def factors(self) -> list[float]:
        """Per gap, what turns its wall seconds into seconds at the reference
        speed: the calibrations either side of it, then the median over the
        five gaps around it (one kernel sample jitters more than the machine
        speed moves between neighbouring gaps)."""
        local = [
            REFERENCE_CALIBRATION / ((before[1] + after[1]) / 2.0)
            for before, after in zip(self._marks, self._marks[1:])
        ]
        return [
            statistics.median(local[max(0, index - 2) : index + 3])
            for index in range(len(local))
        ]


def run_ops(ops, recorder=None) -> list[OpRecord]:
    """Drive the op list in a closed loop; never lets one op abort the run."""
    records: list[OpRecord] = []
    meter = SpeedMeter()
    for op_id, op in enumerate(ops):
        meter.mark()
        span = None
        if recorder is not None:
            recorder.op_id = op_id
            span = recorder.begin("op")
        started = perf_counter()
        try:
            raw = op.call()
            error = None
        except Exception as caught:  # boundary: a failed op is a counted result
            raw = None
            error = f"{type(caught).__name__}: {caught}"
        seconds = perf_counter() - started
        if span is not None:
            recorder.end(span)
            recorder.op_id = -1
        if error is None:
            outcome = op.finish(raw)
        else:
            outcome = Outcome(ok=False, error=error)
        records.append(OpRecord(op.label, seconds, outcome))
    meter.mark()
    for record, factor in zip(records, meter.factors()):
        record.scaled = record.seconds * factor
    return records


def timed_setup(setup: Callable[[Callable[[], None]], None], repeats: int):
    """Median (raw, scaled) seconds of ``repeats`` set-ups; the last is kept.

    ``setup(mark)`` calls ``mark()`` between its steps so a long set-up is
    scaled piecewise.
    """
    raws, scaleds = [], []
    for _ in range(repeats):
        gc.collect()
        meter = SpeedMeter()
        meter.mark()
        setup(meter.mark)
        meter.mark()
        gaps = meter.gaps()
        raws.append(sum(gaps))
        scaleds.append(sum(gap * factor for gap, factor in zip(gaps, meter.factors())))
    return statistics.median(raws), statistics.median(scaleds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_records(records: list[OpRecord], expected: dict[str, str]) -> list[str]:
    """Labels of ops that raised, were rejected, or disagree with the oracle."""
    failed = []
    for record in records:
        outcome = record.outcome
        bad = not outcome.ok or any(
            query.digest is None or expected.get(query.key) != query.digest
            for query in outcome.queries
        )
        if bad:
            failed.append(record.label)
    return failed


def host_metrics(latencies: list[float], setup_s: float) -> dict:
    """The four host-clock metrics of one op list, from its op latencies."""
    tail = tail_percentile(len(latencies))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "op_tail_ms": (percentile(latencies, tail) * 1e3, "ms"),
    }


def sim_latencies(records: list[OpRecord]) -> list[float]:
    """Simulated submission-to-completion seconds of every answered query."""
    return [
        query.sim_latency
        for record in records
        for query in record.outcome.queries
        if query.digest is not None
    ]


def end_to_end_metrics(records: list[OpRecord], setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run, by name (host times at
    the reference machine speed)."""
    simulated = sim_latencies(records)
    # its own percentile: an op may answer several queries, or none
    tail = tail_percentile(len(simulated))
    return {
        **host_metrics([record.scaled for record in records], setup_s),
        "sim_seconds": (sum(r.outcome.sim_seconds for r in records), "s"),
        "sim_tail_s": (percentile(simulated, tail) if simulated else 0.0, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
