"""Launch planning: which ready requests share a cluster launch, and how wide.

The paper runs every re-optimization stage as its own Hyracks job, so which
ready stage requests ride one launch, on what slice of the cluster, is this
system's scheduling policy. It is one pure function, :func:`plan_launches`,
over frozen :class:`ReadyRequest` values; the job scheduler only executes
the :class:`Launch` list it returns.

- **Service order.** Highest priority, then the query ready longest, then
  admission order; a query's requests in index order. The first ready
  request leads a launch.
- **The party.** The leader and its consecutive same-``batch_key``
  requests, plus each other query's *next* ready request when it scans the
  launch's dataset (with its own same-dataset run) or is *light*: it reads
  less than one job start-up at full width. At most one heavy scan group
  per launch: behind a light leader, the first heavy request in service
  order brings its group and its dataset. A launch with a heavy group also
  takes every other ready light request, so none launches beside it and
  halves its slice. Virtual-cost work never shares.
- **Slice width.** The partitions split evenly across the jobs active once
  the wave is up; in-flight jobs keep their slice.

:func:`plan_alone`, a blocking run's rule, launches every request by itself.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.operators.scan import ReaderOp, ScanOp

if TYPE_CHECKING:
    from repro.cluster.cost import CostModel
    from repro.engine.job import Job
    from repro.storage.catalog import DatasetCatalog


@dataclass(frozen=True, slots=True)
class ReadyRequest:
    """One parked request that is neither answered nor in flight."""

    query_id: int
    #: position in the query's pending request list
    index: int
    priority: int
    #: shared-clock instant since which the query's work has been ready
    ready_since: float
    batch_key: str | None
    #: coordinator-side work (``QueryRun.charge``)
    virtual: bool
    #: :func:`read_seconds` of the request's job, taken when it became ready
    read_seconds: float


@dataclass(frozen=True, slots=True)
class Launch:
    """One cluster job: its branches, leader first, and its slice width."""

    branches: tuple[tuple[int, int], ...]  # (query id, request index)
    partitions: int


#: ``(ready, in_flight, slots, partitions, startup) -> launches``
LaunchRule = Callable[[Sequence[ReadyRequest], int, int, int, float], list[Launch]]


def read_seconds(job: Job | None, datasets: DatasetCatalog, cost: CostModel) -> float:
    """The full-cluster scan charge over the job's base and materialized
    inputs: catalog facts only, not which slots are busy. Infinite (never
    light) for virtual work and for a missing input, whose launch fails."""
    if job is None:
        return math.inf
    read = 0.0
    stack = [job.root]
    while stack:
        operator = stack.pop()
        if isinstance(operator, (ScanOp, ReaderOp)):
            if not datasets.has(operator.dataset):
                return math.inf
            dataset = datasets.get(operator.dataset)
            read += cost.scan(dataset.modeled_rows, dataset.schema.row_width)
        stack.extend(operator.children)
    return read


def service_order(ready: Sequence[ReadyRequest]) -> list[ReadyRequest]:
    """Priority first, then longest-waiting, then admission and index order."""
    return sorted(ready, key=lambda r: (-r.priority, r.ready_since, r.query_id, r.index))


def plan_launches(
    ready: Sequence[ReadyRequest],
    in_flight: int,
    slots: int,
    partitions: int,
    startup: float,
) -> list[Launch]:
    """The launches that fill the free slots, in launch order."""
    queue = service_order(ready)
    parties: list[list[ReadyRequest]] = []
    while queue and in_flight + len(parties) < slots:
        party = _party(queue, startup)
        parties.append(party)
        queue = [r for r in queue if r not in party]
    return _launches(parties, in_flight, partitions)


def plan_alone(
    ready: Sequence[ReadyRequest],
    in_flight: int,
    slots: int,
    partitions: int,
    startup: float,
) -> list[Launch]:
    """Every request is its own launch, in service order."""
    queue = service_order(ready)[: max(0, slots - in_flight)]
    return _launches([[r] for r in queue], in_flight, partitions)


def _party(queue: list[ReadyRequest], startup: float) -> list[ReadyRequest]:
    """The party led by ``queue[0]`` (``queue`` is in service order)."""
    lead = queue[0]
    if lead.virtual:
        return [lead]
    by_query: dict[int, list[ReadyRequest]] = {}
    for request in queue:
        by_query.setdefault(request.query_id, []).append(request)
    key = lead.batch_key
    heavy = lead.read_seconds >= startup
    party = _same_scan_run(by_query.pop(lead.query_id), key)
    for requests in by_query.values():
        mate = requests[0]
        if mate.virtual:
            continue
        if key is not None and mate.batch_key == key:
            party += _same_scan_run(requests, key)
        elif mate.read_seconds < startup:
            party.append(mate)
        elif not heavy:
            heavy, key = True, mate.batch_key
            party += _same_scan_run(requests, key)
    if heavy:
        party += [r for r in queue if r not in party and r.read_seconds < startup]
    return party


def _same_scan_run(requests: list[ReadyRequest], key: str | None) -> list[ReadyRequest]:
    """``requests[0]`` and the consecutive ``key``-scan requests after it
    (none when ``key`` is ``None``)."""
    run = requests[:1]
    for request in requests[1:]:
        if key is None or (request.batch_key, request.index) != (key, run[-1].index + 1):
            break
        run.append(request)
    return run


def _launches(
    parties: list[list[ReadyRequest]], in_flight: int, partitions: int
) -> list[Launch]:
    if not parties:
        return []
    width = max(1, partitions // (in_flight + len(parties)))
    return [Launch(tuple((r.query_id, r.index) for r in p), width) for p in parties]
