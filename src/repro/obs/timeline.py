"""Shared-cluster timeline: scheduler spans on the cluster-wide clock.

Per-query traces (:mod:`repro.obs.trace`) position spans on the query's
*own* cumulative cost clock — deliberately, so a query's trace is identical
whether it ran alone or interleaved with others. The scheduler's view is the
complement: one :class:`TimelineEvent` per cluster job on the *shared*
simulated clock, tagged with the queries it served, the branches of a shared
launch (one job carrying several requests), and how much queueing delay
each participant had accrued waiting for the slot. Under the space-shared executor events may overlap:
each carries the slot (partition-slice lane) it ran in and the width of its
slice. Exportable as a Chrome/Perfetto trace with one track per query
(queueing rendered as explicit ``wait`` events) plus, when space sharing was
active, one track per slice lane — or as an ASCII Gantt-style table.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TimelineEvent:
    """One cluster job (possibly serving several queries at once)."""

    label: str
    kind: str
    start_seconds: float
    end_seconds: float
    #: query ids whose work this event carried (len > 1 for shared launches)
    queries: tuple[int, ...]
    #: queue delay charged to each participant at this event's start
    #: (time between the query's request becoming ready and this start).
    queue_delays: dict[int, float] = field(default_factory=dict)
    #: partition-slice lane the job ran in (space-shared executor); lane 0
    #: is the only lane of a serial (``job_slots=1``) schedule.
    slot: int = 0
    #: width of the partition slice the job was costed against; ``None``
    #: for serial schedules (one slot: always the full cluster, no lanes).
    slice_partitions: int | None = None
    #: distinct tenant names the participating queries were submitted under
    #: (query-service schedules only; empty outside a service, which keeps
    #: the single-tenant render and exports byte-identical).
    tenants: tuple[str, ...] = ()
    #: (query id, phase) of every branch a shared launch carried, in launch
    #: order; empty for a job that carried one request.
    branches: tuple[tuple[int, str], ...] = ()

    @property
    def duration_seconds(self) -> float:
        return max(0.0, self.end_seconds - self.start_seconds)

    @property
    def batched(self) -> bool:
        """True for a shared launch: a merged scan or any launch carrying
        several requests."""
        return bool(self.branches)


@dataclass
class ClusterTimeline:
    """Append-only record of every job the scheduler ran."""

    events: list[TimelineEvent] = field(default_factory=list)

    def record(self, event: TimelineEvent) -> None:
        self.events.append(event)

    # -- aggregate views ------------------------------------------------------

    @property
    def makespan_seconds(self) -> float:
        """End of the last job to finish. Serial schedules never idle while
        work is pending, so this is also their total busy time; under space
        sharing events overlap and the makespan is the max end instant."""
        return max((e.end_seconds for e in self.events), default=0.0)

    @property
    def batched_job_count(self) -> int:
        return sum(1 for event in self.events if event.batched)

    @property
    def space_shared(self) -> bool:
        """True when any event ran on an explicit partition slice."""
        return any(e.slice_partitions is not None for e in self.events)

    @property
    def multi_tenant(self) -> bool:
        """True when any event carries tenant names (query-service schedules)."""
        return any(e.tenants for e in self.events)

    def tenant_names(self) -> list[str]:
        """Every tenant that appears on the timeline, sorted."""
        names: set[str] = set()
        for event in self.events:
            names.update(event.tenants)
        return sorted(names)

    def queue_delay_of(self, query_id: int) -> float:
        return sum(e.queue_delays.get(query_id, 0.0) for e in self.events)

    def events_for(self, query_id: int) -> list[TimelineEvent]:
        return [e for e in self.events if query_id in e.queries]

    def events_for_tenant(self, tenant: str) -> list[TimelineEvent]:
        return [e for e in self.events if tenant in e.tenants]

    def overlapping_pairs(self) -> int:
        """Count of event pairs whose intervals overlap (concurrency proof)."""
        count = 0
        events = self.events
        for i, left in enumerate(events):
            for right in events[i + 1 :]:
                if (
                    left.start_seconds < right.end_seconds
                    and right.start_seconds < left.end_seconds
                ):
                    count += 1
        return count

    # -- export ---------------------------------------------------------------

    def to_chrome_trace(self) -> str:
        """Chrome ``chrome://tracing`` / Perfetto JSON on the shared clock.

        One ``tid`` per query; a shared launch emits one event per
        participant, each listing every branch's phase, so each query's track
        shows what it rode with; queueing shows up as
        explicit ``wait`` events preceding the job they delayed. When the
        schedule was space-shared, a second process groups the same jobs by
        slice lane (``pid`` 2, one ``tid`` per slot) so the overlap across
        partition slices is visible directly. Query-service schedules add a
        third process with one named lane per tenant (``pid`` 3), so each
        tenant's share of the cluster reads off directly.
        """
        import json

        trace_events = []
        tenant_tids: dict[str, int] = {}
        for name in self.tenant_names():
            tenant_tids[name] = len(tenant_tids) + 1
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 3,
                    "tid": tenant_tids[name],
                    "args": {"name": f"tenant {name}"},
                }
            )
        for event in self.events:
            for query_id in event.queries:
                delay = event.queue_delays.get(query_id, 0.0)
                if delay > 0.0:
                    trace_events.append(
                        {
                            "name": "wait",
                            "cat": "queue",
                            "ph": "X",
                            "ts": (event.start_seconds - delay) * 1e6,
                            "dur": delay * 1e6,
                            "pid": 1,
                            "tid": query_id,
                            "args": {"for": event.label},
                        }
                    )
                args = {
                    "kind": event.kind,
                    "batched": event.batched,
                    "queries": list(event.queries),
                }
                if event.branches:
                    args["branches"] = [
                        {"query": qid, "phase": phase} for qid, phase in event.branches
                    ]
                if event.slice_partitions is not None:
                    args["slot"] = event.slot
                    args["slice_partitions"] = event.slice_partitions
                trace_events.append(
                    {
                        "name": event.label,
                        "cat": event.kind,
                        "ph": "X",
                        "ts": event.start_seconds * 1e6,
                        "dur": event.duration_seconds * 1e6,
                        "pid": 1,
                        "tid": query_id,
                        "args": args,
                    }
                )
            if event.slice_partitions is not None:
                trace_events.append(
                    {
                        "name": event.label,
                        "cat": event.kind,
                        "ph": "X",
                        "ts": event.start_seconds * 1e6,
                        "dur": event.duration_seconds * 1e6,
                        "pid": 2,
                        "tid": event.slot,
                        "args": {
                            "slice_partitions": event.slice_partitions,
                            "queries": list(event.queries),
                        },
                    }
                )
            for tenant in event.tenants:
                trace_events.append(
                    {
                        "name": event.label,
                        "cat": event.kind,
                        "ph": "X",
                        "ts": event.start_seconds * 1e6,
                        "dur": event.duration_seconds * 1e6,
                        "pid": 3,
                        "tid": tenant_tids[tenant],
                        "args": {
                            "tenant": tenant,
                            "queries": list(event.queries),
                        },
                    }
                )
        return json.dumps({"traceEvents": trace_events, "displayTimeUnit": "ms"})

    def render(self) -> str:
        """ASCII table of the shared timeline (one row per cluster job).

        Serial schedules render as the plain four-column table; when space
        sharing was active two extra columns show the slice lane and width,
        and multi-tenant (query-service) schedules add a tenant column so
        each tenant's lane reads off the shared clock directly.
        """
        lanes = self.space_shared
        tenants = self.multi_tenant
        tenant_width = max(
            (len("+".join(e.tenants)) for e in self.events if e.tenants),
            default=6,
        )
        tenant_width = max(tenant_width, len("tenant"))
        header = f"{'start':>10s} {'end':>10s}"
        if lanes:
            header += f" {'slot':>4s} {'width':>5s}"
        if tenants:
            header += f" {'tenant':{tenant_width}s}"
        header += f" {'queries':12s} {'kind':13s} label"
        lines = [header]
        for event in self.events:
            queries = "+".join(f"q{qid}" for qid in event.queries)
            marker = "*" if event.batched else " "
            row = f"{event.start_seconds:10.2f} {event.end_seconds:10.2f}"
            if lanes:
                width = (
                    f"{event.slice_partitions:5d}"
                    if event.slice_partitions is not None
                    else f"{'-':>5s}"
                )
                row += f" {event.slot:4d} {width}"
            if tenants:
                row += f" {'+'.join(event.tenants) or '-':{tenant_width}s}"
            row += f" {queries:12s} {event.kind:13s}{marker}{event.label}"
            lines.append(row)
        if any(event.batched for event in self.events):
            lines.append(
                "(* = merged scan or shared launch serving several queries)"
            )
        return "\n".join(lines)
