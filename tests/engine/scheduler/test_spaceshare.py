"""Space-shared executor: slices, overlap, queue delay, the serial case.

The contract has two halves. ``job_slots=1`` (the default) is the serial
schedule — one full-width job at a time, a timeline without lanes — pinned
line by line in ``test_golden_schedules.py``. ``job_slots>1`` must
genuinely overlap cluster jobs of different queries on the shared clock,
charge each job against its partition slice (stretching its own seconds),
and only charge queueing delay for time when no slice was free.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ReproError
from repro.engine.scheduler import SchedulerConfig

from tests.conftest import build_star_session, star_query
from tests.engine.scheduler.test_golden_schedules import run_batch, schedule_fingerprint


def run_schedule(job_slots: int, count: int = 3, strategy: str = "dynamic"):
    return run_batch(SchedulerConfig(job_slots=job_slots), [(strategy, 0)] * count)


class TestSerialIdentity:
    """job_slots=1 is the serial schedule: full-width jobs, no lanes."""

    def test_default_config_is_serial(self):
        assert SchedulerConfig().job_slots == 1

    def test_serial_timeline_is_not_space_shared(self):
        scheduler, _ = run_schedule(job_slots=1)
        assert not scheduler.timeline.space_shared
        assert all(e.slice_partitions is None for e in scheduler.timeline.events)
        assert all(e.slot == 0 for e in scheduler.timeline.events)
        # Serial jobs never overlap.
        assert scheduler.timeline.overlapping_pairs() == 0

    def test_solo_execute_is_serial_even_with_session_slots(self):
        solo = build_star_session().execute(star_query())
        session = build_star_session()
        session.scheduler_config = SchedulerConfig(job_slots=4)
        result = session.execute(star_query())
        assert result.seconds == solo.seconds
        assert result.rows == solo.rows


class TestSpaceSharing:
    def test_zero_job_slots_rejected(self):
        with pytest.raises(ReproError):
            SchedulerConfig(job_slots=0)

    def test_jobs_overlap_on_the_shared_clock(self):
        scheduler, handles = run_schedule(job_slots=2, count=4)
        assert all(h.done for h in handles)
        assert scheduler.timeline.space_shared
        assert scheduler.timeline.overlapping_pairs() > 0
        # At least one job ran on a proper slice of the 4-partition cluster.
        widths = {
            e.slice_partitions
            for e in scheduler.timeline.events
            if e.slice_partitions is not None
        }
        assert any(w < scheduler.executor.cluster.partitions for w in widths)

    def test_makespan_beats_serial(self):
        serial, _ = run_schedule(job_slots=1, count=4)
        shared, _ = run_schedule(job_slots=2, count=4)
        def makespan(timeline):
            return max(event.end_seconds for event in timeline.events)

        assert makespan(shared.timeline) < makespan(serial.timeline)

    def test_rows_identical_to_serial(self):
        serial, serial_handles = run_schedule(job_slots=1, count=4)
        shared, shared_handles = run_schedule(job_slots=2, count=4)
        for a, b in zip(serial_handles, shared_handles):
            assert a.result().rows == b.result().rows
            assert a.result().plan_description == b.result().plan_description

    def test_slice_costing_stretches_per_query_seconds(self):
        # On a slice each query's own partitioned work divides by fewer
        # partitions, so its charged seconds exceed the full-width run even
        # though the batch's makespan shrinks.
        serial, serial_handles = run_schedule(job_slots=1, count=4)
        shared, shared_handles = run_schedule(job_slots=2, count=4)
        for a, b in zip(serial_handles, shared_handles):
            assert (
                b.result().metrics.total_seconds
                > a.result().metrics.total_seconds
            )

    def test_determinism_run_twice(self):
        first = schedule_fingerprint(*run_schedule(job_slots=2, count=4))
        second = schedule_fingerprint(*run_schedule(job_slots=2, count=4))
        assert first == second

    def test_timeline_render_shows_lanes(self):
        scheduler, _ = run_schedule(job_slots=2, count=4)
        text = scheduler.timeline.render()
        assert "slot" in text and "width" in text

    def test_chrome_trace_gains_slot_track(self):
        import json

        scheduler, _ = run_schedule(job_slots=2, count=4)
        events = json.loads(scheduler.timeline.to_chrome_trace())["traceEvents"]
        assert any(e["pid"] == 2 for e in events)
        serial, _ = run_schedule(job_slots=1, count=4)
        events = json.loads(serial.timeline.to_chrome_trace())["traceEvents"]
        assert all(e["pid"] == 1 for e in events)


class TestQueueDelayAccounting:
    def test_enough_slots_means_zero_delay(self):
        # Two queries, two slots: every ready request launches immediately,
        # so nobody is ever charged queueing delay.
        scheduler, handles = run_schedule(job_slots=2, count=2)
        for handle in handles:
            assert handle.queue_delay_seconds == 0.0
            assert handle.result().schedule.queue_delay_seconds == 0.0

    def test_contention_charges_delay(self):
        # Three queries on two slots: someone must wait for a slice.
        scheduler, handles = run_schedule(job_slots=2, count=3)
        delays = [h.queue_delay_seconds for h in handles]
        assert all(d >= 0.0 for d in delays)
        assert any(d > 0.0 for d in delays)
        # The timeline's per-query attribution matches the handles.
        for handle in handles:
            recorded = sum(
                e.queue_delays.get(handle.query_id, 0.0) for e in scheduler.timeline.events
            )
            assert recorded == pytest.approx(handle.queue_delay_seconds)

    def test_delay_lands_on_schedule_not_metrics(self):
        solo = build_star_session().execute(star_query())
        scheduler, handles = run_schedule(job_slots=2, count=3)
        delayed = [h for h in handles if h.queue_delay_seconds > 0.0]
        assert delayed
        for handle in delayed:
            info = handle.result().schedule
            assert info.queue_delay_seconds == handle.queue_delay_seconds
            # Latency = own (slice-stretched) work + waiting; never less
            # than the work alone.
            assert info.latency_seconds >= info.busy_seconds


class TestBatchingUnderSpaceSharing:
    def test_merged_scans_coexist_with_overlap(self):
        # The star query's pushdown scans still merge across concurrently
        # admitted queries while unrelated jobs overlap in other slots.
        scheduler, handles = run_schedule(job_slots=2, count=4)
        assert all(h.done for h in handles)
        assert any(e.batched for e in scheduler.timeline.events)
        assert scheduler.scans_saved > 0
        assert scheduler.timeline.overlapping_pairs() > 0
        batched = [e for e in scheduler.timeline.events if e.batched]
        assert any(len(e.queries) > 1 for e in batched)

    def test_merged_scan_occupies_one_slot(self):
        scheduler, _ = run_schedule(job_slots=2, count=4)
        for event in scheduler.timeline.events:
            if event.batched:
                overlapping = [
                    other
                    for other in scheduler.timeline.events
                    if other is not event
                    and other.start_seconds < event.end_seconds
                    and event.start_seconds < other.end_seconds
                ]
                # Anything concurrent with a merged scan sits in a
                # different slice lane.
                assert all(o.slot != event.slot for o in overlapping)
