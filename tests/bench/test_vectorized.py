"""Host-speed regression guard for the data plane.

Simulated results are pinned by the golden fingerprints (DESIGN.md §10), so
wall-clock is the one axis a kernel regression can hide on. This test pins a
generous ceiling on the throughput smoke bench, end to end (generation and
ingestion included: that is what a user waits for, and where most of the
host time goes), and writes the measured line under pytest's temporary
directory so the run leaves the checkout untouched. The trajectory of host
timings lives in ``benchmarks/e2e``.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.bench.throughput import run_throughput

#: Generous wall-clock ceiling: the smoke batch finishes in well under a
#: second on any development machine; the ceiling only trips on an
#: order-of-magnitude hot-path regression (e.g. the fused kernel silently
#: falling back to per-row dict work), not on CI jitter.
CEILING_SECONDS = 120.0


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One smoke batch: (report, end-to-end seconds, the record file)."""
    started = perf_counter()
    report = run_throughput(scale_factor=10, query_count=2)
    elapsed = perf_counter() - started
    record = tmp_path_factory.mktemp("bench") / "bench_report.txt"
    record.write_text(
        "throughput smoke (SF 10, 2 queries): "
        f"{elapsed:.3f}s end to end, of which {report.host_seconds:.3f}s in the engine\n",
        encoding="utf-8",
    )
    return report, elapsed, record


class TestVectorizedHostSpeed:
    def test_smoke_bench_completes_under_ceiling(self, smoke_run):
        report, elapsed, _ = smoke_run
        # host_seconds is the engine's share; the outer clock is the figure.
        assert 0.0 < report.host_seconds <= elapsed
        assert elapsed < CEILING_SECONDS

    def test_host_time_recorded(self, smoke_run):
        lines = smoke_run[2].read_text(encoding="utf-8").splitlines()
        assert any("throughput smoke" in line and "end to end" in line for line in lines)
