"""Self-tests of the benchmark harness on the ``--smoke`` sizing (SF 10).

Run from the repository root (not part of tier-1, which collects ``tests/``)::

    python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SOURCE)

import harness  # noqa: E402
import ledger  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
REPO = os.path.normpath(os.path.join(run.HERE, "..", ".."))


def smoke(workload: str, trace: int) -> dict:
    args = run.parse_args(["--workload", workload, "--smoke", "--trace", str(trace)])
    return run.run_workload(args)


@pytest.fixture(scope="module")
def smoke_runs():
    """Two untraced and two traced smoke runs of every workload."""
    return {
        (name, trace): [smoke(name, trace), smoke(name, trace)]
        for name in run.WORKLOAD_NAMES
        for trace in (0, 1)
    }


def values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def declared() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_reported_by_name_and_unit(smoke_runs, name):
    spec = declared()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke_runs[name, trace][0]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        for metric, entry in result["metrics"].items():
            assert NAME.fullmatch(metric)
            assert isinstance(entry["value"], (int, float))
    for metric, value in values(smoke_runs[name, 0][0]).items():
        assert value > 0, metric


def test_declared_metrics_match_the_code():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        ledger.PER_LAYER
    )
    assert spec["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_simulated_clock_and_counts_repeat_exactly(smoke_runs, name):
    first, second = (values(r) for r in smoke_runs[name, 0])
    assert first["sim_seconds"] == second["sim_seconds"]
    assert first["sim_tail_s"] == second["sim_tail_s"]
    first, second = (values(r) for r in smoke_runs[name, 1])
    units = {n: unit for n, unit, _ in ledger.PER_LAYER}
    exact = [n for n in first if units[n] == "count" or n.startswith("cluster.sim.")]
    exact += [
        "optimizers.sim_speedup_dynamic_vs_cost_based",
        "engine.scheduler.sim_queue_delay_s",
        "service.cache.result_hit_rate",
        "core.transfer.rows_kept_share",
    ]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["analysis.diagnostics"] == 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_span_self_times_fit_inside_the_op(smoke_runs, name):
    path = os.path.join(run.OUT_DIR, f"{name}-seed42.spans.jsonl")
    with open(path) as handle:
        recorded = [json.loads(line) for line in handle]
    own = {s["id"]: s["end"] - s["start"] for s in recorded}
    for span in recorded:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    inside: dict[int, float] = {}
    walls = {}
    for span in recorded:
        if span["name"] == "op":
            walls[span["op"]] = span["end"] - span["start"]
        elif span["op"] >= 0:
            inside[span["op"]] = inside.get(span["op"], 0.0) + own[span["id"]]
    assert walls and all(own[s["id"]] >= -1e-9 for s in recorded)
    for op, seconds in inside.items():
        assert seconds <= walls[op] + 1e-9


def test_tail_percentile_rule():
    assert [harness.tail_percentile(n) for n in (84, 140, 420)] == [75, 90, 95]
    assert [harness.tail_percentile(n) for n in (40, 100, 200, 1000)] == [75, 90, 95, 99]
    assert harness.percentile(list(range(1, 101)), 95) == 95
    assert harness.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_simulated_tail_uses_the_simulated_sample_count():
    # 4 ops (p75 by the fallback) answering 25 queries each: 100 simulated
    # latencies, so sim_tail_s is their p90
    records = [
        harness.OpRecord(
            f"op{op}",
            0.01,
            harness.Outcome(
                sim_seconds=1.0,
                queries=[
                    harness.QueryOutcome("k", "1:a", float(op * 25 + query + 1))
                    for query in range(25)
                ],
            ),
            scaled=0.01,
        )
        for op in range(4)
    ]
    metrics = harness.end_to_end_metrics(records, 0.1, 1.0)
    assert metrics["sim_tail_s"] == (90.0, "s")
    assert metrics["sim_seconds"] == (4.0, "s")


def test_speed_meter_scales_each_gap_by_its_neighbouring_calibrations():
    meter = harness.SpeedMeter()
    for _ in range(4):
        meter.mark()
    gaps, factors = meter.gaps(), meter.factors()
    assert len(gaps) == len(factors) == 3
    assert all(gap >= 0 for gap in gaps) and all(factor > 0 for factor in factors)


def test_every_wrap_point_resolves_and_uninstalls():
    from repro.engine import vector

    original = vector.route_partitions
    recorder = spans.Recorder()
    recorder.install()
    assert recorder.unresolved == []
    assert recorder.resolved == {point.span for point in spans.WRAP_POINTS}
    assert vector.route_partitions is not original
    recorder.uninstall()
    assert vector.route_partitions is original


def test_unresolved_wrap_point_is_reported_not_raised():
    recorder = spans.Recorder()
    recorder.install(
        [
            spans.WrapPoint("repro.engine.vector.no_such_kernel", "engine.gone"),
            spans.WrapPoint("repro.no_such_module.f", "gone.too"),
        ]
    )
    recorder.uninstall()
    assert len(recorder.unresolved) == 2 and recorder.resolved == set()


def test_failed_and_mismatched_ops_are_counted():
    def boom():
        raise RuntimeError("injected")

    def answer(digest):
        return lambda _: harness.Outcome(queries=[harness.QueryOutcome("k", digest)])

    ops = [
        harness.Op("raises", boom, answer("1:a")),
        harness.Op("wrong", lambda: None, answer("1:b")),
        harness.Op("rejected", lambda: None, answer(None)),
        harness.Op("right", lambda: None, answer("1:a")),
    ]
    records = harness.run_ops(ops)
    assert harness.check_records(records, {"k": "1:a"}) == ["raises", "wrong", "rejected"]


def test_digest_ignores_row_order_but_not_content():
    rows = [{"a": 1, "b": None}, {"a": 2, "b": "x"}]
    assert harness.digest_rows(rows) == harness.digest_rows(rows[::-1])
    assert harness.digest_rows(rows) != harness.digest_rows(rows[:1])
    assert harness.digest_rows(rows) != harness.digest_rows([{"a": 1, "b": None}, {"a": 2, "b": "y"}])


def test_q9_oracle_spelling_agrees_with_the_suite_query():
    import repro

    session = repro.Session()
    spec = repro.workloads.get_workload("tpch", 10, 7)
    spec.load_into(session)
    suite = repro.testing.evaluate_reference(spec.query("Q9"), session)
    spelled = repro.testing.evaluate_reference(
        workloads.oracle_query("Q9", spec.query("Q9")), session
    )
    assert suite and harness.digest_rows(suite) == harness.digest_rows(spelled)


def test_refuses_to_run_without_the_system_under_test(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ingest_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )  # fmt: skip
    assert done.returncode != 0 and done.stdout == ""
