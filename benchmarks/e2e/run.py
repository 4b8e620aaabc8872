#!/usr/bin/env python3
"""Two-clock end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload warm_sf1000 --seed 42 --trace 0
    python3 benchmarks/e2e/run.py --workload all            # the four, in turn
    python3 benchmarks/e2e/run.py --workload all --trace 1  # per-layer ledgers
    python3 benchmarks/e2e/run.py --repeat 10               # spreads vs bounds

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("ingest_cold", "warm_sf1000", "planners_sf100", "service_zipf")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="target length of the timed region (scales op counts)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="SF 10 sizing for the harness self-tests")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N full sets and check spreads against the bounds")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: set i uses seed + i (the driver's protocol)")
    return parser.parse_args(argv)


def run_workload(args) -> dict:
    import harness
    import workloads as workload_module

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workload_module.WORKLOADS[args.workload](
        args.seed, args.seconds, args.smoke, OUT_DIR
    )
    recorder = None
    # a traced run sets up once, recording: its spans describe one set-up
    with contextlib.ExitStack() as stack:
        if args.trace:
            import ledger
            import spans

            recorder = stack.enter_context(spans.Recorder().recording())
        setup_raw_s, setup_s = harness.timed_setup(
            workload.setup, 1 if args.trace else workload.setup_repeats
        )

    records = harness.run_ops(workload.ops())
    rss_mb = harness.peak_rss_mb()
    reference = None
    if recorder is not None:
        # The pass above is the untraced reference for trace_overhead_share;
        # the pass below is the same op list with the wrap points installed.
        reference = records
        workload.fresh_for_pass()
        verifier_before = ledger.verifier_counters(workload.executors)
        observer = workload.observe = ledger.ResultObserver()
        with recorder.recording():
            records = harness.run_ops(workload.ops(), recorder)
        workload.observe = None

    keys = {q.key for r in records for q in r.outcome.queries}
    started = perf_counter()
    expected = workload.expected(keys)
    oracle_seconds = perf_counter() - started
    failed = harness.check_records(records, expected)
    correct = not failed
    if reference is not None:
        correct = correct and not harness.check_records(reference, expected)

    if recorder is None:
        metrics = harness.end_to_end_metrics(records, setup_s, rss_mb)
    else:
        verifier_after = ledger.verifier_counters(workload.executors)
        verifier = {k: verifier_after[k] - verifier_before[k] for k in verifier_after}
        values = ledger.build_ledger(
            recorder, records, observer, workload, reference, verifier, oracle_seconds
        )
        for point in recorder.unresolved:
            print(f"WARNING unresolved wrap point: {point}", file=sys.stderr)
        missing = sorted(name for name, value in values.items() if value is None)
        if missing:
            print(f"WARNING reported as 0 (no wrap point): {missing}", file=sys.stderr)
        units = {name: unit for name, unit, _ in ledger.PER_LAYER}
        metrics = {name: (value or 0, units[name]) for name, value in values.items()}
        correct = correct and values["analysis.diagnostics"] == 0
        recorder.write_jsonl(
            os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}.spans.jsonl")
        )

    latencies = [r.seconds for r in records]
    simulated = harness.sim_latencies(records)
    raw = {
        name: value for name, (value, _) in harness.host_metrics(latencies, setup_raw_s).items()
    }
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    report = dict(
        result,
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        sizing=workload.describe(),
        failed_share=len(failed) / len(records),
        failed_ops=failed[:20],
        tail_percentile=harness.tail_percentile(len(latencies)),
        sim_samples=len(simulated),
        sim_tail_percentile=harness.tail_percentile(len(simulated)),
        timed_wall_s=sum(latencies),
        raw_wall=raw,
        machine_speed=sum(latencies) / sum(r.scaled for r in records),
        oracle_check_s=oracle_seconds,
        ops=[[r.label, r.seconds, r.scaled] for r in records],
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    with open(
        os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w"
    ) as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")

    print(
        f"{workload.name}: seed {args.seed}, {len(records)} ops in "
        f"{sum(latencies):.2f} s timed, tail = p{report['tail_percentile']} "
        f"(simulated: p{report['sim_tail_percentile']} of {len(simulated)}), "
        f"oracle {oracle_seconds:.2f} s, failed_share "
        f"{report['failed_share']:.4f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:16.6g} {unit}")
    if not args.trace:
        for name, value in raw.items():
            print(f"  raw wall {name:39s} {value:16.6g}")
    return result


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"the system under test is not at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    if args.repeat or args.workload == "all":
        import repeat

        return repeat.run_sets(args, WORKLOAD_NAMES)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
