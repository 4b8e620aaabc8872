"""``--workload all`` and ``--repeat N``: full sets, one subprocess per run.

Each run is its own interpreter so ``peak_rss_mb`` and cold caches mean the
same thing in every run; runs are sequential (the load generator is one
process, one thread). With ``--repeat N`` the N values of every end-to-end
metric x workload are summarized as median, quartiles and spread (distance
between the quartiles as a share of the median) and checked against the
bound in ``BENCHMARK.json``: a spread above its bound, or a second half of
the sets whose median is worse than the first half's by more than the bound,
fails the command. ``setup_s`` is exempt from the spread check, as in the
acceptance protocol, but not from the drift check.

The declared bounds are sized for the acceptance protocol, which gives every
set another seed (``--vary-seed``): there the simulated clock moves with the
data. Without ``--vary-seed`` every set sees the same inputs, so the
simulated metrics (and, with ``--trace 1``, every count) must be identical
across the sets; any difference fails the command.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.normpath(os.path.join(HERE, "..", "..", "BENCHMARK.json"))


def run_once(workload: str, seed: int, args) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def run_sets(args, workloads) -> int:
    names = workloads if args.workload == "all" else (args.workload,)
    sets = max(1, args.repeat)
    results = {name: [] for name in names}
    all_correct = True
    for index in range(sets):
        seed = args.seed + index if args.vary_seed else args.seed
        for name in names:
            result = run_once(name, seed, args)
            all_correct = all_correct and result["correct"] and result["failed"] == 0
            results[name].append(result)
    if not all_correct:
        print("FAILED: at least one run was incorrect")
    if sets < 2:
        return 0 if all_correct else 1

    with open(BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    ok = all_correct
    if not args.vary_seed:
        if args.trace:
            exact = [m["name"] for m in benchmark["per_layer"] if m["unit"] == "count"]
        else:
            exact = ["sim_seconds", "sim_tail_s"]
        for name in names:
            for metric in exact:
                seen = {r["metrics"][metric]["value"] for r in results[name]}
                if len(seen) > 1:
                    ok = False
                    print(f"NOT EXACT: {name} {metric} read {sorted(seen)} for one seed")
    if args.trace:
        return 0 if ok else 1

    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    print(f"\n{sets} sets; spread = (q3 - q1) / median; drift = 2nd half vs 1st half")
    print(f"{'workload':16s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>8s} {'drift':>8s} {'bound':>6s}")  # fmt: skip
    for name in names:
        for metric, spec in declared.items():
            values = [r["metrics"][metric]["value"] for r in results[name]]
            median, q1, q3, share = spread(values)
            half = len(values) // 2
            drift = worse_by(
                statistics.median(values[:half]),
                statistics.median(values[half:]),
                spec["better"],
            )
            bound = spec["bound"]
            bad = drift > bound or (metric != "setup_s" and share > bound)
            ok = ok and not bad
            print(f"{name:16s} {metric:12s} {median:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {share:8.2%} {drift:+8.2%} {bound:6.0%}"
                  f"{'  EXCEEDED' if bad else ''}")  # fmt: skip
    return 0 if ok else 1
