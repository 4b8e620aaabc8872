"""Watch Algorithm 1 work: a phase-by-phase trace of a dynamic run.

Executes TPC-DS Q17 with the dynamic optimizer and prints the Figure-4 job
sequence — predicate push-down subjobs, each re-optimization point's chosen
join, the materialized intermediates, and the final plan — plus the
Figure-6 style overhead decomposition of the run, the execution trace's
EXPLAIN ANALYZE report (estimated vs actual rows with Q-error per
re-optimization point), and a Chrome-trace export for chrome://tracing.

Run:  python examples/reoptimization_trace.py
"""

from __future__ import annotations

from repro import Session
from repro.core import DynamicOptimizer
from repro.optimizers import execute_tree
from repro.workloads import get_workload


def main() -> None:
    session = Session()
    tpcds = get_workload("tpcds", 100)
    tpcds.load_into(session)
    query = tpcds.query("Q17")

    print("Original query:")
    print(query.describe())
    print()

    optimizer = DynamicOptimizer()
    result = optimizer.execute(query, session)

    print("Phases (Figure 4 job sequence):")
    for i, phase in enumerate(result.phases, 1):
        print(f"  {i}. {phase}")
    print()

    # The run's Sink operators; the scheduler dropped what they wrote from
    # the catalog when the query finished.
    print("Materialized intermediates at re-optimization points:")
    namespace = f"__q{result.schedule.query_id}"
    for span in result.trace.root.walk():
        if span.kind == "operator" and span.name.startswith("Sink ("):
            name = span.name.removeprefix("Sink (").removesuffix(")")
            print(
                f"  {name.removeprefix(namespace):18s}"
                f" {span.counters['rows_materialized']:8d} stored rows"
                f"  ({span.modeled_rows_out:14,.0f} modeled)"
            )
    print()

    print(f"Final plan: {result.plan_description}")
    print(f"Total simulated time: {result.seconds:.1f}s")
    print("Breakdown:")
    for component, seconds in result.metrics.breakdown().items():
        if seconds:
            print(f"  {component:12s} {seconds:9.2f}s")
    print()

    print("EXPLAIN ANALYZE (per-phase operator spans, est vs actual rows):")
    print(result.explain_analyze())
    print()

    trace_path = "q17_dynamic.trace.json"
    with open(trace_path, "w") as handle:
        handle.write(result.trace.to_chrome_trace())
    print(f"Chrome trace written to {trace_path} (open in chrome://tracing)")
    print()

    # Replay the captured plan as one job: the dynamic overhead is the delta.
    replay = execute_tree(optimizer.last_tree, query, session)
    overhead = result.seconds - replay.seconds
    print(
        f"Same plan replayed as one pipelined job: {replay.seconds:.1f}s "
        f"-> dynamic overhead {overhead:.1f}s "
        f"({overhead / result.seconds * 100:.1f}% of the dynamic run)"
    )


if __name__ == "__main__":
    main()
