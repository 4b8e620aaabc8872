"""Why predicate push-down matters: estimated vs actual cardinalities.

The paper's motivating problem: static optimizers misestimate filtered
cardinalities under (a) correlated multi-predicate filters (independence
assumption), (b) parameterized predicates (defaults) and (c) UDFs
(defaults). This example measures all three on the paper's own workloads and
shows the estimate the static optimizer plans with next to the exact
cardinality the dynamic optimizer *measures* by executing the predicates
first — and then shows the execution-time consequence.

Run:  python examples/complex_predicates.py
"""

from __future__ import annotations

from repro import PlannerSpec, Session
from repro.optimizers.worst_order import true_filtered_rows
from repro.stats.estimation import filtered_cardinality
from repro.workloads import get_workload


def report(session: Session, query, cases: list[tuple[str, str]]) -> None:
    for alias, why in cases:
        table = query.table(alias)
        stats = session.statistics.get(table.dataset)
        predicates = query.predicates_for(alias)
        estimated = filtered_cardinality(stats, predicates)
        actual = true_filtered_rows(query, alias, session)
        described = " AND ".join(p.describe() for p in predicates)
        error = estimated / actual if actual else float("inf")
        print(f"  {alias:3s} [{why}]")
        print(f"      filter   : {described}")
        print(
            f"      estimated: {estimated:10.1f} rows   actual: {actual:10.1f} rows"
            f"   (estimate is {error:.2f}x of truth)"
        )


def main() -> None:
    print("== TPC-H Q8: correlated fixed-value predicates on orders ==")
    session = Session()
    tpch = get_workload("tpch", 100)
    tpch.load_into(session)
    q8 = tpch.query("Q8")
    report(session, q8, [("o", "correlated date window + status")])

    print()
    print("== TPC-H Q9: UDF predicates ==")
    q9 = tpch.query("Q9")
    report(
        session,
        q9,
        [("p", "mysub(p_brand) = '#3'"), ("o", "myyear(o_orderdate) = 1998")],
    )

    print()
    print("== TPC-DS Q50: parameterized predicates ==")
    ds_session = Session()
    tpcds = get_workload("tpcds", 100)
    tpcds.load_into(ds_session)
    q50 = tpcds.query("Q50")
    report(ds_session, q50, [("d1", "runtime-bound month/year parameters")])

    print()
    print("== execution-time consequence (TPC-H Q9 @ SF 100) ==")
    for optimizer in ("dynamic", "cost_based"):
        result = session.execute(q9, PlannerSpec.of(optimizer))
        print(f"  {optimizer:11s} {result.seconds:8.1f} simulated seconds"
              f"   plan: {result.plan_description}")


if __name__ == "__main__":
    main()
