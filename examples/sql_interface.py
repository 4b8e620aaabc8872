"""Using the SQL front end: text queries, hints-free best practice, EXPLAIN.

Shows the mini SQL parser on the paper's own TPC-H Q9 (UDF predicates and
the composite lineitem ⋈ partsupp join), parameter binding, and each
strategy's plan — read off the result (``result.plan_description``), since
the dynamic optimizer's plan is only known after it runs.

Run:  python examples/sql_interface.py
"""

from __future__ import annotations

from repro import PlannerSpec, Session
from repro.lang import parse_query
from repro.workloads import get_workload

Q9_SQL = """
SELECT n.n_name, l.l_extendedprice, ps.ps_supplycost
FROM part p, supplier s, lineitem l, partsupp ps, orders o, nation n
WHERE s.s_suppkey = l.l_suppkey
  AND ps.ps_suppkey = l.l_suppkey
  AND ps.ps_partkey = l.l_partkey
  AND p.p_partkey = l.l_partkey
  AND o.o_orderkey = l.l_orderkey
  AND s.s_nationkey = n.n_nationkey
  AND myyear(o.o_orderdate) = 1998
  AND mysub(p.p_brand) = '#3'
"""

PARAMETRIC_SQL = """
SELECT o.o_orderkey, o.o_totalprice
FROM orders o, customer c
WHERE o.o_custkey = c.c_custkey
  AND o.o_totalprice > $floor
  AND o.o_orderstatus = 'F'
"""


def main() -> None:
    session = Session()
    get_workload("tpch", 100).load_into(session)

    query = parse_query(Q9_SQL)
    print("Parsed Q9 from SQL text:")
    print(query.describe())
    print()

    print("EXPLAIN under each strategy:")
    for optimizer in ("dynamic", "cost_based", "worst_order", "ingres"):
        result = session.execute(query, PlannerSpec.of(optimizer))
        print(f"  {optimizer:12s} {result.plan_description}")
    print()

    bound = parse_query(PARAMETRIC_SQL, floor=300_000.0)
    result = session.execute(bound, PlannerSpec.of("dynamic"))
    print(
        f"Parameterized query returned {len(result.rows)} rows "
        f"in {result.seconds:.1f} simulated seconds"
    )


if __name__ == "__main__":
    main()
