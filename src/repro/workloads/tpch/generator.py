"""Deterministic TPC-H style data generator.

Produces one self-consistent scaled universe per scale factor (10, 100,
1000 -> scale units 1, 10, 100). Beyond the standard shapes, two properties
the paper's evaluation depends on are engineered in:

- **Correlated orders predicates** (modified Q8): ``o_orderstatus`` is a
  function of ``o_orderdate`` — every order placed in the first five
  calendar years is finished (``'F'``). A date range inside that window is
  therefore *fully correlated* with the status filter, and the independence
  assumption underestimates the conjunction by the status selectivity.
- **Valid (part, supplier) pairs**: lineitems draw their part/supplier keys
  from actual partsupp rows, so the composite fact-to-fact join
  ``l ⋈ ps`` on (partkey, suppkey) behaves like TPC-H's.
"""

from __future__ import annotations

from repro.common.rng import derive
from repro.workloads.tpch.schema import CALENDAR_DAYS, row_counts

REGION_NAMES = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
PART_TYPES = tuple(
    f"{size} {coat} {metal}"
    for size in ("SMALL", "MEDIUM", "LARGE", "ECONOMY", "STANDARD")
    for coat in ("PLATED", "POLISHED")
    for metal in ("COPPER", "BRASS", "TIN")
)
#: 50 brands, so the Q9 filter ``mysub(p_brand) = '#3'`` keeps 1/50 of part.
BRAND_COUNT = 50
#: Order dates before this ordinal are finished ('F'); the Q8 window
#: [3*365, 5*365) lies entirely inside, making date/status fully correlated.
FINISHED_CUTOFF_DAY = 5 * 365


def scale_unit(scale_factor: int) -> int:
    """Map the paper's scale factors {10, 100, 1000} to scale units."""
    if scale_factor % 10 != 0 or scale_factor < 10:
        raise ValueError(f"scale factor must be one of 10/100/1000, got {scale_factor}")
    return scale_factor // 10


def generate(scale_factor: int, seed: int = 42) -> dict[str, list[dict]]:
    """All eight tables for one scale factor, keyed by table name."""
    unit = scale_unit(scale_factor)
    counts = row_counts(unit)
    rng = derive(seed, "tpch", scale_factor)

    region = [
        {"r_regionkey": i, "r_name": REGION_NAMES[i]} for i in range(counts["region"])
    ]
    nation = [
        {
            "n_nationkey": i,
            "n_name": f"NATION_{i:02d}",
            "n_regionkey": i % counts["region"],
        }
        for i in range(counts["nation"])
    ]
    supplier = [
        {
            "s_suppkey": i,
            "s_name": f"Supplier#{i:06d}",
            "s_nationkey": rng.randrange(counts["nation"]),
            "s_acctbal": round(rng.uniform(-900.0, 9900.0), 2),
        }
        for i in range(counts["supplier"])
    ]
    customer = [
        {
            "c_custkey": i,
            "c_name": f"Customer#{i:06d}",
            "c_nationkey": rng.randrange(counts["nation"]),
            "c_acctbal": round(rng.uniform(-900.0, 9900.0), 2),
        }
        for i in range(counts["customer"])
    ]
    part = [
        {
            "p_partkey": i,
            "p_name": f"part {i}",
            "p_brand": f"Brand#{1 + rng.randrange(BRAND_COUNT)}",
            "p_type": PART_TYPES[rng.randrange(len(PART_TYPES))],
            "p_size": 1 + rng.randrange(50),
        }
        for i in range(counts["part"])
    ]
    partsupp = [
        {
            "ps_partkey": i % counts["part"],
            "ps_suppkey": (i * 7 + i // counts["part"]) % counts["supplier"],
            "ps_availqty": rng.randrange(1, 10_000),
            "ps_supplycost": round(rng.uniform(1.0, 1000.0), 2),
        }
        for i in range(counts["partsupp"])
    ]
    orders = []
    for i in range(counts["orders"]):
        order_date = rng.randrange(CALENDAR_DAYS)
        if order_date < FINISHED_CUTOFF_DAY:
            status = "F"
        else:
            status = "O" if rng.random() < 0.8 else "P"
        orders.append(
            {
                "o_orderkey": i,
                "o_custkey": rng.randrange(counts["customer"]),
                "o_orderstatus": status,
                "o_orderdate": order_date,
                "o_totalprice": round(rng.uniform(900.0, 450_000.0), 2),
            }
        )
    lineitem = []
    lines_per_order = max(1, counts["lineitem"] // counts["orders"])
    for i in range(counts["lineitem"]):
        ps_row = partsupp[rng.randrange(len(partsupp))]
        order = orders[(i // lines_per_order) % counts["orders"]]
        lineitem.append(
            {
                "l_orderkey": order["o_orderkey"],
                "l_linenumber": i % lines_per_order,
                "l_partkey": ps_row["ps_partkey"],
                "l_suppkey": ps_row["ps_suppkey"],
                "l_quantity": 1 + rng.randrange(50),
                "l_extendedprice": round(rng.uniform(900.0, 100_000.0), 2),
                "l_shipdate": min(
                    CALENDAR_DAYS - 1, order["o_orderdate"] + rng.randrange(1, 122)
                ),
            }
        )
    return {
        "region": region,
        "nation": nation,
        "supplier": supplier,
        "customer": customer,
        "part": part,
        "partsupp": partsupp,
        "orders": orders,
        "lineitem": lineitem,
    }


def create_secondary_indexes(session) -> None:
    """Indexes for the Figure-8 INL experiments (Section 7.2: "a few
    secondary indexes on the attributes that participate in queries as join
    predicates and are not the primary keys")."""
    session.create_index("lineitem", "l_partkey")
    session.create_index("lineitem", "l_suppkey")
    session.create_index("partsupp", "ps_suppkey")
    session.create_index("orders", "o_custkey")
