"""Quickstart: load data, run one query under every optimizer.

Builds a small star schema, expresses a three-join query with a mix of
simple / UDF / range predicates, and compares the seven optimization
strategies on simulated execution time and chosen plan.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import PlannerSpec, QueryBuilder, Session
from repro.common.types import DataType, Schema


def load_data(session: Session) -> None:
    rng = random.Random(42)
    sales_schema = Schema.of(
        ("sale_id", DataType.INT),
        ("product_id", DataType.INT),
        ("customer_id", DataType.INT),
        ("store_id", DataType.INT),
        ("amount", DataType.DOUBLE),
        primary_key=("sale_id",),
    )
    # scale=50_000: each stored row models 50k rows of the full-size table,
    # so the simulated clock and broadcast decisions behave like a 250M-row
    # fact table (see DESIGN.md §2).
    session.load(
        "sales",
        sales_schema,
        [
            {
                "sale_id": i,
                "product_id": rng.randrange(200),
                "customer_id": rng.randrange(500),
                "store_id": rng.randrange(20),
                "amount": round(rng.uniform(1, 500), 2),
            }
            for i in range(5000)
        ],
        scale=50_000,
    )
    session.load(
        "products",
        Schema.of(
            ("product_id", DataType.INT),
            ("category", DataType.INT),
            ("price", DataType.DOUBLE),
            primary_key=("product_id",),
        ),
        [
            {"product_id": i, "category": i % 12, "price": round(rng.uniform(1, 900), 2)}
            for i in range(200)
        ],
        scale=500,
    )
    session.load(
        "stores",
        Schema.of(
            ("store_id", DataType.INT),
            ("region", DataType.INT),
            primary_key=("store_id",),
        ),
        [{"store_id": i, "region": i % 4} for i in range(20)],
        scale=50,
    )


def build_query():
    return (
        QueryBuilder()
        .select("sales.amount", "products.category")
        .from_table("sales")
        .from_table("products")
        .from_table("stores")
        # two predicates on products -> the dynamic optimizer pre-executes
        # them and measures the exact post-filter cardinality
        .where_compare("products.category", ">=", 3)
        .where_compare("products.category", "<=", 5)
        # a UDF predicate the static optimizer can only guess at (1/10)
        .where_udf("mymod10", "stores.region", "=", 1)
        .join("sales.product_id", "products.product_id")
        .join("sales.store_id", "stores.store_id")
        .build()
    )


def main() -> None:
    session = Session()
    load_data(session)
    query = build_query()

    print("Query:")
    print(query.describe())
    print()
    print(f"{'optimizer':18s} {'sim seconds':>12s}  rows  plan")
    baseline = None
    for optimizer in session.optimizer_names():
        result = session.execute(query, PlannerSpec.of(optimizer))
        if baseline is None:
            baseline = len(result.rows)
        assert len(result.rows) == baseline, "optimizers must agree!"
        print(
            f"{optimizer:18s} {result.seconds:12.2f}  {len(result.rows):4d}  "
            f"{result.plan_description}"
        )


if __name__ == "__main__":
    main()
