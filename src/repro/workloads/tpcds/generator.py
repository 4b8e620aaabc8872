"""Deterministic TPC-DS style data generator (Q17/Q50 subset).

Correlations engineered to match the queries' semantics:

- **store_returns derive from store_sales**: each return row copies the
  (item, customer, ticket) triple of an actual sale and is dated after it —
  so the triple-condition fact-to-fact join ``ss ⋈ sr`` produces exactly one
  match per return, while its conjuncts are strongly correlated (the trap
  for independence-based estimation).
- **catalog_sales overlap**: half of the catalog rows reuse a (customer,
  item) pair from a store sale, so Q17's ``sr ⋈ cs`` join is selective but
  non-empty.
"""

from __future__ import annotations

from repro.common.rng import derive
from repro.workloads.tpcds.schema import (
    CALENDAR_DAYS,
    CALENDAR_YEARS,
    customer_population,
    row_counts,
)

ITEM_CATEGORIES = ("Books", "Electronics", "Home", "Music", "Shoes", "Sports")
US_STATES = ("CA", "NY", "TX", "WA", "IL", "FL")
LINES_PER_TICKET = 4
RETURN_DELAY_MAX = 60


def scale_unit(scale_factor: int) -> int:
    if scale_factor % 10 != 0 or scale_factor < 10:
        raise ValueError(f"scale factor must be one of 10/100/1000, got {scale_factor}")
    return scale_factor // 10


def day_fields(date_sk: int) -> dict:
    """Calendar attributes of one day ordinal."""
    year = CALENDAR_YEARS[date_sk // 365]
    day_of_year = date_sk % 365
    return {
        "d_date_sk": date_sk,
        "d_year": year,
        "d_moy": min(12, day_of_year // 30 + 1),
        "d_dom": day_of_year % 30 + 1,
    }


def generate(scale_factor: int, seed: int = 42) -> dict[str, list[dict]]:
    unit = scale_unit(scale_factor)
    counts = row_counts(unit)
    customers = customer_population(unit)
    rng = derive(seed, "tpcds", scale_factor)

    date_dim = [day_fields(sk) for sk in range(CALENDAR_DAYS)]
    store = [
        {
            "s_store_sk": i,
            "s_store_id": f"S{i:04d}",
            "s_state": US_STATES[i % len(US_STATES)],
        }
        for i in range(counts["store"])
    ]
    item = [
        {
            "i_item_sk": i,
            "i_item_id": f"I{i:06d}",
            "i_item_desc": f"description of item {i}",
            "i_brand": f"brand{i % 40}",
            "i_class": f"class{i % 12}",
            "i_color": f"color{i % 16}",
            "i_category": ITEM_CATEGORIES[i % len(ITEM_CATEGORIES)],
        }
        for i in range(counts["item"])
    ]

    store_sales = []
    for i in range(counts["store_sales"]):
        ticket = i // LINES_PER_TICKET
        store_sales.append(
            {
                "ss_item_sk": rng.randrange(counts["item"]),
                "ss_customer_sk": ticket % customers,
                "ss_ticket_number": ticket,
                "ss_sold_date_sk": rng.randrange(CALENDAR_DAYS),
                "ss_store_sk": ticket % counts["store"],
                "ss_sales_price": round(rng.uniform(1.0, 300.0), 2),
            }
        )

    returned = rng.sample(range(len(store_sales)), counts["store_returns"])
    store_returns = []
    for sale_index in returned:
        sale = store_sales[sale_index]
        store_returns.append(
            {
                "sr_item_sk": sale["ss_item_sk"],
                "sr_customer_sk": sale["ss_customer_sk"],
                "sr_ticket_number": sale["ss_ticket_number"],
                "sr_returned_date_sk": min(
                    CALENDAR_DAYS - 1,
                    sale["ss_sold_date_sk"] + rng.randrange(1, RETURN_DELAY_MAX),
                ),
                "sr_return_amt": round(sale["ss_sales_price"] * rng.uniform(0.5, 1.0), 2),
            }
        )

    catalog_sales = []
    for i in range(counts["catalog_sales"]):
        if i % 2 == 0:
            # Correlated row: the same customer later orders the same item
            # from the catalog, shortly after the store sale.
            sale = store_sales[rng.randrange(len(store_sales))]
            customer, item_sk = sale["ss_customer_sk"], sale["ss_item_sk"]
            sold = min(
                CALENDAR_DAYS - 1, sale["ss_sold_date_sk"] + rng.randrange(0, 90)
            )
        else:
            customer, item_sk = rng.randrange(customers), rng.randrange(counts["item"])
            sold = rng.randrange(CALENDAR_DAYS)
        catalog_sales.append(
            {
                "cs_item_sk": item_sk,
                "cs_bill_customer_sk": customer,
                "cs_sold_date_sk": sold,
                "cs_order_number": i,
                "cs_sales_price": round(rng.uniform(1.0, 300.0), 2),
            }
        )

    return {
        "date_dim": date_dim,
        "store": store,
        "item": item,
        "store_sales": store_sales,
        "store_returns": store_returns,
        "catalog_sales": catalog_sales,
    }


def create_secondary_indexes(session) -> None:
    """Indexes for the Figure-8 INL experiments."""
    session.create_index("store_sales", "ss_sold_date_sk")
    session.create_index("store_returns", "sr_returned_date_sk")
    session.create_index("catalog_sales", "cs_sold_date_sk")
