"""The ``feedback`` experiment's universe: where the fixed schedule goes wrong.

The experiment is not from the paper — it evaluates the feedback extension
(DESIGN.md §8) on a purpose-built universe where the paper's *fixed* dynamic
schedule provably goes wrong, and shows the :class:`~repro.ReplanPolicy`
repairing it mid-run. Its cells and verdict are in :mod:`repro.bench.sweep`;
this module holds the two stars and their queries:

- **Skewed star** (``clicks``): the fact table's join key to the filtered
  ``users`` dimension is *correlated with the predicate* — the kept users are
  exactly the "hot" users owning 85% of the fact rows, so formula (1)'s
  uniformity assumption underestimates the first join by ~17x. The fixed
  schedule skips online sketches at that stage (``tables_after <= 3``), so
  the endgame ranks the remaining dimensions by the row-count fallback and
  picks the *expanding* badge join (5 duplicate badge rows per key) before
  the highly selective campaign join. The policy sees the 17x Q-error,
  pays one extra re-optimization job to re-sketch the intermediate, and the
  corrected distinct counts flip the endgame join order — finishing cheaper
  despite the refresh cost.
- **Uniform star** (``sales``): every estimate lands within a few percent
  and a re-optimization point would write and re-read more seconds of
  intermediate than all four joins cost, so plain ``dynamic`` runs them as
  one final job (the driver's cost rule; the row beside it is the same
  driver made to take every point).
"""

from __future__ import annotations

from repro.common.rng import derive
from repro.common.types import DataType, Schema
from repro.lang.ast import Query
from repro.lang.builder import QueryBuilder
from repro.session import Session

EVENTS = Schema.of(
    ("e_id", DataType.INT),
    ("e_user", DataType.INT),
    ("e_badge", DataType.INT),
    ("e_camp", DataType.INT),
    ("e_val", DataType.DOUBLE),
    primary_key=("e_id",),
)

USERS = Schema.of(
    ("u_id", DataType.INT),
    ("u_seg", DataType.INT),
    ("u_name", DataType.STRING),
    primary_key=("u_id",),
)

#: badge *awards*: b_key is deliberately non-unique (5 rows per key), so the
#: fact-to-badges join expands 5x — the trap the fixed endgame walks into.
BADGES = Schema.of(
    ("b_id", DataType.INT),
    ("b_key", DataType.INT),
    ("b_tier", DataType.INT),
    ("b_label", DataType.STRING),
    primary_key=("b_id",),
)

CAMPS = Schema.of(
    ("c_id", DataType.INT),
    ("c_kind", DataType.INT),
    ("c_name", DataType.STRING),
    primary_key=("c_id",),
)

SALES = Schema.of(
    ("s_id", DataType.INT),
    ("s_d1", DataType.INT),
    ("s_d2", DataType.INT),
    ("s_d3", DataType.INT),
    ("s_d4", DataType.INT),
    ("s_amt", DataType.DOUBLE),
    primary_key=("s_id",),
)


def _dim_schema(k: int) -> Schema:
    return Schema.of(
        (f"d{k}_id", DataType.INT),
        (f"d{k}_band", DataType.INT),
        (f"d{k}_name", DataType.STRING),
        primary_key=(f"d{k}_id",),
    )


DIMS = {k: _dim_schema(k) for k in (1, 2, 3, 4)}

#: kept users (u_seg = 0) — and the hot fact keys, by construction
HOT_USERS = 10
#: fraction of fact rows owned by the hot users
HOT_FRACTION = 0.85
#: badge rows per badge key: the join-expansion factor the fixed endgame
#: walks into. Must keep HOT_USERS * BADGE_DUP < CAMP_KEEP so the filtered
#: badge table still *looks* smaller than the filtered campaign table to the
#: blind (row-count fallback) endgame.
BADGE_DUP = 14
#: distinct badge keys overall
BADGE_KEYS = 60
#: campaign ids kept by the c_id range predicates
CAMP_KEEP = 150
#: stored rows per table; the facts carry ``FACT_SCALE`` modeled rows each.
#: Modeled much smaller, a re-optimization point costs more than the joins
#: behind it and ``dynamic`` never takes the ones the skewed star needs.
SIZES = {
    "events": 4_000,
    "users": 200,
    "camps": 2_000,
    "sales": 2_400,
    "badges": BADGE_KEYS * BADGE_DUP,
    "dim": 100,
}
FACT_SCALE = 25_000
#: the universe has one size; its sweep cells carry this scale factor
SCALE_FACTOR = 1


def generate(seed: int = 42) -> dict[str, list[dict]]:
    """Both universes: the skewed clickstream star and the uniform sales star."""
    rng = derive(seed, "feedback", "skew")
    hot_cut = int(SIZES["events"] * HOT_FRACTION)
    events = []
    for i in range(SIZES["events"]):
        if i < hot_cut:
            # hot rows: owned by the kept users, badge keys inside the kept
            # tier, campaigns uniform (so only the campaign join is selective)
            user = i % HOT_USERS
            badge = rng.randrange(HOT_USERS)
        else:
            user = rng.randrange(HOT_USERS, SIZES["users"])
            badge = rng.randrange(HOT_USERS, BADGE_KEYS)
        events.append(
            {
                "e_id": i,
                "e_user": user,
                "e_badge": badge,
                "e_camp": rng.randrange(SIZES["camps"]),
                "e_val": round(rng.uniform(0.0, 100.0), 2),
            }
        )
    users = [
        {"u_id": i, "u_seg": i // HOT_USERS, "u_name": f"user-{i:04d}"}
        for i in range(SIZES["users"])
    ]
    badges = [
        {
            "b_id": i,
            "b_key": i // BADGE_DUP,
            "b_tier": (i // BADGE_DUP) // HOT_USERS,
            "b_label": f"badge-{i:04d}",
        }
        for i in range(SIZES["badges"])
    ]
    camps = [
        {"c_id": i, "c_kind": i % 7, "c_name": f"camp-{i:04d}"}
        for i in range(SIZES["camps"])
    ]

    rng = derive(seed, "feedback", "uniform")
    sales = [
        {
            "s_id": i,
            "s_d1": rng.randrange(SIZES["dim"]),
            "s_d2": rng.randrange(SIZES["dim"]),
            "s_d3": rng.randrange(SIZES["dim"]),
            "s_d4": rng.randrange(SIZES["dim"]),
            "s_amt": round(rng.uniform(1.0, 500.0), 2),
        }
        for i in range(SIZES["sales"])
    ]
    tables = {
        "events": events,
        "users": users,
        "badges": badges,
        "camps": camps,
        "sales": sales,
    }
    for k in DIMS:
        tables[f"dim{k}"] = [
            {
                f"d{k}_id": i,
                f"d{k}_band": i // 10,
                f"d{k}_name": f"d{k}-{i:03d}",
            }
            for i in range(SIZES["dim"])
        ]
    return tables


def load_universe(session: Session, seed: int = 42) -> None:
    """Generate and ingest both universes; facts carry the modeled scale."""
    tables = generate(seed)
    schemas = {
        "events": EVENTS,
        "users": USERS,
        "badges": BADGES,
        "camps": CAMPS,
        "sales": SALES,
        **{f"dim{k}": DIMS[k] for k in DIMS},
    }
    for name, rows in tables.items():
        scale = FACT_SCALE if name in ("events", "sales") else 1
        session.load(name, schemas[name], rows, scale=scale)


def skew_query() -> Query:
    """The trap query: hot-key correlation breaks the stage-1 estimate."""
    return (
        QueryBuilder()
        .select("e.e_val")
        .from_table("events", "e")
        .from_table("users", "u")
        .from_table("badges", "b")
        .from_table("camps", "c")
        .join("e.e_user", "u.u_id")
        .join("e.e_badge", "b.b_key")
        .join("e.e_camp", "c.c_id")
        .where_compare("u.u_seg", ">=", 0)
        .where_compare("u.u_seg", "<=", 0)
        .where_compare("b.b_tier", ">=", 0)
        .where_compare("b.b_tier", "<=", 0)
        .where_compare("c.c_id", ">=", 0)
        .where_compare("c.c_id", "<=", CAMP_KEEP - 1)
        .build()
    )


def fuse_query() -> Query:
    """Uniform 5-table star: every estimate is tight, fusing is safe.

    Five tables give the loop two materialization points; the driver's cost
    rule takes neither and runs one fused final job."""
    builder = (
        QueryBuilder().select("s.s_amt").from_table("sales", "s")
    )
    for k in sorted(DIMS):
        builder = (
            builder.from_table(f"dim{k}", f"d{k}")
            .join(f"s.s_d{k}", f"d{k}.d{k}_id")
            .where_compare(f"d{k}.d{k}_band", ">=", 0)
            .where_compare(f"d{k}.d{k}_band", "<=", 4)
        )
    return builder.build()


#: the sweep's query labels for this universe
QUERIES = {"skewed_star": skew_query, "uniform_star": fuse_query}
