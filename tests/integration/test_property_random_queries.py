"""Randomized end-to-end property: every optimizer equals the oracle.

Hypothesis generates random chain/star schemas, data distributions and
predicate mixes; for each, every optimization strategy must produce exactly
the reference rows. This is the strongest correctness net in the suite: it
exercises arbitrary join orders, all three join algorithms, partitioning
edge cases (empty filters, skewed keys, nulls, INT keys joined to DOUBLE keys
under hash and broadcast joins) and the full reconstruction machinery at once.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.types import DataType, Schema
from repro.core.driver import EveryPoint
from repro.core.policy import ReplanPolicy
from repro.engine.bloom import BloomFilter
from repro.engine.scheduler import scheduler as scheduler_module
from repro.engine.scheduler.request import run_request
from repro.lang.ast import BetweenPredicate, ComparisonPredicate, UdfPredicate
from repro.lang.builder import QueryBuilder
from repro.optimizers import available_strategies
from repro.service import QueryService, ServiceConfig
from repro.session import Session
from repro.spec import PlannerSpec
from repro.testing import evaluate_reference, rows_equal_unordered

from tests.conftest import small_cluster

#: every registered strategy: a new planner enrolls for free. (The list
#: used to name 6 of the 10, which is how predicate_transfer's Bloom false
#: negative on INT = DOUBLE keys went unseen.)
OPTIMIZERS = available_strategies()
#: ...plus the variants that change the dataflow: ``dynamic`` with the
#: predicate-transfer prelude in place of plain push-down
PLANNERS = (*OPTIMIZERS, PlannerSpec.of("dynamic", pre_filter="transfer"))


@st.composite
def universe(draw, max_dims=3):
    """A fact table + 1-``max_dims`` dimensions, with random sizes and
    predicates."""
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    dim_count = draw(st.integers(min_value=1, max_value=max_dims))
    fact_rows = draw(st.integers(min_value=0, max_value=400))
    dim_sizes = [draw(st.integers(min_value=1, max_value=40)) for _ in range(dim_count)]
    null_every = draw(st.sampled_from([0, 7, 13]))
    predicate_kinds = [
        draw(st.sampled_from(["none", "eq", "range", "udf", "param"]))
        for _ in range(dim_count)
    ]
    # A DOUBLE dimension key against the fact's INT foreign key (SQL: 1 = 1.0),
    # and a modeled scale that puts every input over the broadcast budget so
    # the planners pick hash joins — the pairing that used to lose rows.
    float_keys = [draw(st.booleans()) for _ in range(dim_count)]
    scale = draw(st.sampled_from([1.0, 1e6]))
    return rng_seed, fact_rows, dim_sizes, null_every, predicate_kinds, float_keys, scale


def build_case(
    rng_seed,
    fact_rows,
    dim_sizes,
    null_every,
    predicate_kinds,
    float_keys,
    scale,
    session=None,
):
    """Load the drawn universe into ``session`` (a fresh :class:`Session`
    by default; anything with ``load``) and build its query."""
    import random

    rng = random.Random(rng_seed)
    session = session or Session(small_cluster())
    fact_fields = [("f_id", DataType.INT)] + [
        (f"fk{i}", DataType.INT) for i in range(len(dim_sizes))
    ]
    session.load(
        "fact",
        Schema.of(*fact_fields, primary_key=("f_id",)),
        [
            {
                "f_id": i,
                **{
                    f"fk{d}": (
                        None
                        if null_every and i % null_every == 0
                        else rng.randrange(dim_sizes[d])
                    )
                    for d in range(len(dim_sizes))
                },
            }
            for i in range(fact_rows)
        ],
        scale=scale,
    )
    builder = QueryBuilder().select("fact.f_id").from_table("fact")
    for d, size in enumerate(dim_sizes):
        name = f"dim{d}"
        key_type, cast = (DataType.DOUBLE, float) if float_keys[d] else (DataType.INT, int)
        session.load(
            name,
            Schema.of(
                (f"d{d}_id", key_type),
                (f"d{d}_v", DataType.INT),
                primary_key=(f"d{d}_id",),
            ),
            [{f"d{d}_id": cast(i), f"d{d}_v": i % 5} for i in range(size)],
            scale=scale,
        )
        builder.from_table(name)
        builder.join(f"fact.fk{d}", f"{name}.d{d}_id")
        kind = predicate_kinds[d]
        column = f"{name}.d{d}_v"
        if kind == "eq":
            builder.where_eq(column, 2)
        elif kind == "range":
            builder.where_between(column, 1, 3)
        elif kind == "udf":
            builder.where_udf("mymod10", column, "=", 1)
        elif kind == "param":
            builder.where_param(column, "=", "p")
    builder.bind(p=3)
    return session, builder.build()


@settings(max_examples=15, deadline=None)
@given(universe())
# One fact row, one DOUBLE dimension row: the minimal example on which
# predicate_transfer returned no rows at 830624f.
@example(case=(0, 1, [1], 0, ["none"], [True], 1.0))
def test_all_optimizers_match_oracle(case):
    session, query = build_case(*case)
    reference = evaluate_reference(query, session)
    for planner in PLANNERS:
        result = session.execute(query, planner)
        assert rows_equal_unordered(result.rows, reference), planner


#: the two entry points of predicate transfer
TRANSFER_PLANNERS = (
    "predicate_transfer",
    PlannerSpec.of("dynamic", pre_filter="transfer"),
)


@settings(max_examples=10, deadline=None)
@given(universe())
@example(case=(3, 60, [8, 5], 0, ["eq", "range"], [False, True], 1.0))
def test_saturated_bloom_filters_move_no_row(case):
    """Predicate Transfer's soundness argument as a metamorphic relation: a
    filter at 100% false positives (every bit set) passes every probe row, so
    a transfer run returns the rows its exact filters give; only cost moves."""
    session, query = build_case(*case)
    exact = [session.execute(query, planner).rows for planner in TRANSFER_PLANNERS]
    build, saturated = BloomFilter.build.__func__, []

    def build_saturated(cls, *args, **kwargs):
        bloom = build(cls, *args, **kwargs)
        bloom._bytes[:] = b"\xff" * len(bloom._bytes)
        saturated.append(bloom)
        return bloom

    with mock.patch.object(BloomFilter, "build", classmethod(build_saturated)):
        forced = [session.execute(query, planner).rows for planner in TRANSFER_PLANNERS]
    assert saturated and all(bloom.might_contain(object()) for bloom in saturated)
    for planner, rows, forced_rows in zip(TRANSFER_PLANNERS, exact, forced):
        assert rows_equal_unordered(forced_rows, rows), planner


@settings(max_examples=10, deadline=None)
@given(universe())
def test_dynamic_with_inl_matches_oracle(case):
    session, query = build_case(*case)
    for d in range(len(query.tables) - 1):
        session.create_index("fact", f"fk{d}")
    reference = evaluate_reference(query, session)
    result = session.execute(query, PlannerSpec.of("dynamic", inl_enabled=True))
    session.reset_intermediates()
    assert rows_equal_unordered(result.rows, reference)


#: One draw at two scales: modeled small, ``dynamic`` fuses its loop into the
#: final job; modeled large, it takes every point (DESIGN.md §8).
FUSED_DRAW = (1, 400, [40, 30, 20, 10, 5], 7, ["eq", "udf", "range", "param", "none"],
              [False, True, False, False, False], 1.0)  # fmt: skip
EVERY_POINT_DRAW = (*FUSED_DRAW[:-1], 1e6)


@settings(max_examples=15, deadline=None)
@given(universe(max_dims=5))
@example(case=FUSED_DRAW)
@example(case=EVERY_POINT_DRAW)
def test_replan_policy_and_every_point_match_oracle(case):
    """The re-optimization loop's two variants: the Q-error policy (refresh
    + widened pick) and ``dynamic`` made to take every point. Up to five
    dimensions, so the loop runs (a query of at most three joins is all
    endgame). Both equal the oracle, and ``dynamic`` — which may fuse the
    loop into its final job — returns the same rows as taking every point."""
    session, query = build_case(*case)
    reference = evaluate_reference(query, session)
    policy = session.execute(
        query, PlannerSpec.of("dynamic", policy=ReplanPolicy.default())
    )
    session.reset_intermediates()
    every_point = EveryPoint().execute(query, session)
    session.reset_intermediates()
    dynamic = session.execute(query, "dynamic")
    session.reset_intermediates()
    assert rows_equal_unordered(policy.rows, reference)
    assert rows_equal_unordered(every_point.rows, reference)
    assert rows_equal_unordered(dynamic.rows, every_point.rows)


def test_the_pinned_draws_reach_both_sides_of_the_fuse_rule():
    """The oracle comparison above covers a fired rule and an unfired one."""
    session, query = build_case(*FUSED_DRAW)
    fused = session.execute(query, "dynamic")
    assert [d.action for d in fused.decisions] == ["fuse"]
    session, query = build_case(*EVERY_POINT_DRAW)
    dynamic = session.execute(query, "dynamic")
    session.reset_intermediates()
    every_point = EveryPoint().execute(query, session)
    assert dynamic.decisions == ()
    assert list(dynamic.phases) == list(every_point.phases)
    assert dynamic.seconds == every_point.seconds


def serve(case, config, bindings, strategies):
    """Every binding x strategy through two tenants of one service, drained
    twice: the second round repeats the first, so where the caches are on it
    is answered from them, except what read ``dim0`` — re-ingested with the
    same rows in between. Returns the service and every handle's rows."""
    service, query = build_case(
        *case, session=QueryService(small_cluster(), config=config)
    )
    submissions = list(product(bindings, strategies))
    handles = []
    for round_ in range(2):
        for i, (value, strategy) in enumerate(submissions):
            bound = replace(query, parameters={"p": value})
            handle = service.session(f"t{i % 2}").submit(bound, strategy)
            handles.append((bound, handle))
        service.run_all()
        for tenant in service.tenants():
            service.session(tenant).reset_intermediates()
        service.reset_scheduler()
        if not round_:
            dim = service.datasets.get("dim0")
            rows = list(dim.rows())
            service.load("dim0", dim.schema, rows, scale=dim.scale, replace=True)
    return service, [(bound, handle.result().rows) for bound, handle in handles]


@settings(max_examples=10, deadline=None)
@given(
    universe(max_dims=4),
    st.lists(st.integers(0, 5), min_size=1, max_size=3),
    st.lists(st.sampled_from(OPTIMIZERS), min_size=1, max_size=3, unique=True),
)
def test_service_caches_on_and_off_match_oracle(case, bindings, strategies):
    """Caches off, the default caches, and an intermediate cache whose
    budget holds about one entry (so evictions happen mid-run) answer every
    submission with the same rows, and those are the oracle's."""
    off = ServiceConfig(result_cache=False, intermediate_cache=False)
    _, expected = serve(case, off, bindings, strategies)
    default, answered = serve(case, ServiceConfig(), bindings, strategies)
    held = [entry.nbytes for entry in default.cache._intermediates.values()]
    tight = ServiceConfig(intermediate_cache_bytes=max([1, *held]))
    _, squeezed = serve(case, tight, bindings, strategies)
    assert answered == expected
    assert squeezed == expected
    for bound, rows in expected:
        assert rows_equal_unordered(rows, evaluate_reference(bound, default))


def submit_together(stack, submissions, tenant=None):
    """Submit every ``(query, strategy)`` at once, drain, return the rows."""
    handles = [
        (stack.session(tenant(i)) if tenant else stack).submit(query, strategy)
        for i, (query, strategy) in enumerate(submissions)
    ]
    stack.run_all()
    return [handle.result().rows for handle in handles]


@settings(max_examples=10, deadline=None)
@given(
    universe(max_dims=4),
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(OPTIMIZERS)), min_size=4, max_size=6
    ),
)
def test_concurrent_submissions_match_oracle(case, drawn):
    """Four to six generated queries in flight at once, so their jobs share
    launches: one session at one and at two job slots, and tenants of a
    service with its caches on. Every handle returns the oracle's rows, and
    one slot or two changes no row."""
    session, query = build_case(*case)
    submissions = [
        (replace(query, parameters={"p": value}), strategy) for value, strategy in drawn
    ]
    expected = [evaluate_reference(bound, session) for bound, _ in submissions]
    answers = {}
    for job_slots in (1, 2):
        stack, _ = build_case(*case, session=Session(small_cluster(), job_slots=job_slots))
        answers[job_slots] = submit_together(stack, submissions)
    service, _ = build_case(*case, session=QueryService(small_cluster(), job_slots=2))
    served = submit_together(service, submissions, tenant=lambda i: f"t{i % 3}")
    assert answers[1] == answers[2]
    for rows, reference in zip([*answers[1], *served], expected * 2):
        assert rows_equal_unordered(rows, reference)


#: one step of a service's life: ``(op, binding, planner, tenant)`` or ``(op,)``
SERVICE_STEPS = st.one_of(
    st.tuples(
        st.sampled_from(["submit", "execute", "explain_analyze"]),
        st.integers(0, 5),
        st.sampled_from(PLANNERS),
        st.integers(0, 2),
    ),
    st.tuples(st.sampled_from(["run_all", "reset_scheduler"])),
)


@settings(max_examples=10, deadline=None)
@given(universe(max_dims=4), st.lists(SERVICE_STEPS, min_size=1, max_size=8))
def test_service_interleavings_match_oracle(case, steps):
    """A drawn sequence of tenant submissions, drains, blocking executes,
    EXPLAIN ANALYZEs and scheduler resets on one service with both caches
    on, drained at the end. Every answer is the oracle's; the intermediate
    cache counts each lookup once, as one hit or one miss (every cacheable
    request is looked up once and then run once, replayed or launched); and
    no query's namespace is left in the catalog."""
    config = ServiceConfig(result_cache=True, intermediate_cache=True)
    service, query = build_case(
        *case, session=QueryService(small_cluster(), config=config)
    )
    cacheable_runs = []

    def counting(executor, request, *args, **kwargs):
        if request.cache_token is not None:
            cacheable_runs.append(request)
        return run_request(executor, request, *args, **kwargs)

    answers, queued = [], []
    with mock.patch.object(scheduler_module, "run_request", counting):
        for op, *arguments in [*steps, ("run_all",)]:
            if op == "run_all":
                service.run_all()
                answers += [(bound, handle.result().rows) for bound, handle in queued]
                queued.clear()
            elif op == "reset_scheduler":
                service.reset_scheduler()
                queued.clear()  # discarded with the old scheduler, never run
            else:
                value, planner, tenant = arguments
                bound = replace(query, parameters={"p": value})
                session = service.session(f"t{tenant}")
                if op == "submit":
                    queued.append((bound, session.submit(bound, planner)))
                elif op == "execute":
                    answers.append((bound, session.execute(bound, planner).rows))
                else:
                    session.execute(bound, planner).explain_analyze()
    for bound, rows in answers:
        assert rows_equal_unordered(rows, evaluate_reference(bound, service))
    stats = service.cache.stats
    assert stats.intermediate_hits + stats.intermediate_misses == len(cacheable_runs)
    assert not [name for name in service.datasets.names() if name.startswith("__q")]


#: a second local predicate per dimension, so a table's predicates have an
#: order that could matter
SECOND_PREDICATES = {
    "none": None,
    "lt": lambda column: ComparisonPredicate(column, "<", 4),
    "udf": lambda column: UdfPredicate(column, "mymod10", "!=", 3),
    "between": lambda column: BetweenPredicate(column, 0, 3),
}


def with_second_predicates(query, kinds):
    extra = [
        SECOND_PREDICATES[kind](f"dim{d}.d{d}_v")
        for d, kind in enumerate(kinds[: len(query.tables) - 1])
        if kind != "none"
    ]
    return replace(query, predicates=(*query.predicates, *extra))


def reordered(query, order):
    """``query`` with its FROM entries in ``order`` (positions) and each
    table's predicates reversed."""
    tables = tuple(query.tables[i] for i in order)
    predicates = tuple(
        p for t in tables for p in reversed(query.predicates_for(t.alias))
    )
    return replace(query, tables=tables, predicates=predicates)


@settings(max_examples=10, deadline=None)
@given(
    universe(max_dims=4),
    st.lists(st.sampled_from(sorted(SECOND_PREDICATES)), min_size=4, max_size=4),
    st.permutations(range(5)),
)
def test_from_and_predicate_order_move_no_row(case, kinds, permutation):
    """Metamorphic: permuting the FROM clause and reversing each table's
    predicates leaves every planner's rows unchanged, and reordering the
    predicates alone leaves ``dynamic``'s simulated seconds unchanged. (The
    FROM order can move the clock: see the pinned case below.)"""
    session, query = build_case(*case)
    query = with_second_predicates(query, kinds)
    positions = range(len(query.tables))
    permuted = reordered(query, [i for i in permutation if i in positions])
    reference = evaluate_reference(query, session)
    for planner in PLANNERS:
        for variant in (query, permuted):
            rows = session.execute(variant, planner).rows
            assert rows_equal_unordered(rows, reference), planner
    before = session.execute(query, "dynamic").seconds
    assert session.execute(reordered(query, positions), "dynamic").seconds == before


def test_from_order_moves_no_simulated_second():
    """Minimised from the metamorphic test: one fact row, dimensions of 1, 1
    and 2 rows, no predicates. ``dynamic`` fuses its three joins into one
    greedy final plan, and every join is estimated at one row. Listing
    ``dim2`` second moved the clock (1.000018 s against 1.000017 s) while
    ``greedy_full_plan`` took the first of equals in FROM order; it breaks
    the tie by alias names now, as ``Planner.ranked_joins`` does."""
    session, query = build_case(0, 1, [1, 1, 2], 0, ["none"] * 3, [False] * 3, 1.0)
    dynamic = session.execute(query, "dynamic")
    assert [d.action for d in dynamic.decisions] == ["fuse"]
    permuted = session.execute(reordered(query, (0, 3, 1, 2)), "dynamic")
    assert permuted.seconds == dynamic.seconds
