"""Multi-tenant service benchmark: tail latency under a skewed workload.

The throughput experiment measures one batch from one user; a long-lived
:class:`~repro.service.QueryService` serves *tenants* — many sessions
multiplexed onto one shared scheduler, with result/intermediate caching and
fair admission. This experiment drives that stack the way a production
endpoint sees traffic: a pool of parameterized star-join templates whose
popularity follows a Zipf law (a few hot queries, a long cold tail),
submitted by a crowd of tenants, all drained on the shared simulated clock.

Reported per run:

- **p50/p95/p99 tail latency** over every query's submission-to-completion
  time (``ScheduleInfo.latency_seconds``) — queueing delay included, which
  is the number a tenant actually experiences;
- **cache hit rate**: the fraction of queries answered from the result
  cache at admission (zero cluster work), plus the intermediate cache's
  replay counts — the payoff of skew;
- per-tenant fairness lines (count, mean and max latency per tenant).

Everything runs on the simulated clock, so the numbers are exactly
reproducible for a given seed; ``check_baseline`` exploits that to fail CI
when the recorded p99 drifts beyond tolerance (an accidental scheduling or
caching regression), not on noise.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from repro.cluster.config import ClusterConfig
from repro.common import rng
from repro.common.types import DataType, Schema
from repro.lang.ast import Query
from repro.lang.builder import QueryBuilder
from repro.service import QueryService

#: default location of the recorded baseline (repo-relative, used by CI).
BASELINE_PATH = os.path.join("benchmarks", "service_baseline.json")

#: relative drift allowed on latency percentiles before CI fails.
LATENCY_TOLERANCE = 0.25
#: absolute drop allowed on the result-cache hit rate before CI fails.
HIT_RATE_TOLERANCE = 0.10


def _load_universe(service: QueryService, fact_rows: int, seed: int) -> None:
    """A star universe (fact + three dimensions) ingested service-wide."""
    gen = rng.derive(seed, "service", "fact")
    fact_schema = Schema.of(
        ("f_id", DataType.INT),
        ("f_a", DataType.INT),
        ("f_b", DataType.INT),
        ("f_c", DataType.INT),
        ("f_val", DataType.INT),
        primary_key=("f_id",),
    )
    service.load(
        "fact",
        fact_schema,
        [
            {
                "f_id": i,
                "f_a": gen.randrange(50),
                "f_b": gen.randrange(40),
                "f_c": gen.randrange(30),
                "f_val": gen.randrange(1000),
            }
            for i in range(fact_rows)
        ],
        scale=10_000.0,
    )
    for prefix, size, modulo in (("a", 50, 7), ("b", 40, 5), ("c", 30, 3)):
        service.load(
            f"d{prefix}", _dim_schema(prefix), _dim_rows(prefix, size, modulo)
        )


def _dim_schema(prefix: str) -> Schema:
    return Schema.of(
        (f"{prefix}_id", DataType.INT),
        (f"{prefix}_attr", DataType.INT),
        primary_key=(f"{prefix}_id",),
    )


def _dim_rows(prefix: str, size: int, modulo: int) -> list[dict]:
    return [
        {f"{prefix}_id": i, f"{prefix}_attr": i % modulo} for i in range(size)
    ]


def service_templates(count: int = 12) -> list[tuple[str, Query]]:
    """``count`` distinct star-join variants differing in their predicates.

    Template ``i`` filters a different ``da`` slice and rotates which extra
    dimension carries predicates, so the variants produce different
    cardinalities and plans — a repeated template is a genuine repeat (cache
    hit material), a different one is genuinely different work. Every
    filtered dimension carries either two simple predicates or a UDF, which
    is the paper's push-down candidate rule: the variants materialize
    filtered intermediates, and templates sharing a ``da`` slice
    (``i`` ≡ ``i+7`` mod 7) share the same cacheable push-down.
    """
    templates = []
    for i in range(count):
        builder = (
            QueryBuilder()
            .select("fact.f_val", "da.a_attr")
            .from_table("fact")
            .from_table("da")
            .from_table("db")
            .from_table("dc")
            .join("fact.f_a", "da.a_id")
            .join("fact.f_b", "db.b_id")
            .join("fact.f_c", "dc.c_id")
            .where_eq("da.a_attr", i % 7)
            .where_compare("da.a_attr", "<=", 6)
        )
        if i % 3 == 0:
            builder = builder.where_compare(
                "dc.c_attr", ">=", 0
            ).where_compare("dc.c_attr", "<=", 1 + i % 2)
        elif i % 3 == 1:
            builder = builder.where_udf("mymod10", "db.b_attr", "=", i % 5)
        else:
            builder = builder.where_compare(
                "db.b_attr", ">=", 1
            ).where_compare("db.b_attr", "<=", 1 + i % 3)
        templates.append((f"Q{i + 1}", builder.build()))
    return templates


def zipf_weights(count: int, exponent: float = 1.1) -> list[float]:
    """Unnormalized Zipf popularity: weight of rank ``r`` is ``1/r^s``."""
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


@dataclass(frozen=True)
class TenantLine:
    """One tenant's share of the workload and its observed latencies."""

    tenant: str
    queries: int
    cache_hits: int
    mean_latency: float
    max_latency: float


@dataclass(frozen=True)
class ServiceReport:
    """Tail latency + cache effectiveness of one skewed multi-tenant run."""

    tenants: int
    query_count: int
    template_count: int
    fact_rows: int
    makespan_seconds: float
    p50: float
    p95: float
    p99: float
    #: result-cache answers as a fraction of all completed queries.
    cache_hit_rate: float
    result_hits: int
    intermediate_hits: int
    intermediate_misses: int
    invalidations: int
    tenant_lines: list[TenantLine]
    #: tenant lanes present in the shared cluster timeline.
    timeline_tenants: list[str]
    #: invalidation probe: after the drain, ``da`` is re-ingested (version
    #: bump) and the hottest template resubmitted — it must *miss* the
    #: result cache (False here) or the invalidation path is broken.
    probe_result_cached: bool = False

    def baseline(self) -> dict:
        """The regression-checked subset, JSON-ready."""
        return {
            "query_count": self.query_count,
            "tenants": self.tenants,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "cache_hit_rate": self.cache_hit_rate,
            "makespan_seconds": self.makespan_seconds,
        }


def run_service(
    tenants: int = 8,
    query_count: int = 120,
    template_count: int = 12,
    fact_rows: int = 600,
    seed: int = 42,
    smoke: bool = False,
) -> ServiceReport:
    """Drive a query service with a Zipf-skewed multi-tenant workload.

    Every submission picks a template by Zipf popularity and a tenant (each
    tenant gets at least one query; the remainder is skewed too, so fair
    admission has something to push back on). All queries are submitted
    up-front and drained in one :meth:`~repro.service.QueryService.run_all`
    — admission-time result-cache hits happen exactly when a repeat arrives
    after its first instance finished, like a live endpoint. A final probe
    re-ingests ``da`` and resubmits the hottest template to exercise (and
    count) cache invalidation on ingest.
    """
    if smoke:
        query_count = max(100, min(query_count, 100))
        fact_rows = min(fact_rows, 300)
    cluster = ClusterConfig(
        nodes=2, cores_per_node=2, broadcast_budget_bytes=40e6
    )
    service = QueryService(cluster)
    _load_universe(service, fact_rows, seed)

    templates = service_templates(template_count)
    template_picker = rng.derive(seed, "service", "templates")
    tenant_picker = rng.derive(seed, "service", "tenants")
    template_weights = zipf_weights(len(templates))
    tenant_weights = zipf_weights(tenants, exponent=0.6)
    names = [f"tenant-{i}" for i in range(tenants)]

    handles = []
    for i in range(query_count):
        # every tenant opens the workload with one query; the rest is skewed
        tenant = (
            names[i]
            if i < tenants
            else tenant_picker.choices(names, weights=tenant_weights)[0]
        )
        label, query = template_picker.choices(
            templates, weights=template_weights
        )[0]
        handles.append(
            service.session(tenant).submit(query, "dynamic", label=label)
        )
    service.run_all()

    latencies = sorted(
        handle.schedule.latency_seconds for handle in handles
    )
    per_tenant: dict[str, list] = {name: [] for name in names}
    for handle in handles:
        per_tenant[handle.schedule.tenant].append(handle.schedule)
    tenant_lines = [
        TenantLine(
            tenant=name,
            queries=len(schedules),
            cache_hits=sum(1 for s in schedules if s.cache_hit),
            mean_latency=(
                sum(s.latency_seconds for s in schedules) / len(schedules)
                if schedules
                else 0.0
            ),
            max_latency=max((s.latency_seconds for s in schedules), default=0.0),
        )
        for name, schedules in per_tenant.items()
    ]
    makespan = service.scheduler.timeline.makespan_seconds
    timeline_tenants = service.scheduler.timeline.tenant_names()

    # Invalidation probe: re-ingesting a dimension bumps its catalog version,
    # which must evict every cached result/intermediate computed from it —
    # the resubmitted hot template has to run for real (cache miss).
    service.reset_scheduler()
    service.load("da", _dim_schema("a"), _dim_rows("a", 50, 7), replace=True)
    hot_label, hot_query = templates[0]
    probe = service.session(names[0]).submit(hot_query, "dynamic", label=hot_label)
    service.run_all()

    stats = service.cache.stats
    return ServiceReport(
        tenants=tenants,
        query_count=query_count,
        template_count=len(templates),
        fact_rows=fact_rows,
        makespan_seconds=makespan,
        p50=percentile(latencies, 0.50),
        p95=percentile(latencies, 0.95),
        p99=percentile(latencies, 0.99),
        cache_hit_rate=stats.result_hits / max(1, len(handles)),
        result_hits=stats.result_hits,
        intermediate_hits=stats.intermediate_hits,
        intermediate_misses=stats.intermediate_misses,
        invalidations=stats.invalidations,
        tenant_lines=tenant_lines,
        timeline_tenants=timeline_tenants,
        probe_result_cached=probe.schedule.cache_hit,
    )


def format_service(report: ServiceReport) -> str:
    lines = [
        f"query service under skew: {report.query_count} queries, "
        f"{report.tenants} tenants, {report.template_count} Zipf templates "
        f"({report.fact_rows} fact rows)",
        f"  makespan {report.makespan_seconds:.2f}s simulated; latency "
        f"p50 {report.p50:.2f}s  p95 {report.p95:.2f}s  p99 {report.p99:.2f}s",
        f"  result cache: {report.result_hits} hits "
        f"({report.cache_hit_rate:.0%} of queries); intermediate cache: "
        f"{report.intermediate_hits} replays / "
        f"{report.intermediate_misses} misses; "
        f"{report.invalidations} invalidations",
        f"  timeline lanes: {len(report.timeline_tenants)} tenants",
        "  re-ingest probe: da replaced -> hot template "
        + (
            "WRONGLY served from cache (invalidation broken!)"
            if report.probe_result_cached
            else "correctly re-ran (result cache invalidated)"
        ),
        "",
        f"  {'tenant':10s} {'queries':>8s} {'cached':>7s}"
        f" {'mean lat s':>11s} {'max lat s':>10s}",
    ]
    for line in report.tenant_lines:
        lines.append(
            f"  {line.tenant:10s} {line.queries:8d} {line.cache_hits:7d}"
            f" {line.mean_latency:11.2f} {line.max_latency:10.2f}"
        )
    return "\n".join(lines)


def write_baseline(report: ServiceReport, path: str = BASELINE_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(report.baseline(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_baseline(
    report: ServiceReport, path: str = BASELINE_PATH
) -> list[str]:
    """Violations of the recorded baseline (empty list = within tolerance).

    Latency percentiles may drift ±``LATENCY_TOLERANCE`` relative; the
    cache hit rate may not drop more than ``HIT_RATE_TOLERANCE`` absolute.
    A missing baseline file is itself a violation — record one with
    ``--write-baseline``.
    """
    if not os.path.exists(path):
        return [f"no baseline recorded at {path} (run with --write-baseline)"]
    with open(path) as fh:
        baseline = json.load(fh)
    current = report.baseline()
    violations = []
    for key in ("p50", "p95", "p99", "makespan_seconds"):
        recorded = baseline.get(key, 0.0)
        observed = current[key]
        allowed = abs(recorded) * LATENCY_TOLERANCE
        if abs(observed - recorded) > allowed:
            violations.append(
                f"{key}: {observed:.2f}s vs recorded {recorded:.2f}s "
                f"(tolerance ±{LATENCY_TOLERANCE:.0%})"
            )
    recorded_rate = baseline.get("cache_hit_rate", 0.0)
    if current["cache_hit_rate"] < recorded_rate - HIT_RATE_TOLERANCE:
        violations.append(
            f"cache_hit_rate: {current['cache_hit_rate']:.0%} vs recorded "
            f"{recorded_rate:.0%} (tolerance -{HIT_RATE_TOLERANCE:.0%})"
        )
    for key in ("query_count", "tenants"):
        if baseline.get(key) != current[key]:
            violations.append(
                f"{key}: {current[key]} vs recorded {baseline.get(key)} "
                "(workload shape changed; re-record the baseline)"
            )
    return violations
