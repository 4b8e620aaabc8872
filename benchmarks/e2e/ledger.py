"""The per-layer ledger: traced-run spans + library counters -> named metrics.

``_s`` metrics are busy (inclusive) host seconds of the named wrap point
(``optimizers.plan_s`` and ``engine.scheduler.glue_s`` are self time), summed
over the timed op list; the ingestion group (``workloads.*``,
``storage.ingest.*``, ``stats.collector.observe_rows*``) also covers the
set-up, because that is where three of the four workloads ingest. Counts
and simulated numbers repeat exactly for a given seed. A metric whose wrap point did not resolve is ``None`` here
(``run.py`` prints it as 0 with a warning, because the result line must hold
numbers).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import repro.workloads
from spans import ATTRS, END, NAME, START, resolve_owner

SIM_FIELDS = (
    "startup", "scan", "compute", "network", "materialize",
    "spill", "stats", "index", "output",
)  # fmt: skip

#: (name, unit, better) of every per-layer metric, in ledger order
PER_LAYER = (
    ("workloads.generate_s", "s", "lower"),
    ("workloads.rows_generated", "count", "lower"),
    ("storage.ingest.load_s", "s", "lower"),
    ("storage.ingest.rows_per_s", "1/s", "higher"),
    ("storage.ingest.partition_s", "s", "lower"),
    ("storage.ingest.restore_load_s", "s", "lower"),
    ("stats.collector.observe_rows_s", "s", "lower"),
    ("stats.collector.values_observed", "count", "lower"),
    ("stats.collector.ingest_share", "ratio", "lower"),
    ("stats.collector.observe_columns_s", "s", "lower"),
    ("stats.estimation.s", "s", "lower"),
    ("stats.estimation.calls", "count", "lower"),
    ("sketches.gk.add_values_per_s", "1/s", "higher"),
    ("sketches.hll.add_values_per_s", "1/s", "higher"),
    ("common.rng.stable_hash_per_s", "1/s", "higher"),
    ("sketches.hll.merge_s", "s", "lower"),
    ("sketches.hll.merges", "count", "lower"),
    ("sketches.gk.merge_s", "s", "lower"),
    ("sketches.histogram.from_sketch_s", "s", "lower"),
    ("sketches.histogram.from_sketch_calls", "count", "lower"),
    ("lang.parser.parse_s", "s", "lower"),
    ("lang.parser.queries", "count", "lower"),
    ("optimizers.plan_s", "s", "lower"),
    ("optimizers.stages_s", "s", "lower"),
    ("optimizers.enumeration.dp_s", "s", "lower"),
    ("optimizers.enumeration.calls", "count", "lower"),
    ("optimizers.sim_speedup_dynamic_vs_cost_based", "ratio", "higher"),
    ("algebra.estimation.estimate_s", "s", "lower"),
    ("algebra.estimation.calls", "count", "lower"),
    ("algebra.jobgen.compile_s", "s", "lower"),
    ("algebra.jobgen.jobs", "count", "lower"),
    ("core.driver.replan_s", "s", "lower"),
    ("core.driver.reopt_points", "count", "lower"),
    ("core.pushdown.jobs", "count", "lower"),
    ("core.policy.decisions", "count", "lower"),
    ("core.transfer.rows_kept_share", "ratio", "lower"),
    ("analysis.verify_s", "s", "lower"),
    ("analysis.jobs_verified", "count", "lower"),
    ("analysis.diagnostics", "count", "lower"),
    ("analysis.verify_share", "ratio", "lower"),
    ("engine.executor.execute_s", "s", "lower"),
    ("engine.executor.jobs", "count", "lower"),
    ("engine.exchange.hash_s", "s", "lower"),
    ("engine.exchange.broadcast_s", "s", "lower"),
    ("engine.exchange.rows_routed", "count", "lower"),
    ("engine.vector.route_partitions_s", "s", "lower"),
    ("engine.vector.build_s", "s", "lower"),
    ("engine.vector.probe_s", "s", "lower"),
    ("engine.vector.filter_project_s", "s", "lower"),
    ("engine.bloom.s", "s", "lower"),
    ("engine.bloom.probes", "count", "lower"),
    ("engine.tuples_scanned", "count", "lower"),
    ("engine.tuples_joined", "count", "lower"),
    ("engine.rows_materialized", "count", "lower"),
    ("engine.cold_first_pass_ratio", "ratio", "lower"),
    ("engine.scheduler.glue_s", "s", "lower"),
    ("engine.scheduler.cluster_jobs", "count", "lower"),
    ("engine.scheduler.scans_saved", "count", "higher"),
    ("engine.scheduler.scan_merge_share", "ratio", "higher"),
    ("engine.scheduler.sim_queue_delay_s", "s", "lower"),
    ("engine.scheduler.failed_queries", "count", "lower"),
    ("engine.scheduler.rejected", "count", "lower"),
    *((f"cluster.sim.{name}_s", "s", "lower") for name in SIM_FIELDS),
    ("cluster.sim.reopt_overhead_share", "ratio", "lower"),
    ("service.cache.result_hit_rate", "ratio", "higher"),
    ("service.cache.intermediate_hit_rate", "ratio", "higher"),
    ("service.cache.invalidations", "count", "lower"),
    ("service.cache.lookup_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.store.ingest_token_s", "s", "lower"),
    ("service.store.save_s", "s", "lower"),
    ("service.store.load_s", "s", "lower"),
    ("service.store.bytes", "count", "lower"),
    ("obs.explain_analyze_s", "s", "lower"),
    ("obs.trace_export_s", "s", "lower"),
    ("obs.spans_per_query", "count", "lower"),
    ("obs.timeline_render_s", "s", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.oracle_check_s", "s", "lower"),
)

#: span name -> (busy-seconds metric, calls metric); None skips that half
_SPAN_METRICS = {
    "workloads.generate": ("workloads.generate_s", None),
    "storage.ingest.load": ("storage.ingest.load_s", None),
    "storage.ingest.partition": ("storage.ingest.partition_s", None),
    "stats.collector.observe_rows": ("stats.collector.observe_rows_s", None),
    "stats.collector.observe_columns": ("stats.collector.observe_columns_s", None),
    "stats.estimation": ("stats.estimation.s", "stats.estimation.calls"),
    "sketches.hll.merge": ("sketches.hll.merge_s", "sketches.hll.merges"),
    "sketches.gk.merge": ("sketches.gk.merge_s", None),
    "sketches.histogram.from_sketch": (
        "sketches.histogram.from_sketch_s",
        "sketches.histogram.from_sketch_calls",
    ),
    "lang.parser.parse": ("lang.parser.parse_s", "lang.parser.queries"),
    "optimizers.stages": ("optimizers.stages_s", None),
    "optimizers.enumeration.dp": (
        "optimizers.enumeration.dp_s",
        "optimizers.enumeration.calls",
    ),
    "algebra.estimation": ("algebra.estimation.estimate_s", "algebra.estimation.calls"),
    "algebra.jobgen": ("algebra.jobgen.compile_s", "algebra.jobgen.jobs"),
    "core.driver.replan": ("core.driver.replan_s", None),
    "engine.executor.execute": ("engine.executor.execute_s", "engine.executor.jobs"),
    "engine.exchange.hash": ("engine.exchange.hash_s", None),
    "engine.exchange.broadcast": ("engine.exchange.broadcast_s", None),
    "engine.vector.route_partitions": ("engine.vector.route_partitions_s", None),
    "engine.vector.build": ("engine.vector.build_s", None),
    "engine.vector.probe": ("engine.vector.probe_s", None),
    "engine.vector.filter_project": ("engine.vector.filter_project_s", None),
    "engine.bloom": ("engine.bloom.s", None),
    "service.cache.lookup": ("service.cache.lookup_s", None),
    "service.submit": ("service.submit_s", None),
    "service.store.ingest_token": ("service.store.ingest_token_s", None),
    "service.store.save": ("service.store.save_s", None),
    "service.store.load": ("service.store.load_s", None),
}


#: spans summed over set-up + ops (everything else: timed ops only)
_INGESTION_SPANS = {
    "workloads.generate",
    "storage.ingest.load",
    "storage.ingest.partition",
    "stats.collector.observe_rows",
}

#: metrics computed from a span's attrs/self time -> the span they need
_DERIVED_FROM = {
    "workloads.rows_generated": "workloads.generate",
    "storage.ingest.restore_load_s": "storage.ingest.load",
    "storage.ingest.rows_per_s": "storage.ingest.load",
    "stats.collector.values_observed": "stats.collector.observe_rows",
    "stats.collector.ingest_share": "stats.collector.observe_rows",
    "optimizers.plan_s": "optimizers.stages",
    "engine.exchange.rows_routed": "engine.exchange.hash",
    "engine.bloom.probes": "engine.bloom",
    "core.transfer.rows_kept_share": "engine.bloom",
    "engine.scheduler.glue_s": "engine.scheduler.run_all",
    "engine.scheduler.cluster_jobs": "engine.scheduler.run_all",
    "engine.scheduler.scans_saved": "engine.scheduler.run_all",
    "engine.scheduler.scan_merge_share": "engine.scheduler.run_all",
}


class ResultObserver:
    """Sums what each finished result says about the simulated cluster, and
    times the observability exports on it (traced runs only)."""

    def __init__(self) -> None:
        self.sim = dict.fromkeys(SIM_FIELDS, 0.0)
        self.sim_total = 0.0
        self.reopt_seconds = 0.0
        self.tuples_scanned = 0
        self.tuples_joined = 0
        self.rows_materialized = 0
        self.reopt_points = 0
        self.pushdown_jobs = 0
        self.decisions = 0
        self.queue_delay = 0.0
        self.results = 0
        self.trace_spans = 0
        self.explain_seconds = 0.0
        self.export_seconds = 0.0

    def __call__(self, result) -> None:
        metrics = result.metrics
        for name, seconds in metrics.breakdown().items():
            self.sim[name] += seconds
        self.sim_total += metrics.total_seconds
        self.reopt_seconds += metrics.reoptimization_seconds + metrics.stats_seconds
        self.tuples_scanned += metrics.tuples_scanned
        self.tuples_joined += metrics.tuples_joined
        self.rows_materialized += metrics.rows_materialized
        self.reopt_points += sum(1 for p in result.phases if p.startswith("join:"))
        self.pushdown_jobs += sum(1 for p in result.phases if p.startswith("pushdown:"))
        self.decisions += len(result.decisions)
        if result.schedule is not None:
            self.queue_delay += result.schedule.queue_delay_seconds
        self.results += 1
        started = perf_counter()
        result.explain_analyze()
        explained = perf_counter()
        if result.trace is not None:
            result.trace.to_json()
            result.trace.to_chrome_trace()
            self.trace_spans += len(result.trace.spans())
        self.explain_seconds += explained - started
        self.export_seconds += perf_counter() - explained


def verifier_counters(executors) -> dict:
    """Summed ``VerifierStats`` fields over the given executors."""
    total = {"jobs": 0, "diagnostics": 0, "seconds": 0.0}
    for executor in executors:
        stats = executor.verifier_stats
        total["jobs"] += stats.jobs_verified
        total["diagnostics"] += stats.diagnostics_found
        total["seconds"] += stats.total_wall_seconds
    return total


def _drive_gk(sketch_class, values) -> None:
    sketch = sketch_class()
    for value in values:
        sketch.add(value)
    sketch.quantile(0.5)  # flush the insert buffer inside the timing


def _drive_hll(sketch_class, values) -> None:
    sketch = sketch_class()
    for value in values:
        sketch.add(value)


def _drive_hash(stable_hash, values) -> None:
    for value in values:
        stable_hash(value)


#: (metric, dotted target, driver, input column) of each micro-driver
_MICRO_DRIVERS = (
    ("sketches.gk.add_values_per_s", "repro.sketches.gk.GKQuantileSketch",
     _drive_gk, "numeric"),
    ("sketches.hll.add_values_per_s", "repro.sketches.hyperloglog.HyperLogLog",
     _drive_hll, "mixed"),
    ("common.rng.stable_hash_per_s", "repro.common.rng.stable_hash",
     _drive_hash, "mixed"),
)  # fmt: skip


def sketch_rates(repeats: int = 3) -> dict:
    """Micro-drivers: values/s of the per-value sketch paths, driven over
    real generated columns (``lineitem`` numeric, ``cast_info`` string) —
    the paths the span recorder must not wrap. ``None`` where the target no
    longer resolves."""
    lineitem = repro.workloads.get_workload("tpch", 100, 42).generate()["lineitem"]
    cast_info = repro.workloads.get_workload("job", 100, 42).generate()["cast_info"]
    numeric = [float(row["l_extendedprice"]) for row in lineitem]
    columns = {"numeric": numeric, "mixed": numeric + [row["ci_movie"] for row in cast_info]}
    out = {}
    for metric, target, drive, column in _MICRO_DRIVERS:
        try:
            owner, attribute = resolve_owner(target)
        except (ImportError, AttributeError):
            out[metric] = None
            continue
        subject, values = getattr(owner, attribute), columns[column]
        walls = []
        for _ in range(repeats):
            started = perf_counter()
            drive(subject, values)
            walls.append(perf_counter() - started)
        out[metric] = len(values) / statistics.median(walls)
    return out


def build_ledger(
    recorder,
    records,
    observer: ResultObserver,
    workload,
    reference,
    verifier: dict,
    oracle_seconds: float,
) -> dict:
    """Every per-layer metric by name (``None`` = wrap point unresolved).

    ``records`` is the traced pass, ``reference`` the untraced pass over the
    same op list, ``verifier`` the ``verifier_counters`` delta of the traced
    pass.
    """
    traced_wall = sum(record.seconds for record in records)
    ops_totals = recorder.totals(include_setup=False)
    all_totals = recorder.totals(include_setup=True)
    ledger = dict.fromkeys(name for name, _, _ in PER_LAYER)

    def span(name: str) -> dict:
        totals = all_totals if name in _INGESTION_SPANS else ops_totals
        return totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": {}})

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    for span_name, (busy_metric, calls_metric) in _SPAN_METRICS.items():
        if span_name not in recorder.resolved:
            continue
        ledger[busy_metric] = span(span_name)["busy_s"]
        if calls_metric:
            ledger[calls_metric] = span(span_name)["calls"]

    load = span("storage.ingest.load")
    restored_rows = load["attrs"].get("restored_rows", 0)
    restore_s = sum(
        s[END] - s[START]
        for s in recorder.spans
        if s[NAME] == "storage.ingest.load" and s[ATTRS] and s[ATTRS]["restored_rows"]
    )
    ledger["storage.ingest.restore_load_s"] = restore_s
    ledger["storage.ingest.rows_per_s"] = ratio(
        load["attrs"].get("rows", 0) - restored_rows, load["busy_s"] - restore_s
    )
    ledger["workloads.rows_generated"] = span("workloads.generate")["attrs"].get("rows", 0)
    observe_rows = span("stats.collector.observe_rows")
    ledger["stats.collector.values_observed"] = observe_rows["attrs"].get("values", 0)
    ledger["stats.collector.ingest_share"] = ratio(observe_rows["busy_s"], load["busy_s"])
    ledger["optimizers.plan_s"] = span("optimizers.stages")["self_s"]
    ledger["engine.exchange.rows_routed"] = span("engine.exchange.hash")["attrs"].get(
        "rows", 0
    ) + span("engine.exchange.broadcast")["attrs"].get("rows", 0)
    bloom = span("engine.bloom")["attrs"]
    ledger["engine.bloom.probes"] = bloom.get("probed", 0)
    ledger["core.transfer.rows_kept_share"] = ratio(bloom.get("kept", 0), bloom.get("probed", 0))

    run_all = span("engine.scheduler.run_all")
    jobs = run_all["attrs"].get("cluster_jobs", 0)
    saved = run_all["attrs"].get("scans_saved", 0)
    ledger["engine.scheduler.glue_s"] = run_all["self_s"]
    ledger["engine.scheduler.cluster_jobs"] = jobs
    ledger["engine.scheduler.scans_saved"] = saved
    ledger["engine.scheduler.scan_merge_share"] = ratio(saved, jobs + saved)
    ledger["engine.scheduler.sim_queue_delay_s"] = observer.queue_delay
    ledger["engine.scheduler.failed_queries"] = sum(
        1 for r in records for q in r.outcome.queries if q.digest is None
    )
    ledger["engine.scheduler.rejected"] = sum(
        1 for r in records if (r.outcome.error or "").startswith("AdmissionError")
    )

    sim_by_planner = {"dynamic": 0.0, "cost_based": 0.0}
    for record in records:
        planner = record.label.rpartition("|")[2]
        if planner in sim_by_planner:
            sim_by_planner[planner] += record.outcome.sim_seconds
    ledger["optimizers.sim_speedup_dynamic_vs_cost_based"] = ratio(
        sim_by_planner["cost_based"], sim_by_planner["dynamic"]
    )
    ledger["core.driver.reopt_points"] = observer.reopt_points
    ledger["core.pushdown.jobs"] = observer.pushdown_jobs
    ledger["core.policy.decisions"] = observer.decisions
    ledger["engine.tuples_scanned"] = observer.tuples_scanned
    ledger["engine.tuples_joined"] = observer.tuples_joined
    ledger["engine.rows_materialized"] = observer.rows_materialized
    for name in SIM_FIELDS:
        ledger[f"cluster.sim.{name}_s"] = observer.sim[name]
    ledger["cluster.sim.reopt_overhead_share"] = ratio(
        observer.reopt_seconds, observer.sim_total
    )

    warm = {}
    for record in records:
        warm.setdefault(record.label, []).append(record.seconds)
    cold = workload.cold_seconds
    ledger["engine.cold_first_pass_ratio"] = ratio(
        sum(cold.values()),
        sum(statistics.median(warm[label]) for label in cold if label in warm),
    )

    ledger["analysis.verify_s"] = verifier["seconds"]
    ledger["analysis.jobs_verified"] = verifier["jobs"]
    ledger["analysis.diagnostics"] = verifier["diagnostics"]
    ledger["analysis.verify_share"] = ratio(verifier["seconds"], traced_wall)

    sources = workload.layer_sources()
    cache = sources.get("cache")
    ledger["service.cache.result_hit_rate"] = cache.stats.result_hit_rate if cache else 0.0
    ledger["service.cache.intermediate_hit_rate"] = (
        cache.stats.intermediate_hit_rate if cache else 0.0
    )
    ledger["service.cache.invalidations"] = cache.stats.invalidations if cache else 0
    ledger["service.store.bytes"] = sources.get("store_bytes", 0)

    ledger["obs.explain_analyze_s"] = observer.explain_seconds
    ledger["obs.trace_export_s"] = observer.export_seconds
    ledger["obs.spans_per_query"] = ratio(observer.trace_spans, observer.results)
    render_seconds = 0.0
    if "scheduler" in sources:
        started = perf_counter()
        sources["scheduler"].timeline.render()
        render_seconds = perf_counter() - started
    ledger["obs.timeline_render_s"] = render_seconds

    for metric, span_name in _DERIVED_FROM.items():
        if span_name not in recorder.resolved:
            ledger[metric] = None

    ledger.update(sketch_rates())
    # both walls are speed-normalized: the two passes run a minute apart
    ledger["bench.trace_overhead_share"] = 1.0 - ratio(
        sum(record.scaled for record in reference),
        sum(record.scaled for record in records),
    )
    ledger["bench.oracle_check_s"] = oracle_seconds
    return ledger
