"""Benchmark-owned span recorder: host-clock spans around public callables.

The traced run patches a declared table of wrap points (``WRAP_POINTS``) by
dotted name — class methods on the class, module functions in every loaded
``repro.*`` namespace that holds the original object (``from x import f``
copies the reference), and ``stages()`` generators so each ``send`` is one
span — and never anything that is called once per value. Spans live in
memory as flat lists and are written as JSONL when the run ends.

A wrap point that no longer resolves is reported in ``Recorder.unresolved``
and its metrics read as missing; it never fails the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# span record layout (a list, mutated in place while the span is open)
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Recorder:
    """In-memory span store with a parent stack (one thread, so one stack)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.op_id = -1
        self.unresolved: list[str] = []
        #: span names with at least one wrap point installed
        self.resolved: set[str] = set()
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self._open[name] = self._open.get(name, 0) + 1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id, None])
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        self._open[span[NAME]] -= 1
        self._stack.pop()

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    # -- analysis -------------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Per span: duration minus the part its direct children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def totals(self, include_setup: bool) -> dict[str, dict]:
        """Per span name: calls, busy (inclusive) and self seconds, attr sums
        — over the timed ops, or over the set-up as well."""
        own = self.self_seconds()
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, own):
            if span[OP] < 0 and not include_setup:
                continue
            entry = out.setdefault(
                span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": {}}
            )
            entry["calls"] += 1
            entry["busy_s"] += span[END] - span[START]
            entry["self_s"] += self_s
            if span[ATTRS]:
                sums = entry["attrs"]
                for key, value in span[ATTRS].items():
                    sums[key] = sums.get(key, 0) + value
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "op": span[OP],
                }
                if span[ATTRS]:
                    record["attrs"] = span[ATTRS]
                out.write(json.dumps(record) + "\n")

    # -- patching -------------------------------------------------------------

    def install(self, wrap_points=None) -> None:
        self.unresolved = []
        for point in WRAP_POINTS if wrap_points is None else wrap_points:
            try:
                self._install_one(point)
            except (ImportError, AttributeError) as error:
                self.unresolved.append(f"{point.target} ({error})")
            else:
                self.resolved.add(point.span)

    @contextlib.contextmanager
    def recording(self):
        """Wrap points installed and recording for the duration of the block."""
        self.install()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            self.uninstall()

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _install_one(self, point: WrapPoint) -> None:
        owner, attribute = resolve_owner(point.target)
        raw = inspect.getattr_static(owner, attribute)
        make = _wrap_stages if point.stages else _wrap_call
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(self, point, raw.__func__))
            self._patch(owner, attribute, wrapped)
        elif inspect.isclass(owner):
            self._patch(owner, attribute, make(self, point, raw))
        else:
            wrapped = make(self, point, raw)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, wrapped)


@dataclass(frozen=True)
class WrapPoint:
    """One declared wrap point: dotted target -> span name (+ optional hooks).

    ``attrs(args, kwargs, result) -> dict`` attaches summable numbers to the
    span; ``probe(args) -> tuple`` is read before and after the call and its
    per-position differences land in the attrs named by ``probe_names``.
    ``stages`` marks a generator function whose every ``send`` is a span.
    Nested calls into an already-open span of the same name are not recorded
    (recursive estimators count once, at the outermost call).
    """

    target: str
    span: str
    attrs: Callable | None = None
    probe: Callable | None = None
    probe_names: tuple[str, ...] = ()
    stages: bool = False


def resolve_owner(target: str):
    """``pkg.mod.Class.method`` / ``pkg.mod.func`` -> (owner object, attr)."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        getattr(owner, parts[-1])  # AttributeError -> unresolved
        return owner, parts[-1]
    raise ImportError(f"no importable module in {target!r}")


def _wrap_call(recorder: Recorder, point: WrapPoint, function):
    name, attrs, probe = point.span, point.attrs, point.probe

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not recorder.enabled or recorder.is_open(name):
            return function(*args, **kwargs)
        before = probe(args) if probe else None
        index = recorder.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(index)
        if attrs or probe:
            found = dict(attrs(args, kwargs, result)) if attrs else {}
            if probe:
                for key, old, new in zip(point.probe_names, before, probe(args)):
                    found[key] = new - old
            recorder.spans[index][ATTRS] = found
        return result

    return traced


def _wrap_stages(recorder: Recorder, point: WrapPoint, function):
    name = point.span

    @functools.wraps(function)
    def traced(*args, **kwargs):
        inner = function(*args, **kwargs)
        if not recorder.enabled:
            return inner
        return _spanned_generator(recorder, name, inner)

    return traced


def _spanned_generator(recorder: Recorder, name: str, inner):
    """Forward a stage generator, one span per resumption of ``inner``.

    Spans close before control returns to the driver, so no span is ever
    open across a ``yield`` and the parent stack stays well nested however
    the scheduler interleaves queries.
    """
    payload = None
    try:
        while True:
            index = recorder.begin(name)
            try:
                item = inner.send(payload)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder.end(index)
            payload = yield item
    finally:
        inner.close()


# -- the wrap table ---------------------------------------------------------------


def _rows_in_tables(args, kwargs, result):
    return {"rows": sum(len(rows) for rows in result.values())}


def _load_attrs(args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[2]
    restored = kwargs.get("precollected") is not None
    return {"rows": len(rows), "restored_rows": len(rows) if restored else 0}


def _observe_rows_attrs(args, kwargs, result):
    collector, rows = args[0], args[1]
    count = len(rows) if hasattr(rows, "__len__") else 0
    return {"values": count * len(collector.fields)}


def _observe_columns_attrs(args, kwargs, result):
    collector, length = args[0], args[2]
    return {"values": length * len(collector.fields)}


def _exchange_attrs(args, kwargs, result):
    return {"rows": sum(partition.length for partition in args[0])}


def _semi_join_attrs(args, kwargs, result):
    return {"probed": args[1], "kept": result[1]}


def _scheduler_counters(args):
    scheduler = args[0]
    return (scheduler.cluster_jobs, scheduler.scans_saved)


_OPTIMIZER_STAGES = (
    "repro.core.driver.DynamicOptimizer",
    "repro.optimizers.static_cost.CostBasedOptimizer",
    "repro.optimizers.from_order.FromOrderOptimizer",
    "repro.optimizers.best_order.BestOrderOptimizer",
    "repro.optimizers.worst_order.WorstOrderOptimizer",
    "repro.optimizers.pilot_run.PilotRunOptimizer",
    "repro.optimizers.ingres.IngresLikeOptimizer",
    "repro.optimizers.greedy_static.GreedyStaticOptimizer",
    "repro.optimizers.sketch_online.SketchOnlineOptimizer",
    "repro.optimizers.transfer.PredicateTransferOptimizer",
)

WRAP_POINTS = (
    # workloads / storage / stats
    WrapPoint("repro.workloads.spec.WorkloadSpec.generate", "workloads.generate",
              attrs=_rows_in_tables),
    WrapPoint("repro.storage.ingest.load_dataset", "storage.ingest.load",
              attrs=_load_attrs),
    WrapPoint("repro.storage.dataset.partition_rows", "storage.ingest.partition"),
    WrapPoint("repro.stats.collector.StatisticsCollector.observe_rows",
              "stats.collector.observe_rows", attrs=_observe_rows_attrs),
    WrapPoint("repro.stats.collector.StatisticsCollector.observe_columns",
              "stats.collector.observe_columns", attrs=_observe_columns_attrs),
    *(
        WrapPoint(f"repro.stats.estimation.{function}", "stats.estimation")
        for function in (
            "filtered_cardinality",
            "join_cardinality",
            "conjunctive_selectivity",
            "predicate_selectivity",
        )
    ),
    # sketches (merge/derive paths only: add() is per value)
    WrapPoint("repro.sketches.hyperloglog.HyperLogLog.merge", "sketches.hll.merge"),
    WrapPoint("repro.sketches.gk.GKQuantileSketch.merge", "sketches.gk.merge"),
    WrapPoint("repro.sketches.histogram.EquiHeightHistogram.from_sketch",
              "sketches.histogram.from_sketch"),
    # lang
    WrapPoint("repro.lang.parser.parse_query", "lang.parser.parse"),
    # optimizers / algebra / core
    *(
        WrapPoint(f"{cls}.stages", "optimizers.stages", stages=True)
        for cls in _OPTIMIZER_STAGES
    ),
    WrapPoint("repro.optimizers.enumeration.best_bushy_plan",
              "optimizers.enumeration.dp"),
    *(
        WrapPoint(f"repro.algebra.estimation.PlanEstimator.{method}",
                  "algebra.estimation")
        for method in ("estimate", "cout_cost", "plan_cost")
    ),
    *(
        WrapPoint(f"repro.algebra.jobgen.{function}", "algebra.jobgen")
        for function in (
            "build_final_job",
            "build_sink_job",
            "build_transfer_job",
            "build_pushdown_job",
        )
    ),
    WrapPoint("repro.core.driver.DynamicOptimizer.resume_stages",
              "core.driver.replan", stages=True),
    WrapPoint("repro.core.predicate_pushdown.pushdown_stages",
              "core.pushdown.stages", stages=True),
    WrapPoint("repro.core.predicate_transfer.transfer_stages",
              "core.transfer.stages", stages=True),
    # engine
    WrapPoint("repro.engine.executor.Executor.execute", "engine.executor.execute"),
    WrapPoint("repro.engine.exchange.columnar_hash_exchange",
              "engine.exchange.hash", attrs=_exchange_attrs),
    WrapPoint("repro.engine.exchange.columnar_broadcast_exchange",
              "engine.exchange.broadcast", attrs=_exchange_attrs),
    WrapPoint("repro.engine.vector.route_partitions",
              "engine.vector.route_partitions"),
    WrapPoint("repro.engine.vector.build_hash_table", "engine.vector.build"),
    WrapPoint("repro.engine.vector.probe_hash_table", "engine.vector.probe"),
    WrapPoint("repro.engine.vector.fused_filter_project",
              "engine.vector.filter_project"),
    WrapPoint("repro.engine.vector.filter_columns", "engine.vector.filter_project"),
    WrapPoint("repro.engine.bloom.BloomFilter.build", "engine.bloom"),
    WrapPoint("repro.engine.vector.semi_join_filter", "engine.bloom",
              attrs=_semi_join_attrs),
    # scheduler / service
    WrapPoint("repro.engine.scheduler.scheduler.JobScheduler.run_all",
              "engine.scheduler.run_all", probe=_scheduler_counters,
              probe_names=("cluster_jobs", "scans_saved")),
    WrapPoint("repro.session.Session.submit", "service.submit"),
    WrapPoint("repro.service.cache.ServiceCache.lookup_result",
              "service.cache.lookup"),
    WrapPoint("repro.service.cache.ServiceCache.fetch_intermediate",
              "service.cache.lookup"),
    WrapPoint("repro.service.store.ingest_token", "service.store.ingest_token"),
    WrapPoint("repro.service.store.ServiceStore.save", "service.store.save"),
    WrapPoint("repro.service.store.ServiceStore.load", "service.store.load"),
)
