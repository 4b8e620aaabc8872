"""Plan/job verifier: prove job invariants before anything launches.

The runtime dynamic driver compiles a fresh plan and job at every
re-optimization point (Algorithm 1 reconstructs the query around each
materialized intermediate), so plan bugs are *runtime* bugs: a dangling
column or a Reader over a released ``__q<id>`` namespace would otherwise
surface mid-query, after simulated hours of work. :func:`verify_job` walks a
compiled :class:`~repro.engine.job.Job` operator tree (and, when the job
carries its source :class:`~repro.algebra.plan.PlanNode`, the plan itself)
and returns typed diagnostics:

========  ==============================  ===========================================
code      rule                            invariant
========  ==============================  ===========================================
``P001``  dangling-column                 every referenced column is provided below
``P002``  reader-missing-intermediate     sources exist and have the right kind
``P003``  bad-phase-tail                  join/pushdown jobs end in Sink, final in
                                          DistributeResult
``P004``  join-key-type-mismatch          joined key columns have compatible types
``P005``  broadcast-over-budget           broadcast/INL builds fit the cluster budget
``P006``  cartesian-join                  every join carries at least one key pair
``P007``  duplicate-output-column         no silent column collisions in an output
========  ==============================  ===========================================

Column provenance reuses :func:`repro.algebra.jobgen.leaf_provides` /
:func:`node_provides`; existence checks go through the
:class:`~repro.storage.catalog.DatasetCatalog`; the budget check (``P005``)
replays the planner's own broadcast decision with the same
:class:`~repro.algebra.estimation.PlanEstimator` inputs (statistics catalog,
per-alias overrides, cluster threshold), so a plan the
JoinAlgorithmRule accepted can never trip it — only corrupted or hand-forced
plans do. The verifier never touches :class:`~repro.engine.metrics.JobMetrics`
or the simulated clock: verification has zero simulated cost.
"""

from __future__ import annotations

from repro.algebra.estimation import PlanEstimator
from repro.algebra.plan import JoinNode, PlanNode
from repro.algebra.toolkit import alias_stats_key
from repro.analysis.diagnostics import Diagnostic
from repro.cluster.config import ClusterConfig
from repro.cluster.cost import CostModel
from repro.common.errors import CatalogError
from repro.common.types import DataType
from repro.engine.job import Job
from repro.engine.operators.base import PhysicalOperator
from repro.engine.operators.joins import (
    BroadcastJoinOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    JoinAlgorithm,
)
from repro.engine.operators.filters import SemiJoinFilterOp
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.select import AssignOp, ProjectOp, SelectOp
from repro.engine.operators.sink import DistributeResultOp, SinkOp
from repro.engine.operators.tail import GroupByOp, LimitOp, OrderByOp
from repro.lang.ast import split_column
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog

#: How many rules one gate invocation evaluates (surfaced in trace records).
RULES_CHECKED_PER_JOB = 7

#: Type-compatibility classes for join keys (``P004``): joining INT to BIGINT
#: or DATE (stored as an int ordinal) is fine; joining a number to a STRING
#: or BOOLEAN silently produces an empty join — exactly the bug class P004
#: exists to catch.
_NUMERIC_CLASS = frozenset(
    (DataType.INT, DataType.BIGINT, DataType.DOUBLE, DataType.DATE)
)


def _types_compatible(left: DataType, right: DataType) -> bool:
    if left is right:
        return True
    return left in _NUMERIC_CLASS and right in _NUMERIC_CLASS


def verify_job(
    job: Job,
    datasets: DatasetCatalog,
    statistics: StatisticsCatalog | None = None,
    cluster: ClusterConfig | None = None,
    cost: CostModel | None = None,
) -> list[Diagnostic]:
    """All diagnostics for one compiled job (empty list == verified clean).

    ``statistics``/``cluster``/``cost`` enable the plan-level estimate checks
    (``P004``–``P006``) when the job carries its source plan; without them
    (or without ``job.plan``) only the operator-tree rules run.
    """
    diagnostics: list[Diagnostic] = []
    _check_phase_tail(job, diagnostics)
    _operator_columns(job.root, job, datasets, diagnostics)
    if job.plan is not None:
        diagnostics.extend(
            verify_plan(job.plan, datasets, statistics, cluster, cost, job=job)
        )
    return diagnostics


def verify_plan(
    plan: PlanNode,
    datasets: DatasetCatalog,
    statistics: StatisticsCatalog | None = None,
    cluster: ClusterConfig | None = None,
    cost: CostModel | None = None,
    job: Job | None = None,
) -> list[Diagnostic]:
    """Plan-tree rules: cartesian joins, key types, broadcast budgets."""
    diagnostics: list[Diagnostic] = []
    label = job.label if job is not None else plan.describe()
    phase = job.phase if job is not None else ""
    estimator = _make_estimator(plan, statistics, cluster, cost)
    for node in plan.join_nodes():
        if not node.build_keys or not node.probe_keys:
            diagnostics.append(
                _diag(
                    "P006",
                    f"join {node.describe()} has no key pairs (cross product)",
                    label,
                    phase,
                )
            )
            continue
        _check_key_types(node, datasets, diagnostics, label, phase)
        if estimator is not None and cluster is not None:
            _check_broadcast_budget(
                node, estimator, cluster, diagnostics, label, phase
            )
    return diagnostics


# -- operator-tree dataflow ----------------------------------------------------


def _diag(code: str, message: str, label: str, phase: str) -> Diagnostic:
    return Diagnostic(code=code, message=message, job_label=label, phase=phase)


def _operator_columns(
    op: PhysicalOperator,
    job: Job,
    datasets: DatasetCatalog,
    diagnostics: list[Diagnostic],
) -> set[str] | None:
    """Columns ``op`` provides to its consumer, or ``None`` when a broken
    source below already made the answer unknowable (avoids cascades)."""
    label, phase = job.label, job.phase

    if isinstance(op, ScanOp):
        if not datasets.has(op.dataset):
            diagnostics.append(
                _diag(
                    "P002",
                    f"Scan of unknown dataset {op.dataset!r}",
                    label,
                    phase,
                )
            )
            return None
        dataset = datasets.get(op.dataset)
        if dataset.is_intermediate:
            diagnostics.append(
                _diag(
                    "P002",
                    f"Scan targets base datasets; {op.dataset!r} is a "
                    "materialized intermediate (use Reader)",
                    label,
                    phase,
                )
            )
            return None
        return {f"{op.alias}.{name}" for name in dataset.schema.field_names}

    if isinstance(op, ReaderOp):
        if not datasets.has(op.dataset):
            diagnostics.append(
                _diag(
                    "P002",
                    f"Reader on missing intermediate {op.dataset!r} "
                    "(dropped or never materialized — released namespace?)",
                    label,
                    phase,
                )
            )
            return None
        dataset = datasets.get(op.dataset)
        if not dataset.is_intermediate:
            diagnostics.append(
                _diag(
                    "P002",
                    f"Reader targets intermediates; {op.dataset!r} is a "
                    "base dataset (use Scan)",
                    label,
                    phase,
                )
            )
            return None
        return set(dataset.schema.field_names)

    if isinstance(op, IndexNestedLoopJoinOp):
        build = _operator_columns(op.children[0], job, datasets, diagnostics)
        inner = _inl_inner_columns(op, datasets, diagnostics, label, phase)
        if build is not None:
            _require_columns(
                op.build_keys, build, f"{op.label()} build", diagnostics, label, phase
            )
        if build is None or inner is None:
            return None
        return build | inner

    if isinstance(op, (HashJoinOp, BroadcastJoinOp)):
        build = _operator_columns(op.children[0], job, datasets, diagnostics)
        probe = _operator_columns(op.children[1], job, datasets, diagnostics)
        if build is not None:
            _require_columns(
                op.build_keys, build, f"{op.label()} build", diagnostics, label, phase
            )
        if probe is not None:
            _require_columns(
                op.probe_keys, probe, f"{op.label()} probe", diagnostics, label, phase
            )
        if build is None or probe is None:
            return None
        overlap = build & probe
        if overlap:
            diagnostics.append(
                _diag(
                    "P007",
                    f"{op.label()} inputs both provide "
                    f"{sorted(overlap)}; the row merge would silently "
                    "overwrite the probe side's values",
                    label,
                    phase,
                )
            )
        return build | probe

    if isinstance(op, SelectOp):
        columns = _operator_columns(op.children[0], job, datasets, diagnostics)
        if columns is not None:
            _require_columns(
                tuple(p.column for p in op.predicates),
                columns,
                op.label(),
                diagnostics,
                label,
                phase,
            )
        return columns

    if isinstance(op, SemiJoinFilterOp):
        columns = _operator_columns(op.children[0], job, datasets, diagnostics)
        if columns is not None:
            _require_columns(
                tuple(column for column, _ in op.filters),
                columns,
                "SemiJoinFilter",
                diagnostics,
                label,
                phase,
            )
        return columns

    if isinstance(op, AssignOp):
        columns = _operator_columns(op.children[0], job, datasets, diagnostics)
        if columns is None:
            return None
        _require_columns((op.column,), columns, op.label(), diagnostics, label, phase)
        return columns | {op.target}

    if isinstance(op, ProjectOp):
        columns = _operator_columns(op.children[0], job, datasets, diagnostics)
        _check_duplicates(op.columns, op.label(), diagnostics, label, phase)
        if columns is None:
            return None
        _require_columns(op.columns, columns, op.label(), diagnostics, label, phase)
        return set(op.columns)

    if isinstance(op, GroupByOp):
        columns = _operator_columns(op.children[0], job, datasets, diagnostics)
        if columns is not None:
            _require_columns(op.keys, columns, op.label(), diagnostics, label, phase)
        return set(op.keys) | {"count"}

    if isinstance(op, OrderByOp):
        columns = _operator_columns(op.children[0], job, datasets, diagnostics)
        if columns is not None:
            _require_columns(op.keys, columns, op.label(), diagnostics, label, phase)
        return columns

    if isinstance(op, SinkOp):
        columns = _operator_columns(op.children[0], job, datasets, diagnostics)
        _check_duplicates(
            op.keep_columns, op.label(), diagnostics, label, phase
        )
        if columns is None:
            return None
        _require_columns(
            op.keep_columns, columns, op.label(), diagnostics, label, phase
        )
        # stats_columns are advisory: the sink tolerates (skips) absent ones.
        return set(op.keep_columns)

    if isinstance(op, (DistributeResultOp, LimitOp)):
        return _operator_columns(op.children[0], job, datasets, diagnostics)

    # Unknown operator types pass through their children's union: the
    # verifier stays permissive for operators it was not taught about.
    child_columns: set[str] = set()
    for child in op.children:
        columns = _operator_columns(child, job, datasets, diagnostics)
        if columns is None:
            return None
        child_columns |= columns
    return child_columns


def _inl_inner_columns(
    op: IndexNestedLoopJoinOp,
    datasets: DatasetCatalog,
    diagnostics: list[Diagnostic],
    label: str,
    phase: str,
) -> set[str] | None:
    if not datasets.has(op.inner_dataset):
        diagnostics.append(
            _diag(
                "P002",
                f"INL inner dataset {op.inner_dataset!r} is unknown",
                label,
                phase,
            )
        )
        return None
    dataset = datasets.get(op.inner_dataset)
    if dataset.is_intermediate:
        diagnostics.append(
            _diag(
                "P002",
                f"INL inner {op.inner_dataset!r} must be a base dataset "
                "(intermediates have no secondary indexes)",
                label,
                phase,
            )
        )
        return None
    if not op.inner_fields or not dataset.has_index(op.inner_fields[0]):
        field = op.inner_fields[0] if op.inner_fields else "<none>"
        diagnostics.append(
            _diag(
                "P002",
                f"INL requires a secondary index on "
                f"{op.inner_dataset}.{field}",
                label,
                phase,
            )
        )
        return None
    missing = [
        field for field in op.inner_fields if not dataset.schema.has_field(field)
    ]
    if missing:
        diagnostics.append(
            _diag(
                "P001",
                f"INL inner {op.inner_dataset!r} has no field(s) {missing}",
                label,
                phase,
            )
        )
    return {f"{op.inner_alias}.{f.name}" for f in dataset.schema.fields}


def _require_columns(
    needed: tuple[str, ...],
    available: set[str],
    where: str,
    diagnostics: list[Diagnostic],
    label: str,
    phase: str,
) -> None:
    missing = [column for column in needed if column not in available]
    if missing:
        diagnostics.append(
            _diag(
                "P001",
                f"{where} references column(s) {missing} not provided by "
                "its input",
                label,
                phase,
            )
        )


def _check_duplicates(
    columns: tuple[str, ...],
    where: str,
    diagnostics: list[Diagnostic],
    label: str,
    phase: str,
) -> None:
    seen: set[str] = set()
    duplicates: list[str] = []
    for column in columns:
        if column in seen and column not in duplicates:
            duplicates.append(column)
        seen.add(column)
    if duplicates:
        diagnostics.append(
            _diag(
                "P007",
                f"{where} lists duplicate output column(s) {duplicates}",
                label,
                phase,
            )
        )


# -- phase tails ---------------------------------------------------------------


def _check_phase_tail(job: Job, diagnostics: list[Diagnostic]) -> None:
    """``P003``: the job's root operator must match its phase contract.

    Materializing phases (push-down and join stages, sketch-refresh replans)
    must end in a Sink — their output feeds later stages through the catalog;
    the final phase must end in DistributeResult — results go to the user,
    nothing may linger in the catalogs. Jobs with other phase tags (e.g.
    single-job baselines) may end in either, but must end in one of the two.
    """
    root = job.root
    phase = job.phase
    if phase == "final" or phase == "single-shot":
        if not isinstance(root, DistributeResultOp):
            diagnostics.append(
                _diag(
                    "P003",
                    f"phase {phase!r} must end in DistributeResult, "
                    f"found {root.label()!r}",
                    job.label,
                    phase,
                )
            )
    elif phase.startswith(("pushdown", "join", "replan", "transfer")):
        if not isinstance(root, SinkOp):
            diagnostics.append(
                _diag(
                    "P003",
                    f"materializing phase {phase!r} must end in Sink, "
                    f"found {root.label()!r}",
                    job.label,
                    phase,
                )
            )
    elif not isinstance(root, (SinkOp, DistributeResultOp)):
        diagnostics.append(
            _diag(
                "P003",
                f"job must end in Sink or DistributeResult, "
                f"found {root.label()!r}",
                job.label,
                phase,
            )
        )


# -- plan-level rules ----------------------------------------------------------


def _make_estimator(
    plan: PlanNode,
    statistics: StatisticsCatalog | None,
    cluster: ClusterConfig | None,
    cost: CostModel | None,
) -> PlanEstimator | None:
    """The planner's own estimator, rebuilt from the verifier's inputs.

    Per-alias overrides (``__alias_stats_<alias>``, registered by pilot
    runs) shadow dataset-level entries exactly as
    :class:`~repro.algebra.toolkit.PlannerToolkit` resolves them, so the
    ``P005`` size check sees the same numbers the planner's broadcast
    decision saw. Missing statistics disable the estimate-based checks
    rather than producing false alarms.
    """
    if statistics is None or cluster is None:
        return None
    alias_map: dict[str, str] = {}
    for leaf in plan.leaves():
        override = alias_stats_key(leaf.alias)
        name = override if statistics.has(override) else leaf.dataset
        if not statistics.has(name):
            return None
        alias_map[leaf.alias] = name
    return PlanEstimator(
        statistics, alias_map, cluster, cost or CostModel(cluster)
    )


def _check_key_types(
    node: JoinNode,
    datasets: DatasetCatalog,
    diagnostics: list[Diagnostic],
    label: str,
    phase: str,
) -> None:
    for build_key, probe_key in zip(
        node.build_keys, node.probe_keys, strict=False
    ):
        build_type = _column_type(node.build, build_key, datasets)
        probe_type = _column_type(node.probe, probe_key, datasets)
        if build_type is None or probe_type is None:
            continue  # unresolvable columns are P001/P002 territory
        if not _types_compatible(build_type, probe_type):
            diagnostics.append(
                _diag(
                    "P004",
                    f"join key {build_key} ({build_type.value}) is "
                    f"incompatible with {probe_key} ({probe_type.value})",
                    label,
                    phase,
                )
            )


def _column_type(
    node: PlanNode, column: str, datasets: DatasetCatalog
) -> DataType | None:
    """Resolve a qualified column's type through the providing leaf."""
    for leaf in node.leaves():
        if not datasets.has(leaf.dataset):
            continue
        schema = datasets.get(leaf.dataset).schema
        if leaf.is_intermediate:
            if schema.has_field(column):
                return schema.field_type(column)
            continue
        alias, field = split_column(column)
        if alias == leaf.alias and schema.has_field(field):
            return schema.field_type(field)
    return None


def _check_broadcast_budget(
    node: JoinNode,
    estimator: PlanEstimator,
    cluster: ClusterConfig,
    diagnostics: list[Diagnostic],
    label: str,
    phase: str,
) -> None:
    """``P005``: replicated build sides must fit the broadcast budget.

    Applies to broadcast *and* INL joins (the INL build is broadcast to the
    inner's partitions under the same budget, ``INL_SIZE_FACTOR == 1``). The
    byte size replays the *planner's recorded decision*
    (:attr:`~repro.algebra.plan.JoinNode.decided_build_bytes`, captured by
    ``PlannerToolkit.make_join`` at the moment the JoinAlgorithmRule ran):
    the statistics behind that decision — measured intermediates of a
    dynamic run the best-order baseline replays, pilot samples, a
    strategy-specific composite rule — are often better than (or simply gone
    by) verify time, so re-deriving the size here would indict legitimate
    oracle decisions. A plan mutated via ``with_algorithm`` keeps its record
    — forcing BROADCAST onto a join whose build was sized over budget trips
    the rule — and hand-built nodes without a record fall back to a fresh
    estimate, so a forced over-budget broadcast is flagged either way before
    it can blow the join memory.
    """
    if node.algorithm not in (
        JoinAlgorithm.BROADCAST,
        JoinAlgorithm.INDEX_NESTED_LOOP,
    ):
        return
    byte_size = node.decided_build_bytes
    if byte_size < 0.0:
        try:
            byte_size = estimator.estimate(node.build).byte_size
        except (CatalogError, KeyError):
            return
    if byte_size > cluster.broadcast_threshold_bytes:
        diagnostics.append(
            _diag(
                "P005",
                f"{node.algorithm.value} build {node.build.describe()} is "
                f"estimated at {byte_size:.0f} modeled bytes, over "
                f"the {cluster.broadcast_threshold_bytes:.0f}-byte broadcast "
                "budget",
                label,
                phase,
            )
        )
