"""repro: reproduction of "Revisiting Runtime Dynamic Optimization for Join
Queries in Big Data Management Systems" (Pavlopoulou, Carey, Tsotras — EDBT
2022) as a self-contained simulated shared-nothing BDMS.

Public entry points:

- :class:`repro.Session` — load datasets, create indexes, execute queries
  under any of the registered optimization strategies.
- :class:`repro.PlannerSpec` — typed strategy selection (name + validated
  options), accepted by every Session entry point.
- :class:`repro.ReplanPolicy` — Q-error-triggered re-planning: a bad miss
  re-sketches the intermediate and widens the next pick.
- :class:`repro.QueryBuilder` — construct multi-join queries with simple,
  parameterized, and UDF predicates.
- :mod:`repro.workloads` — :func:`repro.workloads.get_workload`, the one
  way to generate and load a named universe: TPC-H / TPC-DS style
  generators with the paper's four evaluation queries, and the JOB-style
  workload whose skew/correlation knobs the skew sweep turns.
- :mod:`repro.bench` — harness regenerating every table and figure of the
  paper's evaluation section.
- :mod:`repro.analysis` — static analysis: the plan/job verifier behind the
  verify-on-compile gate (:class:`repro.Diagnostic` /
  :class:`repro.PlanVerificationError`) and the engine determinism lint.
- :class:`repro.QueryService` / :class:`repro.ServiceConfig` — the
  multi-tenant query service: one shared scheduler and persistent
  sketch store serving many tenant sessions, with result and
  intermediate caching under admission control (DESIGN.md §11).
"""

from repro.analysis.diagnostics import Diagnostic, PlanVerificationError
from repro.cluster.config import ClusterConfig, default_cluster
from repro.common.errors import AdmissionError
from repro.core.policy import PolicyDecision, ReplanPolicy
from repro.engine.metrics import ExecutionResult, JobMetrics
from repro.lang.builder import QueryBuilder
from repro.lang.udf import UdfRegistry, default_registry
from repro.obs.trace import QueryTrace
from repro.service import QueryService, ServiceConfig, ServiceStore
from repro.session import Session
from repro.spec import PlannerSpec

__version__ = "1.1.0"

__all__ = [
    "AdmissionError",
    "ClusterConfig",
    "Diagnostic",
    "ExecutionResult",
    "JobMetrics",
    "PlanVerificationError",
    "PlannerSpec",
    "PolicyDecision",
    "QueryBuilder",
    "QueryService",
    "QueryTrace",
    "ReplanPolicy",
    "ServiceConfig",
    "ServiceStore",
    "Session",
    "UdfRegistry",
    "default_cluster",
    "default_registry",
    "__version__",
]
