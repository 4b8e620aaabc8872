"""Hyracks-like partitioned dataflow engine."""

from repro.engine.executor import Executor
from repro.engine.job import Job
from repro.engine.metrics import ExecutionResult, JobMetrics
from repro.engine.scheduler import (
    JobOutcome,
    JobRequest,
    JobScheduler,
    QueryHandle,
    QueryRun,
    ScheduleInfo,
    SchedulerConfig,
)

__all__ = [
    "ExecutionResult",
    "Executor",
    "Job",
    "JobMetrics",
    "JobOutcome",
    "JobRequest",
    "JobScheduler",
    "QueryHandle",
    "QueryRun",
    "ScheduleInfo",
    "SchedulerConfig",
]
