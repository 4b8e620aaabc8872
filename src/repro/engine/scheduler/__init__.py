"""Job scheduling layer: stage generators, admission, shared-cluster clock."""

from repro.engine.scheduler.request import (
    JobOutcome,
    JobRequest,
    QueryRun,
    drive_stages,
    run_request,
)
from repro.engine.scheduler.scheduler import (
    JobScheduler,
    QueryHandle,
    ScheduleInfo,
    SchedulerConfig,
)

__all__ = [
    "JobOutcome",
    "JobRequest",
    "JobScheduler",
    "QueryHandle",
    "QueryRun",
    "ScheduleInfo",
    "SchedulerConfig",
    "drive_stages",
    "run_request",
]
