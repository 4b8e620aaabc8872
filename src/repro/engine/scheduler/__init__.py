"""Job scheduling layer: stage generators, admission, shared-cluster clock."""

from repro.engine.scheduler.request import (
    JobOutcome,
    JobRequest,
    QueryRun,
    run_request,
)
from repro.engine.scheduler.scheduler import (
    JobScheduler,
    QueryHandle,
    ScheduleInfo,
    SchedulerConfig,
    run_solo,
    solo_scheduler,
)

__all__ = [
    "JobOutcome",
    "JobRequest",
    "JobScheduler",
    "QueryHandle",
    "QueryRun",
    "ScheduleInfo",
    "SchedulerConfig",
    "run_request",
    "run_solo",
    "solo_scheduler",
]
