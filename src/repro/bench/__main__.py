"""Regenerate every table and figure from the command line.

Usage::

    python -m repro.bench                 # print the experiment registry
    python -m repro.bench all             # everything (slow: full sweep)
    python -m repro.bench fig6 table1     # selected experiments
    python -m repro.bench fig7 --sf 100   # one scale factor only

Each experiment lives in one :class:`Experiment` entry of the
:data:`REGISTRY` below — the argument parser, the printed experiment list,
the unknown-name error and the dispatch loop all derive from it, so adding
an experiment means adding exactly one entry. Every experiment reads cells
of one :class:`~repro.bench.sweep.Sweep`, so a cell two of them share runs
once per invocation.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.bench import comparison, overhead, plans, table1
from repro.bench.sweep import (
    FEEDBACK,
    Cell,
    Key,
    Sweep,
    feedback_ok,
    format_sweep,
    skew_keys,
    skew_ok,
    transfer_keys,
    transfer_ok,
)
from repro.core.policy import REPLAN_QERROR


@dataclass(frozen=True)
class Experiment:
    """One registered bench experiment.

    ``run(args, sweep)`` prints its report and returns True on failure;
    ``sweep`` is the invocation's one runner.
    """

    name: str
    description: str
    run: Callable[[argparse.Namespace, Sweep], bool]


def _comparison_sfs(args) -> tuple[int, ...]:
    return tuple(args.sf) if args.sf else (10, 100, 1000)


def _run_fig6(args, sweep: Sweep) -> bool:
    sfs = tuple(args.sf) if args.sf else (100, 1000)
    print("=== Figure 6: re-optimization / online statistics / push-down overheads ===")
    cells = sweep.run(overhead.figure6(sfs))
    print(overhead.format_reports(overhead.overhead_reports(cells)))
    return False


def _run_fig7(args, sweep: Sweep) -> bool:
    print("=== Figure 7: execution time comparison ===")
    print(comparison.format_cells(sweep.run(comparison.figure7(_comparison_sfs(args)))))
    return False


def _run_table1(args, sweep: Sweep) -> bool:
    print("=== Table 1: average improvement of the dynamic approach ===")
    table_sfs = tuple(sf for sf in _comparison_sfs(args) if sf in (100, 1000)) or (100,)
    figure = sweep.run(comparison.figure7(_comparison_sfs(args)))
    print(table1.format_rows(table1.improvement_rows(figure, table_sfs)))
    return False


def _run_fig8(args, sweep: Sweep) -> bool:
    print("=== Figure 8: comparison with INL join enabled ===")
    print(comparison.format_cells(sweep.run(comparison.figure8(_comparison_sfs(args)))))
    return False


def _run_qerror(args, sweep: Sweep) -> bool:
    print("=== Estimate accuracy: Q-error per optimizer at the final stage ===")
    qerror_sfs = tuple(args.sf) if args.sf else (10,)
    print(comparison.format_qerror(sweep.run(comparison.qerror(qerror_sfs))))
    return False


def _run_plans(args, sweep: Sweep) -> bool:
    print("=== Appendix: plans generated per optimizer (Figures 11-23) ===")
    sfs = _comparison_sfs(args)
    keys = comparison.figure7(sfs) + comparison.figure8(sfs)
    print(plans.format_matrix(sweep.run(keys)))
    return False


def _contest(
    title: str,
    keys: Sequence[Key],
    holds: Callable[[Sequence[Cell]], bool],
    claim: str,
) -> Callable[[argparse.Namespace, Sweep], bool]:
    """An extension experiment: its cells, then whether they show its claim."""

    def run(args, sweep: Sweep) -> bool:
        print(f"=== {title} ===")
        measured = sweep.run(keys)
        print(format_sweep(measured))
        shown = holds(measured)
        print(("shown: " if shown else "NOT SHOWN: ") + claim)
        return not shown

    return run


_run_feedback = _contest(
    "Feedback-driven re-planning: fixed schedule vs ReplanPolicy",
    FEEDBACK,
    feedback_ok,
    "the policy replans, changes the join order mid-run and saves simulated "
    "seconds; plain dynamic fuses the uniform star and beats every_point",
)
_run_skew = _contest(
    "Adversarial skew sweep: all strategies x (skew, correlation) grid",
    skew_keys(),
    skew_ok,
    "adaptive planners beat every static strategy in an adversarial cell "
    f"with cost_based worst Q-error > {REPLAN_QERROR:g} (replan trigger)",
)
_run_transfer = _contest(
    "Predicate transfer: pre-filtering vs runtime re-optimization",
    transfer_keys(),
    transfer_ok,
    "transfer beats dynamic somewhere and loses to it somewhere",
)


#: the single source of truth: list printing, parsing and dispatch all
#: derive from this tuple.
REGISTRY = (
    Experiment("fig6", "re-optimization / online-stats / push-down overheads", _run_fig6),
    Experiment("fig7", "execution time comparison across strategies", _run_fig7),
    Experiment("table1", "average improvement of the dynamic approach", _run_table1),
    Experiment("fig8", "strategy comparison with INL join enabled", _run_fig8),
    Experiment("qerror", "estimate accuracy (Q-error) per strategy", _run_qerror),
    Experiment("feedback", "fixed replan schedule vs ReplanPolicy", _run_feedback),
    Experiment("skew", "adversarial skew/correlation sweep, all strategies", _run_skew),
    Experiment("transfer", "predicate-transfer pre-filtering vs dynamic", _run_transfer),
    Experiment("plans", "appendix plan matrix per optimizer", _run_plans),
)

EXPERIMENTS = tuple(experiment.name for experiment in REGISTRY)


def experiment_list() -> str:
    """The registry, one line per experiment — what a bare run prints."""
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments (python -m repro.bench <name> [...]):"]
    lines += [
        f"  {experiment.name:{width}s}  {experiment.description}"
        for experiment in REGISTRY
    ]
    lines.append("  all" + " " * (width - 3) + "  every experiment above, in order")
    return "\n".join(lines)


def parse_args(argv: list[str] | None = None) -> tuple[argparse.Namespace, list[str]]:
    """The options and the chosen experiment names (``all`` expanded, empty for
    a bare invocation); exits on an unknown flag or experiment."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
        epilog=experiment_list(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # note: no argparse `choices` here — with nargs="*" Python 3.11 rejects
    # the empty (list-the-registry) invocation; validated manually below.
    parser.add_argument(
        "experiments",
        nargs="*",
        help="which experiments to run ('all' for the full sweep; "
        "no arguments prints the registry)",
    )
    parser.add_argument(
        "--sf",
        type=int,
        action="append",
        help="restrict to these scale factors (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    chosen = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [e for e in chosen if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments {unknown}; choose from {list(EXPERIMENTS)}")
    return args, chosen


def main(argv: list[str] | None = None) -> int:
    args, chosen = parse_args(argv)
    if not chosen:
        print(experiment_list())
        return 0

    failed = False
    sweep = Sweep(args.seed)
    for experiment in REGISTRY:
        if experiment.name not in chosen:
            continue
        failed = experiment.run(args, sweep) or failed
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
