"""Regenerate every table and figure from the command line.

Usage::

    python -m repro.bench                 # print the experiment registry
    python -m repro.bench all             # everything (slow: full sweep)
    python -m repro.bench fig6 table1     # selected experiments
    python -m repro.bench fig7 --sf 100   # one scale factor only
    python -m repro.bench skew --smoke    # CI-sized adversarial sweep

Each experiment lives in one :class:`Experiment` entry of the
:data:`REGISTRY` below — the argument parser, the printed experiment list,
the unknown-name error and the dispatch loop all derive from it, so adding
an experiment means adding exactly one entry.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable

from repro.bench import (
    comparison,
    feedback,
    overhead,
    plans,
    runner,
    skew,
    table1,
    transfer,
)


@dataclass(frozen=True)
class Experiment:
    """One registered bench experiment.

    ``run(args, shared)`` prints its report and returns True on failure;
    ``shared`` is a per-invocation scratch dict experiments use to reuse
    expensive intermediates (fig7 and table1 share the comparison cells).
    """

    name: str
    description: str
    run: Callable[[argparse.Namespace, dict], bool]


def _comparison_sfs(args) -> tuple[int, ...]:
    return tuple(args.sf) if args.sf else (10, 100, 1000)


def _comparison_cells(args, shared):
    if "fig7_cells" not in shared:
        shared["fig7_cells"] = comparison.figure7(_comparison_sfs(args), seed=args.seed)
    return shared["fig7_cells"]


def _run_fig6(args, shared) -> bool:
    sfs = tuple(args.sf) if args.sf else (100, 1000)
    print("=== Figure 6: re-optimization / online statistics / push-down overheads ===")
    print(overhead.format_reports(overhead.figure6(sfs, seed=args.seed)))
    return False


def _run_fig7(args, shared) -> bool:
    print("=== Figure 7: execution time comparison ===")
    print(comparison.format_cells(_comparison_cells(args, shared)))
    return False


def _run_table1(args, shared) -> bool:
    print("=== Table 1: average improvement of the dynamic approach ===")
    table_sfs = tuple(sf for sf in _comparison_sfs(args) if sf in (100, 1000)) or (100,)
    cells = _comparison_cells(args, shared)
    print(table1.format_rows(table1.improvement_rows(cells, table_sfs)))
    return False


def _run_fig8(args, shared) -> bool:
    print("=== Figure 8: comparison with INL join enabled ===")
    print(comparison.format_cells(comparison.figure8(_comparison_sfs(args), seed=args.seed)))
    return False


def _run_qerror(args, shared) -> bool:
    print("=== Estimate accuracy: Q-error per optimizer at the final stage ===")
    qerror_sfs = tuple(args.sf) if args.sf else (10,)
    print(runner.format_qerror(runner.qerror_rows(qerror_sfs, seed=args.seed)))
    return False


def _run_feedback(args, shared) -> bool:
    print("=== Feedback-driven re-planning: fixed schedule vs ReplanPolicy ===")
    print(feedback.format_feedback(feedback.run_feedback(smoke=args.smoke, seed=args.seed)))
    return False


def _run_skew(args, shared) -> bool:
    print("=== Adversarial skew sweep: all strategies x (skew, correlation) grid ===")
    cells = skew.run_skew(seed=args.seed, smoke=args.smoke)
    print(skew.format_skew(cells))
    return not skew.skew_ok(cells)


def _run_transfer(args, shared) -> bool:
    print("=== Predicate transfer: pre-filtering vs runtime re-optimization ===")
    cells = transfer.run_transfer(seed=args.seed, smoke=args.smoke)
    print(transfer.format_transfer(cells))
    return not transfer.transfer_ok(cells)


def _run_plans(args, shared) -> bool:
    print("=== Appendix: plans generated per optimizer (Figures 11-23) ===")
    sfs = _comparison_sfs(args)
    print(plans.format_matrix(plans.plan_matrix(sfs, seed=args.seed)))
    print(plans.format_matrix(plans.plan_matrix(sfs, inl_enabled=True, seed=args.seed)))
    return False


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
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fast configuration (what tests/bench runs in tier-1)",
    )
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
    shared: dict = {}
    for experiment in REGISTRY:
        if experiment.name not in chosen:
            continue
        failed = experiment.run(args, shared) or failed
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
