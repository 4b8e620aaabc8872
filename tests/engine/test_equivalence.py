"""The data plane's contract: every sweep cell equals its golden recording.

Sweeps every registered strategy over the paper's four evaluation queries
and the JOB suite at SF 100 and asserts every fingerprint facet against the
``cells`` record (tests/engine/equivalence.py); "equivalent" in the test
names means equivalent to that recording. Each cell's rows are also checked
against the brute-force oracle, which shares no code with the engine.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.bench.runner import workbench_for_query
from repro.testing import evaluate_reference, rows_equal_unordered
from tests.engine.equivalence import (
    ALL_QUERIES,
    ALL_STRATEGIES,
    CELLS,
    GOLDEN_SCALE_FACTOR,
    RECORD,
    canonical_rows,
)
from tests.golden import load


@functools.cache
def reference_rows(label: str) -> list[dict]:
    """The oracle's answer, through the JSON round trip of the rows facet."""
    bench = workbench_for_query(label, GOLDEN_SCALE_FACTOR)
    rows = evaluate_reference(bench.query(label), bench.session)
    return json.loads(canonical_rows(rows))


def check_cell(cell: str) -> None:
    rows = json.loads(RECORD.check(cell)["rows"])
    assert rows, "every sweep query returns rows at the golden scale factor"
    assert rows_equal_unordered(rows, reference_rows(CELLS[cell][0]))


@pytest.mark.parametrize("label", ALL_QUERIES)
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_engines_equivalent(label: str, strategy: str) -> None:
    check_cell(f"{label}/{strategy}")


@pytest.mark.parametrize("label", ALL_QUERIES)
def test_engines_equivalent_with_inl(label: str) -> None:
    """Dynamic with secondary indexes on: covers IndexNestedLoopJoinOp,
    which bypasses the operator-tree probe side entirely."""
    check_cell(f"{label}/dynamic+inl")


@pytest.mark.parametrize("label", ALL_QUERIES)
def test_engines_equivalent_with_transfer_prelude(label: str) -> None:
    """Dynamic behind the predicate-transfer prelude: covers the
    SemiJoinFilterOp reduce jobs feeding the re-optimization loop (the
    standalone ``predicate_transfer`` strategy is already in the
    ALL_STRATEGIES sweep above)."""
    check_cell(f"{label}/dynamic+transfer")


def test_fingerprint_covers_real_work() -> None:
    """Guard against a vacuous sweep: the record holds exactly the cells
    the tests above run (84 today), and the fingerprints show joins and
    scans actually happened (non-zero counters)."""
    assert set(load(RECORD.path)) == set(CELLS)
    metrics = RECORD.check("Q9/dynamic")["metrics"].splitlines()
    assert "tuples_joined=0" not in metrics
    assert "tuples_scanned=0" not in metrics
