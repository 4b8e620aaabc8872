"""The e2e benchmark's span attrs against what the library computed.

``benchmarks/e2e/spans.py`` reads a wrapped call's arguments and result by
position (``_semi_join_attrs``: ``args[1]`` is the rows probed, ``result[1]``
the rows kept). A kernel whose arguments are reordered still resolves by
name, so the ledger would read garbage; this test runs one query under the
recorder and holds the attrs to the rows the operators saw.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.bench.runner import run_query
from repro.engine.operators.base import PhysicalOperator
from repro.engine.operators.filters import SemiJoinFilterOp

SPANS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_bloom_attrs_are_the_rows_the_semi_join_operators_saw(spans, monkeypatch):
    runs: list[tuple[PhysicalOperator, int]] = []
    run = PhysicalOperator.run

    def recording(op, state):
        data = run(op, state)
        runs.append((op, data.row_count))
        return data

    monkeypatch.setattr(PhysicalOperator, "run", recording)
    recorder = spans.Recorder()
    with recorder.recording():
        result = run_query("Q9", 10, "dynamic", pre_filter="transfer")
    assert recorder.unresolved == []
    assert result.rows

    rows_out = {id(op): rows for op, rows in runs}
    seen = [
        {"probed": rows_out[id(op.children[0])], "kept": rows}
        for op, rows in runs
        if isinstance(op, SemiJoinFilterOp)
    ]
    attrs = [
        span[spans.ATTRS]
        for span in recorder.spans
        if span[spans.NAME] == "engine.bloom" and span[spans.ATTRS] is not None
    ]
    assert seen and any(entry["kept"] < entry["probed"] for entry in seen)
    assert attrs == seen
    for span in recorder.spans:
        for value in (span[spans.ATTRS] or {}).values():
            assert type(value) is int, span
