"""The ``sketches`` golden record: ingestion-time sketch state, by digest.

Every estimate, plan, simulated second and EXPERIMENTS.md figure is a
function of the sketches ``load_dataset`` builds. The record holds the
SHA-256 of the 21 suite tables' catalog ``to_state()`` at SF 10, seed 42. A
sketch change that moves state must fail here, loudly, and re-record on
purpose (``tests/golden.py``) — not silently re-pin every figure.
"""

import json

from repro.session import Session
from repro.workloads import get_workload
from tests.golden import Record

CELL = "tpch+tpcds+job/sf10/seed42"


def catalog_state(cell: str) -> dict[str, str]:
    """Each universe's catalog state as sorted JSON, concatenated."""
    states = []
    for universe in ("tpch", "tpcds", "job"):
        session = Session()
        get_workload(universe, 10, 42).load_into(session)
        catalog = session.statistics
        state = {name: catalog.get(name).to_state() for name in catalog.names()}
        states.append(json.dumps(state, sort_keys=True))
    return {"state": "".join(states)}


RECORD = Record("sketches", (CELL,), catalog_state, frozenset({"state"}))


def test_suite_catalog_state_at_sf10_seed42():
    RECORD.check(CELL)
