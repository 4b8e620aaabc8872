"""Golden digest of ingestion-time sketch state.

Every estimate, plan, simulated second and EXPERIMENTS.md figure is a
function of the sketches ``load_dataset`` builds. The digest below was
recorded from the per-value collection path (one ``add`` per value, a
hand-rolled binary search per GK insert) before the column-at-a-time path
replaced it. A sketch change that moves state must fail here, loudly, and
re-record on purpose — not silently re-pin every figure.
"""

import hashlib
import json

from repro.session import Session

GOLDEN_SHA256 = "8b84fa10efccd5f065891f769f7e6dd74ca0f992eb8418b16929638a392aa691"


def test_suite_catalog_state_at_sf10_seed42(suite_universes):
    digest = hashlib.sha256()
    for universe in ("tpch", "tpcds", "job"):
        session = Session()
        for name, schema, rows, scale in suite_universes[universe]:
            session.load(name, schema, rows, scale=scale)
        catalog = session.statistics
        state = {name: catalog.get(name).to_state() for name in catalog.names()}
        digest.update(json.dumps(state, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_SHA256
