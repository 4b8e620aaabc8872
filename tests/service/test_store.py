"""Persistent sketch store: round-trips, tokens, versioning."""

import hashlib
import json

import pytest

from repro.common.errors import StatisticsError
from repro.common.rng import stable_hash
from repro.common.types import DataType, Schema
from repro.service import QueryService, ServiceConfig, ServiceStore, ingest_token
from repro.service.store import STORE_FORMAT_VERSION
from repro.workloads import get_workload

from tests.conftest import load_star_data, small_cluster, star_query


def build_service(**kwargs) -> QueryService:
    service = QueryService(small_cluster(), **kwargs)
    load_star_data(service)
    return service


def canonical(state: dict) -> str:
    """JSON-normalized state (tuples and lists compare equal on disk)."""
    return json.dumps(state, sort_keys=True, default=repr)


class TestIngestToken:
    SCHEMA = Schema.of(("x", DataType.INT), ("y", DataType.INT))
    ROWS = [{"x": 1, "y": 2}, {"x": 3, "y": 4}]

    def test_equal_content_equal_token(self):
        assert ingest_token(self.SCHEMA, self.ROWS, 1.0) == ingest_token(
            self.SCHEMA, [dict(r) for r in self.ROWS], 1.0
        )

    def test_value_change_changes_token(self):
        changed = [{"x": 1, "y": 2}, {"x": 3, "y": 5}]
        assert ingest_token(self.SCHEMA, self.ROWS, 1.0) != ingest_token(
            self.SCHEMA, changed, 1.0
        )

    def test_row_order_changes_token(self):
        # order drives partition layout, so it must change the token
        assert ingest_token(self.SCHEMA, self.ROWS, 1.0) != ingest_token(
            self.SCHEMA, list(reversed(self.ROWS)), 1.0
        )

    def test_scale_changes_token(self):
        assert ingest_token(self.SCHEMA, self.ROWS, 1.0) != ingest_token(
            self.SCHEMA, self.ROWS, 2.0
        )

    @staticmethod
    def per_row_token(schema: Schema, rows: list[dict], scale: float) -> str:
        """The token as first written: sort and repr every row's items."""
        acc = stable_hash(
            (
                tuple(schema.field_names),
                schema.row_width,
                tuple(schema.primary_key),
                repr(scale),
            )
        )
        for row in rows:
            acc = stable_hash((acc, tuple(sorted((k, repr(v)) for k, v in row.items()))))
        return f"{acc:016x}"

    #: rows whose key sets, key order and key text all vary
    RAGGED = [
        {"a": 1, "b": "x"}, {"b": "y", "a": 2}, {"a": 3}, {},
        {"c": None, "a": 1.5, "b": (1, "z")}, {"100%": "q'\"", "a": -0.0},
    ]  # fmt: skip

    def test_token_strings_are_frozen(self):
        # Recorded before the per-key-set templates: a persisted ServiceStore
        # is only a hit while these strings stay what they were.
        schema = Schema.of(("a", DataType.INT), ("b", DataType.STRING), primary_key=("a",))
        assert ingest_token(schema, self.RAGGED, 1.0) == "76411cd830226a00"
        assert ingest_token(schema, self.RAGGED, 2.5) == "d7944c1ef29d6e07"
        assert ingest_token(schema, [], 1.0) == "d1adb0f25acbd723"

    def test_token_equals_per_row_fold(self, suite_tables):
        for _, schema, rows, scale in suite_tables:
            assert ingest_token(schema, rows, scale) == self.per_row_token(
                schema, rows, scale
            )
        assert ingest_token(self.SCHEMA, self.RAGGED, 1.0) == self.per_row_token(
            self.SCHEMA, self.RAGGED, 1.0
        )


class TestStoreRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        service = build_service()
        tenant = service.session("alice")
        tenant.submit(star_query(), "dynamic")
        service.run_all()

        first = tmp_path / "store.json"
        second = tmp_path / "store2.json"
        service.save_store(str(first))
        restored = ServiceStore.open(str(first))
        restored.save(str(second))
        assert first.read_bytes() == second.read_bytes()
        assert restored.sketched_datasets() == ["da", "db", "dc", "fact"]

    def test_restored_sketches_skip_recollection_with_equal_estimates(
        self, tmp_path
    ):
        saver = build_service()
        path = tmp_path / "store.json"
        saver.save_store(str(path))

        fresh = QueryService(small_cluster())
        fresh.load_store(str(path))
        load_star_data(fresh)  # byte-identical rows: tokens match
        # the persisted sketches were registered, not recollected, and they
        # describe the data identically to the original collection pass
        for name in ("fact", "da", "db", "dc"):
            assert canonical(fresh.statistics.get(name).to_state()) == canonical(
                saver.statistics.get(name).to_state()
            )
        # the round-trip must not have mutated the persisted state either
        roundtrip = tmp_path / "store2.json"
        fresh.save_store(str(roundtrip))
        assert path.read_bytes() == roundtrip.read_bytes()

    def test_changed_content_rejects_persisted_sketches(self, tmp_path):
        saver = build_service()
        path = tmp_path / "store.json"
        saver.save_store(str(path))

        fresh = QueryService(small_cluster())
        fresh.load_store(str(path))
        load_star_data(fresh, seed=8)  # different rows: tokens differ
        # a fresh collection replaced the stale sketch entry for fact
        assert canonical(fresh.store.to_state()) != canonical(
            saver.store.to_state()
        )

    def test_format_version_mismatch_rejected(self):
        store = ServiceStore()
        state = store.to_state()
        state["version"] = STORE_FORMAT_VERSION + 1
        with pytest.raises(StatisticsError, match="format"):
            ServiceStore().restore_state(state)


#: SHA-256 over the persisted sketch entries of the 21 suite tables at SF 10,
#: seed 42, one service per universe — recorded at 041abe1, where every sketch
#: was built and serialised inside ``load`` (see ``tests/stats/test_golden_state.py``).
SUITE_SKETCHES_SHA256 = "b1ae1e77aa2b5ce052552b01ccd85284278be8e34e5e019bfd365261f818c183"


def persisted_sketches(service: QueryService, path) -> bytes:
    service.save_store(str(path))
    return json.dumps(json.loads(path.read_text())["sketches"], sort_keys=True).encode()


class TestStoreSerialisesOnSave:
    def test_sketch_entries_are_the_eager_ones_whatever_ran_in_between(
        self, suite_universes, tmp_path
    ):
        digest = hashlib.sha256()
        for universe, tables in suite_universes.items():
            service = QueryService()
            for name, schema, rows, scale in tables:
                service.load(name, schema, rows, scale=scale)
            path = tmp_path / f"{universe}.json"
            ingested = persisted_sketches(service, path)

            tenant = service.session("tenant")
            for build_query in get_workload(universe, 10, 42).queries.values():
                for strategy in ("dynamic", "cost_based"):
                    tenant.submit(build_query(), strategy)
            assert all(handle.error is None for handle in service.run_all())
            assert persisted_sketches(service, path) == ingested

            restarted = QueryService()
            restarted.load_store(str(path))
            for name, schema, rows, scale in tables:
                restarted.load(name, schema, rows, scale=scale)
            assert persisted_sketches(restarted, tmp_path / "again.json") == ingested
            digest.update(ingested)
        assert digest.hexdigest() == SUITE_SKETCHES_SHA256

    def test_a_hit_on_a_live_never_read_entry_restores_what_a_restored_one_does(
        self, tmp_path
    ):
        path = tmp_path / "store.json"
        build_service().save_store(str(path))
        restored = ServiceStore.open(str(path))
        live = build_service()
        for name in live.store.sketched_datasets():
            fields = live.statistics.get(name).fields.values()
            assert all(stats._uncounted and stats._unread for stats in fields)
            token = live.store._sketches[name]["token"]
            hit = live.store.sketches_for(name, token)
            assert hit is not live.statistics.get(name)
            assert canonical(hit.to_state()) == canonical(
                restored.sketches_for(name, token).to_state()
            )


class TestSaveCrashCleanup:
    """Regression: a raise mid-``save`` (serialization error, disk full)
    left an orphaned ``.tmp`` file next to the store."""

    def test_failed_save_leaves_no_tmp(self, tmp_path, monkeypatch):
        store = ServiceStore()
        path = tmp_path / "store.json"

        def boom():
            raise ValueError("injected mid-write failure")

        monkeypatch.setattr(store, "to_state", boom)
        with pytest.raises(ValueError, match="injected"):
            store.save(str(path))
        assert not path.exists()
        assert not (tmp_path / "store.json.tmp").exists()

    def test_failed_save_preserves_previous_file(self, tmp_path, monkeypatch):
        store = ServiceStore()
        path = tmp_path / "store.json"
        store.save(str(path))
        good = path.read_bytes()

        def boom():
            raise ValueError("injected mid-write failure")

        monkeypatch.setattr(store, "to_state", boom)
        with pytest.raises(ValueError):
            store.save(str(path))
        assert path.read_bytes() == good
        assert not (tmp_path / "store.json.tmp").exists()

    def test_successful_save_still_cleans_up(self, tmp_path):
        store = ServiceStore()
        path = tmp_path / "store.json"
        store.save(str(path))
        assert path.exists()
        assert not (tmp_path / "store.json.tmp").exists()


class TestOpenCorruptStore:
    """``open`` must degrade to a fresh store on unreadable files — the
    persisted sketches are an optimization, never a correctness input."""

    def test_truncated_json_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "store.json"
        ServiceStore().save(str(path))
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.warns(RuntimeWarning, match="starting fresh"):
            store = ServiceStore.open(str(path))
        assert store.sketched_datasets() == []

    def test_garbage_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("not json at all {{{")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            store = ServiceStore.open(str(path))
        assert store.sketched_datasets() == []

    def test_wrong_shape_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps({"version": STORE_FORMAT_VERSION}))
        with pytest.warns(RuntimeWarning, match="starting fresh"):
            store = ServiceStore.open(str(path))
        assert store.sketched_datasets() == []

    def test_version_mismatch_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "store.json"
        store = ServiceStore()
        state = store.to_state()
        state["version"] = STORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(state, default=repr))
        with pytest.warns(RuntimeWarning, match="starting fresh"):
            opened = ServiceStore.open(str(path))
        assert opened.sketched_datasets() == []

    def test_impossible_hll_register_fails_the_load(self, tmp_path):
        """A register no hash can produce would merge and count silently
        wrong; it is caught when the file is loaded, not at a later ingest."""
        path = tmp_path / "store.json"
        build_service().save_store(str(path))
        state = json.loads(path.read_text())
        sketch = state["sketches"]["fact"]["stats"]["fields"]["f_a"]["distinct"]
        registers = bytearray.fromhex(sketch["registers"])
        registers[0] = 200
        sketch["registers"] = registers.hex()
        path.write_text(json.dumps(state))

        with pytest.raises(StatisticsError, match="corrupt HLL state: register 200"):
            QueryService(small_cluster()).load_store(str(path))
        with pytest.warns(RuntimeWarning, match="corrupt HLL state"):
            opened = ServiceStore.open(str(path))
        assert opened.sketched_datasets() == []

    def test_version_one_file_with_feedback_starts_fresh(self, tmp_path):
        """A file written before the feedback half was deleted: version 1,
        a ``"feedback"`` block beside intact sketches. It is not read."""
        path = tmp_path / "store.json"
        build_service().save_store(str(path))
        state = json.loads(path.read_text())
        assert STORE_FORMAT_VERSION == 2 and state["sketches"]
        state["version"] = 1
        state["feedback"] = {
            "window": 64,
            "q_errors": [1.5],
            "query_costs": [[0.0, 1.0]],
            "infinite_records": 0,
            "queries": 1,
            "groups": {},
        }
        path.write_text(json.dumps(state))

        with pytest.warns(RuntimeWarning, match="starting fresh"):
            opened = ServiceStore.open(str(path))
        assert opened.sketched_datasets() == []
        with pytest.raises(StatisticsError, match="format 1"):
            QueryService(small_cluster()).load_store(str(path))

    def test_healthy_file_loads_without_warning(self, tmp_path):
        import warnings as warnings_module

        path = tmp_path / "store.json"
        ServiceStore().save(str(path))
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            ServiceStore.open(str(path))


class TestDeterminismGuard:
    """Two tenants on a shared cold store == two isolated sessions."""

    FACETS = ("rows", "metrics", "plan", "phases", "trace", "decisions")

    @staticmethod
    def _fingerprint(result) -> dict:
        from tests.engine.equivalence import canonical_rows, metrics_fingerprint

        return {
            "rows": canonical_rows(result.rows),
            "metrics": metrics_fingerprint(result.metrics),
            "plan": result.plan_description,
            "phases": repr(list(result.phases)),
            "trace": result.trace.to_json() if result.trace else "none",
            "decisions": repr(tuple(result.decisions)),
        }

    def test_shared_cold_store_matches_isolated_sessions(self):
        from tests.conftest import build_star_session

        shared = build_service(
            config=ServiceConfig(result_cache=False, intermediate_cache=False)
        )
        shared_results = []
        for tenant in ("alice", "bob"):
            handle = shared.session(tenant).submit(star_query(), "dynamic")
            shared.run_all()
            shared_results.append(self._fingerprint(handle.result()))
            shared.session(tenant).reset_intermediates()
            shared.reset_scheduler()

        for shared_fp in shared_results:
            session = build_star_session()
            handle = session.submit(star_query(), "dynamic")
            session.run_all()
            isolated_fp = self._fingerprint(handle.result())
            for facet in self.FACETS:
                assert shared_fp[facet] == isolated_fp[facet], facet
