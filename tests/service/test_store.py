"""Persistent sketch store: round-trips, tokens, versioning."""

import hashlib
import json
import marshal
from decimal import Decimal

import pytest

from repro.common.errors import StatisticsError
from repro.common.rng import stable_hash
from repro.common.types import DataType, Schema
from repro.service import QueryService, ServiceConfig, ServiceStore, ingest_token
from repro.service.store import STORE_FORMAT_VERSION, TOKEN_CHUNK_ROWS
from repro.sketches.gk import GKQuantileSketch
from repro.sketches.hyperloglog import HyperLogLog
from repro.workloads import get_workload

from tests.conftest import load_star_data, same_state, small_cluster, star_query
from tests.stats.reference_collector import EagerCollector


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

    def test_key_order_changes_token(self):
        # stricter than equal content needs: a false miss costs a recollection
        assert ingest_token(self.SCHEMA, [{"x": 1, "y": 2}], 1.0) != ingest_token(
            self.SCHEMA, [{"y": 2, "x": 1}], 1.0
        )

    def test_a_list_a_tuple_and_a_generator_give_one_token(self):
        rows = [{"x": i, "y": i % 7} for i in range(2 * TOKEN_CHUNK_ROWS + 5)]
        tokens = {
            ingest_token(self.SCHEMA, rows, 1.0),
            ingest_token(self.SCHEMA, tuple(rows), 1.0),
            ingest_token(self.SCHEMA, (row for row in rows), 1.0),
        }
        assert len(tokens) == 1

    def test_equal_values_of_other_types_give_other_tokens(self):
        def token(value) -> str:
            return ingest_token(self.SCHEMA, [{"x": value, "y": 0}], 1.0)

        assert len({token(1), token(1.0), token(True)}) == 3
        assert len({token(0.0), token(-0.0)}) == 2

    def test_values_marshal_refuses_give_one_token_on_every_call(self):
        class Row(dict):
            pass

        for make in (lambda: [Row(x=1, y=2)], lambda: [{"x": Decimal("1.5"), "y": 2}]):
            with pytest.raises(ValueError):
                marshal.dumps(tuple(make()), 2)
            assert len({ingest_token(self.SCHEMA, make(), 1.0) for _ in range(3)}) == 1

    @staticmethod
    def reference_token(schema: Schema, rows: list[dict], scale: float) -> str:
        """The token spelled out: one ``blake2b`` over the header and then
        each 4096-row slice as a tuple, each tagged and length-prefixed,
        ``marshal`` format 2 or else ``repr``."""

        def encoded(value: tuple) -> bytes:
            try:
                tag, body = b"m", marshal.dumps(value, 2)
            except ValueError:
                tag, body = b"r", repr(value).encode()
            return tag + len(body).to_bytes(8, "big") + body

        header = (
            tuple(schema.field_names),
            schema.row_width,
            tuple(schema.primary_key),
            repr(scale),
        )
        data = encoded(header) + b"".join(
            encoded(tuple(rows[start : start + 4096]))
            for start in range(0, len(rows), 4096)
        )
        return hashlib.blake2b(data, digest_size=8).hexdigest()

    @staticmethod
    def format_2_token(schema: Schema, rows: list[dict], scale: float) -> str:
        """The token of store format 2: a ``stable_hash`` fold over every
        row's sorted, ``repr``-ed items — what ``SUITE_SKETCHES_SHA256``'s
        entries were recorded under."""
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
        # Recorded for store format 3: a persisted ServiceStore is only a hit
        # while these strings stay what they are.
        schema = Schema.of(("a", DataType.INT), ("b", DataType.STRING), primary_key=("a",))
        assert ingest_token(schema, self.RAGGED, 1.0) == "47651f190cac38e0"
        assert ingest_token(schema, self.RAGGED, 2.5) == "f54b04636d4d9240"
        assert ingest_token(schema, [], 1.0) == "7bde93c6a65dbd6c"

    def test_token_equals_per_row_fold(self, suite_tables):
        for _, schema, rows, scale in suite_tables:
            assert ingest_token(schema, rows, scale) == self.reference_token(
                schema, rows, scale
            )
        assert ingest_token(self.SCHEMA, self.RAGGED, 1.0) == self.reference_token(
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
        read_every_field(saver)  # so every sketch is in the file
        path = tmp_path / "store.json"
        saver.save_store(str(path))

        fresh = QueryService(small_cluster())
        fresh.load_store(str(path))
        load_star_data(fresh)  # byte-identical rows: tokens match
        # the persisted sketches were adopted, not recollected, and they
        # describe the data identically to the original collection pass
        for name in ("fact", "da", "db", "dc"):
            fields = fresh.statistics.get(name).fields.values()
            assert not any(stats._uncounted or stats._unread for stats in fields)
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
#: seed 42, one service per universe, every field read — recorded at 041abe1,
#: where every sketch was built and serialised inside ``load`` and the
#: entries carried the format-2 token (see ``tests/stats/test_golden_state.py``).
SUITE_SKETCHES_SHA256 = "b1ae1e77aa2b5ce052552b01ccd85284278be8e34e5e019bfd365261f818c183"


def persisted_sketches(service: QueryService, path) -> bytes:
    service.save_store(str(path))
    return json.dumps(json.loads(path.read_text())["sketches"], sort_keys=True).encode()


def read_every_field(service: QueryService) -> None:
    for name in service.statistics.names():
        service.statistics.get(name).to_state()


class Reingest:
    """A service whose ``load`` replaces: the same rows ingested again."""

    def __init__(self, service: QueryService) -> None:
        self.service = service

    def load(self, *args, **kwargs):
        return self.service.load(*args, replace=True, **kwargs)


class TestStoreSerialisesOnSave:
    def test_sketch_entries_are_the_eager_ones_whatever_ran_in_between(
        self, suite_universes, tmp_path
    ):
        digest, built, halves = hashlib.sha256(), 0, 0
        for universe, tables in suite_universes.items():
            service = QueryService()
            for name, schema, rows, scale in tables:
                service.load(name, schema, rows, scale=scale)
            path = tmp_path / f"{universe}.json"
            ingested = json.loads(persisted_sketches(service, path))
            for entry in ingested.values():  # nothing read, nothing persisted
                fields = entry["stats"]["fields"].values()
                assert all(list(state) == ["field_name"] for state in fields)

            tenant = service.session("tenant")
            for build_query in get_workload(universe, 10, 42).queries.values():
                for strategy in ("dynamic", "cost_based"):
                    tenant.submit(build_query(), strategy)
            assert all(handle.error is None for handle in service.run_all())
            queried = persisted_sketches(service, path)
            assert persisted_sketches(service, path) == queried  # a save builds nothing
            queried = json.loads(queried)
            for name, entry in queried.items():  # exactly what the queries built
                for field, stats in service.statistics.get(name).fields.items():
                    state = entry["stats"]["fields"][field]
                    counted = "distinct" in state
                    assert counted == ("null_count" in state) == (not stats._uncounted)
                    assert ("quantiles" in state) == (not stats._unread)
                    built += counted + ("quantiles" in state)
                    halves += 2

            read_every_field(service)
            full = json.loads(persisted_sketches(service, path))
            for name, schema, rows, scale in tables:
                assert full[name]["token"] == ingest_token(schema, rows, scale)
                for field, state in queried[name]["stats"]["fields"].items():
                    for half, value in state.items():  # each as eagerly built
                        assert canonical(value) == canonical(
                            full[name]["stats"]["fields"][field][half]
                        )
                full[name]["token"] = TestIngestToken.format_2_token(schema, rows, scale)
            digest.update(json.dumps(full, sort_keys=True).encode())

            restarted = QueryService()
            restarted.load_store(str(path))
            for name, schema, rows, scale in tables:
                restarted.load(name, schema, rows, scale=scale)
            again = json.loads(persisted_sketches(restarted, tmp_path / "again.json"))
            for name, schema, rows, scale in tables:
                again[name]["token"] = TestIngestToken.format_2_token(schema, rows, scale)
            assert again == full
        assert digest.hexdigest() == SUITE_SKETCHES_SHA256
        assert 0 < built < halves  # the queries read some halves, not all

    def test_a_hit_on_a_live_never_read_entry_restores_what_a_restored_one_does(
        self, tmp_path
    ):
        path = tmp_path / "store.json"
        build_service().save_store(str(path))
        restored = QueryService(small_cluster())
        restored.load_store(str(path))
        load_star_data(restored)
        live = build_service()
        for name in live.store.sketched_datasets():
            fields = live.statistics.get(name).fields.values()
            assert all(stats._uncounted and stats._unread for stats in fields)
        load_star_data(Reingest(live))  # hits on the live, never-read entries
        for name in live.store.sketched_datasets():
            fields = live.statistics.get(name).fields
            assert all(stats._uncounted and stats._unread for stats in fields.values())
            for field, stats in fields.items():
                twin = restored.statistics.get(name).fields[field]
                assert stats.null_count == twin.null_count
                assert stats.distinct_count == twin.distinct_count
                assert same_state(stats.quantiles.to_state(), twin.quantiles.to_state())


class TestRestartBuildsWhatIsRead:
    """A restart adopts the halves the saver built and builds the others from
    the re-ingested rows on first read — each ending in the eager state."""

    def test_a_restart_from_a_store_nothing_read_builds_each_half_on_first_read(
        self, suite_universes, tmp_path, monkeypatch
    ):
        builds = []
        for cls in (HyperLogLog, GKQuantileSketch):
            extend = cls.extend

            def spy(sketch, values, _extend=extend, _name=cls.__name__):
                builds.append(_name)
                _extend(sketch, values)

            monkeypatch.setattr(cls, "extend", spy)
        built_on_read = set()
        for universe, tables in suite_universes.items():
            builds.clear()
            saver = QueryService()
            for name, schema, rows, scale in tables:
                saver.load(name, schema, rows, scale=scale)
            path = tmp_path / f"{universe}.json"
            saver.save_store(str(path))
            restarted = QueryService()
            restarted.load_store(str(path))
            for name, schema, rows, scale in tables:
                restarted.load(name, schema, rows, scale=scale)
            assert builds == []
            for name, schema, rows, scale in tables:
                fields = restarted.statistics.get(name).fields
                assert all(stats._uncounted and stats._unread for stats in fields.values())
                eager = EagerCollector(schema.field_names)
                eager.observe_rows(rows)
                for field, stats in fields.items():
                    assert same_state(stats.to_state(), eager.fields[field].to_state())
            built_on_read.update(builds)
        assert built_on_read == {"HyperLogLog", "GKQuantileSketch"}

    def test_a_half_read_before_the_save_is_adopted_and_its_twin_stays_queued(
        self, tmp_path
    ):
        saver = build_service()
        fact = saver.statistics.get("fact").fields
        assert fact["f_a"].null_count == 0  # builds the null count and the HLL
        assert len(fact["f_val"].quantiles) > 0  # builds the GK sketch
        path = tmp_path / "store.json"
        saver.save_store(str(path))

        fresh = QueryService(small_cluster())
        fresh.load_store(str(path))
        load_star_data(fresh)
        fields = fresh.statistics.get("fact").fields
        assert not fields["f_a"]._uncounted and fields["f_a"]._unread
        assert fields["f_val"]._uncounted and not fields["f_val"]._unread
        for name, stats in fields.items():
            if name not in ("f_a", "f_val"):
                assert stats._uncounted and stats._unread
        for name in ("fact", "da", "db", "dc"):
            assert same_state(
                fresh.statistics.get(name).to_state(),
                saver.statistics.get(name).to_state(),
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
        saver = build_service()
        read_every_field(saver)  # so the corrupted sketch is in the file
        saver.save_store(str(path))
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
        saver = build_service()
        read_every_field(saver)  # intact sketches in the file
        saver.save_store(str(path))
        state = json.loads(path.read_text())
        assert STORE_FORMAT_VERSION == 3 and state["sketches"]
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

    def test_version_two_file_starts_fresh(self, tmp_path):
        """A file written under the format-2 token: its tokens never hit."""
        path = tmp_path / "store.json"
        saver = build_service()
        read_every_field(saver)
        saver.save_store(str(path))
        state = json.loads(path.read_text())
        state["version"] = 2
        path.write_text(json.dumps(state))
        with pytest.warns(RuntimeWarning, match="starting fresh"):
            opened = ServiceStore.open(str(path))
        assert opened.sketched_datasets() == []

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
