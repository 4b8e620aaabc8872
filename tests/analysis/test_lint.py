"""Mutation tests for the source lint (D001-D009, F401, F821, W001) + the clean tree.

Each rule gets a minimal source snippet that trips it, the nearest
non-violation that must NOT trip it, and its documented escape hatches
(path exemptions and ``# det: allow(...)`` pragmas). The CLI's output
formats and exit-code contract (0 clean / 1 findings, relied on by CI) are
pinned here too.
"""

import json

from pathlib import Path

from repro.analysis.lint import HOT_PATHS, lint_paths, lint_source, main


def codes(findings) -> list[str]:
    return [f.code for f in findings]


class TestD001WallClock:
    def test_time_module_call(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert codes(lint_source(source, "engine/executor.py")) == ["D001"]

    def test_from_import_perf_counter(self):
        source = "from time import perf_counter\n\nx = perf_counter()\n"
        assert codes(lint_source(source, "core/driver.py")) == ["D001"]

    def test_datetime_now(self):
        source = "from datetime import datetime\n\nstamp = datetime.now()\n"
        assert codes(lint_source(source, "obs/trace.py")) == ["D001"]

    def test_analysis_package_exempt(self):
        source = "from time import perf_counter\n\nx = perf_counter()\n"
        assert lint_source(source, "analysis/runtime.py") == []

    def test_pragma_suppresses(self):
        source = (
            "from time import perf_counter\n\n"
            "x = perf_counter()  # det: allow(D001)\n"
        )
        assert lint_source(source, "engine/executor.py") == []

    def test_pragma_is_code_specific(self):
        # The mismatched pragma suppresses nothing, so the D001 fires and
        # the pragma itself is reported stale (W001).
        source = (
            "from time import perf_counter\n\n"
            "x = perf_counter()  # det: allow(D002)\n"
        )
        assert sorted(codes(lint_source(source, "engine/executor.py"))) == [
            "D001",
            "W001",
        ]

    def test_sleep_is_not_wall_clock(self):
        source = "import time\n\ntime.sleep(0)\n"
        assert lint_source(source, "engine/executor.py") == []


class TestD002BareRandom:
    def test_import_random(self):
        source = "import random\n\ngen = random.Random(7)\n"
        assert codes(lint_source(source, "core/driver.py")) == ["D002"]

    def test_from_random_import(self):
        source = "from random import Random\n\ngen = Random(7)\n"
        assert codes(lint_source(source, "optimizers/pilot_run.py")) == ["D002"]

    def test_rng_module_exempt(self):
        source = "import random\n\ngen = random.Random(7)\n"
        assert lint_source(source, "common/rng.py") == []


class TestD003SetIteration:
    def test_for_over_set_variable(self):
        source = "def f(xs):\n    s = set(xs)\n    for x in s:\n        print(x)\n"
        assert codes(lint_source(source, "core/driver.py")) == ["D003"]

    def test_set_algebra_expression(self):
        source = "def f(a, b):\n    for x in set(a) - set(b):\n        print(x)\n"
        assert codes(lint_source(source, "optimizers/best_order.py")) == ["D003"]

    def test_comprehension_over_annotated_set(self):
        source = "def f(xs):\n    s: frozenset = xs\n    return [x for x in s]\n"
        assert codes(lint_source(source, "algebra/jobgen.py")) == ["D003"]

    def test_sorted_wrapper_is_clean(self):
        source = "def f(xs):\n    for x in sorted(set(xs)):\n        print(x)\n"
        assert lint_source(source, "core/driver.py") == []

    def test_order_insensitive_reducer_is_clean(self):
        source = "def f(xs):\n    return sum(x for x in set(xs))\n"
        assert lint_source(source, "core/driver.py") == []

    def test_outside_hot_paths_not_flagged(self):
        source = "def f(xs):\n    for x in set(xs):\n        print(x)\n"
        assert lint_source(source, "obs/report.py") == []

    def test_dict_iteration_never_flagged(self):
        source = "def f(d):\n    for k in d:\n        print(k)\n"
        assert lint_source(source, "core/driver.py") == []

    def test_list_iteration_never_flagged(self):
        source = "def f(xs):\n    for x in list(xs):\n        print(x)\n"
        assert lint_source(source, "core/driver.py") == []


class TestD004QueueDelayInMetrics:
    def test_jobmetrics_field(self):
        source = (
            "class JobMetrics:\n"
            "    scan: float = 0.0\n"
            "    queue_delay: float = 0.0\n"
        )
        assert codes(lint_source(source, "engine/metrics.py")) == ["D004"]

    def test_assignment_into_metrics(self):
        source = "def charge(metrics, wait):\n    metrics.queue_delay += wait\n"
        assert codes(lint_source(source, "engine/scheduler/runner.py")) == ["D004"]

    def test_schedule_info_owns_queue_delay(self):
        # Waiting belongs on ScheduleInfo — the same attribute there is fine.
        source = "def note(info, wait):\n    info.queue_delay = wait\n"
        assert lint_source(source, "engine/scheduler/runner.py") == []

    def test_other_metrics_fields_fine(self):
        source = "def charge(metrics, s):\n    metrics.scan += s\n"
        assert lint_source(source, "engine/metrics.py") == []


class TestD005CollectorState:
    def test_gc_module_call(self):
        source = "import gc\n\ndef build(keys):\n    gc.disable()\n    return dict(keys)\n"
        assert codes(lint_source(source, "engine/vector.py")) == ["D005"]

    def test_every_state_changing_function(self):
        for name in ("disable", "enable", "freeze", "unfreeze", "set_threshold", "collect"):
            source = f"import gc as collector\n\ncollector.{name}()\n"
            assert codes(lint_source(source, "storage/ingest.py")) == ["D005"], name

    def test_from_import_and_alias(self):
        source = "from gc import collect as sweep, freeze\n\nsweep()\nfreeze()\n"
        assert codes(lint_source(source, "service/service.py")) == ["D005", "D005"]

    def test_no_path_is_exempt(self):
        # Unlike D001, not even analysis/ or bench/: the collector belongs
        # to the embedding process everywhere under src/repro.
        source = "import gc\n\ngc.collect()\n"
        for path in ("analysis/runtime.py", "bench/runner.py", "common/rng.py"):
            assert codes(lint_source(source, path)) == ["D005"], path

    def test_read_only_introspection_is_fine(self):
        source = (
            "import gc\n\n"
            "def tracked(x):\n"
            "    return gc.is_tracked(x), gc.get_count(), gc.isenabled()\n"
        )
        assert lint_source(source, "engine/data.py") == []

    def test_same_name_on_another_object_is_fine(self):
        source = "def stop(feature, pool):\n    feature.disable()\n    pool.collect()\n"
        assert lint_source(source, "engine/executor.py") == []

    def test_pragma_suppresses(self):
        source = "import gc\n\ngc.collect()  # det: allow(D005)\n"
        assert lint_source(source, "engine/executor.py") == []


class TestD006InterpreterObjectSize:
    def test_getsizeof_sizing_an_eviction(self):
        source = (
            "import sys\n\n"
            "def entry_bytes(entry):\n"
            "    return sys.getsizeof(entry.partitions)\n"
        )
        found = lint_source(source, "service/cache.py")
        assert [(f.code, f.line) for f in found] == [("D006", 4)]
        assert "sys.getsizeof" in found[0].message

    def test_from_import_and_alias(self):
        source = (
            "from sys import getsizeof as size\n"
            "import sys as system\n\n"
            "size(1)\n"
            "system.getsizeof(2)\n"
        )
        assert codes(lint_source(source, "sketches/hyperloglog.py")) == ["D006", "D006"]

    def test_no_path_is_exempt(self):
        source = "import sys\n\nsys.getsizeof([])\n"
        for path in ("analysis/runtime.py", "bench/runner.py", "common/rng.py"):
            assert codes(lint_source(source, path)) == ["D006"], path

    def test_other_sys_reads_and_formulas_are_fine(self):
        source = (
            "import sys\n\n"
            "def entry_bytes(rows, columns, sketch):\n"
            "    assert sys.version_info >= (3, 10)\n"
            "    return 8 * rows * columns + sketch.nbytes\n"
        )
        assert lint_source(source, "service/cache.py") == []

    def test_pragma_suppresses(self):
        source = "import sys\n\nsys.getsizeof(0)  # det: allow(D006)\n"
        assert lint_source(source, "service/cache.py") == []


class TestD007BinaryDecoder:
    def test_decoding_marshal_or_pickle_bytes(self):
        source = (
            "import marshal\n"
            "from pickle import load as unpickle, loads\n\n"
            "def restore(data, handle):\n"
            "    return marshal.loads(data), unpickle(handle), loads(data)\n"
        )
        found = lint_source(source, "service/store.py")
        assert codes(found) == ["D007"] * 3
        assert {f.line for f in found} == {5}
        assert "marshal.loads" in found[0].message

    def test_encoding_is_fine(self):
        source = (
            "import marshal\nimport pickle\nimport json\n\n"
            "def token(chunk, state):\n"
            "    return marshal.dumps(chunk, 2), pickle.dumps(chunk), json.loads(state)\n"
        )
        assert lint_source(source, "service/store.py") == []


class TestD008PerValueDigest:
    def test_blake2b_outside_the_kernel(self):
        source = (
            "import hashlib\n"
            "from hashlib import blake2b as b2\n\n"
            "def route(keys):\n"
            "    return [hashlib.blake2b(k, digest_size=8) for k in keys], b2(b'x')\n"
        )
        found = lint_source(source, "storage/dataset.py")
        assert [(f.code, f.line) for f in found] == [("D008", 5), ("D008", 5)]

    def test_the_kernel_token_and_fingerprint_are_exempt(self):
        source = "import hashlib\n\nhashes = [hashlib.blake2b(k) for k in (b'a',)]\n"
        for path in ("common/rng.py", "service/store.py", "engine/bloom.py"):
            assert lint_source(source, path) == []


class TestD009StableHashOutsideKernel:
    def test_hashing_a_key_outside_the_kernel(self):
        source = (
            "from repro.common import rng\n"
            "from repro.common.rng import stable_hashes as hashes\n\n"
            "def route(keys, n):\n"
            "    return [h % n for h in hashes(keys)], rng.stable_hash(keys[0])\n"
        )
        found = lint_source(source, "storage/dataset.py")
        assert [(f.code, f.line) for f in found] == [("D009", 5), ("D009", 5)]
        called = {f.message.split("()")[0] for f in found}
        assert called == {"stable_hash", "stable_hashes"}

    def test_the_kernel_hll_and_bloom_filter_are_exempt(self):
        source = (
            "from repro.common.rng import stable_hash, stable_hashes\n\n"
            "hashes = stable_hashes([1, 2]) + [stable_hash(3)]\n"
        )
        for path in ("common/rng.py", "sketches/hyperloglog.py", "engine/bloom.py"):
            assert lint_source(source, path) == []


class TestF401UnusedImport:
    def test_import_nothing_reads(self):
        source = "import os\nfrom repro.bench import service, skew\n\nskew.run_skew()\n"
        found = lint_source(source, "bench/__main__.py")
        assert [(f.code, f.line) for f in found] == [("F401", 1), ("F401", 2)]
        assert "service" in found[1].message

    def test_reads_reexports_and_quoted_annotations_count(self):
        source = (
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "import a.b\n"
            "from m import exported, appended, explicit as explicit\n"
            "if TYPE_CHECKING:\n"
            "    from t import Quoted\n"
            "__all__ = ['exported']\n"
            "__all__.append('appended')\n"
            "def f(x: 'Quoted | None'):\n"
            "    return a.b.c(x)\n"
        )
        assert lint_source(source, "lang/__init__.py") == []


class TestF821UndefinedName:
    def test_reference_stranded_by_a_deleted_import(self):
        source = (
            "from repro.bench import skew\n\n"
            "def run(args):\n"
            "    return skew.run_skew(), service.BASELINE_PATH\n"
        )
        found = lint_source(source, "bench/__main__.py")
        assert [(f.code, f.line) for f in found] == [("F821", 4)]
        assert "service" in found[0].message

    def test_every_kind_of_binding_resolves(self):
        source = (
            "import os\n"
            "LIMIT = 3\n"
            "def outer(a, *rest, key=None, **extra):\n"
            "    global counter\n"
            "    counter = len(rest)\n"
            "    def inner():\n"
            "        return a, key, extra, later, LIMIT, __name__\n"
            "    later = [y for x in rest for y in x if (z := y)]\n"
            "    try:\n"
            "        with open(os.devnull) as handle:\n"
            "            return inner, handle, z\n"
            "    except OSError as error:\n"
            "        return error, counter\n"
            "class K:\n"
            "    size = LIMIT\n"
            "    def method(self):\n"
            "        return lambda q: (q, self, K, outer)\n"
        )
        assert lint_source(source, "engine/executor.py") == []


class TestW001StalePragma:
    def test_stale_pragma_trips(self):
        source = "def f(x):\n    return x  # det: allow(D001)\n"
        found = lint_source(source, "engine/metrics.py")
        assert codes(found) == ["W001"]
        assert found[0].severity == "warning"
        assert found[0].line == 2

    def test_live_pragma_does_not_trip(self):
        source = (
            "from time import perf_counter\n"
            "def f():\n"
            "    return perf_counter()  # det: allow(D001)\n"
        )
        assert lint_source(source, "engine/metrics.py") == []

    def test_pragma_for_a_different_code_is_stale(self):
        # The line has a real D001 but the pragma excuses D003: the finding
        # fires AND the mismatched pragma is reported stale.
        source = (
            "from time import perf_counter\n"
            "def f():\n"
            "    return perf_counter()  # det: allow(D003)\n"
        )
        assert sorted(codes(lint_source(source, "engine/metrics.py"))) == [
            "D001",
            "W001",
        ]

    def test_w001_is_self_suppressible(self):
        source = (
            "def f(x):\n"
            "    return x  # det: allow(D001)  # det: allow(W001)\n"
        )
        assert lint_source(source, "engine/metrics.py") == []

    def test_lone_w001_pragma_is_not_stale(self):
        # allow(W001) never demands a live W001 on its line — it exists
        # exactly to mark conditionally-live pragmas.
        source = "def f(x):\n    return x  # det: allow(W001)\n"
        assert lint_source(source, "engine/metrics.py") == []


class TestHotPathCoverage:
    def test_service_and_transfer_paths_are_hot(self):
        assert any("service/" in fragment for fragment in HOT_PATHS)
        # core/ covers core/predicate_transfer.py — pin that it stays true.
        assert any(
            fragment in "core/predicate_transfer.py" for fragment in HOT_PATHS
        )

    def test_service_files_get_set_iteration_rule(self):
        source = "def f():\n    s = {1, 2}\n    for x in s:\n        print(x)\n"
        assert codes(lint_source(source, "service/admission.py")) == ["D003"]
        assert codes(lint_source(source, "core/predicate_transfer.py")) == [
            "D003"
        ]


class TestCLIFormats:
    def stale_file(self, tmp_path):
        target = tmp_path / "metrics_helper.py"
        target.write_text("def f(x):\n    return x  # det: allow(D001)\n")
        return target

    def test_exit_code_contract(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x\n")
        assert main([str(clean)]) == 0
        assert main([str(self.stale_file(tmp_path))]) == 1
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        assert main([str(self.stale_file(tmp_path)), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "W001"
        assert finding["rule"] == "stale-suppression-pragma"
        assert finding["severity"] == "warning"
        assert finding["line"] == 2

    def test_json_format_clean(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x\n")
        assert main([str(clean), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "findings": [],
            "count": 0,
        }

    def test_github_format(self, tmp_path, capsys):
        assert main([str(self.stale_file(tmp_path)), "--format", "github"]) == 1
        out = capsys.readouterr().out
        annotation = out.splitlines()[0]
        assert annotation.startswith("::warning file=")
        assert ",line=2::W001 stale-suppression-pragma:" in annotation

    def test_github_format_uses_error_level_for_errors(self, tmp_path, capsys):
        target = tmp_path / "engine_bit.py"
        target.write_text("import random\n")
        assert main([str(target), "--format", "github"]) == 1
        assert capsys.readouterr().out.startswith("::error file=")


    def test_select_reports_only_the_named_codes(self, tmp_path, capsys):
        target = tmp_path / "test_something.py"
        target.write_text("import random\nimport os\n\nrandom.seed(1)\n")
        assert main([str(target)]) == 1
        assert {"D002", "F401"} <= set(capsys.readouterr().out.split())
        assert main([str(target), "--select", "F401,F821"]) == 1
        out = capsys.readouterr().out
        assert "F401" in out and "D002" not in out
        assert main([str(target), "--select", "F821"]) == 0
        capsys.readouterr()


class TestCleanTree:
    def test_src_repro_is_lint_clean(self):
        """The engine's own source must satisfy its own determinism lint."""
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        findings = lint_paths([root])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_tests_and_paper_figures_strand_no_import_or_name(self):
        """F401 / F821 over ``tests/`` and ``benchmarks/*.py``; the D-rules
        are invariants of library code and do not apply to them."""
        repo = Path(__file__).resolve().parents[2]
        roots = [repo / "tests", *sorted((repo / "benchmarks").glob("*.py"))]
        findings = [f for f in lint_paths(roots) if f.code in ("F401", "F821")]
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_one_constructor_of_requests_and_results(self):
        """Only the run record builds a ``JobRequest`` or an
        ``ExecutionResult`` (the service's cached answer, which ran nothing,
        is the one other result): a strategy that assembled its own could
        report phases or metrics that disagree with what ran."""
        import ast

        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        allowed = {
            "JobRequest": {"engine/scheduler/request.py"},
            "ExecutionResult": {"engine/scheduler/request.py", "service/cache.py"},
        }
        callers: dict[str, set[str]] = {name: set() for name in allowed}
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in allowed:
                        callers[name].add(path.relative_to(root).as_posix())
        assert callers == allowed

    def test_one_driver_of_stage_generators(self):
        """Only the job scheduler resumes a stage generator (``.send``) or
        turns a request into work (``run_request``): a blocking run is a
        one-query schedule, so there is no second driver to drift from it."""
        import ast

        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        drivers: set[str] = set()
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in ("send", "run_request"):
                        drivers.add(path.relative_to(root).as_posix())
        assert drivers == {"engine/scheduler/scheduler.py"}

    def test_the_launch_rule_is_a_function_of_its_arguments(self):
        """``engine/scheduler/launch.py`` imports nothing from the scheduler
        and assigns no attribute, global or nonlocal: which requests share a
        launch depends on the ready set it is handed and nothing else."""
        import ast

        path = Path(__file__).resolve().parents[2] / "src/repro/engine/scheduler/launch.py"
        imported: list[str] = []
        writes: list[str] = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported.append("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                writes.append(ast.unparse(node))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                writes += node.names
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setattr"):
                writes.append(ast.unparse(node))
        assert not [m for m in imported if "scheduler" in m or m.startswith(".")]
        assert "repro.engine.operators.scan" in imported  # the walk saw the imports
        assert writes == []

    def test_rows_are_an_ingest_and_a_result_format_nothing_in_between(self):
        """Storage is the one place that knows a partition's format, so: the
        engine never asks which partition class it was handed; nothing but
        the reference evaluator (and the ``evaluate_batch`` base fallback)
        evaluates a predicate on a row dict; and in-flight data becomes row
        dicts only where ``QueryRun.result`` packages the answer."""
        import ast

        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        partition_checks: set[str] = set()
        row_evaluations: set[str] = set()
        row_conversions: set[str] = set()
        for path in root.rglob("*.py"):
            relative = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr in (
                    "to_row_partitions",
                    "all_rows",
                ):
                    row_conversions.add(relative)
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "isinstance" and relative.startswith("engine/"):
                    classes = ast.unparse(node.args[1])
                    if "Partition" in classes:
                        partition_checks.add(f"{relative}: {classes}")
                if name == "evaluate" and len(node.args) == 2:
                    row_evaluations.add(relative)
        assert partition_checks == set()
        assert row_evaluations == {"testing.py", "lang/ast.py"}
        assert row_conversions == {"engine/scheduler/request.py"}
