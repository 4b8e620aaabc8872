"""Engine determinism lint: AST rules the byte-identity guarantees rest on.

The scheduler's contract (DESIGN.md §7) is that a query's rows, plan,
phases, metrics and simulated seconds are schedule-independent, and that
``job_slots=1`` reproduces the serial schedule byte for byte. Those
guarantees hold only if the engine itself is deterministic: no wall-clock
reads, no unseeded randomness, no iteration over unordered containers in
planning/scheduling paths, and no queue-delay leakage into per-query
:class:`~repro.engine.metrics.JobMetrics`. This module enforces exactly
that, as an AST pass over ``src/repro``:

========  ============================  =============================================
code      rule                          invariant
========  ============================  =============================================
``D001``  wall-clock-in-engine-code     no ``time.time``/``datetime.now``-family
                                        calls outside ``common/rng.py`` and
                                        ``analysis/`` (the verifier's wall-time
                                        overhead meter is host-side, never simulated)
``D002``  bare-random                   the ``random`` module only via
                                        ``common/rng.py``'s seeded derivation
``D003``  unordered-set-iteration       no ``for``/comprehension iteration over
                                        set-typed values in planner/optimizer/
                                        scheduler hot paths unless wrapped in an
                                        order-insensitive reducer (``sorted`` & co.)
``D004``  queue-delay-in-jobmetrics     queue delay lives on ``ScheduleInfo``/the
                                        timeline, never inside ``JobMetrics``
``D005``  collector-state-in-library    no ``gc.disable``/``enable``/``freeze``/
          -code                         ``unfreeze``/``set_threshold``/``collect``
                                        call anywhere under ``src/repro`` — the
                                        cycle collector belongs to the embedding
                                        process; fix the heap, not the collector
                                        (DESIGN.md §10.3)
``D006``  interpreter-object-size       no ``sys.getsizeof`` call under
                                        ``src/repro`` — a size that feeds a
                                        decision (a cache eviction) is an explicit
                                        formula, identical on every Python version
``D007``  binary-decoder                no ``marshal.load``/``loads`` or
                                        ``pickle.load``/``loads`` call under
                                        ``src/repro`` — the content token
                                        encodes with ``marshal`` and nothing
                                        decodes it; persisted state is JSON
``D008``  per-value-digest              no ``hashlib.blake2b(...)`` call under
                                        ``src/repro`` outside ``common/rng.py``
                                        (the stable-hash kernel),
                                        ``service/store.py`` and
                                        ``engine/bloom.py`` (one digest per
                                        call each) — per-value hashing has one
                                        definition, the kernel's copied state
``D009``  stable-hash-outside-kernel    no ``stable_hash``/``stable_hashes`` call
                                        from ``repro.common.rng`` outside
                                        ``common/rng.py``,
                                        ``sketches/hyperloglog.py`` and
                                        ``engine/bloom.py`` — routing has one
                                        definition, ``partition_slots`` and
                                        its memo
``F401``  unused-import                 every imported name is read, re-exported
                                        through ``__all__`` or spelled ``import x
                                        as x`` — a deletion strands no import
``F821``  undefined-name                every name read resolves to a builtin, a
                                        module-level binding or a binding of an
                                        enclosing scope — a deletion strands no
                                        reference (``ruff``'s two AST-visible
                                        classes; ``ruff`` itself runs only in CI)
``W001``  stale-suppression-pragma      every ``# det: allow(...)`` pragma must
                                        still suppress a live finding — a stale
                                        pragma is an invisible hole in the lint
========  ============================  =============================================

``# det: allow(<code>)`` on the offending line suppresses a finding (used for
reviewed exceptions); a pragma whose finding has since been fixed trips
``W001`` so suppressions cannot silently outlive their reason (itself
suppressible with ``# det: allow(W001)`` for pragmas that are only
conditionally live). Dict iteration is deliberately *not* flagged: Python
dicts preserve insertion order, which the planners rely on.

Run from the command line (CI's ``analysis`` job does)::

    PYTHONPATH=src python -m repro.analysis.lint            # lints src/repro
    PYTHONPATH=src python -m repro.analysis.lint path/      # or explicit paths
    PYTHONPATH=src python -m repro.analysis.lint --select F401,F821 tests benchmarks/*.py
    PYTHONPATH=src python -m repro.analysis.lint --format json     # machine-readable
    PYTHONPATH=src python -m repro.analysis.lint --format github   # CI annotations

Exit code contract (pinned by tests, relied on by CI): ``0`` when there are
no findings, ``1`` when there are any — warnings included.
"""

from __future__ import annotations

import ast
import builtins
import re
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic

#: Path fragments (relative to the linted root, ``/``-separated) exempt from
#: the wall-clock and randomness rules.
CLOCK_EXEMPT = ("common/rng.py", "analysis/")
RANDOM_EXEMPT = ("common/rng.py",)
#: D008: the stable-hash kernel, the store's content token and the Bloom
#: filter's fingerprint each digest once per call; nothing else calls blake2b.
DIGEST_EXEMPT = ("common/rng.py", "service/store.py", "engine/bloom.py")
#: D009: the kernel, the HLL and the Bloom filter hash values; everything else
#: that needs a slot routes through ``partition_slots``.
STABLE_HASH_EXEMPT = ("common/rng.py", "sketches/hyperloglog.py", "engine/bloom.py")

#: D003 applies only inside planner/optimizer/scheduler hot paths — the code
#: whose iteration order feeds plan choices and schedules. The engine's
#: operator/kernel modules are hot paths too: their iteration order feeds
#: row order and the golden fingerprints of DESIGN.md §10.
HOT_PATHS = (
    "core/",  # includes core/predicate_transfer.py: pass order feeds schedules
    "optimizers/",
    "algebra/",
    "engine/scheduler/",
    "engine/operators/",
    "engine/vector",
    "engine/exchange",
    "engine/data",
    "engine/bloom",
    # A stored partition fixes the row order every scan and planner pass sees.
    "storage/",
    # The service layer orders admissions, cache evictions and sketch
    # persistence — schedule-visible decisions, so hot-path rules apply.
    "service/",
)

#: Wall-clock functions of the ``time`` module (D001).
WALLCLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
#: Wall-clock constructors of ``datetime``/``date`` objects (D001).
WALLCLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: ``gc`` functions that change or drive the collector's state (D005).
COLLECTOR_STATE_FUNCS = frozenset(
    {"disable", "enable", "freeze", "unfreeze", "set_threshold", "collect"}
)

#: Functions/attributes known to return sets (D003 provenance seeds).
SET_RETURNING_CALLS = frozenset(
    {
        "set",
        "frozenset",
        "leaf_provides",
        "node_provides",
        "join_columns_of",
        "columns_of",
        "query_required_columns",
    }
)
# NOTE: no attribute-name heuristic here on purpose. An earlier draft seeded
# provenance from ``.aliases`` (PlanNode.aliases is a frozenset) but the AST
# cannot tell it apart from Query.aliases — a tuple in FROM order — and the
# false-positive rate swamped the one real finding. D003 trusts only
# structural provenance: literals, known set-returning calls, annotations,
# and set-algebra expressions.

#: Order-insensitive consumers: iterating a set directly inside these is fine.
ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "min", "max", "len", "sum", "any", "all", "set", "frozenset"}
)

_PRAGMA = re.compile(r"#\s*det:\s*allow\(\s*([DFW]\d{3})\s*\)")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def lint_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Lint one module's source; ``path`` selects which rules apply."""
    tree = ast.parse(source, filename=path)
    normalized = path.replace("\\", "/")
    allowed = _pragma_lines(source)
    findings: list[Diagnostic] = []

    if not _exempt(normalized, CLOCK_EXEMPT):
        findings.extend(_check_wall_clock(tree, normalized))
    if not _exempt(normalized, RANDOM_EXEMPT):
        findings.extend(_check_bare_random(tree, normalized))
    if any(fragment in normalized for fragment in HOT_PATHS):
        findings.extend(_check_set_iteration(tree, normalized))
    findings.extend(_check_queue_delay(tree, normalized))
    findings.extend(_check_collector_state(tree, normalized))
    findings.extend(_check_object_sizes(tree, normalized))
    findings.extend(_check_binary_decoders(tree, normalized))
    if not _exempt(normalized, DIGEST_EXEMPT):
        findings.extend(_check_digests(tree, normalized))
    if not _exempt(normalized, STABLE_HASH_EXEMPT):
        findings.extend(_check_stable_hashes(tree, normalized))
    findings.extend(_check_unused_imports(tree, normalized))
    findings.extend(_check_undefined_names(tree, normalized))

    # W001 runs against the *pre-suppression* findings: a pragma is stale
    # exactly when no finding of its code exists on its line. Stale-pragma
    # warnings then flow through the same suppression filter, so
    # ``# det: allow(W001)`` can mark a pragma as intentionally conditional.
    findings.extend(_check_stale_pragmas(findings, allowed, normalized))

    return [
        finding
        for finding in findings
        if finding.code not in allowed.get(finding.line, frozenset())
    ]


def _check_stale_pragmas(
    findings: list[Diagnostic],
    allowed: dict[int, frozenset[str]],
    path: str,
) -> list[Diagnostic]:
    live: dict[int, set[str]] = {}
    for finding in findings:
        live.setdefault(finding.line, set()).add(finding.code)
    stale: list[Diagnostic] = []
    for line in sorted(allowed):
        for code in sorted(allowed[line]):
            if code == "W001" or code in live.get(line, ()):
                continue
            stale.append(
                Diagnostic(
                    code="W001",
                    message=f"stale pragma: `# det: allow({code})` suppresses "
                    "nothing on this line — the finding it excused is gone, "
                    "so remove the pragma (or allow(W001) it if the finding "
                    "is conditional)",
                    path=path,
                    line=line,
                    severity="warning",
                )
            )
    return stale


def lint_paths(paths: list[Path] | None = None) -> list[Diagnostic]:
    """Lint every ``.py`` file under the given roots (default: ``repro``)."""
    if not paths:
        paths = [Path(__file__).resolve().parents[1]]
    findings: list[Diagnostic] = []
    for root in paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        base = root if root.is_dir() else root.parent
        for file in files:
            rel = file.relative_to(base).as_posix()
            findings.extend(lint_source(file.read_text(), rel))
    return findings


def _pragma_lines(source: str) -> dict[int, frozenset[str]]:
    allowed: dict[int, frozenset[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        codes = frozenset(_PRAGMA.findall(line))
        if codes:
            allowed[number] = codes
    return allowed


def _exempt(path: str, fragments: tuple[str, ...]) -> bool:
    return any(fragment in path for fragment in fragments)


# -- D001: wall clock ----------------------------------------------------------


class _ImportTracker(ast.NodeVisitor):
    """Track which local names refer to ``time``/``datetime``/``random``."""

    def __init__(self) -> None:
        self.time_modules: set[str] = set()
        self.time_functions: set[str] = set()
        self.datetime_modules: set[str] = set()
        self.datetime_types: set[str] = set()
        self.random_names: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self.time_modules.add(local)
            elif alias.name == "datetime":
                self.datetime_modules.add(local)
            elif alias.name == "random" or alias.name.startswith("random."):
                self.random_names.add(local)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in WALLCLOCK_TIME_FUNCS:
                    self.time_functions.add(alias.asname or alias.name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.datetime_types.add(alias.asname or alias.name)
        elif node.module == "random":
            for alias in node.names:
                self.random_names.add(alias.asname or alias.name)


def _check_wall_clock(tree: ast.Module, path: str) -> list[Diagnostic]:
    imports = _ImportTracker()
    imports.visit(tree)
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imports.time_functions:
            findings.append(_source_diag("D001", func.id, node, path))
        elif isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Name)
                and value.id in imports.time_modules
                and func.attr in WALLCLOCK_TIME_FUNCS
            ):
                findings.append(
                    _source_diag("D001", f"{value.id}.{func.attr}", node, path)
                )
            elif func.attr in WALLCLOCK_DATETIME_FUNCS and _is_datetime_ref(
                value, imports
            ):
                findings.append(
                    _source_diag(
                        "D001", f"{ast.unparse(value)}.{func.attr}", node, path
                    )
                )
    return findings


def _is_datetime_ref(value: ast.expr, imports: _ImportTracker) -> bool:
    if isinstance(value, ast.Name):
        return value.id in imports.datetime_types
    if isinstance(value, ast.Attribute):
        return (
            isinstance(value.value, ast.Name)
            and value.value.id in imports.datetime_modules
            and value.attr in ("datetime", "date")
        )
    return False


def _source_diag(code: str, what: str, node: ast.AST, path: str) -> Diagnostic:
    messages = {
        "D001": f"wall-clock call {what}() in engine code — the engine runs "
        "on the simulated clock (JobMetrics), never the host's",
        "D002": f"direct use of the random module ({what}) — derive seeded "
        "generators through repro.common.rng instead",
        "D003": f"iteration over a set-typed value ({what}) in a "
        "planner/scheduler hot path — wrap in sorted() or an "
        "order-insensitive reducer",
        "D004": f"queue delay written into JobMetrics ({what}) — waiting "
        "belongs on ScheduleInfo/the timeline, never in per-query metrics",
        "D005": f"collector state touched from library code ({what}()) — the "
        "cycle collector belongs to the embedding process; keep fewer "
        "tracked containers alive instead",
        "D006": f"object size from the interpreter ({what}()) — it follows "
        "the Python version's object layout, so anything sized by it (a cache "
        "eviction, and with it the simulated clock) moves between versions; "
        "size by an explicit formula",
        "D007": f"binary decoder ({what}()) in library code — marshal and "
        "pickle bytes are only ever encoded here (the content token); a "
        "decoder trusts its input to be well-formed, and persisted state is "
        "JSON",
        "D008": f"{what}() called outside the stable-hash kernel — per-value "
        "hashing goes through repro.common.rng (stable_hash, stable_hashes), "
        "whose one digest step copies a prepared state",
        "D009": f"{what}() called outside the kernel, the HLL and the Bloom "
        "filter — a partition slot comes from repro.common.rng.partition_slots, "
        "the one routing definition and its memo",
        "F401": f"{what} imported but never read, re-exported through "
        "__all__ or spelled `import x as x`",
        "F821": f"undefined name {what} — no builtin, module-level binding "
        "or enclosing scope provides it",
    }
    return Diagnostic(
        code=code,
        message=messages[code],
        path=path,
        line=getattr(node, "lineno", 0),
    )


# -- D002: bare random ---------------------------------------------------------


def _check_bare_random(tree: ast.Module, path: str) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    findings.append(
                        _source_diag("D002", f"import {alias.name}", node, path)
                    )
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            names = ", ".join(alias.name for alias in node.names)
            findings.append(
                _source_diag("D002", f"from random import {names}", node, path)
            )
    return findings


# -- D003: unordered set iteration ---------------------------------------------


class _SetIterationChecker(ast.NodeVisitor):
    """Flag iteration over set-typed expressions outside ordered wrappers.

    Set provenance is inferred locally: set literals/comprehensions,
    ``set()``/``frozenset()`` calls, calls of known set-returning helpers,
    set-algebra operators over set-typed operands, and names assigned from
    any of those. The inference is deliberately coarse — it is a lint, not a
    type checker — but it is exactly precise enough to catch the bug class
    (nondeterministic plan/schedule choices from hash-order iteration).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Diagnostic] = []
        self.set_names: set[str] = set()
        self._safe_exprs: set[int] = set()

    # - provenance -

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            return name in SET_RETURNING_CALLS
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        annotation = ast.unparse(node.annotation)
        if isinstance(node.target, ast.Name) and (
            annotation.startswith(("set", "frozenset"))
            or (node.value is not None and self._is_set_expr(node.value))
        ):
            self.set_names.add(node.target.id)
        self.generic_visit(node)

    # - safe wrappers -

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ORDER_INSENSITIVE_CALLS:
            for arg in node.args:
                self._safe_exprs.add(id(arg))
                if isinstance(arg, ast.GeneratorExp):
                    for comprehension in arg.generators:
                        self._safe_exprs.add(id(comprehension.iter))
        self.generic_visit(node)

    # - iteration sites -

    def visit_For(self, node: ast.For) -> None:
        self._flag_if_set(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(
        self, node: ast.ListComp | ast.GeneratorExp | ast.DictComp
    ) -> None:
        for comprehension in node.generators:
            self._flag_if_set(comprehension.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    # SetComp output is itself unordered: iteration order cannot leak.

    def _flag_if_set(self, iterable: ast.expr, site: ast.AST) -> None:
        if id(iterable) in self._safe_exprs or id(site) in self._safe_exprs:
            return
        if self._is_set_expr(iterable):
            self.findings.append(
                _source_diag("D003", ast.unparse(iterable), site, self.path)
            )


def _check_set_iteration(tree: ast.Module, path: str) -> list[Diagnostic]:
    checker = _SetIterationChecker(path)
    checker.visit(tree)
    return checker.findings


# -- D004: queue delay in JobMetrics -------------------------------------------


_METRICS_BASES = ("metrics", "cumulative")
_DELAY_PATTERN = re.compile(r"queue|delay", re.IGNORECASE)


def _check_queue_delay(tree: ast.Module, path: str) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "JobMetrics":
            for statement in node.body:
                target = None
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    target = statement.target.id
                elif isinstance(statement, ast.Assign) and isinstance(
                    statement.targets[0], ast.Name
                ):
                    target = statement.targets[0].id
                if target and _DELAY_PATTERN.search(target):
                    findings.append(
                        _source_diag(
                            "D004", f"JobMetrics.{target}", statement, path
                        )
                    )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and "queue_delay" in target.attr
                    and isinstance(target.value, ast.Name)
                    and any(
                        base in target.value.id.lower()
                        for base in _METRICS_BASES
                    )
                ):
                    findings.append(
                        _source_diag(
                            "D004",
                            f"{target.value.id}.{target.attr}",
                            node,
                            path,
                        )
                    )
    return findings


# -- D005 / D006 / D007: calls of a module's functions -------------------------


def _module_calls(tree: ast.Module, module: str, names: frozenset[str]):
    """``(call, function name)`` for every call of ``module.<name>``, through
    ``import module [as alias]``, ``from package import module [as alias]`` or
    ``from module import name [as alias]``."""
    package, _, leaf = module.rpartition(".")
    modules: set[str] = set()
    functions: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == module)
        elif isinstance(node, ast.ImportFrom) and package and node.module == package:
            modules.update(a.asname or a.name for a in node.names if a.name == leaf)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            functions.update(
                (a.asname or a.name, a.name) for a in node.names if a.name in names
            )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in functions:
            yield node, functions[func.id]
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in names
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ):
            yield node, func.attr


def _check_collector_state(tree: ast.Module, path: str) -> list[Diagnostic]:
    return [
        _source_diag("D005", f"gc.{name}", node, path)
        for node, name in _module_calls(tree, "gc", COLLECTOR_STATE_FUNCS)
    ]


def _check_object_sizes(tree: ast.Module, path: str) -> list[Diagnostic]:
    return [
        _source_diag("D006", f"sys.{name}", node, path)
        for node, name in _module_calls(tree, "sys", frozenset({"getsizeof"}))
    ]


def _check_binary_decoders(tree: ast.Module, path: str) -> list[Diagnostic]:
    return [
        _source_diag("D007", f"{module}.{name}", node, path)
        for module in ("marshal", "pickle")
        for node, name in _module_calls(tree, module, frozenset({"load", "loads"}))
    ]


# -- D008: per-value digest ----------------------------------------------------


def _check_digests(tree: ast.Module, path: str) -> list[Diagnostic]:
    return [
        _source_diag("D008", "hashlib.blake2b", node, path)
        for node, _ in _module_calls(tree, "hashlib", frozenset({"blake2b"}))
    ]


# -- D009: stable hash outside the kernel ---------------------------------------


def _check_stable_hashes(tree: ast.Module, path: str) -> list[Diagnostic]:
    return [
        _source_diag("D009", name, node, path)
        for node, name in _module_calls(
            tree, "repro.common.rng", frozenset({"stable_hash", "stable_hashes"})
        )
    ]


# -- F401 / F821: import hygiene -----------------------------------------------


def _imported_names(
    node: ast.Import | ast.ImportFrom,
) -> list[tuple[str, ast.alias]]:
    """``(local name, alias)`` per binding; star and ``__future__`` bind none."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        (alias.asname or alias.name.split(".")[0], alias)
        for alias in node.names
        if alias.name != "*"
    ]


def _check_unused_imports(tree: ast.Module, path: str) -> list[Diagnostic]:
    nodes = list(ast.walk(tree))
    read = {
        node.id
        for node in nodes
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    # A quoted annotation reads the names spelled inside the string.
    for node in nodes:
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for quoted in ast.walk(annotation) if annotation is not None else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                read.update(_IDENTIFIER.findall(quoted.value))
    # Any module-level statement naming ``__all__`` exports the strings in it.
    for statement in tree.body:
        parts = list(ast.walk(statement))
        if any(isinstance(part, ast.Name) and part.id == "__all__" for part in parts):
            read.update(
                part.value
                for part in parts
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
    return [
        _source_diag("F401", ast.unparse(alias), node, path)
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for local, alias in _imported_names(node)
        if local not in read and alias.asname != alias.name
    ]


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
#: names every module (or every method body) can read without binding them
_IMPLICIT_NAMES = frozenset(
    {
        "__name__",
        "__file__",
        "__doc__",
        "__package__",
        "__spec__",
        "__path__",
        "__class__",
        "__builtins__",
    }
)


def _bound_names(scope: ast.AST) -> set[str]:
    """Names bound in ``scope`` itself; a nested scope contributes its name.

    Comprehension targets count as the enclosing scope's and a class body's
    names as visible to its methods: over-approximations that can hide a
    finding, never invent one.
    """
    names: set[str] = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(local for local, _ in _imported_names(node))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)):
            names.add(node.name or "")
        elif isinstance(node, ast.MatchMapping):
            names.add(node.rest or "")
        elif isinstance(node, _SCOPE_NODES):
            names.add(getattr(node, "name", ""))
            continue
        stack.extend(ast.iter_child_nodes(node))
    return names


def _check_undefined_names(tree: ast.Module, path: str) -> list[Diagnostic]:
    nodes = list(ast.walk(tree))
    if any(
        isinstance(node, ast.ImportFrom) and node.names[0].name == "*"
        for node in nodes
    ):
        return []  # a star import binds names no AST walk can see
    findings: list[Diagnostic] = []

    def visit(node: ast.AST, visible: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                visit(child, visible | _bound_names(child))
                continue
            if (
                isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Load)
                and child.id not in visible
            ):
                findings.append(_source_diag("F821", child.id, child, path))
            visit(child, visible)

    declared_global = {
        name for node in nodes if isinstance(node, ast.Global) for name in node.names
    }
    visit(
        tree,
        set(dir(builtins)) | _IMPLICIT_NAMES | declared_global | _bound_names(tree),
    )
    return findings


# -- CLI -----------------------------------------------------------------------


def _github_annotation(finding: Diagnostic) -> str:
    # GitHub workflow-command annotations; paths are repo-relative when the
    # linted file resolves under src/repro (the CI checkout layout).
    level = "warning" if finding.severity == "warning" else "error"
    path = finding.path
    if (Path("src/repro") / path).exists():
        path = f"src/repro/{path}"
    from repro.analysis.diagnostics import RULES

    rule = RULES.get(finding.code, "")
    return (
        f"::{level} file={path},line={finding.line}"
        f"::{finding.code} {rule}: {finding.message}"
    )


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Engine source lint (rules D001-D009, F401, F821, W001).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format: human-readable text (default), a JSON document, "
        "or GitHub Actions workflow-command annotations",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="report only these comma-separated rule codes, e.g. F401,F821 "
        "over tests/ (the D-rules are invariants of library code only)",
    )
    args = parser.parse_args(argv)
    findings = lint_paths(list(args.paths))
    if args.select:
        findings = [f for f in findings if f.code in args.select.split(",")]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [finding.to_dict() for finding in findings],
                    "count": len(findings),
                },
                indent=2,
            )
        )
    elif args.format == "github":
        for finding in findings:
            print(_github_annotation(finding))
        print(f"determinism lint: {len(findings)} finding(s)")
    else:
        for finding in findings:
            print(finding.render())
        print(f"determinism lint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
