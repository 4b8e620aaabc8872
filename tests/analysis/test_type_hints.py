"""The local stand-in for the type check CI runs (``mypy`` is not installed).

``[tool.mypy] files`` in ``pyproject.toml`` lists the typed islands. An
annotation there that names something the module never imports, or that is
not an expression at all, is caught here without a download:
``typing.get_type_hints`` must resolve for every function and method the
listed files define, with names imported under ``if TYPE_CHECKING:`` made
available as a type checker would. The modules this list last grew by are
also held to full annotation.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import tomllib
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: modules where every parameter and return is annotated
FULLY_ANNOTATED = (
    "repro.stats.collector",
    "repro.storage.ingest",
    "repro.service.store",
    "repro.lang.parser",
    "repro.core.planner",
    "repro.engine.scheduler.launch",
    "repro.bench.sweep",
    "repro.engine.vector",
    "repro.spec",
    "repro.engine.operators.joins",
    "repro.engine.operators.scan",
    "repro.engine.operators.sink",
    "repro.engine.exchange",
    "repro.engine.data",
    "repro.storage.dataset",
    "repro.storage.index",
    "repro.workloads.spec",
    "repro.lang.udf",
    "repro.engine.operators.select",
    "repro.storage.catalog",
    "repro.engine.metrics",
    "repro.obs.report",
    "repro.common.rng",
    "repro.algebra.plan",
    "repro.obs.trace",
    "repro.analysis.runtime",
    "repro.obs.timeline",
    "repro.engine.scheduler.scheduler",
    "repro.engine.scheduler.request",
)


def listed_modules() -> list[str]:
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["mypy"]
    modules = []
    for entry in config["files"]:
        path = ROOT / entry
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            parts = file.relative_to(ROOT / config["mypy_path"]).with_suffix("").parts
            modules.append(".".join(p for p in parts if p != "__init__"))
    return modules


def type_checking_names(module) -> dict[str, object]:
    """What the ``from … import`` lines of ``module``'s ``if TYPE_CHECKING:``
    blocks name, imported (the only form the listed files use there)."""
    names: dict[str, object] = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom), ast.unparse(statement)
                source = importlib.import_module(statement.module)
                for alias in statement.names:
                    names[alias.asname or alias.name] = getattr(source, alias.name)
    return names


def defined_functions(module):
    """``(qualified name, function)`` for every function, method, property
    accessor, classmethod and staticmethod ``module`` itself defines."""

    def unwrap(member):
        if isinstance(member, (classmethod, staticmethod)):
            return [member.__func__]
        if isinstance(member, property):
            return [f for f in (member.fget, member.fset, member.fdel) if f]
        return [member] if inspect.isfunction(member) else []

    for name, member in vars(module).items():
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(member):
            for attribute, value in vars(member).items():
                for function in unwrap(value):
                    yield f"{name}.{attribute}", function
        elif inspect.isfunction(member):
            yield name, member


MODULES = listed_modules()


def test_the_list_names_files_that_exist():
    assert len(MODULES) >= 20
    assert set(FULLY_ANNOTATED) <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(name)
    extra = type_checking_names(module)
    for qualified, function in defined_functions(module):
        try:
            # the module's namespace, not ``function.__globals__``: a
            # ``NamedTuple``'s generated ``__new__`` carries the class's
            # annotations but is compiled where no name resolves
            typing.get_type_hints(function, globalns=vars(module), localns=extra)
        except Exception as error:  # noqa: BLE001 - the message names the function
            pytest.fail(f"{name}.{qualified}: {type(error).__name__}: {error}")


@pytest.mark.parametrize("name", FULLY_ANNOTATED)
def test_grown_modules_are_fully_annotated(name):
    module = importlib.import_module(name)
    missing = []
    for qualified, function in defined_functions(module):
        if function.__code__.co_filename != module.__file__:
            continue  # generated by ``dataclass`` or ``NamedTuple``
        signature = inspect.signature(function)
        unannotated = [
            parameter.name
            for parameter in signature.parameters.values()
            if parameter.annotation is inspect.Parameter.empty
            and parameter.name not in ("self", "cls")
            and parameter.kind
            not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        ]
        if unannotated or signature.return_annotation is inspect.Signature.empty:
            missing.append((qualified, unannotated))
    assert missing == []
