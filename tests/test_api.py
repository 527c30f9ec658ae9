"""Every name in a privagg module's ``__all__`` resolves, and is listed once.

A name deleted from a module but left in its ``__all__`` would break
``from privagg.<module> import *`` only when someone ran it; this checks
every module that declares an ``__all__``. A static check also confines
every private stage to a solver's stage table and every charge and sparse
session to the ledger.
"""

import ast
import importlib
import pathlib
import pkgutil
from collections import Counter

import pytest

import privagg

MODULES = [
    module
    for module in (
        importlib.import_module(f"privagg.{info.name}")
        for info in pkgutil.iter_modules(privagg.__path__)
    )
    if hasattr(module, "__all__")
]


def test_the_solver_modules_declare_their_exports():
    names = {module.__name__ for module in MODULES}
    assert {"privagg.dp_core", "privagg.game_core", "privagg.onedim"} <= names


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves_once(module):
    repeated = [name for name, count in Counter(module.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def stage_lint(tree: ast.AST, module: str) -> list:
    """Where a module's syntax tree spends budget outside the stage tables:
    a ``SparseSession(...)`` built anywhere but ``PrivacyLedger.scan``, any
    ``open_session`` left, a ``Stage(...)`` built outside a ``*_stages``
    table, and a ``.scan(...)`` or ``.charge(...)`` outside the ledger whose
    stage is not a name the enclosing function binds from a ``*_stages``
    call. Each finding is "<scope>: <what>"."""
    found = []

    def is_table_call(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name.endswith("_stages")

    def table_names(function) -> set:
        names = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and is_table_call(node.value):
                for target in node.targets:
                    elts = target.elts if isinstance(target, ast.Tuple) else [target]
                    names.update(elt.id for elt in elts if isinstance(elt, ast.Name))
        return names

    def visit(node, scope, functions):
        if isinstance(node, ast.ClassDef):
            scope = scope + (node.name,)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope, functions = scope + (node.name,), functions + (node,)
        where = ".".join(scope)
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name == "open_session":
            found.append(f"{where}: open_session")
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "SparseSession" and where != "PrivacyLedger.scan":
                found.append(f"{where}: SparseSession")
            in_table = bool(scope) and scope[-1].endswith("_stages")
            if called == "Stage" and module != "dp_core" and not in_table:
                found.append(f"{where}: Stage outside a table")
            in_ledger = scope[:1] == ("PrivacyLedger",)
            if isinstance(func, ast.Attribute) and called in ("scan", "charge") and not in_ledger:
                stage = node.args[0] if node.args else None
                bound = set().union(*map(table_names, functions))
                if not (isinstance(stage, ast.Name) and stage.id in bound):
                    found.append(f"{where}: {called} of a stage from no table")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, functions)

    visit(tree, (), ())
    return found


def source_trees() -> dict:
    return {
        info.name: ast.parse((pathlib.Path(privagg.__path__[0]) / f"{info.name}.py").read_text())
        for info in pkgutil.iter_modules(privagg.__path__)
    }


def test_sparse_sessions_are_opened_only_through_the_ledger():
    # README: "no stage runs unrecorded". A session built anywhere but
    # PrivacyLedger.scan, or a charge of a stage no table declares, would
    # spend budget that no stage table records.
    found = {name: stage_lint(tree, name) for name, tree in source_trees().items()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_stage_lint_flags_each_way_round_the_tables():
    bad = ast.parse(
        "def run(ledger, src, stage, k):\n"
        "    SparseSession(1.0, 0.0, 1.0, src)\n"
        "    ledger.open_session('x', 1.0, 0.0, 1.0, src)\n"
        "    ledger.scan(stage, src, None, 0)\n"
        "    ledger.charge(Stage('x', 'x', 1.0, 1.0))\n"
        "    a, b = _solver_stages(k)\n"
        "    ledger.scan(a, src, None, 0)\n"
        "    ledger.charge(b)\n"
        "def _solver_stages(k):\n"
        "    return Stage('a', 'a', 1.0, k), Stage('b', 'b', 1.0, k)\n"
    )
    assert stage_lint(bad, "solver") == [
        "run: SparseSession", "run: open_session", "run: scan of a stage from no table",
        "run: charge of a stage from no table", "run: Stage outside a table",
    ]
