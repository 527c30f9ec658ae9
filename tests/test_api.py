"""Every name in a privagg module's ``__all__`` resolves, and is listed once.

A name deleted from a module but left in its ``__all__`` would break
``from privagg.<module> import *`` only when someone ran it; this checks
every module that declares an ``__all__``. A static check also confines the
construction of sparse sessions to the ledger.
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


def session_constructions(tree: ast.AST) -> list:
    """The qualified name of the function around each ``SparseSession(...)``
    call in a module's syntax tree ("" at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "SparseSession":
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_sparse_sessions_are_opened_only_through_the_ledger():
    # README: "no session runs unrecorded". A session built anywhere but
    # PrivacyLedger.open_session would spend budget that no ledger records.
    sites = {}
    for info in pkgutil.iter_modules(privagg.__path__):
        path = pathlib.Path(privagg.__path__[0]) / f"{info.name}.py"
        sites[info.name] = session_constructions(ast.parse(path.read_text()))
    assert {name: found for name, found in sites.items() if found} == {
        "dp_core": ["PrivacyLedger.open_session"]
    }
