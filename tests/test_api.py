"""Every name in a privagg module's ``__all__`` resolves, and is listed once.

A name deleted from a module but left in its ``__all__`` would break
``from privagg.<module> import *`` only when someone ran it; this checks
every module that declares an ``__all__``.
"""

import importlib
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
