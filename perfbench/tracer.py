"""Per-layer tracer that wraps privagg's public functions from outside.

The tracer replaces each target function with a wrapper that records the
call count, the self time (span duration minus the time of traced calls made
inside it) and optional counts read from the returned result. It changes no
file of the library: it rebinds module globals and class attributes while it
is active and puts every original back on exit.

Functions are reached through ``sys.modules``. ``from .lp_core import
exact_lp_min`` copies the function into ``privagg.presl``'s globals, so the
tracer rebinds every module-level name that refers to the original object,
in every ``privagg`` module and in any extra module it is given. Attribute
access would not work for all targets: the package ``__init__`` rebinds
``privagg.presl`` to the *function* ``presl``, which hides the submodule.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Target:
    """One function to wrap: ``module`` is relative to the package, ``qualname``
    is ``func`` or ``Class.method``; ``counts`` maps a count's name to the
    function that reads it from a returned result."""

    module: str
    qualname: str
    counts: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


PACKAGE = "privagg"


class Tracer:
    """Context manager that wraps ``targets`` while it is active.

    ``stats[name]`` holds calls, self time and result counts per target, and
    ``calls_under[(name, parent)]`` counts calls by their closest traced
    caller (``None`` when called from untraced code).
    """

    def __init__(self, targets, extra_modules=()):
        self.targets = list(targets)
        self.extra_modules = list(extra_modules)
        self.stats = {
            t.name: SpanStats(counts=dict.fromkeys(t.counts, 0)) for t in self.targets
        }
        self.calls_under: dict[tuple, int] = defaultdict(int)
        self._stack: list = []  # [name, start, child_time] per open span
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        mods = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        return mods + [m for m in self.extra_modules if m not in mods]

    def __enter__(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already active")
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self, target: Target) -> None:
        module = sys.modules[f"{PACKAGE}.{target.module}"]
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            had_own = attr in cls.__dict__
            original = cls.__dict__[attr] if had_own else getattr(cls, attr)
            setattr(cls, attr, self._wrap(target, original))
            self._restore.append(("class", cls, attr, original, had_own))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(target, original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append(("module", mod, key, original, True))

    def _uninstall(self) -> None:
        while self._restore:
            kind, owner, attr, original, had_own = self._restore.pop()
            if kind == "class" and not had_own:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, target: Target, original):
        name = target.name
        stats = self.stats[name]
        stack = self._stack
        calls_under = self.calls_under
        readers = list(target.counts.items())
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                stats.calls += 1
                stats.self_s += duration - frame[2]
                calls_under[(name, parent)] += 1
                if stack:
                    stack[-1][2] += duration
            for key, read in readers:
                stats.counts[key] += read(result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", target.qualname)
        return wrapper
