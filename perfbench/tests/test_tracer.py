"""Self-checks of the benchmark's tracer and metric lists.

Run with ``python3 -m pytest perfbench/tests`` from the repository root. The
requests here are the benchmark's own request kinds on small games, so the
checks take seconds.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import worker  # noqa: E402  (puts the repository's src/ on sys.path)
import workloads  # noqa: E402
from privagg.dp_core import NoiseSource  # noqa: E402
from privagg.harness import brute_force_equilibria, generate  # noqa: E402
from privagg.market import to_aggregative  # noqa: E402
from privagg.onedim import QuasiAggregativeGame  # noqa: E402
from privagg.presl import existence_bound  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 5


def small_states() -> dict:
    """One or two small games per pool, shaped like the real workloads."""
    npresl_game = generate("linear", 11, n=4, gamma=0.1)
    zeta = existence_bound(4, 2, 0.1)
    opt = brute_force_equilibria(npresl_game, zeta).min_loss(npresl_game)
    return {
        "grid-small": {
            "presl": [generate("linear", 10, n=10, gamma=0.05)],
            "npresl": [(npresl_game, zeta, opt)],
        },
        "onedim-large": {
            "threshold": [generate("threshold", 20, n=300)],
            "linear": [QuasiAggregativeGame(generate("linear", 21, n=300, m=2))],
        },
        "market-billboard": {
            "d1": [to_aggregative(generate("market", 30, n=200, d=1))],
            "d2": [to_aggregative(generate("market", 31, n=60, d=2))],
        },
    }


def run_small(tracer=None) -> list:
    """Set up the small pools and run one cycle of every workload's kinds."""
    with tracer if tracer is not None else contextlib.nullcontext():
        states = small_states()
        return [
            worker.run_request(wl, states[name], k, SEED, NoiseSource.NOISY)
            for name, wl in workloads.WORKLOADS.items()
            for k in range(len(wl.kinds))
        ]


def package_bindings() -> dict:
    """Every module global and traced class attribute, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "privagg" or name.startswith("privagg."):
            for key, value in vars(mod).items():
                seen[(name, key)] = id(value)
    for key, value in vars(workloads).items():
        seen[("workloads", key)] = id(value)
    for target in worker.TARGETS:
        owner, _, attr = target.qualname.rpartition(".")
        if owner:
            cls = getattr(sys.modules[f"privagg.{target.module}"], owner)
            seen[(target.name, "__dict__")] = id(cls.__dict__.get(attr))
    return seen


def tracer() -> Tracer:
    # this module's own copy of generate() is rebound too
    return Tracer(worker.TARGETS, extra_modules=[workloads, sys.modules[__name__]])


@pytest.fixture(scope="module")
def runs():
    plain = run_small()
    first = tracer()
    traced = run_small(first)
    second = tracer()
    traced_again = run_small(second)
    return plain, traced, traced_again, first, second


def test_small_requests_pass_their_checks(runs):
    plain, _, _, _, _ = runs
    assert [dict(r.failures) for r in plain] == [{} for _ in plain]


def test_traced_and_untraced_digests_match(runs):
    plain, traced, traced_again, _, _ = runs
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert [r.digest for r in traced] == [r.digest for r in traced_again]


def test_traced_counts_repeat_exactly(runs):
    _, _, _, first, second = runs
    for target in worker.TARGETS:
        a, b = first.stats[target.name], second.stats[target.name]
        assert (a.calls, a.counts) == (b.calls, b.counts), target.name
    assert first.calls_under == second.calls_under


def test_every_layer_is_reached(runs):
    _, _, _, first, _ = runs
    missing = [t.name for t in worker.TARGETS if first.stats[t.name].calls == 0]
    assert missing == []
    assert first.calls_under[("lp_core.exact_lp_min", "presl.npresl")] > 0
    assert first.calls_under[("lp_core.exact_lp_min", "presl.presl")] > 0


def test_tracer_restores_every_binding():
    before = package_bindings()
    with tracer():
        presl_mod = sys.modules["privagg.presl"]
        assert hasattr(presl_mod.exact_lp_min, "__wrapped__")
        assert hasattr(workloads.regret, "__wrapped__")
        assert hasattr(sys.modules["privagg.dp_core"].SparseSession.answer, "__wrapped__")
        assert package_bindings() != before
    assert package_bindings() == before


def test_tracer_restores_after_an_exception():
    before = package_bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer():
            1 / 0
    assert package_bindings() == before


def test_self_time_excludes_children():
    game = generate("threshold", 3, n=2000)
    with tracer() as tr:
        start = time.perf_counter()
        workloads.regret(game.base, np.zeros(2000, dtype=int))
        wall = time.perf_counter() - start
    reg = tr.stats["game_core.regret"]
    inner = tr.stats["game_core.utility_values"]
    agg = tr.stats["game_core.aggregator"]
    assert (reg.calls, inner.calls, agg.calls) == (1, 4000, 1)
    assert tr.calls_under[("game_core.utility_values", "game_core.regret")] == 4000
    # the three spans tile the call: their self times add up to at most its wall time
    assert 0.0 < reg.self_s < wall
    assert reg.self_s + inner.self_s + agg.self_s <= wall


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END_UNITS
    _, units = worker.layer_metrics(tracer())
    units.update(worker.TRACE_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
