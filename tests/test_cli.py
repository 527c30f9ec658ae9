"""End-to-end command line checks, run in process through main()."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from privagg.cli import build_parser, main
from privagg.game_core import game_to_json, load_game, save_game
from privagg.harness import SOLVERS, game_view, generate

from conftest import JUMP_ALPHA, JUMP_EPSILON, jump_game


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def threshold_game(tmp_path):
    path = tmp_path / "game.json"
    assert run_cli("gen-game", "--kind", "threshold", "--n", 25,
                   "--seed", 3, "--out", path) == 0
    return path


def test_gen_game_kinds(tmp_path):
    for kind in ("linear", "anonymous", "threshold", "market"):
        path = tmp_path / f"{kind}.json"
        assert run_cli("gen-game", "--kind", kind, "--n", 6, "--out", path) == 0
        g = load_game(path)
        assert g.n == 6
    assert load_game(tmp_path / "anonymous.json").d == 2  # one facet per action


def test_psummnash_success_and_repeatability(tmp_path, threshold_game):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["psummnash", "--game", threshold_game, "--epsilon", 2000,
            "--alpha", 0.05, "--no-noise", "--seed", 1]
    assert run_cli(*args, "--out", out_a) == 0
    assert run_cli(*args, "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["aborted"] is False
    assert payload["stage"] in (1, 3)
    assert payload["regret"] <= payload["bound"]
    assert len(payload["profile"]) == 25


def test_psummnash_abort_exits_two(tmp_path):
    path = tmp_path / "jump.json"
    save_game(jump_game(), path)
    out = tmp_path / "res.json"
    code = run_cli("psummnash", "--game", path, "--epsilon", JUMP_EPSILON,
                   "--alpha", JUMP_ALPHA, "--no-noise", "--out", out)
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["aborted"] is True
    assert payload["queries"] == [68, 37, 11]


def test_error_paths_exit_one(tmp_path, threshold_game, capsys):
    # alpha below the admissible floor for this epsilon
    assert run_cli("psummnash", "--game", threshold_game, "--epsilon", 1,
                   "--alpha", 0.05) == 1
    # missing game file
    assert run_cli("psummnash", "--game", tmp_path / "nope.json",
                   "--epsilon", 2000, "--alpha", 0.05) == 1

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    no_cons_f = tmp_path / "no_cons_f.json"
    no_cons_f.write_text(json.dumps(
        {"gamma": 0.1, "cons_b": [0.0], "supports": [[True, True]]}))
    empty_support = tmp_path / "empty_support.json"
    empty_support.write_text(json.dumps(
        {"gamma": 0.1, "cons_f": [[[1.0, 0.0], [0.0, 1.0]]], "cons_b": [0.0],
         "supports": [[True, False], [False, False]]}))
    lp_flags = ("--epsilon", 1, "--delta", 0.1, "--alpha", 0.5)
    psumm = ("psummnash", "--game", threshold_game)
    select = ("select", "--game", threshold_game, "--zeta", 0.2)
    linear_game = tmp_path / "linear.json"
    assert run_cli("gen-game", "--kind", "linear", "--n", 4, "--seed", 1,
                   "--out", linear_game) == 0
    bench_base = {"algorithm": "psummnash", "game": {"kind": "threshold", "n": 25},
                  "params": {"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05},
                  "trials": 1, "out_dir": str(tmp_path)}
    configs = {
        "no_beta": dict(bench_base, params={"epsilon": 2000.0, "alpha": 0.05}),
        "no_kind": dict(bench_base, game={"n": 25}),
        "npresl_market": dict(bench_base, algorithm="npresl", game={"kind": "market"},
                              params={"zeta": 1.0, "alpha": 0.12, "beta": 0.1}),
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    cases = [
        # non-finite budgets passed every "> 0" check and ran without noise
        (*psumm, "--epsilon", "nan", "--alpha", 0.05),
        (*psumm, "--epsilon", "inf", "--alpha", 0.05),
        # the accuracy floor divided by epsilon and beta before any range check
        (*psumm, "--epsilon", 0, "--alpha", 0.05),
        (*psumm, "--epsilon", 2000, "--alpha", 0.05, "--beta", 0),
        ("select", "--game", threshold_game, "--zeta", 0.2, "--epsilon", 0, "--alpha", 0.05),
        (*psumm, "--epsilon", 2000, "--alpha", 0.05, "--beta", 2, "--no-noise"),
        # non-finite quality parameters published NaN or -Infinity, not JSON
        (*select, "--epsilon", 3000, "--alpha", 0.05, "--quality-lam=nan"),
        (*select, "--epsilon", 3000, "--alpha", 0.05, "--quality-target=inf"),
        (*select, "--epsilon", 3000, "--alpha", 0.05, "--quality-kind", "linear",
         "--quality-slope=-inf"),
        # grids over the budget, and a step so small the grid has no finite size
        (*psumm, "--epsilon", 1e12, "--alpha", 1e-7),
        (*select, "--epsilon", 1e12, "--alpha", 1e-7),
        ("npresl", "--game", linear_game, "--zeta", 1.0, "--alpha", 1e-320),
        # a finite certificate whose LP tolerance (1.2e200) overflowed when squared
        ("presl", "--game", linear_game, "--zeta", 3, "--epsilon", 1e-200,
         "--delta", 0.05, "--beta", 0.3),
        ("bench", "--config", malformed),
        *(("bench", "--config", tmp_path / f"{name}.json") for name in configs),
        ("distmw-solve", "--lp", no_cons_f, *lp_flags),
        ("distmw-solve", "--lp", empty_support, *lp_flags),
    ]
    for argv in cases:
        assert run_cli(*argv) == 1, argv
        assert "Traceback" not in capsys.readouterr().err


def write_with(path, payload: dict, value, field: str, *index) -> Path:
    """``payload`` with one field, or one entry of it, set to ``value``;
    ``json.dumps`` writes NaN and Infinity, which ``json.load`` reads back."""
    payload = json.loads(json.dumps(payload))  # a deep copy
    holder, key = payload, field
    for k in index:
        holder, key = holder[key], k
    holder[key] = value
    path.write_text(json.dumps(payload))
    return path


LINEAR_GAME = json.loads(game_to_json(generate("linear", 2, n=4, gamma=0.1)))
SMALL_LP = {"gamma": 0.25, "cons_f": np.ones((1, 2, 2)).tolist(), "cons_b": [1.1],
            "supports": np.ones((2, 2), dtype=bool).tolist()}
PRESL_FLAGS = ("--zeta", 1.0, "--epsilon", 150, "--delta", 0.05, "--beta", 0.3)
NPRESL_FLAGS = ("--zeta", 1.0, "--alpha", 0.2)
LP_FLAGS = ("--epsilon", 10000, "--delta", 0.05, "--alpha", 0.5)


def test_non_finite_game_and_lp_fields_exit_one(tmp_path, capsys):
    # each of these ended in a ValueError or OverflowError traceback, or ran
    # the whole solve before the result was refused
    nan, inf = float("nan"), float("inf")
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": [0] * 4}))
    gamma_nan = write_with(tmp_path / "gamma.json", LINEAR_GAME, nan, "gamma")
    w_nan = write_with(tmp_path / "w.json", LINEAR_GAME, nan, "W")
    loss_nan = write_with(tmp_path / "loss.json", LINEAR_GAME, nan, "loss", 0, 0)
    lps = [write_with(tmp_path / "lp_gamma_nan.json", SMALL_LP, nan, "gamma"),
           write_with(tmp_path / "lp_gamma_inf.json", SMALL_LP, inf, "gamma"),
           write_with(tmp_path / "lp_f.json", SMALL_LP, nan, "cons_f", 0, 0, 1),
           write_with(tmp_path / "lp_b_nan.json", SMALL_LP, nan, "cons_b", 0),
           write_with(tmp_path / "lp_b_inf.json", SMALL_LP, inf, "cons_b", 0)]
    cases = [
        ("presl", "--game", gamma_nan, *PRESL_FLAGS),
        *((cmd, "--game", game, *flags) for game in (w_nan, loss_nan)
          for cmd, flags in (("presl", PRESL_FLAGS), ("npresl", NPRESL_FLAGS),
                             ("psummnash", ("--epsilon", 2000, "--alpha", 0.05)))),
        ("verify", "--game", w_nan, "--profile", profile),
        ("gen-game", "--kind", "linear", "--gamma", "nan", "--out", tmp_path / "g.json"),
        ("gen-game", "--kind", "linear", "--W", "inf", "--out", tmp_path / "g.json"),
        ("gen-game", "--kind", "market", "--lam", "nan", "--out", tmp_path / "g.json"),
        ("gen-game", "--kind", "threshold", "--gamma", "nan", "--out", tmp_path / "g.json"),
        ("market-sim", "--lam", "nan", "--trials", 3),
        *(("distmw-solve", "--lp", lp, *LP_FLAGS) for lp in lps),
    ]
    for argv in cases:
        assert run_cli(*argv) == 1, argv
        assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_non_integral_count_fields_exit_one(tmp_path, capsys, caplog):
    # int() on these died with "cannot convert float NaN to integer"
    nan, inf = float("nan"), float("inf")
    market = json.loads(game_to_json(game_view(generate("market", 1, n=4, d=1))))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": [0] * 4}))
    cases = []
    for j, value in enumerate((nan, inf, 2.5)):
        cfg = tmp_path / f"cfg{j}.json"
        cfg.write_text(json.dumps({
            "algorithm": "distmw", "game": {"kind": "linear", "n": value},
            "params": {"epsilon": 1.0, "delta": 0.05, "alpha": 0.5, "beta": 0.1},
            "trials": 1, "out_dir": str(tmp_path),
        }))
        game = write_with(tmp_path / f"market{j}.json", market, value, "utility", "params", "d")
        cases += [(("bench", "--config", cfg), "n must be a positive integer"),
                  (("verify", "--game", game, "--profile", profile),
                   "d must be an integer from 1 to 10")]
    for argv, message in cases:
        caplog.clear()
        assert run_cli(*argv) == 1, argv
        assert "Traceback" not in capsys.readouterr().err
        assert message in caplog.text


def test_distmw_solve_refuses_support_entries_other_than_zero_one(tmp_path, capsys, caplog):
    # each ran to exit 0 with the action read as allowed
    for j, value in enumerate((0.5, -3, 2)):
        lp = write_with(tmp_path / f"lp{j}.json", SMALL_LP, value, "supports", 1, 0)
        caplog.clear()
        assert run_cli("distmw-solve", "--lp", lp, *LP_FLAGS) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert "supports entries must be 0/1 or true/false" in caplog.text


def test_bench_params_the_solver_does_not_read_exit_one(tmp_path, capsys, caplog):
    # each ran and ignored the key: distmw's xi is the constant DISTMW_XI,
    # and psummnash reads neither zeta nor delta
    distmw = {"epsilon": 1.0, "delta": 0.05, "alpha": 0.5, "beta": 0.1}
    psumm = {"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05}
    cases = [
        ("distmw", dict(distmw, xi="2"), "distmw does not read params xi"),
        ("psummnash", dict(psumm, zeta=0.2), "psummnash does not read params zeta"),
        ("psummnash", dict(psumm, delta=0.05, quality={}),
         "psummnash does not read params delta, quality"),
        ("select", {"zeta": 0.2, "epsilon": 3000.0, "alpha": 0.05, "beta": 0.05,
                    "quality": {"kind": "peak", "target": 0.3}, "delta": 0.1},
         "select does not read params delta"),
    ]
    for j, (algorithm, params, message) in enumerate(cases):
        cfg = tmp_path / f"cfg{j}.json"
        cfg.write_text(json.dumps({
            "algorithm": algorithm, "game": {"kind": "threshold", "n": 25},
            "params": params, "trials": 1, "out_dir": str(tmp_path), "label": f"run{j}",
        }))
        caplog.clear()
        assert run_cli("bench", "--config", cfg) == 1, params
        assert "Traceback" not in capsys.readouterr().err
        assert message in caplog.text
        assert not (tmp_path / f"run{j}.csv").exists()  # refused before any trial


def test_gen_game_refuses_flags_its_kind_does_not_read(tmp_path, caplog):
    # each exited 0 and wrote a game built without the flag
    out = tmp_path / "g.json"
    cases = [
        (("--kind", "threshold", "--n", 3, "--m", 7, "--W", 5), "threshold games do not read W, m"),
        (("--kind", "threshold", "--n", 3, "--lam", 2), "threshold games do not read lam"),
        (("--kind", "market", "--n", 3, "--m", 7, "--gamma", 0.5),
         "market games do not read gamma, m"),
        (("--kind", "anonymous", "--n", 3, "--d", 2), "anonymous games do not read d"),
        (("--kind", "linear", "--n", 3, "--lam", 2), "linear games do not read lam"),
    ]
    for flags, message in cases:
        caplog.clear()
        assert run_cli("gen-game", *flags, "--out", out) == 1
        assert message in caplog.text
        assert not out.exists()


def test_bench_params_that_are_not_numbers_exit_one(tmp_path, capsys, caplog):
    # each of these ended in a TypeError, ValueError or AttributeError traceback
    select = {"zeta": 0.2, "epsilon": 3000.0, "alpha": 0.05, "beta": 0.05,
              "quality": {"kind": "peak", "target": 0.3}}
    distmw = {"epsilon": 1.0, "delta": 0.05, "alpha": 0.5, "beta": 0.1}
    cases = [
        ("select", dict(select, epsilon="3000"), "epsilon must be a number"),
        ("select", dict(select, epsilon=None), "epsilon must be a number"),
        ("select", dict(select, alpha=True), "alpha must be a number"),
        ("select", dict(select, beta=[0.05]), "beta must be a number"),
        ("select", dict(select, quality="peak"), "quality must be a JSON object"),
        ("select", dict(select, quality={"kind": "peak", "target": "abc"}),
         "quality target must be a number"),
        ("select", dict(select, quality={"kind": "peak", "target": 0.3, "lam": {}}),
         "quality lam must be a number"),
        ("select", dict(select, quality={"kind": "linear", "slope": None}),
         "quality slope must be a number"),
        ("psummnash", {"epsilon": 2000.0, "alpha": 0.05, "beta": False},
         "beta must be a number"),
        ("distmw", dict(distmw, delta=10**400), "past the float range"),
    ]
    for j, (algorithm, params, message) in enumerate(cases):
        cfg = tmp_path / f"cfg{j}.json"
        cfg.write_text(json.dumps({
            "algorithm": algorithm, "game": {"kind": "threshold", "n": 25},
            "params": params, "trials": 1, "out_dir": str(tmp_path),
        }))
        caplog.clear()
        assert run_cli("bench", "--config", cfg) == 1, params
        assert "Traceback" not in capsys.readouterr().err
        assert message in caplog.text


def test_market_files_with_non_finite_valuations_or_lambda_exit_one(tmp_path, capsys, caplog):
    # NaN escaped the [-d, d] range check, and verify blamed the payoff range
    nan, inf = float("nan"), float("inf")
    market = json.loads(game_to_json(game_view(generate("market", 1, n=4, d=1))))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": [0] * 4}))
    cases = [
        (("valuations", 0, 0), nan, "portfolio valuations must be finite"),
        (("valuations", 2, 1), inf, "portfolio valuations must be finite"),
        (("lambda",), nan, "lam must be finite"),
        (("lambda",), inf, "lam must be finite"),
        (("lambda",), 0.0, "lam must be positive"),
        (("lambda",), -4.0, "lam must be positive"),
    ]
    for j, (index, value, message) in enumerate(cases):
        game = write_with(tmp_path / f"market{j}.json", market, value, "utility", "params", *index)
        caplog.clear()
        assert run_cli("verify", "--game", game, "--profile", profile) == 1, (index, value)
        assert "Traceback" not in capsys.readouterr().err
        assert message in caplog.text
        assert "leaves" not in caplog.text


def test_json_files_of_the_wrong_shape_exit_one(tmp_path, capsys, caplog):
    # valid JSON of the wrong shape or type: each ended in a KeyError,
    # TypeError or ValueError traceback
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": [0] * 4}))
    threshold = json.loads(game_to_json(game_view(generate("threshold", 1, n=4))))
    ragged_f = [[[0.5, -0.5]], [[0.5]], [[0.5, -0.5]], [[0.5, -0.5]]]
    games = [
        (LINEAR_GAME, "top", [1, 2], (), "game JSON must be an object"),
        (LINEAR_GAME, "f", "abc", ("f",), "f must be a rectangular array"),
        (LINEAR_GAME, "f", ragged_f, ("f",), "f must be a rectangular array"),
        (LINEAR_GAME, "utility", "abc", ("utility",), "utility must be a JSON object"),
        (LINEAR_GAME, "gamma", "0.1", ("gamma",), "gamma must be a number"),
        (threshold, "thresholds", "abc", ("utility", "params", "thresholds"),
         "thresholds must be a rectangular array"),
    ]
    lps = [
        ([1, 2], (), "LP JSON must be an object"),
        ([[[1, 1], [1]]], ("cons_f",), "cons_f must be a rectangular array"),
        ("0.25", ("gamma",), "gamma must be a number"),
        (["1.1"], ("cons_b",), "cons_b must be a rectangular array"),
        ([[1, 1], [1, "x"]], ("supports",), "supports must be a rectangular array"),
    ]
    cases = []
    for payload, name, value, index, message in games:
        game = tmp_path / f"game_{name}.json"
        if index:
            write_with(game, payload, value, *index)
        else:
            game.write_text(json.dumps(value))
        cases.append((("verify", "--game", game, "--profile", profile), message))
    for j, (value, index, message) in enumerate(lps):
        lp = tmp_path / f"lp{j}.json"
        if index:
            write_with(lp, SMALL_LP, value, *index)
        else:
            lp.write_text(json.dumps(value))
        cases.append((("distmw-solve", "--lp", lp, *LP_FLAGS), message))
    no_profile = tmp_path / "no_profile.json"
    no_profile.write_text(json.dumps({"actions": [0] * 4}))
    game = tmp_path / "linear.json"
    game.write_text(json.dumps(LINEAR_GAME))
    cases.append((("verify", "--game", game, "--profile", no_profile),
                  "lacks the field 'profile'"))
    for argv, message in cases:
        caplog.clear()
        assert run_cli(*argv) == 1, argv
        assert "Traceback" not in capsys.readouterr().err
        assert message in caplog.text


BENCH_BASE = {"algorithm": "psummnash", "game": {"kind": "threshold", "n": 25},
              "params": {"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05}, "trials": 1}


BENCH_WRONG_TYPES = {
    "top-level-list": ([BENCH_BASE], "config JSON must be an object"),
    "trials-string": (dict(BENCH_BASE, trials="2"), "trials must be a positive integer"),
    "trials-zero": (dict(BENCH_BASE, trials=0), "trials must be a positive integer"),
    "trials-bool": (dict(BENCH_BASE, trials=True), "trials must be a positive integer"),
    "seed-string": (dict(BENCH_BASE, seed="s"), "config field seed must be an integer"),
    "seed-bool": (dict(BENCH_BASE, seed=True), "config field seed must be an integer"),
    "noise-string": (dict(BENCH_BASE, noise="false"), "config field noise must be true or false"),
    "algorithm-list": (dict(BENCH_BASE, algorithm=["psummnash"]),
                       "config field algorithm must be a string"),
    "label-number": (dict(BENCH_BASE, label=5), "config field label must be a string"),
    "out_dir-number": (dict(BENCH_BASE, out_dir=5), "config field out_dir must be a string"),
    "game-string": (dict(BENCH_BASE, game="x"), "config field game must be a JSON object"),
    "params-list": (dict(BENCH_BASE, params=[]), "config field params must be a JSON object"),
    "game-path-number": (dict(BENCH_BASE, game={"path": 5}), "game path must be a string"),
    "threshold-gamma": (dict(BENCH_BASE, game={"kind": "threshold", "n": 25, "gamma": "x"}),
                        "gamma must be a number"),
    "threshold-thresholds": (dict(BENCH_BASE, game={"kind": "threshold", "n": 2,
                                                    "thresholds": "abc"}),
                             "thresholds must be a rectangular array"),
    "linear-gamma": (dict(BENCH_BASE, algorithm="distmw",
                          game={"kind": "linear", "n": 8, "gamma": "x"}),
                     "gamma must be a number"),
    "linear-W": (dict(BENCH_BASE, algorithm="distmw", game={"kind": "linear", "n": 8, "W": [1.0]}),
                 "W must be a number"),
    "market-lam": (dict(BENCH_BASE, algorithm="distmw",
                        game={"kind": "market", "n": 8, "lam": None}), "lam must be a number"),
}


@pytest.mark.parametrize("case", sorted(BENCH_WRONG_TYPES))
def test_bench_config_fields_of_the_wrong_type_exit_one(tmp_path, capsys, caplog, case):
    # each ended in a TypeError or ValueError traceback, ran zero trials and
    # exited 2 (trials 0), or ran with noise on a "false" string
    config, message = BENCH_WRONG_TYPES[case]
    if isinstance(config, dict) and "out_dir" not in config:
        config = dict(config, out_dir=str(tmp_path))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run_cli("bench", "--config", path) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert message in caplog.text
    assert not list(tmp_path.glob("*.csv"))


def test_select_quality_flags(tmp_path, threshold_game):
    out = tmp_path / "sel.json"
    code = run_cli("select", "--game", threshold_game, "--zeta", 0.2,
                   "--epsilon", 3000, "--alpha", 0.05, "--no-noise",
                   "--quality-kind", "linear", "--quality-slope", 1.0,
                   "--out", out)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["branch"] in ("optimistic", "pessimistic", "walk")
    assert payload["quality"] == pytest.approx(payload["s_star"])
    assert payload["regret"] <= payload["bound"]


def test_select_refuses_quality_flags_its_kind_does_not_read(tmp_path, threshold_game, caplog):
    base = ("select", "--game", threshold_game, "--zeta", 0.2, "--epsilon", 3000,
            "--alpha", 0.05, "--no-noise")

    def s_star(*flags):
        out = tmp_path / "sel.json"
        assert run_cli(*base, *flags, "--out", out) == 0
        return json.loads(out.read_text())["s_star"]

    assert run_cli(*base, "--quality-kind", "linear", "--quality-slope", 1.0,
                   "--quality-target", 0.9) == 1
    assert "linear quality does not read target" in caplog.text
    caplog.clear()
    assert run_cli(*base, "--quality-lam", 2.0, "--quality-slope", 1.0) == 1
    assert "peak quality does not read slope" in caplog.text
    # a kind's own flags keep their defaults: peak target 0 and lam 1, slope 1
    assert s_star("--quality-kind", "linear") == s_star(
        "--quality-kind", "linear", "--quality-slope", 1.0)
    assert s_star() == s_star("--quality-target", 0.0, "--quality-lam", 1.0)
    assert s_star("--quality-target", 0.3) != s_star()


def test_presl_and_npresl_commands(tmp_path):
    path = tmp_path / "lin.json"
    save_game(generate("linear", 2, n=10, gamma=0.05), path)
    out = tmp_path / "presl.json"
    code = run_cli("presl", "--game", path, "--zeta", 1.0, "--epsilon", 150,
                   "--delta", 0.05, "--beta", 0.3, "--no-noise", "--out", out)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["aborted"] is False
    assert payload["regret"] <= payload["bound"] + 1e-9
    assert "loss" in payload and "hit_s" in payload

    out2 = tmp_path / "npresl.json"
    code = run_cli("npresl", "--game", path, "--zeta", 1.0, "--alpha", 0.12,
                   "--no-noise", "--out", out2)
    assert code == 0
    payload2 = json.loads(out2.read_text())
    assert payload2["feasible_points"] >= 1
    assert payload2["witness_loss"] >= 0.0
    assert list(payload2)[-1] == "bound"
    assert payload2["regret"] <= payload2["bound"]


def test_distmw_solve_command(tmp_path):
    lp_path = tmp_path / "lp.json"
    lp_path.write_text(json.dumps({
        "gamma": 0.25,
        "cons_f": np.ones((1, 4, 2)).tolist(),
        "cons_b": [1.1],
        "supports": np.ones((4, 2), dtype=bool).tolist(),
    }))
    out = tmp_path / "mw.json"
    code = run_cli("distmw-solve", "--lp", lp_path, "--epsilon", 10000,
                   "--delta", 0.05, "--alpha", 0.5, "--no-noise", "--out", out)
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["transcript"]) == payload["rounds"]
    # every row of a four-player constraint with b = 1.1 is satisfiable
    assert payload["max_margin"] <= 0.0
    assert np.allclose(np.sum(payload["p_bar"], axis=1), 1.0)


def test_verify_command(tmp_path, threshold_game, capsys):
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"profile": [1] * 25}))
    assert run_cli("verify", "--game", threshold_game,
                   "--profile", profile_path, "--eta", 0.3) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"max_regret", "gamma_eff", "is_eta_nash",
                            "br_to_abr_violation"}
    assert payload["br_to_abr_violation"] <= 1e-9


@pytest.mark.parametrize("eta, message", [
    ("nan", "eta must be finite, got nan"),  # once "the result holds a non-finite number"
    ("-1", "eta must be nonnegative, got -1.0"),  # once accepted
])
def test_verify_refuses_an_eta_out_of_range(tmp_path, threshold_game, capsys, caplog, eta, message):
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"profile": [1] * 25}))
    out = tmp_path / "report.json"
    argv = ("verify", "--game", threshold_game, "--profile", profile_path, "--out", out)
    assert run_cli(*argv, f"--eta={eta}") == 1
    assert "Traceback" not in capsys.readouterr().err
    assert message in caplog.text
    assert not out.exists()


def test_market_d_over_limit_exits_one(tmp_path, capsys, caplog):
    for argv in (("market-sim", "--d", 40), ("market-sim", "--d", 22),
                 ("gen-game", "--kind", "market", "--d", 22, "--out", tmp_path / "m.json")):
        caplog.clear()
        assert run_cli(*argv) == 1, argv
        assert "Traceback" not in capsys.readouterr().err
        assert "d must be an integer from 1 to 10" in caplog.text


def test_market_sim_command(tmp_path, capsys):
    assert run_cli("market-sim", "--n", 8, "--d", 1, "--lam", 8,
                   "--trials", 200, "--seed", 2) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cap_respected"] is True
    assert payload["worst_per_security"] <= payload["per_security_cap"] + 1e-9
    assert payload["equilibrium_zeta"] > 0


def test_deviate_command(tmp_path, capsys):
    code = run_cli("deviate", "--n", 12, "--alpha", 0.05, "--epsilon", 2000,
                   "--runs", 3, "--seed", 4)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["within_budget"] is True
    assert payload["stderr"] >= 0.0


def test_bench_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "algorithm": "psummnash",
        "game": {"kind": "threshold", "n": 25},
        "params": {"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05},
        "trials": 2,
        "seed": 0,
        "label": "cli-batch",
        "out_dir": str(tmp_path),
    }))
    assert run_cli("bench", "--config", cfg, "--no-noise") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["aborts"] == 0
    assert (tmp_path / "cli-batch.csv").exists()
    assert (tmp_path / "cli-batch.summary.json").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algorithm": "psummnash", "game": {},
                               "budget": 1}))
    assert run_cli("bench", "--config", bad) == 1


def test_bench_exit_two_when_every_trial_aborts(tmp_path, capsys):
    game_path = tmp_path / "jump.json"
    save_game(jump_game(), game_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "algorithm": "psummnash",
        "game": {"path": str(game_path)},
        "params": {"epsilon": JUMP_EPSILON, "alpha": JUMP_ALPHA, "beta": 0.05},
        "trials": 2,
        "noise": False,
        "label": "all-abort",
        "out_dir": str(tmp_path),
    }))
    assert run_cli("bench", "--config", cfg) == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["aborts"] == 2


SOLVER_FLAGS = {
    "presl": {"zeta": 1.0, "epsilon": 150.0, "delta": 0.05, "beta": 0.3},
    "npresl": {"zeta": 1.0, "alpha": 0.12, "beta": 0.05},
    "psummnash": {"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05},
    "select": {"zeta": 0.2, "epsilon": 3000.0, "alpha": 0.05, "beta": 0.05},
}


@pytest.mark.parametrize("algorithm", sorted(SOLVER_FLAGS))
def test_cli_and_bench_report_the_same_bound(tmp_path, capsys, algorithm):
    game_path = tmp_path / "lin.json"
    save_game(generate("linear", 2, n=10, gamma=0.05), game_path)
    flags = SOLVER_FLAGS[algorithm]
    argv = [algorithm, "--game", game_path, "--no-noise"]
    for key, value in flags.items():
        argv += [f"--{key}", value]
    assert run_cli(*argv) == 0
    payload = json.loads(capsys.readouterr().out)

    params = dict(flags)
    if algorithm == "select":
        params["quality"] = {"kind": "peak", "target": 0.0, "lam": 1.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "algorithm": algorithm, "game": {"path": str(game_path)}, "params": params,
        "trials": 1, "noise": False, "out_dir": str(tmp_path),
    }))
    assert run_cli("bench", "--config", cfg) == 0
    summary = json.loads(capsys.readouterr().out)
    assert payload["bound"] == summary["bound"]
    assert payload["regret"] <= payload["bound"] + 1e-9


# ---------------------------------------------------------------------------
# each subcommand's flags, usage errors and the seed rule
# ---------------------------------------------------------------------------

SEED, NO_NOISE, OUT = {"--seed"}, {"--no-noise"}, {"--out"}
SOLVER_SHARED = SEED | NO_NOISE | OUT
# the option strings of each subcommand: exactly the flags its handler reads
SUBCOMMAND_FLAGS = {
    "gen-game": SEED | OUT | {"--kind", "--n", "--m", "--d", "--gamma", "--lam", "--W"},
    "presl": SOLVER_SHARED | {"--game", "--zeta", "--epsilon", "--delta", "--beta"},
    "npresl": SOLVER_SHARED | {"--game", "--zeta", "--alpha", "--beta"},
    "psummnash": SOLVER_SHARED | {"--game", "--epsilon", "--alpha", "--beta"},
    "select": SOLVER_SHARED | {"--game", "--zeta", "--epsilon", "--alpha", "--beta",
                               "--quality-kind", "--quality-target", "--quality-lam",
                               "--quality-slope"},
    "distmw-solve": SOLVER_SHARED | {"--lp", "--epsilon", "--delta", "--alpha", "--beta"},
    "market-sim": SEED | OUT | {"--game", "--n", "--d", "--lam", "--trials"},
    "verify": OUT | {"--game", "--profile", "--eta"},
    "deviate": SEED | OUT | {"--n", "--player", "--misreport", "--epsilon", "--alpha",
                             "--beta", "--runs"},
    "bench": NO_NOISE | {"--config"},
}


def subcommand_parsers() -> dict:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_each_subcommand_takes_only_the_flags_its_handler_reads():
    parsers = subcommand_parsers()
    assert set(parsers) == set(SUBCOMMAND_FLAGS)
    for command, p in parsers.items():
        flags = {flag for action in p._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == SUBCOMMAND_FLAGS[command], command
        assert exit_code([command, "--help"]) == 0
    # the solver flags are SOLVERS' params, in order, after the input file
    for command, algorithm in [("presl", "presl"), ("npresl", "npresl"),
                               ("psummnash", "psummnash"), ("select", "select"),
                               ("distmw-solve", "distmw")]:
        named = [a.dest for a in parsers[command]._actions if a.dest in SOLVERS[algorithm].params]
        assert tuple(named) == SOLVERS[algorithm].params


def test_dropped_shared_flags_exit_one(tmp_path, threshold_game, capsys):
    # each of these flags was accepted and then ignored
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": [1] * 25}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algorithm": "psummnash", "game": {"kind": "threshold", "n": 25},
                               "params": {"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05},
                               "trials": 1, "out_dir": str(tmp_path)}))
    out = tmp_path / "out.json"
    cases = [
        (("gen-game", "--kind", "linear", "--n", 3, "--out", out), ("--no-noise",)),
        (("market-sim", "--trials", 2, "--out", out), ("--no-noise",)),
        (("verify", "--game", threshold_game, "--profile", profile, "--out", out), ("--seed", 1)),
        (("verify", "--game", threshold_game, "--profile", profile, "--out", out),
         ("--no-noise",)),
        (("deviate", "--n", 4, "--alpha", 0.05, "--epsilon", 1e5, "--runs", 1, "--out", out),
         ("--no-noise",)),
        (("bench", "--config", cfg), ("--seed", 1)),
        (("bench", "--config", cfg), ("--out", out)),
    ]
    for argv, dropped in cases:
        assert exit_code([*argv, *dropped]) == 1, (argv, dropped)
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(map(str, dropped))}" in err
        assert "Traceback" not in err
        assert not out.exists() and not list(tmp_path.glob("*.csv"))
        assert exit_code(argv) == 0, argv  # the same argv without the flag runs
        capsys.readouterr()
        out.unlink(missing_ok=True)
        for path in tmp_path.glob("experiment.*"):
            path.unlink()


def test_missing_required_flags_exit_one(tmp_path, threshold_game, capsys):
    lp = tmp_path / "lp.json"
    lp.write_text(json.dumps(SMALL_LP))
    full = {
        "presl": ("--game", threshold_game, *PRESL_FLAGS),
        "npresl": ("--game", threshold_game, *NPRESL_FLAGS),
        "psummnash": ("--game", threshold_game, "--epsilon", 2000, "--alpha", 0.05),
        "select": ("--game", threshold_game, "--zeta", 0.2, "--epsilon", 3000,
                   "--alpha", 0.05),
        "distmw-solve": ("--lp", lp, *LP_FLAGS),
        "gen-game": ("--kind", "linear", "--n", 3, "--out", tmp_path / "g.json"),
        "verify": ("--game", threshold_game, "--profile", tmp_path / "p.json"),
        "deviate": ("--alpha", 0.05),
        "bench": ("--config", tmp_path / "cfg.json"),
    }
    parsers = subcommand_parsers()
    cases = [(), ("solve",)]  # no subcommand, an unknown one
    for command, flags in full.items():
        pairs = [flags[i : i + 2] for i in range(0, len(flags), 2)]
        for j, (flag, _) in enumerate(pairs):
            if parsers[command]._option_string_actions[flag].required:
                kept = [part for k, pair in enumerate(pairs) if k != j for part in pair]
                cases.append((command, *kept))
    # gen-game without --out crashed in open(None); presl without --zeta exited 2
    assert ("gen-game", "--kind", "linear", "--n", 3) in cases
    assert ("presl", "--game", threshold_game, *PRESL_FLAGS[2:]) in cases
    for argv in cases:
        assert exit_code(argv) == 1, argv
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "g.json").exists()


def seeded_argv(tmp_path) -> dict:
    """An admissible noisy argv, --seed and --out left out, for every
    subcommand that takes --seed."""
    game = tmp_path / "lin.json"
    save_game(generate("linear", 2, n=4, gamma=0.1), game)
    threshold = tmp_path / "thr.json"
    save_game(generate("threshold", 3, n=25).base, threshold)
    lp = tmp_path / "lp.json"
    lp.write_text(json.dumps(SMALL_LP))
    return {
        "gen-game": ("--kind", "linear", "--n", 4),
        "presl": ("--game", game, *PRESL_FLAGS),
        "npresl": ("--game", game, *NPRESL_FLAGS),
        "psummnash": ("--game", threshold, "--epsilon", 2000, "--alpha", 0.05),
        "select": ("--game", threshold, "--zeta", 0.2, "--epsilon", 3000, "--alpha", 0.05),
        "distmw-solve": ("--lp", lp, *LP_FLAGS),
        "market-sim": ("--n", 8, "--trials", 20),
        "deviate": ("--n", 6, "--alpha", 0.05, "--epsilon", 1e5, "--runs", 2),
    }


def test_every_seed_is_read_modulo_two_to_the_64(tmp_path, capsys):
    # gen-game, deviate and market-sim ended in a ValueError traceback on a
    # negative seed; the solvers read it modulo 2^64 through NoiseSource
    argvs = seeded_argv(tmp_path)
    assert set(argvs) == {c for c, flags in SUBCOMMAND_FLAGS.items() if "--seed" in flags}
    for command, flags in argvs.items():
        texts = []
        for seed in (-1, 2**64 - 1, -2, 2**64 - 2):
            out = tmp_path / f"{command}{seed}.json"
            assert exit_code([command, *flags, f"--seed={seed}", "--out", out]) in (0, 2)
            assert "Traceback" not in capsys.readouterr().err
            texts.append(out.read_text())
        assert texts[0] == texts[1] and texts[2] == texts[3], command


# ---------------------------------------------------------------------------
# fuzzed inputs: any exit code of the CLI's three, never a traceback
# ---------------------------------------------------------------------------


def exit_code(argv) -> int:
    """main()'s exit code; argparse rejections exit through SystemExit."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_game(generate("threshold", 3, n=25).base, root / "game.json")
    return root


ODD_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, 2.0, 1e-300]),
)


def budget(lo: float, hi: float):
    """Mostly an admissible value, sometimes any float at all."""
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), ODD_FLOAT)


# the 25-player game has W = 1: alpha >= 0.01 gives at most 200 grid points,
# alpha <= 1e-7 at least 2e7, over the grid budget (subnormal steps included)
ALPHA = st.one_of(
    st.floats(min_value=0.01, max_value=0.5),
    st.floats(min_value=0.01, allow_nan=False, allow_infinity=True),
    st.floats(min_value=0.0, max_value=1e-7, exclude_min=True),
    st.sampled_from([1e13]),  # a step so wide the grid came out empty
)


def kept(draw) -> bool:
    """Keep a flag or key four times in five."""
    return draw(st.sampled_from([True, True, True, True, False]))


@st.composite
def solver_argv(draw, game_path):
    command = draw(st.sampled_from(["psummnash", "select"]))
    # epsilon up to 1e15 lifts the accuracy floor clear of the tiny alphas
    flags = {"--epsilon": draw(budget(1e3, 1e15)), "--alpha": draw(ALPHA),
             "--beta": draw(budget(1e-3, 0.5))}
    if command == "select":
        flags["--zeta"] = draw(budget(0.16, 5.0))
        flags["--quality-kind"] = draw(st.sampled_from(["peak", "linear"]))
        for key in ("--quality-target", "--quality-lam", "--quality-slope"):
            flags[key] = draw(budget(0.0, 2.0))
    argv = [command, "--game", game_path, "--seed", draw(st.integers(-3, 3)),
            "--out", game_path.with_name("out.json")]
    if draw(st.booleans()):
        argv.append("--no-noise")
    # --flag=value, so that argparse reads "-inf" as a value, not a flag
    argv += [f"{key}={value}" for key, value in flags.items() if kept(draw)]
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_solver_argv_never_tracebacks(fuzz_dir, data):
    argv = data.draw(solver_argv(fuzz_dir / "game.json"))
    out = fuzz_dir / "out.json"
    out.unlink(missing_ok=True)
    code = exit_code(argv)
    assert code in (0, 1, 2)
    if out.exists():  # a solver ran: argparse rejections exit 1 with no output
        # what is published is strict JSON, with no NaN or Infinity
        json.loads(out.read_text(), parse_constant=reject_constant)


# small counts only: --n, --m and --d size an allocation, --runs and --trials a loop
COUNT_FLAGS = {
    "deviate": {"--n": st.integers(-3, 12), "--player": st.integers(-3, 12),
                "--runs": st.integers(-3, 3)},
    "gen-game": {"--n": st.integers(-3, 12), "--m": st.integers(-3, 4),
                 "--d": st.integers(-3, 3)},
    "market-sim": {"--n": st.integers(-3, 12), "--trials": st.integers(-3, 20)},
}
# an epsilon this large keeps alpha = 0.05 above psummnash's floor at n = 1
COUNT_FIXED = {"deviate": ("--alpha", 0.05, "--epsilon", 1e5), "gen-game": ("--kind", "linear"),
               "market-sim": ("--d", 1)}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_count_flags_never_traceback(fuzz_dir, capsys, data):
    command = data.draw(st.sampled_from(sorted(COUNT_FLAGS)))
    counts = {flag: data.draw(values) for flag, values in COUNT_FLAGS[command].items()}
    out = fuzz_dir / "count_out.json"
    out.unlink(missing_ok=True)
    seed = data.draw(st.integers(-3, 3))
    argv = [command, *COUNT_FIXED[command], "--out", out,
            *[f"{flag}={value}" for flag, value in counts.items()]]
    code = exit_code([*argv, f"--seed={seed}"])
    assert "Traceback" not in capsys.readouterr().err
    # a count below one, or a negative player index, is refused
    refused = counts.pop("--player", 0) < 0 or min(counts.values()) < 1
    assert code == 1 if refused else code in (0, 1)
    if code == 0:
        text = out.read_text()
        assert json.loads(text, parse_constant=reject_constant).get("trials", 1) >= 1
        if seed == -1:  # a seed is read modulo 2^64
            assert exit_code([*argv, f"--seed={2**64 - 1}"]) == 0
            assert out.read_text() == text


def test_non_finite_result_is_not_published(fuzz_dir):
    # alpha near the float maximum makes the certified bound 10 alpha + 2 gamma
    # overflow; the CLI published "bound": Infinity (found by the fuzz above)
    out = fuzz_dir / "out.json"
    out.unlink(missing_ok=True)
    argv = ["psummnash", "--game", fuzz_dir / "game.json", "--seed", 0, "--out", out,
            "--epsilon=1000.0", "--alpha=1.797693134862316e+307", "--beta=0.5"]
    assert exit_code(argv) == 1
    assert not out.exists()


# gen-game and market-sim flags, and the numeric fields of a game or LP file
# (a key, or a key and one entry's index) with the commands that read them
ODD_FLAGS = [(("gen-game", "--kind", kind), flag) for kind, flag in (
    ("linear", "--gamma"), ("linear", "--W"), ("anonymous", "--W"),
    ("threshold", "--gamma"), ("market", "--lam"))] + [(("market-sim", "--trials", 3), "--lam")]
GAME_FIELDS = [("gamma",), ("W",), ("loss", 1, 0)]
LP_FIELDS = [("gamma",), ("cons_f", 0, 1, 0), ("cons_b", 0)]
GAME_COMMANDS = [("presl", *PRESL_FLAGS), ("npresl", *NPRESL_FLAGS), ("verify",)]


@st.composite
def odd_field_argv(draw, root):
    """One gen-game or market-sim flag, or one numeric field of a game or LP
    file, set to an odd float; the rest of the argv is admissible."""
    value = draw(ODD_FLOAT)
    out = ("--out", root / "odd_out.json")
    source = draw(st.sampled_from(["flag", "game", "lp"]))
    if source == "flag":
        command, flag = draw(st.sampled_from(ODD_FLAGS))
        return [*command, f"{flag}={value}", *out]
    if source == "lp":
        lp = write_with(root / "odd_lp.json", SMALL_LP, value, *draw(st.sampled_from(LP_FIELDS)))
        return ["distmw-solve", "--lp", lp, *LP_FLAGS, *out]
    field = draw(st.sampled_from(GAME_FIELDS))
    game = write_with(root / "odd_game.json", LINEAR_GAME, value, *field)
    # at a small admissible gamma presl's exact-LP scan runs for hours (its
    # tolerance shrinks with gamma; see CHANGES.md), so gamma skips presl
    commands = GAME_COMMANDS[1:] if field == ("gamma",) else GAME_COMMANDS
    command, *flags = draw(st.sampled_from(commands))
    if command == "verify":
        flags = ["--profile", root / "odd_profile.json"]
        flags[1].write_text(json.dumps({"profile": [0] * LINEAR_GAME["n"]}))
    return [command, "--game", game, *flags, *out]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_odd_fields_never_traceback(fuzz_dir, capsys, data):
    argv = data.draw(odd_field_argv(fuzz_dir))
    out = fuzz_dir / "odd_out.json"
    out.unlink(missing_ok=True)
    assert exit_code(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    if out.exists():
        json.loads(out.read_text(), parse_constant=reject_constant)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def drop_some(draw, mapping: dict) -> dict:
    return {k: v for k, v in mapping.items() if kept(draw)}


# JSON values of the wrong type for a numeric param or a quality object
NOT_A_NUMBER = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["3000", "peak", "nan", None, True, False, [], [0.05], {}, {"kind": "peak"}]),
)


def odd_some(draw, mapping: dict) -> dict:
    """Each value kept four times in five, else one of the wrong type."""
    return {k: v if kept(draw) else draw(NOT_A_NUMBER) for k, v in mapping.items()}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzz_bench_config_never_tracebacks(fuzz_dir, data):
    algorithm = data.draw(st.sampled_from(["psummnash", "select"]))
    quality = {"kind": data.draw(st.sampled_from(["peak", "linear", "median"])),
               "target": 0.3, "lam": 1.0, "slope": 1.0}
    params = {"zeta": 0.2, "epsilon": 3000.0, "alpha": data.draw(ALPHA), "beta": 0.05,
              "quality": odd_some(data.draw, drop_some(data.draw, quality))}
    params = odd_some(data.draw, params)
    game = odd_some(data.draw, data.draw(st.sampled_from([
        {"kind": "threshold", "n": 25}, {"kind": "market", "n": 25, "d": 1},
        {"path": str(fuzz_dir / "game.json")}, {"n": 25},
    ])))
    config = {"algorithm": algorithm, "game": game, "params": drop_some(data.draw, params),
              "trials": 1, "seed": 0, "noise": data.draw(st.booleans()), "label": "fuzz"}
    config = odd_some(data.draw, drop_some(data.draw, config))
    config["out_dir"] = str(fuzz_dir)
    path = fuzz_dir / "cfg.json"
    path.write_text(json.dumps(config))
    assert exit_code(["bench", "--config", path]) in (0, 1, 2)


# fields of a game, LP or profile file that hold an object, a string, a
# number or an array; () is the file's top-level container
ODD_TYPE_FIELDS = {
    "game": [(), ("gamma",), ("W",), ("f",), ("loss",), ("utility",), ("utility", "kind"),
             ("utility", "params"), ("utility", "params", "c"), ("utility", "params", "w")],
    "lp": [(), ("gamma",), ("cons_f",), ("cons_b",), ("supports",)],
    "profile": [(), ("profile",)],
}
# a value of the wrong type: NOT_A_NUMBER's strings, null, booleans, lists
# and objects, plus a list holding a string and a ragged list
ODD_TYPE = st.one_of(NOT_A_NUMBER, st.sampled_from([[0.1, "x"], [[0.1], [0.1, 0.2]]]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_odd_types_exit_one(fuzz_dir, capsys, data):
    kind = data.draw(st.sampled_from(sorted(ODD_TYPE_FIELDS)))
    index = data.draw(st.sampled_from(ODD_TYPE_FIELDS[kind]))
    value = data.draw(ODD_TYPE)
    assume(index != ("utility", "kind") or value != "linear")
    # a one-entry list is a well-formed cons_b for SMALL_LP's one constraint
    assume(index != ("cons_b",) or value != [0.05])
    payload = {"game": LINEAR_GAME, "lp": SMALL_LP, "profile": {"profile": [0] * 4}}[kind]
    path = fuzz_dir / f"odd_type_{kind}.json"
    if index:
        write_with(path, payload, value, *index)
    else:
        path.write_text(json.dumps(value))
    game = fuzz_dir / "odd_type_linear.json"
    game.write_text(json.dumps(LINEAR_GAME))
    profile = fuzz_dir / "odd_type_profile0.json"
    profile.write_text(json.dumps([0] * 4))
    argv = {
        "game": ["verify", "--game", path, "--profile", profile],
        "lp": ["distmw-solve", "--lp", path, *LP_FLAGS],
        "profile": ["verify", "--game", game, "--profile", path],
    }[kind]
    assert exit_code([*argv, "--out", fuzz_dir / "odd_type_out.json"]) == 1
    assert "Traceback" not in capsys.readouterr().err
