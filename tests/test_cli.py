"""End-to-end command line checks, run in process through main()."""

import json

import numpy as np
import pytest

from privagg.cli import main
from privagg.game_core import load_game, save_game
from privagg.harness import generate

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
    cases = [
        # non-finite budgets passed every "> 0" check and ran without noise
        ("psummnash", "--game", threshold_game, "--epsilon", "nan", "--alpha", 0.05),
        ("psummnash", "--game", threshold_game, "--epsilon", "inf", "--alpha", 0.05),
        ("bench", "--config", malformed),
        ("distmw-solve", "--lp", no_cons_f, *lp_flags),
        ("distmw-solve", "--lp", empty_support, *lp_flags),
    ]
    for argv in cases:
        assert run_cli(*argv) == 1, argv
        assert "Traceback" not in capsys.readouterr().err


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
