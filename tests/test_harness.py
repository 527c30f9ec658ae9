"""Non-private tooling: brute force, generators, deviation tests, batch runs."""

import csv
import json

import numpy as np
import pytest

from privagg.dp_core import BudgetError, NoiseSource, ParameterError
from privagg.game_core import LinearUtility, save_game
from privagg.harness import (
    GENERATOR_KEYS,
    SOLVERS,
    DeviationSpec,
    ExperimentConfig,
    brute_force_equilibria,
    deviation_test,
    game_view,
    generate,
    profile_loss,
    run_experiment,
    solve,
)
from privagg import onedim
from privagg.onedim import QuasiAggregativeGame, make_optin_game, psummnash_accuracy_floor
from privagg.presl import existence_bound

from conftest import (
    JUMP_ALPHA,
    JUMP_EPSILON,
    build_quiet,
    jump_game,
    max_quality,
    naive_regret,
)


def constant_game(n=3, m=2, loss=None):
    return build_quiet(
        n=n, m=m, d=1, gamma=1.0 / n, W=1.0, f=np.ones((n, 1, m)),
        utility=LinearUtility(np.zeros((n, m)), np.zeros((n, m, 1))),
        loss=loss,
    )


# ---------------------------------------------------------------------------
# profile loss and brute force
# ---------------------------------------------------------------------------


def test_profile_loss_hand_value():
    loss = np.array([[0.2, 0.8], [0.4, 0.6], [1.0, 0.0]])
    g = constant_game(loss=loss)
    assert profile_loss(g, [0, 1, 1]) == pytest.approx((0.2 + 0.6 + 0.0) / 3)
    with pytest.raises(ParameterError):
        profile_loss(constant_game(), [0, 0, 0])


def test_brute_force_constant_game():
    g = constant_game()
    bf = brute_force_equilibria(g, 0.0)
    assert bf.profiles.shape == (8, 3)
    assert np.all(bf.regrets == 0.0)
    assert len(bf.equilibria()) == 8
    # least-significant-player enumeration order
    assert np.array_equal(bf.profiles[1], [1, 0, 0])
    assert np.array_equal(bf.profiles[2], [0, 1, 0])
    assert np.array_equal(bf.profiles[7], [1, 1, 1])


def test_brute_force_matches_naive_regret():
    rng = np.random.Generator(np.random.PCG64(3))
    c = rng.uniform(-0.4, 0.4, size=(2, 3))
    w = rng.uniform(-0.25, 0.25, size=(2, 3, 1))
    g = build_quiet(
        n=2, m=3, d=1, gamma=0.3, W=0.6,
        f=rng.uniform(-1, 1, (2, 1, 3)),
        utility=LinearUtility(c, w),
    )
    bf = brute_force_equilibria(g, 0.1)
    assert bf.profiles.shape == (9, 2)
    for row in range(9):
        expect = naive_regret(g, bf.profiles[row]).max()
        assert bf.regrets[row] == pytest.approx(expect, abs=1e-12)
    eqs = bf.equilibria(0.25)
    for x in eqs:
        assert naive_regret(g, x).max() <= 0.25 + 1e-12


@pytest.mark.parametrize("n, m", [(1, 3), (4, 2), (3, 5)])
def test_brute_force_profile_table_matches_the_decoding_loop(n, m):
    # row r plays digit i of r, base m, for player i
    expect = np.empty((m**n, n), dtype=np.int64)
    for row in range(m**n):
        v = row
        for i in range(n):
            expect[row, i] = v % m
            v //= m
    profiles = brute_force_equilibria(generate("linear", 0, n=n, m=m), 0.0).profiles
    assert profiles.dtype == np.int64
    assert np.array_equal(profiles, expect)


def test_brute_force_extremal_queries():
    loss = np.array([[0.2, 0.8], [0.4, 0.6], [1.0, 0.0]])
    g = constant_game(loss=loss)
    bf = brute_force_equilibria(g, 0.0)
    assert bf.min_loss(g) == pytest.approx((0.2 + 0.4 + 0.0) / 3)
    assert bf.min_loss(g, zeta=-0.5) == float("inf")

    # with gamma = 1/3 a single join moves the aggregator past every
    # threshold, so only the two unanimous profiles are exact equilibria
    q = make_optin_game(3, [0.2, 0.5, 0.8])
    bf2 = brute_force_equilibria(q.base, 0.0)
    assert max_quality(bf2, q.s_of, lambda s: s) == pytest.approx(1.0)
    assert len(bf2.equilibria()) == 2
    assert max_quality(bf2, q.s_of, lambda s: s, zeta=-1.0) == float("-inf")


def test_brute_force_enumeration_budget():
    g = constant_game(n=21, m=2)
    with pytest.raises(BudgetError):
        brute_force_equilibria(g, 0.0)


# ---------------------------------------------------------------------------
# mediator deviation experiment
# ---------------------------------------------------------------------------


def test_deviation_truthful_report_gains_nothing():
    types = np.linspace(0.1, 0.9, 12)
    spec = DeviationSpec(
        true_types=types, player=4, misreport=float(types[4]),
        epsilon=2000.0, alpha=0.05, beta=0.05, runs=6, seed=11,
    )
    rep = deviation_test(spec)
    assert rep.gains.shape == (6,)
    assert rep.max_gain == 0.0
    assert rep.within_budget
    assert rep.accuracy == pytest.approx(10 * 0.05 + 2.0 / 12)
    assert rep.eta == pytest.approx(rep.accuracy + 2 * (2 * 2000.0 + 0.05))


def test_deviation_misreport_is_reproducible():
    types = np.linspace(0.1, 0.9, 12)
    spec = dict(
        true_types=types, player=0, misreport=0.95,
        epsilon=2000.0, alpha=0.05, beta=0.05, runs=5, seed=3,
    )
    a = deviation_test(DeviationSpec(**spec))
    b = deviation_test(DeviationSpec(**spec))
    assert np.array_equal(a.gains, b.gains)
    assert a.stderr >= 0.0
    assert a.mean_gain == pytest.approx(float(a.gains.mean()))


def test_scalar_solves_build_a_games_sweep_bands_once(monkeypatch):
    # V and s_extremes sweep with payoff-gap bands kept on the
    # QuasiAggregativeGame: a solve that wrapped its game anew rebuilt them
    builds = []
    build = onedim._build_bands
    monkeypatch.setattr(onedim, "_build_bands", lambda *args: builds.append(args) or build(*args))
    q = generate("threshold", 4, n=200)
    alpha = psummnash_accuracy_floor(q, 300.0, 0.05)
    for seed in range(3):
        solve("psummnash", q, {"epsilon": 300.0, "alpha": alpha, "beta": 0.05}, NoiseSource(seed))
    assert len(builds) == 1
    select = {"zeta": 0.2, "epsilon": 3000.0, "alpha": 0.05, "beta": 0.05,
              "quality": {"kind": "peak", "target": 0.3}}
    for seed in range(2):
        solve("select", q, select, NoiseSource(seed))
    assert len(builds) == 2  # one more set, at select's band offset xi
    builds.clear()
    deviation_test(DeviationSpec(
        true_types=np.linspace(0.1, 0.9, 12), player=0, misreport=0.95,
        epsilon=2000.0, alpha=0.05, beta=0.05, runs=5, seed=3,
    ))
    assert len(builds) == 2  # the truthful game's and the misreported one's


def test_deviation_abort_fallback_and_validation():
    spec = DeviationSpec(
        true_types=np.full(10, 0.08), player=2, misreport=0.9,
        epsilon=JUMP_EPSILON, alpha=JUMP_ALPHA, beta=0.05, runs=3, seed=0,
        make_game=lambda types: QuasiAggregativeGame(base=jump_game()),
    )
    rep = deviation_test(spec)
    # both arms abort, both fall back to the same action: no gain either way
    assert np.all(rep.gains == 0.0)

    with pytest.raises(ParameterError):
        DeviationSpec(true_types=np.array([0.5]), player=1, misreport=0.2,
                      epsilon=1.0, alpha=0.1, beta=0.05)


@pytest.mark.parametrize("key, value, message", [
    ("player", 1.5, "player index"),  # once an IndexError inside deviation_test
    ("player", -1, "player index"),
    ("player", 3, "player index"),
    ("runs", 2.5, "runs must be a positive integer"),  # once a TypeError from np.empty
    ("runs", 0, "runs must be a positive integer"),
    ("runs", float("nan"), "runs must be a positive integer"),
])
def test_deviation_spec_refuses_a_bad_player_or_run_count(key, value, message):
    spec = dict(true_types=np.array([0.2, 0.5, 0.8]), player=0, misreport=0.9,
                epsilon=2000.0, alpha=0.05, beta=0.05, runs=2)
    with pytest.raises(ParameterError, match=message):
        DeviationSpec(**{**spec, key: value})


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generate_is_seed_deterministic():
    a = generate("linear", 5, n=6, m=3, d=2)
    b = generate("linear", 5, n=6, m=3, d=2)
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.utility.c, b.utility.c)
    assert np.array_equal(a.utility.w, b.utility.w)
    assert np.array_equal(a.loss, b.loss)
    c = generate("linear", 6, n=6, m=3, d=2)
    assert not np.array_equal(a.f, c.f)


def test_generate_linear_family():
    g = generate("linear", 0)
    assert (g.n, g.m, g.d) == (8, 2, 1)
    assert g.gamma == pytest.approx(1.0 / 8)
    assert g.W == pytest.approx(1.0)
    assert g.loss.shape == (8, 2)
    assert np.all(np.abs(g.f) <= 1.0)
    # utilities stay in [-1, 1] across the whole aggregator box
    reach = np.abs(g.utility.c) + np.abs(g.utility.w).sum(axis=2) * g.W
    assert np.all(reach <= 1.0 + 1e-12)
    assert generate("linear", 0, with_loss=False).loss is None


def test_generate_anonymous_counts_action_shares():
    g = generate("anonymous", 2, n=5, m=3)
    assert g.d == 3
    expect = np.zeros((5, 3, 3))
    for j in range(3):
        expect[:, j, j] = 1.0
    assert np.array_equal(g.f, expect)
    # aggregator coordinate j is the gamma-weighted count playing action j
    from privagg.game_core import aggregator

    s = aggregator(g, [0, 1, 1, 2, 1])
    assert s == pytest.approx([g.gamma * 1, g.gamma * 3, g.gamma * 1])


def test_generate_threshold_and_market():
    q = generate("threshold", 4, n=12)
    assert isinstance(q, QuasiAggregativeGame)
    assert q.n == 12
    assert q.gamma == pytest.approx(1.0 / 12)
    fixed = generate("threshold", 0, n=3, thresholds=[0.1, 0.2, 0.3])
    assert np.allclose(fixed.base.utility.thresholds, [0.1, 0.2, 0.3])

    mk = generate("market", 7, n=10, d=2)
    assert (mk.n, mk.d) == (10, 2)
    assert mk.lam == pytest.approx(4.0)
    assert mk.valuations.shape == (10, 9)
    assert np.all(np.abs(mk.valuations) <= 2.0 + 1e-12)

    with pytest.raises(ParameterError):
        generate("auction", 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 2.5, 0, "8"])
@pytest.mark.parametrize("kind, field", [
    ("linear", "n"), ("linear", "m"), ("linear", "d"), ("anonymous", "m"),
    ("threshold", "n"), ("market", "n"),
])
def test_generate_refuses_count_fields_that_are_not_integers(kind, field, bad):
    # NaN and inf died in int() with a ValueError or OverflowError, and 2.5
    # was cut to 2
    with pytest.raises(ParameterError, match=f"{field} must be a positive integer"):
        generate(kind, 0, **{field: bad})


# a value each generator key accepts
GENERATOR_VALUES = {"n": 4, "m": 2, "d": 1, "gamma": 0.25, "W": 1.0, "with_loss": False,
                    "thresholds": [0.1, 0.2, 0.3, 0.4], "lam": 4.0}


@pytest.mark.parametrize("kind", sorted(GENERATOR_KEYS))
def test_generate_reads_its_keys_and_refuses_the_others(kind):
    assert set(GENERATOR_VALUES) == {key for keys in GENERATOR_KEYS.values() for key in keys}
    generate(kind, 0, **{key: GENERATOR_VALUES[key] for key in GENERATOR_KEYS[kind]})
    for key in sorted(set(GENERATOR_VALUES) - set(GENERATOR_KEYS[kind])):
        with pytest.raises(ParameterError, match=f"{kind} games do not read {key}"):
            generate(kind, 0, n=4, **{key: GENERATOR_VALUES[key]})


def test_bench_game_specs_go_through_the_key_check(tmp_path):
    cfg = threshold_config(tmp_path, game={"kind": "threshold", "n": 25, "m": 3})
    with pytest.raises(ParameterError, match="threshold games do not read m"):
        run_experiment(cfg)


# a params dict each solver runs on, holding exactly the keys it reads
SOLVER_PARAMS = {
    "presl": {"zeta": 1.0, "epsilon": 75.0, "delta": 0.05, "beta": 0.3},
    "npresl": {"zeta": 1.0, "alpha": 0.12, "beta": 0.1},
    "psummnash": {"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05},
    "select": {"zeta": 0.2, "epsilon": 3000.0, "alpha": 0.05, "beta": 0.05,
               "quality": {"kind": "peak", "target": 0.3}},
    "distmw": {"epsilon": 1.0, "delta": 0.05, "alpha": 0.5, "beta": 0.1},
}


def test_run_experiment_refuses_params_the_solver_does_not_read(tmp_path):
    assert set(SOLVER_PARAMS) == set(SOLVERS)
    for algorithm, params in SOLVER_PARAMS.items():
        entry = SOLVERS[algorithm]
        assert set(params) == {*entry.params, *entry.objects}
        cfg = threshold_config(tmp_path, algorithm=algorithm, params=dict(params, xi=2.0))
        with pytest.raises(ParameterError, match=f"{algorithm} does not read params xi"):
            run_experiment(cfg)
    assert not list(tmp_path.iterdir())  # refused before any output


# ---------------------------------------------------------------------------
# batch runner
# ---------------------------------------------------------------------------


def threshold_config(tmp_path, **overrides):
    base = dict(
        algorithm="psummnash",
        game={"kind": "threshold", "n": 25},
        params={"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05},
        trials=3,
        seed=1,
        noise=False,
        label="batch",
        out_dir=str(tmp_path),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_empty_batch(tmp_path):
    res = run_experiment(threshold_config(tmp_path, trials=0))
    raw = res.csv_path.read_bytes()
    assert raw == b"trial,seed,regret,bound,loss,quality,abort,time_ms\r\n"
    assert res.summary["aborts"] == 0
    assert res.summary["bound"] is None
    assert res.summary["within_bound"] is None


def test_run_experiment_summarization_batch(tmp_path):
    res = run_experiment(threshold_config(tmp_path))
    assert len(res.rows) == 3
    assert res.summary["aborts"] == 0
    assert res.summary["within_bound"] is True
    for row in res.rows:
        assert row["regret"] <= row["bound"]
        assert row["quality"] is None
    payload = json.loads(res.summary_path.read_text())
    assert payload["max_regret"] == pytest.approx(res.summary["max_regret"])
    with open(res.csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert [r["trial"] for r in rows] == ["0", "1", "2"]
    assert all(r["abort"] == "0" for r in rows)


def test_run_experiment_rerun_is_identical_without_timing(tmp_path):
    res_a = run_experiment(threshold_config(tmp_path / "a"))
    res_b = run_experiment(threshold_config(tmp_path / "b"))
    strip = lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
    assert strip(res_a.csv_path) == strip(res_b.csv_path)
    assert res_a.summary_path.read_text() == res_b.summary_path.read_text()


def test_run_experiment_output_directory_precedence(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("PRIVAGG_OUT", str(env_dir))
    res = run_experiment(threshold_config(tmp_path, trials=1, out_dir=None))
    assert res.csv_path.parent == env_dir
    explicit = tmp_path / "explicit"
    res2 = run_experiment(threshold_config(explicit, trials=1))
    assert res2.csv_path.parent == explicit


def test_run_experiment_counts_aborts(tmp_path):
    path = tmp_path / "jump.json"
    save_game(jump_game(), path)
    cfg = threshold_config(
        tmp_path,
        game={"path": str(path)},
        params={"epsilon": JUMP_EPSILON, "alpha": JUMP_ALPHA, "beta": 0.05},
        trials=2,
        label="jump",
    )
    res = run_experiment(cfg)
    assert res.summary["aborts"] == 2
    assert res.summary["max_regret"] is None
    assert res.summary["within_bound"] is None
    assert all(row["regret"] is None for row in res.rows)


def test_run_experiment_selection_batch(tmp_path):
    cfg = threshold_config(
        tmp_path,
        algorithm="select",
        params={"zeta": 0.2, "epsilon": 3000.0, "alpha": 0.05, "beta": 0.05,
                "quality": {"kind": "linear", "slope": 1.0}},
        trials=2,
        label="select",
    )
    res = run_experiment(cfg)
    assert res.summary["aborts"] == 0
    for row in res.rows:
        assert row["quality"] is not None
        assert row["regret"] <= row["bound"]


def test_run_experiment_lp_solvers(tmp_path):
    cfg = threshold_config(
        tmp_path,
        algorithm="npresl",
        game={"kind": "linear", "n": 6, "gamma": 0.1},
        params={"zeta": 1.0, "alpha": 0.12, "beta": 0.1},
        trials=1,
        label="npresl",
    )
    res = run_experiment(cfg)
    row = res.rows[0]
    assert res.summary["aborts"] == 0
    assert row["loss"] is not None
    assert row["regret"] <= row["bound"] + 1e-9

    cfg2 = threshold_config(
        tmp_path,
        algorithm="distmw",
        game={"kind": "linear", "n": 6, "gamma": 0.1},
        params={"epsilon": 10000.0, "delta": 0.05, "alpha": 0.5, "beta": 0.1},
        trials=1,
        label="distmw",
        noise=True,
    )
    res2 = run_experiment(cfg2)
    row2 = res2.rows[0]
    assert row2["abort"] == 0
    assert row2["regret"] is not None and row2["bound"] is not None

    with pytest.raises(ParameterError):
        run_experiment(threshold_config(tmp_path, algorithm="simplex", trials=1))


def test_npresl_reported_bound_includes_zeta(tmp_path):
    # the grid-small shape: loss-carrying linear game, zeta at the existence
    # bound; this seed's sampled profile has regret 1.456, above
    # 4 alpha + 2 gamma + 2 sampling_slack = 1.287, a bound that leaves out zeta
    n, gamma, alpha, beta = 5, 0.1, 0.12, 0.1
    cfg = threshold_config(
        tmp_path,
        algorithm="npresl",
        game={"kind": "linear", "n": n, "gamma": gamma},
        params={"zeta": existence_bound(n, 2, gamma), "alpha": alpha, "beta": beta},
        trials=1,
        seed=20,
        label="npresl-zeta",
    )
    row = run_experiment(cfg).rows[0]
    slack = np.sqrt(n * gamma**2 / 2 * np.log(4.0 / beta))
    assert row["regret"] > 4 * alpha + 2 * gamma + 2 * slack
    assert row["regret"] <= row["bound"]


def test_scalar_solvers_fill_loss_on_loss_carrying_games(tmp_path):
    for algorithm, params in [
        ("psummnash", {"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05}),
        ("select", {"zeta": 0.2, "epsilon": 3000.0, "alpha": 0.05, "beta": 0.05,
                    "quality": {"kind": "peak", "target": 0.0}}),
    ]:
        cfg = threshold_config(
            tmp_path, algorithm=algorithm, game={"kind": "linear", "n": 10, "gamma": 0.05},
            params=params, trials=2, label=algorithm,
        )
        res = run_experiment(cfg)
        assert res.summary["aborts"] == 0
        for row in res.rows:
            game = generate("linear", row["seed"], n=10, gamma=0.05)
            x = solve(algorithm, game, params, NoiseSource(row["seed"], NoiseSource.NOISE_OFF)).profile
            assert row["loss"] == profile_loss(game, x)


def test_every_solver_takes_a_market(tmp_path):
    market = {"kind": "market", "n": 20, "d": 1}
    for algorithm, params in [
        ("psummnash", {"epsilon": 20000.0, "alpha": 0.05, "beta": 0.05}),
        ("select", {"zeta": 0.8, "epsilon": 30000.0, "alpha": 0.05, "beta": 0.05,
                    "quality": {"kind": "linear", "slope": 1.0}}),
    ]:
        cfg = threshold_config(tmp_path, algorithm=algorithm, game=market, params=params,
                               trials=1, label=algorithm)
        row = run_experiment(cfg).rows[0]
        assert row["bound"] is not None and row["loss"] is None
        if not row["abort"]:
            assert row["regret"] <= row["bound"]
    cfg = threshold_config(tmp_path, algorithm="npresl", game=market, trials=1,
                           params={"zeta": 1.0, "alpha": 0.12, "beta": 0.1})
    with pytest.raises(ParameterError, match="lacks"):
        run_experiment(cfg)


def test_config_errors_are_parameter_errors(tmp_path):
    with pytest.raises(ParameterError, match="'beta'"):
        run_experiment(threshold_config(tmp_path, params={"epsilon": 2000.0, "alpha": 0.05}))
    with pytest.raises(ParameterError, match="kind"):
        run_experiment(threshold_config(tmp_path, game={"n": 25}))
    with pytest.raises(ParameterError, match="target"):
        run_experiment(threshold_config(
            tmp_path, algorithm="select",
            params={"zeta": 0.2, "epsilon": 3000.0, "alpha": 0.05, "beta": 0.05,
                    "quality": {"kind": "peak"}},
        ))
    with pytest.raises(ParameterError, match="algorithm"):
        ExperimentConfig.from_json(json.dumps({"game": {"kind": "threshold"}}))


def test_game_view_unwraps_generator_games():
    quasi = generate("threshold", 0, n=5)
    assert game_view(quasi) is quasi.base
    market = generate("market", 0, n=5, d=2)
    assert game_view(market).d == 2 and game_view(market).m == 9
    linear = generate("linear", 0, n=5)
    assert game_view(linear) is linear


def test_config_label_must_be_a_plain_file_name(tmp_path):
    # "../../x" with out_dir "o" once wrote x.csv two directories above o
    out_dir = tmp_path / "a" / "b" / "o"
    base = dict(algorithm="psummnash", game={"kind": "threshold", "n": 25},
                params={"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05}, trials=1,
                out_dir=str(out_dir))
    for label in ("../../x", "", ".", "..", "sub/x", str(tmp_path / "x"), "x\0"):
        with pytest.raises(ParameterError, match="label must be a plain file name"):
            ExperimentConfig.from_json(json.dumps({**base, "label": label}))
    assert not any(tmp_path.iterdir())
    res = run_experiment(ExperimentConfig.from_json(json.dumps({**base, "label": "run.1"})))
    assert sorted(out_dir.iterdir()) == [res.csv_path, res.summary_path]
    assert res.csv_path == out_dir / "run.1.csv"


def test_experiment_config_from_json():
    cfg = ExperimentConfig.from_json(json.dumps({
        "algorithm": "psummnash",
        "game": {"kind": "threshold", "n": 10},
        "params": {"epsilon": 100.0, "alpha": 0.4, "beta": 0.1},
        "trials": 2,
        "noise": False,
    }))
    assert cfg.algorithm == "psummnash"
    assert cfg.trials == 2
    assert cfg.label == "experiment"
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json(json.dumps({"algorithm": "psummnash",
                                               "game": {}, "budget": 3}))
