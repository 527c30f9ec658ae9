"""Acceptance gate: one quantitative criterion per test, one PASS/FAIL line each.

Each criterion states its tolerance inline. Desk-scale parameters are chosen
so the theory bounds under test are the binding quantity, not vacuities of
the random instances; runtimes are asserted against the stated limits.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from privagg.cli import main as cli_main
from privagg.dp_core import (
    NoiseSource,
    SparseSession,
    exponential_mechanism,
)
from privagg.game_core import regret, save_game, translate_checks
from privagg.harness import (
    ExperimentConfig,
    brute_force_equilibria,
    generate,
    profile_loss,
    run_experiment,
)
from privagg.lp_core import (
    DistMWParams,
    FeasibilityLP,
    distmw_solve,
    mw_accuracy_bound,
    replay_mw_player,
)
from privagg.market import market_maker_loss
from privagg.onedim import (
    QualitySpec,
    SelectionParams,
    make_optin_game,
    psummnash,
    psummnash_accuracy_floor,
    replay_psummnash_player,
    replay_select_player,
    select_equilibrium,
)
from privagg.presl import PreslParams, existence_bound, npresl, presl, replay_presl_player

from conftest import max_quality, nash_from_abr_bound, quality_penalty, sparse_accuracy_bound

OFF = NoiseSource.NOISE_OFF


def check(name: str, ok: bool, detail: str, limit_s: float, elapsed: float) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name} [{detail}; {elapsed:.1f}s/{limit_s:.0f}s]"
    print(line)
    assert ok and elapsed < limit_s, line


def test_01_translation_lemmas():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(101))
    worst = 0.0
    trials = 0
    for g_idx in range(100):
        kind = ("linear", "anonymous")[g_idx % 2]
        n = int(rng.integers(4, 9))
        m = int(rng.integers(2, 4))
        if kind == "linear":
            game = generate(kind, 5000 + g_idx, n=n, m=m, d=int(rng.integers(1, 3)))
        else:
            game = generate(kind, 5000 + g_idx, n=n, m=m)
        for _ in range(10):
            x = rng.integers(0, m, size=n)
            rep = translate_checks(game, x, eta=0.1)
            worst = max(
                worst,
                rep.br_to_abr_violation,
                rep.abr_to_br_violation,
                rep.max_br - nash_from_abr_bound(rep),
            )
            trials += 1
    elapsed = time.perf_counter() - start
    check(
        "translation lemmas, zero violations at 1e-9",
        trials == 1000 and worst <= 1e-9,
        f"{trials} profiles, worst slack {worst:.2e}",
        10.0,
        elapsed,
    )


def test_02_sparse_vector_accuracy():
    start = time.perf_counter()
    n_queries, c, beta = 200, 1, 0.05
    alpha = sparse_accuracy_bound(n_queries, c, 1.0, 1.0, beta)
    rng = np.random.Generator(np.random.PCG64(202))
    violated = 0
    for trial in range(1000):
        session = SparseSession(1.0, 0.0, 1.0, NoiseSource(trial))
        queries = rng.uniform(-2.0 * alpha, 2.0 * alpha, size=n_queries)
        bad = False
        for q in queries:
            ans = session.answer(float(q))
            if ans.below and q > alpha:
                bad = True
            if not ans.below and q < -alpha:
                bad = True
            if ans.below:
                break
        violated += bad
    rate = violated / 1000.0
    elapsed = time.perf_counter() - start
    check(
        "sparse vector accuracy at the theorem alpha",
        rate <= beta + 0.02,
        f"violation rate {rate:.3f} vs {beta + 0.02:.3f}",
        30.0,
        elapsed,
    )


def test_03_exponential_mechanism_distribution():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(303))
    scores = rng.uniform(0.0, 1.0, size=10)
    epsilon = 2.0
    weights = np.exp(epsilon * (scores - scores.max()) / 2.0)
    expected = weights / weights.sum()
    src = NoiseSource(404)
    counts = np.zeros(10)
    n_samples = 10**5
    for k in range(n_samples):
        counts[exponential_mechanism(scores, 1.0, epsilon, src.child(k))] += 1
    result = stats.chisquare(counts, f_exp=expected * n_samples)
    elapsed = time.perf_counter() - start
    check(
        "exponential mechanism matches analytic softmax",
        result.pvalue >= 0.001,
        f"chi2 p={result.pvalue:.4f} over {n_samples} samples",
        10.0,
        elapsed,
    )


def test_04_distmw_accuracy_and_exact_supports():
    start = time.perf_counter()
    n, m, K, beta = 200, 2, 3, 0.05
    gamma, delta, epsilon = 1.0 / n, 1.0 / n, 1e4
    alpha = mw_accuracy_bound(n, m, gamma, epsilon, delta, K, beta)
    params = DistMWParams(
        epsilon=epsilon, delta=delta, alpha=alpha, beta=beta, n=n, m=m, gamma=gamma
    )
    accurate = 0
    supports_exact = True
    for trial in range(200):
        rng = np.random.Generator(np.random.PCG64(7000 + trial))
        supports = rng.random((n, m)) < 0.9
        supports[np.arange(n), rng.integers(0, m, n)] = True
        p_star = np.where(supports, rng.random((n, m)), 0.0)
        p_star /= p_star.sum(axis=1, keepdims=True)
        cons_f = rng.uniform(-1.0, 1.0, size=(K, n, m))
        cons_b = gamma * np.einsum("kim,im->k", cons_f, p_star) + alpha / 2.0
        lp = FeasibilityLP(gamma=gamma, cons_f=cons_f, cons_b=cons_b, supports=supports)
        res = distmw_solve(lp, params, NoiseSource(trial))
        if float(np.max(lp.margins(res.p_bar))) <= alpha:
            accurate += 1
        if float(np.abs(res.p_bar[~supports]).sum()) != 0.0:
            supports_exact = False
    elapsed = time.perf_counter() - start
    need = int(np.ceil(200 * (1.0 - beta - 0.05)))
    check(
        "distmw within the accuracy bound, supports exact",
        accurate >= need and supports_exact,
        f"{accurate}/200 accurate (need {need}), supports exact={supports_exact}",
        300.0,
        elapsed,
    )


def test_05_psummnash_at_scale():
    start = time.perf_counter()
    n, epsilon, beta = 2000, 100.0, 0.05
    probe = make_optin_game(n, np.zeros(n), gamma=1.0 / n)
    alpha = psummnash_accuracy_floor(probe, epsilon, beta)
    rng = np.random.Generator(np.random.PCG64(505))

    clean_ok = True
    for trial in range(50):
        q = make_optin_game(n, rng.uniform(0, 1, n), gamma=1.0 / n)
        res = psummnash(q, epsilon, alpha, beta, NoiseSource(trial, OFF))
        bound = res.approx_bound(q.base.gamma_eff)
        if res.aborted or regret(q.base, res.profile).max_regret > bound:
            clean_ok = False

    q_fixed = make_optin_game(n, rng.uniform(0, 1, n), gamma=1.0 / n)
    failures = 0
    for seed in range(100):
        res = psummnash(q_fixed, epsilon, alpha, beta, NoiseSource(9000 + seed))
        if res.aborted:
            failures += 1
        elif regret(q_fixed.base, res.profile).max_regret > res.approx_bound(
            q_fixed.base.gamma_eff
        ):
            failures += 1
    elapsed = time.perf_counter() - start
    check(
        "psummnash regret bound at n=2000 and alpha at the floor",
        clean_ok and failures <= (beta + 0.05) * 100,
        f"noise_off 50/50 within 10a+2g, noisy failures {failures}/100",
        120.0,
        elapsed,
    )


def test_06_monotone_games_stage_one():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(606))
    hits = 0
    for trial in range(100):
        q = make_optin_game(60, rng.uniform(0, 1, 60))
        res = psummnash(q, 2000.0, 0.05, 0.05, NoiseSource(trial, OFF))
        hits += int((not res.aborted) and res.stage == 1)
    elapsed = time.perf_counter() - start
    check(
        "monotone opt-in games finish in stage 1",
        hits == 100,
        f"{hits}/100 stage-1 exits",
        30.0,
        elapsed,
    )


def test_07_presl_npresl_vs_brute_force():
    start = time.perf_counter()
    alpha_np = 0.12
    ok_npresl = True
    ok_presl = True
    for trial in range(50):
        n = 4 + trial % 3
        game = generate("linear", 1000 + trial, n=n, gamma=0.1)
        zeta = existence_bound(n, 2, 0.1)
        brute = brute_force_equilibria(game, zeta)
        opt = brute.min_loss(game)

        nres = npresl(game, zeta=zeta, alpha=alpha_np, beta=0.1,
                      src=NoiseSource(2000 + trial))
        budget = opt + 5.0 * alpha_np + alpha_np / 10.0 + 1e-9
        if nres.aborted or profile_loss(game, nres.profile) > budget:
            ok_npresl = False

        params = PreslParams.for_game(
            game, zeta=zeta, epsilon=10.0, delta=1.0 / n, beta=0.05
        )
        pres = presl(game, params, NoiseSource(3000 + trial, OFF))
        if pres.aborted or regret(game, pres.profile).max_regret > params.nash_bound + 1e-9:
            ok_presl = False
    elapsed = time.perf_counter() - start
    check(
        "npresl within OPT + 5a + tol, presl within zeta + 12a",
        ok_npresl and ok_presl,
        f"50/50 instances, n in 4..6",
        120.0,
        elapsed,
    )


def test_08_selection_quality_and_regret():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(808))
    ok = True
    for trial in range(50):
        q = make_optin_game(5, rng.uniform(0, 1, 5))
        quality = QualitySpec.peak(float(rng.uniform(-0.5, 0.5)))
        prm = SelectionParams.for_game(
            q, zeta=4 * q.gamma, epsilon=3000.0, alpha=0.1, beta=0.05,
            quality=quality,
        )
        res = select_equilibrium(q, prm, NoiseSource(trial, OFF))
        if res.aborted:
            ok = False
            continue
        best = max_quality(brute_force_equilibria(q.base, prm.zeta), q.s_of, quality.fn)
        if res.quality_value < best - quality_penalty(prm) - 1e-9:
            ok = False
        if regret(q.base, res.profile).max_regret > prm.approx_bound + 1e-12:
            ok = False
    elapsed = time.perf_counter() - start
    check(
        "selection quality within 5*alpha*lam of OPT, regret bounded",
        ok,
        "50/50 noise_off instances",
        120.0,
        elapsed,
    )


def test_09_market_maker_loss_cap():
    start = time.perf_counter()
    worst_ratio = 0.0
    for d in (1, 2, 3):
        market = generate("market", 90 + d, n=20, d=d)
        cap = market.lam / 16.0 + 1e-9
        rng = np.random.Generator(np.random.PCG64(900 + d))
        n_actions = market.valuations.shape[1]
        profiles = rng.integers(0, n_actions, size=(10**4, market.n))
        for x in profiles:
            per = market_maker_loss(market, x).per_security
            worst_ratio = max(worst_ratio, float(np.max(per)) / cap)
    elapsed = time.perf_counter() - start
    check(
        "per-security maker loss within lambda/16",
        worst_ratio <= 1.0,
        f"worst loss at {worst_ratio:.3f} of cap, d in 1..3",
        30.0,
        elapsed,
    )


def test_10_billboard_replay():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(111))
    ok = True

    for trial in range(50):
        game = generate("linear", 4000 + trial, n=10, gamma=0.05)
        params = PreslParams.for_game(game, zeta=1.0, epsilon=75.0, delta=0.05, beta=0.3)
        src = NoiseSource(trial)
        res = presl(game, params, src)
        if res.aborted or any(
            replay_presl_player(game, i, res, NoiseSource(trial)) != res.profile[i]
            for i in range(game.n)
        ):
            ok = False

    for trial in range(50):
        q = make_optin_game(25, rng.uniform(0, 1, 25))
        res = psummnash(q, 2000.0, 0.05, 0.05, NoiseSource(trial))
        if res.aborted or any(
            replay_psummnash_player(q, i, res) != res.profile[i] for i in range(q.n)
        ):
            ok = False

    for trial in range(50):
        q = make_optin_game(12, rng.uniform(0, 1, 12))
        prm = SelectionParams.for_game(
            q, zeta=4 * q.gamma, epsilon=3000.0, alpha=0.05, beta=0.05,
            quality=QualitySpec.peak(0.3),
        )
        res = select_equilibrium(q, prm, NoiseSource(trial))
        if res.aborted or any(
            replay_select_player(q, i, res) != res.profile[i] for i in range(q.n)
        ):
            ok = False

    n, m = 20, 2
    mw_params = DistMWParams(
        epsilon=1e4, delta=0.05, alpha=0.5, beta=0.1, n=n, m=m, gamma=1.0 / n
    )
    for trial in range(50):
        lp_rng = np.random.Generator(np.random.PCG64(500 + trial))
        lp = FeasibilityLP(
            gamma=1.0 / n,
            cons_f=lp_rng.uniform(-1, 1, size=(2, n, m)),
            cons_b=np.full(2, 0.6),
            supports=np.ones((n, m), dtype=bool),
        )
        res = distmw_solve(lp, mw_params, NoiseSource(trial))
        if any(
            not np.array_equal(
                replay_mw_player(lp.cons_f[:, i, :], lp.supports[i], mw_params,
                                 res.transcript),
                res.p_bar[i],
            )
            for i in range(n)
        ):
            ok = False
    elapsed = time.perf_counter() - start
    check(
        "per-player outputs replay bit-exactly from the billboard",
        ok,
        "50 noisy runs each for presl/psummnash/select/distmw",
        120.0,
        elapsed,
    )


def test_11_rerun_determinism(tmp_path):
    start = time.perf_counter()

    def batch(out_dir):
        return run_experiment(ExperimentConfig(
            algorithm="psummnash",
            game={"kind": "threshold", "n": 25},
            params={"epsilon": 2000.0, "alpha": 0.05, "beta": 0.05},
            trials=3, seed=7, noise=True, label="det", out_dir=str(out_dir),
        ))

    res_a = batch(tmp_path / "a")
    res_b = batch(tmp_path / "b")
    strip = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
    rows_same = strip(res_a.csv_path) == strip(res_b.csv_path)
    summary_same = res_a.summary_path.read_bytes() == res_b.summary_path.read_bytes()

    game_path = tmp_path / "g.json"
    save_game(make_optin_game(25, np.linspace(0.05, 0.95, 25)).base, game_path)
    outs = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        code = cli_main(["psummnash", "--game", str(game_path), "--epsilon", "2000",
                         "--alpha", "0.05", "--seed", "3", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    cli_same = outs[0] == outs[1]
    elapsed = time.perf_counter() - start
    check(
        "identical config and seed give byte-identical results",
        rows_same and summary_same and cli_same,
        f"batch rows={rows_same}, summary={summary_same}, cli={cli_same}",
        60.0,
        elapsed,
    )
