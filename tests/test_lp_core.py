"""Private LP dynamics and the exact query-side solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from privagg.dp_core import NoiseSource, compose_adaptive
from privagg.game_core import ParameterError, utility_matrix
from privagg.harness import generate
from privagg.lp_core import (
    DegenerateError,
    DistMWParams,
    FeasibilityLP,
    build_slack_lp,
    distmw_solve,
    exact_lp_min,
    kl_project,
    most_violated,
    mw_accuracy_bound,
    mw_update,
    replay_mw_player,
)


def single_constraint_lp(gamma=0.3, seed=0, n=2, m=2):
    """One random constraint made feasible with margin exactly 0 at p_feas."""
    rng = np.random.Generator(np.random.PCG64(seed))
    f = rng.uniform(-1.0, 1.0, size=(1, n, m))
    p_feas = rng.dirichlet(np.ones(m), size=n)
    b = gamma * float(np.einsum("nm,nm->", f[0], p_feas))
    lp = FeasibilityLP(gamma=gamma, cons_f=f, cons_b=np.array([b]),
                       supports=np.ones((n, m), dtype=bool))
    return lp, p_feas


# ---------------------------------------------------------------------------
# the two primitive steps
# ---------------------------------------------------------------------------


def test_mw_update_analytic_cases():
    p = np.array([0.2, 0.3, 0.5])
    assert np.array_equal(mw_update(p, np.zeros(3), 0.7), p)

    hit = mw_update(p, np.array([0.0, 1.0, 0.0]), 0.7)
    assert hit[0] == p[0] and hit[2] == p[2]
    assert hit[1] == pytest.approx(0.3 * math.exp(-0.7), abs=0)

    uniform = np.full(4, 0.25)
    out = mw_update(uniform, np.ones(4), 0.3)
    assert np.allclose(out / out.sum(), uniform, atol=1e-15)


def test_kl_project_frozen_example():
    out = kl_project(np.array([2.0, 6.0, 2.0]), np.array([True, True, False]))
    assert np.allclose(out, [0.25, 0.75, 0.0], atol=0)

    # cross-check against a dense search minimizing relative entropy
    qs = np.linspace(1e-6, 1.0 - 1e-6, 1001)
    re = qs * np.log(qs / 2.0) + (1.0 - qs) * np.log((1.0 - qs) / 6.0)
    assert qs[np.argmin(re)] == pytest.approx(0.25, abs=1e-3)


def test_kl_project_identity_and_point_mass():
    p = np.array([0.1, 0.6, 0.3])
    assert np.allclose(kl_project(p, np.ones(3, dtype=bool)), p, atol=1e-15)
    out = kl_project(np.array([0.5, 0.2, 0.3]), np.array([False, True, False]))
    assert np.array_equal(out, [0.0, 1.0, 0.0])


def test_kl_project_degenerate():
    with pytest.raises(DegenerateError):
        kl_project(np.array([0.0, 0.0, 1.0]), np.array([True, True, False]))


@settings(max_examples=100)
@given(
    hnp.arrays(float, 5, elements=st.floats(min_value=1e-6, max_value=10.0)),
    st.integers(min_value=1, max_value=31),
)
def test_kl_project_properties(weights, mask_bits):
    support = np.array([(mask_bits >> j) & 1 == 1 for j in range(5)])
    out = kl_project(weights, support)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out[~support] == 0.0)
    inside = support & (weights > 0)
    ratios = out[inside] / weights[inside]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# constraint selection
# ---------------------------------------------------------------------------


def test_most_violated_exact_and_exp():
    gamma = 0.5
    f = np.zeros((2, 2, 2))
    f[0] = 1.0
    f[1] = -1.0
    # at any p: margins are (0.5*2 - b0, -0.5*2 - b1)
    lp = FeasibilityLP(gamma=gamma, cons_f=f, cons_b=np.array([0.5, -0.8]),
                       supports=np.ones((2, 2), dtype=bool))
    p = lp.uniform_start()
    k, margin = most_violated(lp, p)
    assert (k, margin) == (0, pytest.approx(0.5))

    off = NoiseSource(0, NoiseSource.NOISE_OFF)
    k2, margin2 = most_violated(lp, p, mode="exp", eps0=1.0, src=off)
    assert (k2, margin2) == (k, margin)

    # lowest index wins ties in exact mode
    tie = FeasibilityLP(gamma=gamma, cons_f=np.stack([f[0], f[0]]),
                        cons_b=np.array([0.5, 0.5]),
                        supports=np.ones((2, 2), dtype=bool))
    assert most_violated(tie, p)[0] == 0


def test_most_violated_single_and_errors():
    lp, _ = single_constraint_lp()
    p = lp.uniform_start()
    assert most_violated(lp, p)[0] == 0
    assert most_violated(lp, p, mode="exp", eps0=2.0, src=NoiseSource(1))[0] == 0
    with pytest.raises(ParameterError):
        most_violated(lp, p, mode="greedy")
    with pytest.raises(ParameterError):
        most_violated(lp, p, mode="exp")


# ---------------------------------------------------------------------------
# parameter derivations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_distmw_params_reject_non_finite(bad):
    for key in ("epsilon", "alpha"):
        kwargs = dict(epsilon=1.0, delta=0.01, alpha=0.2, beta=0.1, n=2, m=2, gamma=0.3)
        kwargs[key] = bad
        with pytest.raises(ParameterError, match="finite"):
            DistMWParams(**kwargs)


def test_distmw_params_derivations():
    prm = DistMWParams(epsilon=1.0, delta=0.01, alpha=0.2, beta=0.1,
                       n=2, m=2, gamma=0.3)
    assert prm.T == math.ceil(16 * 4 * 0.09 * math.log(2) / 0.04)
    assert prm.eps0 == pytest.approx(
        1.0 / (2.0 * math.sqrt(2.0 * prm.T * math.log(100.0))), rel=1e-15
    )
    assert prm.eta == pytest.approx(0.2 / (4 * 2 * 0.3), rel=1e-15)

    tiny = DistMWParams(epsilon=1.0, delta=0.5, alpha=1.0, beta=0.1,
                        n=1, m=2, gamma=0.01)
    assert tiny.T == 1

    for bad in (dict(epsilon=0.0), dict(delta=1.0), dict(alpha=-1.0), dict(beta=0.0)):
        kw = dict(epsilon=1.0, delta=0.01, alpha=0.2, beta=0.1, n=2, m=2, gamma=0.3)
        kw.update(bad)
        with pytest.raises(ParameterError):
            DistMWParams(**kw)


def test_mw_accuracy_bound_frozen_value():
    val = mw_accuracy_bound(200, 2, 1.0 / 200, 1e4, 1.0 / 200, 3, 0.05)
    assert val == pytest.approx(0.4559183141735056, rel=1e-15)
    with pytest.raises(ParameterError):
        mw_accuracy_bound(0, 2, 0.1, 1.0, 0.01, 1, 0.1)
    with pytest.raises(ParameterError):
        mw_accuracy_bound(10, 2, 0.1, 1.0, 2.0, 1, 0.1)


# ---------------------------------------------------------------------------
# the private dynamics
# ---------------------------------------------------------------------------


def test_distmw_vacuous_constraints_never_violated():
    rng = np.random.Generator(np.random.PCG64(3))
    n, m, gamma = 3, 2, 0.3
    f = rng.uniform(-1.0, 1.0, size=(2, n, m))
    b = np.full(2, n * gamma + 1.0)
    lp = FeasibilityLP(gamma=gamma, cons_f=f, cons_b=b,
                       supports=np.ones((n, m), dtype=bool))
    prm = DistMWParams(epsilon=1.0, delta=0.05, alpha=1.0, beta=0.1,
                       n=n, m=m, gamma=gamma)
    res = distmw_solve(lp, prm, NoiseSource(4))
    assert np.all(lp.margins(res.p_bar) <= 0.0)
    assert res.p_bar.shape == (n, m)
    assert np.allclose(res.p_bar.sum(axis=1), 1.0, atol=1e-12)


def test_distmw_noise_off_meets_regret_bound():
    lp, _ = single_constraint_lp(gamma=0.3, seed=7)
    alpha = 0.2
    prm = DistMWParams(epsilon=1.0, delta=0.01, alpha=alpha, beta=0.1,
                       n=2, m=2, gamma=0.3)
    res = distmw_solve(lp, prm, NoiseSource(0, NoiseSource.NOISE_OFF))
    slack = math.log(2) / (prm.T * prm.eta) + prm.eta * 2 * 0.3
    assert float(lp.margins(res.p_bar)[0]) <= alpha / 2 + slack + 1e-9


def test_distmw_no_regret_per_player():
    # replay each player's rounds with plain exponential arithmetic and
    # check the standard regret inequality on the realized loss sequence
    rng = np.random.Generator(np.random.PCG64(11))
    n, m, gamma = 3, 3, 0.2
    f = rng.uniform(-1.0, 1.0, size=(4, n, m))
    b = rng.uniform(-0.5, 0.5, size=4)
    supports = np.ones((n, m), dtype=bool)
    supports[1, 2] = False
    lp = FeasibilityLP(gamma=gamma, cons_f=f, cons_b=b, supports=supports)
    prm = DistMWParams(epsilon=2.0, delta=0.05, alpha=0.3, beta=0.1,
                       n=n, m=m, gamma=gamma)
    res = distmw_solve(lp, prm, NoiseSource(12))
    T, eta = prm.T, prm.eta
    assert len(res.transcript) == T
    for i in range(n):
        p = supports[i].astype(float)
        p /= p.sum()
        realized = 0.0
        cum_loss = np.zeros(m)
        for k in res.transcript:
            row = f[int(k), i]
            realized += float(row @ p)
            cum_loss += row
            w = p * np.exp(-eta * row)
            w *= supports[i]
            p = w / w.sum()
        best = float(np.min(np.where(supports[i], cum_loss, np.inf))) / T
        assert realized / T <= best + eta + math.log(m) / (T * eta) + 1e-8


def test_distmw_replay_is_bit_exact():
    rng = np.random.Generator(np.random.PCG64(21))
    n, m, gamma = 4, 2, 0.25
    f = rng.uniform(-1.0, 1.0, size=(3, n, m))
    b = rng.uniform(0.0, 1.0, size=3)
    lp = FeasibilityLP(gamma=gamma, cons_f=f, cons_b=b,
                       supports=np.ones((n, m), dtype=bool))
    prm = DistMWParams(epsilon=1.0, delta=0.02, alpha=0.4, beta=0.1,
                       n=n, m=m, gamma=gamma)
    res = distmw_solve(lp, prm, NoiseSource(22))
    for i in range(n):
        row = replay_mw_player(lp.cons_f[:, i, :], lp.supports[i], prm,
                               res.transcript)
        assert np.array_equal(row, res.p_bar[i])


def test_distmw_noise_off_is_deterministic_exact_selection():
    lp, _ = single_constraint_lp(gamma=0.2, seed=31, n=3, m=3)
    prm = DistMWParams(epsilon=1.0, delta=0.01, alpha=0.5, beta=0.1,
                       n=3, m=3, gamma=0.2)
    a = distmw_solve(lp, prm, NoiseSource(1, NoiseSource.NOISE_OFF))
    b = distmw_solve(lp, prm, NoiseSource(999, NoiseSource.NOISE_OFF))
    assert np.array_equal(a.p_bar, b.p_bar)
    assert a.transcript == b.transcript

    # reproduce the whole run with exact argmax selection
    p = lp.uniform_start()
    accum = np.zeros_like(p)
    for _ in range(prm.T):
        accum += p
        k = int(np.argmax(lp.margins(p)))
        w = p * np.exp(-prm.eta * lp.cons_f[k])
        p = w / w.sum(axis=1, keepdims=True)
    assert np.allclose(a.p_bar, accum / prm.T, atol=1e-12)


def test_distmw_ledger_composes_within_budget():
    lp, _ = single_constraint_lp(gamma=0.3, seed=41)
    prm = DistMWParams(epsilon=0.7, delta=0.02, alpha=0.3, beta=0.1,
                       n=2, m=2, gamma=0.3)
    res = distmw_solve(lp, prm, NoiseSource(42))
    assert len(res.ledger.entries) == prm.T
    eps_total, delta_total = compose_adaptive(res.ledger, prm.delta)
    assert eps_total <= prm.epsilon + 1e-9
    assert delta_total == pytest.approx(prm.delta)


def test_distmw_shape_mismatch_rejected():
    lp, _ = single_constraint_lp(n=2, m=2)
    prm = DistMWParams(epsilon=1.0, delta=0.01, alpha=0.3, beta=0.1,
                       n=3, m=2, gamma=0.3)
    with pytest.raises(ParameterError):
        distmw_solve(lp, prm, NoiseSource(0))


def test_feasibility_lp_validation():
    good_f = np.zeros((1, 2, 2))
    with pytest.raises(ParameterError):
        FeasibilityLP(gamma=0.1, cons_f=np.full((1, 2, 2), 2.0),
                      cons_b=np.zeros(1), supports=np.ones((2, 2), bool))
    with pytest.raises(DegenerateError):
        FeasibilityLP(gamma=0.1, cons_f=good_f, cons_b=np.zeros(1),
                      supports=np.array([[True, True], [False, False]]))
    with pytest.raises(ParameterError):
        FeasibilityLP(gamma=0.0, cons_f=good_f, cons_b=np.zeros(1),
                      supports=np.ones((2, 2), bool))
    with pytest.raises(ParameterError):
        FeasibilityLP(gamma=0.1, cons_f=np.zeros((0, 2, 2)), cons_b=np.zeros(0),
                      supports=np.ones((2, 2), bool))


# ---------------------------------------------------------------------------
# exact query-side solver
# ---------------------------------------------------------------------------


def test_build_slack_lp_shapes_and_supports():
    g = generate("linear", 51, n=3, m=3, d=2)
    s_hat = np.zeros(2)
    lp = build_slack_lp(g, s_hat, 0.5, xi=0.1, slack=0.05)
    assert lp.n_constraints == 2 * g.d + 1
    assert build_slack_lp(g, s_hat, None, 0.1, 0.05).n_constraints == 2 * g.d

    vals = utility_matrix(g, s_hat)
    expect = vals >= vals.max(axis=1, keepdims=True) - 0.1
    assert np.array_equal(lp.supports, expect)

    free = generate("linear", 52, n=2, m=2, d=1, with_loss=False)
    with pytest.raises(ParameterError):
        build_slack_lp(free, np.zeros(1), 0.5, 0.1, 0.0)


def test_exact_lp_min_witness_feasibility():
    rng = np.random.Generator(np.random.PCG64(61))
    for seed in range(5):
        g = generate("linear", 700 + seed, n=3, m=2, d=1, gamma=0.1)
        p_star = rng.dirichlet(np.ones(g.m), size=g.n)
        s_hat = g.gamma * np.einsum("ikj,ij->k", g.f, p_star)
        y_hat = g.gamma * float(np.einsum("im,im->", g.loss, p_star))
        res = exact_lp_min(g, s_hat, y_hat, xi=2.0, tol=1e-3)
        assert res.value <= 1e-3
        assert res.upper <= res.value + 1e-3 + 1e-9


def test_exact_lp_min_matches_dense_grid_single_player():
    g = generate("linear", 71, n=1, m=2, d=1, gamma=0.2)
    s_hat = np.array([0.07])
    y_hat = 0.1
    tol = 2e-3
    res = exact_lp_min(g, s_hat, y_hat, xi=2.0, tol=tol)

    q = np.linspace(0.0, 1.0, 10001)
    agg = g.gamma * (g.f[0, 0, 0] * q + g.f[0, 0, 1] * (1.0 - q))
    ell = g.gamma * (g.loss[0, 0] * q + g.loss[0, 1] * (1.0 - q))
    vals = np.maximum(np.abs(agg - s_hat[0]), ell - y_hat)
    brute = float(vals.min())
    assert res.value == pytest.approx(brute, abs=tol + 2 * g.gamma * 1e-4)
    assert res.value <= brute + 1e-12


def test_exact_lp_min_monotone_in_y_hat():
    for seed in range(5):
        g = generate("linear", 800 + seed, n=2, m=3, d=1, gamma=0.2)
        s_hat = np.array([0.05])
        tol = 2e-3
        lo = exact_lp_min(g, s_hat, 0.05, xi=2.0, tol=tol).value
        hi = exact_lp_min(g, s_hat, 0.25, xi=2.0, tol=tol).value
        assert hi <= lo + tol
        drop = exact_lp_min(g, s_hat, None, xi=2.0, tol=tol).value
        assert drop <= lo + tol


def test_exact_lp_min_sandwich_against_brute_grid():
    g = generate("linear", 81, n=2, m=3, d=2, gamma=0.25, W=1.0)
    s_hat = np.array([0.1, -0.05])
    tol = 5e-3
    res = exact_lp_min(g, s_hat, 0.2, xi=2.0, tol=tol)

    step = 0.05
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    simplex = np.array([(a, b, 1.0 - a - b) for a in ticks for b in ticks
                        if a + b <= 1.0 + 1e-12])
    best = math.inf
    for pa in simplex:
        for pb in simplex:
            p = np.stack([pa, pb])
            s = g.gamma * np.einsum("ikj,ij->k", g.f, p)
            margin = float(np.max(np.abs(s - s_hat)))
            margin = max(margin, float(np.einsum("im,im->", g.loss, p)) * g.gamma - 0.2)
            best = min(best, margin)
    grid_err = g.gamma * g.n * g.m * step
    assert res.value <= best + 1e-12
    assert res.value >= best - tol - grid_err


def test_exact_lp_min_rejects_bad_tolerance():
    g = generate("linear", 91, n=2, m=2, d=1)
    with pytest.raises(ParameterError):
        exact_lp_min(g, np.zeros(1), None, xi=0.1, tol=0.0)
