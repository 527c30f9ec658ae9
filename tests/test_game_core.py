"""Game semantics: aggregators, best-response sets, regret, serialization.

Random-instance checks compare against the plain-loop oracles in conftest,
never against the vectorized implementations under test.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from privagg.game_core import (
    AggregativeGame,
    LinearUtility,
    ParameterError,
    TableUtility,
    abr_profile,
    abr_set,
    aggregator,
    as_mixed_profile,
    as_pure_profile,
    expected_aggregator,
    game_from_json,
    game_to_json,
    grid_steps,
    load_game,
    regret,
    sample_action,
    sample_profile,
    save_game,
    translate_checks,
    utility_values,
)
from privagg.dp_core import NoiseSource
from privagg.harness import generate
from privagg.market import MarketGame, to_aggregative, trader_utility
from privagg.onedim import make_optin_game
from privagg.presl import sampling_deviation_bound

from conftest import (
    build_quiet,
    naive_aggregator,
    naive_expected_aggregator,
    naive_regret,
    naive_utility,
)


def constant_game(n=3, m=2, d=1, gamma=0.5, c=None):
    """Utilities independent of s; the simplest fully predictable game."""
    if c is None:
        c = np.zeros((n, m))
    w = np.zeros((n, m, d))
    return build_quiet(
        n=n, m=m, d=d, gamma=gamma, W=max(1.0, gamma * n),
        f=np.ones((n, d, m)), utility=LinearUtility(np.asarray(c, float), w),
    )


# ---------------------------------------------------------------------------
# aggregator
# ---------------------------------------------------------------------------


def test_aggregator_constant_influence():
    g = constant_game(n=5, m=2, d=3, gamma=0.1)
    s = aggregator(g, [0, 1, 0, 1, 0])
    assert s.shape == (3,)
    assert np.allclose(s, 0.5, atol=0)


def test_aggregator_zero_influence():
    g = constant_game(n=4)
    g = build_quiet(
        n=4, m=2, d=1, gamma=0.5, W=2.0, f=np.zeros((4, 1, 2)), utility=g.utility
    )
    assert np.all(aggregator(g, [1, 0, 1, 0]) == 0.0)


def test_aggregator_matches_loop_oracle():
    rng = np.random.Generator(np.random.PCG64(11))
    for seed in range(20):
        g = generate("linear", seed, n=3, m=4, d=2)
        x = rng.integers(0, g.m, size=g.n)
        assert np.allclose(aggregator(g, x), naive_aggregator(g, x), atol=1e-14)


def test_expected_aggregator_point_mass_and_cancellation():
    g = generate("linear", 5, n=4, m=3, d=2)
    x = np.array([2, 0, 1, 1])
    p = np.zeros((4, 3))
    p[np.arange(4), x] = 1.0
    assert np.allclose(expected_aggregator(g, p), aggregator(g, x), atol=1e-15)

    # f[i][k][j] = (-1)^j with even m cancels under the uniform mixture
    n, m, d = 3, 4, 2
    f = np.tile(np.array([(-1.0) ** j for j in range(m)]), (n, d, 1))
    g2 = build_quiet(
        n=n, m=m, d=d, gamma=0.2, W=1.0, f=f,
        utility=LinearUtility(np.zeros((n, m)), np.zeros((n, m, d))),
    )
    uniform = np.full((n, m), 1.0 / m)
    assert np.allclose(expected_aggregator(g2, uniform), 0.0, atol=1e-15)


def test_expected_aggregator_matches_loop_oracle():
    rng = np.random.Generator(np.random.PCG64(13))
    for seed in range(10):
        g = generate("linear", 100 + seed, n=4, m=3, d=2)
        p = rng.dirichlet(np.ones(g.m), size=g.n)
        assert np.allclose(
            expected_aggregator(g, p), naive_expected_aggregator(g, p), atol=1e-14
        )


def test_expected_aggregator_within_monte_carlo_band():
    g = generate("linear", 77, n=6, m=3, d=2)
    rng = np.random.Generator(np.random.PCG64(78))
    p = rng.dirichlet(np.ones(g.m), size=g.n)
    reps = 100000
    # vectorized sampling: one categorical draw per (player, repetition)
    cum = np.cumsum(p, axis=1)
    u = rng.random(size=(reps, g.n))
    x = (u[:, :, None] > cum[None, :, :]).sum(axis=2)
    per_rep = np.empty((reps, g.d))
    for k in range(g.d):
        per_rep[:, k] = g.gamma * np.take_along_axis(
            g.f[:, k, :], x.T, axis=1
        ).sum(axis=0)
    mean = per_rep.mean(axis=0)
    se = per_rep.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - expected_aggregator(g, p)) <= 3.0 * se + 1e-12)


def test_expected_aggregator_linear_in_each_row():
    rng = np.random.Generator(np.random.PCG64(21))
    g = generate("linear", 9, n=5, m=3, d=2)
    for _ in range(100):
        p = rng.dirichlet(np.ones(g.m), size=g.n)
        q = p.copy()
        i = int(rng.integers(g.n))
        q[i] = rng.dirichlet(np.ones(g.m))
        t = float(rng.random())
        mix = p.copy()
        mix[i] = t * p[i] + (1.0 - t) * q[i]
        lhs = expected_aggregator(g, mix)
        rhs = t * expected_aggregator(g, p) + (1.0 - t) * expected_aggregator(g, q)
        assert np.allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "W, alpha, K",
    [(1.0, 0.1, 10), (0.3, 0.1, 3), (0.27, 0.03, 9), (2.1, 0.3, 7), (1.05, 0.1, 11),
     (1.0, 1.0, 1), (0.5, 2.0, 1)],
)
def test_grid_steps_snaps_float_multiples(W, alpha, K):
    # 0.27 / 0.03 is 9.000000000000002 in floats: a plain ceil would give 10
    assert grid_steps(W, alpha) == K
    assert (K - 1) * alpha < W <= K * alpha + 1e-12


def test_abr_set_constant_and_unique():
    g = constant_game(n=2, m=4)
    assert list(abr_set(g, 0, np.zeros(1), 0.0)) == [0, 1, 2, 3]

    g2 = constant_game(n=2, m=3, c=[[0.1, 0.7, 0.3]] * 2)
    assert list(abr_set(g2, 0, np.zeros(1), 0.0)) == [1]


def test_abr_set_gap_point_three():
    # constant-in-s table with a 0.3 utility gap between the two actions
    grid = np.array([-1.0, 0.0, 1.0])
    values = np.empty((1, 2, 3))
    values[0, 0] = 0.5
    values[0, 1] = 0.2
    g = build_quiet(
        n=1, m=2, d=1, gamma=0.5, W=1.0, f=np.ones((1, 1, 2)),
        utility=TableUtility(grid, values),
    )
    s = np.array([0.25])
    assert list(abr_set(g, 0, s, 0.2)) == [0]
    assert list(abr_set(g, 0, s, 0.4)) == [0, 1]


def test_abr_profile_tie_break_and_slopes():
    g = constant_game(n=3, m=3)
    assert np.all(abr_profile(g, np.zeros(1)) == 0)

    rng = np.random.Generator(np.random.PCG64(31))
    for seed in range(10):
        game = generate("linear", 200 + seed, n=4, m=3, d=2)
        s = rng.uniform(-game.W, game.W, size=game.d)
        x = abr_profile(game, s)
        for i in range(game.n):
            vals = np.array([naive_utility(game, i, a, s) for a in range(game.m)])
            assert vals[x[i]] == pytest.approx(vals.max(), abs=1e-12)
            # lowest index among maximizers
            assert x[i] == int(np.argmax(vals > vals.max() - 1e-15))


def test_abr_profile_highest_tie_break():
    g = constant_game(n=2, m=3)
    assert np.all(abr_profile(g, np.zeros(1), tie_break="highest") == 2)
    with pytest.raises(ParameterError):
        abr_profile(g, np.zeros(1), tie_break="median")


def test_abr_profile_market_matches_enumeration():
    mkt = MarketGame(n=5, d=2, lam=8.0,
                     valuations=np.linspace(-1.5, 1.5, 5 * 9).reshape(5, 9))
    g = to_aggregative(mkt)
    s = np.zeros(2)
    x = abr_profile(g, s)
    for i in range(mkt.n):
        direct = [trader_utility(mkt, i, a, mkt.lam * s) for a in range(g.m)]
        assert direct[x[i]] == pytest.approx(max(direct), abs=1e-12)


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------


def test_regret_single_player_gap():
    g = constant_game(n=1, m=3, c=[[0.2, 0.9, 0.5]])
    rep = regret(g, [2])
    assert rep.max_regret == pytest.approx(0.4, abs=1e-12)
    assert rep.is_eta_nash(0.4) and not rep.is_eta_nash(0.39)


def test_regret_matches_loop_oracle():
    rng = np.random.Generator(np.random.PCG64(41))
    for seed in range(15):
        g = generate("linear", 300 + seed, n=5, m=3, d=2)
        x = rng.integers(0, g.m, size=g.n)
        mine = regret(g, x)
        theirs = naive_regret(g, x)
        assert np.allclose(mine.per_player, theirs, atol=1e-12)
        assert mine.max_regret == pytest.approx(float(np.max(theirs)), abs=1e-12)


def test_regret_at_exact_fixed_point_is_within_gamma_eff():
    # V(2/3) = 2/3 exactly for these thresholds, so the best-response
    # profile at that aggregator value is a gamma_eff-Nash
    g = make_optin_game(3, [0.2, 0.5, 0.8]).base
    x = abr_profile(g, np.array([2.0 / 3.0]))
    assert aggregator(g, x)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert regret(g, x).max_regret <= g.gamma_eff + 1e-9


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_profile_point_mass_and_determinism():
    g = generate("linear", 51, n=6, m=3, d=1)
    x = np.array([1, 2, 0, 1, 2, 2])
    p = np.zeros((6, 3))
    p[np.arange(6), x] = 1.0
    out = sample_profile(g, p, NoiseSource(0))
    assert np.array_equal(out, x)

    q = np.full((6, 3), 1.0 / 3.0)
    a = sample_profile(g, q, NoiseSource(123))
    b = sample_profile(g, q, NoiseSource(123))
    c = sample_profile(g, q, NoiseSource(124))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_action_is_the_per_player_draw():
    assert sample_action(np.array([0.0, 1.0, 0.0]), NoiseSource(5)) == 1
    # roundoff in the cumulative sum never pushes a draw past the last action
    assert sample_action(np.array([0.3, 0.3, 0.4 - 1e-15]), NoiseSource(6)) <= 2
    g = generate("linear", 624, n=6, m=3, d=1)
    rng = np.random.Generator(np.random.PCG64(625))
    p = rng.dirichlet(np.ones(g.m), size=g.n)
    src = NoiseSource(626)
    x = sample_profile(g, p, src)
    assert x.tolist() == [sample_action(p[i], src.child(i)) for i in range(g.n)]


def test_sample_profile_concentration():
    n, d = 50, 2
    beta = 0.05
    t = sampling_deviation_bound(n, 0.02, 2 * d, beta)
    assert t == pytest.approx(0.2093329079402921, rel=1e-15)

    rng = np.random.Generator(np.random.PCG64(61))
    f = rng.uniform(0.0, 1.0, size=(n, d, 2))  # spread <= 1 per player
    g = build_quiet(
        n=n, m=2, d=d, gamma=0.02, W=1.0, f=f,
        utility=LinearUtility(np.zeros((n, 2)), np.zeros((n, 2, d))),
    )
    p = rng.dirichlet(np.ones(2), size=n)
    target = expected_aggregator(g, p)
    root = NoiseSource(62)
    exceed = 0
    for trial in range(1000):
        x = sample_profile(g, p, root.child(trial))
        if np.max(np.abs(aggregator(g, x) - target)) > t:
            exceed += 1
    assert exceed <= 70


# ---------------------------------------------------------------------------
# translation between regret notions
# ---------------------------------------------------------------------------


def test_translation_lemmas_hold_on_random_instances():
    rng = np.random.Generator(np.random.PCG64(71))
    for seed in range(200):
        g = generate("linear", 400 + seed, n=4, m=3, d=2)
        x = rng.integers(0, g.m, size=g.n)
        rep = translate_checks(g, x, eta=0.1)
        assert rep.br_to_abr_violation <= 1e-9
        assert rep.abr_to_br_violation <= 1e-9
        assert regret(g, x).max_regret <= rep.nash_from_abr_bound + 1e-9


def test_abr_shift_lemma_on_random_pairs():
    rng = np.random.Generator(np.random.PCG64(81))
    for seed in range(50):
        g = generate("linear", 500 + seed, n=3, m=3, d=2)
        s = rng.uniform(-g.W, g.W, size=g.d)
        s2 = rng.uniform(-g.W, g.W, size=g.d)
        shift = float(np.max(np.abs(s - s2)))
        for i in range(g.n):
            a = int(abr_set(g, i, s, 0.0)[0])
            vals = utility_values(g, i, s2)
            assert vals.max() - vals[a] <= 2.0 * shift + 1e-9


def test_influence_bound_invariant():
    rng = np.random.Generator(np.random.PCG64(91))
    for trial in range(1000):
        g = generate("linear", 600 + trial % 25, n=4, m=3, d=2)
        x = rng.integers(0, g.m, size=g.n)
        i = int(rng.integers(g.n))
        a, b = rng.integers(0, g.m, size=2)
        xa, xb = x.copy(), x.copy()
        xa[i], xb[i] = a, b
        gap = np.max(np.abs(aggregator(g, xa) - aggregator(g, xb)))
        assert gap <= g.gamma_eff + 1e-12


# ---------------------------------------------------------------------------
# profiles and validation
# ---------------------------------------------------------------------------


def test_profile_coercion_errors():
    g = constant_game(n=3, m=2)
    with pytest.raises(ParameterError):
        as_pure_profile(g, [0, 1])  # wrong length
    with pytest.raises(ParameterError):
        as_pure_profile(g, [0, 1, 2])  # action out of range
    with pytest.raises(ParameterError):
        as_mixed_profile(g, np.full((3, 2), 0.6))  # rows sum to 1.2
    with pytest.raises(ParameterError):
        as_mixed_profile(g, np.array([[1.1, -0.1]] * 3))  # negative mass


def test_construction_validation():
    util = LinearUtility(np.zeros((2, 2)), np.zeros((2, 2, 1)))
    with pytest.raises(ParameterError):
        build_quiet(n=2, m=2, d=1, gamma=0.5, W=1.0,
                    f=np.full((2, 1, 2), 1.5), utility=util)
    with pytest.raises(ParameterError):
        build_quiet(n=2, m=2, d=1, gamma=0.6, W=1.0,
                    f=np.ones((2, 1, 2)), utility=util)  # reach 1.2 > W
    with pytest.raises(ParameterError):
        build_quiet(n=2, m=2, d=1, gamma=0.5, W=1.0, f=np.ones((2, 1, 2)),
                    utility=util, loss=np.full((2, 2), 1.5))
    with pytest.raises(ParameterError):
        build_quiet(n=2, m=2, d=1, gamma=-0.5, W=1.0,
                    f=np.ones((2, 1, 2)), utility=util)
    with pytest.raises(ParameterError):
        build_quiet(n=2, m=2, d=1, gamma=0.5, W=1.0,
                    f=np.ones((2, 1, 2)), utility=None)


def test_utility_screens_reject_bad_evaluators():
    # range violation
    with pytest.raises(ParameterError):
        build_quiet(n=1, m=2, d=1, gamma=0.5, W=1.0, f=np.ones((1, 1, 2)),
                    utility=LinearUtility(np.array([[2.0, 0.0]]),
                                          np.zeros((1, 2, 1))))
    # Lipschitz violation via a steep table
    grid = np.array([-1.0, 0.0, 1.0])
    values = np.zeros((1, 2, 3))
    values[0, 0] = [0.0, 1.0, 0.0]  # slope 1 is fine; make it steeper
    values[0, 0] = [-1.0, 1.0, -1.0]
    with pytest.raises(ParameterError):
        build_quiet(n=1, m=2, d=1, gamma=0.5, W=1.0, f=np.ones((1, 1, 2)),
                    utility=TableUtility(grid, values))


def test_construction_rejects_incomplete_evaluators():
    full = LinearUtility(np.zeros((2, 2)), np.zeros((2, 2, 1)))
    methods = ("value_matrix", "values_for_player")
    for dropped in methods:
        partial = SimpleNamespace(
            **{name: getattr(full, name) for name in methods if name != dropped}
        )
        with pytest.raises(ParameterError, match=dropped):
            build_quiet(n=2, m=2, d=1, gamma=0.5, W=1.0,
                        f=np.ones((2, 1, 2)), utility=partial)
    complete = SimpleNamespace(**{name: getattr(full, name) for name in methods})
    g = build_quiet(n=2, m=2, d=1, gamma=0.5, W=1.0, f=np.ones((2, 1, 2)), utility=complete)
    assert regret(g, [0, 1]).max_regret == 0.0


def test_gamma_regime_warnings():
    util = LinearUtility(np.zeros((4, 2)), np.zeros((4, 2, 1)))
    with pytest.warns(UserWarning, match="^gamma"):
        AggregativeGame(n=4, m=2, d=1, gamma=0.1, W=1.0,
                        f=np.ones((4, 1, 2)), utility=util)
    util1 = LinearUtility(np.zeros((1, 2)), np.zeros((1, 2, 1)))
    with pytest.warns(UserWarning, match="^gamma"):
        AggregativeGame(n=1, m=2, d=1, gamma=1.5, W=2.0,
                        f=np.ones((1, 1, 2)), utility=util1)


def test_gamma_eff_uses_facet_spread():
    f = np.zeros((2, 1, 2))
    f[:, 0, 0] = 1.0
    f[:, 0, 1] = -1.0
    g = build_quiet(n=2, m=2, d=1, gamma=0.3, W=1.0, f=f,
                    utility=LinearUtility(np.zeros((2, 2)), np.zeros((2, 2, 1))))
    assert g.gamma_eff == pytest.approx(0.6)
    g2 = constant_game(n=2, m=2, gamma=0.3)  # constant facets, zero spread
    assert g2.gamma_eff == 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", [
    ("linear", dict(n=4, m=3, d=2)),
    ("anonymous", dict(n=3, m=2)),
    ("threshold", dict(n=5)),
    ("market", dict(n=4, d=2, lam=8.0)),
])
def test_json_round_trip_all_kinds(kind, params):
    g = generate(kind, 900, **params)
    if isinstance(g, MarketGame):
        g = to_aggregative(g)
    if hasattr(g, "base"):
        g = g.base
    text = game_to_json(g)
    back = game_from_json(text)
    assert game_to_json(back) == text
    assert np.array_equal(back.f, g.f)
    x = np.zeros(g.n, dtype=int)
    assert np.allclose(aggregator(back, x), aggregator(g, x), atol=0)
    s = np.zeros(g.d)
    assert np.allclose(back.utility.value_matrix(s), g.utility.value_matrix(s), atol=0)


def test_save_and_load_round_trip(tmp_path):
    g = generate("linear", 901, n=3, m=2, d=1)
    path = tmp_path / "game.json"
    save_game(g, path)
    back = load_game(path)
    assert game_to_json(back) == game_to_json(g)
    assert path.read_text().endswith("\n")


def test_json_error_paths():
    with pytest.raises(ParameterError):
        game_from_json("{not json")
    with pytest.raises(ParameterError):
        game_from_json('{"n": 1}')
    g = generate("linear", 902, n=2, m=2, d=1)
    import json

    doc = json.loads(game_to_json(g))
    doc["utility"]["kind"] = "mystery"
    with pytest.raises(ParameterError):
        game_from_json(json.dumps(doc))
