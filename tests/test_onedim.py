"""Scalar-aggregator solvers: fixed-point search, walks, quality selection.

The crowd-averse family (see conftest) is the workhorse: identical players
who prefer joining only when few others do, so the summary map V jumps from
"everyone in" to "everyone out" across one grid step. With unit facet spread
the walk always lands inside the acceptance band; with spread 2 and a small
alpha it provably cannot, which pins down the abort branches.
"""

import math

import numpy as np
import pytest

from privagg.dp_core import NoiseSource, ParameterError
from privagg.game_core import LinearUtility, abr_profile, abr_set, regret
from privagg.harness import brute_force_equilibria, generate
from privagg.onedim import (
    PSummResult,
    QualitySpec,
    QuasiAggregativeGame,
    SelectionParams,
    V,
    make_optin_game,
    psummnash,
    psummnash_accuracy_floor,
    replay_psummnash_player,
    replay_select_player,
    s_extremes,
    select_equilibrium,
    selection_accuracy_floor,
    smooth_walk,
    validate_quasi,
)

from conftest import (
    JUMP_ALPHA,
    JUMP_EPSILON,
    build_quiet,
    crowd_averse_game,
    jump_game,
    naive_utility,
    per_player_extremes,
)

OFF = NoiseSource.NOISE_OFF


def optin(n, thresholds, gamma=None):
    return make_optin_game(n, thresholds, gamma=gamma)


# ---------------------------------------------------------------------------
# the summary map V
# ---------------------------------------------------------------------------


def test_v_constant_utilities():
    n = 4
    g = build_quiet(
        n=n, m=2, d=1, gamma=0.25, W=1.0, f=np.ones((n, 1, 2)),
        utility=LinearUtility(np.zeros((n, 2)), np.zeros((n, 2, 1))),
    )
    q = QuasiAggregativeGame(base=g)
    for s in (-1.0, 0.0, 0.7):
        assert V(q, s) == pytest.approx(1.0)  # everyone ties, plays action 0


def test_v_counts_crossed_thresholds():
    q = optin(5, [0.1, 0.3, 0.3, 0.7, 1.0])
    for s in np.linspace(0.0, 1.0, 21):
        expect = sum(t <= s for t in [0.1, 0.3, 0.3, 0.7, 1.0]) / 5.0
        assert V(q, float(s)) == pytest.approx(expect, abs=1e-12)
    grid = [V(q, s) for s in np.linspace(-1.0, 1.0, 81)]
    assert all(a <= b + 1e-12 for a, b in zip(grid, grid[1:]))


def test_v_matches_componentwise_composition():
    rng = np.random.Generator(np.random.PCG64(5))
    c = rng.uniform(-0.4, 0.4, size=(2, 3))
    w = rng.uniform(-0.3, 0.3, size=(2, 3, 1))
    f = rng.uniform(-1.0, 1.0, size=(2, 1, 3))
    g = build_quiet(n=2, m=3, d=1, gamma=0.2, W=0.6, f=f,
                    utility=LinearUtility(c, w))
    q = QuasiAggregativeGame(base=g)
    for s in (-0.5, 0.0, 0.4):
        best = [
            int(np.argmax([naive_utility(g, i, a, np.array([s]))
                           for a in range(3)]))
            for i in range(2)
        ]
        assert V(q, s) == pytest.approx(
            0.2 * (f[0, 0, best[0]] + f[1, 0, best[1]]), abs=1e-12
        )


# ---------------------------------------------------------------------------
# quasi-game declaration screens
# ---------------------------------------------------------------------------


def test_quasi_game_requires_one_dimension():
    rng = np.random.Generator(np.random.PCG64(1))
    g = build_quiet(
        n=2, m=2, d=2, gamma=0.2, W=0.4,
        f=rng.uniform(-1, 1, (2, 2, 2)),
        utility=LinearUtility(np.zeros((2, 2)), np.zeros((2, 2, 2))),
    )
    with pytest.raises(ParameterError):
        QuasiAggregativeGame(base=g)


def test_action_order_validation():
    base = optin(3, [0.2, 0.5, 0.8]).base
    assert np.array_equal(optin(3, [0.2, 0.5, 0.8]).action_order,
                          np.tile([0, 1], (3, 1)))
    with pytest.raises(ParameterError):
        QuasiAggregativeGame(base=base, action_order=np.zeros((3, 2), dtype=int))
    with pytest.raises(ParameterError):
        QuasiAggregativeGame(base=base, action_order=np.tile([0, 1], (2, 1)))


def test_validate_quasi_screens():
    q = optin(6, np.linspace(0.1, 0.9, 6))
    validate_quasi(q)  # linear form, nothing to sample

    base = q.base
    honest = QuasiAggregativeGame(
        base=base,
        aggregator_fn=lambda x: base.gamma * float(base.f[np.arange(6), 0, x].sum()),
    )
    validate_quasi(honest, trials=200)

    inflated = QuasiAggregativeGame(
        base=base,
        aggregator_fn=lambda x: 3.0 * base.gamma * float(
            base.f[np.arange(6), 0, x].sum()
        ),
    )
    with pytest.raises(ParameterError, match="gamma"):
        validate_quasi(inflated, trials=200)

    backwards = QuasiAggregativeGame(
        base=base,
        aggregator_fn=lambda x: base.gamma * float(base.f[np.arange(6), 0, x].sum()),
        action_order=np.tile([1, 0], (6, 1)),
    )
    with pytest.raises(ParameterError, match="order"):
        validate_quasi(backwards, trials=200)


# ---------------------------------------------------------------------------
# smooth walk
# ---------------------------------------------------------------------------


def test_smooth_walk_shape_and_hand_instance():
    q = optin(3, [0.2, 0.5, 0.8])
    walk = smooth_walk(q, [1, 1, 1], [0, 0, 0])
    assert np.array_equal(
        walk, [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]]
    )
    same = smooth_walk(q, [1, 0, 1], [1, 0, 1])
    assert np.array_equal(same, np.tile([1, 0, 1], (4, 1)))
    with pytest.raises(ParameterError):
        smooth_walk(q, [1, 1], [0, 0, 0])


def test_smooth_walk_adjacent_gap_within_spread():
    rng = np.random.Generator(np.random.PCG64(9))
    q = optin(8, rng.uniform(0, 1, 8))
    for _ in range(20):
        hi = rng.integers(0, 2, size=8)
        lo = rng.integers(0, 2, size=8)
        walk = smooth_walk(q, hi, lo)
        s = [q.s_of(w) for w in walk]
        assert np.max(np.abs(np.diff(s))) <= q.base.gamma_eff + 1e-12
        for a, b in zip(walk, walk[1:]):
            assert int((a != b).sum()) <= 1


# ---------------------------------------------------------------------------
# psummnash
# ---------------------------------------------------------------------------


def test_accuracy_floor_formula():
    q = optin(2000, np.linspace(0, 1, 2000), gamma=1.0 / 2000)
    floor = psummnash_accuracy_floor(q, 100.0, 0.05)
    assert floor == pytest.approx(0.006540770691442037, rel=1e-15)
    assert floor == pytest.approx(
        100.0 * (1 / 2000) * (math.log(4000) + math.log(120)) / 100.0, rel=1e-15
    )


def test_psummnash_rejects_alpha_below_floor():
    q = optin(20, np.linspace(0, 1, 20))
    with pytest.raises(ParameterError):
        psummnash(q, epsilon=1.0, alpha=0.05, beta=0.05, src=NoiseSource(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_budgets_are_rejected(bad):
    # nan and inf pass every "> 0" test; unchecked, they ran without noise
    q = optin(20, np.linspace(0, 1, 20))
    with pytest.raises(ParameterError, match="finite"):
        psummnash(q, epsilon=bad, alpha=0.05, beta=0.05, src=NoiseSource(0))
    with pytest.raises(ParameterError, match="finite"):
        psummnash(q, epsilon=2000.0, alpha=bad, beta=0.05, src=NoiseSource(0))
    quality = QualitySpec.linear(1.0)
    for key in ("epsilon", "alpha", "zeta"):
        kwargs = dict(zeta=0.4, epsilon=100.0, alpha=0.1, beta=0.05)
        kwargs[key] = bad
        with pytest.raises(ParameterError, match="finite"):
            SelectionParams(quality=quality, gamma=0.05, W=1.0, n=20, **kwargs)


def test_monotone_games_finish_in_stage_one():
    rng = np.random.Generator(np.random.PCG64(17))
    for trial in range(10):
        q = optin(30, rng.uniform(0, 1, 30))
        res = psummnash(q, epsilon=2000.0, alpha=0.05, beta=0.05,
                        src=NoiseSource(trial, OFF))
        assert not res.aborted
        assert res.stage == 1
        k = res.k_hit
        assert abs(V(q, k * 0.05) - k * 0.05) <= 4 * 0.05 + 1e-12
        assert regret(q.base, res.profile).max_regret <= res.approx_bound(
            q.base.gamma_eff
        )


def test_crowd_averse_run_walks_the_jump():
    # V is 1 up to s = 0.5 and 0 after, so stage 1 misses everywhere, the
    # crossing scan fires at l = 11 (the first grid point past the jump),
    # and the walk stops at the 16th composite: S = (40 - 16) / 40 = 0.6
    g = crowd_averse_game(40, 0.5, 0.025)
    q = QuasiAggregativeGame(base=g)
    res = psummnash(q, epsilon=500.0, alpha=0.05, beta=0.05, src=NoiseSource(0, OFF))
    assert not res.aborted
    assert res.stage == 3
    assert res.bracket == 11
    assert res.walk_j == 16
    assert res.queries == (40, 31, 17)
    assert q.s_of(res.profile) == pytest.approx(0.6, abs=1e-12)
    rep = regret(g, res.profile)
    assert rep.max_regret == pytest.approx(0.0875, abs=1e-12)
    assert rep.max_regret <= res.approx_bound(g.gamma_eff)

    # the crossing query saturates both clamps exactly at the bracket
    alpha = 0.05
    v_lo = V(q, (res.bracket - 1) * alpha)
    v_hi = V(q, res.bracket * alpha)
    gap_hi = max(min(0.0, res.bracket * alpha - v_lo), -2 * alpha)
    gap_lo = max(min(0.0, v_hi - res.bracket * alpha), -3 * alpha)
    assert gap_hi + gap_lo == pytest.approx(-5 * alpha)
    assert v_lo > res.bracket * alpha > v_hi

    # pigeonhole: some composite lands within half the per-step spread
    walk = smooth_walk(q, abr_profile(g, [res.bracket * alpha]),
                       abr_profile(g, [(res.bracket - 1) * alpha]))
    gaps = [abs(q.s_of(w) - res.bracket * alpha) for w in walk]
    assert min(gaps) <= g.gamma_eff / 2 + 1e-12


def test_spread_two_walk_aborts():
    # facet spread 2 makes walk steps twice the acceptance band, and this
    # threshold parks the crossing target between two reachable values
    q = QuasiAggregativeGame(base=jump_game())
    res = psummnash(q, epsilon=JUMP_EPSILON, alpha=JUMP_ALPHA, beta=0.05,
                    src=NoiseSource(0, OFF))
    assert res.aborted
    assert res.stage is None
    assert res.bracket == 3
    assert res.queries == (68, 37, 11)
    assert res.profile is None


def test_psummnash_noise_off_deterministic_and_ledger():
    q = optin(25, np.linspace(0.05, 0.95, 25))
    a = psummnash(q, 2000.0, 0.05, 0.05, NoiseSource(1, OFF))
    b = psummnash(q, 2000.0, 0.05, 0.05, NoiseSource(2, OFF))
    assert np.array_equal(a.profile, b.profile)
    assert (a.stage, a.k_hit) == (b.stage, b.k_hit)
    labels = [e[0] for e in a.ledger.entries]
    assert labels == ["grid-fixed-point"]
    assert a.ledger.entries[0][1] == pytest.approx(2000.0 / 3.0)

    g = crowd_averse_game(40, 0.5, 0.025)
    full = psummnash(QuasiAggregativeGame(base=g), 500.0, 0.05, 0.05,
                     NoiseSource(0, OFF))
    assert [e[0] for e in full.ledger.entries] == [
        "grid-fixed-point", "crossing-scan", "walk-scan",
    ]
    assert full.ledger.total_simple()[0] == pytest.approx(500.0)


def test_psummnash_replay_both_stages():
    q1 = optin(25, np.linspace(0.05, 0.95, 25))
    r1 = psummnash(q1, 2000.0, 0.05, 0.05, NoiseSource(7))
    assert r1.stage == 1
    for i in range(q1.n):
        assert replay_psummnash_player(q1, i, r1) == r1.profile[i]

    g = crowd_averse_game(40, 0.5, 0.025)
    q3 = QuasiAggregativeGame(base=g)
    r3 = psummnash(q3, 500.0, 0.05, 0.05, NoiseSource(8))
    assert r3.stage == 3
    for i in range(q3.n):
        assert replay_psummnash_player(q3, i, r3) == r3.profile[i]

    dead = PSummResult(aborted=True, stage=None, alpha=0.05, epsilon=1.0,
                       beta=0.05, ledger=None)
    with pytest.raises(ParameterError):
        replay_psummnash_player(q1, 0, dead)


# ---------------------------------------------------------------------------
# quality specifications and selection parameters
# ---------------------------------------------------------------------------


def test_quality_spec_constructors():
    peak = QualitySpec.peak(0.3, lam=2.0)
    assert peak.fn(0.3) == 0.0
    assert peak.fn(0.5) == pytest.approx(-0.4)
    lin = QualitySpec.linear(-0.5)
    assert lin.lam == 0.5
    assert lin.fn(0.4) == pytest.approx(-0.2)
    assert QualitySpec.from_json({"kind": "peak", "target": 0.1}).fn(0.1) == 0.0
    assert QualitySpec.from_json({"kind": "linear", "slope": 2.0}).fn(1.0) == 2.0
    with pytest.raises(ParameterError):
        QualitySpec.from_json({"kind": "cubic"})
    with pytest.raises(ParameterError):
        QualitySpec(fn=lambda s: s, lam=-1.0)


def test_selection_params_grid_order():
    prm = SelectionParams(zeta=0.4, epsilon=100.0, alpha=0.1, beta=0.05,
                          quality=QualitySpec.peak(0.3), gamma=0.05, W=1.0, n=20)
    grid = prm.grid
    assert sorted(grid) == pytest.approx(list(np.arange(-10, 10) * 0.1))
    assert grid[0] == pytest.approx(0.3)
    # ties in score break toward the smaller aggregator value
    assert grid[1] == pytest.approx(0.2)
    assert grid[2] == pytest.approx(0.4)
    scores = [prm.quality.fn(float(s)) for s in grid]
    assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))
    assert prm.xi == pytest.approx(2 * 0.1 + 0.05 + 0.4)
    assert prm.approx_bound == pytest.approx(10 * 0.1 + 3 * 0.05 + 0.4)
    assert prm.quality_penalty() == pytest.approx(5 * 0.1 * 1.0)


def test_selection_params_validation():
    quality = QualitySpec.linear(1.0)
    with pytest.raises(ParameterError):
        SelectionParams(zeta=0.1, epsilon=100.0, alpha=0.1, beta=0.05,
                        quality=quality, gamma=0.05, W=1.0, n=20)
    with pytest.raises(ParameterError):
        SelectionParams(zeta=0.4, epsilon=0.0, alpha=0.1, beta=0.05,
                        quality=quality, gamma=0.05, W=1.0, n=20)
    # declared Lipschitz constant must cover the real grid slope
    lying = QualitySpec(fn=lambda s: 10.0 * s, lam=0.5)
    with pytest.raises(ParameterError, match="Lipschitz"):
        SelectionParams(zeta=0.4, epsilon=100.0, alpha=0.1, beta=0.05,
                        quality=lying, gamma=0.05, W=1.0, n=20)

    q = optin(2000, np.linspace(0, 1, 2000), gamma=1.0 / 2000)
    floor = selection_accuracy_floor(q, 100.0, 0.05)
    assert floor == pytest.approx(0.006684611727667928, rel=1e-15)
    with pytest.raises(ParameterError):
        SelectionParams.for_game(q, zeta=4.0 / 2000, epsilon=100.0,
                                 alpha=floor / 2, beta=0.05, quality=quality)


# ---------------------------------------------------------------------------
# extremes of the best-response region
# ---------------------------------------------------------------------------


def test_s_extremes_threshold_example():
    q = optin(3, [0.2, 0.5, 0.8])
    e = s_extremes(q, 0.5, 0.2)
    # player 1 ties exactly at her threshold, so both actions qualify
    assert np.array_equal(e.x_max, [0, 0, 1])
    assert np.array_equal(e.x_min, [0, 1, 1])
    assert e.s_max == pytest.approx(2.0 / 3.0)
    assert e.s_min == pytest.approx(1.0 / 3.0)

    lone = s_extremes(q, 0.3, 0.0)
    assert lone.s_min == lone.s_max
    assert np.array_equal(lone.x_min, lone.x_max)

    wide = s_extremes(q, 0.5, 2.0)
    assert wide.s_max == pytest.approx(1.0)
    assert wide.s_min == pytest.approx(0.0)


def extremes_cases():
    """Threshold and linear scalar games, m = 2-4, default and shuffled orders."""
    rng = np.random.Generator(np.random.PCG64(640))
    for seed in range(3):
        yield optin(12, rng.uniform(0, 1, 12))
        for m in (2, 3, 4):
            base = generate("linear", 641 + 10 * seed + m, n=10, m=m, d=1)
            yield QuasiAggregativeGame(base=base)
            order = np.argsort(rng.uniform(size=(base.n, m)), axis=1)
            yield QuasiAggregativeGame(base=base, action_order=order)


def test_s_extremes_matches_per_player_reference():
    for q in extremes_cases():
        for s in np.linspace(-q.W, q.W, 7):
            for xi in (0.0, 0.01, 0.2):
                e = s_extremes(q, float(s), xi)
                x_min, x_max = per_player_extremes(q, s, xi)
                assert np.array_equal(e.x_min, x_min)
                assert np.array_equal(e.x_max, x_max)
                assert e.x_min.dtype == e.x_max.dtype == np.int64
                assert e.s_min == q.s_of(x_min) and e.s_max == q.s_of(x_max)


def test_s_extremes_ties_and_negative_xi():
    # player 1 sits exactly at their threshold: both actions tie at xi = 0
    q = optin(3, [0.2, 0.5, 0.8])
    e = s_extremes(q, 0.5, 0.0)
    assert np.array_equal(e.x_max, [0, 0, 1])
    assert np.array_equal(e.x_min, [0, 1, 1])
    # s-independent utilities tie all three actions; the declared order
    # alone decides the first (x_max) and the last (x_min)
    g = build_quiet(n=2, m=3, d=1, gamma=0.2, W=1.0, f=np.ones((2, 1, 3)),
                    utility=LinearUtility(np.zeros((2, 3)), np.zeros((2, 3, 1))))
    order = np.array([[2, 0, 1], [1, 2, 0]])
    e = s_extremes(QuasiAggregativeGame(base=g, action_order=order), 0.0, 0.0)
    assert e.x_max.tolist() == [2, 1] and e.x_min.tolist() == [1, 0]
    with pytest.raises(ParameterError):
        s_extremes(q, 0.5, -1e-9)


def test_s_extremes_bracket_every_supported_profile():
    import itertools

    rng = np.random.Generator(np.random.PCG64(23))
    c = rng.uniform(-0.4, 0.4, size=(5, 3))
    w = rng.uniform(-0.2, 0.2, size=(5, 3, 1))
    f = rng.uniform(-1.0, 1.0, size=(5, 1, 3))
    g = build_quiet(n=5, m=3, d=1, gamma=0.15, W=0.75, f=f,
                    utility=LinearUtility(c, w))
    q = QuasiAggregativeGame(base=g)
    for s in (-0.3, 0.0, 0.4):
        e = s_extremes(q, s, 0.3)
        allowed = [abr_set(g, i, np.array([s]), 0.3) for i in range(5)]
        for combo in itertools.product(*[a.tolist() for a in allowed]):
            val = q.s_of(np.array(combo))
            assert e.s_min - 1e-12 <= val <= e.s_max + 1e-12


# ---------------------------------------------------------------------------
# quality-ordered selection
# ---------------------------------------------------------------------------


def scan_best_selectable(q, prm):
    """Highest-quality grid point any branch could certify, by direct scan."""
    best_rank = None
    for idx, s in enumerate(prm.grid):
        e = s_extremes(q, float(s), prm.xi)
        hit_a = abs(e.s_max - s) <= 3 * prm.alpha
        hit_b = abs(e.s_min - s) <= 3 * prm.alpha
        gap = (max(min(e.s_min - s, 0.0), -2 * prm.alpha)
               + max(min(s - e.s_max, 0.0), -2 * prm.alpha))
        hit_c = gap <= -3 * prm.alpha
        if hit_a or hit_b or hit_c:
            best_rank = idx
            break
    return best_rank


def test_selection_maximizes_participation():
    rng = np.random.Generator(np.random.PCG64(31))
    for trial in range(5):
        q = optin(20, rng.uniform(0, 1, 20))
        prm = SelectionParams.for_game(
            q, zeta=4 * q.gamma, epsilon=3000.0, alpha=0.05, beta=0.05,
            quality=QualitySpec.linear(1.0),
        )
        res = select_equilibrium(q, prm, NoiseSource(trial, OFF))
        assert not res.aborted
        assert res.rank == scan_best_selectable(q, prm)
        assert regret(q.base, res.profile).max_regret <= prm.approx_bound + 1e-12
        # every sampled action stays inside the xi-region at s_star
        for i in range(q.n):
            vals = q.base.utility.values_for_player(i, np.array([res.s_star]))
            assert vals[res.profile[i]] >= vals.max() - prm.xi - 1e-12


def test_selection_constant_quality_still_finds_equilibrium():
    q = optin(15, np.linspace(0.1, 0.9, 15))
    prm = SelectionParams.for_game(
        q, zeta=4 * q.gamma, epsilon=3000.0, alpha=0.05, beta=0.05,
        quality=QualitySpec.linear(0.0),
    )
    res = select_equilibrium(q, prm, NoiseSource(3, OFF))
    assert not res.aborted
    assert regret(q.base, res.profile).max_regret <= prm.approx_bound + 1e-12


def test_selection_tracks_brute_force_quality():
    rng = np.random.Generator(np.random.PCG64(41))
    for trial in range(3):
        q = optin(5, rng.uniform(0, 1, 5))
        quality = QualitySpec.peak(float(rng.uniform(-0.5, 0.5)))
        prm = SelectionParams.for_game(
            q, zeta=4 * q.gamma, epsilon=3000.0, alpha=0.1, beta=0.05,
            quality=quality,
        )
        res = select_equilibrium(q, prm, NoiseSource(trial, OFF))
        assert not res.aborted
        brute = brute_force_equilibria(q.base, prm.zeta)
        best = brute.max_quality(q.s_of, quality.fn)
        assert res.quality_value >= best - prm.quality_penalty() - 1e-9


def test_selection_walk_branch_and_replay():
    # the uniform crowd-averse game straddles every mid-grid point, so only
    # the straddle session fires and resolution falls to the walk
    g = crowd_averse_game(10, 0.08, 0.1, spread2=True)
    q = QuasiAggregativeGame(base=g)
    prm = SelectionParams.for_game(
        q, zeta=0.4, epsilon=3000.0, alpha=0.05, beta=0.05,
        quality=QualitySpec.linear(1.0),
    )
    res = select_equilibrium(q, prm, NoiseSource(0, OFF))
    assert not res.aborted
    assert res.branch == "walk"
    assert abs(q.s_of(res.profile) - res.s_star) <= prm.alpha + q.gamma / 2 + 1e-12
    for i in range(q.n):
        assert replay_select_player(q, i, res) == res.profile[i]


def test_selection_abort_when_walk_cannot_land():
    # spread-2 steps of 0.2 against a 0.08 acceptance band, with the lone
    # straddle target parked 0.09 from the nearest reachable value
    g = crowd_averse_game(10, -0.04, 0.1, spread2=True)
    q = QuasiAggregativeGame(base=g)
    prm = SelectionParams.for_game(
        q, zeta=0.4, epsilon=JUMP_EPSILON, alpha=JUMP_ALPHA, beta=0.05,
        quality=QualitySpec.linear(1.0),
    )
    res = select_equilibrium(q, prm, NoiseSource(0, OFF))
    assert res.aborted
    assert res.profile is None
    with pytest.raises(ParameterError):
        replay_select_player(q, 0, res)


def test_selection_replay_optimistic_and_pessimistic():
    rng = np.random.Generator(np.random.PCG64(51))
    q = optin(12, rng.uniform(0, 1, 12))
    prm = SelectionParams.for_game(
        q, zeta=4 * q.gamma, epsilon=3000.0, alpha=0.05, beta=0.05,
        quality=QualitySpec.linear(1.0),
    )
    res = select_equilibrium(q, prm, NoiseSource(9))
    assert not res.aborted
    assert res.branch in ("optimistic", "pessimistic", "walk")
    for i in range(q.n):
        assert replay_select_player(q, i, res) == res.profile[i]

    labels = [e[0] for e in res.ledger.entries]
    assert labels == [
        "optimistic-scan", "pessimistic-scan", "straddle-scan", "walk-scan",
    ]
    assert all(e[1] == pytest.approx(3000.0 / 4) for e in res.ledger.entries)


# ---------------------------------------------------------------------------
# the participation game factory
# ---------------------------------------------------------------------------


def test_optin_edge_threshold_games():
    all_in = optin(4, [0.0, 0.0, 0.0, 0.0])
    assert regret(all_in.base, [0, 0, 0, 0]).max_regret <= 0.0
    for s in (0.0, 0.5, 1.0):
        assert V(all_in, s) == pytest.approx(1.0)

    all_out = optin(4, [1.0, 1.0, 1.0, 1.0])
    assert regret(all_out.base, [1, 1, 1, 1]).max_regret <= 0.0
    assert V(all_out, 0.5) == 0.0
    assert V(all_out, 1.0) == pytest.approx(1.0)


def test_optin_validation():
    with pytest.raises(ParameterError):
        make_optin_game(3, [0.1, 0.2])
    with pytest.raises(ParameterError):
        make_optin_game(2, [0.5, 1.5])
    with pytest.raises(ParameterError):
        make_optin_game(2, [-0.1, 0.5])
