"""Scalar-aggregator solvers: fixed-point search, walks, quality selection.

The crowd-averse family (see conftest) is the workhorse: identical players
who prefer joining only when few others do, so the summary map V jumps from
"everyone in" to "everyone out" across one grid step. With unit facet spread
the walk always lands inside the acceptance band; with spread 2 and a small
alpha it provably cannot, which pins down the abort branches.
"""

import itertools
import math

import numpy as np
import pytest

from privagg import onedim
from privagg.dp_core import (
    BudgetError, NoiseSource, ParameterError, PrivacyLedger, SparseSession,
)
from privagg.game_core import (
    GRID_BUDGET, LinearUtility, abr_profile, abr_set, grid_steps, regret,
)
from privagg.harness import brute_force_equilibria, generate
from privagg.onedim import (
    PSummResult,
    _walk_aggregators,
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
    smooth_walk,
)
from privagg.presl import PreslParams, presl

from conftest import (
    JUMP_ALPHA,
    JUMP_EPSILON,
    build_quiet,
    crowd_averse_game,
    jump_game,
    looped_walk_aggregators,
    materialised_walk,
    max_quality,
    naive_utility,
    peak_traced_bytes,
    per_player_extremes,
    quality_penalty,
    selection_accuracy_floor,
    total_simple,
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


WALK_CASES = ["linear-m3", "threshold", "hi-equals-lo"]


def walk_case(name):
    """(qgame, hi, lo) for one of WALK_CASES, n = 30."""
    rng = np.random.Generator(np.random.PCG64(WALK_CASES.index(name)))
    if name == "threshold":
        q = generate("threshold", 5, n=30)
    else:
        q = QuasiAggregativeGame(generate("linear", 4, n=30, m=3))
    hi = rng.integers(0, q.m, size=q.n)
    lo = hi.copy() if name == "hi-equals-lo" else rng.integers(0, q.m, size=q.n)
    return q, hi, lo


@pytest.mark.parametrize("case", WALK_CASES)
def test_smooth_walk_rows_match_the_materialised_walk(case):
    q, hi, lo = walk_case(case)
    walk = smooth_walk(q, hi, lo)
    rows = materialised_walk(hi, lo)
    assert len(walk) == q.n + 1
    assert walk.nbytes == 2 * 8 * q.n  # the two end profiles only
    for j in range(q.n + 1):
        x = walk[j]
        assert x.dtype == np.int64
        assert x.base is None
        assert np.array_equal(x, rows[j])
    assert np.array_equal(walk[-1], rows[-1])
    assert np.array_equal(walk[3:9], rows[3:9])
    assert np.array_equal(walk[::-4], rows[::-4])
    assert walk[5:5].shape == (0, q.n)
    with pytest.raises(IndexError):
        walk[q.n + 1]


@pytest.mark.parametrize("case", WALK_CASES)
def test_walk_aggregators_match_the_looped_reference(case):
    q, hi, lo = walk_case(case)
    s = _walk_aggregators(q, smooth_walk(q, hi, lo))
    ref = looped_walk_aggregators(q, materialised_walk(hi, lo))
    assert s.dtype == ref.dtype
    assert s.tobytes() == ref.tobytes()  # bit for bit


def test_walk_profiles_own_their_data():
    # a published composite is its own array, not a view that keeps every
    # composite of the walk alive
    q = QuasiAggregativeGame(base=crowd_averse_game(40, 0.5, 0.025))
    res = psummnash(q, epsilon=500.0, alpha=0.05, beta=0.05, src=NoiseSource(0, OFF))
    assert res.stage == 3
    assert res.profile.base is None
    q = QuasiAggregativeGame(base=crowd_averse_game(10, 0.08, 0.1, spread2=True))
    prm = SelectionParams.for_game(
        q, zeta=0.4, epsilon=3000.0, alpha=0.05, beta=0.05, quality=QualitySpec.linear(1.0),
    )
    res = select_equilibrium(q, prm, NoiseSource(0, OFF))
    assert res.branch == "walk"
    assert res.profile.base is None


def test_walk_branch_memory_is_linear_in_n():
    # materialising all n + 1 composites would take about 225 MB here
    n = 5000
    q = QuasiAggregativeGame(base=crowd_averse_game(n, 0.08, 1.0 / n, spread2=True))
    prm = SelectionParams.for_game(
        q, zeta=0.4, epsilon=3000.0, alpha=0.05, beta=0.05, quality=QualitySpec.linear(1.0),
    )
    res, peak = peak_traced_bytes(select_equilibrium, q, prm, NoiseSource(0, OFF))
    assert res.branch == "walk"
    assert peak < 2_000 * n


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
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
    # unchecked quality parameters made select publish NaN or -Infinity
    builds = [
        lambda: QualitySpec.peak(bad),
        lambda: QualitySpec.peak(0.3, lam=bad),
        lambda: QualitySpec.linear(bad),
        lambda: QualitySpec(fn=lambda s: s, lam=bad),
    ]
    for build in builds:
        with pytest.raises(ParameterError, match="finite"):
            build()


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
    assert total_simple(full.ledger)[0] == pytest.approx(500.0)


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
    for q, res in ((q1, r1), (q3, r3)):
        for i in (-1, q.n, 2.0):
            with pytest.raises(ParameterError, match="player index"):
                replay_psummnash_player(q, i, res)


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


@pytest.mark.parametrize("payload, message", [
    ({"kind": "peak", "target": 0.3, "slope": 5.0}, "peak quality does not read slope$"),
    ({"kind": "linear", "slope": 1.0, "target": 0.9}, "linear quality does not read target$"),
    ({"kind": "linear", "slope": 1.0, "lam": 2.0, "scale": 3}, "does not read lam, scale$"),
    ({"kind": [], "slope": 1.0}, "unknown quality kind"),  # a kind that cannot be a key
])
def test_quality_spec_refuses_keys_its_kind_does_not_read(payload, message):
    with pytest.raises(ParameterError, match=message):
        QualitySpec.from_json(payload)


def test_scalar_solvers_refuse_grids_over_budget(monkeypatch):
    # W = 1 and this step give 2K = 10,000,002 grid points: both solvers must
    # refuse before V or the quality score runs and before a grid is built
    alpha = 1.0 / (GRID_BUDGET / 2 + 0.5)
    q = optin(25, np.linspace(0, 1, 25))

    def untouchable(*args):
        raise AssertionError("evaluated past the grid budget check")

    monkeypatch.setattr(onedim, "V", untouchable)
    with pytest.raises(BudgetError):
        psummnash(q, epsilon=1e12, alpha=alpha, beta=0.05, src=NoiseSource(0))
    def refused():
        with pytest.raises(BudgetError):
            SelectionParams(zeta=0.4, epsilon=1e12, alpha=alpha, beta=0.05,
                            quality=QualitySpec(fn=untouchable, lam=1.0),
                            gamma=q.gamma, W=q.W, n=q.n)

    _, peak = peak_traced_bytes(refused)
    assert peak < 1_000_000


def test_scalar_solvers_refuse_an_infinite_certificate(monkeypatch):
    # alpha is finite, but 10 alpha overflows: no run may certify an inf bound
    alpha = 1.797693134862316e307
    q = optin(25, np.linspace(0, 1, 25))

    def untouchable(*args):
        raise AssertionError("queried past the certificate check")

    monkeypatch.setattr(onedim, "V", untouchable)
    with pytest.raises(ParameterError, match="not finite"):
        psummnash(q, epsilon=1000.0, alpha=alpha, beta=0.5, src=NoiseSource(0))
    with pytest.raises(ParameterError, match="not finite"):
        SelectionParams.for_game(q, zeta=0.4, epsilon=1000.0, alpha=alpha, beta=0.5,
                                 quality=QualitySpec.linear(1.0))


def test_select_refuses_params_built_for_another_game(monkeypatch):
    def untouchable(*args):
        raise AssertionError("queried past the parameter check")

    monkeypatch.setattr(onedim, "s_extremes", untouchable)
    thresholds = np.linspace(0.0, 1.0, 200)
    q = optin(200, thresholds, gamma=0.005)
    quality = QualitySpec.peak(0.3)
    # params for gamma = 0.0025 would declare half the real sensitivity
    half = SelectionParams.for_game(optin(200, thresholds, gamma=0.0025), zeta=0.02,
                                    epsilon=3000.0, alpha=0.05, beta=0.05, quality=quality)
    built = [half] + [
        SelectionParams(zeta=0.02, epsilon=3000.0, alpha=0.05, beta=0.05, quality=quality,
                        gamma=q.gamma, W=W, n=n)
        for W, n in ((2.0, q.n), (q.W, q.n + 1))
    ]
    for prm in built:
        with pytest.raises(ParameterError, match="different game"):
            select_equilibrium(q, prm, NoiseSource(0))
    # built directly, not through for_game, at a tenth of the floor
    floor = selection_accuracy_floor(q, 3000.0, 0.05)
    low = SelectionParams(zeta=0.02, epsilon=3000.0, alpha=floor / 10, beta=0.05,
                          quality=quality, gamma=q.gamma, W=q.W, n=q.n)
    with pytest.raises(ParameterError, match="floor"):
        select_equilibrium(q, low, NoiseSource(0))


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
    assert quality_penalty(prm) == pytest.approx(5 * 0.1 * 1.0)


@pytest.mark.parametrize(
    "quality, W, alpha",
    [
        (QualitySpec.peak(0.3), 1.0, 0.1),
        (QualitySpec.peak(-0.37, lam=2.5), 3.0, 0.013),
        (QualitySpec.linear(-0.5), 2.0, 0.07),
        (QualitySpec.linear(1.7), 0.9, 0.003),
        (QualitySpec.peak(0.123456789), 1.0, 1e-6),  # a 2,000,000-point grid
    ],
)
def test_selection_grid_matches_scalar_scoring(quality, W, alpha):
    prm = SelectionParams(zeta=0.4, epsilon=100.0, alpha=alpha, beta=0.05,
                          quality=quality, gamma=0.05, W=W, n=20)
    K = grid_steps(W, alpha)
    values = np.arange(-K, K) * alpha
    scores = np.array([quality.fn(float(s)) for s in values])
    assert np.array_equal(quality.fn(values), scores)
    assert np.array_equal(prm.grid, values[np.lexsort((values, -scores))])
    assert prm.grid.size == 2 * K


def test_selection_scores_grid_in_one_call():
    calls = []

    def score(s):
        calls.append(np.shape(s))
        return -np.abs(s)

    prm = SelectionParams(zeta=0.4, epsilon=100.0, alpha=0.1, beta=0.05,
                          quality=QualitySpec(fn=score, lam=1.0), gamma=0.05, W=1.0, n=20)
    assert calls == [(20,)]
    assert prm.grid[0] == 0.0
    # a score that is not elementwise is refused
    for fn in (lambda s: 1.0, lambda s: np.zeros(3), lambda s: np.zeros((20, 1))):
        with pytest.raises(ParameterError, match="elementwise"):
            SelectionParams(zeta=0.4, epsilon=100.0, alpha=0.1, beta=0.05,
                            quality=QualitySpec(fn=fn, lam=1.0), gamma=0.05, W=1.0, n=20)


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
    # finite parameters whose score overflows to -inf on the grid
    with pytest.raises(ParameterError, match="finite"):
        SelectionParams(zeta=0.4, epsilon=100.0, alpha=0.1, beta=0.05,
                        quality=QualitySpec.peak(1e308, lam=2.0), gamma=0.05, W=1.0, n=20)

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
    """Threshold and linear scalar games, m = 2-4, and linear games whose
    facets tie (signed zeros included)."""
    rng = np.random.Generator(np.random.PCG64(640))
    tie_rng = np.random.Generator(np.random.PCG64(650))  # leaves rng's draws as they were
    for seed in range(3):
        yield optin(12, rng.uniform(0, 1, 12))
        for m in (2, 3, 4):
            base = generate("linear", 641 + 10 * seed + m, n=10, m=m, d=1)
            yield QuasiAggregativeGame(base=base)
            f = tie_rng.choice([-1.0, -0.0, 0.0, 0.5], size=base.f.shape)
            tied = build_quiet(n=base.n, m=m, d=1, gamma=base.gamma, W=base.W, f=f,
                               utility=base.utility)
            yield QuasiAggregativeGame(base=tied)


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


def test_select_replay_matches_the_mediator_on_tied_facets():
    # the mediator's extremes and each player's replay must pick the same
    # action among tied facets (signed zeros included) on every branch
    branches = set()
    for q in extremes_cases():
        for quality in (QualitySpec.linear(1.0), QualitySpec.linear(-1.0), QualitySpec.peak(0.0)):
            prm = SelectionParams.for_game(
                q, zeta=max(0.4, 4 * q.gamma), epsilon=3000.0, alpha=0.05, beta=0.05,
                quality=quality,
            )
            for src in (NoiseSource(0, OFF), NoiseSource(1), NoiseSource(2)):
                res = select_equilibrium(q, prm, src)
                if res.aborted:
                    continue
                branches.add(res.branch)
                replayed = [replay_select_player(q, i, res) for i in range(q.n)]
                assert replayed == res.profile.tolist(), (res.branch, src)
    assert branches == {"optimistic", "pessimistic", "walk"}


def test_no_session_stream_is_shared_or_drawn_from_after_its_hit(monkeypatch):
    # a sparse session leaves its stream at the end of the hit's block, not
    # just past the hit: that is invisible only while each session owns its
    # stream and nothing draws from that stream once the session has halted
    spent = {}  # the streams whose session answered below, by id (held, so no id is reused)
    seeds = set()  # the seeds of the current solve's session streams
    scan, answer = PrivacyLedger.scan, SparseSession.answer

    def scanned(self, stage, src, query, total):
        seed = src.child(stage.stream).seed
        assert seed not in seeds, f"{stage.label} repeats another session's stream"
        assert stage.stream not in ("mw", "sample"), f"{stage.label} shares a solver stream"
        seeds.add(seed)
        return scan(self, stage, src, query, total)

    def solve(solver, *args):
        seeds.clear()
        return solver(*args)

    def answered(self, query_values):
        out = answer(self, query_values)
        if out.below:
            spent[id(self._src)] = self._src
        return out

    def guarded(draw):
        def method(self, *args):
            assert id(self) not in spent, "a stream was drawn from after its session's hit"
            return draw(self, *args)
        return method

    monkeypatch.setattr(PrivacyLedger, "scan", scanned)
    monkeypatch.setattr(SparseSession, "answer", answered)
    monkeypatch.setattr(NoiseSource, "uniform", guarded(NoiseSource.uniform))
    monkeypatch.setattr(NoiseSource, "uniforms", guarded(NoiseSource.uniforms))

    sources = [NoiseSource(seed) for seed in range(3)]
    stages, branches = set(), set()
    presl_game = generate("linear", 21, n=10, gamma=0.05)
    presl_params = PreslParams.for_game(presl_game, zeta=1.0, epsilon=75.0, delta=0.05, beta=0.3)
    linear = QuasiAggregativeGame(generate("linear", 6, n=300, m=2))
    crowd = QuasiAggregativeGame(crowd_averse_game(40, 0.5, 0.025))
    for src in sources:
        assert not solve(presl, presl_game, presl_params, src).aborted
        floor = psummnash_accuracy_floor(linear, 300.0, 0.05)
        stages.add(solve(psummnash, linear, 300.0, floor, 0.05, src).stage)
        stages.add(solve(psummnash, crowd, 500.0, 0.05, 0.05, src).stage)
        for q in itertools.islice(extremes_cases(), 3):
            for quality in (QualitySpec.linear(1.0), QualitySpec.linear(-1.0),
                            QualitySpec.peak(0.0)):
                prm = SelectionParams.for_game(q, zeta=max(0.4, 4 * q.gamma), epsilon=3000.0,
                                               alpha=0.05, beta=0.05, quality=quality)
                branches.add(solve(select_equilibrium, q, prm, src).branch)
    assert stages == {1, 3}
    assert branches == {"optimistic", "pessimistic", "walk"}
    assert len(spent) > len(sources) * 3


def test_s_extremes_ties_and_negative_xi():
    # player 1 sits exactly at their threshold: both actions tie at xi = 0
    q = optin(3, [0.2, 0.5, 0.8])
    e = s_extremes(q, 0.5, 0.0)
    assert np.array_equal(e.x_max, [0, 0, 1])
    assert np.array_equal(e.x_min, [0, 1, 1])
    # s-independent utilities tie all three actions and the facets are all
    # equal, so the facet order keeps index order: x_max plays the first
    # action and x_min the last, m - 1
    g = build_quiet(n=2, m=3, d=1, gamma=0.2, W=1.0, f=np.ones((2, 1, 3)),
                    utility=LinearUtility(np.zeros((2, 3)), np.zeros((2, 3, 1))))
    e = s_extremes(QuasiAggregativeGame(base=g), 0.0, 0.0)
    assert e.x_max.tolist() == [0, 0] and e.x_min.tolist() == [2, 2]
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
        best = max_quality(brute, q.s_of, quality.fn)
        assert res.quality_value >= best - quality_penalty(prm) - 1e-9


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
    for i in (-1, q.n, 0.0):
        with pytest.raises(ParameterError, match="player index"):
            replay_select_player(q, i, res)

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
