"""``V`` and ``s_extremes`` over ascending arrays of points against their
one-point calls.

On linear and threshold games ``V`` sweeps the points: it re-evaluates a
player only near a zero of one of their payoff gaps. The sweep must give,
at every point, the bits of the plain numpy route in conftest at that point
alone. The games below are drawn to sit on the edges the sweep has to get
right: exact ties on grid points, duplicated thresholds, thresholds of 0.0
and 5e-324, facets that are not 0/1, equal payoff slopes with equal or
nearly equal intercepts, and slopes 1e-13 apart. Table and market games,
which declare no payoff lines, are chosen in full at every point and must
agree too. psummnash reads ``V`` in doubling blocks, so an early stage-1
hit evaluates few points.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from privagg import onedim
from privagg.dp_core import NoiseSource, ParameterError, SparseSession
from privagg.game_core import LinearUtility, TableUtility, ThresholdUtility, grid_steps
from privagg.harness import generate
from privagg.market import to_aggregative
from privagg.onedim import (
    QualitySpec, QuasiAggregativeGame, SelectionParams, V, psummnash, s_extremes,
    select_equilibrium,
)

from conftest import (
    build_quiet, crowd_averse_game, per_player_extremes, reference_abr_profile,
    reference_aggregator,
)

SWEEP = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def point_by_point(qgame, points):
    base = qgame.base
    return np.array([reference_aggregator(base, reference_abr_profile(base, [s]))[0]
                     for s in points])


@st.composite
def grid_block(draw, W):
    """A step, then an ascending run of its grid points k * alpha: the whole
    grid or a block of it, as psummnash passes them."""
    alpha = draw(st.sampled_from([1.0 / 64, 0.01, 0.0137, 0.05]))
    K = grid_steps(W, alpha)
    start = draw(st.integers(-K, K - 1))
    stop = draw(st.integers(start + 1, K))
    if draw(st.booleans()):
        start, stop = -K, K
    return alpha, np.arange(start, stop) * alpha


def assert_sweep_exact(qgame, points):
    got = V(qgame, points)
    assert same_bits(got, point_by_point(qgame, points))
    # and the plain numpy route, on a sample of the points
    for s in points[:: max(1, len(points) // 7)]:
        want = reference_aggregator(qgame.base, reference_abr_profile(qgame.base, [s]))[0]
        assert same_bits(V(qgame, float(s)), want)
    return got


# offsets from a planted payoff gap's flip value: exactly on it, or within 1e-12
NEAR = st.sampled_from([0.0, 1e-12, -1e-12, 3e-13])


@st.composite
def threshold_game(draw, xi=0.0):
    """Thresholds on grid points, xi off a grid point (plus NEAR), repeated,
    0.0, 5e-324 or anywhere in [0, 1]; facets 0/1 (the opt-in game) or any
    floats in [-1, 1]. A threshold T gives the payoff gap T - s, so the
    xi-planted ones put gaps of -xi and xi on or next to grid points."""
    n = draw(st.integers(1, 40))
    alpha, points = draw(grid_block(1.0))
    on_grid = st.integers(0, grid_steps(1.0, alpha)).map(lambda k: min(1.0, k * alpha))
    planted = st.builds(lambda t, side, near: min(1.0, max(0.0, t + side + near)),
                        on_grid, st.sampled_from([-xi, xi]), NEAR)
    pick = st.one_of(on_grid, planted, st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))
    thresholds = draw(st.lists(pick, min_size=n, max_size=n))
    if draw(st.booleans()):  # duplicates
        thresholds = [thresholds[i % max(1, n // 3)] for i in range(n)]
    if draw(st.booleans()):
        f = np.zeros((n, 1, 2))
        f[:, 0, 0] = 1.0
    else:
        facet = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
        f = np.array(draw(st.lists(facet, min_size=2 * n, max_size=2 * n))).reshape(n, 1, 2)
    base = build_quiet(n=n, m=2, d=1, gamma=1.0 / n, W=1.0, f=f,
                       utility=ThresholdUtility(np.array(thresholds)))
    return QuasiAggregativeGame(base), points


@SWEEP
@given(case=threshold_game())
def test_threshold_sweep_matches_every_point(case):
    assert_sweep_exact(*case)


@st.composite
def linear_game(draw, xi=0.0):
    """m = 1..4 linear payoffs with the awkward pairs planted: a gap of 0,
    -xi or xi on a grid point (dyadic slopes, steps and xi make it exact
    there), or within 1e-12 of it; equal slopes with equal intercepts or
    intercepts a few ulps apart, and slopes about 1e-13 apart."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 4))
    alpha, points = draw(grid_block(1.0))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    w = rng.uniform(-0.5, 0.5, size=(n, m))
    c = rng.uniform(-0.4, 0.4, size=(n, m))
    for i in range(n if m > 1 else 0):
        a, b = rng.choice(m, size=2, replace=False)
        plant = draw(st.sampled_from(["crossing", "equal", "ulps", "tiny-slope", "none"]))
        if plant == "crossing":
            w[i, a], w[i, b] = rng.integers(-16, 17, size=2) / 64.0
            s0 = points[rng.integers(len(points))]
            c[i, a] = rng.integers(-12, 13) / 64.0
            flip = draw(st.sampled_from([0.0, -xi, xi])) + draw(NEAR)
            c[i, b] = c[i, a] + (w[i, a] - w[i, b]) * s0 + flip
        elif plant == "equal":
            w[i, b], c[i, b] = w[i, a], c[i, a]
        elif plant == "ulps":
            w[i, b] = w[i, a]
            c[i, b] = c[i, a] + int(rng.integers(-3, 4)) * math.ulp(c[i, a])
        elif plant == "tiny-slope":
            w[i, b] = w[i, a] + rng.uniform(-2e-13, 2e-13)
            c[i, b] = c[i, a] + rng.uniform(-1e-12, 1e-12)
    np.clip(c, -0.7, 0.7, out=c)
    f = rng.uniform(-1.0, 1.0, size=(n, 1, m))
    if draw(st.booleans()):
        f = np.round(f)  # facets -1, 0 or 1: many equal chosen facets
    base = build_quiet(n=n, m=m, d=1, gamma=1.0 / n, W=1.0, f=f,
                       utility=LinearUtility(c, w[:, :, None]))
    return QuasiAggregativeGame(base), points


@SWEEP
@given(case=linear_game())
def test_linear_sweep_matches_every_point(case):
    assert_sweep_exact(*case)


def test_planted_ties_are_met():
    # the crossing plant puts exact ties on grid points; check that they
    # happen, so the property above covers them
    n, alpha = 8, 1.0 / 64
    w = np.array([[0.25, -0.125]] * n)
    s0 = np.arange(n) * 4 * alpha - 0.5
    c = np.zeros((n, 2))
    c[:, 1] = (w[:, 0] - w[:, 1]) * s0
    f = np.tile([[[1.0, -1.0]]], (n, 1, 1))
    q = QuasiAggregativeGame(build_quiet(n=n, m=2, d=1, gamma=1.0 / n, W=1.0, f=f,
                                         utility=LinearUtility(c, w[:, :, None])))
    values = q.base.utility.value_matrix(np.array([s0[3]]))
    assert values[3, 0] == values[3, 1]
    got = assert_sweep_exact(q, np.arange(-64, 64) * alpha)
    assert len(np.unique(got)) == n + 1  # each crossing moves V once


def test_intercepts_one_ulp_apart_tie_at_some_points_only():
    # equal slopes, intercepts one ulp apart: w s + c rounds the two payoffs
    # to one float at some s and not at others, so the best response flips
    # back and forth although the exact gap never changes sign
    n, alpha = 6, 0.01
    c = np.zeros((n, 2))
    c[:, 0] = 0.3 + np.arange(n) * 0.01
    c[:, 1] = np.nextafter(c[:, 0], 1.0)
    w = np.full((n, 2, 1), 0.5)
    f = np.tile([[[1.0, -1.0]]], (n, 1, 1))
    q = QuasiAggregativeGame(build_quiet(n=n, m=2, d=1, gamma=1.0 / n, W=1.0, f=f,
                                         utility=LinearUtility(c, w)))
    points = np.arange(-100, 100) * alpha
    ties = [np.sum(v[:, 0] == v[:, 1]) for v in map(q.base.utility.value_matrix, points[:, None])]
    assert 0 < sum(ties) < n * len(points)
    got = assert_sweep_exact(q, points)
    assert np.sum(got[1:] != got[:-1]) > 2 * n  # V moves more often than once a player


# a tie at an exact gap of xi needs a dyadic xi; the floats cover the rest
XI = st.one_of(st.sampled_from([0.0, 1.0 / 64, 0.125, 0.25]), st.floats(0.0, 0.5))


def assert_extremes_exact(qgame, points, xi):
    s_min, s_max = s_extremes(qgame, points, xi)
    each = [s_extremes(qgame, float(s), xi) for s in points]
    assert same_bits(s_min, np.array([e.s_min for e in each], dtype=float))
    assert same_bits(s_max, np.array([e.s_max for e in each], dtype=float))


@SWEEP
@given(xi=XI, data=st.data())
def test_threshold_extremes_sweep_matches_every_point(xi, data):
    qgame, points = data.draw(threshold_game(xi))
    assert_extremes_exact(qgame, points, xi)


@SWEEP
@given(xi=XI, data=st.data())
def test_linear_extremes_sweep_matches_every_point(xi, data):
    qgame, points = data.draw(linear_game(xi))
    assert_extremes_exact(qgame, points, xi)


def test_planted_xi_gaps_are_met():
    # gaps of exactly -xi and xi on grid points: the xi-ABR sets change
    # there, and the sweep must catch each change
    n, alpha, xi = 8, 1.0 / 64, 0.125
    w = np.array([[0.25, -0.125]] * n)
    s0 = np.arange(n) * 4 * alpha - 0.5
    side = np.where(np.arange(n) % 2 == 0, xi, -xi)
    c = np.zeros((n, 2))
    c[:, 1] = (w[:, 0] - w[:, 1]) * s0 + side
    f = np.tile([[[1.0, -1.0]]], (n, 1, 1))
    q = QuasiAggregativeGame(build_quiet(n=n, m=2, d=1, gamma=1.0 / n, W=1.0, f=f,
                                         utility=LinearUtility(c, w[:, :, None])))
    values = q.base.utility.value_matrix(np.array([s0[3]]))
    assert values[3, 1] - values[3, 0] == side[3]
    points = np.arange(-64, 64) * alpha
    assert_extremes_exact(q, points, xi)
    s_min, s_max = s_extremes(q, points, xi)
    assert len(np.unique(s_min)) > 2 and len(np.unique(s_max)) > 2


@st.composite
def table_or_market_game(draw):
    seed = draw(st.integers(0, 2**16))
    alpha, points = draw(grid_block(1.0))
    if draw(st.booleans()):
        rng = np.random.Generator(np.random.PCG64(seed))
        n, m = draw(st.integers(1, 20)), draw(st.integers(2, 4))
        values = rng.uniform(-0.25, 0.25, size=(n, m, 5))
        base = build_quiet(n=n, m=m, d=1, gamma=1.0 / n, W=1.0,
                           f=rng.uniform(-1.0, 1.0, size=(n, 1, m)),
                           utility=TableUtility(np.linspace(-1.0, 1.0, 5), values))
    else:
        base = to_aggregative(generate("market", seed, n=draw(st.integers(1, 20)), d=1))
        points = points * base.W
    return QuasiAggregativeGame(base), points


@settings(max_examples=25, deadline=None)
@given(case=table_or_market_game())
def test_table_and_market_games_match_every_point(case):
    assert_sweep_exact(*case)


@settings(max_examples=25, deadline=None)
@given(case=table_or_market_game(), xi=XI)
def test_table_and_market_extremes_match_every_point(case, xi):
    assert_extremes_exact(*case, xi)


@pytest.mark.parametrize("kind", ["threshold", "linear"])
def test_the_sweep_evaluates_the_full_matrix_once(kind, monkeypatch):
    q = generate("threshold", 4, n=500)
    if kind == "linear":
        q = QuasiAggregativeGame(generate("linear", 4, n=500, m=3))
    evaluator = type(q.base.utility)
    full, rows = [], []
    value_matrix, value_rows = evaluator.value_matrix, evaluator.value_rows
    monkeypatch.setattr(evaluator, "value_matrix", lambda u, s: full.append(1) or value_matrix(u, s))
    monkeypatch.setattr(evaluator, "value_rows",
                        lambda u, who, s: rows.append(len(who)) or value_rows(u, who, s))
    V(q, np.arange(-200, 200) * 0.005)
    assert len(full) == 1
    assert len(rows) == 1 and 0 < rows[0] < 3 * q.n  # about one row per crossing


def test_points_beyond_the_band_guarantee_are_evaluated_one_by_one(monkeypatch):
    # at |s| = 1e12 a payoff's float error dwarfs the band, so V does not
    # sweep; it never asks the evaluator for rows
    q = QuasiAggregativeGame(generate("linear", 3, n=20, m=3))
    monkeypatch.setattr(LinearUtility, "value_rows", None)
    points = np.linspace(-1e12, 1e12, 9)
    assert same_bits(V(q, points), point_by_point(q, points))


def test_V_refuses_what_it_cannot_sweep():
    q = generate("threshold", 1, n=10)
    assert same_bits(V(q, np.array([])), np.array([]))
    empty = s_extremes(q, np.array([]), 0.1)
    assert all(same_bits(arr, np.array([])) for arr in empty)
    for bad in ([0.2, 0.1], [[0.1, 0.2]], [0.1, np.nan], [-np.inf, 0.0]):
        with pytest.raises(ParameterError):
            V(q, bad)
        with pytest.raises(ParameterError):
            s_extremes(q, bad, 0.1)


def test_band_ends_are_built_once_per_game_and_offset(monkeypatch):
    q = generate("threshold", 2, n=300)
    built = []
    lines = ThresholdUtility.payoff_lines
    monkeypatch.setattr(ThresholdUtility, "payoff_lines", lambda u: built.append(1) or lines(u))
    points = np.arange(-100, 100) * 0.01
    for lo in range(0, 200, 50):
        V(q, points[lo : lo + 50])
    assert len(built) == 1
    for _ in range(3):
        s_extremes(q, points, 0.1)
        s_extremes(q, points[::7], 0.2)
    assert len(built) == 3
    # a new game over the same evaluator builds its own bands
    V(QuasiAggregativeGame(q.base), points)
    assert len(built) == 4


def test_rows_are_chunked_and_the_result_is_unchanged(monkeypatch):
    q = QuasiAggregativeGame(generate("linear", 8, n=200, m=3))
    points = np.arange(-400, 400) * 0.0025
    whole = V(q, points)
    monkeypatch.setattr(onedim, "_SWEEP_ROWS", 5)
    assert same_bits(V(q, points), whole)


@pytest.mark.parametrize("kind", ["threshold", "linear"])
def test_bands_built_in_many_player_chunks_sweep_the_same(kind, monkeypatch):
    # 50 players 7 at a time: the band build runs its per-chunk loop 8 times
    def fresh():
        if kind == "threshold":
            return generate("threshold", 9, n=50)
        return QuasiAggregativeGame(generate("linear", 9, n=50, m=3))

    points = np.arange(-100, 100) * 0.01
    default = fresh()
    v, (s_min, s_max) = V(default, points), s_extremes(default, points, 0.1)
    monkeypatch.setattr(onedim, "_SWEEP_PLAYERS", 7)
    q = fresh()
    assert same_bits(V(q, points), v)
    got_min, got_max = s_extremes(q, points, 0.1)
    assert same_bits(got_min, s_min) and same_bits(got_max, s_max)
    assert all(q._sweep_bands[xi] is not None for xi in (0.0, 0.1))
    assert same_bits(v, point_by_point(q, points))
    assert_extremes_exact(q, points, 0.1)


def full_choice_cases():
    """name -> (game, ascending points) where the sweep chooses in full at
    every point, at n = 300: past numpy's 128-value block, where a sum's
    order starts to show. Value tables and a market declare no payoff lines;
    the linear game's points reach 1e12, past the float-error guard."""
    n = 300
    rng = np.random.Generator(np.random.PCG64(17))
    table = build_quiet(n=n, m=3, d=1, gamma=1.0 / n, W=1.0,
                        f=rng.uniform(-1.0, 1.0, size=(n, 1, 3)),
                        utility=TableUtility(np.linspace(-1.0, 1.0, 5),
                                             rng.uniform(-0.25, 0.25, size=(n, 3, 5))))
    market = to_aggregative(generate("market", 18, n=n, d=1))
    return {
        "table": (QuasiAggregativeGame(table), np.linspace(-1.0, 1.0, 21)),
        "market": (QuasiAggregativeGame(market), np.linspace(-1.0, 1.0, 21) * market.W),
        "linear-far": (QuasiAggregativeGame(generate("linear", 19, n=n, m=3)),
                       np.linspace(-1e12, 1e12, 9)),
    }


@pytest.mark.parametrize("name", sorted(full_choice_cases()))
def test_full_choice_sweep_matches_the_references_past_one_sum_block(name):
    q, points = full_choice_cases()[name]
    xi = 0.05
    assert same_bits(V(q, points), point_by_point(q, points))
    s_min, s_max = s_extremes(q, points, xi)
    for j in range(0, len(points), 4):
        assert same_bits(V(q, float(points[j])), point_by_point(q, points[j : j + 1])[0])
        x_min, x_max = per_player_extremes(q, points[j], xi)
        assert same_bits(s_min[j], reference_aggregator(q.base, x_min)[0])
        assert same_bits(s_max[j], reference_aggregator(q.base, x_max)[0])
        one = s_extremes(q, float(points[j]), xi)
        assert same_bits(one.x_min, x_min) and same_bits(one.x_max, x_max)
        assert same_bits(one.s_min, s_min[j]) and same_bits(one.s_max, s_max[j])
    assert same_bits(V(q, np.array([])), np.array([]))
    assert all(same_bits(arr, np.array([])) for arr in s_extremes(q, np.array([]), xi))


def test_one_point_calls_build_no_bands(monkeypatch):
    built = []
    lines = ThresholdUtility.payoff_lines
    monkeypatch.setattr(ThresholdUtility, "payoff_lines", lambda u: built.append(1) or lines(u))
    q = generate("threshold", 2, n=300)
    V(q, 0.3)
    V(q, np.array([0.3]))
    s_extremes(q, 0.3, 0.1)
    s_extremes(q, np.array([0.3]), 0.1)
    assert built == [] and q._sweep_bands == {}


def constant_V_game(n, v0):
    """Every player strictly prefers action 0, whose facet is v0: V = v0
    (up to rounding) everywhere, so stage 1 hits near s = v0."""
    c = np.tile([0.5, -0.5], (n, 1))
    f = np.tile([[[v0, 1.0]]], (n, 1, 1))
    return QuasiAggregativeGame(build_quiet(n=n, m=2, d=1, gamma=1.0 / n, W=1.0, f=f,
                                            utility=LinearUtility(c, np.zeros((n, 2, 1)))))


@pytest.mark.parametrize("v0", [-1.0, -0.9, -0.5, 0.0, 0.7])
def test_early_stage_one_hits_evaluate_few_points(v0, monkeypatch):
    q = constant_V_game(50, v0)
    passed = []

    def counted(qgame, s):
        passed.append(np.size(s))
        return V(qgame, s)

    monkeypatch.setattr(onedim, "V", counted)
    alpha = 0.01
    K = grid_steps(q.W, alpha)
    res = psummnash(q, 1e4, alpha, 0.05, NoiseSource(0, NoiseSource.NOISE_OFF))
    assert res.stage == 1
    j = res.k_hit + K  # the hit's position in the scan
    assert abs(res.k_hit * alpha - v0) <= 4 * alpha + 1e-12
    assert sum(passed) <= 2 * j + onedim._FIRST_BLOCK
    assert len(passed) <= 2 + max(0, math.ceil(math.log2((j + 1) / onedim._FIRST_BLOCK)))


def scan_blocks(asked):
    """How many doubling blocks a scan that asked ``asked`` queries passed."""
    return len(list(onedim._blocks(asked)))


@pytest.mark.parametrize("noise", [NoiseSource(3), NoiseSource(3, NoiseSource.NOISE_OFF)])
def test_every_scan_asks_a_doubling_block_at_a_time(noise, monkeypatch):
    # one session call per block, in every stage of both solvers; select
    # sweeps each block of its quality order once for its three grid scans
    # and reads a hit's composites from one-point calls
    answers, swept, single = [], [], []
    answer, extremes = SparseSession.answer, onedim.s_extremes
    monkeypatch.setattr(SparseSession, "answer",
                        lambda sess, v: answers.append(np.size(v)) or answer(sess, v))
    monkeypatch.setattr(onedim, "s_extremes", lambda q, s, xi: (
        (swept if np.ndim(s) else single).append(np.size(s)) or extremes(q, s, xi)))
    q = QuasiAggregativeGame(crowd_averse_game(40, 0.5, 0.025))
    res = psummnash(q, 500.0, 0.05, 0.05, noise)
    assert res.stage == 3  # all three scans ran
    assert answers[:scan_blocks(res.queries[0])] == [16, 16, 8]  # the 40-point grid
    assert len(answers) == sum(scan_blocks(asked) for asked in res.queries)

    answers.clear()
    params = SelectionParams.for_game(q, zeta=4.0 * q.gamma, quality=QualitySpec.peak(0.3),
                                      epsilon=3000.0, alpha=0.05, beta=0.05)
    res = select_equilibrium(q, params, noise)
    assert len(answers) == sum(scan_blocks(asked) for asked in res.queries)
    deepest = max(res.queries[:3])
    assert swept == [hi - lo for lo, hi in onedim._blocks(deepest)]
    assert len(single) <= 3
