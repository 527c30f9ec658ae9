"""Grid-search equilibrium selection, private and exact variants."""

import math
import types

import numpy as np
import pytest

import privagg
import privagg.presl as presl_mod
from privagg.dp_core import BudgetError, NoiseSource, ParameterError, SparseSession
from privagg.game_core import LinearUtility, regret, utility_values
from privagg.harness import brute_force_equilibria, generate, profile_loss, solve
from privagg.lp_core import build_slack_lp, exact_lp_min, replay_mw_player
from privagg.presl import (
    PreslParams,
    PreslResult,
    existence_bound,
    npresl,
    presl,
    presl_e1,
    presl_e2,
    query_order,
    replay_presl_player,
    sampling_deviation_bound,
)

from conftest import build_quiet, n_queries, reference_npresl, total_simple


def reference_game(n=200):
    """The parameter-formula reference point: gamma = 1/n, W = 1, two actions."""
    return build_quiet(
        n=n, m=2, d=1, gamma=1.0 / n, W=1.0, f=np.ones((n, 1, 2)),
        utility=LinearUtility(np.zeros((n, 2)), np.zeros((n, 2, 1))),
        loss=np.zeros((n, 2)),
    )


def positive_flow_game(n=10, gamma=0.05, seed=0):
    """Facets in [0.5, 1] so the aggregator never drops below 0.5 * gamma * n;
    the far grid point then genuinely misses the first sparse query."""
    rng = np.random.Generator(np.random.PCG64(seed))
    f = rng.uniform(0.5, 1.0, size=(n, 1, 2))
    c = rng.uniform(-0.3, 0.3, size=(n, 2))
    w = rng.uniform(-0.25, 0.25, size=(n, 2, 1))
    return build_quiet(
        n=n, m=2, d=1, gamma=gamma, W=1.0, f=f,
        utility=LinearUtility(c, w),
        loss=rng.uniform(0.0, 1.0, size=(n, 2)),
    )


FAST = dict(epsilon=150.0, delta=0.05, beta=0.3)


def fast_params(game, zeta=1.0):
    return PreslParams.for_game(game, zeta=zeta, **FAST)


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------


def test_existence_bound_values():
    assert existence_bound(1000, 2, 1e-3) == pytest.approx(
        0.2575895904744914, rel=1e-15
    )
    assert existence_bound(1, 3, 0.2) == pytest.approx(
        0.2 * math.sqrt(8.0 * math.log(6.0)), rel=1e-15
    )
    assert existence_bound(1, 3, 0.2) == pytest.approx(0.7572073891299382, rel=1e-15)
    assert existence_bound(50, 2, 0.0) == 0.0
    with pytest.raises(ParameterError):
        existence_bound(0, 2, 0.1)
    with pytest.raises(ParameterError):
        existence_bound(10, 2, -0.1)


def test_error_terms_frozen_values():
    g = reference_game()
    assert presl_e1(g, 1.0, 0.05) == pytest.approx(6.066259615725588, rel=1e-15)
    assert presl_e2(g, 1.0, 1.0 / 200, 0.05) == pytest.approx(
        45.59183141735056, rel=1e-15
    )
    assert sampling_deviation_bound(200, 1.0 / 200, 2, 0.05) == pytest.approx(
        math.sqrt(200 * (1 / 200) ** 2 / 2 * math.log(2 / 0.05)), rel=1e-15
    )


def test_params_derivations_on_reference_game():
    g = reference_game()
    zeta = existence_bound(g.n, g.m, g.gamma)
    prm = PreslParams.for_game(g, zeta=zeta, epsilon=1.0, delta=1.0 / 200, beta=0.05)
    assert prm.e1 == pytest.approx(presl_e1(g, 1.0, 0.05), rel=1e-15)
    assert prm.e2 == pytest.approx(presl_e2(g, 1.0, 1.0 / 200, 0.05), rel=1e-15)
    assert prm.alpha == prm.e1 + prm.e2
    assert prm.xi == pytest.approx(g.gamma + zeta + 2 * prm.alpha)
    assert prm.lp_tol == pytest.approx(min(prm.alpha, prm.e1) / 100.0)
    assert prm.nash_bound == pytest.approx(zeta + 12 * prm.alpha)
    # alpha dwarfs both W and n*gamma here, so the grids collapse
    assert prm.w_snap == pytest.approx(prm.alpha)
    assert prm.x_count_per_axis == 2
    assert prm.y_count == 1
    assert n_queries(prm) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_are_rejected(bad):
    g = positive_flow_game()
    for key in ("epsilon", "zeta"):
        kwargs = dict(FAST, zeta=1.0)
        kwargs[key] = bad
        with pytest.raises(ParameterError, match="finite"):
            PreslParams.for_game(g, **kwargs)
    lin = generate("linear", 0, n=4, gamma=0.1)
    with pytest.raises(ParameterError, match="finite"):
        npresl(lin, zeta=bad, alpha=0.2, beta=0.1, src=NoiseSource(0))
    with pytest.raises(ParameterError, match="finite"):
        npresl(lin, zeta=1.0, alpha=bad, beta=0.1, src=NoiseSource(0))


def test_params_validation_and_warnings():
    g = positive_flow_game()
    with pytest.warns(UserWarning, match="zeta"):
        PreslParams.for_game(g, zeta=0.01, **FAST)
    with pytest.raises(ParameterError):
        PreslParams.for_game(g, zeta=-1.0, **FAST)
    with pytest.raises(ParameterError):
        PreslParams.for_game(g, zeta=1.0, epsilon=0.0, delta=0.05, beta=0.3)
    # a tiny alpha from a huge epsilon: the grid is refused before it is built
    with pytest.raises(BudgetError, match="over the budget"):
        PreslParams.for_game(g, zeta=1.0, epsilon=1e12, delta=0.05, beta=0.3)


def test_params_refuse_accuracy_constants_that_overflow():
    # epsilon = 1e-308 built params with alpha = inf and a bound of inf; the
    # run was refused only inside the sparse session, as a threshold of inf
    g = generate("linear", 0, n=4, m=2)
    for epsilon in (1e-308, 5e-324):
        with pytest.raises(ParameterError, match="not finite; raise epsilon"):
            PreslParams.for_game(g, zeta=3.0, epsilon=epsilon, delta=0.05, beta=0.3)
        params = dict(zeta=3.0, epsilon=epsilon, delta=0.05, beta=0.3)
        with pytest.raises(ParameterError, match="epsilon"):
            solve("presl", g, params, NoiseSource(0))


def test_query_order_stream():
    g = reference_game()
    zeta = existence_bound(g.n, g.m, g.gamma)
    prm = PreslParams.for_game(g, zeta=zeta, epsilon=1.0, delta=1.0 / 200, beta=0.05)
    stream = list(query_order(prm))
    assert len(stream) == prm.x_count_per_axis**prm.d * prm.y_count
    assert stream[0][0] == 0.0
    assert [s[0] for (_, s) in stream] == pytest.approx([-prm.w_snap, 0.0])

    # lexicographic order over two axes
    two = PreslParams(zeta=60.0, epsilon=1.0, delta=0.005, beta=0.05,
                      n=200, m=2, d=2, gamma=1.0 / 200, W=1.0, has_loss=False)
    pts = [tuple(s) for (_, s) in query_order(two)]
    a = -two.w_snap
    assert pts == [(a, a), (a, 0.0), (0.0, a), (0.0, 0.0)]


# ---------------------------------------------------------------------------
# the private solver
# ---------------------------------------------------------------------------


def test_presl_noise_off_hits_first_admissible_query(monkeypatch):
    g = positive_flow_game()
    prm = fast_params(g)
    blocks = []  # the scan asks the grid in the ledger's doubling blocks
    answer = SparseSession.answer
    monkeypatch.setattr(SparseSession, "answer",
                        lambda sess, v: blocks.append(np.size(v)) or answer(sess, v))
    res = presl(g, prm, NoiseSource(3, NoiseSource.NOISE_OFF))
    assert not res.aborted
    # the far-left grid point sits w_snap + min S away, above the threshold
    assert res.hit_index == 1
    assert res.queries_asked == 2
    assert blocks == [2]  # the whole two-point grid is the first block
    assert res.hit_y == 0.0
    assert np.array_equal(res.hit_s, [0.0])

    # independent scan: first stream position whose exact value clears
    from privagg.lp_core import exact_lp_min

    threshold = prm.alpha + prm.e1
    values = [
        exact_lp_min(g, s, y, prm.xi, prm.lp_tol).value
        for (y, s) in query_order(prm)
    ]
    first = next(i for i, v in enumerate(values) if v <= threshold)
    assert first == res.hit_index


def test_presl_output_contract():
    g = positive_flow_game(seed=5)
    prm = fast_params(g)
    res = presl(g, prm, NoiseSource(8))
    assert not res.aborted
    assert res.profile.shape == (g.n,)
    assert res.p_bar.shape == (g.n, g.m)
    assert np.allclose(res.p_bar.sum(axis=1), 1.0, atol=1e-12)
    # sampled actions stay inside the xi-best-response supports at hit_s
    for i in range(g.n):
        vals = utility_values(g, i, res.hit_s)
        assert vals[res.profile[i]] >= vals.max() - prm.xi - 1e-12
    # declared budget: one sparse scan at epsilon, one LP solve at (eps, delta)
    labels = [e[0] for e in res.ledger.entries]
    assert labels == ["grid-scan", "lp-dynamics"]
    assert total_simple(res.ledger) == (
        pytest.approx(2 * prm.epsilon), pytest.approx(prm.delta)
    )
    assert res.nash_bound == pytest.approx(prm.zeta + 12 * prm.alpha)


def test_presl_noise_off_is_deterministic():
    g = positive_flow_game(seed=6)
    prm = fast_params(g)
    a = presl(g, prm, NoiseSource(1, NoiseSource.NOISE_OFF))
    b = presl(g, prm, NoiseSource(2, NoiseSource.NOISE_OFF))
    assert np.array_equal(a.p_bar, b.p_bar)
    assert a.hit_index == b.hit_index
    assert a.mw_transcript == b.mw_transcript


def test_presl_replay_is_bit_exact(monkeypatch):
    g = positive_flow_game(seed=7)
    prm = fast_params(g)
    src_seed = 909
    res = presl(g, prm, NoiseSource(src_seed))
    assert not res.aborted
    replayed_rows = []

    def recording(rows, support_row, *args):
        replayed_rows.append(support_row)
        return replay_mw_player(rows, support_row, *args)

    monkeypatch.setattr(presl_mod, "replay_mw_player", recording)
    for i in range(g.n):
        action = replay_presl_player(g, i, res, NoiseSource(src_seed))
        assert action == res.profile[i]
    # each player's own support row is the mediator's LP support row
    lp = build_slack_lp(g, res.hit_s, res.hit_y, prm.xi, slack=0.0)
    assert np.array_equal(np.array(replayed_rows), lp.supports)


def test_presl_replay_refuses_out_of_range_players():
    # i = -1 used to read player n-1's rows under the stream of label 2^64-1
    g = positive_flow_game(seed=7)
    res = presl(g, fast_params(g), NoiseSource(909))
    assert not res.aborted
    for i in (-1, g.n, g.n + 5, 1.0):
        with pytest.raises(ParameterError, match="player index"):
            replay_presl_player(g, i, res, NoiseSource(909))
    assert replay_presl_player(g, np.int64(g.n - 1), res, NoiseSource(909)) == res.profile[-1]


def test_presl_replay_refuses_aborted_runs():
    g = positive_flow_game()
    prm = fast_params(g)
    empty = PreslResult(aborted=True, params=prm, ledger=None, queries_asked=2)
    with pytest.raises(ParameterError):
        replay_presl_player(g, 0, empty, NoiseSource(0))


def test_presl_rejects_mismatched_params():
    g = positive_flow_game()
    other = positive_flow_game(n=12)
    prm = fast_params(other)
    with pytest.raises(ParameterError):
        presl(g, prm, NoiseSource(0))

    free = generate("linear", 3, n=10, m=2, d=1, gamma=0.05, W=1.0,
                    with_loss=False)
    with pytest.raises(ParameterError):
        presl(free, fast_params(g), NoiseSource(0))


def test_presl_refuses_params_built_for_another_gamma_or_w(monkeypatch):
    def untouchable(*args):
        raise AssertionError("queried past the parameter check")

    monkeypatch.setattr(presl_mod, "exact_lp_min", untouchable)
    g = positive_flow_game(gamma=0.08)
    # same n, m and d: only gamma, then only W, differs from the game's
    for other in (positive_flow_game(gamma=0.05),
                  build_quiet(n=g.n, m=g.m, d=g.d, gamma=g.gamma, W=2.0, f=g.f,
                              utility=g.utility, loss=g.loss)):
        with pytest.raises(ParameterError, match="different game"):
            presl(g, fast_params(other, zeta=2.0), NoiseSource(0))


# ---------------------------------------------------------------------------
# the exact sweep
# ---------------------------------------------------------------------------


def test_npresl_constant_game_reaches_zero_loss():
    n = 4
    g = build_quiet(
        n=n, m=2, d=1, gamma=0.1, W=1.0, f=np.ones((n, 1, 2)),
        utility=LinearUtility(np.zeros((n, 2)), np.zeros((n, 2, 1))),
        loss=np.zeros((n, 2)),
    )
    res = npresl(g, zeta=1.0, alpha=0.2, beta=0.1, src=NoiseSource(0))
    assert not res.aborted
    assert res.witness_loss == pytest.approx(0.0, abs=1e-9)
    assert profile_loss(g, res.profile) == 0.0
    assert res.sampling_slack == pytest.approx(
        math.sqrt(n * 0.01 / 2 * math.log(4.0 / 0.1)), rel=1e-15
    )


def test_npresl_tracks_brute_force_optimum():
    alpha = 0.12
    for seed in (0, 1, 2):
        g = generate("linear", 40 + seed, n=5, m=2, d=1, gamma=0.1)
        zeta = existence_bound(5, 2, 0.1)
        brute = brute_force_equilibria(g, zeta)
        opt = brute.min_loss(g)
        assert math.isfinite(opt)
        res = npresl(g, zeta=zeta, alpha=alpha, beta=0.1, src=NoiseSource(seed))
        assert not res.aborted
        assert res.feasible_points >= 1
        # bisection lands within alpha/10 of the least feasible level and the
        # witness's loss margin adds at most alpha + tol on top of it
        assert res.witness_loss <= opt + 1.1 * alpha + 2 * alpha / 10


def test_npresl_nash_bound_is_the_construction_bound():
    alpha, beta = 0.12, 0.1
    for seed, n in ((19, 4), (20, 5), (0, 6)):
        g = generate("linear", 650 + seed, n=n, m=2, d=1, gamma=0.1)
        zeta = existence_bound(n, 2, 0.1)
        res = npresl(g, zeta=zeta, alpha=alpha, beta=beta, src=NoiseSource(seed))
        assert not res.aborted
        xi = zeta + g.gamma + 2 * alpha
        assert res.nash_bound == pytest.approx(
            xi + 2 * (alpha + alpha / 10 + res.sampling_slack) + g.gamma_eff, rel=1e-15
        )
        assert regret(g, res.profile).max_regret <= res.nash_bound


def test_npresl_loss_is_monotone_in_zeta():
    g = generate("linear", 60, n=5, m=2, d=1, gamma=0.1)
    alpha = 0.12
    zeta = existence_bound(5, 2, 0.1)
    lo = npresl(g, zeta=zeta, alpha=alpha, beta=0.1, src=NoiseSource(0))
    hi = npresl(g, zeta=2 * zeta, alpha=alpha, beta=0.1, src=NoiseSource(0))
    assert hi.witness_loss <= lo.witness_loss + 0.21 * alpha


def assert_same_npresl(res, ref):
    """Every published npresl field equal bit for bit (dtype, shape, bytes;
    floats by repr, so -0.0 differs from 0.0)."""
    assert res.aborted == ref.aborted
    for name in ("profile", "p_bar", "s_hat"):
        a, b = getattr(res, name), getattr(ref, name)
        if b is None:
            assert a is None, name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for name in ("y_star", "witness_loss", "feasible_points", "nash_bound", "sampling_slack"):
        assert repr(getattr(res, name)) == repr(getattr(ref, name)), name


def test_npresl_matches_the_per_point_reference():
    # d = 1 games at n = 4-6 and one d = 2 game; the stacked sweep publishes
    # what one solo LP per point and level gives, with best witnesses found
    # at the zero level (y_star = 0) and by bisection
    zero_level = set()
    for seed, n, d, alpha in ((40, 4, 1, 0.12), (41, 5, 1, 0.12), (42, 6, 1, 0.12),
                              (43, 4, 1, 0.12), (3, 4, 2, 0.15)):
        g = generate("linear", seed, n=n, m=2, d=d, gamma=0.1)
        zeta = existence_bound(n, 2, 0.1)
        res = npresl(g, zeta=zeta, alpha=alpha, beta=0.1, src=NoiseSource(seed))
        assert not res.aborted
        assert_same_npresl(res, reference_npresl(g, zeta, alpha, 0.1, NoiseSource(seed)))
        zero_level.add(res.y_star == 0.0)
    assert zero_level == {True, False}


def test_npresl_abort_and_final_witness_paths_match_the_reference(monkeypatch):
    # no valid game reaches these two paths: a point that passes its probe
    # passes the bisection's last level, whose loss row never binds. So the
    # same wrapped oracle drives npresl and the per-point reference
    g = generate("linear", 41, n=4, gamma=0.1)
    zeta, alpha, cap = existence_bound(4, 2, 0.1), 0.12, g.n * g.gamma
    levels = []

    def no_inner_level(game, s_hat, y_hat, xi, tol):
        # a loss level strictly inside (0, n gamma) reads infeasible, so every
        # point that misses the zero level falls through to the final solve
        res = exact_lp_min(game, s_hat, y_hat, xi, tol)
        if y_hat is not None:
            y = np.asarray(y_hat)
            levels.append(y)
            res.value = np.where((y > 0.0) & (y < cap), np.inf, res.value)
        return res

    def nothing_feasible(game, s_hat, y_hat, xi, tol):
        res = exact_lp_min(game, s_hat, y_hat, xi, tol)
        res.value = res.value + 1.0
        return res

    runs = []
    for oracle in (no_inner_level, nothing_feasible):
        monkeypatch.setattr(presl_mod, "exact_lp_min", oracle)
        runs.append(npresl(g, zeta=zeta, alpha=alpha, beta=0.1, src=NoiseSource(5)))
        assert_same_npresl(runs[-1], reference_npresl(g, zeta, alpha, 0.1, NoiseSource(5), oracle))
    final, aborted = runs
    # the final solve ran as one stacked call at the top level n gamma
    assert not final.aborted and final.y_star == cap
    assert any(y.ndim == 1 and (y == cap).all() for y in levels)
    assert aborted.aborted and aborted.feasible_points == 0 and aborted.profile is None


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_npresl_slices_of_its_grid_publish_the_unsliced_result(monkeypatch, cap):
    # npresl holds the LP state of one slice of its grid at a time; with
    # slices of 1-3 points, every field still equals the one-slice run's, and
    # no stack of exact LPs exceeds the slice. The d = 1 game finds its best
    # witness by bisection, the d = 2 game at the zero level.
    for seed, n, d, alpha in ((41, 5, 1, 0.12), (3, 4, 2, 0.15)):
        g = generate("linear", seed, n=n, m=2, d=d, gamma=0.1)
        zeta = existence_bound(n, 2, 0.1)
        cells = (2 * math.ceil(g.W / alpha - 1e-12)) ** d
        assert cap < cells <= presl_mod._NPRESL_SLICE
        whole = npresl(g, zeta=zeta, alpha=alpha, beta=0.1, src=NoiseSource(seed))
        stacks = []

        def counted(game, s_hat, *args):
            stacks.append(len(np.atleast_2d(s_hat)))
            return exact_lp_min(game, s_hat, *args)

        with monkeypatch.context() as patch:
            patch.setattr(presl_mod, "exact_lp_min", counted)
            patch.setattr(presl_mod, "_NPRESL_SLICE", cap)
            sliced = npresl(g, zeta=zeta, alpha=alpha, beta=0.1, src=NoiseSource(seed))
        assert not whole.aborted
        assert_same_npresl(sliced, whole)
        assert max(stacks) <= cap and len(stacks) > cells // cap


def test_submodule_patch_reaches_the_solver(monkeypatch):
    # the package namespace holds only submodules and __version__, so
    # privagg.presl is the module and a name patched on it is the one npresl reads
    assert all(isinstance(v, types.ModuleType)
               for k, v in vars(privagg).items() if not k.startswith("__"))
    assert isinstance(presl_mod, types.ModuleType)
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.atleast_2d(args[1])[:, 0])  # the stacked points' first axis
        return exact_lp_min(*args, **kwargs)

    monkeypatch.setattr(presl_mod, "exact_lp_min", counting)
    g = generate("linear", 70, n=4, m=2, d=1, gamma=0.1)  # W = 0.4: 4 grid points
    alpha = 0.2
    res = presl_mod.npresl(g, zeta=1.0, alpha=alpha, beta=0.1, src=NoiseSource(0))
    assert not res.aborted
    assert len({float(s) for c in calls for s in c}) == 4
    # probes, zero level, one call per bisection step, final witnesses: the
    # count does not grow with the grid
    for alpha in (0.2, 0.05):
        calls.clear()
        presl_mod.npresl(g, zeta=1.0, alpha=alpha, beta=0.1, src=NoiseSource(0))
        width, steps = g.n * g.gamma, 0
        while width > alpha / 10.0:
            width, steps = width / 2.0, steps + 1
        assert len(calls[0]) == len(np.unique(np.concatenate(calls)))
        assert len(calls) <= 2 + steps + 1


def test_npresl_validation():
    g = generate("linear", 70, n=4, m=2, d=1, gamma=0.1)
    with pytest.raises(ParameterError):
        npresl(g, zeta=1.0, alpha=0.0, beta=0.1, src=NoiseSource(0))
    with pytest.raises(ParameterError):
        npresl(g, zeta=-1.0, alpha=0.1, beta=0.1, src=NoiseSource(0))
    free = generate("linear", 71, n=4, m=2, d=1, gamma=0.1, with_loss=False)
    with pytest.raises(ParameterError):
        npresl(free, zeta=1.0, alpha=0.1, beta=0.1, src=NoiseSource(0))
    with pytest.raises(BudgetError, match="80000000 points"):
        npresl(g, zeta=1.0, alpha=1e-8, beta=0.1, src=NoiseSource(0))
