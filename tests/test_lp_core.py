"""Private LP dynamics and the exact query-side solver."""

import hashlib
import math

import numpy as np
import pytest

from privagg import lp_core
from privagg.dp_core import BudgetError, NoiseSource
from privagg.game_core import ParameterError, expected_aggregator, utility_matrix
from privagg.harness import generate
from privagg.lp_core import (
    DegenerateError,
    DistMWParams,
    FeasibilityLP,
    build_slack_lp,
    distmw_solve,
    exact_lp_min,
    most_violated,
    mw_accuracy_bound,
    replay_mw_player,
    slack_rows,
)

from privagg.market import to_aggregative

from conftest import (
    compose_adaptive, recurrence_exact_lp_min, reference_distmw_solve, reference_mw_iterate,
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
    p = np.full((2, 2), 0.5)
    off = NoiseSource(0, NoiseSource.NOISE_OFF)
    k, margin = most_violated(lp, p, 1.0, off)
    assert (k, margin) == (0, pytest.approx(0.5))

    # lowest index wins ties under noise_off
    tie = FeasibilityLP(gamma=gamma, cons_f=np.stack([f[0], f[0]]),
                        cons_b=np.array([0.5, 0.5]),
                        supports=np.ones((2, 2), dtype=bool))
    assert most_violated(tie, p, 1.0, off)[0] == 0


def test_most_violated_single_and_errors():
    lp, _ = single_constraint_lp()
    p = np.full((2, 2), 0.5)
    assert most_violated(lp, p, 2.0, NoiseSource(0, NoiseSource.NOISE_OFF))[0] == 0
    assert most_violated(lp, p, 2.0, NoiseSource(1))[0] == 0
    with pytest.raises(ParameterError):
        most_violated(lp, p, 0.0, NoiseSource(1))


# ---------------------------------------------------------------------------
# parameter derivations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_distmw_params_reject_non_finite(bad):
    for key in ("epsilon", "alpha", "gamma"):
        kwargs = dict(epsilon=1.0, delta=0.01, alpha=0.2, beta=0.1, n=2, m=2, gamma=0.3)
        kwargs[key] = bad
        with pytest.raises(ParameterError, match="finite"):
            DistMWParams(**kwargs)


def test_distmw_params_refuse_runaway_dynamics():
    base = dict(epsilon=1.0, delta=0.01, alpha=0.2, beta=0.1, n=2, m=2, gamma=0.3)
    # gamma^2 overflows, alpha^2 underflows to 0: T has no finite size
    for key, value in (("gamma", 1e200), ("alpha", 1e-200)):
        with pytest.raises(BudgetError, match="no finite size"):
            DistMWParams(**{**base, key: value})
    # about 10^8 rounds: a (T, m) replay block over the budget
    with pytest.raises(BudgetError, match="over the budget"):
        DistMWParams(**{**base, "gamma": 30.0, "alpha": 0.02})
    with pytest.raises(ParameterError, match="eta must be finite"):
        DistMWParams(**{**base, "gamma": 1e-310})


def test_distmw_refuses_margins_beyond_the_float_range():
    lp = FeasibilityLP(gamma=0.25, cons_f=np.ones((2, 2, 2)), cons_b=np.array([0.0, -1e307]),
                       supports=np.ones((2, 2), bool))
    prm = DistMWParams(epsilon=1e4, delta=0.05, alpha=0.5, beta=0.1, n=2, m=2, gamma=0.25)
    with pytest.raises(ParameterError, match="scaled_margin must be finite"):
        distmw_solve(lp, prm, NoiseSource(0))


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


def replay_lp(n, m, T, seed, K=4, gamma=0.3):
    """Random K-constraint LP with partial supports whose dynamics run T rounds."""
    rng = np.random.Generator(np.random.PCG64(seed))
    f = rng.uniform(-1.0, 1.0, size=(K, n, m))
    b = rng.uniform(-0.3, 0.3, size=K)
    supports = rng.random((n, m)) < 0.6
    supports[np.arange(n), rng.integers(0, m, size=n)] = True
    lp = FeasibilityLP(gamma=gamma, cons_f=f, cons_b=b, supports=supports)
    # 16 n^2 gamma^2 ln m / alpha^2 = T - 1/2, so the round count is exactly T
    alpha = 4.0 * n * gamma * math.sqrt(math.log(m) / (T - 0.5))
    prm = DistMWParams(epsilon=1.0, delta=0.05, alpha=alpha, beta=0.1,
                       n=n, m=m, gamma=gamma)
    assert prm.T == T
    return lp, prm


def recurrence_row(rows, support, eta, transcript):
    """Average iterate of the plain recurrence p <- p exp(-eta f) / Z."""
    p = support / support.sum()
    accum = np.zeros_like(p)
    for k in transcript:
        accum += p
        w = p * np.exp(-eta * rows[k]) * support
        p = w / w.sum()
    return accum / len(transcript)


@pytest.mark.parametrize("mode", ["noisy", "noise_off"])
@pytest.mark.parametrize("T", [1, 2, 520])
@pytest.mark.parametrize("m", [2, 3, 9])
@pytest.mark.parametrize("n", [1, 2, 60])
def test_replay_bit_exact_matrix(n, m, T, mode):
    # the sum over m actions must not follow the block's shape: at n = 1 and
    # m = 9 a shape-dependent sum is pairwise in the solve and sequential in
    # a T-round replay
    lp, prm = replay_lp(n, m, T, seed=1000 * n + 10 * m + T)
    src = NoiseSource(5) if mode == "noisy" else NoiseSource(0, NoiseSource.NOISE_OFF)
    res = distmw_solve(lp, prm, src)
    assert len(res.transcript) == T
    for i in range(n):
        row = replay_mw_player(lp.cons_f[:, i, :], lp.supports[i], prm, res.transcript)
        assert np.array_equal(row, res.p_bar[i])


def test_replay_agrees_with_plain_recurrence():
    for n, m, seed in [(1, 9, 1), (2, 3, 2), (60, 9, 3)]:
        lp, prm = replay_lp(n, m, 520, seed=seed)
        res = distmw_solve(lp, prm, NoiseSource(seed))
        sup = lp.supports.astype(float)
        for i in range(n):
            plain = recurrence_row(lp.cons_f[:, i, :], sup[i], prm.eta, res.transcript)
            assert np.allclose(res.p_bar[i], plain, rtol=0, atol=1e-12)
            assert np.all(res.p_bar[i][~lp.supports[i]] == 0.0)


def test_replay_stays_finite_at_large_eta_T():
    # eta T = sqrt(T ln m) > 1,000: unshifted weights exp(eta * T) overflow
    n, m, gamma = 1, 3, 1.0
    alpha = 4.0 * n * gamma * math.log(m) / 1100.0
    prm = DistMWParams(epsilon=1.0, delta=0.05, alpha=alpha, beta=0.1,
                       n=n, m=m, gamma=gamma)
    assert prm.eta * prm.T > 1000.0
    rows = np.array([[-1.0, -0.5, -1.0], [0.5, -1.0, -1.0]])
    support = np.array([True, True, False])
    transcript = np.zeros(prm.T, dtype=np.int64)
    transcript[: prm.T // 10] = 1
    row = replay_mw_player(rows, support, prm, transcript)
    assert np.all(np.isfinite(row))
    assert row[2] == 0.0
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    # action 1 leads the cumulative loss until round 0.4 T, action 0 after it
    assert row[0] == pytest.approx(0.6, abs=0.01)


@pytest.mark.parametrize("case", [
    "negative-index", "short-transcript", "float-index", "index-past-K",
    "two-dimensional", "rows-wrong-m", "rows-not-2d", "support-wrong-m",
])
def test_replay_rejects_malformed_inputs(case):
    lp, prm = replay_lp(2, 2, 5, seed=9, K=2)
    res = distmw_solve(lp, prm, NoiseSource(9))
    args = dict(cons_rows=lp.cons_f[:, 0, :], support_row=lp.supports[0],
                transcript=res.transcript)
    args.update({
        "negative-index": dict(transcript=[-1] * prm.T),
        "short-transcript": dict(transcript=res.transcript[:3]),
        "float-index": dict(transcript=[0.7] * prm.T),
        "index-past-K": dict(transcript=[5] * prm.T),
        "two-dimensional": dict(transcript=[res.transcript]),
        "rows-wrong-m": dict(cons_rows=np.zeros((2, 3))),
        "rows-not-2d": dict(cons_rows=np.zeros((2, 2, 1))),
        "support-wrong-m": dict(support_row=np.ones(3, dtype=bool)),
    }[case])
    with pytest.raises(ParameterError):
        replay_mw_player(params=prm, **args)


BAD_ROWS = {"nan": math.nan, "inf": math.inf, "past-one": 1.5, "below-minus-one": -1.01}
BAD_MASKS = {"two": [2, 0, -1], "half": [0.5, 1, 1], "negative": [1, -3, 0],
             "nan": [1.0, math.nan, 0.0]}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
def test_mw_rows_outside_the_unit_range_are_refused(bad):
    # a NaN row gave a NaN replay row, which sampling read as action 0
    rows = np.zeros((2, 3))
    rows[1, 2] = BAD_ROWS[bad]
    lp, prm = replay_lp(1, 3, 5, seed=9, K=2)
    with pytest.raises(ParameterError, match="cons_rows entries must be finite"):
        replay_mw_player(rows, np.ones(3, dtype=bool), prm, [0] * prm.T)
    with pytest.raises(ParameterError, match="cons_f entries must be finite"):
        FeasibilityLP(gamma=0.1, cons_f=rows[:, None, :], cons_b=np.zeros(2),
                      supports=np.ones((1, 3), dtype=bool))


@pytest.mark.parametrize("bad", sorted(BAD_MASKS))
def test_mw_masks_other_than_zero_one_are_refused(bad):
    # bool() read [2, 0, -1] as [True, False, True]
    lp, prm = replay_lp(1, 3, 5, seed=9, K=2)
    with pytest.raises(ParameterError, match="support_row entries must be 0/1"):
        replay_mw_player(lp.cons_f[:, 0, :], BAD_MASKS[bad], prm, [0] * prm.T)
    with pytest.raises(ParameterError, match="supports entries must be 0/1"):
        FeasibilityLP(gamma=lp.gamma, cons_f=lp.cons_f, cons_b=lp.cons_b,
                      supports=[BAD_MASKS[bad]])


def test_zero_one_masks_read_as_their_booleans():
    lp, prm = replay_lp(2, 3, 40, seed=12)
    res = distmw_solve(lp, prm, NoiseSource(4))
    for mask in (lp.supports.astype(np.int64), lp.supports.astype(float)):
        same = FeasibilityLP(gamma=lp.gamma, cons_f=lp.cons_f, cons_b=lp.cons_b, supports=mask)
        assert same.supports.dtype == bool and np.array_equal(same.supports, lp.supports)
        for i in range(2):
            row = replay_mw_player(lp.cons_f[:, i, :], mask[i], prm, res.transcript)
            assert np.array_equal(row, res.p_bar[i])


def uniform_slack_lp(game, xi, alpha=1.0):
    """The slack LP around the uniform profile's aggregator, no loss row, with
    the dynamics' parameters, as the "distmw" solver builds them."""
    s_hat = expected_aggregator(game, np.full((game.n, game.m), 1.0 / game.m))
    lp = build_slack_lp(game, s_hat, None, xi=xi, slack=alpha)
    prm = DistMWParams.for_game(game, epsilon=1.0, delta=0.05, alpha=alpha, beta=0.1)
    return lp, prm


def two_class_lp():
    """Seven players in two classes of sizes 3 and 4, apart in their facets
    and their supports; the first appearances are players 0 and 1."""
    rng = np.random.Generator(np.random.PCG64(77))
    rows = rng.uniform(-1.0, 1.0, size=(2, 5, 3))
    members = np.array([0, 1, 1, 0, 1, 0, 1])
    supports = np.array([[True, True, False], [True, True, True]])[members]
    lp = FeasibilityLP(gamma=0.2, cons_f=rows[members].transpose(1, 0, 2),
                       cons_b=rng.uniform(-0.3, 0.3, size=5), supports=supports)
    prm = DistMWParams(epsilon=1.0, delta=0.05, alpha=0.5, beta=0.1, n=7, m=3, gamma=0.2)
    return lp, prm


def class_family(name):
    """(lp, params, class count) for one family of LPs."""
    if name == "market-d1":
        lp, prm = uniform_slack_lp(to_aggregative(generate("market", 61, n=3000, d=1)), 2.0)
        return lp, prm, 1
    if name == "market-d2":
        lp, prm = uniform_slack_lp(to_aggregative(generate("market", 62, n=400, d=2)), 2.0)
        return lp, prm, 1
    if name in ("market-d3", "market-d4"):  # m = 27 and 81: class rows wider than tall
        d = int(name[-1])
        lp, prm = uniform_slack_lp(to_aggregative(generate("market", 60 + d, n=60, d=d)), 2.0)
        return lp, prm, 1
    if name == "anonymous":
        lp, prm = uniform_slack_lp(generate("anonymous", 63, n=40, m=3), 0.05, alpha=0.3)
        return lp, prm, len(np.unique(lp.supports, axis=0))
    if name == "linear":
        lp, prm = uniform_slack_lp(generate("linear", 64, n=12, m=3, d=2, gamma=0.1), 0.3, alpha=0.3)
        return lp, prm, 12
    lp, prm = two_class_lp()
    return lp, prm, 2


# the class margins count one row n times, the per-player loop sums n rows:
# the two round apart, and at this market's exact noise_off ties the
# lowest-index argmax follows the rounding (the parent commit did the same)
TIE_ROUNDING = pytest.mark.xfail(strict=True, reason="noise_off tie follows margin rounding")


@pytest.mark.parametrize("family,mode", [
    (family, mode)
    for family in ("market-d1", "market-d2", "market-d3", "anonymous", "linear", "two-class")
    for mode in ("noisy", "noise_off")
] + [("market-d4", "noisy"), pytest.param("market-d4", "noise_off", marks=TIE_ROUNDING)])
def test_distmw_classes_match_the_per_player_loop(family, mode):
    lp, prm, n_classes = class_family(family)
    first, inverse, counts = lp_core._player_classes(lp)
    assert len(first) == n_classes and counts.sum() == lp.shape[0]
    assert np.array_equal(inverse[first], np.arange(len(first)))
    if family == "anonymous":
        assert 1 < n_classes < lp.shape[0]
    if family == "two-class":
        assert counts.tolist() == [3, 4]
    src = (lambda: NoiseSource(71)) if mode == "noisy" else (
        lambda: NoiseSource(0, NoiseSource.NOISE_OFF))
    res = distmw_solve(lp, prm, src())
    ref = reference_distmw_solve(lp, prm, src())
    assert res.transcript == ref.transcript
    assert np.array_equal(res.p_bar, ref.p_bar)
    assert res.ledger.entries == ref.ledger.entries
    transcript = np.asarray(res.transcript)
    for i in range(lp.shape[0]):
        row = replay_mw_player(lp.cons_f[:, i, :], lp.supports[i], prm, transcript)
        assert np.array_equal(row, res.p_bar[i])


def test_player_classes_split_on_bits_not_values():
    # -0.0 == 0.0, but the grouping key is the rows' bytes
    f = np.zeros((1, 3, 2))
    f[0, 1, 0] = -0.0
    lp = FeasibilityLP(gamma=0.1, cons_f=f, cons_b=np.zeros(1),
                       supports=np.ones((3, 2), dtype=bool))
    first, inverse, counts = lp_core._player_classes(lp)
    assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]
    assert counts.tolist() == [2, 1]


def shared_rows_lp(n=6, m=4, K=3):
    """n players with one random (K, m) row block and full supports, every
    row with a 0.0 entry at action 1, so a -0.0 there changes only bits."""
    rng = np.random.Generator(np.random.PCG64(88))
    rows = rng.uniform(-1.0, 1.0, size=(K, m))
    rows[:, 1] = 0.0
    return FeasibilityLP(gamma=0.1, cons_f=np.repeat(rows[:, None, :], n, axis=1),
                         cons_b=np.zeros(K), supports=np.ones((n, m), dtype=bool))


def test_player_classes_shortcut_matches_the_grouping_path():
    lp = shared_rows_lp()
    fast = lp_core._player_classes(lp)
    grouped = lp_core._grouped_classes(lp.supports, lp.cons_f.view(np.int64))
    for a, b in zip(fast, grouped):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert [a.tolist() for a in fast] == [[0], [0] * 6, [6]]


@pytest.mark.parametrize("player", [0, 3, 5])
@pytest.mark.parametrize("change", ["negative-zero", "support"])
def test_player_classes_split_off_one_player(change, player):
    lp = shared_rows_lp()
    cons_f, supports = lp.cons_f.copy(), lp.supports.copy()
    if change == "negative-zero":
        cons_f[2, player, 1] = -0.0
    else:
        supports[player, 2] = False
    lp = FeasibilityLP(gamma=lp.gamma, cons_f=cons_f, cons_b=lp.cons_b, supports=supports)
    first, inverse, counts = lp_core._player_classes(lp)
    alone = np.arange(6) == player  # classes are numbered by first appearance
    assert first.tolist() == ([0, 1] if player == 0 else [0, player])
    assert inverse.tolist() == (alone if player else ~alone).astype(int).tolist()
    assert sorted(counts.tolist()) == [1, 5]


def random_cum_block(rng, rows, m):
    """A (rows, m) block of cumulative losses: sums of up to 2,000 facet
    rows, +inf off a random support that keeps at least one action."""
    T = int(rng.integers(0, 2000))
    cum = rng.uniform(-1.0, 1.0, size=(rows, m)) * T
    off = rng.random((rows, m)) < rng.uniform(0.0, 0.8)
    off[np.arange(rows), rng.integers(0, m, size=rows)] = False
    cum[off] = np.inf
    return cum


def log_uniform_int(rng, low, high):
    return int(round(math.exp(rng.uniform(math.log(low), math.log(high)))))


@pytest.mark.parametrize("tall", [False, True])
def test_mw_iterate_matches_the_per_action_loop(tall):
    # each branch of _mw_iterate (fewer rows than actions, or not) against
    # the loop that sums one action at a time; every row must also match
    # the same row iterated alone, as a 1-D row and as a one-row slice
    rng = np.random.Generator(np.random.PCG64(2024 + tall))
    for _ in range(150):
        if tall:
            m = log_uniform_int(rng, 1, 300)
            rows = int(rng.integers(m, 301))
        else:
            m = log_uniform_int(rng, 2, 729)
            rows = int(rng.integers(1, min(300, m - 1) + 1))
        assert (rows < m) != tall
        eta = math.exp(rng.uniform(math.log(1e-3), math.log(5.0)))
        cum = random_cum_block(rng, rows, m)
        want = reference_mw_iterate(cum, eta)
        for block in (cum, np.asfortranarray(cum)):
            assert lp_core._mw_iterate(block, eta).tobytes() == want.tobytes()
            i = int(rng.integers(0, rows))
            for row in (block[i], block[i : i + 1]):
                assert lp_core._mw_iterate(row, eta).tobytes() == want[i].tobytes()


def test_distmw_iterates_on_one_row_per_class(monkeypatch):
    shapes = []

    def spy(cum, eta):
        shapes.append(cum.shape)
        return mw_iterate(cum, eta)

    mw_iterate = lp_core._mw_iterate
    monkeypatch.setattr(lp_core, "_mw_iterate", spy)
    n, m, gamma = 50_000, 3, 1e-4
    rows = np.array([[1.0, -0.5, 0.0], [-1.0, 0.5, 0.0]])
    lp = FeasibilityLP(gamma=gamma, cons_f=np.broadcast_to(rows[:, None, :], (2, n, m)),
                       cons_b=np.array([0.1, 0.2]), supports=np.ones((n, m), dtype=bool))
    alpha = 4.0 * n * gamma * math.sqrt(math.log(m) / 7.5)  # T = 8
    prm = DistMWParams(epsilon=1.0, delta=0.05, alpha=alpha, beta=0.1, n=n, m=m, gamma=gamma)
    res = distmw_solve(lp, prm, NoiseSource(3))
    assert shapes == [(1, m)] * prm.T == [(1, m)] * 8
    assert res.p_bar.shape == (n, m)

    shapes.clear()
    lp, prm = two_class_lp()
    distmw_solve(lp, prm, NoiseSource(3))
    assert shapes == [(2, 3)] * prm.T


def test_distmw_noise_off_is_deterministic_exact_selection():
    lp, _ = single_constraint_lp(gamma=0.2, seed=31, n=3, m=3)
    prm = DistMWParams(epsilon=1.0, delta=0.01, alpha=0.5, beta=0.1,
                       n=3, m=3, gamma=0.2)
    a = distmw_solve(lp, prm, NoiseSource(1, NoiseSource.NOISE_OFF))
    b = distmw_solve(lp, prm, NoiseSource(999, NoiseSource.NOISE_OFF))
    assert np.array_equal(a.p_bar, b.p_bar)
    assert a.transcript == b.transcript

    # reproduce the whole run with exact argmax selection
    p = np.full((3, 3), 1.0 / 3.0)
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


def test_distmw_frozen_market_transcript():
    """One seeded d = 2 market run, pinned bit for bit: a change to the
    exponential mechanism's arithmetic moves the transcript or the average."""
    lp, prm = uniform_slack_lp(to_aggregative(generate("market", 7, n=40, d=2)), 2.0)
    res = distmw_solve(lp, prm, NoiseSource(11))
    assert res.transcript[:16] == [0, 1, 2, 0, 0, 3, 0, 0, 3, 2, 1, 2, 2, 1, 0, 3]
    assert np.bincount(res.transcript).tolist() == [145, 148, 133, 137]
    transcript = np.asarray(res.transcript, dtype=np.int64).tobytes()
    assert hashlib.sha256(transcript).hexdigest() == (
        "a3357fca477ff433eaba1708b2251d711337d00a64bf1dfe9effef512d455d23"
    )
    assert hashlib.sha256(res.p_bar.tobytes()).hexdigest() == (
        "f76350eca04507616ca0342c5c75e396370fb119e318fcd0442db48070b9772b"
    )


def test_distmw_shape_mismatch_rejected():
    lp, _ = single_constraint_lp(n=2, m=2)
    prm = DistMWParams(epsilon=1.0, delta=0.01, alpha=0.3, beta=0.1,
                       n=3, m=2, gamma=0.3)
    with pytest.raises(ParameterError):
        distmw_solve(lp, prm, NoiseSource(0))


def test_distmw_refuses_params_built_for_another_gamma(monkeypatch):
    # params at gamma 0.15 declared half the sensitivity of this gamma-0.3 LP
    lp, _ = single_constraint_lp(gamma=0.3, n=2, m=2)
    prm = DistMWParams(epsilon=1.0, delta=0.01, alpha=0.3, beta=0.1,
                       n=2, m=2, gamma=0.15)

    def untouchable(*args):
        raise AssertionError("selected a constraint past the parameter check")

    monkeypatch.setattr(lp_core, "most_violated", untouchable)
    with pytest.raises(ParameterError, match="gamma"):
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_feasibility_lp_refuses_non_finite_fields(bad):
    # a NaN facet passed the range check and a NaN offset was never checked:
    # either ran every round of the dynamics on NaN margins
    good = dict(gamma=0.1, cons_f=np.zeros((1, 2, 2)), cons_b=np.zeros(1),
                supports=np.ones((2, 2), bool))
    cons_f = np.zeros((1, 2, 2))
    cons_f[0, 1, 0] = bad
    for key, value in (("gamma", bad), ("cons_f", cons_f), ("cons_b", np.array([bad]))):
        with pytest.raises(ParameterError, match="finite"):
            FeasibilityLP(**{**good, key: value})


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_y_hat_is_refused_not_dropped(bad):
    # a NaN y_hat once dropped the loss row silently: exact_lp_min returned
    # 0.0 here, as for y_hat=None, while y_hat=0 gives about 0.245
    g = generate("linear", 3, n=6, gamma=0.1)
    s_hat = np.zeros(1)
    assert exact_lp_min(g, s_hat, 0.0, xi=0.5, tol=0.01).value > 0.2
    with pytest.raises(ParameterError, match="y_hat must be finite"):
        build_slack_lp(g, s_hat, bad, xi=0.5, slack=0.0)
    with pytest.raises(ParameterError, match="y_hat must be finite"):
        exact_lp_min(g, s_hat, bad, xi=0.5, tol=0.01)


def test_slack_rows_layout_shared_by_lp_and_player():
    g = generate("linear", 53, n=4, m=3, d=3)
    s_hat = np.array([0.1, -0.2, 0.3])
    for y_hat, loss in ((0.5, g.loss), (None, None)):
        lp = build_slack_lp(g, s_hat, y_hat, xi=0.1, slack=0.05)
        expect = [g.f[:, 0, :], -g.f[:, 0, :], g.f[:, 1, :], -g.f[:, 1, :],
                  g.f[:, 2, :], -g.f[:, 2, :]] + ([g.loss] if y_hat is not None else [])
        assert np.array_equal(lp.cons_f, np.stack(expect))
        assert lp.cons_f.flags.c_contiguous
        offs = [0.1 + 0.05, -0.1 + 0.05, -0.2 + 0.05, 0.2 + 0.05, 0.3 + 0.05, -0.3 + 0.05]
        assert np.array_equal(lp.cons_b, offs + ([0.5 + 0.05] if y_hat is not None else []))
        for i in range(g.n):
            rows = slack_rows(g.f[i], None if loss is None else loss[i])
            assert np.array_equal(rows, lp.cons_f[:, i, :])


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


@pytest.mark.parametrize("y_hat", [None, 0.05])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_exact_lp_min_matches_the_plain_recurrence(d, m, y_hat):
    # xi = 0.4 leaves most players a partial support, where the closed form
    # must put exactly zero weight and ignore the off-support rows
    xi, tol = 0.4, 0.01
    partial = ran = 0
    for seed in range(4):
        g = generate("linear", 900 + 10 * d + m + seed, n=4, m=m, d=d, gamma=0.15)
        rng = np.random.Generator(np.random.PCG64(seed))
        s_hat = rng.uniform(-0.2, 0.2, size=d)
        lp = build_slack_lp(g, s_hat, y_hat, xi, slack=0.0)
        res = exact_lp_min(g, s_hat, y_hat, xi, tol)
        value, witness, rounds = recurrence_exact_lp_min(g, s_hat, y_hat, xi, tol)
        assert res.rounds == rounds
        assert res.value == value
        assert np.allclose(res.witness, witness, rtol=0, atol=1e-12)
        assert np.all(res.witness[~lp.supports] == 0.0)
        partial += int((~lp.supports).any())
        ran += int(rounds > 16)
    assert partial >= 3 and ran >= 3


def test_exact_lp_min_rejects_bad_tolerance():
    g = generate("linear", 91, n=2, m=2, d=1)
    with pytest.raises(ParameterError):
        exact_lp_min(g, np.zeros(1), None, xi=0.1, tol=0.0)
