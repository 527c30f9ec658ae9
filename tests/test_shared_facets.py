"""Facets that every player shares are stored once, with every output bit
for bit what the per-player tensor gives.

Markets, anonymous games and threshold games give every player the same
(d, m) facet block. ``AggregativeGame`` keeps that block once and exposes
``f`` as a read-only zero-stride (n, d, m) view; the readers work on the
block. Each reader is checked here against the same reader run on a
``dense_twin``, whose ``f`` is the C-ordered copy the game held before, so
the references are the per-player paths. A d = 5 market then runs stage 2
in a fraction of the memory its facet tensors took.
"""

import json

import numpy as np
import pytest

from privagg import lp_core
from privagg.cli import main as cli_main
from privagg.dp_core import NoiseSource, ParameterError
from privagg.game_core import (
    LinearUtility,
    aggregator,
    expected_aggregator,
    game_from_json,
    game_to_json,
    regret,
    sample_action,
    sample_profile,
    shared_facets,
)
from privagg.harness import generate
from privagg.lp_core import (
    DistMWParams,
    FeasibilityLP,
    build_slack_lp,
    distmw_solve,
    exact_lp_min,
    replay_mw_player,
    slack_rows,
)
from privagg.market import MarketUtility, to_aggregative

from conftest import (
    build_quiet, dense_twin, flat_take_aggregator, peak_traced_bytes, reference_regret,
)

OFF = NoiseSource.NOISE_OFF


def shared_game(kind):
    """One game of each generator kind that shares its facets; a "-json"
    suffix reads the game back from its JSON text."""
    base = kind.removesuffix("-json")
    if base == "market-d1":
        game = to_aggregative(generate("market", 7, n=50, d=1))
    elif base == "market-d2":
        game = to_aggregative(generate("market", 8, n=40, d=2))
    elif base == "market-d3":
        game = to_aggregative(generate("market", 9, n=30, d=3))
    elif base == "anonymous":
        game = generate("anonymous", 10, n=30, m=3)
    elif base == "anonymous-m1":  # one action: einsum's own layout
        game = generate("anonymous", 11, n=6, m=1)
    elif base == "one-player":
        game = generate("anonymous", 12, n=1, m=3, gamma=0.5)
    else:
        game = generate("threshold", 13, n=40).base
    return game_from_json(game_to_json(game)) if kind.endswith("-json") else game


KINDS = ["market-d1", "market-d2", "market-d3", "anonymous", "anonymous-m1", "one-player",
         "threshold"]
KINDS += [f"{kind}-json" for kind in KINDS]


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def profiles(game, rng):
    """Pure profiles, and mixed ones: uniform, random, and point masses."""
    pure = [rng.integers(0, game.m, size=game.n) for _ in range(3)]
    mixed = [np.full((game.n, game.m), 1.0 / game.m),
             rng.dirichlet(np.ones(game.m), size=game.n),
             np.eye(game.m)[pure[0]]]
    return pure, mixed


@pytest.mark.parametrize("kind", KINDS)
def test_a_shared_block_is_stored_once_and_read_only(kind):
    game = shared_game(kind)
    block = shared_facets(game)
    assert block is not None and block.shape == (game.d, game.m)
    assert game.f.shape == (game.n, game.d, game.m) and game.f.strides[0] == 0
    assert np.shares_memory(game.f, block) and game.f.base is not None
    with pytest.raises(ValueError, match="read-only"):
        game.f[0, 0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 0.5
    assert game_to_json(game) == game_to_json(dense_twin(game))


def test_per_player_facets_stay_one_c_ordered_array():
    for game in (generate("linear", 3, n=20, m=3, d=2), generate("linear", 4, n=2, m=2)):
        assert shared_facets(game) is None
        assert game.f.flags.c_contiguous and game.f.flags.writeable
    # one bit apart is per player: -0.0 and 0.0 differ
    f = np.zeros((3, 1, 2))
    f[2, 0, 1] = -0.0
    g = build_quiet(n=3, m=2, d=1, gamma=0.1, W=1.0, f=f,
                    utility=LinearUtility(np.zeros((3, 2)), np.zeros((3, 2, 1))))
    assert shared_facets(g) is None and g.f.flags.c_contiguous
    assert game_to_json(g) == game_to_json(dense_twin(g))


def test_sharing_is_read_from_the_facets_and_never_aliases_the_input():
    n = 4
    utility = LinearUtility(np.zeros((n, 2)), np.zeros((n, 2, 1)))
    block = np.array([[0.25, -0.5]])
    for f in (np.tile(block, (n, 1, 1)), np.broadcast_to(block, (n, 1, 2))):
        g = build_quiet(n=n, m=2, d=1, gamma=0.1, W=1.0, f=f, utility=utility)
        assert shared_facets(g) is not None and not np.shares_memory(g.f, f)
    block[0, 0] = 0.75  # the caller's array, not the game's
    assert g.f[3, 0, 0] == 0.25
    for bad in (np.nan, 1.5):  # a shared block is checked like per-player facets
        with pytest.raises(ParameterError, match="facet values"):
            build_quiet(n=n, m=2, d=1, gamma=0.1, W=1.0,
                        f=np.broadcast_to([[bad, 0.0]], (n, 1, 2)), utility=utility)
    with pytest.raises(ParameterError, match="increase W"):
        build_quiet(n=n, m=2, d=1, gamma=0.3, W=1.0,
                    f=np.broadcast_to([[1.0, 0.0]], (n, 1, 2)), utility=utility)


@pytest.mark.parametrize("kind", KINDS)
def test_aggregates_match_the_per_player_tensor(kind):
    game = shared_game(kind)
    twin = dense_twin(game)
    rng = np.random.Generator(np.random.PCG64(21))
    pure, mixed = profiles(game, rng)
    for x in pure:
        assert bits(aggregator(game, x)) == bits(flat_take_aggregator(twin.f, game.gamma, x))
    for p in mixed:
        want = game.gamma * np.einsum("ikj,ij->k", twin.f, p)
        assert bits(expected_aggregator(game, p)) == bits(want)
        assert bits(expected_aggregator(twin, p)) == bits(want)


@pytest.mark.parametrize("n,d,m", [
    (2, 1, 2), (3, 2, 5), (50, 1, 3), (40, 2, 9), (30, 3, 27), (7, 5, 243), (20_000, 1, 3),
    (2_000, 2, 9), (300, 4, 81), (64, 3, 1), (1, 2, 7),
])
def test_expected_aggregator_sums_like_einsum_on_the_tensor(n, d, m):
    # the shared path repeats einsum's two sequential sums (actions, then
    # players); the benchmark's market shapes and random blocks pin it
    rng = np.random.Generator(np.random.PCG64(n * 1000 + d * 100 + m))
    utility = LinearUtility(np.zeros((n, m)), np.zeros((n, m, d)))
    for block in (rng.uniform(-1.0, 1.0, size=(d, m)), rng.integers(-1, 2, size=(d, m)) * 1.0):
        game = build_quiet(n=n, m=m, d=d, gamma=1.0 / n, W=float(d), f=np.broadcast_to(block, (n, d, m)),
                           utility=utility)
        dense = np.ascontiguousarray(game.f)
        for p in (np.full((n, m), 1.0 / m), rng.dirichlet(np.ones(m), size=n)):
            want = game.gamma * np.einsum("ikj,ij->k", dense, p)
            assert bits(expected_aggregator(game, p)) == bits(want)


def dense_lp(lp):
    """The LP with its constraint tensor as a C-ordered copy."""
    return FeasibilityLP(gamma=lp.gamma, cons_f=np.ascontiguousarray(lp.cons_f),
                         cons_b=lp.cons_b, supports=lp.supports)


@pytest.mark.parametrize("kind", KINDS)
def test_slack_lps_and_their_solves_match_the_per_player_tensor(kind):
    game = shared_game(kind)
    twin = dense_twin(game)
    p_uniform = np.full((game.n, game.m), 1.0 / game.m)
    s_hat = expected_aggregator(game, p_uniform)
    lp = build_slack_lp(game, s_hat, None, xi=2.0, slack=0.5)
    ref = build_slack_lp(twin, s_hat, None, xi=2.0, slack=0.5)
    assert lp.cons_f.strides[1] == 0 and not lp.cons_f.flags.writeable
    assert bits(lp.cons_f) == bits(slack_rows(twin.f.transpose(1, 0, 2)))
    assert bits(lp.cons_f) == bits(ref.cons_f) and ref.cons_f.flags.c_contiguous
    assert bits(lp.cons_b) == bits(ref.cons_b) and bits(lp.supports) == bits(ref.supports)
    for p in profiles(game, np.random.Generator(np.random.PCG64(22)))[1]:
        assert bits(lp.margins(p)) == bits(ref.margins(p))
    # the loss row is per player: that tensor stays whole
    if game.loss is not None:
        with_loss = build_slack_lp(game, s_hat, 0.5, xi=2.0, slack=0.5)
        assert bits(with_loss.cons_f) == bits(slack_rows(twin.f.transpose(1, 0, 2), twin.loss))
    prm = DistMWParams.for_game(game, epsilon=1.0, delta=0.05, alpha=1.0, beta=0.1)
    for src in (lambda: NoiseSource(31), lambda: NoiseSource(0, OFF)):
        res, want = distmw_solve(lp, prm, src()), distmw_solve(ref, prm, src())
        assert res.transcript == want.transcript and bits(res.p_bar) == bits(want.p_bar)
        assert res.ledger.entries == want.ledger.entries
        profile = sample_profile(game, res.p_bar, src().child("sample"))
        assert bits(profile) == bits(sample_profile(twin, want.p_bar, src().child("sample")))
        transcript = np.asarray(res.transcript)
        for i in sorted({0, game.n // 2, game.n - 1}):
            row = replay_mw_player(lp.cons_f[:, i, :], lp.supports[i], prm, transcript)
            assert bits(row) == bits(res.p_bar[i])
            assert sample_action(row, src().child("sample").child(i)) == profile[i]
    x = profile
    assert bits(regret(game, x).per_player) == bits(reference_regret(twin, x).per_player)


@pytest.mark.parametrize("kind", ["anonymous", "market-d2-json", "threshold"])
def test_exact_lp_stacks_match_the_per_player_tensor(kind):
    game = shared_game(kind)
    twin = dense_twin(game)
    points = np.stack([np.zeros(game.d), np.full(game.d, 0.1 * game.W)])
    tol = 0.1 * game.n * game.gamma
    res = exact_lp_min(game, points, None, 0.5, tol)
    want = exact_lp_min(twin, points, None, 0.5, tol)
    for name in ("value", "witness", "upper", "lower"):
        assert bits(getattr(res, name)) == bits(getattr(want, name)), name
    assert res.rounds == want.rounds


def test_player_classes_of_shared_rows_come_from_the_supports():
    game = shared_game("anonymous")
    s_hat = expected_aggregator(game, np.full((game.n, game.m), 1.0 / game.m))
    for xi in (0.02, 0.05, 2.0):
        lp = build_slack_lp(game, s_hat, None, xi=xi, slack=0.5)
        got = lp_core._player_classes(lp)
        want = lp_core._player_classes(dense_lp(lp))
        for a, b in zip(got, want):
            assert bits(a) == bits(b)
        _, labels = np.unique(lp.supports, axis=0, return_inverse=True)
        assert len(got[0]) == labels.max() + 1


def market_json(n=6, d=1, lam=4.0, f=None, gamma=None):
    """A market game file's payload, with its facets or gamma replaced."""
    payload = json.loads(game_to_json(to_aggregative(generate("market", 3, n=n, d=d, lam=lam))))
    if f is not None:
        payload["f"] = f
    if gamma is not None:
        payload["gamma"] = gamma
    return json.dumps(payload)


def test_market_files_must_carry_the_markets_own_aggregator(tmp_path, capsys):
    n = 6
    game = game_from_json(market_json(n=n, d=2))
    assert bits(shared_facets(game)) == bits(game.utility.pay_table.T)
    # zero facets and gamma = 0.01 at lambda = 4: the aggregator is not the
    # market's, and market-sim ran a lambda = 4 market from such a file
    zero = market_json(n=n, f=np.zeros((n, 1, 3)).tolist(), gamma=0.01)
    with pytest.raises(ParameterError, match="portfolios"):
        game_from_json(zero)
    (tmp_path / "zero.json").write_text(zero)
    assert cli_main(["market-sim", "--game", str(tmp_path / "zero.json"), "--trials", "2",
                     "--out", str(tmp_path / "out.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err and not (tmp_path / "out.json").exists()
    with pytest.raises(ParameterError, match="gamma must be 1 / lambda"):
        game_from_json(market_json(n=n, gamma=0.01))
    per_player = np.broadcast_to([[-1.0, 0.0, 1.0]], (n, 1, 3)).copy()
    per_player[-1, 0] = [1.0, 0.0, -1.0]  # one trader's portfolios reversed
    with pytest.raises(ParameterError, match="portfolios"):
        game_from_json(market_json(n=n, f=per_player.tolist()))
    u = MarketUtility(lam=4.0, d=1, valuations=np.zeros((n, 3)))
    with pytest.raises(ParameterError, match="portfolios"):
        build_quiet(n=n, m=3, d=1, gamma=0.25, W=1.5,
                    f=np.broadcast_to([[1.0, 0.0, -1.0]], (n, 1, 3)), utility=u)


def test_a_d5_market_runs_stage_two_without_its_facet_tensors():
    # n = 2,000 traders over 3^5 = 243 portfolios: the per-player facet tensor
    # is 19.4 MB and the slack LP's 38.9 MB; the valuations are 3.9 MB
    market = generate("market", 5, n=2_000, d=5)

    def stage_two():
        game = to_aggregative(market)
        lp = build_slack_lp(game, np.zeros(game.d), None, xi=2.0, slack=1.0)
        prm = DistMWParams.for_game(game, epsilon=1.0, delta=0.05, alpha=1.0, beta=0.1)
        res = distmw_solve(lp, prm, NoiseSource(3).child("mw"))
        return sample_profile(game, res.p_bar, NoiseSource(3).child("sample"))

    profile, peak = peak_traced_bytes(stage_two)
    assert profile.shape == (2_000,)
    assert peak < 25_000_000
