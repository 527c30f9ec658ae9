"""The best-response kernel and the regret oracle against plain references.

``abr_profile`` reduces over the actions one column at a time, and
``aggregator`` gathers the chosen facets with one flat ``take``. Both must
match the direct numpy routes in conftest bit for bit on every built-in
evaluator, exact ties included; so must the best-response aggregate
S(BR(s)): ``V``'s float and one-point calls on the d = 1 games,
``aggregator(abr_profile(s))`` on the others, and ``V`` at every grid
point of five d = 1 games. Each evaluator's
per-player row must also equal the matching row of its matrix bit for bit.
``regret`` builds its deviation aggregates in blocks of players and must
match the one-deviation-at-a-time loop in conftest bit for bit, with one
block or many.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from privagg import game_core
from privagg.dp_core import ParameterError
from privagg.game_core import (
    LinearUtility,
    TableUtility,
    abr_profile,
    abr_set,
    aggregator,
    first_argmax,
    grid_steps,
    regret,
)
from privagg.harness import generate
from privagg.market import to_aggregative
from privagg.onedim import QuasiAggregativeGame, V, make_optin_game, s_extremes

from conftest import (
    build_quiet, peak_traced_bytes, reference_abr_profile, reference_aggregator, reference_regret,
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def with_tied_rows(game):
    """``game`` with player 0 paying the same for every action at every s,
    and player 1 paying 0.0 or -0.0 by action (w = 0, c = [0.0, -0.0, ...])."""
    c, w = game.utility.c.copy(), game.utility.w.copy()
    c[0], w[0] = c[0, 0], w[0, 0]
    c[1] = np.where(np.arange(game.m) % 2, -0.0, 0.0)
    w[1] = 0.0
    return build_quiet(
        n=game.n, m=game.m, d=game.d, gamma=game.gamma, W=game.W, f=game.f,
        utility=LinearUtility(c, w),
    )


def table_game(seed: int, d: int, n: int = 40, m: int = 3):
    """Random value tables on five nodes over [-1, 1]; adjacent nodes differ
    by at most 0.5, the node spacing. Player 0's actions share one table."""
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = np.linspace(-1.0, 1.0, 5)
    values = rng.uniform(-0.25, 0.25, size=(n, m) + (5,) * d)
    values[0] = values[0, 0]
    f = rng.uniform(-1.0, 1.0, size=(n, d, m))
    return build_quiet(
        n=n, m=m, d=d, gamma=1.0 / n, W=1.0, f=f, utility=TableUtility(grid, values),
    )


def evaluator_games():
    """name -> (game, aggregator points to evaluate it at)."""
    rng = np.random.Generator(np.random.PCG64(20261019))
    games = {}
    for d in (1, 2, 3):
        games[f"linear-d{d}"] = with_tied_rows(generate("linear", 40 + d, n=60, m=3, d=d))
    for d in (1, 2):
        games[f"table-d{d}"] = table_game(50 + d, d)
        games[f"market-d{d}"] = to_aggregative(generate("market", 60 + d, n=40, d=d))
    games["threshold"] = make_optin_game(50, rng.uniform(0.0, 1.0, size=50)).base
    out = {}
    for name, g in games.items():
        points = [rng.uniform(-g.W, g.W, size=g.d) for _ in range(8)]
        points += [np.zeros(g.d), np.full(g.d, -g.W / 3)]
        if name == "threshold":
            # at s = T_i player i is indifferent: the row is [0.0, -0.0]
            points += [np.array([t]) for t in g.utility.thresholds[:10]]
        out[name] = (g, points)
    return out


@pytest.mark.parametrize("name", sorted(evaluator_games()))
def test_abr_profile_and_aggregator_match_the_references(name):
    g, points = evaluator_games()[name]
    rng = np.random.Generator(np.random.PCG64(7))
    ties = 0
    for s in points:
        x = abr_profile(g, s)
        assert same_bits(x, reference_abr_profile(g, s))
        vals = g.utility.value_matrix(s)
        ties += int(np.sum(vals.max(axis=1) == np.sort(vals, axis=1)[:, -2]))
        for profile in (x, rng.integers(0, g.m, size=g.n)):
            assert same_bits(aggregator(g, profile), reference_aggregator(g, profile))
    if not name.startswith("market"):
        assert ties > 0  # the exact-tie rows were exercised


def test_first_argmax_takes_the_lowest_index_on_ties():
    rows = np.array([
        [0.0, -0.0, 0.0],
        [-0.0, 0.0, -0.0],
        [0.5, 0.5, 0.5],
        [-1.0, 2.0, 2.0],
        [3.0, -4.0, 3.0],
        [-np.inf, -np.inf, 1.0],
    ])
    assert first_argmax(rows).tolist() == [0, 0, 0, 1, 0, 2]
    assert same_bits(first_argmax(rows), np.argmax(rows, axis=1).astype(np.int64))
    rng = np.random.Generator(np.random.PCG64(3))
    for m in (1, 2, 3, 7):
        coarse = rng.integers(-2, 3, size=(500, m)).astype(float)
        assert same_bits(first_argmax(coarse), np.argmax(coarse, axis=1).astype(np.int64))
        mask = coarse > 0
        assert same_bits(first_argmax(mask), np.argmax(mask, axis=1).astype(np.int64))


@pytest.mark.parametrize("name", sorted(evaluator_games()))
def test_best_response_aggregate_matches_the_references(name):
    g, points = evaluator_games()[name]
    for s in points:
        want = reference_aggregator(g, reference_abr_profile(g, s))
        if g.d == 1:
            q = QuasiAggregativeGame(g)
            assert same_bits(V(q, float(s[0])), float(want[0]))
            assert same_bits(V(q, s), want)
            assert same_bits(V(q, s.tolist()), want)
        else:
            assert same_bits(aggregator(g, abr_profile(g, s)), want)


@pytest.mark.parametrize(
    "kind", ["threshold", "linear", "linear-d1", "table-d1", "market-d1"]
)
def test_V_matches_the_references_at_every_grid_point(kind):
    if kind == "threshold":
        q = generate("threshold", 11, n=300)
    elif kind == "linear":
        q = QuasiAggregativeGame(generate("linear", 12, n=300, m=2))
    else:  # the exact-tie linear game, a value table and a market
        q = QuasiAggregativeGame(evaluator_games()[kind][0])
    alpha = 0.01
    K = grid_steps(q.W, alpha)
    for k in range(-K, K):
        s = np.array([k * alpha])
        want = reference_aggregator(q.base, reference_abr_profile(q.base, s))[0]
        assert same_bits(V(q, k * alpha), float(want))


@pytest.mark.parametrize("name", sorted(evaluator_games()) + ["linear-d10"])
def test_player_rows_equal_the_value_matrix_rows(name):
    if name == "linear-d10":
        g = generate("linear", 70, n=50, m=3, d=10)
        rng = np.random.Generator(np.random.PCG64(71))
        points = [rng.uniform(-g.W, g.W, size=g.d) for _ in range(6)]
    else:
        g, points = evaluator_games()[name]
    for s in points:
        matrix = g.utility.value_matrix(s)
        for i in range(g.n):
            assert same_bits(g.utility.values_for_player(i, s), matrix[i])


def test_non_finite_aggregator_values_and_widths_are_refused():
    q = generate("threshold", 1, n=50)
    g = q.base
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="finite"):
            abr_set(g, 0, [0.2], bad)
        with pytest.raises(ParameterError, match="finite"):
            abr_set(g, 0, [bad], 0.1)
        with pytest.raises(ParameterError, match="finite"):
            s_extremes(q, 0.2, bad)
        with pytest.raises(ParameterError, match="finite"):
            s_extremes(q, bad, 0.1)
        with pytest.raises(ParameterError, match="finite"):
            V(q, bad)
        with pytest.raises(ParameterError, match="finite"):
            V(q, [bad])
        with pytest.raises(ParameterError, match="finite"):
            abr_profile(g, [bad])
    with pytest.raises(ParameterError, match="shape"):
        abr_profile(g, [0.2, 0.3])
    with pytest.raises(ParameterError, match="shape"):
        abr_set(g, 0, 0.2, 0.1)


def regret_profiles(g, points, rng):
    """Random profiles, and the best responses at two points, where many
    players have no gain (some through exact ties)."""
    profiles = [rng.integers(0, g.m, size=g.n) for _ in range(3)]
    return profiles + [abr_profile(g, s) for s in points[-2:]]


def same_regret(got, want) -> bool:
    return same_bits(got.per_player, want.per_player) and same_bits(
        got.max_regret, want.max_regret
    )


@pytest.mark.parametrize("cells", [None, 7])
@pytest.mark.parametrize("name", sorted(evaluator_games()))
def test_regret_matches_the_reference_loop(name, cells, monkeypatch):
    # cells = 7 leaves blocks of one to three players, so n = 40-60 spans
    # many blocks; None keeps the default, one block for these games
    if cells is not None:
        monkeypatch.setattr(game_core, "_REGRET_BLOCK_CELLS", cells)
    g, points = evaluator_games()[name]
    block = max(1, game_core._REGRET_BLOCK_CELLS // (g.m * g.d))
    assert (block < g.n) == (cells is not None)
    rng = np.random.Generator(np.random.PCG64(11))
    for x in regret_profiles(g, points, rng):
        assert same_regret(regret(g, x), reference_regret(g, x))


@dataclass(frozen=True)
class FlatUtility:
    """u_i(a, s) = c[i, a] whatever s is: the cheapest evaluator, so a large
    game costs the oracle nothing beyond its own arrays."""

    c: np.ndarray

    def value_matrix(self, s):
        return self.c

    def values_for_player(self, i, s):
        return self.c[i]


def test_regret_works_in_blocks_and_never_copies_the_facets():
    n, m, d = 1000, 64, 16
    rng = np.random.Generator(np.random.PCG64(5))
    c = rng.uniform(-1.0, 1.0, size=(n, m))
    g = build_quiet(n=n, m=m, d=d, gamma=1.0 / n, W=1.0,
                    f=rng.uniform(-1.0, 1.0, size=(n, d, m)), utility=FlatUtility(c))
    x = rng.integers(0, m, size=n)
    block_bytes = game_core._REGRET_BLOCK_CELLS * 8
    assert g.f.nbytes > 6 * block_bytes  # 32 blocks of 32 players
    rep, peak = peak_traced_bytes(regret, g, x)
    assert peak < 1.5 * block_bytes
    # deviations do not move a flat payoff: the gain is the best row entry
    assert same_bits(rep.per_player, c.max(axis=1) - c[np.arange(n), x])
