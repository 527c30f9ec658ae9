"""Multi-commodity market: pricing, trader payoffs, maker loss, conversion."""

import math

import numpy as np
import pytest

from privagg import market
from privagg.game_core import ParameterError, abr_profile, aggregator, regret, utility_values
from privagg.harness import generate
from privagg.market import (
    MarketGame,
    MarketUtility,
    corollary_eta,
    from_aggregative,
    hinge_price,
    imbalance,
    market_maker_loss,
    market_zeta,
    portfolio_matrix,
    to_aggregative,
)

from conftest import market_regret, trader_utility


def small_market(n=4, d=2, lam=8.0, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    vals = rng.uniform(-d, d, size=(n, 3**d))
    return MarketGame(n=n, d=d, lam=lam, valuations=vals)


def test_portfolio_matrix_ternary_order():
    A = portfolio_matrix(2)
    assert A.shape == (9, 2)
    # least-significant digit first: index j has digit j % 3 in coordinate 0
    assert np.array_equal(A[0], [-1, -1])
    assert np.array_equal(A[1], [0, -1])
    assert np.array_equal(A[2], [1, -1])
    assert np.array_equal(A[4], [0, 0])
    assert np.array_equal(A[8], [1, 1])
    assert sorted(map(tuple, A)) == sorted(
        (a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
    )


def test_imbalance_examples_and_oracle():
    g = small_market(n=3, d=2)
    neutral = np.full(3, 4)  # portfolio (0, 0)
    assert np.array_equal(imbalance(g, neutral), [0, 0])

    long_first = np.full(3, 5)  # portfolio (1, 0)
    assert np.array_equal(imbalance(g, long_first), [3, 0])

    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        x = rng.integers(0, g.m, size=g.n)
        manual = np.zeros(g.d)
        for i in range(g.n):
            for k in range(g.d):
                manual[k] += g.portfolios[x[i]][k]
        assert np.array_equal(imbalance(g, x), manual)

    with pytest.raises(ParameterError):
        imbalance(g, [0, 1])


def test_hinge_price_branches():
    assert hinge_price(np.array([0.0]), 4.0)[0] == 0.5
    assert hinge_price(np.array([4.0]), 4.0)[0] == 1.0
    assert hinge_price(np.array([-1.0]), 4.0)[0] == 0.25
    assert hinge_price(np.array([-100.0]), 4.0)[0] == 0.0
    with pytest.raises(ParameterError):
        hinge_price(np.array([0.0]), 0.0)


def test_hinge_price_monotone_continuous():
    lam = 6.0
    I = np.linspace(-2 * lam, 2 * lam, 4001)
    q = hinge_price(I, lam)
    assert np.all(np.diff(q) >= 0.0)
    assert np.max(np.abs(np.diff(q))) <= (I[1] - I[0]) / lam + 1e-12
    assert np.all((q >= 0.0) & (q <= 1.0))


def test_trader_utility_examples():
    g = small_market(n=2, d=2, lam=8.0)
    neutral = 4
    s = np.array([0.3, -0.2])
    assert trader_utility(g, 0, neutral, s) == pytest.approx(
        g.valuations[0, neutral] / (2 * g.d), abs=1e-15
    )

    # long exactly one security at its midpoint price, zero valuation
    g0 = MarketGame(n=2, d=2, lam=8.0, valuations=np.zeros((2, 9)))
    long_first = 5  # portfolio (1, 0)
    assert trader_utility(g0, 0, long_first, np.zeros(2)) == pytest.approx(
        -0.25 / 2, abs=1e-15
    )
    g1 = MarketGame(n=2, d=1, lam=8.0, valuations=np.zeros((2, 3)))
    assert trader_utility(g1, 0, 2, np.zeros(1)) == pytest.approx(-0.25, abs=1e-15)


def test_trader_utility_lipschitz():
    g = small_market(n=3, d=3, lam=5.0, seed=3)
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(200):
        s = rng.uniform(-1.0, 1.0, size=3)
        s2 = rng.uniform(-1.0, 1.0, size=3)
        a = int(rng.integers(g.m))
        gap = abs(trader_utility(g, 0, a, s) - trader_utility(g, 0, a, s2))
        assert gap <= np.max(np.abs(s - s2)) + 1e-12


def test_market_maker_loss_examples():
    lam = 16.0
    g = MarketGame(n=8, d=1, lam=lam, valuations=np.zeros((8, 3)))
    assert market_maker_loss(g, np.ones(8, dtype=int)).total == 0.0

    # I = lambda/4 = 4: four traders long, four neutral
    x = np.array([2, 2, 2, 2, 1, 1, 1, 1])
    rep = market_maker_loss(g, x)
    assert rep.per_security[0] == pytest.approx(lam / 16.0, abs=1e-12)
    assert rep.total == pytest.approx(lam / 16.0, abs=1e-12)

    # net-short branch: I = -4 -> loss 4 * q(-4) = 4 * 0.25
    x_short = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert market_maker_loss(g, x_short).per_security[0] == pytest.approx(
        lam / 16.0, abs=1e-12
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_market_maker_loss_cap_monte_carlo(d):
    g = small_market(n=10, d=d, lam=7.0, seed=d)
    rng = np.random.Generator(np.random.PCG64(100 + d))
    cap = g.lam / 16.0
    for _ in range(2000):
        x = rng.integers(0, g.m, size=g.n)
        rep = market_maker_loss(g, x)
        assert np.max(rep.per_security) <= cap + 1e-9
        assert rep.total <= d * cap + 1e-9


def test_loss_cap_scales_with_lambda():
    # lambda = n^(1/2 + c): the cap d * lambda / 16 follows directly
    n, c, d = 64, 0.25, 2
    lam = float(n ** (0.5 + c))
    g = MarketGame(n=n, d=d, lam=lam,
                   valuations=np.zeros((n, 9)))
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(200):
        x = rng.integers(0, g.m, size=n)
        assert market_maker_loss(g, x).total <= d * lam / 16.0 + 1e-9


def test_to_aggregative_structure_and_consistency():
    g = small_market(n=5, d=2, lam=10.0, seed=9)
    agg = to_aggregative(g)
    assert (agg.n, agg.m, agg.d) == (5, 9, 2)
    assert agg.gamma == pytest.approx(1.0 / 10.0)
    assert agg.W == pytest.approx(5 / 10.0)
    assert agg.gamma_eff == pytest.approx(2.0 / 10.0)

    rng = np.random.Generator(np.random.PCG64(10))
    for _ in range(50):
        x = rng.integers(0, g.m, size=g.n)
        assert np.allclose(aggregator(agg, x), imbalance(g, x) / g.lam, atol=1e-12)
        s = aggregator(agg, x)
        i = int(rng.integers(g.n))
        direct = [trader_utility(g, i, a, s) for a in range(g.m)]
        assert np.allclose(utility_values(agg, i, s), direct, atol=1e-12)


def test_from_aggregative_round_trip():
    g = small_market(n=3, d=1, lam=6.0, seed=12)
    back = from_aggregative(to_aggregative(g))
    assert back.n == g.n and back.d == g.d and back.lam == g.lam
    assert np.array_equal(back.valuations, g.valuations)

    from privagg.harness import generate

    plain = generate("linear", 1, n=2, m=2, d=1)
    with pytest.raises(ParameterError):
        from_aggregative(plain)


def test_market_game_validation():
    with pytest.raises(ParameterError):
        MarketGame(n=2, d=1, lam=0.0, valuations=np.zeros((2, 3)))
    with pytest.raises(ParameterError):
        MarketGame(n=2, d=1, lam=4.0, valuations=np.zeros((2, 4)))
    with pytest.raises(ParameterError):
        MarketGame(n=2, d=1, lam=4.0, valuations=np.full((2, 3), 1.5))
    for lam in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="lam must be finite"):
            MarketGame(n=2, d=1, lam=lam, valuations=np.zeros((2, 3)))


@pytest.mark.parametrize("d", [0, 11, 22, 40, 200_000, 1.5])
def test_market_d_refused_before_portfolios_are_built(d):
    # 3^200000 does not even format as a decimal string
    with pytest.raises(ParameterError, match="d must be an integer from 1 to 10"):
        MarketGame(n=2, d=d, lam=4.0, valuations=np.zeros((2, 3)))
    with pytest.raises(ParameterError, match="d must be an integer from 1 to 10"):
        portfolio_matrix(d)
    assert len(portfolio_matrix(market.MAX_D)) == 3**10


def test_market_shares_one_utility():
    g = small_market(n=3, d=2)
    agg = to_aggregative(g)
    assert agg.utility is g.utility
    assert g.portfolios is g.utility.portfolios
    assert g.m == 9


def test_portfolios_built_once(monkeypatch):
    g = small_market(n=5, d=2, lam=10.0, seed=3)
    u = to_aggregative(g).utility
    calls = []

    def counting(d):
        calls.append(d)
        return portfolio_matrix(d)

    monkeypatch.setattr(market, "portfolio_matrix", counting)
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(1000):
        i = int(rng.integers(g.n))
        s = rng.uniform(-1.0, 1.0, size=2)
        got = u.values_for_player(i, s)
        pay = portfolio_matrix(2) @ hinge_price(g.lam * s, g.lam)
        assert np.array_equal(got, (g.valuations[i] - pay) / 4.0)
    imbalance(g, np.zeros(g.n, dtype=int))
    trader_utility(g, 0, 4, np.zeros(2))
    assert calls == []


def same_bits_or_nan(got, want):
    """Equal bit for bit, except that a NaN matches any NaN."""
    nan = np.isnan(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes())


def pricing_points(d, rng):
    """Aggregator values inside the band, past both kinks, exactly on them
    (lambda s / lambda + 1/2 is 0 or 1), and with +-inf and NaN entries."""
    inside = rng.uniform(-0.5, 0.5, size=(3, d))
    past = rng.choice([-1.0, 1.0], size=(3, d)) * rng.uniform(0.5, 40.0, size=(3, d))
    kinks = rng.choice([-0.5, 0.5], size=(2, d))
    mixed = np.concatenate([inside, past, kinks]).reshape(-1)[rng.permutation(8 * d)]
    odd = rng.choice([np.inf, -np.inf, np.nan, 0.25, -2.0], size=(4, d))
    return list(inside) + list(past) + list(kinks) + list(mixed.reshape(8, d)) + list(odd)


@pytest.mark.parametrize("d", range(1, market.MAX_D + 1))
def test_both_evaluators_price_like_the_int_table_at_every_d(d):
    rng = np.random.Generator(np.random.PCG64(100 + d))
    lam = float(np.exp(rng.uniform(-3.0, 9.0)))
    u = MarketUtility(lam=lam, d=d, valuations=rng.uniform(-d, d, size=(2, 3**d)))
    for s in pricing_points(d, rng):
        pay = portfolio_matrix(d) @ hinge_price(lam * s, lam)
        matrix = u.value_matrix(s)
        for i in range(2):
            want = (u.valuations[i] - pay) / (2.0 * d)
            assert same_bits_or_nan(u.values_for_player(i, s), want)
            assert same_bits_or_nan(matrix[i], want)


@pytest.mark.parametrize("d, n", [(1, 300), (2, 60)])
def test_market_regret_matches_the_trader_reference(d, n):
    g = generate("market", 40 + d, n=n, d=d, lam=float(n) / 3.0)
    agg = to_aggregative(g)
    rng = np.random.Generator(np.random.PCG64(41))
    profiles = [rng.integers(0, g.m, size=n) for _ in range(3)]
    profiles += [abr_profile(agg, aggregator(agg, x)) for x in profiles[:2]]
    for x in profiles:
        assert regret(agg, x).per_player.tobytes() == market_regret(g, x).tobytes()


def test_markets_of_one_d_share_one_read_only_float_table():
    a, b = small_market(n=3, d=3, seed=1), small_market(n=5, d=3, lam=2.0, seed=2)
    table = a.utility.pay_table
    assert table is b.utility.pay_table
    assert table.dtype == np.float64 and np.array_equal(table, portfolio_matrix(3))
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 7.0
    assert small_market(n=3, d=2).utility.pay_table is not table


def test_generated_market_chain_builds_its_portfolios_once():
    # generate, to_aggregative and from_aggregative each built their own copy
    market._portfolio_table.cache_clear()
    g = generate("market", 5, n=20, d=2)
    back = from_aggregative(to_aggregative(g))
    assert market._portfolio_table.cache_info().misses == 1
    assert back.portfolios is g.portfolios is portfolio_matrix(2)
    assert not g.portfolios.flags.writeable
    assert np.array_equal(back.valuations, g.valuations)


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, 1.5, "2"])
def test_market_d_from_a_file_is_refused_when_not_an_integer(d):
    params = MarketUtility(lam=4.0, d=1, valuations=np.zeros((2, 3))).to_params()
    with pytest.raises(ParameterError, match="d must be an integer from 1 to 10"):
        MarketUtility.from_params({**params, "d": d})
    with pytest.raises(ParameterError, match="d must be an integer from 1 to 10"):
        generate("market", 0, n=4, d=d)


def test_market_utility_validation():
    with pytest.raises(ParameterError):
        MarketUtility(lam=4.0, d=1, valuations=np.zeros((2, 4)))
    with pytest.raises(ParameterError):
        MarketUtility(lam=4.0, d=0, valuations=np.zeros((2, 1)))
    # refused before 3^d portfolios are built
    with pytest.raises(ParameterError):
        MarketUtility(lam=4.0, d=10**9, valuations=np.zeros((2, 3)))


def test_budget_formulas_frozen_values():
    assert corollary_eta(100, 25.0, 2) == pytest.approx(1.333438666415832, rel=1e-15)
    assert market_zeta(100, 25.0, 2) == pytest.approx(3.8212148768578658, rel=1e-15)
    # privacy comes for free as lambda grows: eta -> 0
    assert corollary_eta(100, 1e6, 2) < 1e-3
    for lam in (1e-300, 1e200):  # lambda^2 underflows to 0 or overflows
        with pytest.raises(ParameterError, match="float range"):
            corollary_eta(100, lam, 2)
    with pytest.raises(ParameterError):
        corollary_eta(0, 25.0, 2)
    with pytest.raises(ParameterError):
        market_zeta(100, -1.0, 2)


def test_market_utility_range_inside_converted_game():
    # the 1/(2d) normalization keeps every payoff in [-1, 1], which the
    # aggregative constructor verifies by sampling; a worst-case valuation
    # table at the range edge must still convert cleanly
    vals = np.full((3, 9), 2.0)
    g = MarketGame(n=3, d=2, lam=5.0, valuations=vals)
    agg = to_aggregative(g)
    s = np.zeros(2)
    assert np.max(np.abs(utility_values(agg, 0, s))) <= 1.0
