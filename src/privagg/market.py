"""Multi-commodity market with a hinge price maker.

n traders each pick a portfolio in {-1, 0, +1}^d (sell one unit, stay out,
buy one unit, per security). The market maker quotes, per security, a price
that is 0 below imbalance -lambda/2, 1 above +lambda/2, and linear in
between. Trader payoffs are valuation minus cost, normalized by 2d; the
whole thing is an aggregative game with aggregator S = imbalance / lambda,
sensitivity gamma = 1/lambda, and reach W = n/lambda.

Portfolios are indexed in base 3, least significant digit first: digit 0
maps to -1 (sell), 1 to 0 (out), 2 to +1 (buy). Index 0 is therefore
all-sell and index (3^d - 1) / 2 is all-out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dp_core import ParameterError, as_count, as_real, check_finite, check_range
from .game_core import AggregativeGame, as_array

__all__ = [
    "MarketGame",
    "MarketUtility",
    "MarketLossReport",
    "portfolio_matrix",
    "imbalance",
    "hinge_price",
    "market_maker_loss",
    "to_aggregative",
    "from_aggregative",
    "corollary_eta",
    "market_zeta",
]

_RANGE_TOL = 1e-9
# most securities a market lists: 3^10 = 59,049 portfolios, so the (n, d, 3^d)
# facet tensor of the aggregative view stays near 4.7 MB per trader
MAX_D = 10


def portfolio_matrix(d: int) -> np.ndarray:
    """All 3^d portfolios as a read-only (3^d, d) int array over {-1, 0, +1},
    built once per d and shared by every market of that d; the one check on
    d, run before any 3^d integer or array is built."""
    return _portfolio_table(as_count("d", d, MAX_D))


@functools.lru_cache(maxsize=MAX_D)  # one entry per admissible d
def _portfolio_table(d: int) -> np.ndarray:
    idx = np.arange(3**d)
    table = np.stack([((idx // 3**k) % 3) - 1 for k in range(d)], axis=1).astype(np.int64)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=MAX_D)  # one entry per admissible d
def _pay_table(d: int) -> np.ndarray:
    """The float64 copy of ``portfolio_matrix(d)`` that every ``MarketUtility``
    of that d prices against, so no evaluation casts the int table."""
    table = _portfolio_table(d).astype(float)
    table.flags.writeable = False
    return table


def hinge_price(I, lam: float):
    """Per-security price: 0, I/lambda + 1/2, or 1 by imbalance band."""
    check_range("positive", lam=lam)
    return np.clip(np.asarray(I, dtype=float) / lam + 0.5, 0.0, 1.0)


@dataclass(frozen=True)
class MarketGame:
    """n traders, d securities, price sensitivity lambda, action valuations.

    valuations[i, j] is trader i's value for portfolio index j, required to
    lie in [-d, d] so payoffs stay in [-1, 1] after the 1/(2d) scaling.
    """

    n: int
    d: int
    lam: float
    valuations: np.ndarray  # (n, 3^d)
    # the payoff evaluator, built once and shared by ``to_aggregative``
    utility: "MarketUtility" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = as_count("n", self.n)
        utility = MarketUtility(lam=self.lam, d=self.d, valuations=self.valuations)
        check_finite(W=self.n / self.lam)  # the reach of the aggregate imbalance / lambda
        if utility.valuations.shape[0] != self.n:
            raise ParameterError(f"valuations need one row per trader, {self.n} in all")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", utility.d)
        object.__setattr__(self, "valuations", utility.valuations)
        object.__setattr__(self, "utility", utility)

    @property
    def portfolios(self) -> np.ndarray:
        return self.utility.portfolios

    @property
    def m(self) -> int:
        return len(self.portfolios)


def imbalance(game: MarketGame, x) -> np.ndarray:
    """Net order flow per security for a pure profile of portfolio indices."""
    x = np.asarray(x)
    if x.shape != (game.n,) or np.min(x) < 0 or np.max(x) >= game.m:
        raise ParameterError("profile must hold one portfolio index per trader")
    return game.portfolios[x.astype(np.int64)].sum(axis=0)


@dataclass(frozen=True)
class MarketLossReport:
    """Money the maker leaves on the table, per security and total."""

    per_security: np.ndarray
    total: float


def market_maker_loss(game: MarketGame, x) -> MarketLossReport:
    """Loss I_k * (1 - q_k) on net-long books, -I_k * q_k on net-short ones.

    Peaks at lambda/16 per security (at |I_k| = lambda/4) and vanishes once
    the book clears lambda/2 either way.
    """
    I = imbalance(game, x)
    q = hinge_price(I, game.lam)
    per = np.where(I > 0, I * (1.0 - q), -I * q)
    return MarketLossReport(per_security=per, total=float(per.sum()))


@dataclass(frozen=True)
class MarketUtility:
    """Aggregative-game utility evaluator wrapping the trader payoff."""

    lam: float
    d: int
    valuations: np.ndarray  # (n, 3^d)
    portfolios: np.ndarray = field(init=False, repr=False, compare=False)  # (3^d, d)
    pay_table: np.ndarray = field(init=False, repr=False, compare=False)  # float64 portfolios

    kind = "market"

    def __post_init__(self):
        check_range("positive", lam=self.lam)
        portfolios = portfolio_matrix(self.d)
        vals = np.asarray(self.valuations, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != len(portfolios):
            raise ParameterError("valuations need one column per portfolio, 3^d in all")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("portfolio valuations must be finite")
        if np.max(np.abs(vals), initial=0.0) > self.d + _RANGE_TOL:
            raise ParameterError("portfolio valuations must lie in [-d, d]")
        object.__setattr__(self, "d", portfolios.shape[1])
        object.__setattr__(self, "valuations", vals)
        object.__setattr__(self, "portfolios", portfolios)
        object.__setattr__(self, "pay_table", _pay_table(self.d))

    def _pay(self, s: np.ndarray) -> np.ndarray:
        """Each portfolio's cost at aggregator value s, (m,), for both evaluators.
        The prices are ``hinge_price(lam * s, lam)`` in Python floats: the same
        IEEE operations (NaN kept, +-inf clipped to 1 and 0) without numpy's
        per-call cost on a d-element vector."""
        lam = self.lam
        q = []
        for s_k in s.tolist():
            x = lam * s_k / lam + 0.5
            q.append(0.0 if x < 0.0 else 1.0 if x > 1.0 else x)
        return self.pay_table @ np.array(q)

    def value_matrix(self, s: np.ndarray) -> np.ndarray:
        pay = self._pay(s)
        return (self.valuations - pay[None, :]) / (2.0 * self.d)

    def values_for_player(self, i: int, s: np.ndarray) -> np.ndarray:
        pay = self._pay(s)
        return (self.valuations[i] - pay) / (2.0 * self.d)

    def validate_for_game(self, game: AggregativeGame) -> None:
        if self.valuations.shape != (game.n, game.m) or game.d != self.d:
            raise ParameterError("market utility dimensions do not match the game")

    def to_params(self) -> dict:
        return {"lambda": self.lam, "d": self.d, "valuations": self.valuations.tolist()}

    @classmethod
    def from_params(cls, params: dict) -> "MarketUtility":
        return cls(
            lam=float(as_real("lambda", params["lambda"])), d=params["d"],
            valuations=as_array("valuations", params["valuations"]),
        )


def to_aggregative(game: MarketGame) -> AggregativeGame:
    """View the market as an aggregative game with S = imbalance / lambda."""
    A = game.portfolios  # (m, d)
    f = np.broadcast_to(A.T.astype(float), (game.n, game.d, game.m)).copy()
    return AggregativeGame(
        n=game.n,
        m=game.m,
        d=game.d,
        gamma=1.0 / game.lam,
        W=game.n / game.lam,
        f=f,
        utility=game.utility,
    )


def from_aggregative(game: AggregativeGame) -> MarketGame:
    """Recover the market view from a game built by ``to_aggregative``."""
    u = game.utility
    if getattr(u, "kind", None) != "market":
        raise ParameterError("game does not carry a market utility")
    return MarketGame(n=game.n, d=u.d, lam=u.lam, valuations=u.valuations)


def corollary_eta(n: int, lam: float, d: int) -> float:
    """Equilibrium accuracy scale sqrt(d) * ((n/lam^2)^(1/3) + (n/lam^2)^(1/2)).

    Polylogarithmic factors are normalized to 1; this is the knob-level
    quantity that shows when privacy comes for free as lambda grows.
    """
    n, d = as_count("n", n), as_count("d", d)
    check_range("positive", lam=lam)
    try:
        ratio = n / lam**2
    except (OverflowError, ZeroDivisionError):
        raise ParameterError(f"lambda^2 leaves the float range at lambda = {lam}") from None
    return math.sqrt(d) * (ratio ** (1.0 / 3.0) + math.sqrt(ratio))


def market_zeta(n: int, lam: float, d: int) -> float:
    """Equilibrium existence threshold sqrt(8 n d ln(3n)) / lambda."""
    n, d = as_count("n", n), as_count("d", d)
    check_range("positive", lam=lam)
    return math.sqrt(8.0 * n * d * math.log(3.0 * n)) / lam
