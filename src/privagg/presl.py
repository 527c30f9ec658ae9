"""Equilibrium search over aggregator grids, private and non-private.

The private solver grids candidate aggregator values and loss levels, finds
the first plausibly-feasible pair with one sparse-vector hit, solves the
relaxed feasibility LP with the private no-regret dynamics, and samples a
pure profile from the averaged mixed profile. Its non-private twin solves
the exact LP at every grid point, bisects the loss level, and keeps the best
witness; it is the yardstick the private path is measured against.

Accuracy constants follow the solver's analysis and are evaluated literally;
at small n they exceed the payoff range, which just means the guarantees are
vacuous at desk scale while the mechanics stay exercisable.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .dp_core import (
    NoiseSource,
    ParameterError,
    PrivacyLedger,
    SparseSession,
    check_finite,
    first_below,
)
from .game_core import (
    AggregativeGame,
    grid_steps,
    sample_action,
    sample_profile,
    utility_values,
)
from .lp_core import (
    DistMWParams,
    build_slack_lp,
    distmw_solve,
    exact_lp_min,
    replay_mw_player,
)

__all__ = [
    "BudgetError",
    "PreslParams",
    "PreslResult",
    "NpreslResult",
    "existence_bound",
    "sampling_deviation_bound",
    "presl_e1",
    "presl_e2",
    "presl_e3",
    "presl",
    "npresl",
    "query_order",
    "replay_presl_player",
]


class BudgetError(RuntimeError):
    """Raised when a grid enumeration would exceed the query budget."""


def existence_bound(n: int, m: int, gamma: float) -> float:
    """Smallest zeta at which a pure zeta-equilibrium is guaranteed to exist:
    gamma * sqrt(8 n ln(2 m n))."""
    if n < 1 or m < 1 or gamma < 0:
        raise ParameterError("need n >= 1, m >= 1, gamma >= 0")
    return gamma * math.sqrt(8.0 * n * math.log(2.0 * m * n))


def sampling_deviation_bound(n: int, gamma: float, k: int, beta: float) -> float:
    """Concentration radius sqrt(n gamma^2 / 2 * ln(k / beta)).

    A profile sampled independently from a mixed profile lands within this
    distance of the expected aggregator on all k one-sided events (k = 2d
    for the sup norm) except with probability beta (bounded differences,
    one union bound over the k events).
    """
    if n < 1 or k < 1 or gamma <= 0 or not (0 < beta < 1):
        raise ParameterError("bad concentration parameters")
    return math.sqrt(n * gamma**2 / 2.0 * math.log(k / beta))


def presl_e1(game: AggregativeGame, epsilon: float, beta: float) -> float:
    """Sparse-vector slack (100 gamma / eps)((d+1) ln(2W) ln n + ln(6/beta))."""
    return (100.0 * game.gamma / epsilon) * (
        (game.d + 1) * math.log(2.0 * game.W) * math.log(game.n) + math.log(6.0 / beta)
    )


def presl_e2(game: AggregativeGame, epsilon: float, delta: float, beta: float) -> float:
    """No-regret stage slack
    100 sqrt(n gamma^2/eps * ln(3d/beta) * ln n * sqrt(ln m * ln(1/delta)))."""
    inner = (
        (game.n * game.gamma**2 / epsilon)
        * math.log(3.0 * game.d / beta)
        * math.log(game.n)
        * math.sqrt(math.log(game.m) * math.log(1.0 / delta))
    )
    return 100.0 * math.sqrt(inner)


def presl_e3(game: AggregativeGame, beta: float) -> float:
    """Sampling slack sqrt(n gamma^2 / 2 * ln((6d+6)/beta))."""
    return sampling_deviation_bound(game.n, game.gamma, 6 * game.d + 6, beta)


@dataclass(frozen=True)
class PreslParams:
    """Frozen accuracy constants and grid geometry for one solver run."""

    zeta: float
    epsilon: float
    delta: float
    beta: float
    n: int
    m: int
    d: int
    gamma: float
    W: float
    grid_budget: int = 10**7
    e1: float = field(init=False)
    e2: float = field(init=False)
    alpha: float = field(init=False)
    xi: float = field(init=False)
    w_snap: float = field(init=False)
    x_count_per_axis: int = field(init=False)
    y_count: int = field(init=False)
    lp_tol: float = field(init=False)
    has_loss: bool = True

    def __post_init__(self):
        check_finite(epsilon=self.epsilon, zeta=self.zeta)
        if self.epsilon <= 0 or not (0 < self.delta < 1) or not (0 < self.beta < 1):
            raise ParameterError("need epsilon > 0 and delta, beta in (0, 1)")
        if self.zeta < 0:
            raise ParameterError("zeta must be nonnegative")
        threshold = existence_bound(self.n, self.m, self.gamma)
        if self.zeta < threshold:
            warnings.warn(
                f"zeta = {self.zeta:.4g} is below the existence threshold "
                f"{threshold:.4g}; the search may come back empty"
            )
        e1 = presl_e1(self, self.epsilon, self.beta)  # params carry the game's shape
        e2 = presl_e2(self, self.epsilon, self.delta, self.beta)
        alpha = e1 + e2
        if alpha <= 0:
            raise ParameterError("accuracy constants collapsed; need W > 1/2 and n > 1")
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "xi", self.gamma + self.zeta + 2.0 * alpha)
        K = grid_steps(self.W, alpha)
        object.__setattr__(self, "w_snap", alpha * K)
        object.__setattr__(self, "x_count_per_axis", 2 * K)
        y_count = int(math.floor(self.n * self.gamma / alpha + 1e-12)) + 1 if self.has_loss else 1
        object.__setattr__(self, "y_count", y_count)
        object.__setattr__(self, "lp_tol", min(alpha, e1) / 100.0)
        if self.n_queries > self.grid_budget:
            raise BudgetError(
                f"grid holds {self.n_queries} queries, over the budget {self.grid_budget}; "
                "raise alpha (via epsilon) or the budget"
            )

    @classmethod
    def for_game(
        cls,
        game: AggregativeGame,
        zeta: float,
        epsilon: float,
        delta: float,
        beta: float,
        grid_budget: int = 10**7,
    ) -> "PreslParams":
        return cls(
            zeta=zeta, epsilon=epsilon, delta=delta, beta=beta,
            n=game.n, m=game.m, d=game.d, gamma=game.gamma, W=game.W,
            grid_budget=grid_budget, has_loss=game.loss is not None,
        )

    @property
    def n_queries(self) -> int:
        return self.x_count_per_axis**self.d * self.y_count

    def x_axis(self) -> np.ndarray:
        return np.arange(self.x_count_per_axis) * self.alpha - self.w_snap

    def y_axis(self) -> np.ndarray:
        return np.arange(self.y_count) * self.alpha

    @property
    def nash_bound(self) -> float:
        """Regret level certified for non-aborting runs: zeta + 12 alpha."""
        return self.zeta + 12.0 * self.alpha


def query_order(params: PreslParams) -> Iterator[tuple[float, np.ndarray]]:
    """The exact (loss level, aggregator point) stream the first stage asks:
    loss levels ascending, grid points lexicographic within each level."""
    xs = params.x_axis()
    for y in params.y_axis():
        for combo in itertools.product(xs, repeat=params.d):
            yield float(y), np.asarray(combo)


@dataclass
class PreslResult:
    """Outcome of one private run: either a sampled profile or an abort."""

    aborted: bool
    params: PreslParams
    ledger: PrivacyLedger
    queries_asked: int
    profile: Optional[np.ndarray] = None
    p_bar: Optional[np.ndarray] = None
    hit_y: Optional[float] = None
    hit_s: Optional[np.ndarray] = None
    hit_index: Optional[int] = None
    noisy_value: Optional[float] = None
    mw_transcript: Optional[list] = None
    mw_params: Optional[DistMWParams] = None

    @property
    def nash_bound(self) -> float:
        return self.params.nash_bound


def presl(game: AggregativeGame, params: PreslParams, src: NoiseSource) -> PreslResult:
    """Private grid search, relaxed-LP solve, and per-player sampling.

    Stage 1 streams every (loss level, grid point) query value through one
    below-threshold session at threshold alpha + e1; the first hit fixes the
    target pair. Stage 2 solves the LP relaxed by alpha + 2 e1 over the
    xi-best-response supports with the private dynamics, and each player
    samples their action from their own row of the averaged profile. A run
    with no stage-1 hit aborts (a declared outcome, not an exception).
    """
    if (params.n, params.m, params.d) != (game.n, game.m, game.d):
        raise ParameterError("params were derived for a different game")
    if params.has_loss != (game.loss is not None):
        raise ParameterError("params disagree with the game about the loss objective")
    ledger = PrivacyLedger()
    session = SparseSession(
        sensitivity=game.gamma,
        threshold=params.alpha + params.e1,
        budget=1,
        epsilon=params.epsilon,
        src=src.child("sparse"),
    )
    ledger.add("grid-scan", params.epsilon, 0.0)

    def lp_value(item) -> float:
        _, (y, s) = item
        y_arg = y if params.has_loss else None
        return exact_lp_min(game, s, y_arg, params.xi, params.lp_tol).value

    hit, ans, asked = first_below(session, enumerate(query_order(params)), lp_value)
    if hit is None:
        return PreslResult(aborted=True, params=params, ledger=ledger, queries_asked=asked)
    hit_index, (hit_y, hit_s) = hit

    slack = params.alpha + 2.0 * params.e1
    lp = build_slack_lp(game, hit_s, hit_y if params.has_loss else None, params.xi, slack)
    mw_params = DistMWParams.for_game(
        game, epsilon=params.epsilon, delta=params.delta,
        alpha=params.alpha, beta=params.beta / 3.0,
    )
    mw = distmw_solve(lp, mw_params, src.child("mw"))
    ledger.add("lp-dynamics", params.epsilon, params.delta)
    profile = sample_profile(game, mw.p_bar, src.child("sample"))
    return PreslResult(
        aborted=False,
        params=params,
        ledger=ledger,
        queries_asked=asked,
        profile=profile,
        p_bar=mw.p_bar,
        hit_y=hit_y,
        hit_s=hit_s,
        hit_index=hit_index,
        noisy_value=ans.value,
        mw_transcript=mw.transcript,
        mw_params=mw_params,
    )


def replay_presl_player(
    game: AggregativeGame, i: int, result: PreslResult, src: NoiseSource
) -> int:
    """Recompute player i's action from the public transcript and own rows.

    Touches only the player's own slices (facets, loss row, own utilities)
    plus the published (hit_s, hit_y, constraint transcript); bit-identical
    to ``result.profile[i]``.
    """
    if result.aborted:
        raise ParameterError("aborted runs publish no profile to replay")
    params = result.params
    s_hat = result.hit_s
    rows = []
    for k in range(game.d):
        rows.append(game.f[i, k, :])
        rows.append(-game.f[i, k, :])
    if params.has_loss:
        rows.append(game.loss[i])
    vals = utility_values(game, i, s_hat)
    support_row = vals >= vals.max() - params.xi
    p_row = replay_mw_player(
        np.stack(rows, axis=0), support_row, result.mw_params, result.mw_transcript
    )
    return sample_action(p_row, src.child("sample").child(i))


@dataclass
class NpreslResult:
    """Outcome of the exact grid sweep: best witness or an abort."""

    aborted: bool
    alpha: float
    zeta: float
    beta: float
    nash_bound: float  # regret of the sampled profile, w.p. 1 - beta
    profile: Optional[np.ndarray] = None
    p_bar: Optional[np.ndarray] = None
    s_hat: Optional[np.ndarray] = None
    y_star: Optional[float] = None
    witness_loss: Optional[float] = None
    feasible_points: int = 0
    # loss over the best zeta-equilibrium's is <= 1.1 alpha + this, w.p. 1 - beta
    sampling_slack: float = 0.0


def npresl(
    game: AggregativeGame,
    zeta: float,
    alpha: float,
    beta: float,
    src: NoiseSource,
    lp_tol: Optional[float] = None,
    grid_budget: int = 10**7,
) -> NpreslResult:
    """Exact counterpart of the private search: no noise anywhere.

    Sweeps the alpha-grid of aggregator points; at each point solves the
    supported feasibility LP exactly, bisects the smallest admissible loss
    level to resolution alpha/10, and keeps the lowest-loss witness across
    the grid. The final profile is sampled per player, which is the only
    randomness consumed.
    """
    if game.loss is None:
        raise ParameterError("the sweep minimizes game.loss, which this game lacks")
    check_finite(zeta=zeta, alpha=alpha)
    if alpha <= 0 or zeta < 0 or not (0 < beta < 1):
        raise ParameterError("need alpha > 0, zeta >= 0, beta in (0, 1)")
    tol = lp_tol if lp_tol is not None else alpha / 10.0
    xi = zeta + game.gamma + 2.0 * alpha
    K = grid_steps(game.W, alpha)
    if (2 * K) ** game.d > grid_budget:
        raise BudgetError(f"grid holds {(2 * K) ** game.d} points, over {grid_budget}")
    axis = np.arange(2 * K) * alpha - alpha * K
    loss_cap = game.n * game.gamma

    best = None  # (witness_loss, s_hat, y_star, witness)
    feasible = 0
    for combo in itertools.product(axis, repeat=game.d):
        s_hat = np.asarray(combo)
        probe = exact_lp_min(game, s_hat, None, xi, tol)
        if probe.value > alpha:
            continue
        feasible += 1
        lo, hi = 0.0, loss_cap
        witness_hi = None
        if exact_lp_min(game, s_hat, 0.0, xi, tol).value <= alpha:
            hi = 0.0
            witness_hi = exact_lp_min(game, s_hat, 0.0, xi, tol).witness
        else:
            while hi - lo > alpha / 10.0:
                mid = 0.5 * (lo + hi)
                trial = exact_lp_min(game, s_hat, mid, xi, tol)
                if trial.value <= alpha:
                    hi = mid
                    witness_hi = trial.witness
                else:
                    lo = mid
            if witness_hi is None:
                witness_hi = exact_lp_min(game, s_hat, hi, xi, tol).witness
        w_loss = game.gamma * float((game.loss * witness_hi).sum())
        if best is None or w_loss < best[0]:
            best = (w_loss, s_hat, hi, witness_hi)

    slack = sampling_deviation_bound(game.n, game.gamma, 2 * game.d + 2, beta)
    # Every sampled action lies within xi of its best response to s_hat. The
    # witness keeps |S(p) - s_hat| <= alpha + tol and sampling moves the
    # aggregator by at most slack, so each payoff moves by at most that drift
    # on either side of the comparison; the deviator's own shift adds gamma_eff.
    bound = xi + 2.0 * (alpha + tol + slack) + game.gamma_eff
    if best is None:
        return NpreslResult(
            aborted=True, alpha=alpha, zeta=zeta, beta=beta, nash_bound=bound,
            sampling_slack=slack,
        )
    w_loss, s_hat, y_star, witness = best
    profile = sample_profile(game, witness, src.child("sample"))
    return NpreslResult(
        aborted=False,
        alpha=alpha,
        zeta=zeta,
        beta=beta,
        nash_bound=bound,
        profile=profile,
        p_bar=witness,
        s_hat=s_hat,
        y_star=float(y_star),
        witness_loss=w_loss,
        feasible_points=feasible,
        sampling_slack=slack,
    )
