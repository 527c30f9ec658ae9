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
    as_count,
    check_certificate,
    check_range,
    first_below,
)
from .game_core import (
    AggregativeGame,
    as_player,
    best_response_support,
    grid_steps,
    sample_action,
    sample_profile,
    support_width,
    utility_values,
)
from .lp_core import (
    DistMWParams,
    build_slack_lp,
    distmw_solve,
    exact_lp_min,
    mw_accuracy_bound,
    replay_mw_player,
    slack_rows,
)

__all__ = [
    "PreslParams",
    "PreslResult",
    "NpreslResult",
    "existence_bound",
    "sampling_deviation_bound",
    "presl_e1",
    "presl_e2",
    "presl",
    "npresl",
    "query_order",
    "replay_presl_player",
]


def existence_bound(n: int, m: int, gamma: float) -> float:
    """Smallest zeta at which a pure zeta-equilibrium is guaranteed to exist:
    gamma * sqrt(8 n ln(2 m n))."""
    n, m = as_count("n", n), as_count("m", m)
    check_range("nonnegative", gamma=gamma)
    return gamma * math.sqrt(8.0 * n * math.log(2.0 * m * n))


def sampling_deviation_bound(n: int, gamma: float, k: int, beta: float) -> float:
    """Concentration radius sqrt(n gamma^2 / 2 * ln(k / beta)).

    A profile sampled independently from a mixed profile lands within this
    distance of the expected aggregator on all k one-sided events (k = 2d
    for the sup norm) except with probability beta (bounded differences,
    one union bound over the k events).
    """
    n, k = as_count("n", n), as_count("k", k)
    check_range("positive", gamma=gamma)
    check_range("unit", beta=beta)
    try:
        spread = n * gamma**2
    except OverflowError:
        raise ParameterError(f"gamma^2 leaves the float range at gamma = {gamma}") from None
    return math.sqrt(spread / 2.0 * math.log(k / beta))


def presl_e1(game: AggregativeGame, epsilon: float, beta: float) -> float:
    """Sparse-vector slack (100 gamma / eps)((d+1) ln(2W) ln n + ln(6/beta))."""
    check_range("positive", epsilon=epsilon)
    check_range("unit", beta=beta)
    return (100.0 * game.gamma / epsilon) * (
        (game.d + 1) * math.log(2.0 * game.W) * math.log(game.n) + math.log(6.0 / beta)
    )


def presl_e2(game: AggregativeGame, epsilon: float, delta: float, beta: float) -> float:
    """No-regret stage slack: the private dynamics' margin guarantee
    ``mw_accuracy_bound`` with 3d constraints."""
    return mw_accuracy_bound(game.n, game.m, game.gamma, epsilon, delta, 3 * game.d, beta)


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
        check_range("nonnegative", zeta=self.zeta)  # presl_e1 and presl_e2 check the rest
        e1 = presl_e1(self, self.epsilon, self.beta)  # params carry the game's shape
        e2 = presl_e2(self, self.epsilon, self.delta, self.beta)
        threshold = existence_bound(self.n, self.m, self.gamma)
        if self.zeta < threshold:
            warnings.warn(
                f"zeta = {self.zeta:.4g} is below the existence threshold "
                f"{threshold:.4g}; the search may come back empty"
            )
        alpha = e1 + e2
        if alpha <= 0:
            raise ParameterError("accuracy constants collapsed; need W > 1/2 and n > 1")
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "alpha", alpha)
        check_certificate(self.nash_bound, "raise epsilon or lower zeta")
        object.__setattr__(self, "xi", support_width(self.zeta, self.gamma, alpha))
        y_count = int(math.floor(self.n * self.gamma / alpha + 1e-12)) + 1 if self.has_loss else 1
        K = grid_steps(self.W, alpha, self.d, y_count)
        object.__setattr__(self, "w_snap", alpha * K)
        object.__setattr__(self, "x_count_per_axis", 2 * K)
        object.__setattr__(self, "y_count", y_count)
        object.__setattr__(self, "lp_tol", min(alpha, e1) / 100.0)

    @classmethod
    def for_game(
        cls,
        game: AggregativeGame,
        zeta: float,
        epsilon: float,
        delta: float,
        beta: float,
    ) -> "PreslParams":
        return cls(
            zeta=zeta, epsilon=epsilon, delta=delta, beta=beta,
            n=game.n, m=game.m, d=game.d, gamma=game.gamma, W=game.W,
            has_loss=game.loss is not None,
        )

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
    if (params.n, params.m, params.d, params.gamma, params.W) != (
        game.n, game.m, game.d, game.gamma, game.W
    ):
        raise ParameterError("params were derived for a different game")
    if params.has_loss != (game.loss is not None):
        raise ParameterError("params disagree with the game about the loss objective")
    ledger = PrivacyLedger()
    session = ledger.open_session(
        "grid-scan", game.gamma, params.alpha + params.e1, params.epsilon, src.child("sparse")
    )

    def lp_values():  # one query per block: each is an exact LP solve
        for y, s in query_order(params):
            y_arg = y if params.has_loss else None
            yield exact_lp_min(game, s, y_arg, params.xi, params.lp_tol).value

    hit_index, asked = first_below(session, lp_values())
    if hit_index is None:
        return PreslResult(aborted=True, params=params, ledger=ledger, queries_asked=asked)
    hit_y, hit_s = next(itertools.islice(query_order(params), hit_index, None))

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
    i = as_player(game.n, i)
    params = result.params
    rows = slack_rows(game.f[i], game.loss[i] if params.has_loss else None)
    support_row = best_response_support(utility_values(game, i, result.hit_s), params.xi)
    p_row = replay_mw_player(rows, support_row, result.mw_params, result.mw_transcript)
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
    check_range("positive", alpha=alpha)
    check_range("nonnegative", zeta=zeta)
    check_range("unit", beta=beta)
    tol = alpha / 10.0
    xi = support_width(zeta, game.gamma, alpha)
    K = grid_steps(game.W, alpha, game.d)
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
        zero = exact_lp_min(game, s_hat, 0.0, xi, tol)
        if zero.value <= alpha:
            hi = 0.0
            witness_hi = zero.witness
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
