"""Feasibility LPs over products of restricted simplices, solved two ways.

The LPs here always have the same shape: find a mixed profile p, one
distribution per player supported on an allowed action set, satisfying K
linear constraints gamma * <F_k, p> <= b_k whose coefficient tensors F_k are
built from facet rows in [-1, 1]. Two solvers share that structure:

* ``distmw_solve`` runs the private no-regret dynamics: each round the
  exponential mechanism picks an (approximately) most violated constraint,
  every player takes a multiplicative-weights step against it, and the
  average iterate is returned. The per-round selections are the public
  transcript, so any player can replay their own rows.

* ``exact_lp_min`` is the deterministic counterpart used on the query side:
  the adversary picks the exactly most violated constraint and the dynamics
  run until a measured primal-dual certificate closes to the requested
  tolerance, yielding a two-sided estimate of min_p max_k margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dp_core import (
    NoiseSource,
    ParameterError,
    PrivacyLedger,
    ScoredOutcomeSet,
    check_finite,
    exponential_mechanism,
)
from .game_core import AggregativeGame, utility_matrix

__all__ = [
    "DegenerateError",
    "FeasibilityLP",
    "DistMWParams",
    "DistMWResult",
    "ExactLPResult",
    "mw_update",
    "kl_project",
    "most_violated",
    "distmw_solve",
    "replay_mw_player",
    "mw_accuracy_bound",
    "build_slack_lp",
    "exact_lp_min",
]


class DegenerateError(ValueError):
    """Raised when a projection target or support set is empty."""


@dataclass(frozen=True)
class FeasibilityLP:
    """K constraints gamma * <F_k, p> <= b_k over supported simplices."""

    gamma: float
    cons_f: np.ndarray  # (K, n, m), entries in [-1, 1]
    cons_b: np.ndarray  # (K,)
    supports: np.ndarray  # (n, m) boolean, each row nonempty

    def __post_init__(self):
        cf = np.asarray(self.cons_f, dtype=float)
        cb = np.asarray(self.cons_b, dtype=float)
        sup = np.asarray(self.supports, dtype=bool)
        if cf.ndim != 3 or cb.shape != (cf.shape[0],):
            raise ParameterError("constraint tensors must be (K, n, m) with K offsets")
        if cf.shape[0] < 1:
            raise ParameterError("at least one constraint required")
        if sup.shape != cf.shape[1:]:
            raise ParameterError("supports must be (n, m) matching the constraints")
        if np.max(np.abs(cf)) > 1.0 + 1e-12:
            raise ParameterError("constraint facet entries must lie in [-1, 1]")
        if not sup.any(axis=1).all():
            raise DegenerateError("every player needs a nonempty support set")
        if self.gamma <= 0:
            raise ParameterError("gamma must be positive")
        object.__setattr__(self, "cons_f", cf)
        object.__setattr__(self, "cons_b", cb)
        object.__setattr__(self, "supports", sup)

    @property
    def n_constraints(self) -> int:
        return self.cons_f.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.cons_f.shape[1:]

    def margins(self, p: np.ndarray) -> np.ndarray:
        """gamma * <F_k, p> - b_k for every k; feasible iff all <= 0."""
        return self.gamma * np.einsum("knm,nm->k", self.cons_f, p) - self.cons_b

    def uniform_start(self) -> np.ndarray:
        mask = self.supports.astype(float)
        return mask / mask.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class DistMWParams:
    """Round count, per-round budget, and step size for the private dynamics.

    T = ceil(16 n^2 gamma^2 ln m / alpha^2) (at least 1),
    eps0 = eps / (2 sqrt(2 T ln(1/delta))), eta = alpha / (4 n gamma).
    """

    epsilon: float
    delta: float
    alpha: float
    beta: float
    n: int
    m: int
    gamma: float
    T: int = field(init=False)
    eps0: float = field(init=False)
    eta: float = field(init=False)

    def __post_init__(self):
        check_finite(epsilon=self.epsilon, alpha=self.alpha)
        if self.epsilon <= 0 or not (0 < self.delta < 1) or not (0 < self.beta < 1):
            raise ParameterError("need epsilon > 0, delta in (0,1), beta in (0,1)")
        if self.alpha <= 0 or self.gamma <= 0 or self.n < 1 or self.m < 1:
            raise ParameterError("need alpha > 0, gamma > 0, n >= 1, m >= 1")
        T = max(1, math.ceil(16.0 * self.n**2 * self.gamma**2 * math.log(self.m) / self.alpha**2))
        object.__setattr__(self, "T", T)
        object.__setattr__(
            self, "eps0", self.epsilon / (2.0 * math.sqrt(2.0 * T * math.log(1.0 / self.delta)))
        )
        object.__setattr__(self, "eta", self.alpha / (4.0 * self.n * self.gamma))

    @classmethod
    def for_game(
        cls, game: AggregativeGame, epsilon: float, delta: float, alpha: float, beta: float
    ) -> "DistMWParams":
        return cls(
            epsilon=epsilon, delta=delta, alpha=alpha, beta=beta,
            n=game.n, m=game.m, gamma=game.gamma,
        )


def mw_update(p_row: np.ndarray, f_row: np.ndarray, eta: float) -> np.ndarray:
    """Unnormalized multiplicative-weights step p * exp(-eta * f)."""
    return p_row * np.exp(-eta * f_row)


def kl_project(weights: np.ndarray, support: np.ndarray) -> np.ndarray:
    """KL projection onto the simplex over ``support``: restrict, renormalize.

    Works row-wise on any (..., m) array against a boolean mask of the same
    trailing shape.
    """
    w = np.asarray(weights, dtype=float) * np.asarray(support, dtype=float)
    total = w.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise DegenerateError("all weight lies outside the support set")
    return w / total


def _mw_round(p, rows, eta, support):
    # one shared arithmetic path so full-matrix runs and single-row replays
    # produce bit-identical floats
    return kl_project(mw_update(p, rows, eta), support)


def most_violated(
    lp: FeasibilityLP,
    p: np.ndarray,
    mode: str = "exact",
    eps0: Optional[float] = None,
    src: Optional[NoiseSource] = None,
) -> tuple[int, float]:
    """Pick a most violated constraint; returns (index, true margin).

    "exact" takes the lowest-index argmax of the margins. "exp" runs the
    exponential mechanism with sensitivity gamma at budget eps0 (and therefore
    also reduces to the exact argmax under a noise_off source).
    """
    margins = lp.margins(p)
    if mode == "exact":
        k = int(np.argmax(margins))
    elif mode == "exp":
        if eps0 is None or src is None:
            raise ParameterError("exp mode needs eps0 and a noise source")
        oset = ScoredOutcomeSet(range(lp.n_constraints), margins, sensitivity=lp.gamma)
        k = int(exponential_mechanism(oset, eps0, src))
    else:
        raise ParameterError(f"unknown selection mode {mode!r}")
    return k, float(margins[k])


@dataclass
class DistMWResult:
    """Average iterate, public per-round transcript, and the privacy ledger."""

    p_bar: np.ndarray
    transcript: list
    params: DistMWParams
    ledger: PrivacyLedger


def distmw_solve(lp: FeasibilityLP, params: DistMWParams, src: NoiseSource) -> DistMWResult:
    """Private no-regret dynamics against the most violated constraint.

    Runs exactly params.T rounds; round t selects a constraint through the
    exponential mechanism at budget eps0 applied to the current margins, then
    every player updates their row against the selected facet. Returns the
    average of the T iterates, which lands in the supported product simplex
    by construction.
    """
    if lp.shape != (params.n, params.m):
        raise ParameterError("params were derived for a different LP shape")
    mask = lp.supports
    p = lp.uniform_start()
    accum = np.zeros_like(p)
    transcript: list[int] = []
    ledger = PrivacyLedger()
    for _ in range(params.T):
        accum += p
        k, _ = most_violated(lp, p, mode="exp", eps0=params.eps0, src=src)
        ledger.add("constraint-select", params.eps0, 0.0)
        transcript.append(k)
        p = _mw_round(p, lp.cons_f[k], params.eta, mask)
    return DistMWResult(p_bar=accum / params.T, transcript=transcript, params=params, ledger=ledger)


def replay_mw_player(
    cons_rows: np.ndarray, support_row: np.ndarray, params: DistMWParams, transcript
) -> np.ndarray:
    """Recompute one player's averaged row from the public transcript.

    ``cons_rows`` is that player's (K, m) slice of the constraint tensor and
    ``support_row`` their (m,) support mask. Bit-identical to the matching
    row of ``distmw_solve(...).p_bar``.
    """
    mask = np.asarray(support_row, dtype=bool)
    if not mask.any():
        raise DegenerateError("empty support row")
    p = mask.astype(float)
    p = p / p.sum(axis=-1, keepdims=True)
    accum = np.zeros_like(p)
    for k in transcript:
        accum += p
        p = _mw_round(p, cons_rows[int(k)], params.eta, mask)
    return accum / params.T


def mw_accuracy_bound(
    n: int, m: int, gamma: float, epsilon: float, delta: float, n_constraints: int, beta: float
) -> float:
    """Margin guarantee of the private dynamics.

    100 * sqrt( (n gamma^2 / eps) * ln(K/beta) * ln n * sqrt(ln m * ln(1/delta)) ),
    the level below which all constraint margins of p_bar land with
    probability 1 - beta whenever the LP admits a feasible point at slack.
    """
    if n < 1 or m < 1 or n_constraints < 1:
        raise ParameterError("counts must be positive")
    if gamma <= 0 or epsilon <= 0 or not (0 < delta < 1) or not (0 < beta < 1):
        raise ParameterError("bad numeric parameters")
    inner = (
        (n * gamma**2 / epsilon)
        * math.log(n_constraints / beta)
        * math.log(n)
        * math.sqrt(math.log(m) * math.log(1.0 / delta))
    )
    return 100.0 * math.sqrt(inner)


# ---------------------------------------------------------------------------
# exact solver for the query side
# ---------------------------------------------------------------------------


def build_slack_lp(
    game: AggregativeGame,
    s_hat: np.ndarray,
    y_hat: Optional[float],
    xi: float,
    slack: float,
) -> FeasibilityLP:
    """Assemble |S(p) - s_hat| <= slack (and L(p) <= y_hat + slack) over
    the xi-best-response supports at s_hat."""
    s_hat = np.asarray(s_hat, dtype=float)
    if s_hat.shape != (game.d,):
        raise ParameterError(f"s_hat must have shape ({game.d},)")
    vals = utility_matrix(game, s_hat)
    supports = vals >= vals.max(axis=1, keepdims=True) - xi
    rows = []
    offs = []
    for k in range(game.d):
        rows.append(game.f[:, k, :])
        offs.append(float(s_hat[k]) + slack)
        rows.append(-game.f[:, k, :])
        offs.append(-float(s_hat[k]) + slack)
    if y_hat is not None and math.isfinite(y_hat):
        if game.loss is None:
            raise ParameterError("loss objective requested but the game declares no loss")
        rows.append(game.loss)
        offs.append(float(y_hat) + slack)
    return FeasibilityLP(
        gamma=game.gamma,
        cons_f=np.stack(rows, axis=0),
        cons_b=np.asarray(offs),
        supports=supports,
    )


@dataclass
class ExactLPResult:
    """Certified estimate of min_p max_k margin over the supported simplices."""

    value: float
    witness: np.ndarray
    upper: float
    lower: float
    rounds: int


def exact_lp_min(
    game: AggregativeGame,
    s_hat,
    y_hat: Optional[float],
    xi: float,
    tol: float,
    max_rounds: Optional[int] = None,
) -> ExactLPResult:
    """Deterministic min-max margin of the slack-0 LP at (s_hat, y_hat).

    Runs multiplicative weights against the exactly most violated constraint
    and stops once the measured primal value at the average iterate is within
    ``tol`` of the dual lower bound. The returned value lies in
    [Q - tol, Q] for the true optimum Q, and the witness's worst margin is at
    most value + tol. ``y_hat=None`` (or +inf) drops the loss term.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    lp = build_slack_lp(game, s_hat, y_hat, xi, slack=0.0)
    mask = lp.supports
    n, m = lp.shape
    log_m = math.log(m) if m > 1 else 1.0
    # horizon from the no-regret gap bound gamma*n*sqrt(2 ln m / T) <= tol,
    # floored so the step size stays in (0, 1]
    t_theory = max(
        1,
        math.ceil(2.0 * log_m),
        math.ceil(2.0 * (game.gamma * n) ** 2 * log_m / tol**2),
    )
    cap = max_rounds if max_rounds is not None else 8 * t_theory
    eta = math.sqrt(2.0 * log_m / t_theory)

    p = lp.uniform_start()
    accum = np.zeros_like(p)
    rows_sum = np.zeros_like(p)
    b_sum = 0.0
    best_lower = -math.inf
    upper = math.inf
    check_every = 16
    t = 0
    while t < cap:
        t += 1
        accum += p
        margins = lp.margins(p)
        k = int(np.argmax(margins))
        rows_sum += lp.cons_f[k]
        b_sum += float(lp.cons_b[k])
        if t % check_every == 0 or t == 1 or t >= cap:
            p_bar = accum / t
            upper = float(np.max(lp.margins(p_bar)))
            row_avg = rows_sum / t
            best_row = np.where(mask, row_avg, np.inf).min(axis=1)
            lower = game.gamma * float(best_row.sum()) - b_sum / t
            best_lower = max(best_lower, lower)
            if upper - best_lower <= tol:
                break
        p = _mw_round(p, lp.cons_f[k], eta, mask)

    p_bar = accum / t
    upper = float(np.max(lp.margins(p_bar)))
    # the dual bound never exceeds Q, and Q >= 0 because the aggregator
    # constraints come in absolute-value pairs
    value = max(best_lower, 0.0)
    return ExactLPResult(value=value, witness=p_bar, upper=upper, lower=best_lower, rounds=t)
