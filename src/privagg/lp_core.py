"""Feasibility LPs over products of restricted simplices.

The LPs here always have the same shape: find a mixed profile p, one
distribution per player supported on an allowed action set, satisfying K
linear constraints gamma * <F_k, p> <= b_k whose coefficient tensors F_k are
built from facet rows in [-1, 1]. Every solver here runs multiplicative
weights against a most violated constraint, and all of them evaluate the
iterate through one closed form, p_t ~ exp(-eta (C_t - min C_t)) over the
support, from the cumulative loss C_t (Arora, Hazan & Kale, "The
Multiplicative Weights Update Method", 2012):

* ``distmw_solve`` runs the private no-regret dynamics: each round the
  exponential mechanism picks an (approximately) most violated constraint,
  the selected facet joins every player's cumulative loss, and the average
  iterate is returned. Players with identical constraint rows and supports
  share one MW row, so after one grouping pass a round costs O(C K m) for C
  such classes, not O(n K m), in a fixed number of numpy calls while C < m;
  with shared facets C is at most the number of distinct support masks, and
  the slack LP's (K, n, m) tensor is a read-only view of its (K, m) rows. The
  per-round selections are the public transcript, so any player can replay
  their own rows with ``replay_mw_player``: O(T m) numpy work and O(T m)
  memory, with no Python loop over rounds.

* ``exact_lp_min`` is the deterministic counterpart used on the query side:
  the adversary picks the exactly most violated constraint and the dynamics
  run until a measured primal-dual certificate closes to the requested
  tolerance, yielding a two-sided estimate of min_p max_k margin. A (G, d)
  stack of points runs its G loops in lockstep, each point bit for bit its
  solo call, which is how npresl and presl's scan solve a grid in few calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dp_core import (
    BudgetError,
    NoiseSource,
    ParameterError,
    PrivacyLedger,
    Stage,
    as_count,
    check_finite,
    check_range,
    exponential_mechanism,
)
from .game_core import (
    GRID_BUDGET, AggregativeGame, best_response_support, shared_facets, utility_matrix,
)

__all__ = [
    "DegenerateError",
    "FeasibilityLP",
    "DistMWParams",
    "DistMWResult",
    "ExactLPResult",
    "most_violated",
    "distmw_solve",
    "replay_mw_player",
    "mw_accuracy_bound",
    "slack_rows",
    "build_slack_lp",
    "exact_lp_min",
]


class DegenerateError(ValueError):
    """Raised when a support set is empty."""


def _mw_inputs(rows, mask, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """The one rule for MW loss rows and support masks, shared by the LP and
    a player's replay: every row entry finite and in [-1, 1] (a NaN row gives
    a NaN iterate, which sampling reads as action 0) and every mask entry
    0/1 or true/false (``bool`` reads 2 or -1 as allowed). Returns them as
    float and bool arrays; a ParameterError names the field from ``names``.
    The row test is two reductions, which a NaN fails and which read a
    shared view without copying it."""
    rows, mask = np.asarray(rows, dtype=float), np.asarray(mask)
    if not (rows.max(initial=-1.0) <= 1.0 + 1e-12 and rows.min(initial=1.0) >= -1.0 - 1e-12):
        raise ParameterError(f"{names[0]} entries must be finite and lie in [-1, 1]")
    if mask.dtype != bool and not ((mask == 0) | (mask == 1)).all():
        raise ParameterError(f"{names[1]} entries must be 0/1 or true/false")
    return rows, mask.astype(bool, copy=False)


def _rows_shared(cons_f: np.ndarray) -> bool:
    """Whether a (K, n, m) constraint tensor views (K, m) rows that every
    player shares, as ``build_slack_lp`` builds it from shared facets."""
    return cons_f.strides[1] == 0


@dataclass(frozen=True)
class FeasibilityLP:
    """K constraints gamma * <F_k, p> <= b_k over supported simplices."""

    gamma: float
    cons_f: np.ndarray  # (K, n, m), entries in [-1, 1]
    cons_b: np.ndarray  # (K,)
    supports: np.ndarray  # (n, m) boolean, each row nonempty

    def __post_init__(self):
        cf, sup = _mw_inputs(self.cons_f, self.supports, ("cons_f", "supports"))
        cb = np.asarray(self.cons_b, dtype=float)
        if cf.ndim != 3 or cb.shape != (cf.shape[0],):
            raise ParameterError("constraint tensors must be (K, n, m) with K offsets")
        if cf.shape[0] < 1:
            raise ParameterError("at least one constraint required")
        if sup.shape != cf.shape[1:]:
            raise ParameterError("supports must be (n, m) matching the constraints")
        if not np.all(np.isfinite(cb)):
            raise ParameterError("constraint offsets must be finite")
        if not sup.any(axis=1).all():
            raise DegenerateError("every player needs a nonempty support set")
        check_range("positive", gamma=self.gamma)
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
        """gamma * <F_k, p> - b_k for every k; feasible iff all <= 0. Rows
        that every player shares are summed as the C-ordered (K, n, m) tensor
        they view, since ``np.einsum``'s order follows the layout."""
        cons_f = np.ascontiguousarray(self.cons_f) if _rows_shared(self.cons_f) else self.cons_f
        return self.gamma * np.einsum("knm,nm->k", cons_f, p) - self.cons_b


@dataclass(frozen=True)
class DistMWParams:
    """Round count, per-round budget, and step size for the private dynamics.

    T = ceil(16 n^2 gamma^2 ln m / alpha^2) (at least 1),
    eps0 = eps / (2 sqrt(2 T ln(1/delta))), eta = alpha / (4 n gamma).
    A replay holds a (T, m) block, so T * m over ``GRID_BUDGET`` is refused.
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
        check_range("positive", epsilon=self.epsilon, alpha=self.alpha, gamma=self.gamma)
        check_range("unit", delta=self.delta, beta=self.beta)
        as_count("n", self.n)
        as_count("m", self.m)
        try:
            T = max(1, math.ceil(16.0 * self.n**2 * self.gamma**2 * math.log(self.m) / self.alpha**2))
        except (OverflowError, ValueError, ZeroDivisionError):  # gamma^2 or alpha^2 out of range
            raise BudgetError("the round count has no finite size") from None
        if T * self.m > GRID_BUDGET:
            raise BudgetError(f"{T} rounds over {self.m} actions, over the budget {GRID_BUDGET}")
        object.__setattr__(self, "T", T)
        object.__setattr__(
            self, "eps0", self.epsilon / (2.0 * math.sqrt(2.0 * T * math.log(1.0 / self.delta)))
        )
        object.__setattr__(self, "eta", self.alpha / (4.0 * self.n * self.gamma))
        check_finite(eta=self.eta)

    @classmethod
    def for_game(
        cls, game: AggregativeGame, epsilon: float, delta: float, alpha: float, beta: float
    ) -> "DistMWParams":
        return cls(
            epsilon=epsilon, delta=delta, alpha=alpha, beta=beta,
            n=game.n, m=game.m, gamma=game.gamma,
        )


def _distmw_stages(params: DistMWParams) -> tuple:
    """distmw's one private stage, run each round: the exponential mechanism
    picks a constraint at eps0 from the stream it is given (presl's "mw")."""
    return (Stage("constraint-select", "mw", params.gamma, params.eps0),)


def _mw_iterate(cum: np.ndarray, eta: float) -> np.ndarray:
    """Closed-form MW iterate from cumulative losses, row-wise on (..., m).

    ``cum`` holds each row's summed losses, +inf off the support. Shifting by
    the row minimum keeps every weight in [0, 1] for any eta * T, and off
    the support the weight is exactly 0. The sum over actions is sequential
    in action order, so a row's bits do not depend on the array's shape or
    memory order: full-LP rounds and one player's replay agree exactly.
    A block with fewer rows than actions (a round on the class rows) takes
    a fixed number of numpy calls: one ``min`` (exact in any order) and one
    ``cumsum``, whose last column is that sequential sum. A taller block (a
    replay's (T, m), the exact LP's n rows) runs the same sum one action
    column at a time, which is faster there.
    """
    m = cum.shape[-1]
    wide = cum.size < m * m
    if wide:
        low = cum.min(axis=-1)
    else:
        low = cum[..., 0].copy()
        for a in range(1, m):
            np.minimum(low, cum[..., a], out=low)
    w = np.subtract(cum, low[..., None])
    w *= -eta
    np.exp(w, out=w)
    if wide:
        total = w.cumsum(axis=-1)[..., -1]
    else:
        total = w[..., 0].copy()
        for a in range(1, m):
            total += w[..., a]
    w /= total[..., None]
    return w


def most_violated(
    lp: FeasibilityLP, p: np.ndarray, eps0: float, src: NoiseSource
) -> tuple[int, float]:
    """Pick a most violated constraint; returns (index, true margin).

    Runs the exponential mechanism on the margins with sensitivity gamma at
    budget eps0; under a noise_off source that is the lowest-index argmax.
    """
    margins = lp.margins(p)
    k = exponential_mechanism(margins, lp.gamma, eps0, src)
    return k, float(margins[k])


@dataclass
class DistMWResult:
    """Average iterate, public per-round transcript, and the privacy ledger."""

    p_bar: np.ndarray
    transcript: list
    params: DistMWParams
    ledger: PrivacyLedger


def _row_labels(rows: np.ndarray) -> np.ndarray:
    """Dense labels of a 2-D array's rows, equal exactly where the bytes are."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return np.unique(keys, return_inverse=True)[1]


def _player_classes(lp: FeasibilityLP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the players whose support mask and (K, m) constraint rows are
    byte-identical; such players get the same MW row in every round.

    Returns (first, inverse, counts): each class's first player, each
    player's class and the class sizes, classes in order of first
    appearance, so n singleton classes give ``first == arange(n)``. Rows
    stored once for every player (the slack LP of shared facets) leave the
    support masks to tell players apart, with no O(n K m) comparison: one
    mask comparison finds a single class (a market at full support) without
    sorting; otherwise ``_grouped_classes`` sorts.
    """
    n = lp.shape[0]
    shared = _rows_shared(lp.cons_f)
    if shared and (lp.supports == lp.supports[0]).all():
        return np.zeros(1, np.intp), np.zeros(n, np.intp), np.array([n], np.intp)
    # bit patterns: -0.0 differs from 0.0
    return _grouped_classes(lp.supports, () if shared else lp.cons_f.view(np.int64))


def _grouped_classes(supports: np.ndarray, bits) -> tuple:
    """``_player_classes`` by sorting, from the (n, m) masks and the (K, n, m)
    rows' int64 bits (empty when every player shares the rows). Labels start
    from the support masks and split one constraint at a time; a constraint
    whose rows every player shares is skipped, and the splitting stops once
    every player stands alone, so the tensor is never copied whole."""
    n = supports.shape[0]
    label = _row_labels(supports)
    for block in bits:
        if label.max() == n - 1:
            break
        if not (block == block[0]).all():
            label = _row_labels(np.column_stack([label, block]))
    _, first, inverse, counts = np.unique(
        label, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse], counts[order]


def distmw_solve(lp: FeasibilityLP, params: DistMWParams, src: NoiseSource) -> DistMWResult:
    """Private no-regret dynamics against the most violated constraint.

    Runs exactly params.T rounds; round t selects a constraint through the
    exponential mechanism at budget eps0 applied to the current margins, then
    the selected facet joins every player's cumulative loss. Each iterate is
    the closed form shared with ``replay_mw_player``, the same mathematics as
    the recurrence p <- p exp(-eta f) / Z. Returns the average of the T
    iterates, which lands in the supported product simplex by construction.

    Players with byte-identical constraint rows and supports share one MW
    row, so after one grouping pass the rounds run on the C classes only:
    O(C K m) work per round instead of O(n K m). Margins are linear in p, so
    each class row counts once per member. When every player shares the
    facets (markets, anonymous games), C is at most the number of distinct
    support masks. While C < m, a round is a fixed number of numpy calls,
    whatever m is: the iterate's sum over actions is one ``cumsum``, still
    sequential in action order, so replays of (T, m) blocks agree bit for
    bit. The ledger holds one equal charge of eps0 per round.
    """
    if lp.shape != (params.n, params.m) or lp.gamma != params.gamma:
        raise ParameterError("params were derived for a different LP shape or gamma")
    # a margin is at most n gamma + max |b|; the mechanism scales it by eps0 / (2 gamma)
    check_finite(scaled_margin=params.eps0 / (2.0 * lp.gamma)
                 * (params.n * lp.gamma + float(np.max(np.abs(lp.cons_b)))))
    first, inverse, counts = _player_classes(lp)
    # shared rows are gathered into a C-ordered block, whose margins keep their bits
    classes = lp if len(first) == params.n and not _rows_shared(lp.cons_f) else FeasibilityLP(
        gamma=lp.gamma, cons_f=lp.cons_f[:, first], cons_b=lp.cons_b,
        supports=lp.supports[first],
    )
    sizes = counts[:, None].astype(float)
    cum = np.where(classes.supports, 0.0, np.inf)
    accum = np.zeros(classes.shape)
    transcript: list[int] = []
    for _ in range(params.T):
        p = _mw_iterate(cum, params.eta)
        accum += p
        k, _ = most_violated(classes, sizes * p, params.eps0, src)
        transcript.append(k)
        cum += classes.cons_f[k]
    (select,) = _distmw_stages(params)
    ledger = PrivacyLedger()
    ledger.charge(select)
    ledger.entries *= params.T  # one equal charge per round
    return DistMWResult(
        p_bar=(accum / params.T)[inverse], transcript=transcript, params=params, ledger=ledger,
    )


def replay_mw_player(
    cons_rows: np.ndarray, support_row: np.ndarray, params: DistMWParams, transcript
) -> np.ndarray:
    """Recompute one player's averaged row from the public transcript.

    ``cons_rows`` is that player's (K, m) slice of the constraint tensor and
    ``support_row`` their (m,) support mask; ``transcript`` must hold
    params.T integer indices in [0, K). One cumulative sum over the selected
    rows gives all T cumulative losses, and the closed-form iterate shared
    with ``distmw_solve`` runs once on the (T, m) block: O(T m) numpy work
    and memory. Bit-identical to the matching row of
    ``distmw_solve(...).p_bar``.
    """
    rows, mask = _mw_inputs(cons_rows, support_row, ("cons_rows", "support_row"))
    ks = np.asarray(transcript)
    if mask.shape != (params.m,) or rows.ndim != 2 or rows.shape[1:] != mask.shape:
        raise ParameterError(f"need (K, {params.m}) constraint rows and a ({params.m},) support")
    if ks.shape != (params.T,) or not np.issubdtype(ks.dtype, np.integer):
        raise ParameterError(f"transcript must hold {params.T} integer constraint indices")
    if ks.min() < 0 or ks.max() >= rows.shape[0]:
        raise ParameterError(f"transcript indices must lie in [0, {rows.shape[0]})")
    if not mask.any():
        raise DegenerateError("empty support row")
    cum = np.empty((params.T, params.m))
    cum[0] = np.where(mask, 0.0, np.inf)
    cum[1:] = rows[ks[:-1]]
    # sequential sums over rounds, in the order distmw_solve adds them
    np.cumsum(cum, axis=0, out=cum)
    return np.cumsum(_mw_iterate(cum, params.eta), axis=0)[-1] / params.T


def mw_accuracy_bound(
    n: int, m: int, gamma: float, epsilon: float, delta: float, n_constraints: int, beta: float
) -> float:
    """Margin guarantee of the private dynamics.

    100 * sqrt( (n gamma^2 / eps) * ln(K/beta) * ln n * sqrt(ln m * ln(1/delta)) ),
    the level below which all constraint margins of p_bar land with
    probability 1 - beta whenever the LP admits a feasible point at slack.
    """
    n, m = as_count("n", n), as_count("m", m)
    n_constraints = as_count("n_constraints", n_constraints)
    check_range("positive", gamma=gamma, epsilon=epsilon)
    check_range("unit", delta=delta, beta=beta)
    try:
        spread = n * gamma**2 / epsilon
    except OverflowError:
        raise ParameterError(f"gamma^2 leaves the float range at gamma = {gamma}") from None
    inner = (
        spread
        * math.log(n_constraints / beta)
        * math.log(n)
        * math.sqrt(math.log(m) * math.log(1.0 / delta))
    )
    return 100.0 * math.sqrt(inner)


# ---------------------------------------------------------------------------
# exact solver for the query side
# ---------------------------------------------------------------------------


def slack_rows(f: np.ndarray, loss=None) -> np.ndarray:
    """Constraint rows of the slack LP: +f_k and -f_k for each axis k, then
    the loss row if given. Facets of shape (d, ...) give (2d (+1), ...), so
    the mediator's (K, n, m) tensor, one player's (K, m) replay rows and the
    (K,) offsets all share this layout."""
    d = f.shape[0]
    rows = np.empty((2 * d + (loss is not None),) + f.shape[1:])
    rows[: 2 * d : 2] = f
    np.negative(f, out=rows[1 : 2 * d : 2])
    if loss is not None:
        rows[-1] = loss
    return rows


def build_slack_lp(
    game: AggregativeGame,
    s_hat: np.ndarray,
    y_hat: Optional[float],
    xi: float,
    slack: float,
) -> FeasibilityLP:
    """Assemble |S(p) - s_hat| <= slack (and L(p) <= y_hat + slack) over
    the xi-best-response supports at s_hat. ``y_hat=None`` is the only way
    to drop the loss row; a NaN or infinite y_hat is refused. Without a
    loss row, shared facets give (K, m) rows that the (K, n, m) constraint
    tensor views read-only for every player."""
    supports, cons_b, loss = _slack_point(game, s_hat, y_hat, xi, slack)
    block = shared_facets(game)
    if block is None or loss is not None:
        cons_f = slack_rows(game.f.transpose(1, 0, 2), loss)
    else:
        rows = slack_rows(block)
        cons_f = np.broadcast_to(rows[:, None, :], (len(rows), game.n, game.m))
    return FeasibilityLP(gamma=game.gamma, cons_f=cons_f, cons_b=cons_b, supports=supports)


def _slack_point(game: AggregativeGame, s_hat, y_hat, xi: float, slack: float) -> tuple:
    """(supports, offsets, loss rows or None) of the slack LP at one point,
    the part of ``build_slack_lp`` that depends on (s_hat, y_hat)."""
    s_hat = np.asarray(s_hat, dtype=float)
    if s_hat.shape != (game.d,):
        raise ParameterError(f"s_hat must have shape ({game.d},)")
    supports = best_response_support(utility_matrix(game, s_hat), xi)
    loss = y = None
    if y_hat is not None:
        check_finite(y_hat=y_hat)
        if game.loss is None:
            raise ParameterError("loss objective requested but the game declares no loss")
        loss, y = game.loss, float(y_hat)
    return supports, slack_rows(s_hat, y) + slack, loss


@dataclass
class ExactLPResult:
    """Certified estimate of min_p max_k margin over the supported simplices.

    For one (d,) point ``value``, ``upper`` and ``lower`` are floats and
    ``witness`` is (n, m); for a (G, d) stack they are (G,) arrays and a
    (G, n, m) block. ``rounds`` is the round at which the last point closed.
    """

    value: float | np.ndarray
    witness: np.ndarray
    upper: float | np.ndarray
    lower: float | np.ndarray
    rounds: int


def exact_lp_min(
    game: AggregativeGame,
    s_hat,
    y_hat,
    xi: float,
    tol: float,
) -> ExactLPResult:
    """Deterministic min-max margin of the slack-0 LP at (s_hat, y_hat).

    Runs multiplicative weights against the exactly most violated constraint,
    with each iterate the closed form shared with ``distmw_solve``, and stops
    once the measured primal value at the average iterate is within ``tol``
    of the dual lower bound read off the cumulative losses. The returned
    value lies in [Q - tol, Q] for the true optimum Q, and the witness's
    worst margin is at most value + tol. ``y_hat=None`` drops the loss
    term.

    ``s_hat`` is one (d,) point with a scalar ``y_hat``, or a (G, d) stack
    of points with a (G,) ``y_hat``. The step size, horizon, cap and the
    check every 16 rounds depend only on (game, tol), so the G loops run in
    lockstep on (G, n, m) blocks; each point retires at its own check round
    and the stack shrinks to the points still open. Every step is row-wise,
    so each point's fields equal its solo call's bit for bit.
    """
    check_range("positive", tol=tol)
    points = np.asarray(s_hat, dtype=float)
    solo = points.ndim == 1
    if points.ndim not in (1, 2):
        raise ParameterError(f"s_hat must have shape ({game.d},) or (G, {game.d})")
    points = np.atleast_2d(points)
    if len(points) == 0:
        raise ParameterError("s_hat must hold at least one point")
    if y_hat is None:
        levels = [None] * len(points)
    elif np.shape(y_hat) != (() if solo else (len(points),)):
        raise ParameterError(
            "y_hat must be one level for a (d,) s_hat, or one per point of a (G, d) stack"
        )
    else:
        levels = [y_hat] if solo else list(y_hat)
    lps = [build_slack_lp(game, points[0], levels[0], xi, slack=0.0)]
    # the facet and loss rows are the same at every point, so all share one
    # tensor; the margins below read it C-ordered, as ``FeasibilityLP.margins``
    for s, y in zip(points[1:], levels[1:]):
        supports, offsets, _ = _slack_point(game, s, y, xi, 0.0)
        lps.append(FeasibilityLP(game.gamma, lps[0].cons_f, offsets, supports))
    cons_f = np.ascontiguousarray(lps[0].cons_f)
    cons_b = np.stack([lp.cons_b for lp in lps])
    n, m = lps[0].shape
    log_m = math.log(m) if m > 1 else 1.0
    # horizon from the no-regret gap bound gamma*n*sqrt(2 ln m / T) <= tol,
    # floored so the step size stays in (0, 1]
    try:
        t_theory = max(
            1,
            math.ceil(2.0 * log_m),
            math.ceil(2.0 * (game.gamma * n) ** 2 * log_m / tol**2),
        )
    except (OverflowError, ZeroDivisionError):  # tol^2 or the horizon past the float range
        raise ParameterError(f"the LP horizon leaves the float range at tol = {tol}") from None
    cap = 8 * t_theory
    eta = math.sqrt(2.0 * log_m / t_theory)

    gamma = game.gamma

    def margins(p):  # FeasibilityLP.margins, one row per point
        return gamma * np.einsum("knm,gnm->gk", cons_f, p) - cons_b

    # +inf off the support: zero weight there, and no row minimum lands there
    cum = np.where(np.stack([lp.supports for lp in lps]), 0.0, np.inf)
    rows, shape = cum.reshape(-1, m), cum.shape  # the iterate runs faster on 2-D rows
    accum = np.zeros(cum.shape)
    b_sum = np.zeros(len(points))
    best_lower = np.full(len(points), -math.inf)
    check_every = 16
    picks = np.empty((check_every, len(points)), np.intp)  # choices since the last check
    live = np.arange(len(points))  # each open row's point
    value, upper, lower = (np.empty(len(points)) for _ in range(3))
    witness = np.empty((len(points), n, m))
    t = j = 0
    while len(live):
        t += 1
        p = _mw_iterate(rows, eta).reshape(shape)
        accum += p
        k = margins(p).argmax(axis=1, out=picks[j])
        cum += cons_f.take(k, axis=0)
        j += 1
        if t % check_every == 0 or t == 1 or t >= cap:
            # the offsets chosen since the last check join b_sum in round
            # order, as one scalar add per round would
            chosen = cons_b[np.arange(len(live)), picks[:j]]
            b_sum = np.concatenate((b_sum[None], chosen)).cumsum(axis=0)[-1]
            j = 0
            top = margins(accum / t).max(axis=1)
            low = gamma * (cum.min(axis=2) / t).sum(axis=1) - b_sum / t
            best_lower = np.where(low > best_lower, low, best_lower)
            done = top - best_lower <= tol
            if t >= cap:
                done[:] = True
            if np.count_nonzero(done):
                idx = live[done]
                # the dual bound never exceeds Q, and Q >= 0 because the
                # aggregator constraints come in absolute-value pairs
                value[idx] = np.where(0.0 > best_lower[done], 0.0, best_lower[done])
                witness[idx] = accum[done] / t
                upper[idx] = top[done]
                lower[idx] = best_lower[done]
                keep = ~done
                live, cum, accum, cons_b = live[keep], cum[keep], accum[keep], cons_b[keep]
                rows, shape = cum.reshape(-1, m), cum.shape
                b_sum, best_lower, picks = b_sum[keep], best_lower[keep], picks[:, keep]
    if solo:
        return ExactLPResult(value=float(value[0]), witness=witness[0], upper=float(upper[0]),
                             lower=float(lower[0]), rounds=t)
    return ExactLPResult(value=value, witness=witness, upper=upper, lower=lower, rounds=t)
