"""Scalar-aggregator solvers: summarization, smooth walks, and selection.

Games here have a one-dimensional aggregator, either the linear
gamma * sum f_i(x_i) of the base game or a declared quasi-aggregative map
with the same per-player sensitivity. The central object is the summary
function V(s), the aggregator value produced when everyone best-responds to
a fixed s; the solvers chase fixed points of V along an alpha-grid using
one-shot sparse-vector sessions, and bridge discontinuities by walking
player-by-player between adjacent best-response profiles.

Selection adds a public quality score over aggregator values and visits the
grid in quality order, so the first sparse hit doubles as an approximate
quality maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

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
    ThresholdUtility,
    abr_profile,
    abr_set,
    aggregator,
    as_pure_profile,
    grid_steps,
    utility_matrix,
    utility_values,
)

__all__ = [
    "QuasiAggregativeGame",
    "QualitySpec",
    "SelectionParams",
    "PSummResult",
    "SelectResult",
    "Extremes",
    "V",
    "psummnash",
    "psummnash_accuracy_floor",
    "smooth_walk",
    "s_extremes",
    "select_equilibrium",
    "selection_accuracy_floor",
    "make_optin_game",
    "validate_quasi",
    "replay_psummnash_player",
    "replay_select_player",
]


@dataclass(frozen=True)
class QuasiAggregativeGame:
    """d = 1 game, optionally with a declared non-linear aggregator.

    ``action_order`` ranks each player's actions by how much they push the
    aggregator up (best-first); it drives the optimistic / pessimistic
    profile extremes. The default ranks by facet value descending, which is
    exact for the linear aggregator.
    """

    base: AggregativeGame
    aggregator_fn: Optional[Callable[[np.ndarray], float]] = None
    action_order: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.base.d != 1:
            raise ParameterError("scalar-aggregator solvers need d = 1")
        if self.action_order is None:
            order = np.argsort(-self.base.f[:, 0, :], axis=1, kind="stable")
            object.__setattr__(self, "action_order", order.astype(np.int64))
        else:
            order = np.asarray(self.action_order, dtype=np.int64)
            if order.shape != (self.base.n, self.base.m):
                raise ParameterError("action_order must rank all m actions per player")
            if np.any(np.sort(order, axis=1) != np.arange(self.base.m)):
                raise ParameterError("each action_order row must be a permutation")
            object.__setattr__(self, "action_order", order)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def gamma(self) -> float:
        return self.base.gamma

    @property
    def W(self) -> float:
        return self.base.W

    def s_of(self, x) -> float:
        """Aggregator value of a pure profile under the declared map."""
        x = as_pure_profile(self.base, x)
        if self.aggregator_fn is not None:
            return float(self.aggregator_fn(x))
        return float(aggregator(self.base, x)[0])


def V(qgame: QuasiAggregativeGame, s: float) -> float:
    """Summary value: the aggregator of everyone's best response to s."""
    x = abr_profile(qgame.base, np.array([float(s)]))
    return qgame.s_of(x)


def validate_quasi(qgame: QuasiAggregativeGame, seed: int = 0, trials: int = 1000) -> None:
    """Sampled screen of a declared aggregator against its stated contract.

    For games with a custom aggregator map, checks on random profiles that
    (a) swapping one player's action moves the aggregator by at most the
    declared gamma and (b) the action order is aggregator-consistent: a
    higher-ranked action never lowers the aggregator. Games on the linear
    base form satisfy both by construction and pass through untouched.
    """
    if qgame.aggregator_fn is None:
        return
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n, m = qgame.n, qgame.m
    for _ in range(trials):
        x = rng.integers(0, m, size=n)
        i = int(rng.integers(0, n))
        a, b = rng.integers(0, m, size=2)
        x_a = x.copy()
        x_a[i] = a
        x_b = x.copy()
        x_b[i] = b
        s_a, s_b = qgame.s_of(x_a), qgame.s_of(x_b)
        if abs(s_a - s_b) > qgame.gamma + 1e-9:
            raise ParameterError(
                f"declared gamma = {qgame.gamma} understates the aggregator "
                f"influence ({abs(s_a - s_b):.4g} observed)"
            )
        order = qgame.action_order[i].tolist()
        if order.index(int(a)) < order.index(int(b)) and s_a < s_b - 1e-9:
            raise ParameterError(
                "action_order is inconsistent with the aggregator: a "
                "higher-ranked action lowered it"
            )


def smooth_walk(qgame: QuasiAggregativeGame, hi, lo) -> np.ndarray:
    """The n+1 composites x^j switching players to ``hi`` one at a time.

    x^j plays hi_i for the first j players and lo_i for the rest, so x^0 is
    lo, x^n is hi, and adjacent composites differ in at most one player
    (hence their aggregators differ by at most the per-player spread).
    """
    hi = as_pure_profile(qgame.base, hi)
    lo = as_pure_profile(qgame.base, lo)
    n = qgame.n
    steps = np.arange(n + 1)[:, None] > np.arange(n)[None, :]
    return np.where(steps, hi[None, :], lo[None, :])


def _walk_aggregators(qgame: QuasiAggregativeGame, walk: np.ndarray) -> np.ndarray:
    """Aggregator value at every walk composite (incremental when linear)."""
    n = qgame.n
    if qgame.aggregator_fn is not None:
        return np.array([qgame.s_of(walk[j]) for j in range(n + 1)])
    fvals = qgame.base.f[:, 0, :]
    s = np.empty(n + 1)
    s[0] = qgame.gamma * float(fvals[np.arange(n), walk[0]].sum())
    for j in range(1, n + 1):
        i = j - 1
        s[j] = s[j - 1] + qgame.gamma * (fvals[i, walk[n][i]] - fvals[i, walk[0][i]])
    return s


def psummnash_accuracy_floor(qgame: QuasiAggregativeGame, epsilon: float, beta: float) -> float:
    """Smallest admissible grid step: 100 gamma (ln(2Wn) + ln(6/beta)) / eps."""
    return (
        100.0
        * qgame.gamma
        * (math.log(2.0 * qgame.W * qgame.n) + math.log(6.0 / beta))
        / epsilon
    )


@dataclass
class PSummResult:
    """Summarization outcome: a profile from stage 1 or the walk, or abort."""

    aborted: bool
    stage: Optional[int]  # 1 (grid fixed point) or 3 (walk composite)
    alpha: float
    epsilon: float
    beta: float
    ledger: PrivacyLedger
    profile: Optional[np.ndarray] = None
    k_hit: Optional[int] = None  # stage-1 grid index, in units of alpha
    bracket: Optional[int] = None  # stage-2 crossing index l
    walk_j: Optional[int] = None  # stage-3 composite index
    noisy_value: Optional[float] = None
    queries: tuple = (0, 0, 0)

    def approx_bound(self, gamma: float) -> float:
        """Certified regret level 10 alpha + 2 gamma for non-aborting runs."""
        return 10.0 * self.alpha + 2.0 * gamma


def psummnash(
    qgame: QuasiAggregativeGame,
    epsilon: float,
    alpha: float,
    beta: float,
    src: NoiseSource,
) -> PSummResult:
    """Three-stage private fixed-point search on the summary function.

    Stage 1 scans the alpha-grid for |V(s) - s| <= 4 alpha. Failing that,
    stage 2 hunts a downward crossing of V through the grid (its query is a
    sum of two clamped one-sided gaps, nonpositive and at least -5 alpha,
    against threshold -4 alpha). Stage 3 walks between the two best-response
    profiles bracketing the crossing until the aggregator lands within
    alpha + gamma/2 of the crossing point. Each stage spends epsilon/3
    through its own one-shot sparse session.
    """
    check_finite(epsilon=epsilon, alpha=alpha)
    floor = psummnash_accuracy_floor(qgame, epsilon, beta)
    if alpha < floor:
        raise ParameterError(
            f"alpha = {alpha:.4g} is below the admissible floor {floor:.4g} "
            f"for epsilon = {epsilon}"
        )
    gamma = qgame.gamma
    K = grid_steps(qgame.W, alpha)
    ledger = PrivacyLedger()
    result = partial(PSummResult, alpha=alpha, epsilon=epsilon, beta=beta, ledger=ledger)
    memo: dict[int, float] = {}

    def v_at(k: int) -> float:
        if k not in memo:
            memo[k] = V(qgame, k * alpha)
        return memo[k]

    def session(stream: str, charge: str, threshold: float) -> SparseSession:
        ledger.add(charge, epsilon / 3.0, 0.0)
        return SparseSession(gamma, threshold, 1, epsilon / 3.0, src.child(stream))

    # stage 1: grid points that already summarize themselves
    s1 = session("stage1", "grid-fixed-point", 4.0 * alpha)
    k, ans, asked1 = first_below(s1, range(-K, K), lambda k: abs(v_at(k) - k * alpha))
    if k is not None:
        profile = abr_profile(qgame.base, np.array([k * alpha]))
        return result(
            aborted=False, stage=1, profile=profile, k_hit=k, noisy_value=ans.value,
            queries=(asked1, 0, 0),
        )

    # stage 2: locate a downward crossing of V across one grid step
    def crossing_gap(k: int) -> float:
        gap_hi = max(min(0.0, k * alpha - v_at(k - 1)), -2.0 * alpha)
        gap_lo = max(min(0.0, v_at(k) - k * alpha), -3.0 * alpha)
        return gap_hi + gap_lo

    s2 = session("stage2", "crossing-scan", -4.0 * alpha)
    bracket, _, asked2 = first_below(s2, range(-K + 1, K), crossing_gap)
    if bracket is None:
        return result(aborted=True, stage=None, queries=(asked1, asked2, 0))

    # stage 3: walk between the bracketing best-response profiles
    hi = abr_profile(qgame.base, np.array([bracket * alpha]))
    lo = abr_profile(qgame.base, np.array([(bracket - 1) * alpha]))
    walk = smooth_walk(qgame, hi, lo)
    s_vals = _walk_aggregators(qgame, walk)
    s3 = session("stage3", "walk-scan", alpha + gamma / 2.0)
    j, ans, asked3 = first_below(
        s3, range(qgame.n + 1), lambda j: abs(float(s_vals[j]) - bracket * alpha)
    )
    if j is None:
        return result(aborted=True, stage=None, bracket=bracket, queries=(asked1, asked2, asked3))
    return result(
        aborted=False, stage=3, profile=walk[j], bracket=bracket, walk_j=j,
        noisy_value=ans.value, queries=(asked1, asked2, asked3),
    )


def replay_psummnash_player(
    qgame: QuasiAggregativeGame, i: int, result: PSummResult
) -> int:
    """Player i's action from the public transcript and own utilities only."""
    if result.aborted:
        raise ParameterError("aborted runs publish no profile to replay")
    base = qgame.base

    def own_best(s: float) -> int:
        vals = utility_values(base, i, np.array([s]))
        return int(np.argmax(vals))

    if result.stage == 1:
        return own_best(result.k_hit * result.alpha)
    hi = own_best(result.bracket * result.alpha)
    lo = own_best((result.bracket - 1) * result.alpha)
    return hi if i < result.walk_j else lo


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QualitySpec:
    """Public quality score over aggregator values with Lipschitz constant."""

    fn: Callable[[float], float]
    lam: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lam < 0:
            raise ParameterError("quality Lipschitz constant must be nonnegative")

    @classmethod
    def peak(cls, target: float, lam: float = 1.0) -> "QualitySpec":
        return cls(
            fn=lambda s: -lam * abs(s - target), lam=lam,
            kind="peak", params={"target": target, "lam": lam},
        )

    @classmethod
    def linear(cls, slope: float) -> "QualitySpec":
        return cls(
            fn=lambda s: slope * s, lam=abs(slope),
            kind="linear", params={"slope": slope},
        )

    @classmethod
    def from_json(cls, payload: dict) -> "QualitySpec":
        kind = payload.get("kind")
        if kind == "peak":
            return cls.peak(float(payload["target"]), float(payload.get("lam", 1.0)))
        if kind == "linear":
            return cls.linear(float(payload["slope"]))
        raise ParameterError(f"unknown quality kind {kind!r}")


def selection_accuracy_floor(qgame: QuasiAggregativeGame, epsilon: float, beta: float) -> float:
    """Smallest admissible grid step: 100 gamma (ln(2Wn) + ln(8/beta)) / eps."""
    return (
        100.0
        * qgame.gamma
        * (math.log(2.0 * qgame.W * qgame.n) + math.log(8.0 / beta))
        / epsilon
    )


@dataclass(frozen=True)
class SelectionParams:
    """Grid geometry and budget split for quality-ordered selection."""

    zeta: float
    epsilon: float
    alpha: float
    beta: float
    quality: QualitySpec
    gamma: float
    W: float
    n: int
    xi: float = field(init=False)
    grid: np.ndarray = field(init=False)  # visit order, quality descending

    def __post_init__(self):
        check_finite(epsilon=self.epsilon, alpha=self.alpha, zeta=self.zeta)
        if self.epsilon <= 0 or self.alpha <= 0 or not (0 < self.beta < 1):
            raise ParameterError("need epsilon > 0, alpha > 0, beta in (0, 1)")
        if self.zeta < 4.0 * self.gamma:
            raise ParameterError("selection needs zeta >= 4 gamma")
        object.__setattr__(self, "xi", 2.0 * self.alpha + self.gamma + self.zeta)
        K = grid_steps(self.W, self.alpha)
        values = np.arange(-K, K) * self.alpha
        scores = np.array([self.quality.fn(float(s)) for s in values])
        if np.max(np.abs(np.diff(scores))) > self.quality.lam * self.alpha + 1e-9:
            raise ParameterError(
                "quality score moves faster on the grid than its declared "
                "Lipschitz constant allows"
            )
        order = np.lexsort((values, -scores))
        object.__setattr__(self, "grid", values[order])

    @classmethod
    def for_game(
        cls,
        qgame: QuasiAggregativeGame,
        zeta: float,
        epsilon: float,
        alpha: float,
        beta: float,
        quality: QualitySpec,
    ) -> "SelectionParams":
        floor = selection_accuracy_floor(qgame, epsilon, beta)
        if alpha < floor:
            raise ParameterError(
                f"alpha = {alpha:.4g} is below the admissible floor {floor:.4g} "
                f"for epsilon = {epsilon}"
            )
        return cls(
            zeta=zeta, epsilon=epsilon, alpha=alpha, beta=beta, quality=quality,
            gamma=qgame.gamma, W=qgame.W, n=qgame.n,
        )

    @property
    def approx_bound(self) -> float:
        """Regret level 10 alpha + 3 gamma + zeta certified on success."""
        return 10.0 * self.alpha + 3.0 * self.gamma + self.zeta

    def quality_penalty(self) -> float:
        """Selected quality trails the best zeta-equilibrium by <= 5 alpha lam."""
        return 5.0 * self.alpha * self.quality.lam


@dataclass(frozen=True)
class Extremes:
    """Aggregator reach of the xi-best-response region at one grid point."""

    s_min: float
    s_max: float
    x_min: np.ndarray
    x_max: np.ndarray


def s_extremes(qgame: QuasiAggregativeGame, s: float, xi: float) -> Extremes:
    """Optimistic and pessimistic composites over the xi-ABR sets at s.

    Per player, the most and least aggregator-increasing action (by their
    declared order) among those within xi of their best response to s.
    """
    if xi < 0:
        raise ParameterError("xi must be nonnegative")
    vals = utility_matrix(qgame.base, np.array([float(s)]))
    allowed = vals >= vals.max(axis=1, keepdims=True) - xi
    ranked = np.take_along_axis(allowed, qgame.action_order, axis=1)
    rows = np.arange(qgame.n)
    x_max = qgame.action_order[rows, np.argmax(ranked, axis=1)]
    x_min = qgame.action_order[rows, qgame.m - 1 - np.argmax(ranked[:, ::-1], axis=1)]
    return Extremes(
        s_min=qgame.s_of(x_min), s_max=qgame.s_of(x_max), x_min=x_min, x_max=x_max
    )


@dataclass
class SelectResult:
    """Quality-ordered selection outcome: best certified profile or abort."""

    aborted: bool
    params: SelectionParams
    ledger: PrivacyLedger
    profile: Optional[np.ndarray] = None
    branch: Optional[str] = None  # "optimistic", "pessimistic", or "walk"
    s_star: Optional[float] = None
    rank: Optional[int] = None  # position of s_star in quality order
    walk_j: Optional[int] = None
    noisy_value: Optional[float] = None
    queries: tuple = (0, 0, 0, 0)

    @property
    def quality_value(self) -> Optional[float]:
        if self.s_star is None:
            return None
        return float(self.params.quality.fn(self.s_star))


def select_equilibrium(
    qgame: QuasiAggregativeGame, params: SelectionParams, src: NoiseSource
) -> SelectResult:
    """Pick an approximate equilibrium of near-best public quality.

    Visits the grid in quality order four times, each visit a one-shot
    sparse session at budget epsilon/4: (a) points whose optimistic composite
    sits within 3 alpha, (b) same for the pessimistic composite, (c) points
    whose xi-ABR region straddles them (a clamped two-sided gap against
    threshold -3 alpha), resolved by (d) a walk between the two composites.
    The best-ranked hit across branches wins.
    """
    gamma = params.gamma
    alpha = params.alpha
    eps4 = params.epsilon / 4.0
    ledger = PrivacyLedger()
    grid = params.grid.tolist()
    memo: dict[int, Extremes] = {}

    def ext(idx: int) -> Extremes:
        if idx not in memo:
            memo[idx] = s_extremes(qgame, grid[idx], params.xi)
        return memo[idx]

    def session(stream: str, threshold: float) -> SparseSession:
        ledger.add(f"{stream}-scan", eps4, 0.0)
        return SparseSession(gamma, threshold, 1, eps4, src.child(stream))

    points = range(len(grid))
    hits = []  # (rank, profile, branch, walk_j, noisy), in branch order

    sess = session("optimistic", 3.0 * alpha)
    idx, ans, asked_a = first_below(sess, points, lambda i: abs(ext(i).s_max - grid[i]))
    if idx is not None:
        hits.append((idx, ext(idx).x_max, "optimistic", None, ans.value))

    sess = session("pessimistic", 3.0 * alpha)
    idx, ans, asked_b = first_below(sess, points, lambda i: abs(ext(i).s_min - grid[i]))
    if idx is not None:
        hits.append((idx, ext(idx).x_min, "pessimistic", None, ans.value))

    def straddle_gap(i: int) -> float:
        gap_lo = max(min(ext(i).s_min - grid[i], 0.0), -2.0 * alpha)
        gap_hi = max(min(grid[i] - ext(i).s_max, 0.0), -2.0 * alpha)
        return gap_lo + gap_hi

    # the walk is charged up front, whether or not it runs
    sess_c, sess_d = session("straddle", -3.0 * alpha), session("walk", alpha + gamma / 2.0)
    idx, _, asked_c = first_below(sess_c, points, straddle_gap)
    asked_d = 0
    if idx is not None:
        walk = smooth_walk(qgame, ext(idx).x_max, ext(idx).x_min)
        s_vals = _walk_aggregators(qgame, walk)
        j, ans, asked_d = first_below(
            sess_d, range(qgame.n + 1), lambda j: abs(float(s_vals[j]) - grid[idx])
        )
        if j is not None:
            hits.append((idx, walk[j], "walk", j, ans.value))

    queries = (asked_a, asked_b, asked_c, asked_d)
    if not hits:
        return SelectResult(aborted=True, params=params, ledger=ledger, queries=queries)
    # the best-ranked hit wins; on a tie the earlier branch does
    rank, profile, branch, walk_j, noisy = min(hits, key=lambda hit: hit[0])
    return SelectResult(
        aborted=False, params=params, ledger=ledger, profile=profile, branch=branch,
        s_star=grid[rank], rank=rank, walk_j=walk_j, noisy_value=noisy, queries=queries,
    )


def replay_select_player(qgame: QuasiAggregativeGame, i: int, result: SelectResult) -> int:
    """Player i's selected action from the public transcript and own data."""
    if result.aborted:
        raise ParameterError("aborted runs publish no profile to replay")
    base = qgame.base
    s_arr = np.array([result.s_star])
    allowed = set(abr_set(base, i, s_arr, result.params.xi).tolist())
    ranked = [a for a in qgame.action_order[i].tolist() if a in allowed]
    if result.branch == "optimistic":
        return ranked[0]
    if result.branch == "pessimistic":
        return ranked[-1]
    return ranked[0] if i < result.walk_j else ranked[-1]


def make_optin_game(
    n: int, thresholds, gamma: Optional[float] = None
) -> QuasiAggregativeGame:
    """Two-action participation game: join (facet 1) or stay out (facet 0).

    The aggregator is the participation share scaled by gamma * n (exactly
    the share for the default gamma = 1/n); a player joins when it is at
    least their threshold, with the tie at equality resolving to joining.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != (n,):
        raise ParameterError("one threshold per player required")
    if np.min(thresholds) < 0.0 or np.max(thresholds) > 1.0:
        raise ParameterError("thresholds must lie in [0, 1]")
    if gamma is None:
        gamma = 1.0 / n
    f = np.zeros((n, 1, 2))
    f[:, 0, 0] = 1.0
    base = AggregativeGame(
        n=n, m=2, d=1, gamma=gamma, W=max(1.0, gamma * n), f=f,
        utility=ThresholdUtility(thresholds=thresholds),
    )
    return QuasiAggregativeGame(base=base)
