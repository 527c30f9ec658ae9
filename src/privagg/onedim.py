"""Scalar-aggregator solvers: summarization, smooth walks, and selection.

Games here have a one-dimensional aggregator, the linear
gamma * sum f_i(x_i) of a d = 1 base game, so one player's move shifts it
by at most the game's gamma. The central object is the summary
function V(s), the aggregator value produced when everyone best-responds to
a fixed s; the solvers chase fixed points of V along an alpha-grid using
one-shot sparse-vector sessions, and bridge discontinuities by walking
player-by-player between adjacent best-response profiles.

``V`` and ``s_extremes`` take one point or an ascending array of them. On
an array they sweep: they evaluate every payoff at the first point only, and
after that re-evaluate a player at a point only where one of their payoff
gaps u_b - u_a, a line in s, lies within ``SWEEP_BAND`` of a flip value
there, or at the first point past such a band. The flip value is 0 for the
best response that ``V`` reads, and -xi or xi for the xi-best-response sets
that ``s_extremes`` reads. Elsewhere every comparison the rule makes between
the player's payoffs keeps its answer, so their choice cannot change. The
bands come from evaluators that declare their payoff lines (linear and
threshold utilities); on table and market games, at points so far out that
a payoff's float error could pass the band, and at a single point, the
same sweep makes its choice in full at every point. ``V`` at a float s is
a sweep over one point; ``s_extremes`` at a float s returns the composite
profiles themselves.

Every private scan here asks its sparse session a block of queries at a
time (``first_below``), in one doubling schedule (``_FIRST_BLOCK``). psummnash
reads ``V`` over its grid blocks, and the walks slice their aggregator
arrays.

Selection adds a public quality score over aggregator values and visits the
grid in quality order, so the first sparse hit doubles as an approximate
quality maximizer. Each block of that order is sorted, swept by
``s_extremes`` and put back in quality order before it is asked.
"""

from __future__ import annotations

import itertools
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
    as_real,
    check_certificate,
    check_finite,
    check_range,
    first_below,
)
from .game_core import (
    AggregativeGame,
    ThresholdUtility,
    abr_profile,
    abr_set,
    aggregator,
    as_player,
    as_pure_profile,
    best_response_support,
    first_argmax,
    grid_steps,
    support_width,
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
    "SmoothWalk",
    "SWEEP_BAND",
    "V",
    "psummnash",
    "psummnash_accuracy_floor",
    "smooth_walk",
    "s_extremes",
    "select_equilibrium",
    "make_optin_game",
    "replay_psummnash_player",
    "replay_select_player",
]


@dataclass(frozen=True)
class QuasiAggregativeGame:
    """The d = 1 view of an aggregative game for the scalar solvers. The
    payoff-gap bands that ``V`` and ``s_extremes`` sweep with are built on
    first use and kept here, one set per band offset."""

    base: AggregativeGame
    _sweep_bands: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base.d != 1:
            raise ParameterError("scalar-aggregator solvers need d = 1")

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
        """Aggregator value of a pure profile."""
        return float(aggregator(self.base, x)[0])


# half-width of the band around a payoff gap's flip value in which the sweep
# re-evaluates the player. A computed payoff is off its line by at most
# 2 eps (|slope s| + |intercept|), about 1e-15 on [-W, W], and the rule's
# subtraction of xi adds eps (|payoff| + xi); the sweep runs only where
# 16 eps times the largest such reach stays below the band.
SWEEP_BAND = 1e-9
_SWEEP_EPS = 16.0 * np.finfo(float).eps
# (player, point) rows the sweep re-evaluates in one pass, at most
_SWEEP_ROWS = 1 << 18
# players whose payoff-gap bands are located in one pass
_SWEEP_PLAYERS = 1 << 16


def _sweep_points(name: str, s) -> np.ndarray:
    """The points of a swept call: a 1-D, finite, ascending float array."""
    points = np.asarray(s, dtype=float)
    if points.ndim != 1:
        raise ParameterError(
            f"{name} takes a point or a 1-D array of points, got shape {points.shape}"
        )
    if not np.isfinite(points).all():
        raise ParameterError(f"{name}'s points must be finite")
    if np.any(points[1:] < points[:-1]):
        raise ParameterError(f"{name} sweeps ascending points only")
    return points


def _pick(facets: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Each row's facet at its chosen action."""
    return facets[np.arange(len(actions)), actions]


def V(qgame: QuasiAggregativeGame, s):
    """Summary value: the aggregator of everyone's best response to s.

    A float s gives a float. An ascending 1-D array of points gives the
    array of V at each, bit for bit what the float call gives: both are one
    ``_sweep`` (see the module docstring).
    """
    def choose(vals, facets):
        return (_pick(facets, first_argmax(vals)),)

    v = _sweep(qgame, _sweep_points("V", np.atleast_1d(s)), 0.0, choose)[0]
    return float(v[0]) if np.ndim(s) == 0 else v


def _bands(qgame: QuasiAggregativeGame, xi: float) -> Optional[tuple]:
    """(player, lo, hi, reach) of the game's payoff-gap bands at offset xi,
    built once per game and offset and kept on ``qgame``. For every player
    and action pair, the gap u_b - u_a is a line in s, and [lo, hi] are the
    s where it lies within ``SWEEP_BAND`` of -xi or of xi: only there can the
    rule "a pays at least the best payoff less xi" change its answer for the
    pair (at xi = 0, only there can the best response change). ``reach`` is
    (largest |slope|, largest |intercept|) of the payoffs, for the float-error
    guard. None when the evaluator declares no payoff lines."""
    if xi not in qgame._sweep_bands:
        qgame._sweep_bands[xi] = _build_bands(qgame.base.utility, xi)
    return qgame._sweep_bands[xi]


def _build_bands(utility, xi: float) -> Optional[tuple]:
    if not hasattr(utility, "payoff_lines"):
        return None
    slope, icpt = utility.payoff_lines()

    def top(arr):  # max |arr| without an |arr| copy
        return max(arr.max(), -arr.min())

    n, m = slope.shape
    index = np.int32 if n < 2**31 else np.int64  # half the memory of intp
    parts = [(np.empty(0, dtype=index), np.empty(0), np.empty(0))]  # one action: no pair
    for start in range(0, n, _SWEEP_PLAYERS):
        rows = slice(start, start + _SWEEP_PLAYERS)
        players = np.arange(start, min(start + _SWEEP_PLAYERS, n), dtype=index)
        for a, b in itertools.combinations(range(m), 2):
            g1 = slope[rows, b] - slope[rows, a]
            g0 = icpt[rows, b] - icpt[rows, a]
            for centre in sorted({-xi, xi}):
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    x = (centre - g0 - SWEEP_BAND) / g1
                    y = (centre - g0 + SWEEP_BAND) / g1
                lo, hi = np.minimum(x, y), np.maximum(x, y)
                # a gap of slope 0 lies in the band at every point or at none
                flat = g1 == 0
                lo[flat] = np.where(np.abs(g0[flat] - centre) <= SWEEP_BAND, -np.inf, np.inf)
                hi[flat] = np.inf
                live = lo < np.inf
                parts.append((players[live], lo[live], hi[live]))
    player, lo, hi = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(lo)  # each block's bands are then a prefix of the order
    return player[order], lo[order], hi[order], (top(slope), top(icpt))


def _band_ranges(qgame: QuasiAggregativeGame, points: np.ndarray, xi: float) -> Optional[tuple]:
    """(player, first, stop) for every band of ``_bands`` that meets
    points[1:]: the points in [first, stop) are those in the band, and the
    first one past it. None when the game has no bands, when there are
    fewer than two points (no bands are built then), or when the points
    reach so far out that a payoff's float error could pass the band."""
    bands = _bands(qgame, xi) if points.size > 1 else None
    if bands is None:
        return None
    player, lo, hi, (slope_top, icpt_top) = bands
    if _SWEEP_EPS * (slope_top * max(-points[0], points[-1]) + icpt_top + xi) > SWEEP_BAND:
        return None
    L = len(points)
    index = np.int32 if L < 2**31 else np.int64
    # a band below every point changes nothing after the first
    reach = np.searchsorted(lo, points[-1], "right")
    near = np.flatnonzero(hi[:reach] >= points[0])
    first = np.maximum(np.searchsorted(points, lo[near], "left"), 1)
    stop = np.minimum(np.searchsorted(points, hi[near], "right") + 1, L)
    keep = first < stop
    return player[near[keep]], first[keep].astype(index), stop[keep].astype(index)


def _chunks(first: np.ndarray, stop: np.ndarray, L: int):
    """Consecutive [lo, hi) blocks covering points 1..L-1, each holding at
    most ``_SWEEP_ROWS`` rows of the ranges, unless it is one point long."""
    per_point = np.cumsum(np.bincount(first, minlength=L + 1) - np.bincount(stop, minlength=L + 1))
    upto = np.cumsum(per_point[:L])  # rows at points 0..p
    lo = 1
    while lo < L:
        hi = int(np.searchsorted(upto, upto[lo - 1] + _SWEEP_ROWS, side="right"))
        hi = min(L, max(hi, lo + 1))
        yield lo, hi
        lo = hi


def _events(player, first, stop, lo: int, hi: int, n: int) -> tuple:
    """(players, points) of the ranges cut to [lo, hi), without repeats,
    sorted by point and then by player."""
    a = np.maximum(first, lo)
    b = np.minimum(stop, hi)
    keep = a < b
    player, a, counts = player[keep], a[keep], (b - a)[keep]
    offsets = np.cumsum(counts) - counts
    at = np.arange(counts.sum()) + np.repeat(a - offsets, counts)
    key = np.sort(at * n + np.repeat(player, counts))
    key = key[np.diff(key, prepend=-1) != 0]  # a point two pairs name, once
    return key % n, key // n


def _sweep(qgame: QuasiAggregativeGame, points: np.ndarray, xi: float, choose) -> np.ndarray:
    """Sums of chosen facets at each ascending point, one row per output of
    ``choose(values, facets)``, which maps (k, m) payoff rows and the same
    players' facet rows to a tuple of chosen-facet arrays. The choice is made
    in full at the first point, then only at the (player, point) rows of the
    ranges of ``_band_ranges(qgame, points, xi)``, all in one ``value_rows``
    pass per chunk; where that gives None, it is made in full at every
    point. Each point sums the chosen facets in player order, as
    ``aggregator`` does, and the sums are scaled by gamma."""
    game = qgame.base
    facets = game.f[:, 0, :]
    L = len(points)
    if L == 0:  # choose over no rows: one empty array per output
        return np.empty((len(choose(np.empty((0, game.m)), facets[:0])), 0))
    chosen = choose(utility_matrix(game, points[:1]), facets)
    sums = np.empty((len(chosen), L))
    sums[:, 0] = [c.sum() for c in chosen]
    ranges = _band_ranges(qgame, points, xi)
    if ranges is None:
        for p in range(1, L):
            chosen = choose(utility_matrix(game, points[p : p + 1]), facets)
            sums[:, p] = [c.sum() for c in chosen]
        return game.gamma * sums
    player, first, stop = ranges
    for lo, hi in _chunks(first, stop, L):
        who, at = _events(player, first, stop, lo, hi, game.n)
        new = choose(game.utility.value_rows(who, points[at]), facets[who])
        edges = np.searchsorted(at, np.arange(lo, hi + 1)).tolist()
        for p, (e0, e1) in enumerate(zip(edges, edges[1:]), lo):
            if e0 < e1:
                for c, update, row in zip(chosen, new, sums):
                    c[who[e0:e1]] = update[e0:e1]
                    row[p] = c.sum()
            else:
                sums[:, p] = sums[:, p - 1]
    return game.gamma * sums


@dataclass(frozen=True, eq=False)
class SmoothWalk:
    """The n+1 composites between two profiles, built one at a time on demand.

    ``walk[j]`` is x^j: hi_i for the first j players and lo_i for the rest,
    returned as a fresh array. Only the two end profiles are stored.
    """

    hi: np.ndarray
    lo: np.ndarray

    def __len__(self) -> int:
        return len(self.hi) + 1

    def __getitem__(self, j):
        rows = range(len(self))[j]  # ints, negative ints and slices, as on an array
        if isinstance(rows, range):
            return np.array([self[k] for k in rows], dtype=np.int64).reshape(-1, len(self.hi))
        return np.concatenate((self.hi[:rows], self.lo[rows:]))

    @property
    def nbytes(self) -> int:
        return self.hi.nbytes + self.lo.nbytes


def smooth_walk(qgame: QuasiAggregativeGame, hi, lo) -> SmoothWalk:
    """The n+1 composites x^j switching players to ``hi`` one at a time.

    x^j plays hi_i for the first j players and lo_i for the rest, so x^0 is
    lo, x^n is hi, and adjacent composites differ in at most one player
    (hence their aggregators differ by at most the per-player spread). The
    composites are built on demand; only the two end profiles are stored.
    """
    return SmoothWalk(as_pure_profile(qgame.base, hi), as_pure_profile(qgame.base, lo))


def _walk_aggregators(qgame: QuasiAggregativeGame, walk: SmoothWalk) -> np.ndarray:
    """Aggregator value at every walk composite, built incrementally.

    s[0] is the aggregator of lo and each later value adds one player's
    shift; the running sum is sequential, as a loop would be.
    """
    n = qgame.n
    fvals = qgame.base.f[:, 0, :]
    rows = np.arange(n)
    s = np.empty(n + 1)
    s[0] = qgame.gamma * float(fvals[rows, walk.lo].sum())
    s[1:] = qgame.gamma * (fvals[rows, walk.hi] - fvals[rows, walk.lo])
    return np.add.accumulate(s)


# queries in the first block of every scan here; each later block is as long
# as all before it, so a hit at position j >= _FIRST_BLOCK is asked in at
# most 2 + log2(j / _FIRST_BLOCK) blocks, and no scan builds more than
# max(_FIRST_BLOCK, 2j) queries
_FIRST_BLOCK = 16


def _blocks(total: int):
    """[lo, hi) ranges over positions 0..total-1 in the scans' doubling
    schedule."""
    lo = 0
    while lo < total:
        hi = min(total, lo + max(lo, _FIRST_BLOCK))
        yield lo, hi
        lo = hi


def _scan(session: SparseSession, queries: np.ndarray) -> tuple:
    """``first_below`` over an array of query values, in doubling blocks."""
    return first_below(session, (queries[lo:hi] for lo, hi in _blocks(len(queries))))


def _walk_scan(qgame: QuasiAggregativeGame, session: SparseSession, hi, lo, target: float):
    """The first composite of the walk from lo to hi whose aggregator lands
    within the session's threshold of ``target``: (j, queries asked, x^j),
    with j and x^j None on a miss."""
    walk = smooth_walk(qgame, hi, lo)
    j, asked = _scan(session, np.abs(_walk_aggregators(qgame, walk) - target))
    return j, asked, None if j is None else walk[j]


def _psummnash_bound(alpha: float, gamma: float) -> float:
    """Certified regret level 10 alpha + 2 gamma of a non-aborting psummnash run."""
    return 10.0 * alpha + 2.0 * gamma


def _accuracy_floor(qgame: QuasiAggregativeGame, epsilon: float, beta: float, sessions: int):
    """Smallest admissible grid step of a solver that splits epsilon over
    ``sessions`` sparse sessions: 100 gamma (ln(2Wn) + ln(2 sessions/beta)) / eps."""
    return (
        100.0
        * qgame.gamma
        * (math.log(2.0 * qgame.W * qgame.n) + math.log(2.0 * sessions / beta))
        / epsilon
    )


def _check_floor(
    qgame: QuasiAggregativeGame, epsilon: float, alpha: float, beta: float, sessions: int
) -> None:
    """Refuse a budget out of range, then an alpha below the accuracy floor
    of a solver with ``sessions`` sparse sessions on this game."""
    check_range("positive", epsilon=epsilon, alpha=alpha)
    check_range("unit", beta=beta)
    floor = _accuracy_floor(qgame, epsilon, beta, sessions)
    if alpha < floor:
        raise ParameterError(
            f"alpha = {alpha:.4g} is below the admissible floor {floor:.4g} "
            f"for epsilon = {epsilon}"
        )


def psummnash_accuracy_floor(qgame: QuasiAggregativeGame, epsilon: float, beta: float) -> float:
    """Smallest admissible psummnash grid step (three sessions):
    100 gamma (ln(2Wn) + ln(6/beta)) / eps."""
    return _accuracy_floor(qgame, epsilon, beta, 3)


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
    queries: tuple = (0, 0, 0)

    def approx_bound(self, gamma: float) -> float:
        """Certified regret level 10 alpha + 2 gamma for non-aborting runs."""
        return _psummnash_bound(self.alpha, gamma)


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

    Stage 1 reads V over the grid in the scans' doubling blocks (see
    ``_FIRST_BLOCK``), so a stage-1 hit at scan position j has V evaluated at
    no more than max(``_FIRST_BLOCK``, 2j + 2) points. Stages 2 and 3 only
    run after stage 1 asked every point, and stage 2 reuses those values.
    """
    _check_floor(qgame, epsilon, alpha, beta, 3)
    # callers evaluate the bound at gamma or at the tighter gamma_eff
    check_certificate(_psummnash_bound(alpha, max(qgame.gamma, qgame.base.gamma_eff)), "lower alpha")
    gamma = qgame.gamma
    K = grid_steps(qgame.W, alpha)
    ledger = PrivacyLedger()
    result = partial(PSummResult, alpha=alpha, epsilon=epsilon, beta=beta, ledger=ledger)
    eps3 = epsilon / 3.0

    values = []  # V over each block stage 1 asked

    def fixed_point_gaps():
        for lo, hi in _blocks(2 * K):
            points = np.arange(lo - K, hi - K) * alpha
            values.append(V(qgame, points))
            yield np.abs(values[-1] - points)

    # stage 1: grid points that already summarize themselves
    s1 = ledger.open_session("grid-fixed-point", gamma, 4.0 * alpha, eps3, src.child("stage1"))
    j, asked1 = first_below(s1, fixed_point_gaps())
    if j is not None:
        k = j - K
        profile = abr_profile(qgame.base, np.array([k * alpha]))
        return result(
            aborted=False, stage=1, profile=profile, k_hit=k, queries=(asked1, 0, 0),
        )

    # stage 2: locate a downward crossing of V across one grid step k - 1 -> k,
    # for k from -K + 1 up; the query is the sum of two clamped one-sided gaps
    v = np.concatenate(values)
    points = np.arange(-K + 1, K) * alpha
    gap_hi = np.maximum(np.minimum(0.0, points - v[:-1]), -2.0 * alpha)
    gap_lo = np.maximum(np.minimum(0.0, v[1:] - points), -3.0 * alpha)
    s2 = ledger.open_session("crossing-scan", gamma, -4.0 * alpha, eps3, src.child("stage2"))
    j, asked2 = _scan(s2, gap_hi + gap_lo)
    if j is None:
        return result(aborted=True, stage=None, queries=(asked1, asked2, 0))
    bracket = j - K + 1

    # stage 3: walk between the bracketing best-response profiles
    hi = abr_profile(qgame.base, np.array([bracket * alpha]))
    lo = abr_profile(qgame.base, np.array([(bracket - 1) * alpha]))
    s3 = ledger.open_session("walk-scan", gamma, alpha + gamma / 2.0, eps3, src.child("stage3"))
    j, asked3, profile = _walk_scan(qgame, s3, hi, lo, bracket * alpha)
    if j is None:
        return result(aborted=True, stage=None, bracket=bracket, queries=(asked1, asked2, asked3))
    return result(
        aborted=False, stage=3, profile=profile, bracket=bracket, walk_j=j,
        queries=(asked1, asked2, asked3),
    )


def replay_psummnash_player(
    qgame: QuasiAggregativeGame, i: int, result: PSummResult
) -> int:
    """Player i's action from the public transcript and own utilities only."""
    if result.aborted:
        raise ParameterError("aborted runs publish no profile to replay")
    base = qgame.base
    i = as_player(base.n, i)

    def own_best(s: float) -> int:
        # the mediator's rule (``abr_profile``), applied to player i's row
        return int(first_argmax(utility_values(base, i, np.array([s]))[None, :])[0])

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
    """Public quality score over aggregator values with Lipschitz constant.

    ``fn`` must be elementwise: ``SelectionParams`` scores the whole grid in
    one call on a float array and needs an array of the same shape back,
    while ``SelectResult.quality_value`` calls it on one float.
    """

    fn: Callable[[float], float]
    lam: float

    def __post_init__(self):
        check_range("nonnegative", lam=self.lam)

    @classmethod
    def peak(cls, target: float, lam: float = 1.0) -> "QualitySpec":
        check_finite(target=target)
        return cls(fn=lambda s: -lam * abs(s - target), lam=lam)

    @classmethod
    def linear(cls, slope: float) -> "QualitySpec":
        check_finite(slope=slope)
        return cls(fn=lambda s: slope * s, lam=abs(slope))

    @classmethod
    def from_json(cls, payload: dict) -> "QualitySpec":
        """A peak ({"kind", "target", "lam" = 1}) or linear ({"kind",
        "slope"}) spec; a key that its kind does not read is refused."""
        if not isinstance(payload, dict):
            raise ParameterError(f"quality must be a JSON object, got {payload!r}")
        kind = payload.get("kind")
        reads = {"peak": ("kind", "target", "lam"), "linear": ("kind", "slope")}
        if not isinstance(kind, str) or kind not in reads:
            raise ParameterError(f"unknown quality kind {kind!r}")
        unread = [key for key in payload if key not in reads[kind]]
        if unread:
            raise ParameterError(f"{kind} quality does not read {', '.join(map(str, unread))}")

        def number(key: str, default: Optional[float] = None) -> float:
            if key not in payload and default is None:
                raise ParameterError(f"{kind} quality lacks {key!r}")
            return float(as_real(f"quality {key}", payload.get(key, default)))

        if kind == "peak":
            return cls.peak(number("target"), number("lam", 1.0))
        return cls.linear(number("slope"))


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
        check_range("positive", epsilon=self.epsilon, alpha=self.alpha)
        check_range("unit", beta=self.beta)
        check_range("nonnegative", zeta=self.zeta)
        if self.zeta < 4.0 * self.gamma:
            raise ParameterError("selection needs zeta >= 4 gamma")
        check_certificate(self.approx_bound, "lower alpha")
        object.__setattr__(self, "xi", support_width(self.zeta, self.gamma, self.alpha))
        K = grid_steps(self.W, self.alpha)
        values = np.arange(-K, K) * self.alpha
        with np.errstate(all="ignore"):  # a non-finite score is refused below
            scores = np.asarray(self.quality.fn(values), dtype=float)
        if scores.shape != values.shape:
            raise ParameterError("quality score must be elementwise: one score per grid value")
        if not np.all(np.isfinite(scores)):
            raise ParameterError("quality score is not finite on the grid")
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
        # refused here too, before the grid is built
        _check_floor(qgame, epsilon, alpha, beta, 4)
        return cls(
            zeta=zeta, epsilon=epsilon, alpha=alpha, beta=beta, quality=quality,
            gamma=qgame.gamma, W=qgame.W, n=qgame.n,
        )

    @property
    def approx_bound(self) -> float:
        """Regret level 10 alpha + 3 gamma + zeta certified on success."""
        return 10.0 * self.alpha + 3.0 * self.gamma + self.zeta


@dataclass(frozen=True)
class Extremes:
    """Aggregator reach of the xi-best-response region at one grid point."""

    s_min: float
    s_max: float
    x_min: np.ndarray
    x_max: np.ndarray


def _extreme_actions(facets: np.ndarray, allowed: np.ndarray) -> tuple:
    """(x_min, x_max) over the rows of (k, m) facets and an allowed mask:
    per row, the allowed action with the lowest facet (highest index on
    ties) and the one with the highest facet (lowest index on ties). The
    mediator runs it on every player's row, a replaying player on their own."""
    # facets lie in [-1, 1], so -2 marks a disallowed action
    x_max = first_argmax(np.where(allowed, facets, -2.0))
    x_min = facets.shape[1] - 1 - first_argmax(np.where(allowed, -facets, -2.0)[:, ::-1])
    return x_min, x_max


def s_extremes(qgame: QuasiAggregativeGame, s, xi: float):
    """Optimistic and pessimistic composites over the xi-ABR sets at s.

    Per player, the most and least aggregator-increasing action among those
    within xi of their best response to s (``_extreme_actions``). A float s
    gives ``Extremes``. An ascending 1-D array of points gives the arrays
    (s_min, s_max), bit for bit what the float call gives at each point:
    like ``V``, a ``_sweep``, here with bands at payoff gaps of -xi and xi,
    where the xi-ABR sets can change.
    """
    check_range("nonnegative", xi=xi)
    if np.ndim(s) == 0:  # the composites themselves, at one point
        check_finite(s=s)
        allowed = best_response_support(utility_matrix(qgame.base, np.array([float(s)])), xi)
        x_min, x_max = _extreme_actions(qgame.base.f[:, 0, :], allowed)
        return Extremes(
            s_min=qgame.s_of(x_min), s_max=qgame.s_of(x_max), x_min=x_min, x_max=x_max
        )

    def choose(vals, facets):
        x_min, x_max = _extreme_actions(facets, best_response_support(vals, xi))
        return _pick(facets, x_min), _pick(facets, x_max)

    return tuple(_sweep(qgame, _sweep_points("s_extremes", s), xi, choose))


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

    The three grid scans share one ``s_extremes`` sweep per doubling block
    of the quality order, made when a scan first asks the block; the hits'
    composites come from one ``s_extremes`` call at each point hit.
    """
    if (params.gamma, params.W, params.n) != (qgame.gamma, qgame.W, qgame.n):
        raise ParameterError("params were derived for a different game")
    _check_floor(qgame, params.epsilon, params.alpha, params.beta, 4)
    gamma = params.gamma
    alpha = params.alpha
    eps4 = params.epsilon / 4.0
    ledger = PrivacyLedger()
    grid = params.grid
    blocks = list(_blocks(len(grid)))
    swept = []  # (points, s_min, s_max) of each block a scan has asked

    def extremes(b: int) -> tuple:
        while len(swept) <= b:
            lo, hi = blocks[len(swept)]
            points = grid[lo:hi]
            order = np.argsort(points)  # s_extremes sweeps ascending points
            s_min, s_max = np.empty_like(points), np.empty_like(points)
            s_min[order], s_max[order] = s_extremes(qgame, points[order], params.xi)
            swept.append((points, s_min, s_max))
        return swept[b]

    def scan(session: SparseSession, query) -> tuple:
        """``first_below`` over the grid in quality order, each block's
        query values computed from its points and extremes."""
        return first_below(session, (query(*extremes(b)) for b in range(len(blocks))))

    sess = ledger.open_session("optimistic-scan", gamma, 3.0 * alpha, eps4, src.child("optimistic"))
    idx_a, asked_a = scan(sess, lambda s, s_min, s_max: np.abs(s_max - s))
    sess = ledger.open_session(
        "pessimistic-scan", gamma, 3.0 * alpha, eps4, src.child("pessimistic")
    )
    idx_b, asked_b = scan(sess, lambda s, s_min, s_max: np.abs(s_min - s))

    def straddle_gap(s, s_min, s_max):
        gap_lo = np.maximum(np.minimum(s_min - s, 0.0), -2.0 * alpha)
        gap_hi = np.maximum(np.minimum(s - s_max, 0.0), -2.0 * alpha)
        return gap_lo + gap_hi

    # the walk is charged up front, whether or not it runs
    sess_c = ledger.open_session("straddle-scan", gamma, -3.0 * alpha, eps4, src.child("straddle"))
    sess_d = ledger.open_session("walk-scan", gamma, alpha + gamma / 2.0, eps4, src.child("walk"))
    idx_c, asked_c = scan(sess_c, straddle_gap)

    # the composites at each point a scan hit, one s_extremes call per point
    ext = {i: s_extremes(qgame, float(grid[i]), params.xi) for i in {idx_a, idx_b, idx_c} - {None}}
    hits = []  # (rank, profile, branch, walk_j), in branch order
    if idx_a is not None:
        hits.append((idx_a, ext[idx_a].x_max, "optimistic", None))
    if idx_b is not None:
        hits.append((idx_b, ext[idx_b].x_min, "pessimistic", None))
    asked_d = 0
    if idx_c is not None:
        hi, lo = ext[idx_c].x_max, ext[idx_c].x_min
        j, asked_d, profile = _walk_scan(qgame, sess_d, hi, lo, float(grid[idx_c]))
        if j is not None:
            hits.append((idx_c, profile, "walk", j))

    queries = (asked_a, asked_b, asked_c, asked_d)
    if not hits:
        return SelectResult(aborted=True, params=params, ledger=ledger, queries=queries)
    # the best-ranked hit wins; on a tie the earlier branch does
    rank, profile, branch, walk_j = min(hits, key=lambda hit: hit[0])
    return SelectResult(
        aborted=False, params=params, ledger=ledger, profile=profile, branch=branch,
        s_star=float(grid[rank]), rank=rank, walk_j=walk_j, queries=queries,
    )


def replay_select_player(qgame: QuasiAggregativeGame, i: int, result: SelectResult) -> int:
    """Player i's selected action from the public transcript and own data."""
    if result.aborted:
        raise ParameterError("aborted runs publish no profile to replay")
    base = qgame.base
    i = as_player(base.n, i)
    allowed = np.zeros((1, qgame.m), dtype=bool)
    allowed[0, abr_set(base, i, np.array([result.s_star]), result.params.xi)] = True
    # the mediator's rule (``s_extremes``), applied to player i's row
    x_min, x_max = _extreme_actions(base.f[i : i + 1, 0, :], allowed)
    if result.branch == "optimistic" or (result.branch == "walk" and i < result.walk_j):
        return int(x_max[0])
    return int(x_min[0])


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
    f = np.broadcast_to([[1.0, 0.0]], (n, 1, 2))  # one block, shared by every player
    base = AggregativeGame(
        n=n, m=2, d=1, gamma=gamma, W=max(1.0, gamma * n), f=f,
        utility=ThresholdUtility(thresholds=thresholds),
    )
    return QuasiAggregativeGame(base=base)
