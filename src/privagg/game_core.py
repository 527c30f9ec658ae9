"""Aggregative game model, profiles, regret, and JSON serialization.

A game couples n players, m actions each, and a d-dimensional aggregator
S(x) = gamma * sum_i f_i(x_i) with per-player facet vectors f_i(j) in
[-1, 1]^d. Utilities depend only on a player's own action and the aggregator
value, are 1-Lipschitz in the aggregator (sup norm), and take values in
[-1, 1]. An optional linear loss L(x) = gamma * sum_i loss[i, x_i] rides
along for objective-aware solvers.

Pure profiles are int arrays of shape (n,), mixed profiles row-stochastic
float arrays of shape (n, m).

A utility evaluator is any object with two methods, each taking a float
aggregator value s of shape (d,) and returning u_i(a, s) for every action a:

- ``value_matrix(s)``: returns (n, m), row i for player i; best responses at
  a fixed aggregator read it;
- ``values_for_player(i, s)``: returns (m,), equal to row i of
  ``value_matrix(s)``; ``regret`` evaluates each deviation through it, and
  so do the per-player replay helpers, because a player replays from their
  own data only.

``validate_for_game(game)`` is optional; ``kind``, ``to_params`` and
``from_params`` serve JSON round trips.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dp_core import NoiseSource, ParameterError

__all__ = [
    "AggregativeGame",
    "LinearUtility",
    "TableUtility",
    "ThresholdUtility",
    "RegretReport",
    "TranslationReport",
    "aggregator",
    "expected_aggregator",
    "grid_steps",
    "utility_matrix",
    "utility_values",
    "abr_set",
    "abr_profile",
    "regret",
    "sample_action",
    "sample_profile",
    "translate_checks",
    "as_pure_profile",
    "as_mixed_profile",
    "game_to_json",
    "game_from_json",
    "save_game",
    "load_game",
]

_RANGE_TOL = 1e-9
_ROW_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# utility evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearUtility:
    """u_i(j, s) = c[i, j] + <w[i, j], s> with sum_k |w[i, j, k]| <= 1."""

    c: np.ndarray  # (n, m)
    w: np.ndarray  # (n, m, d)

    kind = "linear"

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))

    def value_matrix(self, s: np.ndarray) -> np.ndarray:
        return self.c + self.w @ s

    def values_for_player(self, i: int, s: np.ndarray) -> np.ndarray:
        return self.c[i] + self.w[i] @ s

    def validate_for_game(self, game: "AggregativeGame") -> None:
        if self.c.shape != (game.n, game.m) or self.w.shape != (game.n, game.m, game.d):
            raise ParameterError("linear utility coefficient shapes do not match the game")
        l1 = np.abs(self.w).sum(axis=2)
        if np.max(l1) > 1.0 + _RANGE_TOL:
            raise ParameterError("linear utility slopes exceed the 1-Lipschitz budget")
        if np.max(np.abs(self.c) + game.W * l1) > 1.0 + _RANGE_TOL:
            raise ParameterError("linear utility leaves [-1, 1] somewhere on [-W, W]^d")

    def to_params(self) -> dict:
        return {"c": self.c.tolist(), "w": self.w.tolist()}

    @classmethod
    def from_params(cls, params: dict) -> "LinearUtility":
        return cls(c=np.asarray(params["c"]), w=np.asarray(params["w"]))


@dataclass(frozen=True)
class TableUtility:
    """Multilinear interpolation of per-(player, action) value tables.

    ``grid`` holds strictly increasing node positions shared by every
    aggregator axis and ``values`` has shape (n, m) + (len(grid),) * d.
    Lipschitz-in-s holds iff adjacent nodes differ by at most the node
    spacing along every axis, which is checked exactly.
    """

    grid: np.ndarray
    values: np.ndarray

    kind = "table"

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def _locate(self, coord: float):
        g = self.grid
        c = min(max(coord, g[0]), g[-1])
        hi = int(np.searchsorted(g, c, side="right"))
        hi = min(max(hi, 1), len(g) - 1)
        lo = hi - 1
        t = (c - g[lo]) / (g[hi] - g[lo])
        return lo, hi, t

    def _interp(self, table: np.ndarray, s: np.ndarray) -> np.ndarray:
        # reduce trailing axes one coordinate at a time
        out = table
        for k in range(len(s) - 1, -1, -1):
            lo, hi, t = self._locate(float(s[k]))
            out = (1.0 - t) * np.take(out, lo, axis=-1) + t * np.take(out, hi, axis=-1)
        return out

    def value_matrix(self, s: np.ndarray) -> np.ndarray:
        return self._interp(self.values, s)

    def values_for_player(self, i: int, s: np.ndarray) -> np.ndarray:
        return self._interp(self.values[i], s)

    def validate_for_game(self, game: "AggregativeGame") -> None:
        G = len(self.grid)
        if G < 2 or np.any(np.diff(self.grid) <= 0):
            raise ParameterError("table grid must have >= 2 strictly increasing nodes")
        if self.grid[0] > -game.W or self.grid[-1] < game.W:
            raise ParameterError("table grid must cover [-W, W]")
        want = (game.n, game.m) + (G,) * game.d
        if self.values.shape != want:
            raise ParameterError(f"table shape {self.values.shape} != {want}")
        if np.max(np.abs(self.values)) > 1.0 + _RANGE_TOL:
            raise ParameterError("table values leave [-1, 1]")
        spacing = np.diff(self.grid)
        for axis in range(game.d):
            dv = np.abs(np.diff(self.values, axis=2 + axis))
            shape = [1] * self.values.ndim
            shape[2 + axis] = G - 1
            if np.any(dv > spacing.reshape(shape[2:]) * (1.0 + _RANGE_TOL)):
                raise ParameterError("table slopes exceed the 1-Lipschitz budget")

    def to_params(self) -> dict:
        return {"grid": self.grid.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_params(cls, params: dict) -> "TableUtility":
        return cls(grid=np.asarray(params["grid"]), values=np.asarray(params["values"]))


@dataclass(frozen=True)
class ThresholdUtility:
    """Two-action participation payoffs around a per-player threshold.

    Action 0 (participate) pays (s - T_i)/2, action 1 (stay out) pays
    (T_i - s)/2, for a scalar aggregator s. Indifference sits exactly at
    s = T_i and lowest-index tie breaking there favors participation.
    """

    thresholds: np.ndarray  # (n,)

    kind = "threshold"

    def __post_init__(self):
        object.__setattr__(self, "thresholds", np.asarray(self.thresholds, dtype=float))

    def value_matrix(self, s: np.ndarray) -> np.ndarray:
        diff = (float(s[0]) - self.thresholds) / 2.0
        return np.stack([diff, -diff], axis=1)

    def values_for_player(self, i: int, s: np.ndarray) -> np.ndarray:
        diff = (float(s[0]) - self.thresholds[i]) / 2.0
        return np.array([diff, -diff])

    def validate_for_game(self, game: "AggregativeGame") -> None:
        if game.d != 1 or game.m != 2:
            raise ParameterError("threshold utilities need d = 1 and m = 2")
        if self.thresholds.shape != (game.n,):
            raise ParameterError("one threshold per player required")
        if (game.W + float(np.max(np.abs(self.thresholds)))) / 2.0 > 1.0 + _RANGE_TOL:
            raise ParameterError("thresholds push utilities outside [-1, 1] on [-W, W]")

    def to_params(self) -> dict:
        return {"thresholds": self.thresholds.tolist()}

    @classmethod
    def from_params(cls, params: dict) -> "ThresholdUtility":
        return cls(thresholds=np.asarray(params["thresholds"]))


_EVALUATOR_METHODS = ("value_matrix", "values_for_player")

_EVALUATORS = {
    "linear": LinearUtility,
    "table": TableUtility,
    "threshold": ThresholdUtility,
}


def _evaluator_from_json(kind: str, params: dict):
    if kind == "market":
        from .market import MarketUtility  # deferred, avoids a cycle

        return MarketUtility.from_params(params)
    try:
        cls = _EVALUATORS[kind]
    except KeyError:
        raise ParameterError(f"unknown utility kind {kind!r}") from None
    return cls.from_params(params)


# ---------------------------------------------------------------------------
# the game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregativeGame:
    """n-player aggregative game with a gamma-scaled d-dimensional aggregator."""

    n: int
    m: int
    d: int
    gamma: float
    W: float
    f: np.ndarray  # (n, d, m), entries in [-1, 1]
    utility: object
    loss: Optional[np.ndarray] = None  # (n, m), entries in [0, 1]

    def __post_init__(self):
        for name in ("n", "m", "d"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ParameterError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(v))
        if self.gamma <= 0:
            raise ParameterError("gamma must be positive")
        if self.W <= 0:
            raise ParameterError("W must be positive")
        f = np.asarray(self.f, dtype=float)
        if f.shape != (self.n, self.d, self.m):
            raise ParameterError(f"f has shape {f.shape}, expected {(self.n, self.d, self.m)}")
        if not np.all(np.isfinite(f)) or np.max(np.abs(f)) > 1.0 + _ROW_SUM_TOL:
            raise ParameterError("facet values must be finite and lie in [-1, 1]")
        object.__setattr__(self, "f", f)
        reach = self.gamma * np.abs(f).max(axis=2).sum(axis=0)  # (d,)
        if np.max(reach) > self.W * (1.0 + _RANGE_TOL) + 1e-12:
            raise ParameterError("aggregator can leave [-W, W]^d; increase W")
        if self.loss is not None:
            loss = np.asarray(self.loss, dtype=float)
            if loss.shape != (self.n, self.m):
                raise ParameterError(f"loss has shape {loss.shape}, expected {(self.n, self.m)}")
            if np.min(loss) < -_RANGE_TOL or np.max(loss) > 1.0 + _RANGE_TOL:
                raise ParameterError("loss entries must lie in [0, 1]")
            object.__setattr__(self, "loss", loss)
        spread = self.gamma * float((f.max(axis=2) - f.min(axis=2)).max())
        object.__setattr__(self, "_gamma_eff", spread)
        missing = [m for m in _EVALUATOR_METHODS if not callable(getattr(self.utility, m, None))]
        if missing:
            raise ParameterError(f"utility evaluator lacks the method(s) {', '.join(missing)}")
        if hasattr(self.utility, "validate_for_game"):
            self.utility.validate_for_game(self)
        self._spot_check_utility()
        if self.gamma >= 1.0:
            warnings.warn(f"gamma = {self.gamma} is large; accuracy guarantees degrade")
        if self.gamma * self.n < 1.0 - _RANGE_TOL:
            warnings.warn(
                f"gamma * n = {self.gamma * self.n:.3g} < 1; this game is outside the "
                "regime the accuracy bounds are written for"
            )

    def _spot_check_utility(self) -> None:
        # sampled range / Lipschitz screen shared by every evaluator kind;
        # fixed generator keeps construction deterministic
        rng = np.random.Generator(np.random.PCG64(0x5EED))
        pts = rng.uniform(-self.W, self.W, size=(12, self.d))
        pts = np.vstack([pts, np.zeros(self.d), np.full(self.d, self.W), np.full(self.d, -self.W)])
        vals = [np.asarray(self.utility.value_matrix(s), dtype=float) for s in pts]
        for s, v in zip(pts, vals):
            if v.shape != (self.n, self.m):
                raise ParameterError("utility value_matrix must return shape (n, m)")
            if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > 1.0 + _RANGE_TOL:
                raise ParameterError(f"utility leaves [-1, 1] at aggregator {s}")
        for a in range(0, len(pts) - 1, 2):
            gap = float(np.max(np.abs(pts[a] - pts[a + 1])))
            if np.max(np.abs(vals[a] - vals[a + 1])) > gap + _RANGE_TOL:
                raise ParameterError("utility violates 1-Lipschitz continuity in the aggregator")

    @property
    def gamma_eff(self) -> float:
        """gamma * max_(i,k) facet spread; the tight per-move aggregator shift."""
        return self._gamma_eff


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def as_pure_profile(game: AggregativeGame, x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.shape != (game.n,):
        raise ParameterError(f"pure profile must have shape ({game.n},)")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if np.max(np.abs(arr - rounded)) > 0:
            raise ParameterError("pure profile entries must be integers")
        arr = rounded
    arr = arr.astype(np.int64)
    if np.min(arr) < 0 or np.max(arr) >= game.m:
        raise ParameterError(f"profile actions must lie in [0, {game.m})")
    return arr


def as_mixed_profile(game: AggregativeGame, p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (game.n, game.m):
        raise ParameterError(f"mixed profile must have shape ({game.n}, {game.m})")
    if np.min(arr) < 0.0:
        raise ParameterError("mixed profile entries must be nonnegative")
    if np.max(np.abs(arr.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
        raise ParameterError("mixed profile rows must sum to 1 within 1e-12")
    return arr


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def aggregator(game: AggregativeGame, x) -> np.ndarray:
    """S(x) = gamma * sum_i f_i(x_i), a point in [-W, W]^d."""
    x = as_pure_profile(game, x)
    chosen = game.f[np.arange(game.n), :, x]  # (n, d)
    return game.gamma * chosen.sum(axis=0)


def expected_aggregator(game: AggregativeGame, p) -> np.ndarray:
    """S(p) = gamma * sum_i <f_i, p_i>, linear in the mixed profile."""
    p = as_mixed_profile(game, p)
    return game.gamma * np.einsum("ikj,ij->k", game.f, p)


def grid_steps(W: float, alpha: float) -> int:
    """Half-width K of the alpha-grids k * alpha, k in [-K, K); the 1e-12 keeps
    W = 0.27, alpha = 0.03 (ratio 9.000000000000002) at K = 9."""
    return math.ceil(W / alpha - 1e-12)


def utility_matrix(game: AggregativeGame, s) -> np.ndarray:
    return np.asarray(game.utility.value_matrix(np.asarray(s, dtype=float)), dtype=float)


def utility_values(game: AggregativeGame, i: int, s) -> np.ndarray:
    return np.asarray(
        game.utility.values_for_player(int(i), np.asarray(s, dtype=float)), dtype=float
    )


def abr_set(game: AggregativeGame, i: int, s, eta: float) -> np.ndarray:
    """Actions within eta of player i's best response to a fixed aggregator."""
    if eta < 0:
        raise ParameterError("eta must be nonnegative")
    vals = utility_values(game, i, s)
    return np.flatnonzero(vals >= vals.max() - eta)


def abr_profile(game: AggregativeGame, s, tie_break: str = "lowest") -> np.ndarray:
    """Every player's exact best response to a fixed aggregator value.

    Ties resolve to the lowest action index by default ("highest" flips it).
    """
    vals = utility_matrix(game, s)
    if tie_break == "lowest":
        return np.argmax(vals, axis=1).astype(np.int64)
    if tie_break == "highest":
        return (game.m - 1 - np.argmax(vals[:, ::-1], axis=1)).astype(np.int64)
    raise ParameterError(f"unknown tie_break {tie_break!r}")


@dataclass(frozen=True)
class RegretReport:
    """Exact per-player unilateral deviation gains and their maximum."""

    per_player: np.ndarray  # (n,)
    max_regret: float

    def is_eta_nash(self, eta: float) -> bool:
        return self.max_regret <= eta


def regret(game: AggregativeGame, x) -> RegretReport:
    """Exact best-deviation regret, accounting for the deviator's own shift.

    A deviation by player i from x_i to a moves the aggregator to
    s + gamma * (f_i(a) - f_i(x_i)); the gain is evaluated there.
    """
    x = as_pure_profile(game, x)
    s = aggregator(game, x)
    per = np.empty(game.n)
    for i in range(game.n):
        fi = game.f[i]  # (d, m)
        here = utility_values(game, i, s)
        base = float(here[x[i]])
        best = base
        for a in range(game.m):
            if a == x[i]:
                continue
            s_dev = s + game.gamma * (fi[:, a] - fi[:, x[i]])
            cand = float(utility_values(game, i, s_dev)[a])
            if cand > best:
                best = cand
        per[i] = best - base
    return RegretReport(per_player=per, max_regret=float(per.max()))


def sample_action(row: np.ndarray, src: NoiseSource) -> int:
    """Inverse-CDF draw of one action from a probability row.

    Uses the single uniform draw of ``src``; the last cumulative weight is
    pinned to 1 so roundoff never pushes the draw past the final action.
    """
    cum = np.cumsum(row)
    cum[-1] = 1.0
    return int(np.searchsorted(cum, src.uniform(), side="left"))


def sample_profile(game: AggregativeGame, p, src: NoiseSource) -> np.ndarray:
    """Independent per-player sampling from a mixed profile.

    Player i's action uses the single uniform draw of ``src.child(i)``, so any
    party holding the public seed can re-derive exactly their own sample.
    """
    p = as_mixed_profile(game, p)
    return np.array([sample_action(p[i], src.child(i)) for i in range(game.n)], dtype=np.int64)


@dataclass(frozen=True)
class TranslationReport:
    """Best-response vs fixed-aggregator regret, with the bridging slacks.

    br[i] is the true deviation gain (the deviation moves the aggregator),
    abr[i] the gain against the frozen aggregator S(x). Each bounds the other
    within gamma_eff; the relevant residuals are reported as violations
    (nonpositive up to roundoff for any valid game).
    """

    s: np.ndarray
    br: np.ndarray
    abr: np.ndarray
    gamma_eff: float
    eta: float

    @property
    def max_br(self) -> float:
        return float(self.br.max())

    @property
    def max_abr(self) -> float:
        return float(self.abr.max())

    @property
    def br_to_abr_violation(self) -> float:
        """max_i abr[i] - (br[i] + gamma_eff); <= 0 means the lemma held."""
        return float(np.max(self.abr - self.br - self.gamma_eff))

    @property
    def abr_to_br_violation(self) -> float:
        """max_i br[i] - (abr[i] + gamma_eff); <= 0 means the lemma held."""
        return float(np.max(self.br - self.abr - self.gamma_eff))

    @property
    def nash_from_abr_bound(self) -> float:
        """Every profile is (max_abr + gamma_eff)-Nash; the implied level."""
        return self.max_abr + self.gamma_eff

    def is_eta_nash(self) -> bool:
        return self.max_br <= self.eta


def translate_checks(game: AggregativeGame, x, eta: float) -> TranslationReport:
    """Evaluate both regret notions at x and the slack between them."""
    x = as_pure_profile(game, x)
    s = aggregator(game, x)
    br = regret(game, x).per_player
    vals = utility_matrix(game, s)
    abr = vals.max(axis=1) - vals[np.arange(game.n), x]
    return TranslationReport(
        s=s, br=br, abr=abr, gamma_eff=game.gamma_eff, eta=float(eta)
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def game_to_json(game: AggregativeGame) -> str:
    payload = {
        "n": game.n,
        "m": game.m,
        "d": game.d,
        "gamma": game.gamma,
        "W": game.W,
        "f": game.f.tolist(),
        "utility": {"kind": game.utility.kind, "params": game.utility.to_params()},
    }
    if game.loss is not None:
        payload["loss"] = game.loss.tolist()
    return json.dumps(payload, indent=1)


def game_from_json(text: str) -> AggregativeGame:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed game JSON: {exc}") from None
    try:
        utility = _evaluator_from_json(payload["utility"]["kind"], payload["utility"]["params"])
        return AggregativeGame(
            n=payload["n"],
            m=payload["m"],
            d=payload["d"],
            gamma=payload["gamma"],
            W=payload["W"],
            f=np.asarray(payload["f"]),
            utility=utility,
            loss=np.asarray(payload["loss"]) if "loss" in payload else None,
        )
    except KeyError as exc:
        raise ParameterError(f"game JSON missing field {exc}") from None


def save_game(game: AggregativeGame, path) -> None:
    with open(path, "w") as fh:
        fh.write(game_to_json(game))
        fh.write("\n")


def load_game(path) -> AggregativeGame:
    with open(path) as fh:
        return game_from_json(fh.read())
