"""Experiment harness: generators, brute force, deviation tests, batch runs.

Everything here is non-private tooling around the solvers: reference
enumeration of equilibria for small games, seeded game generators for each
supported family, a common-random-numbers misreport experiment for the
mediator view, and a batch runner that writes one CSV row per trial plus a
JSON summary. Timing lands in the last CSV column only, so byte comparison
of everything before it is deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .dp_core import NoiseSource, ParameterError
from .game_core import (
    AggregativeGame,
    LinearUtility,
    aggregator,
    expected_aggregator,
    regret,
    utility_values,
)
from .lp_core import DistMWParams, build_slack_lp, distmw_solve, mw_accuracy_bound
from .market import MarketGame, to_aggregative
from .onedim import (
    QualitySpec,
    QuasiAggregativeGame,
    SelectionParams,
    make_optin_game,
    psummnash,
    select_equilibrium,
)
from .presl import BudgetError, PreslParams, npresl, presl

__all__ = [
    "BruteForce",
    "DeviationSpec",
    "DeviationReport",
    "ExperimentConfig",
    "ExperimentResult",
    "brute_force_equilibria",
    "profile_loss",
    "deviation_test",
    "generate",
    "run_experiment",
]

ENUM_BUDGET = 10**6
OUT_DIR_ENV = "PRIVAGG_OUT"


def profile_loss(game: AggregativeGame, x) -> float:
    """L(x) = gamma * sum_i loss[i, x_i]."""
    if game.loss is None:
        raise ParameterError("game declares no loss")
    x = np.asarray(x, dtype=np.int64)
    return game.gamma * float(game.loss[np.arange(game.n), x].sum())


@dataclass
class BruteForce:
    """Every pure profile of a small game with its exact regret."""

    profiles: np.ndarray  # (m^n, n)
    regrets: np.ndarray  # (m^n,)
    zeta: float

    def equilibria(self, zeta: Optional[float] = None) -> np.ndarray:
        z = self.zeta if zeta is None else zeta
        return self.profiles[self.regrets <= z]

    def min_loss(self, game: AggregativeGame, zeta: Optional[float] = None) -> float:
        """OPT: smallest loss among the zeta-equilibria (inf when empty)."""
        eqs = self.equilibria(zeta)
        if len(eqs) == 0:
            return float("inf")
        return min(profile_loss(game, x) for x in eqs)

    def max_quality(
        self, s_of: Callable[[np.ndarray], float], quality: Callable[[float], float],
        zeta: Optional[float] = None,
    ) -> float:
        """Best quality over the zeta-equilibria (-inf when empty)."""
        eqs = self.equilibria(zeta)
        if len(eqs) == 0:
            return float("-inf")
        return max(quality(s_of(x)) for x in eqs)


def brute_force_equilibria(game: AggregativeGame, zeta: float) -> BruteForce:
    """Enumerate all m^n profiles with exact regrets (budget 10^6 profiles)."""
    total = game.m**game.n
    if total > ENUM_BUDGET:
        raise BudgetError(f"{total} profiles exceed the enumeration budget {ENUM_BUDGET}")
    profiles = np.empty((total, game.n), dtype=np.int64)
    regrets = np.empty(total)
    x = np.zeros(game.n, dtype=np.int64)
    for row in range(total):
        v = row
        for i in range(game.n):
            x[i] = v % game.m
            v //= game.m
        profiles[row] = x
        regrets[row] = regret(game, x).max_regret
    return BruteForce(profiles=profiles, regrets=regrets, zeta=float(zeta))


# ---------------------------------------------------------------------------
# mediator deviation experiment
# ---------------------------------------------------------------------------


@dataclass
class DeviationSpec:
    """Common-random-numbers misreport experiment for the opt-in mediator.

    The mediator collects one type per player, runs the summarization solver
    on the reported game, and tells each player an action. We run it twice
    per trial on identical noise, once with truthful reports and once with
    ``player`` reporting ``misreport``, and score that player's true payoff
    difference. Aborted runs fall back to every player playing
    ``fallback_action``.
    """

    true_types: np.ndarray
    player: int
    misreport: float
    epsilon: float
    alpha: float
    beta: float
    runs: int = 20
    seed: int = 0
    fallback_action: int = 1
    make_game: Callable[[np.ndarray], QuasiAggregativeGame] = None

    def __post_init__(self):
        self.true_types = np.asarray(self.true_types, dtype=float)
        if not (0 <= self.player < len(self.true_types)):
            raise ParameterError("player index out of range")
        if self.runs < 1:
            raise ParameterError("need at least one run")
        if self.make_game is None:
            self.make_game = lambda types: make_optin_game(len(types), types)


@dataclass
class DeviationReport:
    """Observed misreport gains against the honesty budget eta."""

    gains: np.ndarray
    eta: float
    accuracy: float

    @property
    def mean_gain(self) -> float:
        return float(self.gains.mean())

    @property
    def max_gain(self) -> float:
        return float(self.gains.max())

    @property
    def stderr(self) -> float:
        if len(self.gains) < 2:
            return 0.0
        return float(self.gains.std(ddof=1) / np.sqrt(len(self.gains)))

    @property
    def within_budget(self) -> bool:
        return self.max_gain <= self.eta + 1e-9


def _mediated_payoff(
    qgame_true: QuasiAggregativeGame, player: int, result, fallback: int
) -> float:
    base = qgame_true.base
    if result.aborted:
        x = np.full(base.n, fallback, dtype=np.int64)
    else:
        x = result.profile
    s = aggregator(base, x)
    return float(utility_values(base, player, s)[x[player]])


def deviation_test(spec: DeviationSpec) -> DeviationReport:
    """Estimate the gain from one player's misreport under shared noise.

    The honesty budget is eta = accuracy + 2(2 eps + beta + delta) with
    accuracy the solver's equilibrium level 10 alpha + 2 gamma and delta = 0
    for the summarization solver.
    """
    truthful = spec.make_game(spec.true_types)
    reported = spec.true_types.copy()
    reported[spec.player] = spec.misreport
    deviated = spec.make_game(reported)
    gains = np.empty(spec.runs)
    root = NoiseSource(spec.seed)
    for r in range(spec.runs):
        trial_seed = root.child(("deviation", r)).seed
        res_true = psummnash(
            truthful, spec.epsilon, spec.alpha, spec.beta, NoiseSource(trial_seed)
        )
        res_dev = psummnash(
            deviated, spec.epsilon, spec.alpha, spec.beta, NoiseSource(trial_seed)
        )
        u_true = _mediated_payoff(truthful, spec.player, res_true, spec.fallback_action)
        u_dev = _mediated_payoff(truthful, spec.player, res_dev, spec.fallback_action)
        gains[r] = u_dev - u_true
    accuracy = res_true.approx_bound(truthful.gamma)
    eta = accuracy + 2.0 * (2.0 * spec.epsilon + spec.beta + 0.0)
    return DeviationReport(gains=gains, eta=eta, accuracy=accuracy)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _random_linear_utility(
    rng: np.random.Generator, n: int, m: int, d: int, W: float
) -> LinearUtility:
    slope_cap = 1.0 / (1.0 + W)
    slopes = rng.uniform(0.1 * slope_cap, slope_cap, size=(n, m))
    raw = rng.uniform(-1.0, 1.0, size=(n, m, d))
    raw_l1 = np.abs(raw).sum(axis=2, keepdims=True)
    raw_l1[raw_l1 == 0] = 1.0
    w = raw / raw_l1 * slopes[:, :, None]
    head = 1.0 - np.abs(w).sum(axis=2) * W
    c = rng.uniform(-head, head)
    return LinearUtility(c=c, w=w)


def generate(kind: str, seed: int, **params):
    """Seeded game families.

    linear: dense facets in [-1, 1], random linear utilities, random loss.
    anonymous: d = m indicator facets (the aggregator counts action shares),
      random linear utilities and loss.
    threshold: the two-action participation game with uniform thresholds.
    market: uniform per-security values in [0, 1] turned into portfolio
      valuations.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if kind == "linear":
        n = int(params.get("n", 8))
        m = int(params.get("m", 2))
        d = int(params.get("d", 1))
        gamma = float(params.get("gamma", 1.0 / n))
        f = rng.uniform(-1.0, 1.0, size=(n, d, m))
        W = float(params.get("W", gamma * n))
        utility = _random_linear_utility(rng, n, m, d, W)
        loss = rng.uniform(0.0, 1.0, size=(n, m)) if params.get("with_loss", True) else None
        return AggregativeGame(n=n, m=m, d=d, gamma=gamma, W=W, f=f, utility=utility, loss=loss)
    if kind == "anonymous":
        n = int(params.get("n", 8))
        m = int(params.get("m", 2))
        gamma = float(params.get("gamma", 1.0 / n))
        f = np.zeros((n, m, m))
        for j in range(m):
            f[:, j, j] = 1.0
        W = float(params.get("W", gamma * n))
        utility = _random_linear_utility(rng, n, m, m, W)
        loss = rng.uniform(0.0, 1.0, size=(n, m)) if params.get("with_loss", True) else None
        return AggregativeGame(n=n, m=m, d=m, gamma=gamma, W=W, f=f, utility=utility, loss=loss)
    if kind == "threshold":
        n = int(params.get("n", 50))
        thresholds = params.get("thresholds")
        if thresholds is None:
            thresholds = rng.uniform(0.0, 1.0, size=n)
        gamma = params.get("gamma")
        return make_optin_game(n, thresholds, gamma=gamma)
    if kind == "market":
        n = int(params.get("n", 20))
        d = int(params.get("d", 1))
        lam = float(params.get("lam", max(4.0, n / 4.0)))
        theta = rng.uniform(0.0, 1.0, size=(n, d))
        from .market import portfolio_matrix

        valuations = theta @ portfolio_matrix(d).T.astype(float)
        return MarketGame(n=n, d=d, lam=lam, valuations=valuations)
    raise ParameterError(f"unknown game kind {kind!r}")


# ---------------------------------------------------------------------------
# batch experiments
# ---------------------------------------------------------------------------

_CSV_FIELDS = ["trial", "seed", "regret", "bound", "loss", "quality", "abort", "time_ms"]


@dataclass
class ExperimentConfig:
    """One batch: a solver, a game source, trial count, and solver knobs.

    ``game`` either names a generator ({"kind": ..., <params>}) or points at
    a JSON file ({"path": ...}). ``params`` carries the solver arguments
    (zeta / epsilon / delta / alpha / beta / quality as applicable).
    """

    algorithm: str
    game: dict
    params: dict = field(default_factory=dict)
    trials: int = 5
    seed: int = 0
    noise: bool = True
    label: str = "experiment"
    out_dir: Optional[str] = None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        payload = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ParameterError(f"unknown config fields: {sorted(extra)}")
        return cls(**payload)


@dataclass
class ExperimentResult:
    rows: list
    summary: dict
    csv_path: Path
    summary_path: Path


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _make_trial_game(config: ExperimentConfig, trial_seed: int):
    if "path" in config.game:
        from .game_core import load_game

        return load_game(config.game["path"])
    spec = dict(config.game)
    kind = spec.pop("kind")
    return generate(kind, seed=trial_seed, **spec)


def _run_one(config: ExperimentConfig, game, src: NoiseSource) -> dict:
    p = config.params
    algo = config.algorithm
    row = {"regret": None, "bound": None, "loss": None, "quality": None, "abort": 0}
    if algo in ("presl", "npresl", "distmw") and isinstance(game, QuasiAggregativeGame):
        game = game.base
    if algo == "presl":
        if isinstance(game, MarketGame):
            game = to_aggregative(game)
        params = PreslParams.for_game(
            game, zeta=p["zeta"], epsilon=p["epsilon"], delta=p["delta"], beta=p["beta"],
        )
        res = presl(game, params, src)
        row["bound"] = params.nash_bound
        if res.aborted:
            row["abort"] = 1
        else:
            row["regret"] = regret(game, res.profile).max_regret
            if game.loss is not None:
                row["loss"] = profile_loss(game, res.profile)
    elif algo == "npresl":
        res = npresl(game, zeta=p["zeta"], alpha=p["alpha"], beta=p["beta"], src=src)
        row["bound"] = res.nash_bound
        if res.aborted:
            row["abort"] = 1
        else:
            row["regret"] = regret(game, res.profile).max_regret
            row["loss"] = profile_loss(game, res.profile)
    elif algo == "psummnash":
        qgame = game if isinstance(game, QuasiAggregativeGame) else QuasiAggregativeGame(game)
        res = psummnash(qgame, p["epsilon"], p["alpha"], p["beta"], src)
        row["bound"] = res.approx_bound(qgame.gamma)
        if res.aborted:
            row["abort"] = 1
        else:
            row["regret"] = regret(qgame.base, res.profile).max_regret
    elif algo == "select":
        qgame = game if isinstance(game, QuasiAggregativeGame) else QuasiAggregativeGame(game)
        quality = QualitySpec.from_json(p["quality"])
        params = SelectionParams.for_game(
            qgame, zeta=p["zeta"], epsilon=p["epsilon"], alpha=p["alpha"],
            beta=p["beta"], quality=quality,
        )
        res = select_equilibrium(qgame, params, src)
        row["bound"] = params.approx_bound
        if res.aborted:
            row["abort"] = 1
        else:
            row["regret"] = regret(qgame.base, res.profile).max_regret
            row["quality"] = res.quality_value
    elif algo == "distmw":
        if isinstance(game, MarketGame):
            game = to_aggregative(game)
        alpha = p["alpha"]
        p_uniform = np.full((game.n, game.m), 1.0 / game.m)
        s_hat = expected_aggregator(game, p_uniform)
        lp = build_slack_lp(game, s_hat, None, xi=p.get("xi", 2.0), slack=alpha)
        mw_params = DistMWParams.for_game(
            game, epsilon=p["epsilon"], delta=p["delta"], alpha=alpha, beta=p["beta"],
        )
        res = distmw_solve(lp, mw_params, src)
        row["regret"] = float(np.max(lp.margins(res.p_bar)))
        row["bound"] = mw_accuracy_bound(
            game.n, game.m, game.gamma, p["epsilon"], p["delta"],
            lp.n_constraints, p["beta"],
        )
    else:
        raise ParameterError(f"unknown algorithm {algo!r}")
    return row


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the batch, write <label>.csv and <label>.summary.json.

    Output goes to config.out_dir, the PRIVAGG_OUT environment variable, or
    the working directory, in that order. Rows are deterministic for a fixed
    config except the trailing time_ms column.
    """
    out_dir = Path(config.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = NoiseSource.NOISY if config.noise else NoiseSource.NOISE_OFF
    root = NoiseSource(config.seed, mode)
    rows = []
    for t in range(config.trials):
        trial_src = root.child(("trial", t))
        game = _make_trial_game(config, trial_seed=trial_src.seed)
        start = time.perf_counter()
        row = _run_one(config, game, trial_src)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        row.update({"trial": t, "seed": trial_src.seed, "time_ms": round(elapsed_ms, 3)})
        rows.append(row)

    csv_path = out_dir / f"{config.label}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for row in rows:
            writer.writerow([_fmt(row.get(k)) for k in _CSV_FIELDS])

    done = [r for r in rows if not r["abort"]]
    regrets = [r["regret"] for r in done if r["regret"] is not None]
    summary = {
        "label": config.label,
        "algorithm": config.algorithm,
        "trials": config.trials,
        "seed": config.seed,
        "noise": config.noise,
        "params": config.params,
        "game": config.game,
        "aborts": sum(r["abort"] for r in rows),
        "max_regret": max(regrets) if regrets else None,
        "mean_regret": sum(regrets) / len(regrets) if regrets else None,
        "bound": rows[0]["bound"] if rows else None,
        "within_bound": (
            all(r["regret"] <= r["bound"] for r in done if r["regret"] is not None)
            if done
            else None
        ),
    }
    summary_path = out_dir / f"{config.label}.summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return ExperimentResult(rows=rows, summary=summary, csv_path=csv_path, summary_path=summary_path)
