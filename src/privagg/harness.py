"""Experiment harness: generators, brute force, deviation tests, batch runs.

Everything here is non-private tooling around the solvers: reference
enumeration of equilibria for small games, seeded game generators for each
supported family, a common-random-numbers misreport experiment for the
mediator view, the solver table ``SOLVERS`` that the CLI and the batch
runner share, and a batch runner that writes one CSV row per trial plus a
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

from .dp_core import (
    BudgetError, NoiseSource, ParameterError, as_count, as_real, check_range, seeded_generator,
)
from .game_core import (
    AggregativeGame,
    LinearUtility,
    aggregator,
    as_array,
    as_player,
    expected_aggregator,
    regret,
    utility_values,
)
from .lp_core import DistMWParams, build_slack_lp, distmw_solve, mw_accuracy_bound
from .market import MarketGame, portfolio_matrix, to_aggregative
from .onedim import (
    QualitySpec,
    QuasiAggregativeGame,
    SelectionParams,
    make_optin_game,
    psummnash,
    select_equilibrium,
)
from .presl import PreslParams, npresl, presl

__all__ = [
    "BruteForce",
    "DeviationSpec",
    "DeviationReport",
    "ExperimentConfig",
    "ExperimentResult",
    "GENERATOR_KEYS",
    "Outcome",
    "SOLVERS",
    "Solver",
    "brute_force_equilibria",
    "profile_loss",
    "deviation_test",
    "game_view",
    "generate",
    "run_experiment",
    "score",
    "solve",
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


def brute_force_equilibria(game: AggregativeGame, zeta: float) -> BruteForce:
    """Enumerate all m^n profiles with exact regrets (budget 10^6 profiles)."""
    total = game.m**game.n
    if total > ENUM_BUDGET:
        raise BudgetError(f"{total} profiles exceed the enumeration budget {ENUM_BUDGET}")
    # digit i of row r, base m: player i's action in profile r
    rows = np.arange(total, dtype=np.int64)[:, None]
    profiles = rows // game.m ** np.arange(game.n, dtype=np.int64) % game.m
    regrets = np.fromiter((regret(game, x).max_regret for x in profiles), float, total)
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
    ``FALLBACK_ACTION``.
    """

    true_types: np.ndarray
    player: int
    misreport: float
    epsilon: float
    alpha: float
    beta: float
    runs: int = 20
    seed: int = 0
    make_game: Callable[[np.ndarray], QuasiAggregativeGame] = None

    def __post_init__(self):
        self.true_types = np.asarray(self.true_types, dtype=float)
        self.player = as_player(len(self.true_types), self.player)
        self.runs = as_count("runs", self.runs)
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


FALLBACK_ACTION = 1  # every player's action when the mediator aborts


def _mediated_payoff(qgame_true: QuasiAggregativeGame, player: int, out: Outcome) -> float:
    base = qgame_true.base
    if out.aborted:
        x = np.full(base.n, FALLBACK_ACTION, dtype=np.int64)
    else:
        x = out.profile
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
    params = {"epsilon": spec.epsilon, "alpha": spec.alpha, "beta": spec.beta}
    gains = np.empty(spec.runs)
    root = NoiseSource(spec.seed)
    for r in range(spec.runs):
        trial_seed = root.child(("deviation", r)).seed
        out_true = solve("psummnash", truthful, params, NoiseSource(trial_seed))
        out_dev = solve("psummnash", deviated, params, NoiseSource(trial_seed))
        u_true = _mediated_payoff(truthful, spec.player, out_true)
        u_dev = _mediated_payoff(truthful, spec.player, out_dev)
        gains[r] = u_dev - u_true
    accuracy = out_true.bound
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


# the params each generator kind reads; ``generate`` refuses any other key
GENERATOR_KEYS = {
    "linear": ("n", "m", "d", "gamma", "W", "with_loss"),
    "anonymous": ("n", "m", "gamma", "W", "with_loss"),
    "threshold": ("n", "gamma", "thresholds"),
    "market": ("n", "d", "lam"),
}


def generate(kind: str, seed: int, **params):
    """Seeded game families, each reading the keys ``GENERATOR_KEYS`` lists.

    linear: dense facets in [-1, 1], random linear utilities, random loss.
    anonymous: d = m indicator facets (the aggregator counts action shares),
      random linear utilities and loss.
    threshold: the two-action participation game with uniform thresholds.
    market: uniform per-security values in [0, 1] turned into portfolio
      valuations.
    """
    if not isinstance(kind, str) or kind not in GENERATOR_KEYS:
        raise ParameterError(f"unknown game kind {kind!r}")
    unread = sorted(set(params) - set(GENERATOR_KEYS[kind]))
    if unread:
        raise ParameterError(f"{kind} games do not read {', '.join(unread)}")
    rng = seeded_generator(seed)
    if kind in ("linear", "anonymous"):
        n = as_count("n", params.get("n", 8))
        m = as_count("m", params.get("m", 2))
        d = as_count("d", params.get("d", 1)) if kind == "linear" else m
        gamma = float(as_real("gamma", params.get("gamma", 1.0 / n)))
        W = float(as_real("W", params.get("W", gamma * n)))
        check_range("positive", gamma=gamma, W=W)  # the utility draw divides by 1 + W
        if kind == "linear":
            f = rng.uniform(-1.0, 1.0, size=(n, d, m))
        else:
            f = np.broadcast_to(np.eye(m), (n, m, m))  # one block, shared by every player
        utility = _random_linear_utility(rng, n, m, d, W)
        loss = rng.uniform(0.0, 1.0, size=(n, m)) if params.get("with_loss", True) else None
        return AggregativeGame(n=n, m=m, d=d, gamma=gamma, W=W, f=f, utility=utility, loss=loss)
    if kind == "threshold":
        n = as_count("n", params.get("n", 50))
        gamma = params.get("gamma")
        if gamma is not None:
            gamma = as_real("gamma", gamma)
        thresholds = params.get("thresholds")
        if thresholds is None:
            thresholds = rng.uniform(0.0, 1.0, size=n)
        return make_optin_game(n, as_array("thresholds", thresholds), gamma=gamma)
    # market
    n = as_count("n", params.get("n", 20))
    portfolios = portfolio_matrix(params.get("d", 1))
    d = portfolios.shape[1]
    lam = float(as_real("lam", params.get("lam", max(4.0, n / 4.0))))
    theta = rng.uniform(0.0, 1.0, size=(n, d))
    return MarketGame(n=n, d=d, lam=lam, valuations=theta @ portfolios.T.astype(float))


# ---------------------------------------------------------------------------
# solver table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """One solver run as the CLI and the batch runner publish it.

    ``fields`` are the solver's own published fields, in payload order, for
    the success or the abort case. ``profile`` is None on an abort; distmw
    never has one and reports ``margin``, the worst LP margin at its average
    iterate, instead.
    """

    game: AggregativeGame  # the game the profile is scored on
    bound: float
    profile: Optional[np.ndarray]
    fields: dict
    quality: Optional[float] = None
    margin: Optional[float] = None

    @property
    def aborted(self) -> bool:
        return self.profile is None and self.margin is None


def game_view(game) -> AggregativeGame:
    """The AggregativeGame behind a generator's quasi or market game."""
    if isinstance(game, QuasiAggregativeGame):
        return game.base
    if isinstance(game, MarketGame):
        return to_aggregative(game)
    return game


def _quasi_view(game) -> QuasiAggregativeGame:
    """The scalar solvers' view of a game: a QuasiAggregativeGame as given,
    so the sweep bands it keeps are built once across solves."""
    if isinstance(game, QuasiAggregativeGame):
        return game
    return QuasiAggregativeGame(game_view(game))


def _need(params: dict, numbers: tuple, objects: tuple = ()) -> list:
    """The named params, in order: each number through ``as_real``, each
    object as given. A missing or non-numeric one is refused."""
    for key in (*numbers, *objects):
        if key not in params:
            raise ParameterError(f"params lack {key!r}")
    return [as_real(key, params[key]) for key in numbers] + [params[key] for key in objects]


def _presl(game, src: NoiseSource, zeta, epsilon, delta, beta) -> Outcome:
    game = game_view(game)
    pp = PreslParams.for_game(game, zeta=zeta, epsilon=epsilon, delta=delta, beta=beta)
    res = presl(game, pp, src)
    if res.aborted:
        fields = {"queries": res.queries_asked, "alpha": pp.alpha}
    else:
        fields = {
            "alpha": pp.alpha, "bound": pp.nash_bound, "hit_y": res.hit_y,
            "hit_s": res.hit_s.tolist(), "queries": res.queries_asked,
        }
    return Outcome(game, pp.nash_bound, res.profile, fields)


def _npresl(game, src: NoiseSource, zeta, alpha, beta) -> Outcome:
    game = game_view(game)
    res = npresl(game, zeta=zeta, alpha=alpha, beta=beta, src=src)
    if res.aborted:
        fields = {"alpha": alpha}
    else:
        fields = {
            "s_hat": res.s_hat.tolist(), "y_star": res.y_star,
            "witness_loss": res.witness_loss, "feasible_points": res.feasible_points,
            "bound": res.nash_bound,
        }
    return Outcome(game, res.nash_bound, res.profile, fields)


def _psummnash(game, src: NoiseSource, epsilon, alpha, beta) -> Outcome:
    qgame = _quasi_view(game)
    res = psummnash(qgame, epsilon, alpha, beta, src)
    bound = res.approx_bound(qgame.gamma)
    if res.aborted:
        fields = {"queries": list(res.queries)}
    else:
        fields = {"stage": res.stage, "bound": bound, "queries": list(res.queries)}
    return Outcome(qgame.base, bound, res.profile, fields)


def _select(game, src: NoiseSource, zeta, epsilon, alpha, beta, quality) -> Outcome:
    qgame = _quasi_view(game)
    sp = SelectionParams.for_game(
        qgame, zeta=zeta, epsilon=epsilon, alpha=alpha, beta=beta,
        quality=QualitySpec.from_json(quality),
    )
    res = select_equilibrium(qgame, sp, src)
    if res.aborted:
        fields = {"queries": list(res.queries)}
    else:
        fields = {
            "branch": res.branch, "s_star": res.s_star,
            "quality": res.quality_value, "bound": sp.approx_bound,
        }
    return Outcome(qgame.base, sp.approx_bound, res.profile, fields, quality=res.quality_value)


DISTMW_XI = 2.0  # support width of the distmw entry's slack LP


def _distmw(game, src: NoiseSource, epsilon, delta, alpha, beta) -> Outcome:
    """The private LP dynamics alone, on the slack LP around the uniform
    profile's aggregator with support width DISTMW_XI."""
    game = game_view(game)
    p_uniform = np.full((game.n, game.m), 1.0 / game.m)
    s_hat = expected_aggregator(game, p_uniform)
    lp = build_slack_lp(game, s_hat, None, xi=DISTMW_XI, slack=alpha)
    mw_params = DistMWParams.for_game(
        game, epsilon=epsilon, delta=delta, alpha=alpha, beta=beta,
    )
    res = distmw_solve(lp, mw_params, src)
    bound = mw_accuracy_bound(
        game.n, game.m, game.gamma, epsilon, delta, lp.n_constraints, beta,
    )
    return Outcome(game, bound, None, {}, margin=float(np.max(lp.margins(res.p_bar))))


@dataclass(frozen=True)
class Solver:
    """One table entry: the one list of the params keys a solver reads.
    ``run`` takes (game, src), then the numeric ``params`` in this order,
    then the ``objects`` as given. The CLI builds its flags from ``params``."""

    run: Callable[..., Outcome]
    params: tuple[str, ...]
    objects: tuple[str, ...] = ()


# Each entry runs on any generator's game, a params dict holding at least
# the keys it names, and the run's noise source.
SOLVERS: dict[str, Solver] = {
    "presl": Solver(_presl, ("zeta", "epsilon", "delta", "beta")),
    "npresl": Solver(_npresl, ("zeta", "alpha", "beta")),
    "psummnash": Solver(_psummnash, ("epsilon", "alpha", "beta")),
    "select": Solver(_select, ("zeta", "epsilon", "alpha", "beta"), ("quality",)),
    "distmw": Solver(_distmw, ("epsilon", "delta", "alpha", "beta")),
}


def _solver(algorithm: str) -> Solver:
    if algorithm not in SOLVERS:
        raise ParameterError(f"unknown algorithm {algorithm!r}")
    return SOLVERS[algorithm]


def solve(algorithm: str, game, params: dict, src: NoiseSource) -> Outcome:
    """Run one table entry by name on the params it names."""
    entry = _solver(algorithm)
    return entry.run(game, src, *_need(params, entry.params, entry.objects))


def score(game: AggregativeGame, profile) -> tuple[float, Optional[float]]:
    """Exact max regret of a profile and, when the game has a loss, L(x)."""
    loss = profile_loss(game, profile) if game.loss is not None else None
    return regret(game, profile).max_regret, loss


# ---------------------------------------------------------------------------
# batch experiments
# ---------------------------------------------------------------------------

_CSV_FIELDS = ["trial", "seed", "regret", "bound", "loss", "quality", "abort", "time_ms"]


# (field, type, how a message names it) for the config fields read as given
_CONFIG_TYPES = [
    ("algorithm", str, "a string"),
    ("game", dict, "a JSON object"),
    ("params", dict, "a JSON object"),
    ("seed", int, "an integer"),
    ("noise", bool, "true or false"),
    ("label", str, "a string"),
    ("out_dir", (str, type(None)), "a string"),
]


@dataclass
class ExperimentConfig:
    """One batch: a solver, a game source, trial count, and solver knobs.

    ``algorithm`` is a key of ``SOLVERS``. ``game`` either names a
    generator ({"kind": ..., <params>}) or points at a JSON file
    ({"path": ...}). ``params`` carries the keys that solver reads.
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
        if not isinstance(payload, dict):
            raise ParameterError("config JSON must be an object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ParameterError(f"unknown config fields: {sorted(extra)}")
        missing = {"algorithm", "game"} - set(payload)
        if missing:
            raise ParameterError(f"config lacks fields: {sorted(missing)}")
        for name, kind, what in _CONFIG_TYPES:
            value = payload.get(name)
            wrong = not isinstance(value, kind) or (kind is int and isinstance(value, bool))
            if name in payload and wrong:
                raise ParameterError(f"config field {name} must be {what}")
        if "trials" in payload:
            payload["trials"] = as_count("trials", payload["trials"])
        label = payload.get("label", cls.label)  # names the files written in out_dir
        if label in ("", ".", "..") or "\0" in label or Path(label).name != label:
            raise ParameterError(f"config field label must be a plain file name, got {label!r}")
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

        if not isinstance(config.game["path"], str):
            raise ParameterError("game path must be a string")
        extra = sorted(set(config.game) - {"path"})
        if extra:
            raise ParameterError(f"a game 'path' reads no other key, got {extra}")
        return load_game(config.game["path"])
    spec = dict(config.game)
    if "kind" not in spec:
        raise ParameterError("game needs a 'kind' or a 'path'")
    if "seed" in spec:
        raise ParameterError("game spec must not hold 'seed': each trial has its own")
    kind = spec.pop("kind")
    return generate(kind, seed=trial_seed, **spec)


def _run_one(config: ExperimentConfig, game, src: NoiseSource) -> dict:
    out = solve(config.algorithm, game, config.params, src)
    row = {
        "regret": out.margin, "bound": out.bound, "loss": None,
        "quality": out.quality, "abort": int(out.aborted),
    }
    if out.profile is not None:
        row["regret"], row["loss"] = score(out.game, out.profile)
    return row


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the batch, write <label>.csv and <label>.summary.json.

    A params key that the solver's ``SOLVERS`` entry does not name is
    refused before any trial runs. Output goes to config.out_dir, the
    PRIVAGG_OUT environment variable, or the working directory, in that
    order. Rows are deterministic for a fixed config except the trailing
    time_ms column.
    """
    entry = _solver(config.algorithm)
    unread = sorted(set(config.params) - {*entry.params, *entry.objects})
    if unread:
        raise ParameterError(f"{config.algorithm} does not read params {', '.join(unread)}")
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
