"""The benchmark's workloads: game pools made from a seed, and request kinds.

A request solves one game, verifies the returned profile with the exact
regret oracle and replays a sample of players from the published result.
Every step calls the public function that the matching CLI subcommand or
``replay_*`` helper calls, with the same parameter derivation. A request
records its timings, its failed checks and a digest of everything it
produced into a ``Request``.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from privagg.dp_core import NoiseSource
from privagg.game_core import expected_aggregator, regret, sample_profile
from privagg.harness import brute_force_equilibria, generate, profile_loss
from privagg.lp_core import (
    DistMWParams,
    build_slack_lp,
    distmw_solve,
    mw_accuracy_bound,
    replay_mw_player,
)
from privagg.market import to_aggregative
from privagg.onedim import (
    QualitySpec,
    QuasiAggregativeGame,
    SelectionParams,
    psummnash,
    psummnash_accuracy_floor,
    replay_psummnash_player,
    replay_select_player,
    select_equilibrium,
)
from privagg.presl import (
    PreslParams,
    existence_bound,
    npresl,
    presl,
    replay_presl_player,
)

# absolute slack on every certified-bound comparison (float roundoff only)
TOL = 1e-9
# players who read the billboard after each request that publishes one
REPLAYS = 128


def derive_seed(*parts: int) -> int:
    """A 32-bit seed keyed by the workload seed and integer labels."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class Request:
    """Timings, failed checks and a result digest of one request."""

    def __init__(self, kind: str, index: int, seed: int, mode: str, game_key):
        self.kind = kind
        self.index = index
        self.mode = mode
        self.game_key = game_key
        self.noise_seed = derive_seed(seed, 1, index)
        self.replay_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 2, index)))
        self.samples: dict = defaultdict(list)  # (phase, label) -> seconds
        self.failures: Counter = Counter()
        self.ratios: list = []  # checked quantity / certified bound
        self.loss_gaps: list = []  # (loss - OPT) / alpha
        self.wall_s = 0.0
        self._digest = hashlib.sha256()

    def src(self) -> NoiseSource:
        return NoiseSource(self.noise_seed, self.mode)

    def timed(self, phase: str, label: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.samples[(phase, label)].append(time.perf_counter() - start)
        return out

    def check(self, ok: bool, failure: str) -> None:
        if not ok:
            self.failures[failure] += 1

    def feed(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self._digest.update(str(part.dtype).encode())
                self._digest.update(part.tobytes())
            else:
                self._digest.update(repr(part).encode())
            self._digest.update(b"|")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def players(self, n: int) -> np.ndarray:
        """The REPLAYS players who read the billboard, drawn with replacement."""
        return self.replay_rng.integers(0, n, size=REPLAYS)


@dataclass
class Workload:
    name: str
    setup: Callable[[int], dict]
    kinds: list  # (kind name, pool key, request function), one cycle in order
    rerun_kind: str  # kind rerun under noise_off for the determinism check
    trace_cycles: int  # cycles the traced run makes, each request untraced and traced


def verify(req: Request, label: str, game, profile, bound) -> None:
    """Time the exact regret oracle; check it against ``bound`` unless None."""
    rep = req.timed("verify", label, regret, game, profile)
    req.feed(rep.max_regret)
    if bound is not None:
        req.check(rep.max_regret <= bound + TOL, "regret_over_bound")
        req.ratios.append(rep.max_regret / bound)


def replay(req: Request, label: str, fn: Callable, expected: int) -> None:
    got = req.timed("replay", label, fn)
    req.check(got == expected, "replay_mismatch")


def aborted(req: Request, res) -> bool:
    req.feed(res.aborted)
    req.check(not res.aborted, "abort")
    return res.aborted


# ---------------------------------------------------------------------------
# grid-small: presl and npresl on loss-carrying linear games (d = 1, m = 2)
# ---------------------------------------------------------------------------

GRID_POOL = 24
PRESL_N, PRESL_GAMMA = 10, 0.05
PRESL_ARGS = dict(zeta=1.0, epsilon=75.0, delta=0.05, beta=0.3)
NPRESL_GAMMA, NPRESL_ALPHA, NPRESL_BETA = 0.1, 0.12, 0.1


def setup_grid(seed: int) -> dict:
    presl_games = [
        generate("linear", derive_seed(seed, 10, j), n=PRESL_N, gamma=PRESL_GAMMA)
        for j in range(GRID_POOL)
    ]
    npresl_games = []
    for j in range(GRID_POOL):
        n = 4 + j % 3
        game = generate("linear", derive_seed(seed, 11, j), n=n, gamma=NPRESL_GAMMA)
        zeta = existence_bound(n, game.m, NPRESL_GAMMA)
        opt = brute_force_equilibria(game, zeta).min_loss(game)
        if not math.isfinite(opt):
            raise RuntimeError(f"game {j} has no zeta-equilibrium to compare against")
        npresl_games.append((game, zeta, opt))
    return {"presl": presl_games, "npresl": npresl_games}


def presl_request(req: Request, game) -> None:
    def solve():
        params = PreslParams.for_game(game, **PRESL_ARGS)
        return params, presl(game, params, req.src())

    params, res = req.timed("solve", "presl", solve)
    if aborted(req, res):
        return
    req.feed(res.profile, res.hit_index, res.queries_asked, np.asarray(res.mw_transcript))
    verify(req, "presl", game, res.profile, params.nash_bound)
    for i in req.players(game.n):
        replay(
            req, "presl", lambda i=int(i): replay_presl_player(game, i, res, req.src()),
            int(res.profile[i]),
        )


def npresl_regret_bound(game, zeta: float, sampling_slack: float) -> float:
    """Regret level of an npresl profile, from the sweep's own construction.

    Every sampled action lies within xi = zeta + gamma + 2 alpha of its best
    response to s_hat; the witness keeps |S(p) - s_hat| <= alpha + tol
    (tol = alpha / 10, npresl's default) and sampling moves S by at most
    sampling_slack (with probability 1 - beta). Fixed-aggregator regret is
    then at most xi + 2 (alpha + tol + sampling_slack), and the deviator's own
    shift adds gamma_eff. The bound harness._run_one writes for npresl,
    4 alpha + 2 gamma + 2 sampling_slack, leaves out zeta.
    """
    xi = zeta + game.gamma + 2.0 * NPRESL_ALPHA
    drift = NPRESL_ALPHA + NPRESL_ALPHA / 10.0 + sampling_slack
    return xi + 2.0 * drift + game.gamma_eff


def npresl_request(req: Request, entry) -> None:
    game, zeta, opt = entry
    label = f"npresl/n{game.n}"
    res = req.timed(
        "solve", label, npresl, game, zeta=zeta, alpha=NPRESL_ALPHA, beta=NPRESL_BETA,
        src=req.src(),
    )
    if aborted(req, res):
        return
    req.feed(res.profile, res.p_bar, res.y_star, res.feasible_points)
    verify(req, label, game, res.profile, npresl_regret_bound(game, zeta, res.sampling_slack))
    loss = profile_loss(game, res.profile)
    req.check(loss <= opt + 5.0 * NPRESL_ALPHA + NPRESL_ALPHA / 10.0 + TOL, "loss_over_opt")
    req.loss_gaps.append((loss - opt) / NPRESL_ALPHA)


# ---------------------------------------------------------------------------
# onedim-large: psummnash and select on n = 10,000 scalar games
# ---------------------------------------------------------------------------

ONEDIM_N = 10_000
ONEDIM_GAMES_PER_FAMILY = 2
PSUMM_EPS, PSUMM_BETA = 300.0, 0.05
SELECT_ARGS = dict(epsilon=3000.0, alpha=0.05, beta=0.05)
SELECT_TARGET = 0.3


def setup_onedim(seed: int) -> dict:
    thr = [
        generate("threshold", derive_seed(seed, 20, j), n=ONEDIM_N)
        for j in range(ONEDIM_GAMES_PER_FAMILY)
    ]
    lin = [
        QuasiAggregativeGame(generate("linear", derive_seed(seed, 21, j), n=ONEDIM_N, m=2))
        for j in range(ONEDIM_GAMES_PER_FAMILY)
    ]
    return {"threshold": thr, "linear": lin}


def psummnash_request(label: str):
    def run(req: Request, qgame) -> None:
        def solve():
            alpha = psummnash_accuracy_floor(qgame, PSUMM_EPS, PSUMM_BETA)
            return psummnash(qgame, PSUMM_EPS, alpha, PSUMM_BETA, req.src())

        res = req.timed("solve", label, solve)
        if aborted(req, res):
            return
        req.feed(res.profile, res.stage, res.queries, res.k_hit, res.bracket, res.walk_j)
        verify(req, label, qgame.base, res.profile, res.approx_bound(qgame.gamma))
        for i in req.players(qgame.n):
            replay(
                req, label, lambda i=int(i): replay_psummnash_player(qgame, i, res),
                int(res.profile[i]),
            )

    return run


def select_request(label: str):
    def run(req: Request, qgame) -> None:
        def solve():
            params = SelectionParams.for_game(
                qgame, zeta=4.0 * qgame.gamma, quality=QualitySpec.peak(SELECT_TARGET),
                **SELECT_ARGS,
            )
            return params, select_equilibrium(qgame, params, req.src())

        params, res = req.timed("solve", label, solve)
        if aborted(req, res):
            return
        req.feed(res.profile, res.branch, res.s_star, res.rank, res.walk_j, res.queries)
        verify(req, label, qgame.base, res.profile, params.approx_bound)
        for i in req.players(qgame.n):
            replay(
                req, label, lambda i=int(i): replay_select_player(qgame, i, res),
                int(res.profile[i]),
            )

    return run


# ---------------------------------------------------------------------------
# market-billboard: presl's stage 2 at scale on hinge-price markets
# ---------------------------------------------------------------------------

MARKET_POOL = 16
MARKET_D1_N, MARKET_D2_N = 20_000, 2_000
MW_ARGS = dict(epsilon=1.0, delta=0.05, alpha=1.0, beta=0.1)
MW_XI = 2.0  # harness._run_one's default support width for "distmw"


def setup_market(seed: int) -> dict:
    d1 = [
        to_aggregative(generate("market", derive_seed(seed, 30, j), n=MARKET_D1_N, d=1))
        for j in range(MARKET_POOL)
    ]
    d2 = [
        to_aggregative(generate("market", derive_seed(seed, 31, j), n=MARKET_D2_N, d=2))
        for j in range(MARKET_POOL)
    ]
    return {"d1": d1, "d2": d2}


def _stage2(game, src: NoiseSource):
    """The slack LP at the uniform profile's aggregator, solved by the private
    dynamics and sampled per player, as harness._run_one builds "distmw"."""
    p_uniform = np.full((game.n, game.m), 1.0 / game.m)
    s_hat = expected_aggregator(game, p_uniform)
    lp = build_slack_lp(game, s_hat, None, xi=MW_XI, slack=MW_ARGS["alpha"])
    mw_params = DistMWParams.for_game(game, **MW_ARGS)
    res = distmw_solve(lp, mw_params, src.child("mw"))
    profile = sample_profile(game, res.p_bar, src.child("sample"))
    return lp, mw_params, res, profile


def _replay_mw(lp, mw_params, transcript, src: NoiseSource, i: int):
    row = replay_mw_player(lp.cons_f[:, i, :], lp.supports[i], mw_params, transcript)
    u = src.child("sample").child(i).uniform()
    cum = np.cumsum(row)
    cum[-1] = 1.0
    return row, int(np.searchsorted(cum, u, side="left"))


def market_request(label: str):
    def run(req: Request, game) -> None:
        lp, mw_params, res, profile = req.timed("solve", label, _stage2, game, req.src())
        req.feed(profile, np.asarray(res.transcript), res.p_bar)
        margin = float(np.max(lp.margins(res.p_bar)))
        bound = mw_accuracy_bound(
            game.n, game.m, game.gamma, MW_ARGS["epsilon"], MW_ARGS["delta"],
            lp.n_constraints, MW_ARGS["beta"],
        )
        req.check(margin <= bound + TOL, "margin_over_bound")
        req.ratios.append(margin / bound)
        # stage 2 alone certifies no regret level; the oracle still runs on it
        verify(req, label, game, profile, None)
        for i in req.players(game.n):
            i = int(i)
            row, action = req.timed(
                "replay", label, _replay_mw, lp, mw_params, res.transcript, req.src(), i
            )
            req.check(np.array_equal(row, res.p_bar[i]), "replay_mismatch")
            req.check(action == int(profile[i]), "replay_mismatch")

    return run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-small",
            setup=setup_grid,
            kinds=[("presl", "presl", presl_request), ("npresl", "npresl", npresl_request)],
            rerun_kind="presl",
            trace_cycles=4,
        ),
        Workload(
            name="onedim-large",
            setup=setup_onedim,
            kinds=[
                ("psummnash-threshold", "threshold", psummnash_request("psummnash-threshold")),
                ("select-threshold", "threshold", select_request("select-threshold")),
                ("psummnash-linear", "linear", psummnash_request("psummnash-linear")),
                ("select-linear", "linear", select_request("select-linear")),
            ],
            rerun_kind="psummnash-threshold",
            trace_cycles=1,
        ),
        Workload(
            name="market-billboard",
            setup=setup_market,
            kinds=[("d1", "d1", market_request("d1")), ("d2", "d2", market_request("d2"))],
            rerun_kind="d2",
            trace_cycles=2,
        ),
    )
}
