"""Frozen digests of the scalar solvers' published outputs.

psummnash and select run on five small seeded games (a threshold game, an
m = 2 and an m = 3 linear game and a table game at n = 300, and the
crowd-averse walk case) under noise seeds 0 and 1 and under noise_off. The
table game has no payoff lines, so its summary values are evaluated point by
point. Each (game, solver) pair hashes everything its
runs publish into one SHA-256 digest, pinned below. A change that moves any
seeded output fails here; one that moves them on purpose re-pins the
digests and says which outputs moved and why.
"""

import hashlib

import numpy as np
import pytest

from privagg.dp_core import NoiseSource
from privagg.game_core import TableUtility
from privagg.harness import generate
from privagg.onedim import (
    QualitySpec,
    QuasiAggregativeGame,
    SelectionParams,
    psummnash,
    psummnash_accuracy_floor,
    select_equilibrium,
)

from conftest import build_quiet, crowd_averse_game

SOURCES = (
    NoiseSource(0),
    NoiseSource(1),
    NoiseSource(0, NoiseSource.NOISE_OFF),
)


def table_game(seed: int, n: int, m: int) -> QuasiAggregativeGame:
    """Seeded d = 1 table game: values in [-1/8, 1/8] on nine nodes a quarter
    apart, so every slope is within the 1-Lipschitz budget."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = rng.uniform(-0.125, 0.125, size=(n, m, 9))
    f = rng.uniform(-1.0, 1.0, size=(n, 1, m))
    return QuasiAggregativeGame(build_quiet(
        n=n, m=m, d=1, gamma=1.0 / n, W=1.0, f=f,
        utility=TableUtility(np.linspace(-1.0, 1.0, 9), values),
    ))


def games():
    """name -> (game, psummnash epsilon, psummnash alpha or None for the floor)."""
    return {
        "threshold": (generate("threshold", 5, n=300), 300.0, None),
        "linear": (QuasiAggregativeGame(generate("linear", 6, n=300, m=2)), 300.0, None),
        "linear3": (QuasiAggregativeGame(generate("linear", 7, n=300, m=3)), 300.0, None),
        "table": (table_game(8, n=300, m=3), 300.0, None),
        # the walk case of test_crowd_averse_run_walks_the_jump
        "crowd": (QuasiAggregativeGame(crowd_averse_game(40, 0.5, 0.025)), 500.0, 0.05),
    }


def run_psummnash(qgame, epsilon, alpha, src):
    if alpha is None:
        alpha = psummnash_accuracy_floor(qgame, epsilon, 0.05)
    res = psummnash(qgame, epsilon, alpha, 0.05, src)
    return res.aborted, res.profile, res.stage, res.k_hit, res.bracket, res.walk_j, res.queries


def run_select(qgame, epsilon, alpha, src):
    params = SelectionParams.for_game(
        qgame, zeta=4.0 * qgame.gamma, quality=QualitySpec.peak(0.3),
        epsilon=3000.0, alpha=0.05, beta=0.05,
    )
    res = select_equilibrium(qgame, params, src)
    return res.aborted, res.profile, res.branch, res.rank, res.walk_j, res.queries


SOLVERS = {"psummnash": run_psummnash, "select": run_select}


def outputs_digest(game_name: str, solver: str) -> str:
    """SHA-256 over the published outputs of one (game, solver) pair, every
    source in turn: profiles as int64 bytes, the other fields by repr."""
    qgame, epsilon, alpha = games()[game_name]
    h = hashlib.sha256()
    for src in SOURCES:
        for part in SOLVERS[solver](qgame, epsilon, alpha, src):
            if isinstance(part, np.ndarray):
                h.update(np.asarray(part, dtype=np.int64).tobytes())
            else:
                h.update(repr(part.item() if isinstance(part, np.generic) else part).encode())
            h.update(b"|")
    return h.hexdigest()


PINNED = {
    ("threshold", "psummnash"):
        "6f539c1c94e2c1218b16704b6aca8c89e038e338f451785379cffa8986d3c79c",
    ("threshold", "select"):
        "947d81f1863393b0a9a347c37779f6a097dacbd55efe13796d49f3356a8ad249",
    ("linear", "psummnash"):
        "8ea6e355cfc906898ab862aee22d3b8cfb81e1b77e946ac79b17f95c571f0c80",
    ("linear", "select"):
        "3b698d5b24019b664ac243bc071c8e8c3c379e00cbc0393bce1d70ac8aee1bd3",
    ("linear3", "psummnash"):
        "ef8defe91e5cdf3660ba9561d9cadcd27eb017495713c8be55bdd901fd4badcb",
    ("linear3", "select"):
        "8ce01028782d8a7c1fd472934958834c215d19c707f0cf79c3d901b21d6e72aa",
    ("table", "psummnash"):
        "4a5e6af90008453993931530da1d28627597ed585fe806b857b22654d08998be",
    ("table", "select"):
        "bdf338f5aa475559722e007fec47562d6b6db04d364d7c20b68789816cfad0dd",
    ("crowd", "psummnash"):
        "30b86220030449efe115d3f67250f3ccbadd8f557cae8909684d99ce90b53a06",
    ("crowd", "select"):
        "a01603d982f0f99440e9dfafcfacef4a81185f26b8292d0889dc460be7ab22e8",
}


@pytest.mark.parametrize("game_name,solver", sorted(PINNED))
def test_onedim_outputs_match_frozen_digest(game_name, solver):
    assert outputs_digest(game_name, solver) == PINNED[game_name, solver]
