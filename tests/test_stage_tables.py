"""Each solver's table of private stages: what its ledger records on every
exit path, what its shares add up to, which streams its stages draw, and
presl's blocked grid scan against the one-query-at-a-time loop."""

import dataclasses
import math

import numpy as np
import pytest

import privagg.presl as presl_mod
from privagg import lp_core, onedim
from privagg.dp_core import NoiseSource, PrivacyLedger
from privagg.game_core import LinearUtility
from privagg.harness import generate
from privagg.lp_core import DistMWParams, build_slack_lp, distmw_solve, exact_lp_min
from privagg.market import to_aggregative
from privagg.onedim import (
    QualitySpec, QuasiAggregativeGame, SelectionParams, psummnash, psummnash_accuracy_floor,
    select_equilibrium,
)
from privagg.presl import PreslParams, presl

from conftest import (
    JUMP_ALPHA, JUMP_EPSILON, build_quiet, crowd_averse_game, jump_game, reference_presl_scan,
)

OFF = NoiseSource.NOISE_OFF
SOURCES = [NoiseSource(seed, mode) for seed in range(4) for mode in (NoiseSource.NOISY, OFF)]


def charges(stages):
    return [(stage.label, stage.epsilon, stage.delta) for stage in stages]


def miss(monkeypatch, label):
    """Make every scan of the stage ``label`` miss: its queries come back
    far above any threshold. The stage is still charged and asked."""
    scan = PrivacyLedger.scan

    def scanned(self, stage, src, query, total):
        if stage.label == label:
            return scan(self, stage, src, lambda lo, hi: query(lo, hi) + 1e9, total)
        return scan(self, stage, src, query, total)

    monkeypatch.setattr(PrivacyLedger, "scan", scanned)


def wide_game(W, n=2, seed=0):
    """A linear game with loss on a wide aggregate range [-W, W], whose
    presl grid puts the first admissible point past the first blocks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return build_quiet(
        n=n, m=2, d=1, gamma=0.05, W=W, f=rng.uniform(-1.0, 1.0, size=(n, 1, 2)),
        utility=LinearUtility(rng.uniform(-0.3, 0.3, size=(n, 2)),
                              rng.uniform(-0.01, 0.01, size=(n, 2, 1))),
        loss=rng.uniform(0.0, 1.0, size=(n, 2)),
    )


# ---------------------------------------------------------------------------
# psummnash and select
# ---------------------------------------------------------------------------


def psummnash_table(q, epsilon, alpha):
    return onedim._stages(onedim._PSUMMNASH_STAGES, epsilon, alpha, q.gamma)


def test_psummnash_ledger_is_its_table_on_every_exit(monkeypatch):
    linear = QuasiAggregativeGame(generate("linear", 6, n=300, m=2))
    crowd = QuasiAggregativeGame(crowd_averse_game(40, 0.5, 0.025))
    jump = QuasiAggregativeGame(jump_game())
    floor = psummnash_accuracy_floor(linear, 300.0, 0.05)
    seen = set()
    for q, epsilon, alpha in ((linear, 300.0, floor), (crowd, 500.0, 0.05),
                              (jump, JUMP_EPSILON, JUMP_ALPHA)):
        table = psummnash_table(q, epsilon, alpha)
        for src in SOURCES:
            res = psummnash(q, epsilon, alpha, 0.05, src)
            # each stage that ran is charged, in table order
            ran = {1: 1, 3: 3, None: 3}[res.stage]
            assert res.ledger.entries == charges(table[:ran])
            seen.add((res.stage, res.aborted))
    assert seen == {(1, False), (3, False), (None, True)}
    # a crossing scan that misses ends the run after two stages
    miss(monkeypatch, "crossing-scan")
    res = psummnash(crowd, 500.0, 0.05, 0.05, NoiseSource(0))
    assert res.aborted and res.bracket is None and res.queries[2] == 0
    assert res.ledger.entries == charges(psummnash_table(crowd, 500.0, 0.05)[:2])


def select_cases():
    crowd = QuasiAggregativeGame(crowd_averse_game(40, 0.5, 0.025))
    jump = QuasiAggregativeGame(crowd_averse_game(10, -0.04, 0.1, spread2=True))
    for q, epsilon, alpha, zeta in ((crowd, 3000.0, 0.05, 0.4), (jump, JUMP_EPSILON, JUMP_ALPHA, 0.4)):
        for quality in (QualitySpec.peak(0.3), QualitySpec.linear(1.0), QualitySpec.linear(-1.0)):
            yield q, SelectionParams.for_game(q, zeta=zeta, epsilon=epsilon, alpha=alpha,
                                              beta=0.05, quality=quality)


def test_select_ledger_is_its_table_on_every_exit(monkeypatch):
    branches = set()
    for q, prm in select_cases():
        table = onedim._stages(onedim._SELECT_STAGES, prm.epsilon, prm.alpha, prm.gamma)
        for src in SOURCES[:4]:
            res = select_equilibrium(q, prm, src)
            # all four stages are charged, the walk whether or not it ran
            assert res.ledger.entries == charges(table)
            branches.add(res.branch)
    assert branches == {"optimistic", "pessimistic", "walk", None}
    # no straddle hit: the walk is a scan of no queries, charged all the same
    miss(monkeypatch, "straddle-scan")
    q, prm = next(select_cases())
    res = select_equilibrium(q, prm, NoiseSource(0))
    assert res.queries[2] == len(prm.grid) and res.queries[3] == 0
    table = onedim._stages(onedim._SELECT_STAGES, prm.epsilon, prm.alpha, prm.gamma)
    assert res.ledger.entries == charges(table)


def test_scalar_tables_split_epsilon_and_set_thresholds():
    q = QuasiAggregativeGame(crowd_averse_game(40, 0.5, 0.025))
    alpha, gamma = 0.05, q.gamma
    for table, thresholds in (
        (onedim._PSUMMNASH_STAGES, [4 * alpha, -4 * alpha, alpha + gamma / 2]),
        (onedim._SELECT_STAGES, [3 * alpha, 3 * alpha, -3 * alpha, alpha + gamma / 2]),
    ):
        stages = onedim._stages(table, 500.0, alpha, gamma)
        assert sum(stage.epsilon for stage in stages) == pytest.approx(500.0)
        assert sum(stage.delta for stage in stages) == 0.0
        assert [stage.threshold for stage in stages] == thresholds
        assert {stage.sensitivity for stage in stages} == {gamma}
    # the accuracy floors count the tables' rows
    assert psummnash_accuracy_floor(q, 500.0, 0.05) == onedim._accuracy_floor(q, 500.0, 0.05, 3)


# ---------------------------------------------------------------------------
# presl and distmw
# ---------------------------------------------------------------------------


def presl_case(W=50.0, epsilon=60.0):
    game = wide_game(W)
    return game, PreslParams.for_game(game, zeta=1.0, epsilon=epsilon, delta=0.05, beta=0.3)


def test_presl_ledger_is_its_table_on_every_exit(monkeypatch):
    game, prm = presl_case()
    table = presl_mod._presl_stages(prm)
    assert sum(stage.epsilon for stage in table) == pytest.approx(2 * prm.epsilon)
    assert sum(stage.delta for stage in table) == pytest.approx(prm.delta)
    assert table[0].threshold == prm.alpha + prm.e1
    for src in SOURCES[:2]:
        assert presl(game, prm, src).ledger.entries == charges(table)
    miss(monkeypatch, "grid-scan")
    res = presl(game, prm, NoiseSource(0))
    assert res.aborted and res.ledger.entries == charges(table[:1])


def test_distmw_ledger_is_its_table_once_per_round():
    game = to_aggregative(generate("market", 50, n=200, d=1))
    lp = build_slack_lp(game, np.zeros(1), None, 2.0, 0.2)
    prm = DistMWParams.for_game(game, epsilon=5.0, delta=0.05, alpha=0.5, beta=0.1)
    (select,) = lp_core._distmw_stages(prm)
    assert (select.sensitivity, select.epsilon) == (game.gamma, prm.eps0)
    # eps0 is the per-round share of epsilon under advanced composition
    assert prm.eps0 * 2 * math.sqrt(2 * prm.T * math.log(1 / prm.delta)) == pytest.approx(5.0)
    for src in SOURCES[:2]:
        assert distmw_solve(lp, prm, src).ledger.entries == charges([select]) * prm.T


def test_stage_streams_are_distinct_and_apart_from_the_solver_streams():
    game, prm = presl_case()
    q = QuasiAggregativeGame(crowd_averse_game(40, 0.5, 0.025))
    tables = [
        onedim._stages(onedim._PSUMMNASH_STAGES, 1.0, 0.05, q.gamma),
        onedim._stages(onedim._SELECT_STAGES, 1.0, 0.05, q.gamma),
        presl_mod._presl_stages(prm),
    ]
    for table in tables:
        streams = [stage.stream for stage in table]
        assert len(set(streams)) == len(streams)
        # a scan's stream is its own: the dynamics draw "mw", sampling "sample"
        scans = [stage.stream for stage in table if stage.threshold is not None]
        assert not {"mw", "sample"} & set(scans)
    # presl hands its dynamics stage's stream to distmw
    assert presl_mod._presl_stages(prm)[1].stream == "mw"


@pytest.mark.parametrize("W, epsilon, shift, want", [
    (20.0, 150.0, 0.0, 17), (50.0, 60.0, 0.0, 23), (50.0, 60.0, 100.0, None),
], ids=["hit-at-17", "hit-at-23", "miss"])
def test_presl_blocked_scan_equals_the_one_query_loop(W, epsilon, shift, want, monkeypatch):
    game, prm = presl_case(W, epsilon)

    def lp(*args):  # exact_lp_min, every value raised by shift
        res = exact_lp_min(*args)
        return dataclasses.replace(res, value=res.value + shift) if shift else res

    asked = []  # every value the blocked scan computed, in query order

    def recorded(*args):
        res = lp(*args)
        asked.extend(np.atleast_1d(res.value).tolist())
        return res

    monkeypatch.setattr(presl_mod, "exact_lp_min", recorded)
    total = prm.y_count * prm.x_count_per_axis**prm.d
    for src in SOURCES:
        asked.clear()
        res = presl(game, prm, src)
        hit, count, values = reference_presl_scan(game, prm, src, lp)
        assert (res.hit_index, res.queries_asked) == (hit, count)
        assert asked[:count] == values
        # the blocked scan computes no value past the hit's block
        assert len(asked) == min(total, max(16, 2 ** math.ceil(math.log2(count))))
    assert hit == want
