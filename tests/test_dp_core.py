"""Noise primitives: frozen example values, lifecycle rules, distributions."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privagg import dp_core
from privagg.dp_core import (
    UNIFORM_BLOCK,
    NoiseSource,
    ParameterError,
    PrivacyLedger,
    SparseAnswer,
    SparseSession,
    Stage,
    StateError,
    check_certificate,
    check_finite,
    check_range,
    exponential_mechanism,
    laplace_samples,
)
from privagg.harness import generate
from privagg.lp_core import exact_lp_min, mw_accuracy_bound
from privagg.market import corollary_eta, market_zeta
from privagg.onedim import PSummResult, SelectResult
from privagg.presl import PreslResult, existence_bound, presl_e1, sampling_deviation_bound

from conftest import (
    compose_adaptive, laplace_sample, reference_exponential_mechanism, sparse_accuracy_bound,
    total_simple,
)


class FixedUniform:
    """Stand-in source that returns scripted uniform draws."""

    def __init__(self, values):
        self.values = list(values)
        self.noise_off = False

    def uniform(self):
        return self.values.pop(0)

    def uniforms(self, k):
        return np.array([self.uniform() for _ in range(k)])


def test_laplace_inverse_cdf_frozen_values():
    # median of the symmetric distribution
    assert laplace_samples(1.0, FixedUniform([0.5]), 1)[0] == 0.0
    # u = 0.75, b = 1: -ln(0.5)
    assert laplace_samples(1.0, FixedUniform([0.75]), 1)[0] == pytest.approx(
        0.6931471805599453, abs=0
    )
    # scale multiplies linearly
    assert laplace_samples(2.0, FixedUniform([0.75]), 1)[0] == pytest.approx(
        2.0 * 0.6931471805599453, abs=0
    )


def test_laplace_noise_off_is_exactly_zero():
    src = NoiseSource(7, NoiseSource.NOISE_OFF)
    for b in (1e-12, 1.0, 1e9):
        assert laplace_samples(b, src, 1)[0] == 0.0
    # the scale is admitted as in noisy mode, though no draw happens
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            laplace_samples(bad, src, 1)


def test_laplace_rejects_bad_scale_when_noisy():
    src = NoiseSource(7)
    with pytest.raises(ParameterError):
        laplace_samples(0.0, src, 1)
    with pytest.raises(ParameterError):
        laplace_samples(-1.0, src, 1)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_laplace_transform_is_antisymmetric(u):
    lo = laplace_samples(1.0, FixedUniform([u]), 1)[0]
    hi = laplace_samples(1.0, FixedUniform([1.0 - u]), 1)[0]
    # 1 - u is not exact in floats, so allow a relative slack
    assert lo == pytest.approx(-hi, rel=1e-7, abs=1e-9)


def test_laplace_moments_match_distribution():
    src = NoiseSource(123)
    draws = np.array([laplace_samples(2.0, src, 1)[0] for _ in range(20000)])
    # mean 0, mean absolute deviation b
    assert abs(draws.mean()) < 0.1
    assert np.abs(draws).mean() == pytest.approx(2.0, abs=0.1)


def test_noise_source_determinism_and_children():
    a = NoiseSource(42)
    b = NoiseSource(42)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    # children derive deterministically from (seed, label) only
    assert NoiseSource(42).child("x").uniform() == NoiseSource(42).child("x").uniform()
    assert NoiseSource(42).child("x").seed != NoiseSource(42).child("y").seed
    # labels may be ints, strings, or structured tuples
    kinds = [NoiseSource(1).child(lbl).seed for lbl in (3, "3", ("trial", 3))]
    assert len(set(kinds)) == 3
    # drawing from the parent does not disturb child derivation
    c = NoiseSource(42)
    c.uniform()
    assert c.child("x").seed == NoiseSource(42).child("x").seed


def test_noise_source_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        NoiseSource(0, "quiet")


def test_uniform_stays_inside_open_interval():
    src = NoiseSource(5)
    draws = [src.uniform() for _ in range(1000)]
    assert all(0.0 < u < 1.0 for u in draws)


def loop_child_uniforms(src, n):
    """The reference: one child stream per player, one draw each."""
    return np.array([src.child(i).uniform() for i in range(n)], dtype=float)


# 2^64 - 1 and the negative seeds wrap through the 64-bit mask child applies;
# 2^32 - 1 / 2^32 move the seed from one entropy word to two
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**63), -987654321]
RANDOM_SEEDS = [
    int(s) for s in np.random.Generator(np.random.PCG64(2718)).integers(
        0, 2**64, size=24, dtype=np.uint64
    )
]


@pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
def test_child_uniforms_match_the_per_child_streams(seed):
    for mode in (NoiseSource.NOISY, NoiseSource.NOISE_OFF):
        src = NoiseSource(seed, mode)
        ref = loop_child_uniforms(src, 40)
        for n in (0, 1, 40):
            got = src.child_uniforms(n)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == ref[:n].tobytes()


@pytest.mark.parametrize("seed", [2**64 - 1, -5, 841])
def test_child_uniforms_across_block_edges(seed):
    src = NoiseSource(seed)
    longest = 3 * UNIFORM_BLOCK + 5
    ref = loop_child_uniforms(src, longest)
    for n in (UNIFORM_BLOCK - 1, UNIFORM_BLOCK, UNIFORM_BLOCK + 1, longest):
        assert src.child_uniforms(n).tobytes() == ref[:n].tobytes()


def test_child_uniforms_redraw_an_exact_zero(monkeypatch):
    # a kernel draw of exactly 0.0 (odds 2^-53) is redrawn through child(i),
    # whose own uniform() skips the zero
    kernel = dp_core._child_uniform_block

    def zero_every_third(pool, h, labels):
        out = kernel(pool, h, labels)
        out[labels % 3 == 0] = 0.0
        return out

    monkeypatch.setattr(dp_core, "_child_uniform_block", zero_every_third)
    src = NoiseSource(17)
    got = src.child_uniforms(10)
    assert np.all(got > 0.0)
    assert got.tobytes() == loop_child_uniforms(src, 10).tobytes()


def test_child_uniforms_refuses_labels_past_one_word():
    # label 2^32 takes two SeedSequence words, which the kernel does not model
    src = NoiseSource(3)
    for n in (-1, 2**32, 2**40):
        with pytest.raises(ParameterError):
            src.child_uniforms(n)


# ---------------------------------------------------------------------------
# sparse vector
# ---------------------------------------------------------------------------


def test_sparse_noise_off_stream_and_halt():
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    sess = SparseSession(sensitivity=1.0, threshold=2.0, epsilon=0.5, src=src)
    assert not sess.answer(5.0).below
    assert not sess.halted
    assert sess.answer(1.0).below
    assert sess.halted
    with pytest.raises(StateError):
        sess.answer(7.0)


def test_no_noisy_value_is_released():
    # releasing the compared noisy query with a below answer is not private
    # at any budget (Lyu, Su & Li 2017, Alg. 3): neither the answer nor any
    # solver result carries it
    assert [f.name for f in dataclasses.fields(SparseAnswer)] == ["below"]
    for cls in (PreslResult, PSummResult, SelectResult):
        assert not [f.name for f in dataclasses.fields(cls) if "noisy" in f.name]


def test_sparse_threshold_comparison_is_inclusive():
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    sess = SparseSession(1.0, 3.0, 1.0, src)
    assert sess.answer(3.0).below


def test_sparse_constructor_validation():
    for mode in (NoiseSource.NOISY, NoiseSource.NOISE_OFF):
        src = NoiseSource(0, mode)
        # a noiseless session would answer from the data alone
        for sensitivity in (-1.0, 0.0, math.nan):
            with pytest.raises(ParameterError):
                SparseSession(sensitivity, 0.0, 1.0, src)
        with pytest.raises(ParameterError):
            SparseSession(1.0, 0.0, 0.0, src)


def scan_stage(sensitivity=1.0, epsilon=1.0, threshold=0.0):
    """A sparse stage on the child stream "scan"."""
    return Stage("scan", "scan", sensitivity, epsilon, threshold=threshold)


def scan_values(values, src, stage=None, asked=None):
    """``PrivacyLedger.scan`` over an array of query values; each block's
    (lo, hi) is appended to ``asked`` when given."""
    values = np.asarray(values, dtype=float)

    def query(lo, hi):
        if asked is not None:
            asked.append((lo, hi))
        return values[lo:hi]

    return PrivacyLedger().scan(stage or scan_stage(), src, query, len(values))


def answer_blocks(session, blocks):
    """A session asked the given blocks in order until its first below
    answer: (position, asked), or (None, asked) after a miss."""
    for block in blocks:
        if session.answer(block).below:
            return session.asked - 1, session.asked
    return None, session.asked


def test_ledger_scan_charges_the_stage_it_scans():
    ledger = PrivacyLedger()
    stage = Stage("grid", "own", 1.0, 0.25, threshold=0.5)
    for seed in range(20):
        hit = ledger.scan(stage, NoiseSource(seed), lambda lo, hi: np.full(hi - lo, 0.7), 1)
        # the session runs on the stage's own child stream
        ref = SparseSession(1.0, 0.5, 0.25, NoiseSource(seed).child("own"))
        assert hit == ((0, 1) if ref.answer(0.7).below else (None, 1))
    assert ledger.entries == [("grid", 0.25, 0.0)] * 20
    # a session refused at construction is not charged
    refused = Stage("refused", "own", 1.0, 0.0, threshold=0.5)
    with pytest.raises(ParameterError):
        ledger.scan(refused, NoiseSource(3), lambda lo, hi: np.zeros(hi - lo), 1)
    # a scan of no queries is charged and asks nothing
    assert ledger.scan(stage, NoiseSource(3), None, 0) == (None, 0)
    # a stage that runs no scan is charged its epsilon and delta
    ledger.charge(Stage("dynamics", "mw", 1.0, 0.5, 0.01))
    assert ledger.entries[20:] == [("grid", 0.25, 0.0), ("dynamics", 0.5, 0.01)]


def test_sparse_below_rate_at_threshold_is_half():
    # query exactly at T: below iff Lap_query - Lap_threshold <= 0, a
    # symmetric event, so the empirical rate must sit near 1/2
    root = NoiseSource(2024)
    hits = 0
    trials = 10000
    for t in range(trials):
        sess = SparseSession(1.0, 0.0, 1.0, root.child(t))
        if sess.answer(0.0).below:
            hits += 1
    assert abs(hits / trials - 0.5) < 0.02


def test_first_below_returns_the_first_hit():
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    items = ["a", "b", "c", "d"]
    values = {"a": 2.0, "b": 1.0, "c": -1.0, "d": -5.0}
    hit, asked = scan_values([values[x] for x in items], src)
    assert (items[hit], asked) == ("c", 3)


def test_first_below_miss_asks_every_query():
    # every query in the ledger's doubling schedule: 16, then as many as
    # all before, cut at the total
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    for total, blocks in [(4, [(0, 4)]), (16, [(0, 16)]), (40, [(0, 16), (16, 32), (32, 40)]),
                          (64, [(0, 16), (16, 32), (32, 64)])]:
        asked = []
        assert scan_values(np.linspace(3.0, 0.5, total), src, asked=asked) == (None, total)
        assert asked == blocks


def test_first_below_is_lazy():
    # the query raises if asked past the hit's block, and records every
    # block it builds: an eager scan trips either check
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    values = np.full(100, 4.0)
    values[20] = -1.0
    asked = []

    def query(lo, hi):
        assert lo < 32, "advanced past the hit"
        asked.append((lo, hi))
        return values[lo:hi]

    assert PrivacyLedger().scan(scan_stage(), src, query, len(values)) == (20, 21)
    assert asked == [(0, 16), (16, 32)]


def test_first_below_matches_a_hand_loop_under_noise():
    root = NoiseSource(77)
    values = np.linspace(3.0, -3.0, 25)
    stage = scan_stage(epsilon=2.0)
    for t in range(50):
        hit = scan_values(values, root.child(t), stage)
        ref = SparseSession(1.0, 0.0, 2.0, root.child(t).child("scan"))
        for j, v in enumerate(values):
            if ref.answer(v).below:
                assert hit == (j, j + 1)
                break
        else:
            assert hit == (None, len(values))


class ScriptedGenerator:
    """Stand-in for a NoiseSource's generator: ``random()`` and
    ``random(k)`` return the scripted raw draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, k=None):
        if k is None:
            return self.draws.pop(0)
        out, self.draws = self.draws[:k], self.draws[k:]
        return np.array(out)


def test_uniforms_skip_exact_zeros_in_stream_order():
    script = [0.0, 0.25, 0.0, 0.0, 0.5, 0.125, 0.0, 0.75, 0.375]
    one, block = NoiseSource(0), NoiseSource(0)
    one._gen, block._gen = ScriptedGenerator(script), ScriptedGenerator(script)
    want = [one.uniform() for _ in range(5)]
    assert want == [0.25, 0.5, 0.125, 0.75, 0.375]
    assert block.uniforms(5).tolist() == want
    assert one._gen.draws == block._gen.draws == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(0, 300), b=st.floats(1e-6, 1e3))
def test_block_noise_is_consecutive_scalar_draws(seed, k, b):
    ref = NoiseSource(seed)
    assert NoiseSource(seed).uniforms(k).tolist() == [ref.uniform() for _ in range(k)]
    one, block = NoiseSource(seed), NoiseSource(seed)
    want = np.array([laplace_sample(b, one) for _ in range(k)])
    got = laplace_samples(b, block, k)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert block.uniform() == one.uniform()  # both consumed exactly k uniforms
    off = NoiseSource(seed, NoiseSource.NOISE_OFF)
    assert laplace_samples(b, off, k).tolist() == [0.0] * k
    assert off.uniform() == NoiseSource(seed).uniform()  # noise_off draws nothing


def hand_scan(sensitivity, threshold, epsilon, src, values):
    """AboveThreshold one query at a time, from scalar Laplace draws:
    (hit position or None, queries asked)."""
    scale = 2.0 * sensitivity / epsilon
    noisy_threshold = threshold + laplace_sample(scale, src)
    for j, v in enumerate(values):
        if v + laplace_sample(scale, src) <= noisy_threshold:
            return j, j + 1
    return None, len(values)


@st.composite
def block_scans(draw):
    """Query values near the threshold 0, cut into random blocks."""
    values = draw(st.lists(st.floats(-2.0, 4.0), min_size=0, max_size=60))
    cuts = sorted(set(draw(st.lists(st.integers(0, len(values)), max_size=8))))
    cuts = [0] + [c for c in cuts if 0 < c < len(values)] + [len(values)]
    blocks = [np.array(values[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    mode = draw(st.sampled_from([NoiseSource.NOISY, NoiseSource.NOISE_OFF]))
    sensitivity = draw(st.sampled_from([0.3, 1.0]))
    return values, blocks, mode, sensitivity, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(case=block_scans())
def test_block_scan_matches_the_one_at_a_time_loop(case):
    values, blocks, mode, sensitivity, seed = case
    ref_src, src = NoiseSource(seed, mode), NoiseSource(seed, mode)
    want = hand_scan(sensitivity, 0.0, 1.0, ref_src, values)
    sess = SparseSession(sensitivity, 0.0, 1.0, src)
    assert answer_blocks(sess, blocks) == want
    assert sess.asked == want[1]
    assert sess.halted == (want[0] is not None)
    # the ledger's doubling blocks, on the stage's child stream
    ref = NoiseSource(seed, mode).child("scan")
    got = scan_values(values, NoiseSource(seed, mode), scan_stage(sensitivity))
    assert got == hand_scan(sensitivity, 0.0, 1.0, ref, values)


def test_block_scan_hits_mid_block_last_entry_and_misses():
    src = NoiseSource(5, NoiseSource.NOISE_OFF)
    mid = SparseSession(1.0, 0.0, 1.0, src)
    assert mid.answer([3.0, -1.0, -2.0, 5.0]).below
    assert mid.asked == 2
    with pytest.raises(StateError):  # halted partway through its block
        mid.answer([-1.0])
    last = SparseSession(1.0, 0.0, 1.0, src)
    assert answer_blocks(last, ([1.0, 2.0], [3.0, 0.0])) == (3, 4)
    miss = SparseSession(1.0, 0.0, 1.0, src)
    assert answer_blocks(miss, ([1.0, 2.0], [], [3.0])) == (None, 3)
    assert not miss.halted
    # under noise, a hit on a block's last entry
    for seed in range(20):
        ref, src = NoiseSource(seed), NoiseSource(seed)
        want = hand_scan(1.0, 0.0, 1.0, ref.child("scan"), [50.0] * 15 + [-50.0])
        assert scan_values([50.0] * 15 + [-50.0], src) == want == (15, 16)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("mode", [NoiseSource.NOISY, NoiseSource.NOISE_OFF])
def test_non_finite_queries_are_refused_before_any_draw(bad, mode):
    # NaN would answer Above and -inf Below: a broken query must not end or
    # pass a scan silently
    for block in ([bad], [1.0, 2.0, bad, -5.0], [-5.0, bad]):
        src, ref = NoiseSource(3, mode), NoiseSource(3, mode)
        sess = SparseSession(1.0, 0.0, 1.0, src)
        SparseSession(1.0, 0.0, 1.0, ref)  # the same threshold draw
        with pytest.raises(ParameterError):
            sess.answer(block)
        assert src.uniform() == ref.uniform()  # the refused block drew nothing
        assert (sess.asked, sess.halted) == (0, False)
        with pytest.raises(ParameterError):
            scan_values([3.0, *block], NoiseSource(3, mode))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_budgets_are_rejected(bad):
    with pytest.raises(ParameterError):
        check_finite(epsilon=bad)
    check_finite(epsilon=1.0, delta=0.0)
    src = NoiseSource(0)
    with pytest.raises(ParameterError):
        SparseSession(1.0, 0.0, bad, src)
    with pytest.raises(ParameterError):
        SparseSession(bad, 0.0, 1.0, src)
    with pytest.raises(ParameterError):
        laplace_samples(bad, src, 1)
    with pytest.raises(ParameterError):
        exponential_mechanism([0.0, 1.0], 1.0, bad, src)
    with pytest.raises(ParameterError):  # a NaN sensitivity once passed <= 0 unnoticed
        exponential_mechanism([0.0, 1.0], bad, 1.0, src)


@pytest.mark.parametrize("kind, value, message", [
    ("positive", 0.0, "^x must be positive, got 0.0$"),
    ("positive", -1e-300, "^x must be positive"),
    ("positive", math.nan, "^x must be finite, got nan$"),
    ("positive", math.inf, "^x must be finite, got inf$"),
    ("unit", 0.0, "^x must lie in \\(0, 1\\), got 0.0$"),
    ("unit", 1.0, "^x must lie in \\(0, 1\\)"),
    ("unit", math.nan, "^x must be finite"),
    ("nonnegative", -1e-300, "^x must be nonnegative"),
    ("nonnegative", -math.inf, "^x must be finite"),
])
def test_check_range_refuses_and_names_each_value_outside_its_range(kind, value, message):
    with pytest.raises(ParameterError, match=message):
        check_range(kind, ok=0.5, x=value)


def test_check_range_admits_the_edges_of_each_range():
    check_range("positive", epsilon=5e-324, alpha=1.7e308)
    check_range("unit", delta=5e-324, beta=1.0 - 2**-53)
    check_range("nonnegative", zeta=0.0, xi=-0.0, eta=1.7e308)


def test_check_certificate_names_its_remedy():
    check_certificate(1.7e308, "lower alpha")
    for bound in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="not finite; raise epsilon$"):
            check_certificate(bound, "raise epsilon")


_GAME = generate("linear", 0, n=4, m=2)

# each closed-form bound with admissible arguments; every real one is refused
# when NaN or infinite (an infinite epsilon or lambda once gave a bound of 0)
FORMULAS = {
    "existence_bound": (existence_bound, dict(n=10, m=2, gamma=0.1)),
    "sampling_deviation_bound": (sampling_deviation_bound, dict(n=10, gamma=0.1, k=2, beta=0.05)),
    "mw_accuracy_bound": (mw_accuracy_bound, dict(
        n=10, m=2, gamma=0.1, epsilon=1.0, delta=0.05, n_constraints=3, beta=0.1)),
    "presl_e1": (lambda **kw: presl_e1(_GAME, **kw), dict(epsilon=1.0, beta=0.05)),
    "corollary_eta": (corollary_eta, dict(n=10, lam=4.0, d=1)),
    "market_zeta": (market_zeta, dict(n=10, lam=4.0, d=1)),
    "exact_lp_min": (lambda **kw: exact_lp_min(_GAME, [0.0], None, 0.1, **kw).value,
                     dict(tol=0.01)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, key", [
    (name, key) for name, (_, kwargs) in FORMULAS.items() for key in kwargs
])
def test_every_bound_refuses_a_non_finite_argument(name, key, bad):
    formula, kwargs = FORMULAS[name]
    assert math.isfinite(formula(**kwargs))
    with pytest.raises(ParameterError, match=f"^{key} must be"):
        formula(**{**kwargs, key: bad})


@pytest.mark.parametrize("formula, kwargs, message", [
    (mw_accuracy_bound, dict(n=10, m=2, gamma=1e200, epsilon=1.0, delta=0.05,
                             n_constraints=3, beta=0.1), "gamma^2 leaves the float range"),
    (sampling_deviation_bound, dict(n=10, gamma=1e200, k=2, beta=0.1),
     "gamma^2 leaves the float range"),
    (FORMULAS["exact_lp_min"][0], dict(tol=1e200), "at tol = 1e+200"),
    (FORMULAS["exact_lp_min"][0], dict(tol=1e-200), "at tol = 1e-200"),  # tol^2 is 0
])
def test_squares_past_the_float_range_are_refused(formula, kwargs, message):
    # each once ended in an OverflowError (or ZeroDivisionError) traceback
    with pytest.raises(ParameterError, match=re.escape(message)):
        formula(**kwargs)


def test_squared_bounds_keep_their_operation_order():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(200):
        n, gamma, eps, delta, beta = 10, *rng.uniform(1e-3, 10.0, 2), *rng.uniform(0.01, 0.9, 2)
        inner = ((n * gamma**2 / eps) * math.log(3 / beta) * math.log(n)
                 * math.sqrt(math.log(2) * math.log(1.0 / delta)))
        assert mw_accuracy_bound(n, 2, gamma, eps, delta, 3, beta) == 100.0 * math.sqrt(inner)
        assert sampling_deviation_bound(n, gamma, 2, beta) == math.sqrt(
            n * gamma**2 / 2.0 * math.log(2 / beta))


def test_sparse_accuracy_bound_frozen_value():
    val = sparse_accuracy_bound(100, 1, 0.01, 0.1, 0.05)
    assert val == pytest.approx(3.3176198560408108, rel=1e-15)
    # doubling c more than doubles the bound (extra log term)
    assert sparse_accuracy_bound(100, 2, 0.01, 0.1, 0.05) > 2 * val


def test_sparse_accuracy_bound_validation():
    with pytest.raises(ParameterError):
        sparse_accuracy_bound(0, 1, 0.01, 0.1, 0.05)
    with pytest.raises(ParameterError):
        sparse_accuracy_bound(100, 1, 0.01, 0.1, 1.5)
    with pytest.raises(ParameterError):
        sparse_accuracy_bound(100, 1, 0.01, 0.0, 0.05)


# ---------------------------------------------------------------------------
# exponential mechanism
# ---------------------------------------------------------------------------


def test_exp_mechanism_noise_off_lowest_index_argmax():
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    assert exponential_mechanism([3.0, 7.0, 7.0], 1.0, 2.0, src) == 1


def test_exp_mechanism_equal_scores_split_evenly():
    src = NoiseSource(99)
    draws = sum(exponential_mechanism([0.4, 0.4], 1.0, 2.0, src) for _ in range(100000))
    assert abs(draws / 100000 - 0.5) < 0.01


def test_exp_mechanism_probability_ratio():
    # scores {0, 1}, sensitivity 1, eps 2: P(high)/P(low) = e
    src = NoiseSource(7)
    n = 100000
    high = sum(exponential_mechanism([0.0, 1.0], 1.0, 2.0, src) for _ in range(n))
    ratio = high / (n - high)
    assert ratio == pytest.approx(math.e, rel=0.03)


def test_exp_mechanism_survives_huge_scores():
    out = exponential_mechanism([1e6, 1e6 - 1.0], 1.0, 2.0, NoiseSource(3))
    assert out in (0, 1)


def test_exp_mechanism_shifts_before_it_scales():
    # scaled first, 1.5e305 * eps / (2 Delta) = 7.5e308 overflowed; shifted
    # first, only the gap -3e305 * 5e3 does, to a logit of -inf and weight 0
    scores = np.array([1.5e305, -1.5e305, 1.4e305])
    assert exponential_mechanism(scores, 1e-4, 1.0, NoiseSource(0)) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exp_mechanism_refuses_non_finite_scores(bad):
    # a NaN score once gave a silent draw
    for src in (NoiseSource(0), NoiseSource(0, NoiseSource.NOISE_OFF)):
        with pytest.raises(ParameterError, match="scores must be finite"):
            exponential_mechanism([0.0, bad, 1.0], 1.0, 1.0, src)


def test_exp_mechanism_refuses_an_infinite_score_scale():
    with pytest.raises(ParameterError, match="score_scale must be finite"):
        exponential_mechanism([0.0, 1.0], 1e-300, 1e300, NoiseSource(0))


def test_exp_mechanism_validation():
    with pytest.raises(ParameterError):
        exponential_mechanism([], 1.0, 1.0, NoiseSource(0))
    with pytest.raises(ParameterError):
        exponential_mechanism([[1.0, 2.0]], 1.0, 1.0, NoiseSource(0))
    with pytest.raises(ParameterError):
        exponential_mechanism([1.0], 0.0, 1.0, NoiseSource(0))
    with pytest.raises(ParameterError):
        exponential_mechanism([1.0], 1.0, 0.0, NoiseSource(0))


def random_scores(rng, case):
    """A 1- to 12-score vector: plain, with ties and signed zeros, or with a
    span whose shift or scaling leaves the float range."""
    k = int(rng.integers(1, 13))
    if case == "plain":
        return rng.uniform(-1.0, 1.0, size=k) * 10.0 ** rng.integers(-3, 4)
    if case == "ties":
        pool = np.array([0.0, -0.0, 0.25, -0.25, 1.0])
        return rng.choice(pool, size=k)
    return rng.choice([1.7e308, -1.7e308, 1e300, -1e305, 0.0, -0.0, 3.0], size=k)


@pytest.mark.parametrize("mode", [NoiseSource.NOISY, NoiseSource.NOISE_OFF])
@pytest.mark.parametrize("case", ["plain", "ties", "overflow"])
def test_exp_mechanism_matches_the_numpy_reference(case, mode):
    # the same index and the same stream position as checks made with numpy
    # reductions under np.errstate, and no overflow warning on the way
    rng = np.random.Generator(np.random.PCG64(["plain", "ties", "overflow"].index(case)))
    ours, theirs = NoiseSource(31, mode), NoiseSource(31, mode)
    for _ in range(300):
        scores = random_scores(rng, case)
        sensitivity = float(10.0 ** rng.uniform(-6.0, 2.0))
        epsilon = float(10.0 ** rng.uniform(-2.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exponential_mechanism(scores, sensitivity, epsilon, ours)
        assert got == reference_exponential_mechanism(scores, sensitivity, epsilon, theirs)
        assert ours._gen.bit_generator.state == theirs._gen.bit_generator.state


@pytest.mark.parametrize("scores", [[0.0, math.nan], [math.inf, 1.0], [], [[1.0]]])
def test_exp_mechanism_refuses_what_the_reference_refuses(scores):
    for mode in (NoiseSource.NOISY, NoiseSource.NOISE_OFF):
        with pytest.raises(ParameterError) as ref:
            reference_exponential_mechanism(scores, 1.0, 1.0, NoiseSource(0, mode))
        with pytest.raises(ParameterError, match=re.escape(str(ref.value))):
            exponential_mechanism(scores, 1.0, 1.0, NoiseSource(0, mode))


def test_exp_mechanism_frozen_draws():
    """Twenty seeded noisy draws, pinned: any change to the mechanism's
    arithmetic or its use of the uniform stream shows up here."""
    scores = np.random.Generator(np.random.PCG64(1313)).uniform(-1.0, 1.0, size=7)
    src = NoiseSource(2024)
    draws = [exponential_mechanism(scores, 0.5, 3.0, src) for _ in range(20)]
    assert draws == [4, 3, 3, 5, 6, 3, 2, 3, 3, 3, 4, 4, 2, 4, 0, 3, 6, 5, 4, 3]


# ---------------------------------------------------------------------------
# composition accounting
# ---------------------------------------------------------------------------


def charge(ledger, label, epsilon, delta=0.0):
    ledger.charge(Stage(label, label, 1.0, epsilon, delta))


def test_compose_adaptive_frozen_single_entry():
    ledger = PrivacyLedger()
    charge(ledger, "only", 0.1)
    eps, delta = compose_adaptive(ledger, 0.01)
    assert eps == pytest.approx(0.3140025176845941, rel=1e-15)
    assert delta == pytest.approx(0.01)


def test_compose_adaptive_zero_budget_stays_zero():
    ledger = PrivacyLedger()
    for _ in range(10):
        charge(ledger, "noop", 0.0)
    eps, delta = compose_adaptive(ledger, 0.2)
    assert eps == 0.0
    assert delta == pytest.approx(0.2)


def test_compose_heterogeneous_falls_back_to_sums():
    ledger = PrivacyLedger()
    charge(ledger, "a", 0.1)
    charge(ledger, "b", 0.2)
    eps, delta = compose_adaptive(ledger, 0.01)
    assert eps == pytest.approx(0.3)
    assert delta == 0.0
    assert total_simple(ledger) == (eps, 0.0)


def test_compose_empty_and_validation():
    assert compose_adaptive(PrivacyLedger(), 0.05) == (0.0, 0.05)
    with pytest.raises(ParameterError):
        compose_adaptive(PrivacyLedger(), 0.0)
    bad = PrivacyLedger()
    with pytest.raises(ParameterError):
        charge(bad, "neg", -0.1)


@pytest.mark.parametrize("epsilon, delta", [
    (math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (math.inf, math.nan), (0.1, math.inf),
])
def test_ledger_refuses_non_finite_charges(epsilon, delta):
    # NaN passed the nonnegativity test and was recorded as a charge
    ledger = PrivacyLedger()
    charge(ledger, "ok", 0.1)
    with pytest.raises(ParameterError):
        charge(ledger, "bad", epsilon, delta)
    assert ledger.entries == [("ok", 0.1, 0.0)]


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=50), st.floats(min_value=0.001, max_value=0.5))
def test_compose_adaptive_grows_with_rounds(extra, eps):
    base = PrivacyLedger()
    charge(base, "x", eps)
    bigger = PrivacyLedger()
    for _ in range(1 + extra):
        charge(bigger, "x", eps)
    small, _ = compose_adaptive(base, 0.01)
    large, _ = compose_adaptive(bigger, 0.01)
    assert large > small
