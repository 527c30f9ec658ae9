"""Noise primitives: frozen example values, lifecycle rules, distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privagg.dp_core import (
    NoiseSource,
    ParameterError,
    PrivacyLedger,
    ScoredOutcomeSet,
    SparseSession,
    StateError,
    check_finite,
    compose_adaptive,
    exp_mechanism_accuracy_bound,
    exponential_mechanism,
    first_below,
    laplace_sample,
    sparse_accuracy_bound,
)


class FixedUniform:
    """Stand-in source that returns scripted uniform draws."""

    def __init__(self, values):
        self.values = list(values)
        self.noise_off = False

    def uniform(self):
        return self.values.pop(0)


def test_laplace_inverse_cdf_frozen_values():
    # median of the symmetric distribution
    assert laplace_sample(1.0, FixedUniform([0.5])) == 0.0
    # u = 0.75, b = 1: -ln(0.5)
    assert laplace_sample(1.0, FixedUniform([0.75])) == pytest.approx(
        0.6931471805599453, abs=0
    )
    # scale multiplies linearly
    assert laplace_sample(2.0, FixedUniform([0.75])) == pytest.approx(
        2.0 * 0.6931471805599453, abs=0
    )


def test_laplace_noise_off_is_exactly_zero():
    src = NoiseSource(7, NoiseSource.NOISE_OFF)
    for b in (1e-12, 1.0, 1e9):
        assert laplace_sample(b, src) == 0.0
    # even a nonsensical scale is permitted when no draw happens
    assert laplace_sample(0.0, src) == 0.0


def test_laplace_rejects_bad_scale_when_noisy():
    src = NoiseSource(7)
    with pytest.raises(ParameterError):
        laplace_sample(0.0, src)
    with pytest.raises(ParameterError):
        laplace_sample(-1.0, src)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_laplace_transform_is_antisymmetric(u):
    lo = laplace_sample(1.0, FixedUniform([u]))
    hi = laplace_sample(1.0, FixedUniform([1.0 - u]))
    # 1 - u is not exact in floats, so allow a relative slack
    assert lo == pytest.approx(-hi, rel=1e-7, abs=1e-9)


def test_laplace_moments_match_distribution():
    src = NoiseSource(123)
    draws = np.array([laplace_sample(2.0, src) for _ in range(20000)])
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


# ---------------------------------------------------------------------------
# sparse vector
# ---------------------------------------------------------------------------


def test_sparse_noise_off_stream_and_halt():
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    sess = SparseSession(sensitivity=1.0, threshold=2.0, budget=1, epsilon=0.5, src=src)
    first = sess.answer(5.0)
    assert not first.below and first.value is None
    second = sess.answer(1.0)
    assert second.below and second.value == 1.0
    assert sess.halted
    with pytest.raises(StateError):
        sess.answer(7.0)


def test_sparse_budget_two_allows_two_hits():
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    sess = SparseSession(1.0, 0.0, 2, 1.0, src)
    assert sess.answer(-1.0).below
    assert not sess.halted
    assert not sess.answer(1.0).below
    assert sess.answer(-2.0).below
    assert sess.halted


def test_sparse_threshold_comparison_is_inclusive():
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    sess = SparseSession(1.0, 3.0, 1, 1.0, src)
    assert sess.answer(3.0).below


def test_sparse_constructor_validation():
    src = NoiseSource(0)
    with pytest.raises(ParameterError):
        SparseSession(-1.0, 0.0, 1, 1.0, src)
    with pytest.raises(ParameterError):
        SparseSession(1.0, 0.0, 0, 1.0, src)
    with pytest.raises(ParameterError):
        SparseSession(1.0, 0.0, 1, 0.0, src)


def test_sparse_below_rate_at_threshold_is_half():
    # query exactly at T: below iff Lap_query - Lap_threshold <= 0, a
    # symmetric event, so the empirical rate must sit near 1/2
    root = NoiseSource(2024)
    hits = 0
    trials = 10000
    for t in range(trials):
        sess = SparseSession(1.0, 0.0, 1, 1.0, root.child(t))
        if sess.answer(0.0).below:
            hits += 1
    assert abs(hits / trials - 0.5) < 0.02


def test_first_below_returns_the_first_hit():
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    sess = SparseSession(1.0, 0.0, 1, 1.0, src)
    items = ["a", "b", "c", "d"]
    values = {"a": 2.0, "b": 1.0, "c": -1.0, "d": -5.0}
    item, answer, asked = first_below(sess, items, values.__getitem__)
    assert (item, answer.below, answer.value, asked) == ("c", True, -1.0, 3)
    assert sess.halted


def test_first_below_miss_asks_every_query():
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    sess = SparseSession(1.0, 0.0, 1, 1.0, src)
    asked_values = []

    def query(x):
        asked_values.append(x)
        return x

    items = [3.0, 1.0, 0.5, 2.0]
    assert first_below(sess, items, query) == (None, None, len(items))
    assert asked_values == items
    assert not sess.halted


def test_first_below_is_lazy():
    # the generator raises once advanced past the hit, and the query
    # records every call: an eager scan trips either check
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    sess = SparseSession(1.0, 0.0, 1, 1.0, src)
    queried = []

    def items():
        yield from (4.0, 3.0, -1.0)
        raise AssertionError("advanced past the hit")

    def query(x):
        queried.append(x)
        return x

    item, answer, asked = first_below(sess, items(), query)
    assert (item, asked) == (-1.0, 3)
    assert queried == [4.0, 3.0, -1.0]


def test_first_below_matches_a_hand_loop_under_noise():
    root = NoiseSource(77)
    values = np.linspace(3.0, -3.0, 25)
    for t in range(50):
        sess = SparseSession(1.0, 0.0, 1, 2.0, root.child(t))
        item, answer, asked = first_below(sess, range(len(values)), lambda i: values[i])
        ref = SparseSession(1.0, 0.0, 1, 2.0, root.child(t))
        for j, v in enumerate(values):
            ans = ref.answer(v)
            if ans.below:
                assert (item, answer.value, asked) == (j, ans.value, j + 1)
                break
        else:
            assert (item, answer, asked) == (None, None, len(values))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_budgets_are_rejected(bad):
    with pytest.raises(ParameterError):
        check_finite(epsilon=bad)
    check_finite(epsilon=1.0, delta=0.0)
    src = NoiseSource(0)
    with pytest.raises(ParameterError):
        SparseSession(1.0, 0.0, 1, bad, src)
    with pytest.raises(ParameterError):
        SparseSession(bad, 0.0, 1, 1.0, src)
    with pytest.raises(ParameterError):
        laplace_sample(bad, src)
    oset = ScoredOutcomeSet(["a", "b"], [0.0, 1.0], 1.0)
    with pytest.raises(ParameterError):
        exponential_mechanism(oset, bad, src)


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
    oset = ScoredOutcomeSet(["a", "b", "c"], [3.0, 7.0, 7.0], 1.0)
    src = NoiseSource(0, NoiseSource.NOISE_OFF)
    assert exponential_mechanism(oset, 2.0, src) == "b"


def test_exp_mechanism_equal_scores_split_evenly():
    oset = ScoredOutcomeSet([0, 1], [0.4, 0.4], 1.0)
    src = NoiseSource(99)
    draws = sum(exponential_mechanism(oset, 2.0, src) for _ in range(100000))
    assert abs(draws / 100000 - 0.5) < 0.01


def test_exp_mechanism_probability_ratio():
    # scores {0, 1}, sensitivity 1, eps 2: P(high)/P(low) = e
    oset = ScoredOutcomeSet([0, 1], [0.0, 1.0], 1.0)
    src = NoiseSource(7)
    n = 100000
    high = sum(exponential_mechanism(oset, 2.0, src) for _ in range(n))
    ratio = high / (n - high)
    assert ratio == pytest.approx(math.e, rel=0.03)


def test_exp_mechanism_survives_huge_scores():
    oset = ScoredOutcomeSet([0, 1], [1e6, 1e6 - 1.0], 1.0)
    out = exponential_mechanism(oset, 2.0, NoiseSource(3))
    assert out in (0, 1)


def test_scored_outcome_set_validation():
    with pytest.raises(ParameterError):
        ScoredOutcomeSet([], [], 1.0)
    with pytest.raises(ParameterError):
        ScoredOutcomeSet(["a"], [1.0, 2.0], 1.0)
    with pytest.raises(ParameterError):
        ScoredOutcomeSet(["a"], [1.0], 0.0)
    with pytest.raises(ParameterError):
        exponential_mechanism(ScoredOutcomeSet(["a"], [1.0], 1.0), 0.0, NoiseSource(0))


def test_exp_accuracy_bound_frozen_values():
    assert exp_mechanism_accuracy_bound(1, 1.0, 1.0, 1.0) == 0.0
    assert exp_mechanism_accuracy_bound(math.e, 1.0, 1.0, 1.0) == pytest.approx(2.0)
    assert exp_mechanism_accuracy_bound(100, 0.5, 2.0, 0.01) == pytest.approx(
        0.5 * math.log(1e4), rel=1e-15
    )
    with pytest.raises(ParameterError):
        exp_mechanism_accuracy_bound(0, 1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# composition accounting
# ---------------------------------------------------------------------------


def test_compose_adaptive_frozen_single_entry():
    ledger = PrivacyLedger()
    ledger.add("only", 0.1, 0.0)
    eps, delta = compose_adaptive(ledger, 0.01)
    assert eps == pytest.approx(0.3140025176845941, rel=1e-15)
    assert delta == pytest.approx(0.01)


def test_compose_adaptive_zero_budget_stays_zero():
    ledger = PrivacyLedger()
    for _ in range(10):
        ledger.add("noop", 0.0, 0.0)
    eps, delta = compose_adaptive(ledger, 0.2)
    assert eps == 0.0
    assert delta == pytest.approx(0.2)


def test_compose_heterogeneous_falls_back_to_sums():
    ledger = PrivacyLedger()
    ledger.add("a", 0.1, 0.0)
    ledger.add("b", 0.2, 0.0)
    eps, delta = compose_adaptive(ledger, 0.01)
    assert eps == pytest.approx(0.3)
    assert delta == 0.0
    assert ledger.total_simple() == (eps, 0.0)


def test_compose_empty_and_validation():
    assert compose_adaptive(PrivacyLedger(), 0.05) == (0.0, 0.05)
    with pytest.raises(ParameterError):
        compose_adaptive(PrivacyLedger(), 0.0)
    bad = PrivacyLedger()
    with pytest.raises(ParameterError):
        bad.add("neg", -0.1)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=50), st.floats(min_value=0.001, max_value=0.5))
def test_compose_adaptive_grows_with_rounds(extra, eps):
    base = PrivacyLedger()
    base.add("x", eps, 0.0)
    bigger = PrivacyLedger()
    for _ in range(1 + extra):
        bigger.add("x", eps, 0.0)
    small, _ = compose_adaptive(base, 0.01)
    large, _ = compose_adaptive(bigger, 0.01)
    assert large > small
