"""Differential-privacy primitives.

Laplace noise, the below-threshold sparse vector mechanism, the exponential
mechanism, and (eps, delta) composition accounting. Everything downstream that
touches player data goes through this module, so the noise semantics here are
deliberately boring: one seeded uniform stream per NoiseSource, inverse-CDF
Laplace sampling, and a noise_off mode that turns every mechanism into its
deterministic counterpart (Laplace draws become 0, the exponential mechanism
becomes a lowest-index argmax) without touching the uniform stream.

Every private scan in the solvers is ``first_below(session, items, query)``:
it streams query(item) through a one-shot SparseSession and stops at the first
below answer (AboveThreshold, Dwork & Roth 2014, Alg. 1). Items are pulled
lazily, so nothing past the hit is generated or evaluated.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "ParameterError",
    "StateError",
    "NoiseSource",
    "SparseSession",
    "SparseAnswer",
    "ScoredOutcomeSet",
    "PrivacyLedger",
    "check_finite",
    "laplace_sample",
    "first_below",
    "sparse_accuracy_bound",
    "exponential_mechanism",
    "exp_mechanism_accuracy_bound",
    "compose_adaptive",
]


class ParameterError(ValueError):
    """Raised when a mechanism is invoked with out-of-range parameters."""


class StateError(RuntimeError):
    """Raised when a stateful mechanism is driven past its lifecycle."""


def check_finite(**values: float) -> None:
    """Raise ParameterError unless every named value is finite: a NaN or inf
    budget passes every ``> 0`` test and would switch the noise off."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def _label_to_int(label) -> int:
    """Stable that-label-to-64-bit mapping for child stream derivation."""
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    data = repr(label).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


class NoiseSource:
    """Seeded randomness with an explicit noisy / noise_off mode.

    The uniform stream is a PCG64 generator; draws exclude the endpoints
    {0, 1} so log transforms stay finite. ``child(label)`` derives an
    independent stream deterministically from (seed, label), which is how
    per-player and per-trial randomness is split without any shared state.
    """

    NOISY = "noisy"
    NOISE_OFF = "noise_off"

    def __init__(self, seed: int, mode: str = NOISY):
        if mode not in (self.NOISY, self.NOISE_OFF):
            raise ParameterError(f"unknown noise mode {mode!r}")
        self.seed = int(seed)
        self.mode = mode
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed & 0xFFFFFFFFFFFFFFFF))
        )

    @property
    def noise_off(self) -> bool:
        return self.mode == self.NOISE_OFF

    def uniform(self) -> float:
        """One uniform draw in the open interval (0, 1)."""
        u = float(self._gen.random())
        while u == 0.0:
            u = float(self._gen.random())
        return u

    def child(self, label) -> "NoiseSource":
        """Derive an independent NoiseSource keyed by (seed, label)."""
        ss = np.random.SeedSequence(
            entropy=self.seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(_label_to_int(label),)
        )
        derived = int(ss.generate_state(1, dtype=np.uint64)[0])
        return NoiseSource(derived, self.mode)

    def __repr__(self) -> str:
        return f"NoiseSource(seed={self.seed}, mode={self.mode!r})"


def laplace_sample(b: float, src: NoiseSource) -> float:
    """Sample Lap(b) by inverse CDF on one uniform draw.

    x = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|) for u uniform in (0, 1).
    In noise_off mode returns exactly 0.0 (and b = 0 is then permitted).
    """
    if src.noise_off:
        return 0.0
    check_finite(scale=b)
    if b <= 0:
        raise ParameterError(f"Laplace scale must be positive, got {b}")
    u = src.uniform()
    return -b * math.copysign(1.0, u - 0.5) * math.log(1.0 - 2.0 * abs(u - 0.5))


@dataclass(frozen=True)
class SparseAnswer:
    """One streamed answer: below (with the noisy value) or above (bottom)."""

    below: bool
    value: Optional[float] = None

    def __str__(self) -> str:
        return f"Below({self.value})" if self.below else "Above"


class SparseSession:
    """Below-threshold sparse vector state.

    Adds Lap(2*c*gamma/eps) to each streamed query and compares against a
    noisy threshold T + Lap(2*gamma/eps) drawn once at construction. Below
    answers release the noisy value and count against the budget c; after c
    of them the session halts and further answers are a state error.
    """

    def __init__(
        self,
        sensitivity: float,
        threshold: float,
        budget: int,
        epsilon: float,
        src: NoiseSource,
    ):
        if sensitivity < 0:
            raise ParameterError("sensitivity must be >= 0")
        if budget < 1:
            raise ParameterError("budget c must be a positive integer")
        if epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        check_finite(sensitivity=sensitivity, threshold=threshold, epsilon=epsilon)
        self.sensitivity = float(sensitivity)
        self.threshold = float(threshold)
        self.budget = int(budget)
        self.epsilon = float(epsilon)
        self._src = src
        self.count = 0
        self.halted = False
        thr_scale = 2.0 * self.sensitivity / self.epsilon
        self.noisy_threshold = self.threshold + (
            laplace_sample(thr_scale, src) if (thr_scale > 0 and not src.noise_off) else 0.0
        )
        self.query_scale = 2.0 * self.budget * self.sensitivity / self.epsilon

    def answer(self, query_value: float) -> SparseAnswer:
        if self.halted:
            raise StateError("sparse session already halted (budget exhausted)")
        noise = 0.0
        if self.query_scale > 0 and not self._src.noise_off:
            noise = laplace_sample(self.query_scale, self._src)
        noisy = float(query_value) + noise
        if noisy <= self.noisy_threshold:
            self.count += 1
            if self.count >= self.budget:
                self.halted = True
            return SparseAnswer(below=True, value=noisy)
        return SparseAnswer(below=False)


def first_below(session: SparseSession, items: Iterable, query: Callable) -> tuple:
    """(item, answer, asked) at the first below answer to query(item), or
    (None, None, asked) after every item was asked without one."""
    asked = 0
    for asked, item in enumerate(items, 1):
        answer = session.answer(query(item))
        if answer.below:
            return item, answer, asked
    return None, None, asked


def sparse_accuracy_bound(
    n_queries: int, c: int, sensitivity: float, epsilon: float, beta: float
) -> float:
    """Accuracy alpha = 4*c*gamma*(ln N + ln(2c/beta))/eps of the sparse vector.

    With probability at least 1 - beta, every released answer is within alpha
    of its true query and every bottom answer has true value >= T - alpha,
    provided at most c queries fall below T + alpha.
    """
    if n_queries < 1 or c < 1:
        raise ParameterError("n_queries and c must be positive")
    if not (0 < beta < 1):
        raise ParameterError("beta must lie in (0, 1)")
    if epsilon <= 0 or sensitivity < 0:
        raise ParameterError("need epsilon > 0 and sensitivity >= 0")
    return 4.0 * c * sensitivity * (math.log(n_queries) + math.log(2.0 * c / beta)) / epsilon


@dataclass(frozen=True)
class ScoredOutcomeSet:
    """Candidate outcomes with scores and the score function's sensitivity."""

    outcomes: tuple
    scores: np.ndarray
    sensitivity: float

    def __init__(self, outcomes: Sequence, scores, sensitivity: float):
        outs = tuple(outcomes)
        sc = np.asarray(scores, dtype=float)
        if len(outs) == 0 or sc.shape != (len(outs),):
            raise ParameterError("outcomes and scores must be equal-length and nonempty")
        if sensitivity <= 0:
            raise ParameterError("score sensitivity must be positive")
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "scores", sc)
        object.__setattr__(self, "sensitivity", float(sensitivity))


def exponential_mechanism(oset: ScoredOutcomeSet, epsilon: float, src: NoiseSource):
    """Select one outcome with probability proportional to exp(eps*q / 2*Delta).

    Weights are computed through a log-sum-exp shift so large scores cannot
    overflow. noise_off returns the lowest-index argmax deterministically.
    """
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    check_finite(epsilon=epsilon)
    scores = oset.scores
    if src.noise_off:
        return oset.outcomes[int(np.argmax(scores))]
    logits = (epsilon / (2.0 * oset.sensitivity)) * scores
    logits = logits - np.max(logits)
    weights = np.exp(logits)
    cdf = np.cumsum(weights)
    u = src.uniform() * cdf[-1]
    idx = int(np.searchsorted(cdf, u, side="left"))
    idx = min(idx, len(oset.outcomes) - 1)
    return oset.outcomes[idx]


def exp_mechanism_accuracy_bound(
    n_outcomes: float, sensitivity: float, epsilon: float, beta: float
) -> float:
    """Utility bound 2*Delta*ln(|R|/beta)/eps of the exponential mechanism.

    n_outcomes is the number of outcomes |R| (accepted as a real so the bound
    can be evaluated at analytic values); with probability 1 - beta the
    selected score is within this bound of the maximum.
    """
    if n_outcomes < 1 or sensitivity <= 0 or epsilon <= 0:
        raise ParameterError("need |R| >= 1, sensitivity > 0, epsilon > 0")
    if not (0 < beta <= 1):
        raise ParameterError("beta must lie in (0, 1]")
    return 2.0 * sensitivity * math.log(n_outcomes / beta) / epsilon


@dataclass
class PrivacyLedger:
    """Running list of (label, eps, delta) charges. Accounting only."""

    entries: list = field(default_factory=list)

    def add(self, label: str, epsilon: float, delta: float = 0.0) -> None:
        if epsilon < 0 or delta < 0:
            raise ParameterError("privacy charges must be nonnegative")
        self.entries.append((str(label), float(epsilon), float(delta)))

    def total_simple(self) -> tuple[float, float]:
        """Basic composition: plain sums."""
        eps = sum(e for _, e, _ in self.entries)
        delta = sum(d for _, _, d in self.entries)
        return eps, delta


def compose_adaptive(ledger: PrivacyLedger, delta_prime: float) -> tuple[float, float]:
    """T-fold adaptive composition total for the ledger.

    When every entry shares a common per-mechanism eps, returns
    (eps*sqrt(2T ln(1/delta')) + T*eps*(e^eps - 1), sum(delta) + delta').
    Heterogeneous entries fall back to basic composition (plain sums).
    """
    if not (0 < delta_prime < 1):
        raise ParameterError("delta' must lie in (0, 1)")
    if not ledger.entries:
        return 0.0, delta_prime
    eps_values = [e for _, e, _ in ledger.entries]
    delta_sum = sum(d for _, _, d in ledger.entries)
    first = eps_values[0]
    if all(e == first for e in eps_values):
        T = len(eps_values)
        eps_total = first * math.sqrt(2.0 * T * math.log(1.0 / delta_prime)) + T * first * (
            math.exp(first) - 1.0
        )
        return eps_total, delta_sum + delta_prime
    return ledger.total_simple()
