"""Differential-privacy primitives.

Laplace noise, the below-threshold sparse vector mechanism, the exponential
mechanism over a score array, and a ledger of the (eps, delta) charged.
These are the only two mechanisms the weak mediator spends budget through:
the sparse vector finds a grid point, and the exponential mechanism picks
each round's constraint in the private LP dynamics. Everything downstream that
touches player data goes through this module, so the noise semantics here are
deliberately boring: one seeded uniform stream per NoiseSource, inverse-CDF
Laplace sampling (``laplace_samples``, which draws the sparse vector's
threshold noise and its query noise alike), and a noise_off mode that turns
every mechanism into its deterministic counterpart (Laplace draws become 0,
the exponential mechanism becomes a lowest-index argmax) without touching
the uniform stream.

One rule, ``check_range``, admits every privacy or accuracy argument and
names the one it refuses; no other module decides those ranges.
``check_finite`` is left for values with no range, such as thresholds.

Each solver declares its private stages once, in a table of ``Stage``
records, and ``PrivacyLedger`` is the one place a stage is charged. Every
private scan is ``PrivacyLedger.scan``: a one-shot SparseSession on the
stage's own child stream, asked blocks of queries in one doubling schedule
(``_blocks``) until the first below answer (AboveThreshold, Dwork & Roth
2014, Alg. 1). Only the hit's position leaves the ledger, never a noisy value
or the session, and no block past the hit's is built. Each block is compared
with one array of noise, whose draws are those of a scan asking one query at
a time, so the answers equal that scan's.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ParameterError",
    "StateError",
    "BudgetError",
    "NoiseSource",
    "SparseSession",
    "SparseAnswer",
    "Stage",
    "PrivacyLedger",
    "check_finite",
    "check_range",
    "check_certificate",
    "as_count",
    "as_real",
    "seed_bits",
    "seeded_generator",
    "laplace_samples",
    "exponential_mechanism",
]


class ParameterError(ValueError):
    """Raised when a mechanism is invoked with out-of-range parameters."""


class StateError(RuntimeError):
    """Raised when a stateful mechanism is driven past its lifecycle."""


class BudgetError(RuntimeError):
    """Raised when a grid enumeration would exceed the query budget."""


def check_finite(**values: float) -> None:
    """Raise ParameterError unless every named value is finite: a NaN or inf
    budget passes every ``> 0`` test and would switch the noise off."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def check_range(kind: str, **values: float) -> None:
    """The one range rule for privacy and accuracy arguments: "positive" is
    finite and > 0 (epsilon, alpha, gamma, a sensitivity, lambda, a Laplace
    scale, a tolerance), "unit" is inside (0, 1) (delta, beta) and
    "nonnegative" is finite and >= 0 (zeta, xi, eta, a charge). Raises
    ParameterError naming the first value outside its range."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
        if kind == "unit" and not 0 < value < 1:
            raise ParameterError(f"{name} must lie in (0, 1), got {value}")
        if not (value > 0 if kind == "positive" else value >= 0):
            raise ParameterError(f"{name} must be {kind}, got {value}")


def check_certificate(bound: float, remedy: str) -> None:
    """Refuse, before any query, a run whose certified regret level overflows
    although each argument is in range; ``remedy`` names the one to move."""
    if not math.isfinite(bound):
        raise ParameterError(f"the certified bound is {bound}, not finite; {remedy}")


def as_count(name: str, value, most: float = math.inf) -> int:
    """``value`` as an int in [1, most]; NaN, infinite, non-integral and
    non-numeric values (booleans too) raise ParameterError before any
    ``int()`` runs."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not real or not 1 <= value <= most or not math.isfinite(value) or int(value) != value:
        bounds = "a positive integer" if most == math.inf else f"an integer from 1 to {most}"
        raise ParameterError(f"{name} must be {bounds}")
    return int(value)


def as_real(name: str, value):
    """``value`` unchanged if it is a number a float can hold; booleans,
    strings, null, lists and objects from a JSON file raise ParameterError."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if not real or isinstance(value, bool):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ParameterError(f"{name} = {value} is past the float range") from None
    return value


def seed_bits(seed) -> int:
    """The one seed rule: a seed is read modulo 2^64, so -1 and 2^64 - 1
    name the same stream and no integer seed is refused."""
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def seeded_generator(seed) -> np.random.Generator:
    """PCG64 seeded by SeedSequence(seed_bits(seed)): a NoiseSource's own
    stream, and the one every seeded game or type draw uses."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_bits(seed))))


def _label_to_int(label) -> int:
    """Stable that-label-to-64-bit mapping for child stream derivation."""
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    data = repr(label).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


# The chain child(i).uniform() runs is NumPy's SeedSequence (entropy = the
# parent seed, spawn_key = (i,)) -> one uint64 -> SeedSequence -> PCG64 ->
# Generator.random(). The kernel below replays that chain on arrays of labels.
# Constants from numpy/random/bit_generator.pyx and src/pcg64/pcg64.h.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
UNIFORM_BLOCK = 8192  # labels per kernel pass; its temporaries stay near 1 MB


def _hashmix(words: np.ndarray, h: int, mult: int) -> tuple:
    """SeedSequence's hash of uint32 words under constant h; returns the
    hashed words and the next constant (the pool fill uses mult A, the
    state output mult B)."""
    h_next = h * mult & _M32
    words = (words ^ np.uint32(h)) * np.uint32(h_next)
    return words ^ (words >> np.uint32(16)), h_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _seed_pool(words: list) -> tuple:
    """SeedSequence's 4-word entropy pool from at most four uint32 word
    arrays (a missing word hashes as 0, as NumPy pads it), and the hash
    constant that mixing any further entropy word continues from."""
    h = _INIT_A
    pool = []
    for k in range(4):
        word = words[k] if k < len(words) else np.zeros(1, np.uint32)
        mixed, h = _hashmix(word, h, _MULT_A)
        pool.append(mixed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], mixed)
    return pool, h


def _generate_state(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state: n_words uint32 arrays cycling the pool."""
    h = _INIT_B
    out = []
    for k in range(n_words):
        word, h = _hashmix(pool[k % 4], h, _MULT_B)
        out.append(word)
    return out


def _mul64(a: np.ndarray, b: int) -> tuple:
    """Full 128-bit product of uint64 words a and the constant b, as
    (high, low) uint64 halves, from four 32 x 32-bit partial products."""
    low32, shift = np.uint64(_M32), np.uint64(32)
    a_lo, a_hi = a & low32, a >> shift
    b_lo, b_hi = np.uint64(b & _M32), np.uint64(b >> 32)
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (lo_lo >> shift) + (lo_hi & low32) + (hi_lo & low32)
    high = a_hi * b_hi + (lo_hi >> shift) + (hi_lo >> shift) + (mid >> shift)
    return high, a * np.uint64(b)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple:
    """PCG64's LCG step, state * MULT + inc modulo 2^128, on uint64 halves."""
    prod_hi, prod_lo = _mul64(lo, _PCG_MULT_LO)
    prod_hi += hi * np.uint64(_PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI)
    return _add128(prod_hi, prod_lo, inc_hi, inc_lo)


def _child_uniform_block(parent_pool: list, h: int, labels: np.ndarray) -> np.ndarray:
    """First Generator.random() of child(label) for each uint32 label, given
    the parent seed's pool and hash constant from ``_seed_pool``. Must run
    under np.errstate(over="ignore"): all arithmetic wraps by design."""
    pool = []
    for word in parent_pool:  # the spawn key is the entropy word after the pool
        mixed, h = _hashmix(labels, h, _MULT_A)
        pool.append(_mix(word, mixed))
    derived = _generate_state(pool, 2)  # the child seed's low and high words
    w = [word.astype(np.uint64) for word in _generate_state(_seed_pool(derived)[0], 8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (
        w[k] | (w[k + 1] << np.uint64(32)) for k in range(0, 8, 2)
    )
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    # pcg64_set_seed: state = inc (one step from 0), += initstate, one step
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)  # the draw's own step
    x, rot = hi ^ lo, hi >> np.uint64(58)  # XSL-RR output
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


class NoiseSource:
    """Seeded randomness with an explicit noisy / noise_off mode.

    The uniform stream is a PCG64 generator; draws exclude the endpoints
    {0, 1} so log transforms stay finite. ``child(label)`` derives an
    independent stream deterministically from (seed, label), which is how
    per-player and per-trial randomness is split without any shared state.
    ``child_uniforms(n)`` gives the first draw of children 0..n-1 in one
    array pass over those same streams, so a player holding the seed still
    replays their own draw with ``child(i).uniform()``.
    """

    NOISY = "noisy"
    NOISE_OFF = "noise_off"

    def __init__(self, seed: int, mode: str = NOISY):
        if mode not in (self.NOISY, self.NOISE_OFF):
            raise ParameterError(f"unknown noise mode {mode!r}")
        self.seed = seed_bits(seed)
        self.mode = mode
        self._gen = seeded_generator(self.seed)

    @property
    def noise_off(self) -> bool:
        return self.mode == self.NOISE_OFF

    def uniform(self) -> float:
        """One uniform draw in the open interval (0, 1)."""
        u = float(self._gen.random())
        while u == 0.0:
            u = float(self._gen.random())
        return u

    def uniforms(self, k: int) -> np.ndarray:
        """``[self.uniform() for _ in range(k)]`` bit for bit, as one array:
        exact zeros are dropped in stream order and replaced by later draws."""
        out = self._gen.random(k)
        while not out.all():
            kept = out[out != 0.0]
            out = np.concatenate((kept, self._gen.random(k - kept.size)))
        return out

    def child(self, label) -> "NoiseSource":
        """Derive an independent NoiseSource keyed by (seed, label)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(_label_to_int(label),))
        derived = int(ss.generate_state(1, dtype=np.uint64)[0])
        return NoiseSource(derived, self.mode)

    def child_uniforms(self, n: int) -> np.ndarray:
        """``[self.child(i).uniform() for i in range(n)]`` bit for bit, as one
        float array built in UNIFORM_BLOCK-sized array passes instead of two
        SeedSequences and a PCG64 per child. A draw of exactly 0.0 is redrawn
        through ``child(i)`` itself, which keeps the open-interval rule.
        Labels must fit one 32-bit word, so n < 2^32.
        """
        if not 0 <= n < 2**32:
            raise ParameterError(f"child_uniforms needs 0 <= n < 2^32, got {n}")
        words = [np.array([self.seed & _M32], np.uint32), np.array([self.seed >> 32], np.uint32)]
        pool, h = _seed_pool(words)  # the parent's part of the mixing, once
        out = np.empty(n)
        with np.errstate(over="ignore"):
            for start in range(0, n, UNIFORM_BLOCK):
                labels = np.arange(start, min(start + UNIFORM_BLOCK, n), dtype=np.uint32)
                out[start : start + labels.size] = _child_uniform_block(pool, h, labels)
        for i in np.flatnonzero(out == 0.0):
            out[i] = self.child(int(i)).uniform()
        return out

    def __repr__(self) -> str:
        return f"NoiseSource(seed={self.seed}, mode={self.mode!r})"


def laplace_samples(b: float, src: NoiseSource, k: int) -> np.ndarray:
    """k draws of Lap(b) by inverse CDF, one uniform u in (0, 1) each, in
    stream order (``NoiseSource.uniforms``):
    x = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|). Each logarithm is taken by
    ``math.log``, so a draw does not depend on how many share its call;
    ``np.log`` does not match it in the last bit on every input. b must be
    positive and finite in both modes; noise_off then draws nothing and
    returns k zeros."""
    check_range("positive", scale=b)
    if src.noise_off:
        return np.zeros(k)
    centred = src.uniforms(k) - 0.5
    logs = np.fromiter(map(math.log, (1.0 - 2.0 * np.abs(centred)).tolist()), float, k)
    return -b * np.copysign(1.0, centred) * logs


@dataclass(frozen=True)
class SparseAnswer:
    """One streamed answer: below or above (bottom). The compared noisy value
    is not released: publishing it with the answer is not differentially
    private at any budget (Lyu, Su & Li, "Understanding the Sparse Vector
    Technique", PVLDB 2017, Alg. 3)."""

    below: bool


class SparseSession:
    """One-shot below-threshold sparse vector state (AboveThreshold).

    Adds Lap(2*gamma/eps) to each streamed query and compares against a
    noisy threshold T + Lap(2*gamma/eps) drawn once at construction; the
    sensitivity gamma must be positive in both noise modes. The first below
    answer halts the session; further answers are a state error. ``asked``
    counts the queries compared so far, the hit included, so after a hit the
    hit's position in the stream is ``asked - 1``. The session owns ``src``:
    nothing else may draw from it.
    """

    def __init__(self, sensitivity: float, threshold: float, epsilon: float, src: NoiseSource):
        check_range("positive", sensitivity=sensitivity, epsilon=epsilon)
        check_finite(threshold=threshold)
        self._src = src
        self.halted = False
        self.asked = 0
        self.query_scale = 2.0 * float(sensitivity) / float(epsilon)
        noise = laplace_samples(self.query_scale, src, 1)[0]
        self.noisy_threshold = float(threshold) + float(noise)

    def answer(self, query_values) -> SparseAnswer:
        """Below if any value of a query or a 1-D block of them falls below
        the noisy threshold. The block is compared in order with one array of
        noise (zeros under noise_off), and the session stops at the first
        below answer; the stream is left at the end of the block. A
        non-finite value would pass or fail every comparison silently, so any
        such entry is refused before noise is drawn."""
        if self.halted:
            raise StateError("sparse session already halted at its below answer")
        values = np.atleast_1d(np.asarray(query_values, dtype=float))
        if values.ndim != 1 or not np.isfinite(values).all():
            raise ParameterError("sparse queries must be one finite value or a 1-D block of them")
        noisy = values + laplace_samples(self.query_scale, self._src, values.size)
        below = np.flatnonzero(noisy <= self.noisy_threshold)
        if below.size == 0:
            self.asked += values.size
            return SparseAnswer(below=False)
        self.halted = True
        self.asked += int(below[0]) + 1
        return SparseAnswer(below=True)


def exponential_mechanism(scores, sensitivity: float, epsilon: float, src: NoiseSource) -> int:
    """Index of one score, drawn with probability proportional to
    exp(eps * q / (2 Delta)) from a nonempty 1-D score array.

    The scores must be finite. They are shifted by their maximum first and
    then scaled by eps / (2 Delta), which must be finite too, so every logit
    is at most 0 and every weight lies in [0, 1]. A shift or scaling that
    overflows gives a logit of -inf, whose weight is exactly 0. noise_off
    returns the lowest-index argmax deterministically.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ParameterError("scores must be a nonempty 1-D array")
    values = scores.tolist()  # checked as Python floats: cheaper than numpy on a few scores
    if not all(map(math.isfinite, values)):
        raise ParameterError("scores must be finite")
    top = max(values)
    check_range("positive", sensitivity=sensitivity, epsilon=epsilon)
    if src.noise_off:
        return values.index(top)
    scale = float(epsilon) / (2.0 * float(sensitivity))
    check_finite(score_scale=scale)  # an infinite scale gives 0 * inf = NaN
    overflow = not math.isfinite((top - min(values)) * scale)  # else no logit can overflow
    with np.errstate(over="ignore") if overflow else contextlib.nullcontext():
        logits = scores - top
        logits *= scale
    cdf = np.exp(logits, out=logits).cumsum()
    u = src.uniform() * cdf[-1]
    idx = int(cdf.searchsorted(u, side="left"))
    return min(idx, len(scores) - 1)


@dataclass(frozen=True)
class Stage:
    """One private stage as its solver's table declares it: the ledger label,
    the child stream its mechanism draws from, the declared sensitivity, its
    epsilon share and delta, and for a sparse scan its threshold."""

    label: str
    stream: str
    sensitivity: float
    epsilon: float
    delta: float = 0.0
    threshold: Optional[float] = None


# queries in a scan's first block; each later block is as long as all before
# it, so a hit at position j >= _FIRST_BLOCK is asked in at most
# 2 + log2(j / _FIRST_BLOCK) blocks and a scan builds at most max(_FIRST_BLOCK, 2j)
_FIRST_BLOCK = 16


def _blocks(total: int):
    """[lo, hi) ranges over positions 0..total-1 in the doubling schedule."""
    lo = 0
    while lo < total:
        hi = min(total, lo + max(lo, _FIRST_BLOCK))
        yield lo, hi
        lo = hi


@dataclass
class PrivacyLedger:
    """Running list of (label, eps, delta) charges, one per stage run: ``scan``
    charges a sparse scan and ``charge`` any other stage."""

    entries: list = field(default_factory=list)

    def charge(self, stage: Stage) -> None:
        check_range("nonnegative", epsilon=stage.epsilon, delta=stage.delta)
        self.entries.append((str(stage.label), float(stage.epsilon), float(stage.delta)))

    def scan(self, stage: Stage, src: NoiseSource, query: Callable, total: int) -> tuple:
        """Charge a sparse stage, open its session on ``src.child(stage.stream)``
        and ask ``query(lo, hi)``, the values of queries lo..hi-1, over
        ``_blocks(total)`` until the first below answer: (position, asked) of
        the hit, or (None, total). A block is asked only when all before it
        were above. A session refused at construction is not charged."""
        session = SparseSession(
            stage.sensitivity, stage.threshold, stage.epsilon, src.child(stage.stream)
        )
        self.charge(stage)
        for lo, hi in _blocks(total):
            if session.answer(query(lo, hi)).below:
                return session.asked - 1, session.asked
        return None, session.asked
