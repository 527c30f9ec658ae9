"""Shared fixtures and independent reference implementations.

The oracles here recompute quantities with plain python loops and raw
coefficient arrays so the vectorized library paths are checked against a
second, dumber route. Game builders cover the recurring shapes: small random
linear games, participation games, a crowd-averse game whose summary
function jumps down across the diagonal, and a tuned variant of it where the
walk provably misses (the only honest way to reach the abort outcome without
noise).
"""

import dataclasses
import itertools
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from privagg.dp_core import (
    ParameterError, PrivacyLedger, SparseSession, Stage, check_finite, check_range,
)
from privagg.game_core import (
    AggregativeGame, LinearUtility, RegretReport, abr_set, aggregator, as_pure_profile,
    grid_steps, sample_profile, support_width, utility_matrix, utility_values,
)
from privagg.lp_core import DistMWResult, build_slack_lp, exact_lp_min, most_violated
from privagg.market import hinge_price, imbalance
from privagg.onedim import _accuracy_floor
from privagg.presl import NpreslResult, query_order, sampling_deviation_bound


def build_quiet(*args, **kwargs):
    """Construct an AggregativeGame with the small-scale warnings muted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return AggregativeGame(*args, **kwargs)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def naive_aggregator(game, x):
    """S(x) by explicit double loop over players and coordinates."""
    s = [0.0] * game.d
    for i in range(game.n):
        for k in range(game.d):
            s[k] += float(game.f[i][k][int(x[i])])
    return np.array([game.gamma * v for v in s])


def reference_aggregator(game, x):
    """S(x) from a fancy gather of the (n, d) chosen facets, summed in C
    order like ``aggregator``: the two must agree bit for bit."""
    x = np.asarray(x, dtype=np.int64)
    return game.gamma * game.f[np.arange(game.n), :, x].sum(axis=0)


def flat_take_aggregator(f, gamma, x):
    """S(x) from a C-ordered (n, d, m) facet tensor by one flat ``take`` of
    the (n, d) chosen facets at offsets (i d + k) m + x_i, summed in player
    order: ``aggregator``'s per-player path, which a shared block must match
    bit for bit."""
    n, d, m = f.shape
    offsets = np.arange(0, n * d * m, m).reshape(n, d)
    offsets += np.asarray(x, dtype=np.int64)[:, None]
    return gamma * f.reshape(-1).take(offsets).sum(axis=0)


def dense_twin(game):
    """The game's fields with ``f`` as a C-ordered (n, d, m) copy, left
    outside ``AggregativeGame``, which would store the copy's identical
    player blocks once again. Every library reader takes its per-player path
    on the twin, so its outputs are the references for the shared block.
    (``np.array`` of a zero-stride view keeps the view's axis order, so the
    copy is made C-ordered explicitly.)"""
    values = {field.name: getattr(game, field.name) for field in dataclasses.fields(game)}
    values["f"] = np.ascontiguousarray(game.f)
    return types.SimpleNamespace(**values, gamma_eff=game.gamma_eff)


def peak_traced_bytes(fn, *args):
    """(fn(*args), the peak of the Python-allocated bytes traced while it
    ran); tracing stops even when fn raises."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_abr_profile(game, s):
    """Best responses by ``np.argmax`` over each row of the utility matrix,
    the lowest-index maximiser on finite values."""
    return np.argmax(utility_matrix(game, s), axis=1).astype(np.int64)


def naive_expected_aggregator(game, p):
    s = [0.0] * game.d
    for i in range(game.n):
        for k in range(game.d):
            for j in range(game.m):
                s[k] += float(game.f[i][k][j]) * float(p[i][j])
    return np.array([game.gamma * v for v in s])


def naive_utility(game, i, a, s):
    """Evaluate player i's payoff for action a at aggregator s from the raw
    coefficient arrays, bypassing the evaluator's vectorized path."""
    u = game.utility
    kind = getattr(u, "kind", None)
    if kind == "linear":
        total = float(u.c[i][a])
        for k in range(game.d):
            total += float(u.w[i][a][k]) * float(s[k])
        return total
    if kind == "threshold":
        diff = (float(s[0]) - float(u.thresholds[i])) / 2.0
        return diff if a == 0 else -diff
    if kind == "market":
        port = u.portfolios[a]
        pay = 0.0
        for k in range(u.d):
            q = min(max(u.lam * float(s[k]) / u.lam + 0.5, 0.0), 1.0)
            pay += float(port[k]) * q
        return (float(u.valuations[i][a]) - pay) / (2.0 * u.d)
    # table utilities have no simpler second route; use the evaluator
    return float(utility_values(game, i, np.asarray(s, dtype=float))[a])


def naive_regret(game, x):
    """Per-player deviation gains by explicit loops, own-shift included."""
    s = naive_aggregator(game, x)
    gains = np.zeros(game.n)
    for i in range(game.n):
        base = naive_utility(game, i, int(x[i]), s)
        best = base
        for a in range(game.m):
            if a == int(x[i]):
                continue
            s_dev = s.copy()
            for k in range(game.d):
                s_dev[k] += game.gamma * (
                    float(game.f[i][k][a]) - float(game.f[i][k][int(x[i])])
                )
            best = max(best, naive_utility(game, i, a, s_dev))
        gains[i] = best - base
    return gains


def reference_regret(game, x):
    """``regret`` as one loop over players and their deviations, building
    each deviation's aggregator on its own: the two must agree bit for bit."""
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


def per_player_extremes(qgame, s, xi):
    """(x_min, x_max): per player, the last and first action among those
    within xi of their best response to s, with the actions ranked by facet,
    highest first (a stable sort, so ties keep the lower index first)."""
    x_min = np.empty(qgame.n, dtype=np.int64)
    x_max = np.empty(qgame.n, dtype=np.int64)
    for i in range(qgame.n):
        allowed = set(abr_set(qgame.base, i, np.array([float(s)]), xi).tolist())
        order = np.argsort(-qgame.base.f[i, 0, :], kind="stable")
        ranked = [a for a in order.tolist() if a in allowed]
        x_max[i], x_min[i] = ranked[0], ranked[-1]
    return x_min, x_max


def trader_utility(game, i, a, s):
    """One trader's market payoff (v_i(a) - <portfolio_a, q(lambda * s)>) / (2d)
    at aggregator value s, the per-trader reference for ``MarketUtility``."""
    s = np.asarray(s, dtype=float)
    q = hinge_price(game.lam * s, game.lam)
    pay = float(game.portfolios[int(a)] @ q)
    return (float(game.valuations[int(i), int(a)]) - pay) / (2.0 * game.d)


def market_regret(game, x):
    """Per-trader deviation gains of a ``MarketGame`` at pure profile x, each
    payoff read through ``trader_utility``. Trader i's move from x_i to a
    shifts the aggregator imbalance / lambda by (portfolio_a - portfolio_x_i)
    / lambda, formed in the order ``regret`` forms it."""
    x = np.asarray(x)
    gamma = 1.0 / game.lam
    s = gamma * imbalance(game, x)
    per = np.empty(game.n)
    for i, x_i in enumerate(x.tolist()):
        base = trader_utility(game, i, x_i, s)
        best = base
        for a in range(game.m):
            if a != x_i:
                moved = (game.portfolios[a] - game.portfolios[x_i]).astype(float)
                best = max(best, trader_utility(game, i, a, s + moved * gamma))
        per[i] = best - base
    return per


def materialised_walk(hi, lo):
    """Every walk composite at once: row j plays hi for the first j players
    and lo for the rest, an (n+1) x n matrix."""
    hi, lo = np.asarray(hi), np.asarray(lo)
    n = len(hi)
    steps = np.arange(n + 1)[:, None] > np.arange(n)[None, :]
    return np.where(steps, hi[None, :], lo[None, :])


def looped_walk_aggregators(qgame, rows):
    """Aggregator at each row of a materialised walk, one Python step per
    player."""
    n = qgame.n
    fvals = qgame.base.f[:, 0, :]
    s = np.empty(n + 1)
    s[0] = qgame.gamma * float(fvals[np.arange(n), rows[0]].sum())
    for j in range(1, n + 1):
        i = j - 1
        s[j] = s[j - 1] + qgame.gamma * (fvals[i, rows[n][i]] - fvals[i, rows[0][i]])
    return s


def recurrence_exact_lp_min(game, s_hat, y_hat, xi, tol):
    """``exact_lp_min`` as the plain multiplicative-weights recurrence:
    start uniform on the support, step p <- p exp(-eta f_k), restrict to the
    support and renormalise each round, and read the dual lower bound from
    the running average of the selected rows. Same horizon, step size,
    checks and stopping rule. Returns (value, witness, rounds)."""
    lp = build_slack_lp(game, s_hat, y_hat, xi, slack=0.0)
    mask = lp.supports
    n, m = lp.shape
    log_m = math.log(m) if m > 1 else 1.0
    t_theory = max(
        1,
        math.ceil(2.0 * log_m),
        math.ceil(2.0 * (game.gamma * n) ** 2 * log_m / tol**2),
    )
    cap = 8 * t_theory
    eta = math.sqrt(2.0 * log_m / t_theory)
    p = mask / mask.sum(axis=1, keepdims=True)
    accum = np.zeros_like(p)
    rows_sum = np.zeros_like(p)
    b_sum = 0.0
    best_lower = -math.inf
    t = 0
    while t < cap:
        t += 1
        accum += p
        k = int(np.argmax(lp.margins(p)))
        rows_sum += lp.cons_f[k]
        b_sum += float(lp.cons_b[k])
        if t % 16 == 0 or t == 1 or t >= cap:
            upper = float(np.max(lp.margins(accum / t)))
            best_row = np.where(mask, rows_sum / t, np.inf).min(axis=1)
            best_lower = max(best_lower, game.gamma * float(best_row.sum()) - b_sum / t)
            if upper - best_lower <= tol:
                break
        w = p * np.exp(-eta * lp.cons_f[k]) * mask
        p = w / w.sum(axis=1, keepdims=True)
    return max(best_lower, 0.0), accum / t, t


def reference_presl_scan(game, params, src, lp=exact_lp_min):
    """presl's grid scan one query at a time: a session on the "sparse"
    child at threshold alpha + e1, and one solo call of ``lp``
    (``exact_lp_min``) per (loss level, point) in ``query_order`` until the
    first below answer. Returns (hit or None, queries asked, the values
    asked); the blocked scan must give the same."""
    session = SparseSession(game.gamma, params.alpha + params.e1, params.epsilon,
                            src.child("sparse"))
    values = []
    for y, s in query_order(params):
        values.append(lp(game, s, y if params.has_loss else None, params.xi, params.lp_tol).value)
        if session.answer(values[-1]).below:
            return len(values) - 1, len(values), values
    return None, len(values), values


def reference_npresl(game, zeta, alpha, beta, src, lp=exact_lp_min):
    """``npresl`` as one solo call of ``lp`` (``exact_lp_min``) per grid
    point and loss level: probe, zero level, bisection and the fallback
    witness point by point in grid order, best witness by strict ``<``. The
    stacked sweep must publish the same fields bit for bit."""
    tol = alpha / 10.0
    xi = support_width(zeta, game.gamma, alpha)
    K = grid_steps(game.W, alpha, game.d)
    axis = np.arange(2 * K) * alpha - alpha * K
    loss_cap = game.n * game.gamma
    best = None  # (witness_loss, s_hat, y_star, witness)
    feasible = 0
    for combo in itertools.product(axis, repeat=game.d):
        s_hat = np.asarray(combo)
        if lp(game, s_hat, None, xi, tol).value > alpha:
            continue
        feasible += 1
        lo, hi = 0.0, loss_cap
        witness_hi = None
        zero = lp(game, s_hat, 0.0, xi, tol)
        if zero.value <= alpha:
            hi = 0.0
            witness_hi = zero.witness
        else:
            while hi - lo > alpha / 10.0:
                mid = 0.5 * (lo + hi)
                trial = lp(game, s_hat, mid, xi, tol)
                if trial.value <= alpha:
                    hi = mid
                    witness_hi = trial.witness
                else:
                    lo = mid
            if witness_hi is None:
                witness_hi = lp(game, s_hat, hi, xi, tol).witness
        w_loss = game.gamma * float((game.loss * witness_hi).sum())
        if best is None or w_loss < best[0]:
            best = (w_loss, s_hat, hi, witness_hi)
    slack = sampling_deviation_bound(game.n, game.gamma, 2 * game.d + 2, beta)
    bound = xi + 2.0 * (alpha + tol + slack) + game.gamma_eff
    if best is None:
        return NpreslResult(aborted=True, alpha=alpha, zeta=zeta, beta=beta,
                            nash_bound=bound, sampling_slack=slack)
    w_loss, s_hat, y_star, witness = best
    return NpreslResult(
        aborted=False, alpha=alpha, zeta=zeta, beta=beta, nash_bound=bound,
        profile=sample_profile(game, witness, src.child("sample")), p_bar=witness,
        s_hat=s_hat, y_star=float(y_star), witness_loss=w_loss, feasible_points=feasible,
        sampling_slack=slack,
    )


def laplace_sample(b, src):
    """One Lap(b) draw by inverse CDF on one uniform, in scalar math: the
    reference for ``laplace_samples``, which must give k of these draws bit
    for bit. b must be positive and finite; noise_off then returns exactly 0.0."""
    check_finite(scale=b)
    if b <= 0:
        raise ParameterError(f"Laplace scale must be positive, got {b}")
    if src.noise_off:
        return 0.0
    u = src.uniform()
    return -b * math.copysign(1.0, u - 0.5) * math.log(1.0 - 2.0 * abs(u - 0.5))


def total_simple(ledger):
    """Basic composition of a PrivacyLedger: plain sums of (eps, delta)."""
    eps = sum(e for _, e, _ in ledger.entries)
    delta = sum(d for _, _, d in ledger.entries)
    return eps, delta


def sparse_accuracy_bound(n_queries, c, sensitivity, epsilon, beta):
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


def compose_adaptive(ledger, delta_prime):
    """T-fold adaptive composition total for a PrivacyLedger.

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
    return total_simple(ledger)


# ---------------------------------------------------------------------------
# derived quantities that only the tests read
# ---------------------------------------------------------------------------


def max_quality(brute, s_of, quality, zeta=None):
    """Best quality over a BruteForce table's zeta-equilibria (-inf when empty)."""
    eqs = brute.equilibria(zeta)
    if len(eqs) == 0:
        return float("-inf")
    return max(quality(s_of(x)) for x in eqs)


def nash_from_abr_bound(report):
    """Every profile is (max_abr + gamma_eff)-Nash: the level a
    TranslationReport implies."""
    return report.max_abr + report.gamma_eff


def quality_penalty(params):
    """Selected quality trails the best zeta-equilibrium by <= 5 alpha lam."""
    return 5.0 * params.alpha * params.quality.lam


def selection_accuracy_floor(qgame, epsilon, beta):
    """Smallest admissible selection grid step (four sessions):
    100 gamma (ln(2Wn) + ln(8/beta)) / eps."""
    return _accuracy_floor(qgame, epsilon, beta, 4)


def n_queries(params):
    """Grid points presl's scan can ask about: x_count_per_axis^d * y_count."""
    return params.x_count_per_axis**params.d * params.y_count


def reference_mw_iterate(cum, eta):
    """``_mw_iterate`` with the row minimum and the row total taken one
    action column at a time, in action order, whatever the block's shape:
    the library's faster paths must agree with it bit for bit."""
    low = cum[..., 0].copy()
    for a in range(1, cum.shape[-1]):
        np.minimum(low, cum[..., a], out=low)
    w = np.subtract(cum, low[..., None])
    w *= -eta
    np.exp(w, out=w)
    total = w[..., 0].copy()
    for a in range(1, w.shape[-1]):
        total += w[..., a]
    w /= total[..., None]
    return w


def reference_exponential_mechanism(scores, sensitivity, epsilon, src):
    """``exponential_mechanism`` with its checks on numpy reductions and the
    shift and scaling always under ``np.errstate``: the library's scalar
    checks must give the same index and leave the stream at the same place."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ParameterError("scores must be a nonempty 1-D array")
    top = scores.max()  # NaN if any score is NaN
    if not (math.isfinite(top) and math.isfinite(scores.min())):
        raise ParameterError("scores must be finite")
    check_range("positive", sensitivity=sensitivity, epsilon=epsilon)
    if src.noise_off:
        return int(np.argmax(scores))
    with np.errstate(over="ignore"):
        scale = epsilon / (2.0 * sensitivity)
        check_finite(score_scale=scale)
        logits = scores - top
        logits *= scale
    cdf = np.exp(logits, out=logits).cumsum()
    u = src.uniform() * cdf[-1]
    idx = int(cdf.searchsorted(u, side="left"))
    return min(idx, len(scores) - 1)


def reference_distmw_solve(lp, params, src):
    """``distmw_solve`` with one MW row per player: every round evaluates
    the full (n, m) iterate by ``reference_mw_iterate`` and the margins over
    all n players, with no grouping of identical players and one ledger
    charge added per round. Same checks and selections."""
    check_finite(scaled_margin=params.eps0 / (2.0 * lp.gamma)
                 * (params.n * lp.gamma + float(np.max(np.abs(lp.cons_b)))))
    cum = np.where(lp.supports, 0.0, np.inf)
    accum = np.zeros(lp.shape)
    transcript = []
    ledger = PrivacyLedger()
    for _ in range(params.T):
        p = reference_mw_iterate(cum, params.eta)
        accum += p
        k, _ = most_violated(lp, p, params.eps0, src)
        ledger.charge(Stage("constraint-select", "mw", params.gamma, params.eps0))
        transcript.append(k)
        cum += lp.cons_f[k]
    return DistMWResult(p_bar=accum / params.T, transcript=transcript, params=params, ledger=ledger)


def naive_loss(game, x):
    total = 0.0
    for i in range(game.n):
        total += float(game.loss[i][int(x[i])])
    return game.gamma * total


# ---------------------------------------------------------------------------
# game builders
# ---------------------------------------------------------------------------


def crowd_averse_game(n, threshold, gamma, spread2=False):
    """Two-action game where joining is attractive at low aggregator values.

    Payoffs are (T - s)/2 for joining and (s - T)/2 for staying out, so the
    best response flips from join to out as s passes T and the summary
    function V steps downward. Facets are join = 1 / out = 0 by default;
    spread2 uses join = +1 / out = -1 (per-move shift 2 gamma).
    """
    c = np.tile([threshold / 2.0, -threshold / 2.0], (n, 1))
    w = np.tile([[-0.5], [0.5]], (n, 1, 1)).reshape(n, 2, 1)
    f = np.zeros((n, 1, 2))
    f[:, 0, 0] = 1.0
    if spread2:
        f[:, 0, 1] = -1.0
    return build_quiet(
        n=n, m=2, d=1, gamma=gamma, W=max(1.0, gamma * n), f=f,
        utility=LinearUtility(c=c, w=w),
    )


def jump_game():
    """Crowd-averse instance whose walk provably misses its target.

    All thresholds sit at 0.08, the facet spread is 2 (so walk steps move
    the aggregator by 0.2), and alpha = 0.03 puts the crossing target at
    0.09 with an acceptance band of width 2(alpha + gamma/2) = 0.16, which
    falls in the gap between consecutive walk values 0.0 and 0.2. A
    noise-free run therefore reaches stage 2 (bracket index 3) and aborts.
    """
    return crowd_averse_game(10, 0.08, 0.1, spread2=True)


JUMP_ALPHA = 0.03
JUMP_EPSILON = 3000.0


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(20260814)))
