"""Run one benchmark workload in this process and print its metrics.

Started by ``run.py``, which pins the thread pools and gives every workload a
fresh process. With ``--trace 0`` it times requests in a closed loop (one
client, whole cycles of the workload's request kinds) for at least
``--seconds`` and prints the end-to-end metrics. With ``--trace 1`` it runs
each request of a fixed list twice, untraced and traced, checks that both
give the same result digest, and prints the per-layer metrics and the
tracing overhead. Human-readable lines come first; the last line is one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import privagg  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from privagg.dp_core import NoiseSource  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

# the filter pyproject.toml sets for the tests: small games sit outside the
# regime the accuracy bounds are written for, which the library warns about
warnings.filterwarnings("ignore", message="gamma", category=UserWarning)

# set-up is repeated until this long has passed (and at least SETUP_MIN_REPS
# times); setup_s is the median
SETUP_MIN_S, SETUP_MIN_REPS = 2.0, 3
P99_MIN_SAMPLES = 1000  # ten samples beyond the 99th percentile

TARGETS = [
    Target("lp_core", "exact_lp_min", {"rounds": lambda r: r.rounds}),
    Target("lp_core", "build_slack_lp"),
    Target("lp_core", "distmw_solve", {"rounds": lambda r: len(r.transcript)}),
    Target("lp_core", "replay_mw_player"),
    Target("dp_core", "exponential_mechanism"),
    Target("dp_core", "NoiseSource.child"),
    Target("dp_core", "SparseSession.answer", {"below": lambda r: int(r.below)}),
    Target("presl", "presl", {"queries": lambda r: r.queries_asked}),
    Target("presl", "npresl", {"feasible_points": lambda r: r.feasible_points}),
    Target("presl", "replay_presl_player"),
    Target("game_core", "sample_profile"),
    Target("game_core", "abr_profile"),
    Target("game_core", "aggregator"),
    Target("game_core", "abr_set"),
    Target("game_core", "regret"),
    Target("game_core", "utility_values"),
    Target("onedim", "V"),
    Target("onedim", "s_extremes"),
    Target("onedim", "smooth_walk", {"bytes": lambda r: r.nbytes}),
    Target("onedim", "psummnash", {"queries": lambda r: sum(r.queries)}),
    Target("onedim", "select_equilibrium", {"queries": lambda r: sum(r.queries)}),
    Target("market", "MarketUtility.value_matrix"),
    Target("market", "MarketUtility.values_for_player"),
    Target("market", "portfolio_matrix"),
    Target("harness", "generate"),
    Target("harness", "brute_force_equilibria"),
]

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "solve_s.p50": "s",
    "peak_rss_mb": "MB",
}

TRACE_UNITS = {
    "trace.requests_per_s.untraced": "1/s",
    "trace.requests_per_s.traced": "1/s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def run_request(wl, state, k: int, seed: int, mode: str) -> workloads.Request:
    """Request k of the workload's cycle: kind k mod cycle length, on the pool
    game (k div cycle length) mod pool size."""
    kind, pool_key, fn = wl.kinds[k % len(wl.kinds)]
    pool = state[pool_key]
    slot = (k // len(wl.kinds)) % len(pool)
    req = workloads.Request(kind, k, seed, mode, (pool_key, slot))
    start = time.perf_counter()
    try:
        fn(req, pool[slot])
    except Exception:  # a request that raises is a counted failure, not a crash
        traceback.print_exc()
        req.failures["error"] += 1
    req.wall_s = time.perf_counter() - start
    return req


def determinism_check(wl, state, seed: int) -> list:
    """Run the rerun kind's first request twice under noise_off."""
    k = [name for name, _, _ in wl.kinds].index(wl.rerun_kind)
    runs = [run_request(wl, state, k, seed, NoiseSource.NOISE_OFF) for _ in range(2)]
    if runs[0].digest != runs[1].digest:
        runs[1].failures["noise_off_rerun_differs"] += 1
    return runs


def timed_loop(wl, state, seed: int, seconds: float):
    """Closed loop of whole cycles until ``seconds`` have passed."""
    records = []
    start = time.perf_counter()
    while True:
        for _ in wl.kinds:
            records.append(run_request(wl, state, len(records), seed, NoiseSource.NOISY))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return records, elapsed


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def by_label(records, phase: str) -> dict:
    groups = defaultdict(list)
    for req in records:
        for (ph, label), values in req.samples.items():
            if ph == phase:
                groups[label].extend(values)
    return groups


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def p50(records, phase: str) -> float:
    """The median per sample label, combined by geometric means: first over
    the labels of one request kind ("npresl/n4", "npresl/n5", ...), then over
    kinds. The value does not jump between the clusters of a workload's mix,
    and every kind weighs the same."""
    kinds = defaultdict(list)
    for label, values in by_label(records, phase).items():
        kinds[label.split("/")[0]].append(statistics.median(values))
    return geomean(geomean(medians) for medians in kinds.values())


def p99(values) -> float:
    return statistics.quantiles(values, n=100)[98]


def mean_or_nan(values) -> float:
    return statistics.fmean(values) if values else float("nan")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_env(args) -> None:
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(
        f"# nproc {os.cpu_count()} cpu {cpu_model()!r} python {platform.python_version()} "
        f"numpy {np.__version__} privagg {privagg.__version__}"
    )
    print(f"# threads {threads}")


def print_metric(name: str, value: float, unit: str) -> None:
    print(f"{name:<48} {value:>14.6g} {unit}")


def finish(records, metrics: dict, units: dict) -> int:
    failures = Counter()
    for req in records:
        failures.update(req.failures)
    failed = sum(1 for req in records if req.failures)
    for req in records:
        if req.failures:
            print(f"# failed: request {req.index} {req.kind} {req.mode} on {req.game_key}: "
                  f"{dict(req.failures)}")
    print(f"# failures by kind: {dict(failures) or 'none'}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def run_untraced(wl, args) -> int:
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S:
        state = None
        gc.collect()
        start = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
    reruns = determinism_check(wl, state, args.seed)
    records, elapsed = timed_loop(wl, state, args.seed, args.seconds)
    replays_s = [v for values in by_label(records, "replay").values() for v in values]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": len(records) / elapsed,
        "solve_s.p50": p50(records, "solve"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, value in metrics.items():
        print_metric(name, value, END_TO_END_UNITS[name])

    seen, repeats = set(), 0
    for req in records:
        repeats += req.game_key in seen
        seen.add(req.game_key)
    everything = reruns + records
    attempted = len(everything)
    # printed, not gated: these can be 0 or negative, or spread more from run
    # to run than any bound the benchmark may set (verify and replay time is
    # part of every request, so requests_per_s carries it)
    print_metric("verify_s.p50", p50(records, "verify"), "s")
    print_metric("replay_ms.p50", 1e3 * p50(records, "replay"), "ms")
    if len(replays_s) >= P99_MIN_SAMPLES:
        print_metric("replay_ms.p99", 1e3 * p99(replays_s), "ms")
    print_metric("fail_frac", sum(1 for r in everything if r.failures) / attempted, "ratio")
    print_metric("regret_ratio.mean", mean_or_nan([x for r in records for x in r.ratios]), "ratio")
    loss_gaps = [x for r in records for x in r.loss_gaps]
    if loss_gaps:
        print_metric("loss_gap.mean", statistics.fmean(loss_gaps), "alpha")
    print(
        f"# {len(records)} timed requests in {elapsed:.3f} s, {len(replays_s)} replays, "
        f"repeat share {repeats / len(records):.3f}"
    )
    for phase in ("solve", "verify", "replay"):
        medians = {k: round(statistics.median(v), 6) for k, v in by_label(records, phase).items()}
        print(f"# {phase} median s by label: {medians}")
    return finish(everything, metrics, END_TO_END_UNITS)


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    metrics, units = {}, {}
    for target in TARGETS:
        st = tracer.stats[target.name]
        metrics[f"{target.name}.calls"], units[f"{target.name}.calls"] = st.calls, "count"
        metrics[f"{target.name}.self_s"], units[f"{target.name}.self_s"] = st.self_s, "s"
        for key in target.counts:
            name = f"{target.name}.{key}"
            metrics[name], units[name] = st.counts[key], "bytes" if key == "bytes" else "count"
    answers = tracer.stats["dp_core.SparseSession.answer"]
    metrics["dp_core.sparse.below_ratio"] = answers.counts["below"] / max(answers.calls, 1)
    units["dp_core.sparse.below_ratio"] = "ratio"
    lp_in_npresl = tracer.calls_under[("lp_core.exact_lp_min", "presl.npresl")]
    points = tracer.stats["presl.npresl"].counts["feasible_points"]
    metrics["presl.npresl.lp_calls_per_point"] = lp_in_npresl / max(points, 1)
    units["presl.npresl.lp_calls_per_point"] = "calls/point"
    return metrics, units


def run_traced(wl, args) -> int:
    tracer = Tracer(TARGETS, extra_modules=[workloads])
    with tracer:
        state = wl.setup(args.seed)
    reruns = determinism_check(wl, state, args.seed)
    # each request runs untraced and traced back to back, so that both see the
    # same state of a shared machine; the order alternates, so that neither
    # always runs second on warm caches
    plain, traced = [], []
    for k in range(wl.trace_cycles * len(wl.kinds)):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    traced.append(run_request(wl, state, k, args.seed, NoiseSource.NOISY))
            else:
                plain.append(run_request(wl, state, k, args.seed, NoiseSource.NOISY))
        if plain[-1].digest != traced[-1].digest:
            traced[-1].failures["traced_digest_differs"] += 1
    count = len(plain)

    metrics, units = layer_metrics(tracer)
    plain_s = sum(r.wall_s for r in plain)
    traced_s = sum(r.wall_s for r in traced)
    metrics["trace.requests_per_s.untraced"] = count / plain_s
    metrics["trace.requests_per_s.traced"] = count / traced_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    units.update(TRACE_UNITS)
    for name, value in metrics.items():
        print_metric(name, value, units[name])
    return finish(reruns + plain + traced, metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not Path(privagg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"privagg was imported from {privagg.__file__}, not this checkout", file=sys.stderr)
        return 2
    print_env(args)
    wl = workloads.WORKLOADS[args.workload]
    return run_traced(wl, args) if args.trace else run_untraced(wl, args)


if __name__ == "__main__":
    sys.exit(main())
