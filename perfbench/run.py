"""Benchmark entry point for privagg.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs each workload in its own fresh process (``worker.py``) with the
BLAS/OpenMP thread pools pinned to one thread, so warm-up and peak memory
belong to one workload. Prints the worker's lines; each workload's last
line is its JSON result. Exits nonzero if any workload fails a check, or if
the privagg sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-small", "onedim-large", "market-billboard")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# a worker may take twice --seconds (its loop ends on a whole cycle) plus this
# much for imports, set-ups, the noise_off rerun and the traced request list
WORKER_SLACK_S = 90


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="privagg benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "privagg" / "__init__.py").is_file():
        print(f"no privagg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(THREAD_VARS, "1"))
    timeout = WORKER_SLACK_S + 2 * args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        sys.stdout.flush()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            print(f"workload {name} exceeded {timeout:g} s", file=sys.stderr)
            status = 1
            continue
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
