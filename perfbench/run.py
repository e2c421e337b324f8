"""The repository benchmark: one workload run, measured in a fresh process.

Run from the repository root::

    python3 perfbench/run.py --workload {dense,cabals,churn} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` runs ``worker.py`` once, in a fresh interpreter with numeric
libraries capped at one thread, and reports every end-to-end metric plus
``peak_rss_mb`` of that process.  ``--trace 1`` runs one untraced and one
traced pass, each in its own fresh process, one after the other, and
reports the per-layer metrics plus ``trace.overhead`` (traced ``run_s``
over untraced ``run_s``) and the untraced pass's raw wall ``run_s`` and
host slowdown (``host.*``); the two passes must agree on the coloring
digest and every exact count.

Before the JSON result the run prints a table of every metric with its unit
and sample count.  Any correctness miss (improper coloring, more than
Delta+1 colors, passes that disagree) is printed to stderr, counted in
``failed`` and makes the exit code 1.  A checkout without the program
(``src/repro``) exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: ``worker.WORKLOADS``, repeated so this file imports nothing of the program.
WORKLOADS = ("dense", "cabals", "churn")
#: Instance seed of the recorded baseline (README.md names the held-out one).
DEFAULT_SEED = 0
#: Every run must end within this many seconds.  The subprocess timeouts
#: and the worker's pass budget are both derived from it.
LIMIT_S = 180.0
#: Kept free for interpreter start-up and reporting.
SLACK_S = 10.0
#: The worker starts no pass predicted to end later than this much before
#: the deadline; a pass can run longer than the average it is predicted by.
PASS_MARGIN_S = 30.0
#: Exported before the child imports numpy, so BLAS/OpenMP stay serial.
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["PYTHONHASHSEED"] = "0"  # same set/dict order in every run
    env.update({name: "1" for name in THREAD_CAPS})
    return env


def run_worker(root: Path, args, deadline: float, *extra: str) -> dict:
    """One worker process; returns its JSON result (raises on a crash)."""
    remaining = deadline - time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--budget-s", str(max(0.0, remaining - PASS_MARGIN_S)),
        *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, remaining),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_table(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit, *samples) in metrics.items():
        count = f"  (n={samples[0]})" if samples else ""
        print(f"  {name:<{width}}  {value:>16.6g} {unit}{count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {root / 'src' / 'repro'}; run from "
              "the repository root", file=sys.stderr)
        return 2

    deadline = time.monotonic() + LIMIT_S - SLACK_S
    problems = []
    attempted = failed = 0
    if args.trace:
        single = ("--seconds", "0", "--min-passes", "1")
        bare = run_worker(root, args, deadline, *single)
        result = run_worker(root, args, deadline, *single, "--trace")
        for key in ("digest", "exact"):
            if bare[key] != result[key]:
                problems.append(
                    f"traced {key} {result[key]} != untraced {bare[key]}"
                )
        attempted, failed = bare["attempted"], bare["failed"]
        metrics = result["metrics"]
        metrics["trace.overhead"] = [result["run_s"] / bare["run_s"], "ratio"]
        # what reference seconds hide: the untraced pass's raw wall time and
        # the host slowdown its times were divided by
        metrics["host.run_wall_s"] = [bare["run_wall_s"], "s"]
        metrics["host.slowdown"] = [bare["slowdown"], "ratio"]
    else:
        result = run_worker(root, args, deadline, "--seconds", str(args.seconds))
        metrics = result["metrics"]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = [peak_kb / 1024.0, "MB", 1]

    print(f"{args.workload} seed={args.seed} passes={result['passes']} "
          f"host slowdown={result['slowdown']:.3f} "
          f"raw run_s={result['run_wall_s']:.3f} digest={result['digest']} "
          f"exact={result['exact']}")
    print_table(metrics)
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    attempted += result["attempted"]
    failed = min(attempted, failed + result["failed"] + len(problems))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, *_n) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
