"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload full-steady --seed 1 --seconds 15 --trace 0

Run from the root of a photherm checkout. Every workload process starts
with BLAS/OpenMP pinned to one thread through its environment and with the
checkout's ``src`` on PYTHONPATH, so the benchmark always measures the code
beside it. With ``--trace 0`` the set-up is timed SETUP_REPEATS times (the
workload process itself plus set-up-only processes) and the median is
reported as ``setup_s``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. Full details, including
the machine record, go to ``bench/results/``; spans of a traced run go to
``bench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 3
TIME_LIMIT = 170.0  # seconds for the whole run, set-up repeats included


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run workload.py in its own process and parse its last stdout line."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "workload.py"), *args, "--t0", repr(t0)]
    proc = subprocess.run(
        cmd,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="census-sweep, full-steady or reduced-dynamics")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + TIME_LIMIT
    root = Path.cwd()
    if not (root / "src" / "photherm" / "__init__.py").is_file():
        print(f"bench: no photherm sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINS, PYTHONPATH=str(root / "src"))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_REPEATS - 1):
                work = HERE / "work" / f"{args.workload}-setup{k}"
                setups.append(spawn([*common, "--work", str(work), "--setup-only"], env, deadline)["setup_s"])
        result = spawn(
            [*common, "--work", str(HERE / "work" / args.workload),
             "--trace-out", str(HERE / "traces" / f"{name}.json")],
            env,
            deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["setup_samples"] = setups
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"# machine: {json.dumps(result['machine'])}")
    print(f"# {args.workload}: {result['rounds']} rounds, {result['attempted']} operations "
          f"attempted, {result['failed']} failed, correct={result['correct']}")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
