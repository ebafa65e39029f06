#!/usr/bin/env python3
"""Check that every ``.calls`` counter repeats exactly between two traced
runs with the same seed.

    python3 perfbench/repeat_check.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload (all four by default) and
exits 1 if any call count differs or a run fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fuzz-exact", "fuzz-float", "pde-ladder", "cli-cold")


def calls(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n{done.stderr}")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    status = 0
    for workload in args.workloads:
        first = calls(workload, args.seed, args.seconds)
        second = calls(workload, args.seed, args.seconds)
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: {len(first)} call counters, "
              + (f"differ: {', '.join(diff)}" if diff else "identical"))
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
