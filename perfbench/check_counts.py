#!/usr/bin/env python3
"""Check that two traced runs with one seed give identical counts.

    python3 perfbench/check_counts.py --workload coset-solve --seed 3 --seconds 4

Runs ``run.py --trace 1`` twice and compares every per-layer metric that
is a count, or a ratio of counts: the calls per sweep of each traced name,
``onevar.brute_solutions.ball_elements``, ``solver.pairs_tried``,
``solver.escalations`` and the ratios built from them.  Timings and the
``trace.*`` metrics are left out.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def counts(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    if not (result["correct"] and details["counts_repeat"]):
        sys.exit(f"{workload} seed {seed}: outputs wrong or counts differ between sweeps")
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "ratio") and not name.startswith("trace.")
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=4.0)
    args = p.parse_args()
    first = counts(args.workload, args.seed, args.seconds)
    second = counts(args.workload, args.seed, args.seconds)
    differ = sorted(k for k in first if first[k] != second.get(k))
    for k in differ:
        print(f"differs: {k}: {first[k]} vs {second.get(k)}")
    print(f"{args.workload} seed {args.seed}: {len(first)} counts, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
