#!/usr/bin/env python3
"""Self-check: the exact per-layer counts repeat for a seed, and move with it.

    python3 perfbench/selfcheck.py

For each workload in ``BENCHMARK.json``, launches ``run.py --trace 1``
twice with seed 1 and once with seed 2, and compares the counts in
``EXACT_COUNTS``: they must be identical across the two launches with the
same seed and differ for the other seed.  Exits 1 if any workload fails
either way.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from common import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
SEED, OTHER_SEED = 1, 2


def workloads() -> list[str]:
    with open(HERE.parent / "BENCHMARK.json") as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def exact_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: result["metrics"][k]["value"] for k in EXACT_COUNTS}


def main() -> int:
    ok = True
    for workload in workloads():
        first = exact_counts(workload, SEED)
        again = exact_counts(workload, SEED)
        moved = exact_counts(workload, OTHER_SEED)
        repeats = first == again
        differs = first != moved
        ok &= repeats and differs
        print(f"{workload:<12} repeats={repeats} differs_for_seed_"
              f"{OTHER_SEED}={differs}  "
              + " ".join(f"{k}={v}" for k, v in first.items() if v))
        if not repeats:
            print(f"{workload:<12} second launch: {again}")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
