#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs ``run.py`` once per seed, then prints for every metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the interquartile distance as a share of the median. The raw results go
to ``.perfbench/spread-<workload>-<first>-<last>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    runs = []
    for seed in seeds:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        wall = time.monotonic() - t0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        print(f"seed {seed}: wall {wall:.1f}s correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
    out = HERE.parent / ".perfbench" / f"spread-{args.workload}-{seeds[0]}-{seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{key:38s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {share:.4f} "
              f"{runs[0]['metrics'][key]['unit']}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
