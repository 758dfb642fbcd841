"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload fibers --seeds 1-10 --seconds 15

For every metric it prints the median of the runs and the distance between
their first and third quartiles as a share of that median, which is the
figure each end-to-end bound in BENCHMARK.json is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        shown = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} median {median:12.6g}  spread {spread:7.4f}  "
              f"min {min(series):.6g}  max {max(series):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
