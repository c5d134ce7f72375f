#!/usr/bin/env python3
"""Run every workload, each in its own process, and print its metrics.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload prints its metrics with unit and sample count, then its JSON
result line. Exits non-zero if any workload does.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
