"""Run the benchmark several times and keep every run: one set of runs.

    python3 benchmarks/e2e/collect.py --runs 10 --out out/set-a.json

Each run is a fresh process of ``run.py`` with its own seed, as the
driver runs it. The set file maps workload -> metric -> the values of the
runs in order; ``compare.py`` reads two of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = {name: {} for name in workloads}
    status = 0
    for index in range(args.runs):
        for name in workloads:
            started = time.time()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(args.first_seed + index),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if done.returncode != 0:
                status = 1
                print(f"{name} run {index}: exit {done.returncode}\n"
                      f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric, entry in result["metrics"].items():
                runs[name].setdefault(metric, []).append(entry["value"])
            with open(os.path.join(
                HERE, "out", f"result-{name}-trace{args.trace}.json"
            )) as f:
                for metric, value in json.load(f)["unnormalised"].items():
                    runs[name].setdefault(metric, []).append(value)
            runs[name].setdefault("_wall_s", []).append(time.time() - started)
            print(f"{name} run {index}: {time.time() - started:.1f}s "
                  f"failed={result['failed']}", flush=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(runs, f, indent=1, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
