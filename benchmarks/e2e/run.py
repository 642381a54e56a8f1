"""The benchmark's one command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

(or ``PYTHONPATH=src python -m benchmarks.e2e.run ...``). Without
``--workload`` all four run in turn. Every metric is printed by name
with its unit, the outputs are checked, the result is written to
``benchmarks/e2e/out/`` and printed as one JSON object on the last line.
Exit status is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops-scale", type=float, default=1.0,
                        help="multiply the request counts (tests use 0.01)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.catalogue import RUN_SECONDS, WORKLOADS
    from benchmarks.e2e.workloads import OUT_DIR, run_workload

    names = [name for name, _ in WORKLOADS]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    status = 0
    for name in [args.workload] if args.workload else names:
        result, extras = run_workload(
            name, args.seed, seconds, bool(args.trace), args.ops_scale
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"result-{name}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"workload": name, "seed": args.seed, **result,
                       "unnormalised": extras}, f,
                      indent=1, sort_keys=True)
        if not result["correct"]:
            status = 1
        sys.stdout.flush()
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
