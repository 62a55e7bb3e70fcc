"""Run workloads over several seeds, one fresh process at a time, and report spreads.

    python3 perfbench/spread.py --workloads sweep-builtin dataset-10atom --seeds 1 2 3 4 5

For every end-to-end metric this prints the median and the distance between
the first and third quartiles as a share of the median, next to a third of
the metric's bound: a steady benchmark keeps the spread under that.  Raw
results are appended as JSON lines to ``--out`` when given.
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
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    return {
        "run_s": time.perf_counter() - start,
        "detail": json.loads(lines[-2]),
        "result": json.loads(lines[-1]),
    }


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[n for n, _ in manifest.WORKLOADS])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=manifest.RUN_SECONDS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds)
            runs.append(run)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **run}) + "\n")
            if not run["result"]["correct"]:
                steady = False
                print(f"{workload} seed {seed}: failed checks {run['detail']['problems']}")
        run_s = [r["run_s"] for r in runs]
        print(f"{workload:16s} run wall time median {statistics.median(run_s):.1f} s, "
              f"max {max(run_s):.1f} s")
        for name, unit, _, bound in manifest.END_TO_END:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            ok = share < bound / 3
            steady &= ok or name == "setup_s"
            print(f"{workload:16s} {name:12s} median {median:10.4f} {unit:3s} "
                  f"spread {share:7.2%} (bound/3 {bound / 3:6.2%}) {'ok' if ok else 'WIDE'}")
        stages = sorted(runs[0]["detail"]["metrics"])
        for name in stages:
            if name in {n for n, *_ in manifest.END_TO_END}:
                continue
            values = [r["detail"]["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            print(f"{workload:16s} {name:12s} median {median:10.4f} s   spread {share:7.2%}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
