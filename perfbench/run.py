"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep-builtin --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src``.  With
``--trace 0`` the workload builds its inputs several times (``setup_s`` is
the median) and then repeats its timed stages for about ``--seconds``
seconds; every reported time is a median over those repetitions.  With
``--trace 1`` it runs setup and one cycle untraced, then again with every
layer wrapped, and reports per-layer numbers and the tracing overhead.

The last line of output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the per-stage times, output digests and machine.
"""

from __future__ import annotations

import os
import sys

# Single-threaded numeric libraries and a fixed string-hash seed, so runs
# differ only in their inputs.  They must be set before the interpreter and
# numpy start, hence the re-exec.
_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **_ENV})

import argparse
import contextlib
import importlib
import json
import platform
import resource
import shutil
import statistics
from pathlib import Path
import time
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Checks  # noqa: E402

SETUP_REPEATS = 5
MIN_CYCLES = 2


def fresh_ltlseq():
    """Import ltlseq from source, dropping any earlier import of it."""
    src = ROOT / "src"
    if not (src / "ltlseq").is_dir():
        raise SystemExit(f"no ltlseq sources under {src}")
    for name in [m for m in sys.modules if m == "ltlseq" or m.startswith("ltlseq.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return importlib.import_module("ltlseq")


def machine() -> dict:
    model = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "cores": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure(workload, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Setup repeated, then cycles for about ``seconds``; medians per stage.

    Times are speed-normalised (see speed.py); the raw wall-clock medians
    go to the detail line.
    """
    setups: list[tuple[float, float]] = []
    samples: dict[str, list[tuple[float, float]]] = {}
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            L = fresh_ltlseq()
            inputs = workload.setup(L, checks)
            setups.append((start, perf_counter()))

        cycles = 0
        start = perf_counter()
        while True:
            spans = workload.cycle(L, inputs, checks)
            cycles += 1
            for stage, span in spans.items():
                samples.setdefault(stage, []).append(span)
            next_cycle = sum(b - a for stage, (a, b) in spans.items() if stage not in workload.once)
            if cycles >= MIN_CYCLES and perf_counter() - start + next_cycle > seconds:
                break
        # one more probe after the last interval
        time.sleep(probe.interval * 1.5)

    def medians(spans, timing):
        return statistics.median(timing(a, b) for a, b in spans)

    def wall(start, end):
        return end - start

    stages = {
        kind: workload.stages({st: medians(sp, timing) for st, sp in samples.items()})
        for kind, timing in (("normalized", probe.normalized), ("wall", wall))
    }
    e2e = {
        "setup_s": medians(setups, probe.normalized),
        "total_s": sum(stages["normalized"].values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "stages": stages["normalized"],
        "wall_s": stages["wall"] | {"setup_s": medians(setups, wall)},
        "cycles": cycles,
        "samples": {
            stage: [probe.normalized(a, b) for a, b in spans] for stage, spans in samples.items()
        },
        "speed_samples": len(probe.samples),
        "digests": workload.digests(L),
    }
    return e2e, detail


def trace(make_workload, checks: Checks) -> tuple[dict, dict]:
    """Setup plus one cycle untraced, then again traced; per-layer numbers.

    The overhead compares the two passes' speed-normalised times; spans use
    a clock that excludes the speed probe.
    """
    with SpeedProbe() as probe:
        L = fresh_ltlseq()
        workload = make_workload()
        start = perf_counter()
        workload.cycle(L, workload.setup(L, checks), checks)
        plain = (start, perf_counter())

        tracer = Tracer(clock=probe.clock)
        tracer.install()
        try:
            workload = make_workload()
            start = perf_counter()
            workload.cycle(L, workload.setup(L, checks), checks)
            traced = (start, perf_counter())
        finally:
            tracer.uninstall()
        time.sleep(probe.interval * 1.5)
    layers = tracer.metrics()
    layers["trace.overhead"] = (probe.normalized(*traced) / probe.normalized(*plain) - 1, "ratio")
    return layers, {"untraced_s": plain[1] - plain[0], "traced_s": traced[1] - traced[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()

    def make_workload():
        return WORKLOADS[args.workload](args.seed, args.size, work)

    try:
        if args.trace:
            shown, detail = trace(make_workload, checks)
            metrics = {name: shown[name][0] for name, *_ in manifest.PER_LAYER}
            units = {name: unit for name, unit, *_ in manifest.PER_LAYER}
        else:
            e2e, detail = measure(make_workload(), args.seconds, checks)
            metrics = {name: e2e[name] for name, *_ in manifest.END_TO_END}
            units = {name: unit for name, unit, *_ in manifest.END_TO_END}
            shown = {name: (v, "s") for name, v in detail.pop("stages").items()}
            shown |= {name: (v, units[name]) for name, v in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    for name, (value, unit) in sorted(shown.items()):
        print(f"{name:40s} {value:14.6g} {unit}")
    detail |= {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "machine": machine(),
        "problems": checks.problems[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
