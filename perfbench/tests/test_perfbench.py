"""Tests for the benchmark's own code.  Run: python -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import manifest  # noqa: E402
from tracing import PATCHES, Tracer, resolve  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

STAGES = {
    "sweep-builtin": {"sweep_s"},
    "engines-6atom": {"engine_build_s", "infer_s"},
    "dataset-10atom": {"compile_s", "generate_s", "save_s", "load_s"},
}
DIGESTS = {
    "sweep-builtin": {"sweep_csv"},
    "engines-6atom": set(),
    "dataset-10atom": {"dfa_json", "sequences_csv", "metadata_json"},
}


def run_smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(STAGES))
def test_smoke_run_reports_every_metric_and_passes_checks(workload):
    detail, result = run_smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in manifest.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert STAGES[workload] <= set(detail["metrics"])
    assert set(detail["digests"]) == DIGESTS[workload]
    assert not (ROOT / ".perfbench_work").exists()


def test_traced_smoke_run_reports_every_layer():
    detail, result = run_smoke("sweep-builtin", trace=1)
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, *_ in manifest.PER_LAYER]
    layers = detail["metrics"]
    assert set(Tracer().metrics()) | {"trace.overhead"} == set(layers)
    # sweep-builtin compiles in setup and runs every engine with calibration
    unused = {"generator.serialize_s", "generator.deserialize_s", "generator.bytes_written"}
    assert [n for n, m in layers.items() if m["value"] == 0 and n not in unused] == []


def test_outermost_only_wrapper_counts_recursion_once_per_top_level_call():
    ns = types.SimpleNamespace()

    def depth(n):
        return 0 if n == 0 else 1 + ns.depth(n - 1)

    tracer = Tracer()
    ns.depth = tracer.wrap("rec", depth)
    assert ns.depth(5) == 5
    assert ns.depth(3) == 3
    assert tracer.calls["rec"] == 2


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls == {"inner": 3, "outer": 1}
    assert tracer.time["outer"] - tracer.self_time["outer"] == pytest.approx(tracer.time["inner"])
    assert tracer.self_time["inner"] == tracer.time["inner"]


def test_patches_resolve_and_uninstall_restores_originals():
    originals = [getattr(resolve(owner), attr) for owner, attr, *_ in PATCHES]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(
            getattr(resolve(owner), attr) is not fn
            for (owner, attr, *_), fn in zip(PATCHES, originals)
        )
    finally:
        tracer.uninstall()
    assert [getattr(resolve(owner), attr) for owner, attr, *_ in PATCHES] == originals


def test_metric_names_are_valid_and_unique():
    names = [n for n, *_ in manifest.END_TO_END] + [n for n, *_ in manifest.PER_LAYER]
    names += list(Tracer().metrics()) + [n for stages in STAGES.values() for n in stages]
    names += [n for n, _ in manifest.WORKLOADS]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    declared = [n for n, *_ in manifest.END_TO_END + manifest.PER_LAYER]
    assert len(declared) == len(set(declared))


def test_per_layer_metrics_are_tracer_metrics():
    layers = set(Tracer().metrics()) | {"trace.overhead"}
    assert {n for n, *_ in manifest.PER_LAYER} <= layers


def test_benchmark_json_matches_manifest():
    assert (ROOT / "BENCHMARK.json").read_text() == manifest.render()
