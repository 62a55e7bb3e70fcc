"""Metric and workload definitions; ``python3 perfbench/manifest.py`` writes BENCHMARK.json.

Every run must report every end-to-end metric (``--trace 0``) or every
per-layer metric listed here (``--trace 1``), whatever its workload, so the
lists hold only metrics that are measured and non-zero on all three
workloads.  The per-stage times (``sweep_s``, ``compile_s`` ...) and the
per-layer metrics of layers only some workloads use are printed on the
detail line before the result; see README.md for the full map.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = (
    (
        "sweep-builtin",
        "noise ablation on built-in tasks 3-6: tiny automata, short sequences, so per-step "
        "engine overhead, oracle corruption and calibration dominate",
    ),
    (
        "engines-6atom",
        "all five engines built and run on an 8-state 6-atom DFA: circuit compilation and "
        "arithmetic-bound belief steps",
    ),
    (
        "dataset-10atom",
        "10-atom 32-state task: LTLf translation, grounding, generation and dataset IO with "
        "no inference",
    ),
)

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("total_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better)
PER_LAYER = (
    ("formulas.progress_s", "s", "lower"),
    ("formulas.progress_calls", "count", "lower"),
    ("formulas.state_form_s", "s", "lower"),
    ("automata.ltlf_to_dfa_s", "s", "lower"),
    ("automata.minimize_s", "s", "lower"),
    ("automata.states_before_min", "count", "lower"),
    ("automata.states_after_min", "count", "lower"),
    ("constraints.partition_solutions_s", "s", "lower"),
    ("constraints.sample_solution_calls", "count", "lower"),
    ("tasks.compile_task_s", "s", "lower"),
    ("tasks.feasible_letters_s", "s", "lower"),
    ("tasks.feasible_letters_calls", "count", "lower"),
    ("tasks.usable_letters", "count", "higher"),
    ("generator.generate_sequence_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(render())
    print(f"wrote {path}")
