"""Per-layer spans, recorded by wrapping public ltlseq functions at their call sites.

Each patch names the attribute a caller looks the function up through, e.g.
``ltlseq.harness.run_sequence`` wraps only the harness's calls to
``run_sequence``.  ``ltlseq.automata.fm.progress`` is the formulas module
reached through automata's ``fm`` alias, so progression's own recursion also
goes through the wrapper; every wrapper therefore records only the outermost
call and lets nested calls of the same function run untraced.

A span's self time is its duration minus the durations of the traced spans
opened directly inside it.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable


def _add_states(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["automata.states_before_min"] += args[0].n_states
    tracer.counts["automata.states_after_min"] += result.n_states


def _add_usable(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["tasks.usable_letters"] += len(result.usable_letters)


def _add_nodes(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["circuits.nodes"] += len(result.nodes)


def _add_bytes(tracer: "Tracer", args: tuple, result) -> None:
    out_dir = Path(args[1])
    written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    tracer.counts["generator.bytes_written"] += written


# (owner, attribute, span, hook run on the result).  The owner is the module
# (or class) whose code makes the call; ``ltlseq`` itself is the benchmark's
# own entry into the package.
PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("ltlseq.automata.fm", "progress", "formulas.progress", None),
    ("ltlseq.automata.fm", "state_form", "formulas.state_form", None),
    ("ltlseq.tasks", "ltlf_to_dfa", "automata.ltlf_to_dfa", None),
    ("ltlseq.automata", "minimize", "automata.minimize", _add_states),
    ("ltlseq.tasks", "partition_solutions", "constraints.partition_solutions", None),
    ("ltlseq.generator", "sample_solution", "constraints.sample_solution", None),
    ("ltlseq.harness", "tensor_probability", "constraints.tensor_probability", None),
    ("ltlseq", "compile_task", "tasks.compile_task", _add_usable),
    ("ltlseq.tasks.CompiledTask", "feasible_letters", "tasks.feasible_letters", None),
    ("ltlseq.generator", "generate_sequence", "generator.generate_sequence", None),
    ("ltlseq", "serialize", "generator.serialize", _add_bytes),
    ("ltlseq", "deserialize", "generator.deserialize", None),
    ("ltlseq.inference", "simplify", "props.simplify", None),
    ("ltlseq.inference", "next_state_formulas", "circuits.next_state_formulas", None),
    ("ltlseq.inference", "compile_sddnnf", "circuits.compile_sddnnf", None),
    ("ltlseq.inference", "smooth", "circuits.smooth", _add_nodes),
    ("ltlseq.inference", "amc", "circuits.amc", None),
    ("ltlseq.inference", "fuzzy_eval", "circuits.fuzzy_eval", None),
    ("ltlseq", "make_engine", "inference.make_engine", None),
    ("ltlseq.harness", "make_engine", "inference.make_engine", None),
    ("ltlseq.harness", "run_sequence", "inference.run_sequence", None),
    ("ltlseq.inference", "exact_step", "inference.exact_step", None),
    ("ltlseq.harness", "calibrate_temperature", "inference.calibrate_temperature", None),
    ("ltlseq", "evaluate", "harness.evaluate", None),
    ("ltlseq.harness", "evaluate", "harness.evaluate", None),
    ("ltlseq.harness", "fit_sc_temperature", "harness.fit_sc_temperature", None),
    ("ltlseq.harness", "mp_baselines", "harness.mp_baselines", None),
)

# Spans whose time is reported per engine: the engine name is read from the
# first argument (a name for make_engine, an engine for run_sequence).
_PER_ENGINE = {"inference.make_engine", "inference.run_sequence"}


def resolve(owner: str):
    """The module or class a dotted owner path names, importing as needed."""
    parts = owner.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[: i + 1]))
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Inclusive time, self time and call counts per span, plus counters."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.engine_time: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time of each open span
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` recording one span per outermost call."""
        depth = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal depth
            if depth:
                return fn(*args, **kwargs)
            depth += 1
            self._open.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                children = self._open.pop()
                depth -= 1
                self.time[span] += elapsed
                self.self_time[span] += elapsed - children
                self.calls[span] += 1
                if self._open:
                    self._open[-1] += elapsed
            if span in _PER_ENGINE:
                self._per_engine(span, args, elapsed)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _per_engine(self, span: str, args: tuple, elapsed: float) -> None:
        if span == "inference.make_engine":
            self.engine_time[f"build.{args[0]}"] += elapsed
        else:
            name = args[0].name
            self.engine_time[f"run.{name}"] += elapsed
            self.counts[f"steps.{name}"] += len(args[1])

    def patch(self, owner: str, attr: str, span: str, hook: Callable | None = None) -> None:
        obj = resolve(owner)
        original = getattr(obj, attr)
        self._saved.append((obj, attr, original))
        setattr(obj, attr, self.wrap(span, original, hook))

    def install(self, patches=PATCHES) -> None:
        for owner, attr, span, hook in patches:
            self.patch(owner, attr, span, hook)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, as (value, unit); zero when unused."""
        t, c, n = self.time, self.calls, self.counts
        out: dict[str, tuple[float, str]] = {
            "formulas.progress_s": (t["formulas.progress"], "s"),
            "formulas.progress_calls": (c["formulas.progress"], "count"),
            "formulas.state_form_s": (t["formulas.state_form"], "s"),
            "automata.ltlf_to_dfa_s": (t["automata.ltlf_to_dfa"], "s"),
            "automata.minimize_s": (t["automata.minimize"], "s"),
            "automata.states_before_min": (n["automata.states_before_min"], "count"),
            "automata.states_after_min": (n["automata.states_after_min"], "count"),
            "constraints.partition_solutions_s": (t["constraints.partition_solutions"], "s"),
            "constraints.sample_solution_calls": (c["constraints.sample_solution"], "count"),
            "constraints.tensor_probability_s": (t["constraints.tensor_probability"], "s"),
            "constraints.tensor_probability_calls": (
                c["constraints.tensor_probability"],
                "count",
            ),
            "tasks.compile_task_s": (t["tasks.compile_task"], "s"),
            "tasks.feasible_letters_s": (t["tasks.feasible_letters"], "s"),
            "tasks.feasible_letters_calls": (c["tasks.feasible_letters"], "count"),
            "tasks.usable_letters": (n["tasks.usable_letters"], "count"),
            "generator.generate_sequence_s": (t["generator.generate_sequence"], "s"),
            "generator.serialize_s": (t["generator.serialize"], "s"),
            "generator.deserialize_s": (t["generator.deserialize"], "s"),
            "generator.bytes_written": (n["generator.bytes_written"], "bytes"),
            "props.simplify_s": (t["props.simplify"], "s"),
            "circuits.next_state_formulas_s": (t["circuits.next_state_formulas"], "s"),
            "circuits.compile_sddnnf_s": (t["circuits.compile_sddnnf"], "s"),
            "circuits.compile_sddnnf_calls": (c["circuits.compile_sddnnf"], "count"),
            "circuits.smooth_s": (t["circuits.smooth"], "s"),
            "circuits.nodes": (n["circuits.nodes"], "count"),
            "circuits.amc_s": (t["circuits.amc"], "s"),
            "circuits.amc_calls": (c["circuits.amc"], "count"),
            "circuits.fuzzy_eval_s": (t["circuits.fuzzy_eval"], "s"),
            "circuits.fuzzy_eval_calls": (c["circuits.fuzzy_eval"], "count"),
        }
        engines = importlib.import_module("ltlseq").ENGINE_NAMES
        for engine in engines:
            out[f"inference.make_engine_s.{engine}"] = (self.engine_time[f"build.{engine}"], "s")
        for engine in engines:
            steps = n[f"steps.{engine}"]
            per_step = self.engine_time[f"run.{engine}"] / steps * 1e6 if steps else 0.0
            out[f"inference.step_us.{engine}"] = (per_step, "us")
        out |= {
            "inference.run_sequence_calls": (c["inference.run_sequence"], "count"),
            "inference.exact_step_s": (t["inference.exact_step"], "s"),
            "inference.calibrate_temperature_s": (t["inference.calibrate_temperature"], "s"),
            "harness.evaluate_s": (t["harness.evaluate"], "s"),
            "harness.evaluate_self_s": (self.self_time["harness.evaluate"], "s"),
            "harness.fit_sc_temperature_s": (t["harness.fit_sc_temperature"], "s"),
            "harness.mp_baselines_s": (t["harness.mp_baselines"], "s"),
        }
        return out
