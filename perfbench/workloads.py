"""The three benchmark workloads: inputs, timed stages and output checks.

A workload builds its inputs in ``setup`` and then runs ``cycle`` repeatedly;
each cycle runs every stage once (a stage listed in ``once`` only in the
first cycle), returns each stage's (start, end) clock readings and checks
the outputs.  All package calls go through the
``ltlseq`` module object handed in, so a tracer can patch them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
TASK_DIR = HERE / "tasks"

SWEEP_TASKS = ("task3", "task4", "task5", "task6")
# Minimal DFA sizes at this commit; a change means the workload changed shape.
EXPECTED_STATES = {"task3": 5, "task4": 5, "task5": 4, "task6": 4, "fam6": 8, "fam10": 32}
EXPECTED_USABLE = {"fam6": 36, "fam10": 180}
EXPECTED_ATOMS = {"fam6": 6, "fam10": 10}
LENGTH = 15
METRIC_FIELDS = ("ic_acc", "cc_acc", "nsp_acc", "sc_acc", "avg_acc")

# Split sizes (train, val, test) per size.  "full" is what the benchmark
# measures; "smoke" only proves the code paths in the tests.  Sequences that
# are run through the engines all have LENGTH steps, so every seed does the
# same amount of inference work and runs differ only in the data.
SIZES = {
    "full": {
        "sweep-builtin": (320, 10, 10),
        "engines-6atom": (320, 40, 10),
        "dataset-10atom": (2000, 250, 250),
    },
    "smoke": {
        "sweep-builtin": (20, 2, 2),
        "engines-6atom": (20, 2, 2),
        "dataset-10atom": (20, 5, 5),
    },
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_family(L, name: str):
    """A committed family task, checked to still have its atom count."""
    spec = L.load_task_yaml(TASK_DIR / f"{name}.yaml")
    if len(spec.constraints) != EXPECTED_ATOMS[name]:
        raise RuntimeError(
            f"{name}.yaml has {len(spec.constraints)} constraints, "
            f"expected {EXPECTED_ATOMS[name]}"
        )
    return spec


class Checks:
    """Operations attempted and failed; an operation fails if any check on it fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def shape_problems(task, name: str) -> list[str]:
    out = []
    if task.dfa.n_states != EXPECTED_STATES[name]:
        out.append(f"{task.dfa.n_states} states, expected {EXPECTED_STATES[name]}")
    if name in EXPECTED_USABLE and len(task.usable_letters) != EXPECTED_USABLE[name]:
        out.append(
            f"{len(task.usable_letters)} usable letters, expected {EXPECTED_USABLE[name]}"
        )
    return out


def metrics_problems(by_key: dict) -> dict[tuple, list[str]]:
    """Perfect oracles score 1.0 and fuzzy engines agree with exact.

    ``by_key`` maps (engine, oracle) to that run's metric fields; the result
    maps the same keys to what is wrong with each run.
    """
    out = {}
    for (engine, oracle), m in by_key.items():
        problems = out[(engine, oracle)] = []
        if oracle[1] == "perfect" and not m["nsp_acc"] == m["sc_acc"] == 1.0:
            problems.append(f"{engine} perfect oracle: nsp {m['nsp_acc']}, sc {m['sc_acc']}")
        exact = by_key[("exact", oracle)]
        if engine in ("fuzzy-p", "fuzzy-lp") and m != exact:
            problems.append(f"{engine} differs from exact under {oracle}: {m} vs {exact}")
    return out


class Workload:
    """Seed, split sizes and scratch directory; stage times reported as timed."""

    name: str
    once: frozenset[str] = frozenset()

    def __init__(self, seed: int, size: str, work: Path) -> None:
        self.seed, self.work = seed, work
        self.splits = SIZES[size][self.name]

    def digests(self, L) -> dict[str, str]:
        return {}

    def stages(self, medians: dict[str, float]) -> dict[str, float]:
        return dict(medians)


class SweepBuiltin(Workload):
    """The paper's noise ablation on the built-in tasks 3-6."""

    name = "sweep-builtin"

    def __init__(self, seed: int, size: str, work: Path) -> None:
        super().__init__(seed, size, work)
        self.rows: dict[str, list[dict]] = {}

    def setup(self, L, checks: Checks):
        inputs = []
        for name in SWEEP_TASKS:
            spec = L.builtin_task(
                name, seed=self.seed, splits=self.splits, min_length=LENGTH, max_length=LENGTH
            )
            task = L.compile_task(spec)
            checks.op(f"compile {name}", shape_problems(task, name))
            inputs.append((name, task, L.generate_dataset(task, jobs=1)))
        return inputs

    def cycle(self, L, inputs, checks: Checks) -> dict[str, tuple[float, float]]:
        times = {}
        for name, task, ds in inputs:
            start = perf_counter()
            rows = L.oracle_sweep(
                task,
                ds,
                L.default_sweep_configs(),
                engines=L.ENGINE_NAMES,
                seeds=(self.seed,),
                calibrate=True,
                jobs=1,
            )
            times[f"sweep.{name}"] = (start, perf_counter())
            by_key = {
                (r["engine"], (r["oracle_target"], r["oracle_kind"], r["p"], r["seed"])): {
                    f: r[f] for f in METRIC_FIELDS
                }
                for r in rows
            }
            problems = [p for ps in metrics_problems(by_key).values() for p in ps]
            first = self.rows.setdefault(name, rows)
            if rows != first:
                problems.append("rows differ from the first cycle")
            checks.op(f"sweep {name}", problems)
        return times

    def digests(self, L) -> dict[str, str]:
        path = self.work / "sweep.csv"
        L.write_sweep_csv([r for name in SWEEP_TASKS for r in self.rows[name]], path)
        return {"sweep_csv": sha256_file(path)}

    def stages(self, medians: dict[str, float]) -> dict[str, float]:
        return {"sweep_s": sum(medians.values())}


class Engines6Atom(Workload):
    """All five engines built and run on the 6-atom response family."""

    name = "engines-6atom"

    def __init__(self, seed: int, size: str, work: Path) -> None:
        super().__init__(seed, size, work)
        self.first: dict | None = None

    def setup(self, L, checks: Checks):
        spec = dataclasses.replace(
            load_family(L, "fam6"),
            seed=self.seed,
            splits=self.splits,
            min_length=LENGTH,
            max_length=LENGTH,
        )
        task = L.compile_task(spec)
        checks.op("compile fam6", shape_problems(task, "fam6"))
        oracles = (
            L.OracleConfig(seed=self.seed),
            L.OracleConfig(target="ic", kind="flip", p=0.1, seed=self.seed),
            L.OracleConfig(target="ic_cc", kind="confidence", p=0.2, seed=self.seed),
        )
        return task, L.generate_dataset(task, jobs=1), oracles

    def cycle(self, L, inputs, checks: Checks) -> dict[str, tuple[float, float]]:
        task, ds, oracles = inputs
        start = perf_counter()
        engines = {name: L.make_engine(name, task.dfa) for name in L.ENGINE_NAMES}
        build = (start, perf_counter())
        for name in engines:
            checks.op(f"make_engine {name}", [])

        start = perf_counter()
        results = {
            (name, cfg): L.evaluate(task, ds, engine, cfg)
            for cfg in oracles
            for name, engine in engines.items()
        }
        infer = (start, perf_counter())
        by_key = {
            (name, (cfg.target, cfg.kind, cfg.p, cfg.seed)): dataclasses.asdict(m)
            for (name, cfg), m in results.items()
        }
        if self.first is None:
            self.first = by_key
        for key, problems in metrics_problems(by_key).items():
            if by_key[key] != self.first[key]:
                problems.append("metrics differ from the first cycle")
            checks.op(f"evaluate {key}", problems)
        return {"engine_build_s": build, "infer_s": infer}


class Dataset10Atom(Workload):
    """Translation, grounding, generation and dataset IO on the 10-atom family."""

    name = "dataset-10atom"
    once = frozenset({"compile_s"})

    def __init__(self, seed: int, size: str, work: Path) -> None:
        super().__init__(seed, size, work)
        self.task = None
        self.files: dict[str, str] = {}

    def setup(self, L, checks: Checks):
        return dataclasses.replace(load_family(L, "fam10"), seed=self.seed, splits=self.splits)

    def cycle(self, L, spec, checks: Checks) -> dict[str, tuple[float, float]]:
        times = {}
        if self.task is None:
            start = perf_counter()
            self.task = L.compile_task(spec)
            times["compile_s"] = (start, perf_counter())
            checks.op("compile fam10", shape_problems(self.task, "fam10"))
            dfa_json = json.dumps(self.task.dfa.to_json_dict(), indent=2, sort_keys=True) + "\n"
            self.files["dfa_json"] = hashlib.sha256(dfa_json.encode()).hexdigest()

        start = perf_counter()
        ds = L.generate_dataset(self.task, jobs=1)
        times["generate_s"] = (start, perf_counter())
        counts = tuple(len(ds.splits[split]) for split in ("train", "val", "test"))
        checks.op("generate", [] if counts == self.splits else [f"split sizes {counts}"])

        out = self.work / "dataset"
        start = perf_counter()
        L.serialize(ds, out)
        times["save_s"] = (start, perf_counter())
        digests = {
            "sequences_csv": sha256_file(out / "sequences.csv"),
            "metadata_json": sha256_file(out / "metadata.json"),
        }
        problems = [f"{k} bytes changed between cycles" for k, v in digests.items()
                    if self.files.setdefault(k, v) != v]
        checks.op("serialize", problems)

        start = perf_counter()
        try:
            back = L.deserialize(out, verify=True)
            problems = []
        except L.LtlseqError as err:
            back, problems = None, [f"verified load failed: {err}"]
        times["load_s"] = (start, perf_counter())
        if back is not None and _samples(back) != _samples(ds):
            problems.append("loaded samples differ from the generated ones")
        checks.op("deserialize", problems)
        return times

    def digests(self, L) -> dict[str, str]:
        return dict(self.files)


def _samples(ds) -> list[tuple]:
    return [
        (split, s.seq_id, s.label, s.values, s.truths, s.states, s.indices)
        for split, s in ds
    ]


WORKLOADS = {w.name: w for w in (SweepBuiltin, Engines6Atom, Dataset10Atom)}

