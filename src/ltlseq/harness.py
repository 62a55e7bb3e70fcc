"""Oracle-noise ablation harness: corrupted predictors, metrics, baselines.

The evaluation pipeline has four stages — per-variable label prediction (IC),
per-atom constraint truth (CC), next-state prediction (NSP), and sequence
classification (SC).  Oracles replace the learned stages with ground truth
corrupted in a controlled way, either at the variable level (``ic`` target:
noisy label distributions pushed through exact constraint probability) or at
the atom level (``ic_cc`` target: noisy truth distributions used directly as
constraint beliefs).

Oracle randomness is derived per sequence from ``(seed, split, seq_id)``, so
results do not depend on evaluation order and parallel runs merge cleanly.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import statistics
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .constraints import tensor_probability
from .errors import DomainError
from .generator import Dataset, SequenceSample, _digest_int, generate_dataset
from .inference import RunResult, apply_temperature, calibrate_temperature, make_engine, run_sequence
from .tasks import CompiledTask

ORACLE_TARGETS = ("ic", "ic_cc")
ORACLE_KINDS = ("perfect", "flip", "confidence")

SWEEP_COLUMNS = (
    "task",
    "engine",
    "oracle_target",
    "oracle_kind",
    "p",
    "seed",
    "ic_acc",
    "cc_acc",
    "nsp_acc",
    "sc_acc",
    "avg_acc",
)

_METRIC_COLUMNS = ("ic_acc", "cc_acc", "nsp_acc", "sc_acc", "avg_acc")


@dataclass(frozen=True)
class OracleConfig:
    """Which stage gets replaced, by what kind of corruption, and how much."""

    target: str = "ic"
    kind: str = "perfect"
    p: float = 0.0
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.target not in ORACLE_TARGETS:
            raise DomainError(f"oracle target must be one of {ORACLE_TARGETS}, got {self.target!r}")
        if self.kind not in ORACLE_KINDS:
            raise DomainError(f"oracle kind must be one of {ORACLE_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"noise level must be in [0, 1], got {self.p}")
        if self.kind == "perfect" and self.p != 0.0:
            raise DomainError("perfect oracle requires p = 0")


@dataclass(frozen=True)
class Metrics:
    """Per-stage accuracies plus the most-probable-class baselines.

    ``ic_acc`` is None when the IC stage is not simulated (``ic_cc`` target);
    ``avg_acc`` averages whichever of the four stage accuracies are present.
    """

    ic_acc: float | None
    cc_acc: float
    nsp_acc: float
    sc_acc: float
    avg_acc: float
    mp_successor: float
    mp_sequence: float


# ---------------------------------------------------------------------------
# Label-distribution oracles


def flip_oracle(true_label: int, k: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """One-hot at the true label w.p. 1−p, else one-hot at a uniform label.

    The random label is drawn over all ``k`` classes (it may coincide with
    the true one), so the expected top-1 accuracy is 1 − p + p/k.
    """
    _check_oracle_args(true_label, k, p)
    label = true_label
    if rng.random() < p:
        label = int(rng.integers(k))
    out = np.zeros(k)
    out[label] = 1.0
    return out


def confidence_oracle(true_label: int, k: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """True label keeps mass m ~ U[1−p, 1]; the rest split 1−m evenly.

    The argmax stays at the true label whenever m > (1−m)/(k−1), which holds
    for every draw when p ≤ 0.5 and k ≥ 3 (and for k = 2 when p < 0.5).
    """
    _check_oracle_args(true_label, k, p)
    m = rng.uniform(1.0 - p, 1.0)
    out = np.full(k, (1.0 - m) / (k - 1))
    out[true_label] = m
    return out


def _check_oracle_args(true_label: int, k: int, p: float) -> None:
    if k < 2:
        raise DomainError(f"class count must be >= 2, got {k}")
    if not 0 <= true_label < k:
        raise DomainError(f"true label {true_label} out of range for {k} classes")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"noise level must be in [0, 1], got {p}")


def _label_distribution(
    cfg: OracleConfig, true_label: int, k: int, rng: np.random.Generator | None
) -> np.ndarray:
    if cfg.kind == "perfect":
        out = np.zeros(k)
        out[true_label] = 1.0
        return out
    assert rng is not None
    if cfg.kind == "flip":
        return flip_oracle(true_label, k, cfg.p, rng)
    return confidence_oracle(true_label, k, cfg.p, rng)


def _oracle_rng(seed: int, split: str, seq_id: int) -> np.random.Generator:
    return np.random.default_rng(_digest_int(f"{seed}:{split}:{seq_id}:oracle"))


def _corrupted_cb_trace(
    task: CompiledTask,
    sample: SequenceSample,
    cfg: OracleConfig,
    rng: np.random.Generator | None,
) -> tuple[list[np.ndarray], int, int]:
    """Constraint-belief trace for one sample, plus IC (hits, total).

    Draw order is fixed — steps outer; declared variables (``ic``) or sorted
    atoms (``ic_cc``) inner — so a given (seed, split, seq_id) always yields
    the same corruption regardless of engine or caller.
    """
    atoms = task.atoms
    trace: list[np.ndarray] = []
    ic_hits = ic_total = 0
    for t in range(sample.length):
        if cfg.target == "ic":
            dists: dict[str, np.ndarray] = {}
            for v in task.spec.variables:
                true_idx = v.domain.index_of(sample.values[t][v.name])
                d = _label_distribution(cfg, true_idx, v.domain.size, rng)
                dists[v.name] = d
                ic_total += 1
                ic_hits += int(np.argmax(d)) == true_idx
            cb = np.empty(len(atoms))
            for i, atom in enumerate(atoms):
                names, tensor = task.indicator(atom)
                cb[i] = tensor_probability(tensor, [dists[n] for n in names])
        else:
            truths = sample.truths[t]
            cb = np.empty(len(atoms))
            for i, atom in enumerate(atoms):
                d = _label_distribution(cfg, int(truths[atom]), 2, rng)
                cb[i] = d[1]
        trace.append(cb)
    return trace, ic_hits, ic_total


def _oracle_runs(
    task: CompiledTask,
    dataset: Dataset,
    engine,
    oracle: OracleConfig,
    split: str,
) -> Iterator[tuple[SequenceSample, list[np.ndarray], int, int, RunResult]]:
    """Per sample of ``split``: the sample, its corrupted belief trace, the IC
    (hits, total) of that trace, and the engine's run over it.

    ``engine`` is an engine or an engine name.  Raises DomainError, on first
    iteration, when the split is empty.
    """
    if isinstance(engine, str):
        engine = make_engine(engine, task.dfa)
    samples = dataset.splits.get(split, [])
    if not samples:
        raise DomainError(f"split {split!r} is empty")
    for sample in samples:
        rng = None if oracle.kind == "perfect" else _oracle_rng(oracle.seed, split, sample.seq_id)
        trace, hits, total = _corrupted_cb_trace(task, sample, oracle, rng)
        yield sample, trace, hits, total, run_sequence(engine, trace)


# ---------------------------------------------------------------------------
# Metrics


def evaluate(
    task: CompiledTask,
    dataset: Dataset,
    engine,
    oracle: OracleConfig,
    split: str = "test",
    sc_temperature: float | None = None,
) -> Metrics:
    """Run one oracle/engine combination over a split and score every stage.

    CC compares thresholded (≥ 0.5) constraint beliefs to the stored truth
    vectors; NSP compares the belief argmax to the stored state trace per
    step; SC compares thresholded acceptance (ties → positive) to the
    sequence label; IC is the oracle's own argmax accuracy, reported only
    when the ``ic`` target simulates that stage.
    """
    atoms = task.atoms
    ic_hits = ic_total = 0
    cc_hits = cc_total = 0
    nsp_hits = nsp_total = 0
    sc_hits = 0
    for sample, trace, hits, total, result in _oracle_runs(task, dataset, engine, oracle, split):
        ic_hits += hits
        ic_total += total
        for cb, truths in zip(trace, sample.truths):
            for i, atom in enumerate(atoms):
                cc_hits += (cb[i] >= 0.5) == truths[atom]
                cc_total += 1
        for belief, state in zip(result.beliefs, sample.states):
            nsp_hits += int(np.argmax(belief)) == state
            nsp_total += 1
        acceptance = result.acceptance
        if sc_temperature is not None:
            acceptance = apply_temperature(acceptance, sc_temperature)
        sc_hits += (acceptance >= 0.5) == bool(sample.label)
    ic_acc = ic_hits / ic_total if oracle.target == "ic" else None
    cc_acc = cc_hits / cc_total
    nsp_acc = nsp_hits / nsp_total
    sc_acc = sc_hits / len(dataset.splits[split])
    present = [a for a in (ic_acc, cc_acc, nsp_acc, sc_acc) if a is not None]
    mp_successor, mp_sequence = mp_baselines(dataset)
    return Metrics(
        ic_acc=ic_acc,
        cc_acc=cc_acc,
        nsp_acc=nsp_acc,
        sc_acc=sc_acc,
        avg_acc=sum(present) / len(present),
        mp_successor=mp_successor,
        mp_sequence=mp_sequence,
    )


def mp_baselines(dataset: Dataset) -> tuple[float, float]:
    """Test accuracies of constantly predicting the modal train class.

    ``mp_successor`` scores the modal next state per step; ``mp_sequence``
    the modal sequence label.  Ties break toward the smaller state id and
    label 0.
    """
    train = dataset.splits.get("train", [])
    test = dataset.splits.get("test", [])
    if not train or not test:
        raise DomainError("mp baselines need non-empty train and test splits")
    state_counts: Counter[int] = Counter()
    for sample in train:
        state_counts.update(sample.states)
    modal_state = min(state_counts, key=lambda s: (-state_counts[s], s))
    label_counts = Counter(sample.label for sample in train)
    modal_label = min(label_counts, key=lambda l: (-label_counts[l], l))
    step_total = sum(sample.length for sample in test)
    step_hits = sum(1 for sample in test for s in sample.states if s == modal_state)
    seq_hits = sum(1 for sample in test if sample.label == modal_label)
    return step_hits / step_total, seq_hits / len(test)


def soft_xor(a: float, b: float) -> float:
    """a ⊕ b = (a + b − ab)(1 − ab): fuzzy OR damped by joint satisfaction."""
    return (a + b - a * b) * (1.0 - a * b)


def semantic_loss(preds: Sequence[float], labels: Sequence[int]) -> float:
    """(1 − ⊕ of positive-labeled preds) + (1 − Π of complemented negatives).

    The ⊕-reduction left-folds in input order over the positive subset; an
    empty subset contributes the reduction identity 1 on either side.
    """
    if len(preds) != len(labels):
        raise DomainError(f"{len(preds)} predictions vs {len(labels)} labels")
    for p in preds:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"prediction {p} outside [0, 1]")
    for label in labels:
        if label not in (0, 1):
            raise DomainError(f"labels must be 0/1, got {label!r}")
    positives = [p for p, label in zip(preds, labels) if label == 1]
    negatives = [1.0 - p for p, label in zip(preds, labels) if label == 0]
    pos_value = functools.reduce(soft_xor, positives) if positives else 1.0
    neg_value = math.prod(negatives)
    return (1.0 - pos_value) + (1.0 - neg_value)


# ---------------------------------------------------------------------------
# Sweeps and reports


def default_sweep_configs(
    p_values: Sequence[float] = (0.05, 0.1, 0.2), seed: int = 12345
) -> tuple[OracleConfig, ...]:
    """One perfect config plus {flip, confidence} × {ic, ic_cc} × p grid."""
    configs = [OracleConfig(target="ic", kind="perfect", p=0.0, seed=seed)]
    for kind in ("flip", "confidence"):
        for target in ORACLE_TARGETS:
            for p in p_values:
                configs.append(OracleConfig(target=target, kind=kind, p=p, seed=seed))
    return tuple(configs)


def fit_sc_temperature(
    task: CompiledTask,
    dataset: Dataset,
    engine,
    oracle: OracleConfig,
    split: str = "val",
) -> tuple[float, bool]:
    """Calibrate a scalar temperature on acceptance probabilities of a split."""
    pairs = [
        (result.acceptance, sample.label)
        for sample, _, _, _, result in _oracle_runs(task, dataset, engine, oracle, split)
    ]
    return calibrate_temperature(pairs)


def oracle_sweep(
    task: CompiledTask,
    dataset: Dataset | None = None,
    configs: Sequence[OracleConfig] | None = None,
    engines: Sequence[str] = ("exact",),
    seeds: Sequence[int] = (12345,),
    split: str = "test",
    calibrate: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Evaluate every (config, engine, seed) combination into long-format rows.

    Rows come back in (config, engine, seed) input order whatever ``jobs``
    is — oracle draws depend only on (seed, split, seq_id), never on
    scheduling.  Calibration (optional) fits a scalar acceptance temperature
    on the val split per combination; it cannot change thresholded
    accuracies (the rescaling is monotone around 0.5) and is recorded as an
    ``sc_temp`` diagnostic column.
    """
    if dataset is None:
        dataset = generate_dataset(task)
    if configs is None:
        configs = default_sweep_configs()
    built = {name: make_engine(name, task.dfa) for name in engines}
    combos = [
        (cfg, name, seed) for cfg in configs for name in engines for seed in seeds
    ]

    def run(combo: tuple[OracleConfig, str, int]) -> dict:
        cfg, name, seed = combo
        run_cfg = replace(cfg, seed=seed)
        temp = None
        if calibrate:
            temp, _ = fit_sc_temperature(task, dataset, built[name], run_cfg)
        metrics = evaluate(
            task, dataset, built[name], run_cfg, split=split, sc_temperature=temp
        )
        row = {
            "task": task.spec.name,
            "engine": name,
            "oracle_target": run_cfg.target,
            "oracle_kind": run_cfg.kind,
            "p": run_cfg.p,
            "seed": seed,
            "ic_acc": metrics.ic_acc,
            "cc_acc": metrics.cc_acc,
            "nsp_acc": metrics.nsp_acc,
            "sc_acc": metrics.sc_acc,
            "avg_acc": metrics.avg_acc,
        }
        if calibrate:
            row["sc_temp"] = temp
        return row

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, combos))
    return [run(combo) for combo in combos]


def write_sweep_csv(rows: Sequence[Mapping], path) -> None:
    """Long-format RFC-4180 CSV, one row per (config, engine, seed)."""
    columns = list(SWEEP_COLUMNS)
    if any("sc_temp" in row for row in rows):
        columns.append("sc_temp")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else str(row.get(c)) for c in columns])


def summarize_rows(rows: Sequence[Mapping]) -> dict:
    """Group sweep rows over seeds: mean ± population std per metric."""
    groups: dict[tuple, list[Mapping]] = {}
    for row in rows:
        key = (row["task"], row["engine"], row["oracle_target"], row["oracle_kind"], row["p"])
        groups.setdefault(key, []).append(row)
    entries = []
    for key in sorted(groups, key=lambda k: tuple(map(str, k))):
        members = groups[key]
        entry: dict = dict(zip(("task", "engine", "oracle_target", "oracle_kind", "p"), key))
        entry["seeds"] = sorted(row["seed"] for row in members)
        for metric in _METRIC_COLUMNS:
            values = [row[metric] for row in members if row.get(metric) is not None]
            if values:
                entry[metric] = {
                    "mean": statistics.mean(values),
                    "std": statistics.pstdev(values),
                }
            else:
                entry[metric] = None
        entries.append(entry)
    return {
        "notes": [
            "avg_acc is the arithmetic mean of the stage accuracies present (ic, cc, nsp, sc)",
            "flip oracles draw the random label uniformly over all classes, so expected top-1 accuracy is 1 - p + p/K",
        ],
        "groups": entries,
    }


def write_summary_json(summary: Mapping, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
