"""Oracle-noise ablation harness: corrupted predictors, metrics, baselines.

The evaluation pipeline has four stages — per-variable label prediction (IC),
per-atom constraint truth (CC), next-state prediction (NSP), and sequence
classification (SC).  Oracles replace the learned stages with ground truth
corrupted in a controlled way, either at the variable level (``ic`` target:
noisy label distributions pushed through exact constraint probability) or at
the atom level (``ic_cc`` target: noisy truth distributions used directly as
constraint beliefs).  ``ic_cc`` runs the ``ic`` path over two-class atom
variables: each atom's truth bit is its true class, read through the identity
indicator, so each oracle kind is written once.

Oracle randomness is derived per sequence from ``(seed, split, seq_id)``, so
results do not depend on evaluation order.  Corruption is array code over a
whole split: flip oracles keep their scalar draw loop but emit label indices,
and confidence oracles draw each sequence's masses in one call.  A sweep then
runs every (config, seed) unit of a split through each engine in one batched
pass and scores the units one by one; no threads are started.  SC is always
scored on raw acceptance: a fitted calibration temperature is reported as
the ``sc_temp`` column and read by no metric.
"""

from __future__ import annotations

import csv
import functools
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .constraints import tensor_probability
from .errors import DomainError
from .generator import Dataset, SequenceSample, _digest_int
from .generator import write_summary_json  # noqa: F401  (re-exported; every JSON output uses it)
from .inference import (
    calibrate_temperature,
    make_engine,
    run_batch,
    run_sequence,  # noqa: F401  (kept importable here: perfbench's tracer patches it)
)
from .tasks import CompiledTask

ORACLE_TARGETS = ("ic", "ic_cc")
ORACLE_KINDS = ("perfect", "flip", "confidence")

METRIC_COLUMNS = ("ic_acc", "cc_acc", "nsp_acc", "sc_acc", "avg_acc")

SWEEP_COLUMNS = ("task", "engine", "oracle_target", "oracle_kind", "p", "seed", *METRIC_COLUMNS)


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
    """The ``METRIC_COLUMNS`` of one run: the per-stage accuracies.

    ``ic_acc`` is None when the IC stage is not simulated (``ic_cc`` target);
    ``avg_acc`` averages whichever of the four stage accuracies are present.
    The dataset's most-probable-class baselines are ``mp_baselines``.
    """

    ic_acc: float | None
    cc_acc: float
    nsp_acc: float
    sc_acc: float
    avg_acc: float


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


def _flip_labels(
    true: np.ndarray,
    sizes: Sequence[int],
    p: float,
    rngs: Sequence[np.random.Generator],
    lengths: np.ndarray,
) -> np.ndarray:
    """Labels after the flip oracle's scalar draws: per sequence, steps outer
    and columns inner, each entry re-drawn over all its ``sizes`` classes
    with probability p, exactly as ``flip_oracle`` draws them."""
    n = len(sizes)
    flat = true.ravel().tolist()
    lo = 0
    for rng, length in zip(rngs, lengths):
        random, integers = rng.random, rng.integers
        for i in range(lo, lo + int(length) * n):
            if random() < p:
                flat[i] = int(integers(sizes[i % n]))
        lo += int(length) * n
    return np.array(flat, dtype=np.intp).reshape(true.shape)


def _confidence_masses(
    p: float, n: int, rngs: Sequence[np.random.Generator], lengths: np.ndarray
) -> np.ndarray:
    """True-label masses m ~ U[1−p, 1] (steps × ``n`` columns), one bulk
    draw per sequence; equal to ``confidence_oracle``'s scalar draws."""
    draws = [rng.uniform(1.0 - p, 1.0, size=int(length) * n) for rng, length in zip(rngs, lengths)]
    return np.concatenate(draws).reshape(-1, n)


@dataclass(frozen=True)
class _Split:
    """One split of a dataset as arrays padded to its longest sequence:
    lengths, a step mask, truth vectors (sequences × steps × atoms), true
    domain indices (sequences × steps × variables) and states (-1 past each
    sequence's end)."""

    name: str
    samples: Sequence[SequenceSample]
    lengths: np.ndarray
    mask: np.ndarray
    truths: np.ndarray
    labels: np.ndarray
    states: np.ndarray
    _rng_seeds: dict = field(default_factory=dict, compare=False, repr=False)

    def oracle_rngs(self, seed: int) -> list[np.random.Generator]:
        """Fresh oracle generators, one per sequence, seeded from
        ``(seed, split, seq_id)``; the digests are hashed once per seed."""
        digests = self._rng_seeds.get(seed)
        if digests is None:
            digests = self._rng_seeds[seed] = [
                _digest_int(f"{seed}:{self.name}:{s.seq_id}:oracle") for s in self.samples
            ]
        return [np.random.default_rng(d) for d in digests]


def _split_arrays(task: CompiledTask, dataset: Dataset, split: str) -> _Split:
    samples = dataset.splits.get(split, [])
    if not samples:
        raise DomainError(f"split {split!r} is empty")
    variables = task.spec.variables
    lengths = np.array([s.length for s in samples])
    mask = np.arange(lengths.max()) < lengths[:, None]
    truths = np.zeros(mask.shape + (len(task.atoms),), dtype=bool)
    labels = np.zeros(mask.shape + (len(variables),), dtype=np.intp)
    states = np.full(mask.shape, -1)
    for i, sample in enumerate(samples):
        truths[i, : sample.length] = [[t[a] for a in task.atoms] for t in sample.truths]
        labels[i, : sample.length] = [
            [v.domain.index_of(values[v.name]) for v in variables] for values in sample.values
        ]
        states[i, : sample.length] = sample.states
    return _Split(split, samples, lengths, mask, truths, labels, states)


@dataclass(frozen=True)
class _Traces:
    """Corrupted constraint beliefs of one split under one oracle config,
    padded with zeros like the split's arrays, plus IC (hits, total)."""

    data: _Split
    cb: np.ndarray
    ic_hits: int
    ic_total: int


_IDENTITY = np.array([0.0, 1.0])  # an atom's indicator over its own truth bit


def _oracle_traces(task: CompiledTask, data: _Split, oracle: OracleConfig) -> _Traces:
    """Corrupt every sequence of a split under one config.

    Each sequence draws from its own ``(seed, split, seq_id)`` stream in a
    fixed order — steps outer; declared variables (``ic``) or sorted atoms
    (``ic_cc``) inner — so a config always yields the same corruption
    whatever the engine or caller.  ``ic_cc`` is ``ic`` over two-class
    variables, one per atom, whose true class is the atom's truth bit and
    whose indicator is the identity.  A perfect or flip oracle's label
    distributions are one-hot, so each atom's belief is its indicator tensor
    read at the drawn labels; a confidence oracle's distributions are
    contracted with each indicator over all steps at once.
    """
    if oracle.target == "ic":
        true = data.labels[data.mask]  # steps of every sequence × variables
        sizes = [v.domain.size for v in task.spec.variables]
        column = {v.name: j for j, v in enumerate(task.spec.variables)}
        indicators = map(task.indicator, task.atoms)
        reads = [([column[n] for n in names], tensor) for names, tensor in indicators]
    else:
        true = data.truths[data.mask].astype(np.intp)  # steps × atoms
        sizes = [2] * len(task.atoms)
        reads = [([i], _IDENTITY) for i in range(len(task.atoms))]
    rngs = None if oracle.kind == "perfect" else data.oracle_rngs(oracle.seed)
    if rngs is not None and min(sizes, default=2) < 2:
        raise DomainError(f"class count must be >= 2, got {min(sizes)}")
    flat = np.empty((len(true), len(task.atoms)))
    if oracle.kind == "confidence":
        m = _confidence_masses(oracle.p, len(sizes), rngs, data.lengths)
        dists, ic_hits = [], 0
        for j, k in enumerate(sizes):
            dist = np.repeat(((1.0 - m[:, j]) / (k - 1))[:, None], k, axis=1)
            dist[np.arange(len(true)), true[:, j]] = m[:, j]
            ic_hits += int(np.count_nonzero(dist.argmax(axis=1) == true[:, j]))
            dists.append(dist)
        for i, (columns, tensor) in enumerate(reads):
            flat[:, i] = tensor_probability(tensor, [dists[j] for j in columns])
    else:
        drawn = true if rngs is None else _flip_labels(true, sizes, oracle.p, rngs, data.lengths)
        ic_hits = int(np.count_nonzero(drawn == true))
        for i, (columns, tensor) in enumerate(reads):
            flat[:, i] = tensor[tuple(drawn[:, j] for j in columns)]
    cb = np.zeros(data.truths.shape)
    cb[data.mask] = flat
    if oracle.target != "ic":  # ic_cc simulates no IC stage
        return _Traces(data=data, cb=cb, ic_hits=0, ic_total=0)
    return _Traces(data=data, cb=cb, ic_hits=ic_hits, ic_total=true.size)


# Cells of run_batch's working arrays (rows × letters × (states + steps))
# allowed in one call, so stacking many units keeps memory bounded.  2^21
# float64 cells (16 MB) is about one 40-sequence unit of a 10-atom, 32-state
# task, the size one call had before units were stacked.
_BATCH_CELLS = 1 << 21


def _run_units(engine, units: Sequence[_Traces]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Predicted states (argmax belief per step) and acceptance of each
    unit's traces, all of one split.

    The units are stacked into as few ``run_batch`` calls as the cell budget
    allows.  Kernel rows are independent, so each unit's slice equals a
    ``run_batch`` call on that unit alone, bit for bit.
    """
    if not units:
        return []
    data = units[0].data
    n_seq, steps = data.mask.shape
    cb = np.concatenate([u.cb for u in units])
    lengths = np.tile(data.lengths, len(units))
    dfa = engine.dfa
    rows = max(1, _BATCH_CELLS // (dfa.n_letters * (dfa.n_states + steps)))
    predicted, acceptance = [], []
    for lo in range(0, len(cb), rows):
        result = run_batch(engine, cb[lo : lo + rows], lengths[lo : lo + rows])
        predicted.append(result.beliefs.argmax(axis=2))
        acceptance.append(result.acceptance)
    predicted, acceptance = np.concatenate(predicted), np.concatenate(acceptance)
    return [
        (predicted[u * n_seq : (u + 1) * n_seq], acceptance[u * n_seq : (u + 1) * n_seq])
        for u in range(len(units))
    ]


# ---------------------------------------------------------------------------
# Metrics


def evaluate(
    task: CompiledTask,
    dataset: Dataset,
    engine,
    oracle: OracleConfig,
    split: str = "test",
) -> Metrics:
    """Run one oracle/engine combination over a split and score every stage.

    CC compares thresholded (≥ 0.5) constraint beliefs to the stored truth
    vectors; NSP compares the belief argmax to the stored state trace per
    step; SC compares thresholded raw acceptance (ties → positive) to the
    sequence label; IC is the oracle's own argmax accuracy, reported only
    when the ``ic`` target simulates that stage.  ``engine`` is an engine or
    an engine name.  Only the scored split is read.  No stage reads a
    calibration temperature; the fitted one is the ``sc_temp`` column of
    ``oracle_sweep(..., calibrate=True)``.
    """
    if isinstance(engine, str):
        engine = make_engine(engine, task.dfa)
    traces = _oracle_traces(task, _split_arrays(task, dataset, split), oracle)
    return Metrics(**_score(traces, *_run_units(engine, [traces])[0], oracle))


def _score(
    traces: _Traces, predicted: np.ndarray, acceptance: np.ndarray, oracle: OracleConfig
) -> dict[str, float | None]:
    """The ``METRIC_COLUMNS`` of one unit, as ``evaluate`` defines them."""
    data = traces.data
    cc_hits = int(np.count_nonzero(((traces.cb >= 0.5) == data.truths) & data.mask[..., None]))
    cc_total = int(data.mask.sum()) * data.truths.shape[2]
    nsp_hits = int(np.count_nonzero(predicted == data.states))
    sc_hits = int(np.count_nonzero((acceptance >= 0.5) == [bool(s.label) for s in data.samples]))
    accuracies = (
        traces.ic_hits / traces.ic_total if oracle.target == "ic" else None,
        cc_hits / cc_total,
        nsp_hits / int(data.lengths.sum()),
        sc_hits / len(data.samples),
    )
    present = [a for a in accuracies if a is not None]
    return dict(zip(METRIC_COLUMNS, (*accuracies, sum(present) / len(present))))


def mp_baselines(dataset: Dataset) -> tuple[float, float]:
    """Test accuracies of constantly predicting the modal train class.

    ``mp_successor`` scores the modal next state per step; ``mp_sequence``
    the modal sequence label.  Ties break toward the smaller state id and
    label 0.  Raises ``DomainError`` when the train or test split is empty.
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
    if isinstance(engine, str):
        engine = make_engine(engine, task.dfa)
    traces = _oracle_traces(task, _split_arrays(task, dataset, split), oracle)
    return _fit_temperature(traces, _run_units(engine, [traces])[0][1])


def _fit_temperature(traces: _Traces, acceptance: np.ndarray) -> tuple[float, bool]:
    samples = traces.data.samples
    return calibrate_temperature([(a, s.label) for a, s in zip(acceptance.tolist(), samples)])


def oracle_sweep(
    task: CompiledTask,
    dataset: Dataset,
    configs: Sequence[OracleConfig] | None = None,
    engines: Sequence[str] = ("exact",),
    seeds: Sequence[int] = (12345,),
    split: str = "test",
    calibrate: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Evaluate every (config, engine, seed) combination into long-format rows.

    Rows come back in (config, engine, seed) order: the ``SWEEP_COLUMNS``
    of each combination, plus ``sc_temp`` when calibrating.  Each (config,
    seed) unit corrupts its splits once, and every engine runs on those same
    traces: the units of one split are stacked into one ``run_batch`` batch
    per engine (chunked to bound memory), then scored one by one.  Oracle
    draws depend only on (seed, split, seq_id), so the metrics equal
    separate ``evaluate`` calls.  Calibration (optional) fits a scalar
    acceptance temperature on the val split per combination, once per
    distinct acceptance vector (engines and configs often agree).  It is
    reported as the ``sc_temp`` column only: SC is always scored on raw
    acceptance, so calibrating changes no metric.  ``jobs`` is accepted for
    compatibility and starts no threads; the output is the same for any value.
    """
    if configs is None:
        configs = default_sweep_configs()
    built = {name: make_engine(name, task.dfa) for name in engines}
    data = {split: _split_arrays(task, dataset, split)}
    if calibrate:
        data.setdefault("val", _split_arrays(task, dataset, "val"))
    units = [replace(cfg, seed=seed) for cfg in configs for seed in seeds]
    traces = {name: [_oracle_traces(task, d, u) for u in units] for name, d in data.items()}

    rows: dict[str, list[dict]] = {}
    # every unit scores the same val samples, so equal acceptances fit equal temperatures
    temps: dict[bytes, float] = {}
    for name, engine in built.items():
        runs = {s: _run_units(engine, unit_traces) for s, unit_traces in traces.items()}
        rows[name] = []
        for u, unit in enumerate(units):
            row = {
                "task": task.spec.name,
                "engine": name,
                "oracle_target": unit.target,
                "oracle_kind": unit.kind,
                "p": unit.p,
                "seed": unit.seed,
                **_score(traces[split][u], *runs[split][u], unit),
            }
            if calibrate:
                acceptance = runs["val"][u][1]
                key = acceptance.tobytes()
                if key not in temps:
                    temps[key] = _fit_temperature(traces["val"][u], acceptance)[0]
                row["sc_temp"] = temps[key]
            rows[name].append(row)
    n = len(seeds)
    return [
        rows[name][c * n + s] for c in range(len(configs)) for name in engines for s in range(n)
    ]


def write_sweep_csv(rows: Sequence[Mapping], path) -> None:
    """Long-format RFC-4180 CSV, one row per (config, engine, seed): the
    ``SWEEP_COLUMNS``, then any other row keys in first-seen order; None is
    written as an empty cell."""
    columns = list(dict.fromkeys([*SWEEP_COLUMNS, *(key for row in rows for key in row)]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else str(row.get(c)) for c in columns])


def summarize_rows(rows: Sequence[Mapping]) -> dict:
    """Group sweep rows over seeds: mean ± population std per metric."""
    group_columns = SWEEP_COLUMNS[:5]  # the key columns but the seed
    groups: dict[tuple, list[Mapping]] = {}
    for row in rows:
        key = tuple(row[c] for c in group_columns)
        groups.setdefault(key, []).append(row)
    entries = []
    for key in sorted(groups, key=lambda k: tuple(map(str, k))):
        members = groups[key]
        entry: dict = dict(zip(group_columns, key))
        entry["seeds"] = sorted(row["seed"] for row in members)
        for metric in METRIC_COLUMNS:
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
