"""Oracle-noise ablation harness: corrupted predictors, metrics, baselines.

The evaluation pipeline has four stages — per-variable label prediction (IC),
per-atom constraint truth (CC), next-state prediction (NSP), and sequence
classification (SC).  Oracles replace the learned stages with ground truth
corrupted in a controlled way, either at the variable level (``ic`` target:
noisy label distributions pushed through exact constraint probability) or at
the atom level (``ic_cc`` target: noisy truth distributions used directly as
constraint beliefs).  ``ic_cc`` runs the ``ic`` path over two-class atom
variables: each atom's truth bit is its true class, read through the identity
indicator, so each oracle kind is written once.  Only the ``ic`` target on a
task with variables scores IC: under ``ic_cc``, and for a task without
variables, ``ic_acc`` is None and ``avg_acc`` averages the other stages.

Oracle randomness is derived per sequence from ``(seed, split, seq_id)``, so
results do not depend on evaluation order.  A split seeds its sequences'
streams once per oracle seed, all in one numpy pass
(``streams.stream_words``), and keeps their first words as one uint64
table with their next_doubles (``_Words``); every noisy config of that seed
reads them from word 0 and draws exactly what a fresh
``np.random.default_rng`` per sequence would.  A sweep corrupts each split
once per (target, kind, seed) group of its (config, seed) units.  A flip
oracle finds its flipped entries in the table with one array compare per p
and steps from one to the next in Python, pairing re-draws on half words; a
draw Lemire might reject, or a row that runs out of words, sends that
sequence to ``flip_oracle``'s draws on a fresh Generator of its stream.  A
confidence oracle computes every mass of the group from the table in one
array expression; its IC hits and the ``ic_cc`` beliefs need no
distribution, and under ``ic`` each indicator tensor is contracted over all
steps at once (``tensor_probability``: the last axis as one matrix-vector
product per step, then one ``einsum`` per remaining axis).  A sweep then runs every
unit of every split it reads (the scored one, plus val when calibrating)
through each engine in one batched pass, padded to the widest split, and
scores each engine's units in one pass; no threads are started.
With calibration, each distinct val acceptance is fitted once, and all of
them in one lockstep search (``calibrate_temperatures``) after every engine
has run.  SC is always scored on raw acceptance: a fitted calibration
temperature is reported as the ``sc_temp`` column and read by no metric.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import numbers
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .constraints import grid_positions, tensor_probability
from .errors import DomainError, TaskFileError
from .generator import Dataset, SequenceSample
from .inference import (
    calibrate_temperature,
    calibrate_temperatures,
    make_engine,
    run_batch,
    run_sequence,  # noqa: F401  (kept importable here: perfbench's tracer patches it)
)
from .streams import _LOW32, _digest_int, _next_doubles, stream_words
from .tasks import SPLIT_NAMES, CompiledTask, read_input

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
        # a bool or a float seed would equal an int seed yet name another stream
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise DomainError(f"oracle seed must be an int, got {self.seed!r}")
        if isinstance(self.p, bool) or not isinstance(self.p, (int, float)):
            raise DomainError(f"noise level must be an int or a float, got {self.p!r}")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"noise level must be in [0, 1], got {self.p}")
        if self.kind == "perfect" and self.p != 0.0:
            raise DomainError("perfect oracle requires p = 0")


@dataclass(frozen=True)
class Metrics:
    """The ``METRIC_COLUMNS`` of one run: the per-stage accuracies.

    ``ic_acc`` is None when no IC stage is simulated: under the ``ic_cc``
    target, and for a task without variables, which has no label to
    predict.  ``avg_acc`` averages whichever of the four stage accuracies
    are present.
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
    # OracleConfig's type rule: a bool would index as a mask, a float not at all
    for name, value in (("class count", k), ("true label", true_label)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an int, got {value!r}")
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise DomainError(f"noise level must be an int or a float, got {p!r}")
    if k < 2:
        raise DomainError(f"class count must be >= 2, got {k}")
    if not 0 <= true_label < k:
        raise DomainError(f"true label {true_label} out of range for {k} classes")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"noise level must be in [0, 1], got {p}")


def _flip_labels(
    true: np.ndarray, sizes: Sequence[int], p: float, words: _Words, lengths: np.ndarray
) -> np.ndarray:
    """Labels after the flip oracle (steps outer, columns inner, sequence
    after sequence): each entry re-drawn over all its ``sizes`` classes with
    probability p, exactly as ``flip_oracle`` draws them.

    Entry e tests the word at e plus the words its earlier re-draws took.
    A re-draw is 32-bit Lemire on the next half word: a new word's low half,
    leaving its high half pending for the next re-draw.  So the loop visits
    only the hits, the words whose next_double is below p, skipping from one
    to the next.  A low product below k (Lemire might reject it) or a row
    that runs out of words sends that one sequence to ``flip_oracle``'s
    draws on a fresh Generator of its stream (``_Words.stream``).
    """
    n, width = len(sizes), words.table.shape[1]
    hits = np.flatnonzero(words.doubles < p)
    ends = np.searchsorted(hits, np.arange(1, len(lengths) + 1) * width).tolist()
    hits, rows = hits.tolist(), words.table.tolist()
    out = true.copy()
    flat = out.reshape(-1)
    lo = first = 0
    for i, (entries, count) in enumerate(zip((lengths * n).tolist(), words.counts.tolist())):
        shift = pos = 0  # the words re-draws took; the first word not yet read
        half = None
        for q in hits[first : ends[i]]:
            q -= i * width
            e = q - shift
            if q < pos:  # a re-draw's word
                continue
            if e >= entries:
                break
            if half is None:  # past its words, a row reads a zero word
                word = rows[i][q + 1]
                draw, half, shift, pos = word & _LOW32, word >> 32, shift + 1, q + 2
            else:
                draw, half, pos = half, None, q + 1
            m = draw * sizes[e % n]
            if m & _LOW32 < sizes[e % n]:
                shift = count  # replay the sequence
                break
            flat[lo + e] = m >> 32
        if entries + shift > count:
            draws = words.stream(i)
            for j in range(lo, lo + entries):
                flat[j] = draws.integers(sizes[j % n]) if draws.random() < p else true.flat[j]
        lo, first = lo + entries, ends[i]
    return out


def _confidence_masses(
    ps: Sequence[float], n: int, words: _Words, lengths: np.ndarray
) -> np.ndarray:
    """The true-label masses m ~ U[1−p, 1] of each p (p × steps × ``n``
    columns), one word per entry; equal to ``confidence_oracle``'s scalar
    draws: numpy's ``uniform`` is ``low + (high − low) · next_double``, the
    subtraction in floats.  Each row holds a word per entry."""
    steps = int(lengths.max())
    mask = np.arange(steps) < lengths[:, None]
    u = words.doubles[:, : steps * n].reshape(len(lengths), steps, n)[mask]
    low = 1.0 - np.array(ps, dtype=float)[:, None, None]
    return low + (1.0 - low) * u


def _argmax_hits(m: np.ndarray, o: np.ndarray, true: np.ndarray) -> np.ndarray:
    """Where a confidence oracle's distribution, m at the true label and o
    at each other, has its ``argmax`` at the true label: where m > o, or on
    a tie where the true label is 0, the first index."""
    return (m > o) | ((m == o) & (true == 0))


@dataclass(frozen=True)
class _Words:
    """The first words of each sequence's oracle stream as one table.

    Row i holds the first ``counts[i]`` PCG64 words of the stream seeded
    with ``seeds[i]``, then zero words, at least one; ``doubles`` holds
    their next_doubles, 1.0 past the row's words so that no p ≤ 1 finds a
    flip there.  ``of`` seeds every stream in one pass and builds no bit
    generator; ``stream`` builds a Generator only for a row that must
    replay."""

    seeds: Sequence[int]
    table: np.ndarray
    counts: np.ndarray
    doubles: np.ndarray

    @classmethod
    def of(cls, seeds: Sequence[int], counts: Sequence[int]) -> _Words:
        counts = np.asarray(counts)
        table = np.zeros((len(seeds), counts.max() + 1), dtype=np.uint64)
        table[:, :-1] = stream_words(seeds, counts)
        fetched = np.arange(table.shape[1]) < counts[:, None]
        return cls(seeds, table, counts, np.where(fetched, _next_doubles(table), 1.0))

    def stream(self, i: int) -> np.random.Generator:
        """Row i's stream for the scalar draws, read from word 0."""
        return np.random.default_rng(self.seeds[i])


@dataclass(frozen=True)
class _Split:
    """One split of a dataset as arrays padded to its longest sequence:
    lengths, a step mask, truth vectors (sequences × steps × atoms), true
    domain indices (sequences × steps × variables), states (-1 past each
    sequence's end) and each sequence's label as a bool."""

    name: str
    samples: Sequence[SequenceSample]
    lengths: np.ndarray
    mask: np.ndarray
    truths: np.ndarray
    labels: np.ndarray
    states: np.ndarray
    positive: np.ndarray
    _words: dict = field(default_factory=dict, compare=False, repr=False)

    def oracle_words(self, seed: int) -> _Words:
        """The first words of each sequence's ``(seed, split, seq_id)``
        oracle stream.  Every stream of the split is seeded once per seed,
        all in one pass (``_Words.of``), so every config of that seed reads
        the same table.  A row holds two words per entry of the wider
        target: one for the flip test, and more than enough for a re-draw's
        half word."""
        words = self._words.get(seed)
        if words is None:
            width = max(self.labels.shape[2], self.truths.shape[2])
            seeds = [_digest_int(f"{seed}:{self.name}:{s.seq_id}:oracle") for s in self.samples]
            words = self._words[seed] = _Words.of(seeds, 2 * self.lengths * width)
        return words


def _split_arrays(task: CompiledTask, dataset: Dataset, split: str) -> _Split:
    if split not in SPLIT_NAMES:
        raise DomainError(f"unknown split {split!r}; valid: {', '.join(SPLIT_NAMES)}")
    if dataset.dfa != task.dfa:  # its states would be scored in another numbering
        raise DomainError(
            f"dataset automaton {dataset.dfa.digest} is not the task's {task.dfa.digest}"
        )
    samples = dataset.splits.get(split, [])
    if not samples:
        raise DomainError(f"split {split!r} is empty")
    if any(tuple(s.atoms) != task.atoms for s in samples):
        raise DomainError(f"split {split!r} is not over the task's atoms {list(task.atoms)}")
    variables = task.spec.variables
    if any(s.variables != variables for s in samples):
        raise DomainError(
            f"split {split!r} is not over the task's variables {[v.name for v in variables]}"
        )
    lengths = np.array([s.length for s in samples])
    mask = np.arange(lengths.max()) < lengths[:, None]
    letters = np.zeros(mask.shape, dtype=np.int64)
    points = np.zeros(mask.shape, dtype=np.int64)
    states = np.full(mask.shape, -1)
    for i, sample in enumerate(samples):
        letters[i, : sample.length] = sample.letters
        points[i, : sample.length] = sample.points
        states[i, : sample.length] = sample.states
    labels = grid_positions(points, variables)
    truths = (letters[..., None] >> np.arange(len(task.atoms)) & 1).astype(bool)
    positive = np.array([bool(s.label) for s in samples])
    return _Split(split, samples, lengths, mask, truths, labels, states, positive)


@dataclass(frozen=True)
class _Traces:
    """Corrupted constraint beliefs of one split under one oracle config,
    padded with zeros like the split's arrays, plus IC (hits, total), the
    total 0 where no IC stage runs, and the CC hits: thresholded beliefs
    equal to the truth bits."""

    data: _Split
    cb: np.ndarray
    ic_hits: int
    ic_total: int
    cc_hits: int


_IDENTITY = np.array([0.0, 1.0])  # an atom's indicator over its own truth bit


def _group_traces(
    task: CompiledTask, data: _Split, oracles: Sequence[OracleConfig]
) -> list[_Traces]:
    """Corrupt every sequence of a split under configs that share a target,
    a kind and a seed: one ``_Traces`` per config, in order.

    Each sequence draws from its own ``(seed, split, seq_id)`` stream, from
    its first word, in a fixed order — steps outer; declared variables
    (``ic``) or sorted atoms (``ic_cc``) inner — so a config always yields
    the same corruption whatever the engine, caller or other configs read
    before it: the streams are ``data.oracle_words``, whose words every
    config of the seed shares.  ``ic_cc`` is ``ic`` over two-class
    variables, one per atom, whose true class is the atom's truth bit and
    whose indicator is the identity.  A perfect or flip oracle's label
    distributions are one-hot, so each atom's belief is its indicator tensor
    read at the drawn labels.  A confidence oracle's IC hits need no
    distribution (``_argmax_hits``), and neither does the identity: its
    belief is the distribution's column 1, m where the truth bit is 1, else
    (1 − m)/1.  Only the variables some other indicator reads get a
    distribution, contracted with the indicator over all steps at once.
    """
    target, kind, seed = oracles[0].target, oracles[0].kind, oracles[0].seed
    bits = data.truths[data.mask]  # steps of every sequence × atoms
    if target == "ic":
        true = data.labels[data.mask]  # steps × variables
        sizes = [v.domain.size for v in task.spec.variables]
        column = {v.name: j for j, v in enumerate(task.spec.variables)}
        reads = [([column[n] for n in names], t) for names, t in map(task.indicator, task.atoms)]
    else:
        true, sizes = bits.astype(np.intp), [2] * len(task.atoms)
        reads = [([i], _IDENTITY) for i in range(len(task.atoms))]
    if kind != "perfect":
        if min(sizes, default=2) < 2:
            raise DomainError(f"class count must be >= 2, got {min(sizes)}")
        words = data.oracle_words(seed)
    if kind == "confidence":
        masses = _confidence_masses([o.p for o in oracles], len(sizes), words, data.lengths)
        read = {j for columns, t in reads if t is not _IDENTITY for j in columns}
    traces = []
    for g, oracle in enumerate(oracles):
        flat = np.empty(bits.shape)
        if kind == "confidence":
            m = masses[g]
            o = (1.0 - m) / (np.array(sizes) - 1)
            hits = _argmax_hits(m, o, true)
            dists = {j: np.repeat(o[:, j, None], sizes[j], axis=1) for j in read}
            for j, dist in dists.items():
                dist[np.arange(len(m)), true[:, j]] = m[:, j]
            for i, (columns, tensor) in enumerate(reads):
                if tensor is _IDENTITY:
                    j = columns[0]
                    flat[:, i] = np.where(true[:, j] == 1, m[:, j], o[:, j])
                elif not columns:  # a constraint over no variable: its constant truth
                    flat[:, i] = tensor
                else:  # rows summing to 1 + ulps can contract past 1
                    flat[:, i] = np.minimum(tensor_probability(tensor, [dists[j] for j in columns]), 1)
        else:
            labels = true
            if kind == "flip":
                labels = _flip_labels(true, sizes, oracle.p, words, data.lengths)
            hits = labels == true
            for i, (columns, tensor) in enumerate(reads):
                flat[:, i] = tensor[tuple(labels[:, j] for j in columns)]
        cb = np.zeros(data.truths.shape)
        cb[data.mask] = flat
        ic = (int(np.count_nonzero(hits)), true.size) if target == "ic" else (0, 0)
        traces.append(_Traces(data, cb, *ic, int(np.count_nonzero((flat >= 0.5) == bits))))
    return traces


def _stack(units: Sequence[_Traces]) -> tuple[np.ndarray, np.ndarray]:
    """The units' traces as one ``run_batch`` input, rows in unit order.
    The units may come from different splits: each is padded with zero
    steps to the widest.  Kernel rows are independent, so each unit's rows
    equal a ``run_batch`` call on that unit alone, bit for bit."""
    width = max(u.cb.shape[1] for u in units)
    cb = np.zeros((sum(len(u.cb) for u in units), width, units[0].cb.shape[2]))
    lo = 0
    for u in units:
        cb[lo : lo + len(u.cb), : u.cb.shape[1]] = u.cb
        lo += len(u.cb)
    return cb, np.concatenate([u.data.lengths for u in units])


def _run_units(engine, cb: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted states (argmax belief per step) and acceptance of every row
    of a ``_stack``, from one ``run_batch`` call."""
    result = run_batch(engine, cb, lengths)
    return result.beliefs.argmax(axis=2), result.acceptance


def _task_engine(task: CompiledTask, engine):
    """``engine``, or the engine that name builds, over the task's automaton;
    an engine over another automaton is a DomainError."""
    if isinstance(engine, str):
        return make_engine(engine, task.dfa)
    if engine.dfa != task.dfa:
        raise DomainError(
            f"engine automaton {engine.dfa.digest} is not the task's {task.dfa.digest}"
        )
    return engine


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
    when the ``ic`` target simulates that stage over at least one variable:
    under ``ic_cc``, and for a task without variables, ``ic_acc`` is None
    and ``avg_acc`` is the mean of the other three.  ``engine`` is an
    engine name or an engine over ``task.dfa``; an engine or a dataset over
    another automaton is a DomainError.  Only the scored split is read.  No
    stage reads a calibration temperature; the fitted one is the
    ``sc_temp`` column of ``oracle_sweep(..., calibrate=True)``.
    """
    engine = _task_engine(task, engine)
    (traces,) = _group_traces(task, _split_arrays(task, dataset, split), [oracle])
    (scores,) = _score([traces], *_run_units(engine, *_stack([traces])))
    return Metrics(**scores)


def _score(
    units: Sequence[_Traces], predicted: np.ndarray, acceptance: np.ndarray
) -> list[dict[str, float | None]]:
    """The ``METRIC_COLUMNS`` of each unit, as ``evaluate`` defines them.

    The units are over one split; ``predicted`` and ``acceptance`` are
    their rows from ``_run_units``, in unit order, ``predicted`` at least as
    wide as the split.  NSP and SC are one count over all the units, CC and
    IC (where its total is not 0) the counts each unit's traces hold."""
    data = units[0].data
    n, width = data.states.shape
    predicted = predicted[:, :width].reshape(len(units), n, width)
    nsp = np.count_nonzero(predicted == data.states, axis=(1, 2)).tolist()
    sc = np.count_nonzero((acceptance.reshape(-1, n) >= 0.5) == data.positive, axis=1).tolist()
    steps = int(data.lengths.sum())
    rows = []
    for unit, nsp_hits, sc_hits in zip(units, nsp, sc):
        accuracies = (
            unit.ic_hits / unit.ic_total if unit.ic_total else None,
            unit.cc_hits / (steps * data.truths.shape[2]),
            nsp_hits / steps,
            sc_hits / n,
        )
        present = [a for a in accuracies if a is not None]
        rows.append(dict(zip(METRIC_COLUMNS, (*accuracies, sum(present) / len(present)))))
    return rows


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
    """Calibrate a scalar temperature on acceptance probabilities of a split;
    ``engine`` and ``dataset`` are as in ``evaluate``."""
    engine = _task_engine(task, engine)
    data = _split_arrays(task, dataset, split)
    acceptance = _run_units(engine, *_stack(_group_traces(task, data, [oracle])))[1]
    return calibrate_temperature(list(zip(acceptance.tolist(), data.positive.tolist())))


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
    of each combination, plus ``sc_temp`` when calibrating.  Each split read
    (``split``, plus val when calibrating) is corrupted once per (target,
    kind, seed) group of (config, seed) units, and every engine runs on
    those same traces: one ``run_batch`` batch per engine over the units of
    every split, padded to the widest split, scored in one pass.  Oracle
    draws depend only on (seed, split, seq_id), so the metrics equal
    separate ``evaluate`` calls.
    Calibration (optional) fits a scalar acceptance temperature on the val
    split per combination, once per distinct acceptance vector (engines and
    configs often agree), all in one ``calibrate_temperatures`` call; each
    equals ``fit_sc_temperature`` of its combination.  It is reported as the
    ``sc_temp`` column only: SC is always scored on raw acceptance, so
    calibrating changes no metric.
    ``jobs`` is accepted for compatibility and starts no threads; the output
    is the same for any value.  A repeated engine or seed would only copy
    rows, so it raises DomainError, as does a dataset over another automaton.
    """
    for what, values in (("engine", engines), ("seed", seeds)):
        repeated = sorted(v for v, n in Counter(values).items() if n > 1)
        if repeated:
            raise DomainError(f"oracle_sweep repeats {what} {', '.join(map(str, repeated))}")
    if configs is None:
        configs = default_sweep_configs()
    built = {name: make_engine(name, task.dfa) for name in engines}
    data = {split: _split_arrays(task, dataset, split)}
    if calibrate:
        data.setdefault("val", _split_arrays(task, dataset, "val"))
    units = [replace(cfg, seed=seed) for cfg in configs for seed in seeds]
    if not units:
        return []
    # equal units draw equally; the others are corrupted in groups that
    # share a target, a kind and a seed
    groups: dict[tuple, list[OracleConfig]] = {}
    for unit in dict.fromkeys(units):
        groups.setdefault((unit.target, unit.kind, unit.seed), []).append(unit)
    traces = {
        name: {u: t for g in groups.values() for u, t in zip(g, _group_traces(task, d, g))}
        for name, d in data.items()
    }
    # the scored split's units are the batch's first rows, val's its last
    batch = _stack([traces[name][u] for name in data for u in units])
    scored = [traces[split][u] for u in units]
    n_scored = len(units) * len(data[split].lengths)

    rows: dict[str, list[dict]] = {}
    # every unit scores the same val samples, so equal acceptances fit equal
    # temperatures: each distinct acceptance, with the rows that share it
    shared: dict[bytes, tuple[np.ndarray, list[dict]]] = {}
    for name, engine in built.items():
        predicted, acceptance = _run_units(engine, *batch)
        scores = _score(scored, predicted[:n_scored], acceptance[:n_scored])
        rows[name] = [
            {
                "task": task.spec.name,
                "engine": name,
                "oracle_target": unit.target,
                "oracle_kind": unit.kind,
                "p": unit.p,
                "seed": unit.seed,
                **score,
            }
            for unit, score in zip(units, scores)
        ]
        if calibrate:
            val = acceptance[-len(units) * len(data["val"].lengths) :].reshape(len(units), -1)
            for row, unit_acceptance in zip(rows[name], val):
                shared.setdefault(unit_acceptance.tobytes(), (unit_acceptance, []))[1].append(row)
    if shared:
        fits = calibrate_temperatures([a for a, _ in shared.values()], data["val"].positive)
        for (_, members), (temp, _) in zip(shared.values(), fits):
            for row in members:
                row["sc_temp"] = temp
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


def read_sweep_csv(path) -> list[dict]:
    """The ``SWEEP_COLUMNS`` of each row a ``write_sweep_csv`` file holds:
    ``p`` a float, ``seed`` an int, each metric a float or None for an empty
    cell.  Missing columns, a row whose cell count differs from the header's,
    a bad number, a ``p`` or metric outside [0, 1] (so not NaN or infinite)
    or a cell the csv module rejects raise ``TaskFileError`` naming the file
    and line, as does an unreadable file (``read_input``).
    """

    def parse(text: str) -> list[dict]:
        reader = csv.DictReader(io.StringIO(text, newline=""))
        try:
            missing = [c for c in SWEEP_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"missing columns {missing}")
            return [_sweep_row(record) for record in reader]
        # since Python 3.11 a NUL byte gets past the csv module and fails in float()
        except (ValueError, csv.Error) as err:
            raise TaskFileError(f"{path}:{reader.line_num}: malformed sweep CSV ({err})") from err

    return read_input(path, parse, TaskFileError)


def _sweep_row(record: Mapping[str | None, str | None]) -> dict:
    # DictReader fills a short row with None and files a long row's extra
    # cells under the key None
    if None in record or None in record.values():
        raise ValueError("the row and the header differ in cell count")
    row: dict = {c: record[c] for c in SWEEP_COLUMNS[:4]}
    row["p"], row["seed"] = _unit_cell(record, "p"), int(record["seed"])
    for metric in METRIC_COLUMNS:
        row[metric] = _unit_cell(record, metric) if record[metric] else None
    return row


def _unit_cell(record: Mapping[str | None, str | None], column: str) -> float:
    value = float(record[column])
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise ValueError(f"{column} {record[column]!r} is not a number in [0, 1]")
    return value


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
