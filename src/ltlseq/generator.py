"""Labeled sequence generation by reachability-constrained random walks.

Every sequence is produced by walking the task DFA from its initial state,
choosing uniformly at each step among letters that both have at least one
concrete variable assignment and keep the requested final label reachable in
the remaining steps.  The walk therefore always terminates with the requested
label — no rejection sampling.

All randomness is derived from the master seed through per-(split, sequence)
hashes, so datasets are reproducible byte for byte and sequences can be
generated independently in any order.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .automata import Dfa, assignment_of, letter_of
from .constraints import sample_solution
from .errors import DatasetFormatError, DomainError, IntegrityError
from .tasks import SPLIT_NAMES, CompiledTask, TaskSpec, compile_task

GENERATOR_VERSION = "0.1.0"

# val has no image pool of its own: it draws from the train pool
_POOL_SPLIT = {"train": "train", "val": "train", "test": "test"}


def _digest_int(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _sequence_rng(seed: int, split: str, index: int) -> np.random.Generator:
    return np.random.default_rng(_digest_int(f"{seed}:{split}:{index}"))


@dataclass
class SequenceSample:
    """One annotated sequence: assignments, truths, and the state trace."""

    seq_id: int
    label: int
    values: tuple[dict[str, int], ...]
    truths: tuple[dict[str, bool], ...]
    states: tuple[int, ...]
    indices: tuple[dict[str, int], ...] | None = None

    @property
    def length(self) -> int:
        return len(self.values)


@dataclass
class Dataset:
    spec: TaskSpec
    splits: dict[str, list[SequenceSample]]
    metadata: dict

    def __iter__(self):
        for split in SPLIT_NAMES:
            for sample in self.splits.get(split, []):
                yield split, sample


def generate_sequence(
    task: CompiledTask,
    label: int,
    length: int,
    rng: np.random.Generator,
    seq_id: int = 0,
) -> SequenceSample:
    """One walk of ``length`` steps ending with the requested label."""
    if label not in (0, 1):
        raise DomainError(f"label must be 0 or 1, got {label!r}")
    if not task.reach[length][task.dfa.initial][label]:
        raise DomainError(
            f"task {task.spec.name!r}: label {label} unreachable at length {length}"
        )
    state = task.dfa.initial
    values, truths, states = [], [], []
    for step in range(length):
        letters = task.feasible_letters(state, length - step, label)
        letter = letters[int(rng.integers(len(letters)))]
        values.append(sample_solution(task.solutions[letter], rng))
        truths.append(assignment_of(letter, task.atoms))
        state = task.dfa.transitions[state][letter]
        states.append(state)
    assert (states[-1] in task.dfa.accepting) == bool(label)
    return SequenceSample(
        seq_id=seq_id,
        label=label,
        values=tuple(values),
        truths=tuple(truths),
        states=tuple(states),
    )


def _split_plan(spec: TaskSpec, split: str) -> list[tuple[int, int]]:
    """(label, length) per sequence; label counts hit the ratio exactly."""
    n = spec.split_counts[split]
    n_pos = spec.positive_count(split)
    labels = [1] * n_pos + [0] * (n - n_pos)
    rng = np.random.default_rng(_digest_int(f"{spec.seed}:{split}:plan"))
    rng.shuffle(labels)
    lengths = rng.integers(spec.min_length, spec.max_length + 1, size=n)
    return list(zip(labels, (int(x) for x in lengths)))


def generate_dataset(source: TaskSpec | CompiledTask, jobs: int = 1) -> Dataset:
    """Full train/val/test dataset for a task, deterministic in its seed.

    Each sequence draws from its own ``(seed, split, index)`` stream, so
    ``jobs > 1`` only bounds worker threads — the output is identical.
    """
    task = source if isinstance(source, CompiledTask) else compile_task(source)
    spec = task.spec

    def build(split: str, index: int, label: int, length: int) -> SequenceSample:
        rng = _sequence_rng(spec.seed, split, index)
        return generate_sequence(task, label, length, rng, seq_id=index)

    splits: dict[str, list[SequenceSample]] = {}
    for split in SPLIT_NAMES:
        plan = _split_plan(spec, split)
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                samples = list(
                    pool.map(lambda a: build(*a), [(split, i, lb, ln) for i, (lb, ln) in enumerate(plan)])
                )
        else:
            samples = [build(split, i, lb, ln) for i, (lb, ln) in enumerate(plan)]
        splits[split] = samples
    metadata = {
        "spec": spec.to_dict(),
        "spec_hash": spec.spec_hash,
        "seed": spec.seed,
        "generator_version": GENERATOR_VERSION,
        "atoms": list(task.atoms),
        "dfa": task.dfa.to_json_dict(),
    }
    return Dataset(spec=spec, splits=splits, metadata=metadata)


ImagePools = Mapping[str, Mapping[str, Mapping[str, Sequence[int]]]]


def attach_image_indices(ds: Dataset, pools: ImagePools, resample_epoch: int = 0) -> Dataset:
    """Give every per-step variable an image index from its class pool.

    ``pools[split][source][class_label]`` lists candidate image indices;
    only "train" and "test" pools exist (val draws from train).  Indices are
    a pure function of (seed, split, sequence, step, variable, epoch), so a
    new epoch resamples images while class labels stay fixed.
    """
    seed = ds.metadata["seed"]
    vmap = {v.name: v for v in ds.spec.variables}
    new_splits: dict[str, list[SequenceSample]] = {}
    for split, samples in ds.splits.items():
        pool_split = _POOL_SPLIT.get(split, split)
        out = []
        for sample in samples:
            per_step = []
            for step, assignment in enumerate(sample.values):
                chosen = {}
                for var, value in assignment.items():
                    v = vmap[var]
                    label = v.domain.label_of(value)
                    pool = pools.get(pool_split, {}).get(v.source, {}).get(label)
                    if not pool:
                        raise DomainError(
                            f"no image pool for class {label!r} "
                            f"(source {v.source!r}, split {pool_split!r})"
                        )
                    h = _digest_int(
                        f"{seed}:{split}:{sample.seq_id}:{step}:{var}:{resample_epoch}"
                    )
                    chosen[var] = int(pool[h % len(pool)])
                per_step.append(chosen)
            out.append(replace(sample, indices=tuple(per_step)))
        new_splits[split] = out
    return Dataset(spec=ds.spec, splits=new_splits, metadata=dict(ds.metadata))


# ---------------------------------------------------------------------------
# Serialization: sequences.csv + metadata.json


def _columns(spec: TaskSpec, atoms: Sequence[str], with_indices: bool) -> list[str]:
    cols = ["split", "seq_id", "t"]
    cols += [f"{v.name}_label" for v in spec.variables]
    if with_indices:
        cols += [f"{v.name}_index" for v in spec.variables]
    cols += [f"{a}_truth" for a in atoms]
    cols += ["state_after", "seq_label"]
    return cols


def serialize(ds: Dataset, out_dir: str | Path) -> None:
    """Write ``sequences.csv`` and ``metadata.json``; output is byte-stable."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atoms = ds.metadata["atoms"]
    vmap = {v.name: v for v in ds.spec.variables}
    with_indices = any(s.indices is not None for _, s in ds)
    with open(out_dir / "sequences.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_columns(ds.spec, atoms, with_indices))
        for split, sample in ds:
            for t in range(sample.length):
                row: list = [split, sample.seq_id, t]
                row += [
                    vmap[v.name].domain.label_of(sample.values[t][v.name])
                    for v in ds.spec.variables
                ]
                if with_indices:
                    if sample.indices is None:
                        raise DomainError(
                            f"sample {split}/{sample.seq_id} has no image indices"
                        )
                    row += [sample.indices[t][v.name] for v in ds.spec.variables]
                row += [int(sample.truths[t][a]) for a in atoms]
                row += [sample.states[t], sample.label]
                writer.writerow(row)
    with open(out_dir / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(ds.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def deserialize(in_dir: str | Path, verify: bool = False) -> Dataset:
    """Load a serialized dataset.

    With ``verify=True`` also recomputes the spec hash and replays every
    truth vector through the stored DFA, raising IntegrityError on any
    mismatch with the recorded states or labels.
    """
    in_dir = Path(in_dir)
    meta_path = in_dir / "metadata.json"
    csv_path = in_dir / "sequences.csv"
    try:
        metadata = json.loads(meta_path.read_text(encoding="utf-8"))
    except OSError as err:
        raise DatasetFormatError(f"{meta_path}: {err}") from err
    except UnicodeDecodeError as err:
        raise DatasetFormatError(f"{meta_path}: not UTF-8 text ({err})") from err
    except json.JSONDecodeError as err:
        raise DatasetFormatError(f"{meta_path}: invalid JSON: {err}") from err
    for key in ("spec", "spec_hash", "seed", "atoms", "dfa"):
        if key not in metadata:
            raise DatasetFormatError(f"{meta_path}: missing key {key!r}")
    spec = TaskSpec.from_dict(metadata["spec"], where=str(meta_path))
    atoms = list(metadata["atoms"])
    vmap = {v.name: v for v in spec.variables}

    if verify and spec.spec_hash != metadata["spec_hash"]:
        raise IntegrityError(
            f"{meta_path}: spec hash {metadata['spec_hash']!r} does not match "
            f"the embedded spec ({spec.spec_hash!r})"
        )

    try:
        fh = open(csv_path, newline="", encoding="utf-8")
    except OSError as err:
        raise DatasetFormatError(f"{csv_path}: {err}") from err
    try:
        with fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            with_indices = any(col.endswith("_index") for col in header)
            needed = _columns(spec, atoms, with_indices)
            missing = [col for col in needed if col not in header]
            if missing:
                raise DatasetFormatError(f"{csv_path}: missing columns {missing}")

            groups: dict[tuple[str, int], list[dict]] = {}
            order: list[tuple[str, int]] = []
            for line_no, row in enumerate(reader, start=2):
                try:
                    key = (row["split"], int(row["seq_id"]))
                except (TypeError, ValueError) as err:
                    raise DatasetFormatError(f"{csv_path}:{line_no}: bad seq_id") from err
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(row | {"_line": line_no})
    except UnicodeDecodeError as err:
        raise DatasetFormatError(f"{csv_path}: not UTF-8 text ({err})") from err

    splits: dict[str, list[SequenceSample]] = {s: [] for s in SPLIT_NAMES}
    for split, seq_id in order:
        if split not in splits:
            raise DatasetFormatError(f"{csv_path}: unknown split {split!r}")
        rows = groups[(split, seq_id)]
        values, truths, states, indices = [], [], [], []
        label = None
        for t, row in enumerate(rows):
            line = row["_line"]
            try:
                step = int(row["t"])
                values.append(
                    {v.name: v.domain.value_of(row[f"{v.name}_label"]) for v in spec.variables}
                )
                truths.append({a: bool(int(row[f"{a}_truth"])) for a in atoms})
                states.append(int(row["state_after"]))
                if with_indices:
                    indices.append(
                        {v.name: int(row[f"{v.name}_index"]) for v in spec.variables}
                    )
                row_label = int(row["seq_label"])
            except DomainError as err:
                raise DatasetFormatError(f"{csv_path}:{line}: {err}") from err
            except (TypeError, ValueError) as err:
                raise DatasetFormatError(f"{csv_path}:{line}: bad cell ({err})") from err
            if step != t:
                raise DatasetFormatError(
                    f"{csv_path}:{line}: time step {row['t']} out of order (expected {t})"
                )
            if label is None:
                label = row_label
            elif label != row_label:
                raise DatasetFormatError(
                    f"{csv_path}:{line}: seq_label changes within sequence {seq_id}"
                )
        splits[split].append(
            SequenceSample(
                seq_id=seq_id,
                label=int(label),
                values=tuple(values),
                truths=tuple(truths),
                states=tuple(states),
                indices=tuple(indices) if with_indices else None,
            )
        )

    ds = Dataset(spec=spec, splits=splits, metadata=metadata)
    if verify:
        _verify_replay(ds)
    return ds


def _verify_replay(ds: Dataset) -> None:
    dfa = Dfa.from_json_dict(ds.metadata["dfa"])
    atoms = dfa.atoms
    for split, sample in ds:
        state = dfa.initial
        for t, truth in enumerate(sample.truths):
            state = dfa.transitions[state][letter_of(truth, atoms)]
            if state != sample.states[t]:
                raise IntegrityError(
                    f"sequence {split}/{sample.seq_id}: replay diverges at step {t}"
                )
        if (state in dfa.accepting) != bool(sample.label):
            raise IntegrityError(
                f"sequence {split}/{sample.seq_id}: label does not match acceptance"
            )
