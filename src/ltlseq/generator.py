"""Labeled sequence generation by reachability-constrained random walks.

Every sequence is produced by walking the task DFA from its initial state,
choosing uniformly at each step among letters that both have at least one
concrete variable assignment and keep the requested final label reachable in
the remaining steps.  The walk therefore always terminates with the requested
label — no rejection sampling.

All randomness is derived from the master seed through per-(split, sequence)
hashes, so datasets are reproducible byte for byte and sequences can be
generated independently in any order.  Each sequence's stream is
``np.random.default_rng(hash)``; ``generate_dataset`` reads it through
``_Draws``, which fetches the stream's PCG64 words in blocks and draws each
``integers(n)`` from them exactly as numpy would, without numpy's per-call
cost.  The bytes therefore rest on the ``SeedSequence`` and PCG64 raw
streams, which NEP 19 keeps stable across numpy versions, and on Lemire's
bounded draw as numpy >= 1.17 implements it, which
``tests/test_generator.py`` pins against ``Generator.integers``.

``deserialize`` decodes ``sequences.csv`` in one pass, each row straight
into the sequence of its (split, seq_id).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import numbers
import operator
from dataclasses import dataclass, replace
from json.encoder import c_make_encoder as _c_make_encoder
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .automata import Dfa, letter_of
from .constraints import sample_solution
from .errors import DatasetFormatError, DomainError, IntegrityError, TaskFileError
from .tasks import SPLIT_NAMES, CompiledTask, TaskSpec, compile_task, read_input

GENERATOR_VERSION = "0.1.0"

# val has no image pool of its own: it draws from the train pool
_POOL_SPLIT = {"train": "train", "val": "train", "test": "test"}


def _digest_int(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _sequence_seed(seed: int, split: str, index: int) -> int:
    return _digest_int(f"{seed}:{split}:{index}")


def _sequence_rng(seed: int, split: str, index: int) -> np.random.Generator:
    return np.random.default_rng(_sequence_seed(seed, split, index))


_LOW32 = (1 << 32) - 1
_LOW64 = (1 << 64) - 1


class _Draws:
    """``np.random.default_rng(seed).integers(n)`` for scalar ``n``, the same
    draw for draw, from PCG64 words fetched ``block`` at a time.

    numpy's scalar path: a bound of 1 consumes nothing; a bound up to 2^32
    is 32-bit Lemire on PCG64's buffered ``next_uint32`` (a fresh word's low
    half, then its pending high half); a larger bound is 64-bit Lemire on
    whole words and leaves a pending half alone.  Lemire draws again while
    the product's low bits are below ``2^bits mod n``.
    """

    __slots__ = ("_bitgen", "_block", "_words", "_half")

    def __init__(self, seed: int, block: int) -> None:
        self._bitgen = np.random.PCG64(seed)
        self._block = block
        self._words = iter(())
        self._half: int | None = None

    def _word(self) -> int:
        word = next(self._words, None)
        if word is None:
            self._words = iter(self._bitgen.random_raw(self._block).tolist())
            word = next(self._words)
        return word

    def _next(self, bits: int) -> int:
        if bits == 64:
            return self._word()
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _LOW32
        self._half = None
        return half

    def integers(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"bound must be >= 1, got {n}")
        if n == 1:
            return 0
        bits, mask = (32, _LOW32) if n <= 1 << 32 else (64, _LOW64)
        m = self._next(bits) * n
        if m & mask < n:
            threshold = (mask + 1) % n
            while m & mask < threshold:
                m = self._next(bits) * n
        return m >> bits


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


def _integer(name: str, value, low: int, high: int) -> int:
    """``value`` as an int in ``[low, high]``, else DomainError (a bool is no integer here)."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and low <= value <= high):
        raise DomainError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def generate_sequence(
    task: CompiledTask,
    label: int,
    length: int,
    rng: np.random.Generator,
    seq_id: int = 0,
) -> SequenceSample:
    """One walk of ``length`` steps ending with the requested label.

    ``rng`` is any source with numpy's ``integers(n)``; each step draws the
    letter, then (in ``sample_solution``) its assignment.
    """
    label = _integer("label", label, 0, 1)
    length = _integer("length", length, 1, len(task.reach) - 1)
    if not task.reach[length][task.dfa.initial][label]:
        raise DomainError(
            f"task {task.spec.name!r}: label {label} unreachable at length {length}"
        )
    # looked up once per walk; the calls stay one per step (the benchmark's tracer counts them)
    feasible, bucket = task.feasible_letters, task.solution_bucket
    letter_truths, transitions, draw = task.letter_truths, task.dfa.transitions, rng.integers
    state = task.dfa.initial
    values, truths, states = [], [], []
    for step in range(length):
        letters = feasible(state, length - step, label)
        letter = letters[int(draw(len(letters)))]
        values.append(sample_solution(bucket(letter), rng))
        truths.append(letter_truths(letter))
        state = transitions[state][letter]
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

    Each sequence draws from its own ``(seed, split, index)`` stream, read
    through ``_Draws`` with one block of ``length + 1`` PCG64 words (about
    one word per step); the sequence equals ``generate_sequence`` on
    ``_sequence_rng(seed, split, index)``.  ``jobs`` is accepted for
    compatibility and starts no threads: the walks hold the GIL, so worker
    threads never ran them faster.
    """
    task = source if isinstance(source, CompiledTask) else compile_task(source)
    spec = task.spec
    splits: dict[str, list[SequenceSample]] = {}
    for split in SPLIT_NAMES:
        samples = splits[split] = []
        for i, (label, length) in enumerate(_split_plan(spec, split)):
            draws = _Draws(_sequence_seed(spec.seed, split, i), length + 1)
            samples.append(generate_sequence(task, label, length, draws, seq_id=i))
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
    """Write ``sequences.csv`` and ``metadata.json`` (through
    ``write_summary_json``); output is byte-stable."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atoms = ds.metadata["atoms"]
    variables = ds.spec.variables
    label_codes = [(v.name, dict(zip(v.domain.values, v.domain.labels))) for v in variables]
    with_indices = any(s.indices is not None for _, s in ds)
    # a truth dict's key -> its 0/1 cells, built once per distinct truth vector
    truth_key = operator.itemgetter(*atoms) if atoms else lambda truth: ()
    truth_cells: dict = {}
    with open(out_dir / "sequences.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_columns(ds.spec, atoms, with_indices))
        for split, sample in ds:
            for t in range(sample.length):
                row: list = [split, sample.seq_id, t]
                values = sample.values[t]
                try:
                    row += [codes[values[name]] for name, codes in label_codes]
                except KeyError:
                    # raises what a per-cell label_of raised: DomainError or KeyError
                    row += [v.domain.label_of(values[v.name]) for v in variables]
                if with_indices:
                    if sample.indices is None:
                        raise DomainError(
                            f"sample {split}/{sample.seq_id} has no image indices"
                        )
                    row += [sample.indices[t][v.name] for v in variables]
                truth = sample.truths[t]
                key = truth_key(truth)
                cells = truth_cells.get(key)
                if cells is None:
                    cells = truth_cells[key] = [int(truth[a]) for a in atoms]
                row += cells
                row += [sample.states[t], sample.label]
                writer.writerow(row)
    write_summary_json(ds.metadata, out_dir / "metadata.json")


def write_summary_json(summary: Mapping, path) -> None:
    """Write a JSON output file: UTF-8, two-space indent, sorted keys and a
    trailing newline.  Every JSON file the package writes goes through it.

    The bytes, and the exception for a value JSON cannot hold, are those of
    ``json.dump(summary, fh, indent=2, sort_keys=True)`` plus ``"\\n"``; see
    ``_render`` for how flat containers reach json's C encoder.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if _c_make_encoder is None:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(_render(summary, 0, set()) + "\n")


# JSON scalars whose C encoding equals the pure-Python one (exact types only)
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=None)
def _flat_encoder(depth: int):
    """json's C encoder, sorted keys, items separated by a newline and the
    pad of ``depth``: a flat container it writes is indented but for its
    brackets."""
    return _c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + "  " * depth, True, False, True,
    )


def _flat(value, depth: int) -> str:
    return "".join(_flat_encoder(depth)(value, 0))


def _render(value, depth: int, open_ids: set[int]) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it
    ``depth`` levels in, without the pad of its first line.

    A flat dict (``str`` keys, scalar values) or list of scalars is one C
    call whose item separator carries the indent.  A list of flat dicts is
    one C call at the dicts' entry depth: ``"},\\n<pad>{"`` can only come
    from the separator between two items (ensure_ascii leaves no raw newline
    in a string), so one ``replace`` puts the braces on their own lines.
    Anything else (empty containers, tuples, subclasses, other keys,
    non-JSON values) goes through ``json.dumps`` itself.
    """
    kind = type(value)
    if kind in _SCALARS:
        return _flat(value, 0)
    pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if not value or kind not in (dict, list) or (kind is dict and set(map(type, value)) != {str}):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)
    types = set(map(type, value.values() if kind is dict else value))
    if types <= _SCALARS:
        text = _flat(value, depth + 1)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if (
        types == {dict}
        and kind is list
        and all(value)
        and set(map(type, itertools.chain.from_iterable(value))) == {str}
        and set(map(type, itertools.chain.from_iterable(map(dict.values, value)))) <= _SCALARS
    ):
        entry = inner + "  "
        body = _flat(value, depth + 2)[2:-2]
        body = body.replace("}," + entry + "{", inner + "}," + inner + "{" + entry)
        return "[" + inner + "{" + entry + body + inner + "}" + pad + "]"
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(value))
    if kind is dict:
        items = sorted(value.items())
        parts = [_flat(k, 0) + ": " + _render(v, depth + 1, open_ids) for k, v in items]
    else:
        parts = [_render(v, depth + 1, open_ids) for v in value]
    open_ids.discard(id(value))
    brackets = "{}" if kind is dict else "[]"
    return brackets[0] + inner + ("," + inner).join(parts) + pad + brackets[1]


# the only cells the *_truth and seq_label columns accept
_TRUTHS = {"0": False, "1": True}
_LABELS = {"0": 0, "1": 1}


def _undecodable(row: list[str], label_cols, bit_cols) -> str:
    """Why a label or 0/1 cell of ``row`` does not decode (first in column order)."""
    labels = (
        f"label {row[i]!r} not in domain {domain.name!r}"
        for _, i, codes, domain in label_cols
        if row[i] not in codes
    )
    bits = (f"{col} cell {row[i]!r} is not 0 or 1" for col, i in bit_cols if row[i] not in _LABELS)
    return next(itertools.chain(labels, bits))


def deserialize(in_dir: str | Path, verify: bool = False) -> Dataset:
    """Load a serialized dataset.

    Every row must have as many cells as the header, and ``*_truth`` and
    ``seq_label`` cells must read exactly ``0`` or ``1``; errors name the
    physical line.  With ``verify=True`` also recomputes the spec hash and
    replays every truth vector through the stored DFA, raising
    IntegrityError on any mismatch with the recorded states or labels.
    """
    in_dir = Path(in_dir)
    meta_path = in_dir / "metadata.json"
    csv_path = in_dir / "sequences.csv"
    metadata = read_input(meta_path, json.loads, DatasetFormatError)
    if not isinstance(metadata, dict):
        raise DatasetFormatError(f"{meta_path}: expected a JSON object")
    for key in ("spec", "spec_hash", "seed", "atoms", "dfa"):
        if key not in metadata:
            raise DatasetFormatError(f"{meta_path}: missing key {key!r}")
    for key in ("spec", "dfa"):
        if not isinstance(metadata[key], dict):
            raise DatasetFormatError(f"{meta_path}: {key!r} must be an object")
    try:
        spec = TaskSpec.from_dict(metadata["spec"], where=str(meta_path))
    except TaskFileError as err:
        raise DatasetFormatError(str(err)) from err
    atoms, dfa_atoms = metadata["atoms"], metadata["dfa"].get("atoms")
    if not (atoms == dfa_atoms == list(spec.atoms)):
        raise DatasetFormatError(
            f"{meta_path}: atoms {atoms!r}, the stored DFA's atoms {dfa_atoms!r} and "
            f"the spec's constraint names {list(spec.atoms)} must be equal"
        )
    if verify and spec.spec_hash != metadata["spec_hash"]:
        raise IntegrityError(
            f"{meta_path}: spec hash {metadata['spec_hash']!r} does not match "
            f"the embedded spec ({spec.spec_hash!r})"
        )

    splits, letters = read_input(
        csv_path, lambda text: _decode_sequences(text, spec, csv_path), DatasetFormatError
    )
    ds = Dataset(spec=spec, splits=splits, metadata=metadata)
    if verify:
        _verify_replay(ds, letters)
    return ds


def _decode_sequences(
    text: str, spec: TaskSpec, csv_path: Path
) -> tuple[dict[str, list[SequenceSample]], dict[tuple[str, int], list[int]]]:
    """The samples of ``sequences.csv`` by split, and the letters of each
    (split, seq_id) for ``_verify_replay``.

    One pass: each row is decoded straight into the accumulator of its
    (split, seq_id), so no raw row outlives its line.  Errors name the
    physical line, ``reader.line_num``.
    """
    atoms = spec.atoms
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = _records(reader, csv_path)
    header = next(rows, [])
    with_indices = any(col.endswith("_index") for col in header)
    missing = [col for col in _columns(spec, atoms, with_indices) if col not in header]
    if missing:
        raise DatasetFormatError(f"{csv_path}: missing columns {missing}")
    width = len(header)
    # a repeated column reads its last occurrence
    pos = {col: i for i, col in enumerate(header)}
    label_cols = [
        (v.name, pos[f"{v.name}_label"], dict(zip(v.domain.labels, v.domain.values)), v.domain)
        for v in spec.variables
    ]
    truth_cols = [(a, pos[f"{a}_truth"]) for a in atoms]
    index_cols = [(v.name, pos[f"{v.name}_index"]) for v in spec.variables] if with_indices else []
    i_split, i_seq, i_t = pos["split"], pos["seq_id"], pos["t"]
    i_state, i_label = pos["state_after"], pos["seq_label"]
    bit_cols = [(f"{a}_truth", i) for a, i in truth_cols] + [("seq_label", i_label)]
    # the seq_label and *_truth cells of a row -> (label, truth dict, letter)
    bit_cells = operator.itemgetter(i_label, *(i for _, i in truth_cols))
    bit_codes: dict = {}

    # (split, seq_id) -> (label, values, truths, states, indices, letters)
    seqs: dict[tuple[str, int], tuple] = {}
    for row in rows:
        if not row:
            continue  # blank lines are not records
        if len(row) != width:
            raise DatasetFormatError(
                f"{csv_path}:{reader.line_num}: row has {len(row)} cells, the header has {width}"
            )
        try:
            key = (row[i_split], int(row[i_seq]))
            step = int(row[i_t])
            values = {name: codes[row[i]] for name, i, codes, _ in label_cols}
            cells = bit_cells(row)
            bits = bit_codes.get(cells)
            if bits is None:
                truth = {a: _TRUTHS[row[i]] for a, i in truth_cols}
                bits = bit_codes[cells] = (_LABELS[row[i_label]], truth, letter_of(truth, atoms))
            state = int(row[i_state])
            indices = {name: int(row[i]) for name, i in index_cols}
        except KeyError:
            reason = _undecodable(row, label_cols, bit_cols)
            raise DatasetFormatError(f"{csv_path}:{reader.line_num}: {reason}") from None
        except ValueError as err:
            raise DatasetFormatError(f"{csv_path}:{reader.line_num}: bad cell ({err})") from err
        label, truth, letter = bits
        acc = seqs.get(key)
        if acc is None:
            if key[0] not in SPLIT_NAMES:
                raise DatasetFormatError(f"{csv_path}:{reader.line_num}: unknown split {key[0]!r}")
            acc = seqs[key] = (label, [], [], [], [], [])
        seq_label, seq_values, seq_truths, seq_states, seq_indices, seq_letters = acc
        if step != len(seq_values):
            raise DatasetFormatError(
                f"{csv_path}:{reader.line_num}: time step {row[i_t]} out of order "
                f"(expected {len(seq_values)})"
            )
        if label != seq_label:
            raise DatasetFormatError(
                f"{csv_path}:{reader.line_num}: seq_label changes within sequence {key[1]}"
            )
        seq_values.append(values)
        seq_truths.append(truth.copy())
        seq_states.append(state)
        seq_letters.append(letter)
        if with_indices:
            seq_indices.append(indices)

    splits: dict[str, list[SequenceSample]] = {s: [] for s in SPLIT_NAMES}
    for (split, seq_id), (label, values, truths, states, indices, _) in seqs.items():
        splits[split].append(
            SequenceSample(
                seq_id=seq_id,
                label=label,
                values=tuple(values),
                truths=tuple(truths),
                states=tuple(states),
                indices=tuple(indices) if with_indices else None,
            )
        )
    return splits, {key: acc[-1] for key, acc in seqs.items()}


def _records(reader, csv_path: Path):
    """The rows of ``reader``; a ``csv.Error`` names its line like any other
    row error."""
    try:
        yield from reader
    except csv.Error as err:
        raise DatasetFormatError(f"{csv_path}:{reader.line_num}: unreadable ({err})") from err


def _verify_replay(ds: Dataset, letters: Mapping[tuple[str, int], Sequence[int]]) -> None:
    """Replay each sample's ``letters[split, seq_id]`` through the stored DFA."""
    dfa = Dfa.from_json_dict(ds.metadata["dfa"])
    transitions = dfa.transitions
    for split, sample in ds:
        state = dfa.initial
        for t, letter in enumerate(letters[split, sample.seq_id]):
            state = transitions[state][letter]
            if state != sample.states[t]:
                raise IntegrityError(
                    f"sequence {split}/{sample.seq_id}: replay diverges at step {t}"
                )
        if (state in dfa.accepting) != bool(sample.label):
            raise IntegrityError(
                f"sequence {split}/{sample.seq_id}: label does not match acceptance"
            )
