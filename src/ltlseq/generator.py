"""Labeled sequence generation by reachability-constrained random walks.

Every sequence is produced by walking the task DFA from its initial state,
choosing uniformly at each step among letters that both have at least one
concrete variable assignment and keep the requested final label reachable in
the remaining steps.  The walk therefore always terminates with the requested
label — no rejection sampling.

All randomness is derived from the master seed through per-(split, sequence)
hashes, so datasets are reproducible byte for byte and sequences can be
generated independently in any order.  Each sequence's stream is
``np.random.default_rng(hash)``, and ``generate_sequence`` on it is the
scalar reference walk.  ``generate_dataset`` walks all sequences of a split
at once instead (``_lockstep``): it stacks the first ``length + 1`` PCG64
words of each stream, and at each time step draws every walk's letter from
``CompiledTask.feasible`` and then its grid point from the flat bucket
array, by 32-bit Lemire on each walk's own half words, exactly as numpy's
``integers(n)`` would.  A walk whose draw Lemire would reject is redone by
``generate_sequence`` on ``_Draws``, which reads the stream's words in blocks
with numpy's scalar draw rules.  The bytes therefore rest on the
``SeedSequence`` and PCG64 raw streams, which NEP 19 keeps stable across
numpy versions, and on Lemire's bounded draw as numpy >= 1.17 implements
it, which ``tests/test_generator.py`` pins against ``Generator.integers``.
Being fixed algorithms, the streams are computed for a whole split at once
(``streams.stream_words``), which the tests pin against
``np.random.PCG64``; a bit generator is built only for a redone walk.

A sample stores two ints per step: the grid point of its assignment over
``variables`` (``constraints.grid_positions``) and its letter, bit i the
truth of constraint ``atoms[i]``.  The walk draws both, ``serialize`` writes
the ``*_label`` and ``*_truth`` cells from them, ``deserialize`` decodes the
cells into them and the verified load replays the letters.
``SequenceSample.values`` and ``.truths`` read dicts off them.

``serialize`` checks every sample and renders ``metadata.json`` before it
opens a file.  It renders each domain label once with ``csv`` itself, then
the ``*_label`` text of each distinct grid point and the ``*_truth`` text of
each distinct letter, and joins each row from those pieces; the rows of a
sample go out in one ``writelines``.

``deserialize`` decodes ``sequences.csv`` by columns first
(``_decode_columns``).  Text as ``serialize`` writes it (no quote or NUL,
CR LF line breaks, every row as wide as the header, each sequence's rows
together) is split into cells a block of rows at a time, and each column of
a block is decoded by one ``map``; the verified load then checks every
recorded state with one gather over the transition table
(``_replay_matches``).  Any other text goes to the row decoder
(``_decode_sequences``), one ``csv.reader`` pass, and a gather that finds a
mismatch hands over to the scalar replay (``_verify_replay``).  Those two
are the reference and the only code that names a bad line, so samples,
errors and exit codes do not depend on which decoder ran.
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

from .automata import Dfa, assignment_of
from .constraints import VariableSpec, grid_assignments, grid_points, grid_positions, sample_solution
from .errors import DatasetFormatError, DomainError, IntegrityError, TaskFileError
from .streams import stream_words
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
_DOUBLE_UNIT = 2.0**-53  # next_double's scale: 53 random bits to [0, 1)


def _next_doubles(words: Sequence[int]) -> np.ndarray:
    """numpy's ``next_double`` of each PCG64 word: its top 53 bits times
    2^-53, what ``_Draws.random`` draws from one word."""
    return (np.array(words, dtype=np.uint64) >> 11) * _DOUBLE_UNIT


class _Draws:
    """``np.random.default_rng(seed)``'s scalar ``random()`` and
    ``integers(n)``, the same draw for draw, from PCG64 words fetched
    ``block`` at a time.

    numpy's scalar paths: ``random()`` is ``next_double``, a whole word's top
    53 bits times 2^-53, and leaves a pending 32-bit half alone.  For
    ``integers(n)`` a bound of 1 consumes nothing; a bound up to 2^32 is
    32-bit Lemire on PCG64's buffered ``next_uint32`` (a fresh word's low
    half, then its pending high half); a larger bound is 64-bit Lemire on
    whole words and leaves a pending half alone.  Lemire draws again while
    the product's low bits are below ``2^bits mod n``.

    This is the scalar path: the reference the array draws are tested
    against, and the replay of a sequence whose array draws cannot finish
    (``_lockstep``'s redone walks, ``harness._flip_labels``' replayed rows).
    """

    __slots__ = ("_bitgen", "_block", "_words", "_pos", "_half")

    def __init__(self, seed: int, block: int) -> None:
        self._bitgen = np.random.PCG64(seed)
        self._block = block
        self._words: list[int] = []
        self._pos = 0
        self._half: int | None = None

    def _fetch(self) -> None:
        self._words.extend(self._bitgen.random_raw(self._block).tolist())

    def _word(self) -> int:
        pos = self._pos
        self._pos = pos + 1
        try:
            return self._words[pos]
        except IndexError:
            self._fetch()
            return self._words[pos]

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

    def random(self) -> float:
        # _word inlined: this is a flip oracle's draw for every entry
        pos = self._pos
        self._pos = pos + 1
        try:
            word = self._words[pos]
        except IndexError:
            self._fetch()
            word = self._words[pos]
        return (word >> 11) * _DOUBLE_UNIT

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
    """One annotated sequence: each step's grid point over ``variables``
    (its assignment), its letter over ``atoms`` (bit i = truth of constraint
    ``atoms[i]``) and the state after it, plus image indices once attached."""

    seq_id: int
    label: int
    points: tuple[int, ...]
    variables: tuple[VariableSpec, ...]
    letters: tuple[int, ...]
    atoms: tuple[str, ...]
    states: tuple[int, ...]
    indices: tuple[dict[str, int], ...] | None = None

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def values(self) -> tuple[dict[str, int], ...]:
        """Each step's ``{variable: value}``, read off its grid point; fresh dicts on every read."""
        return grid_assignments(self.points, self.variables)

    @property
    def truths(self) -> tuple[dict[str, bool], ...]:
        """Each step's ``{atom: truth}``, read off its letter; fresh dicts on every read."""
        return tuple(assignment_of(letter, self.atoms) for letter in self.letters)


@dataclass
class Dataset:
    spec: TaskSpec
    splits: dict[str, list[SequenceSample]]
    metadata: dict

    @functools.cached_property
    def dfa(self) -> Dfa:
        """The automaton ``metadata["dfa"]`` stores, in whose numbering the
        ``state_after`` column was written; parsed on first read, then kept."""
        return Dfa.from_json_dict(self.metadata["dfa"])

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


def _checked_plan(task: CompiledTask, label, length) -> tuple[int, int]:
    """``(label, length)`` as ints, else DomainError: a walk needs a length
    inside the reach table and a label reachable at it."""
    label = _integer("label", label, 0, 1)
    length = _integer("length", length, 1, len(task.reach) - 1)
    if not task.reach[length, task.dfa.initial, label]:
        raise DomainError(
            f"task {task.spec.name!r}: label {label} unreachable at length {length}"
        )
    return label, length


def generate_sequence(
    task: CompiledTask,
    label: int,
    length: int,
    rng: np.random.Generator,
    seq_id: int = 0,
) -> SequenceSample:
    """One walk of ``length`` steps ending with the requested label.

    ``rng`` is any source with numpy's ``integers(n)``; each step draws the
    letter, then (in ``sample_solution``) its grid point.  This is the scalar
    reference of ``generate_dataset``'s lockstep walk.
    """
    label, length = _checked_plan(task, label, length)
    feasible, buckets = task.feasible_letters, task.solutions
    transitions, draw = task.dfa.transitions.tolist(), rng.integers
    state = task.dfa.initial
    points, letters, states = [], [], []
    for step in range(length):
        choices = feasible(state, length - step, label)
        letter = choices[int(draw(len(choices)))]
        points.append(sample_solution(buckets[letter], rng))
        letters.append(letter)
        state = transitions[state][letter]
        states.append(state)
    assert (states[-1] in task.dfa.accepting) == bool(label)
    return SequenceSample(
        seq_id, label, tuple(points), task.spec.variables, tuple(letters), task.atoms, tuple(states)
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


def _split_words(seed: int, split: str, lengths: Sequence[int]) -> np.ndarray:
    """Row i: the first ``lengths[i] + 1`` PCG64 words of sequence i's
    ``(seed, split, i)`` stream, what ``_Draws`` fetches first, zero-padded
    to the longest row.  ``streams.stream_words`` seeds every stream of the
    split in one pass and builds no bit generator."""
    seeds = [_sequence_seed(seed, split, i) for i in range(len(lengths))]
    return stream_words(seeds, np.asarray(lengths, dtype=np.intp) + 1)


# numpy scalars, so the walk's uint64 arithmetic stays uint64
_WORD, _HALF, _SHIFT = np.uint64(1 << 32), np.uint64(_LOW32), np.uint64(32)


def _lockstep(
    task: CompiledTask, labels: np.ndarray, lengths: np.ndarray, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every walk of a split at once, one array step per time step.

    Walk i has ``labels[i]``, ``lengths[i]`` and the words ``words[i]``.
    Returns its letters (as positions in ``task.usable_letters``), grid
    points and states as rows of three walks × max-length arrays, and a
    mask of the walks to redo with ``generate_sequence``.

    Each step draws the letter, then its grid point, as ``_Draws.integers``
    does: 32-bit Lemire on the walk's next half word (a word's low half,
    then its high half); a bound of 1 reads nothing.  Letter sets hold at
    most 2^16 letters and buckets at most 2^24 points, so every bound takes
    the 32-bit path.  A draw that Lemire would reject marks its walk for the
    redo.  Two draws a step read at most ``2 * length`` halves of the
    ``length + 1`` words, so no walk runs out of its words.
    """
    table = task.feasible
    ids, members, letters = table.ids, table.members, np.array(task.usable_letters)
    counts = table.counts.astype(np.uint64)
    # Lemire rejects a low half below its floor; a walk never meets an empty set
    count_floor = _WORD % np.maximum(counts, np.uint64(1))
    buckets = [task.solutions[letter] for letter in task.usable_letters]
    sizes = np.array([len(b) for b in buckets], dtype=np.uint64)
    size_floor = _WORD % sizes
    offsets = (np.cumsum(sizes) - sizes).astype(np.intp)
    points = np.concatenate([b.points for b in buckets])
    accepting = np.zeros(task.dfa.n_states, dtype=bool)
    accepting[list(task.dfa.accepting)] = True

    # walks longest first, so the walks still going at step t are a prefix
    order = np.argsort(-lengths, kind="stable")
    labels, lengths = labels[order], lengths[order]
    n, steps = len(lengths), int(lengths.max(initial=0))
    words = words[order]
    halves = np.empty((n, 2 * words.shape[1]), dtype=np.uint64)
    halves[:, 0::2] = words & _HALF
    halves[:, 1::2] = words >> _SHIFT
    halves = halves.ravel()
    cursor = np.arange(n, dtype=np.intp) * (2 * words.shape[1])
    state = np.full(n, task.dfa.initial, dtype=np.intp)
    redo = np.zeros(n, dtype=bool)
    # letter positions, points and states: below 2^16, 2^24 and MAX_DFA_STATES
    out = np.zeros((3, n, steps), dtype=np.int32)
    going = np.count_nonzero(lengths[:, None] > np.arange(steps), axis=0)
    for t, k in enumerate(going.tolist()):
        at, s = cursor[:k], state[:k]
        set_id = ids[lengths[:k] - t - 1, s, labels[:k]]
        bound = counts[set_id]
        m = halves[at] * bound
        rejected = m & _HALF < count_floor[set_id]
        at = at + (bound > 1)
        u = members[set_id, (m >> _SHIFT).astype(np.intp)]
        bound = sizes[u]
        m = halves[at] * bound
        rejected |= m & _HALF < size_floor[u]
        cursor[:k] = at + (bound > 1)
        redo[:k] |= rejected
        s = state[:k] = task.dfa.transitions[s, letters[u]]
        out[0, :k, t] = u
        out[1, :k, t] = points[offsets[u] + (m >> _SHIFT).astype(np.intp)]
        out[2, :k, t] = s
    assert (accepting[state] == labels.astype(bool))[~redo].all()
    back = np.empty_like(order)
    back[order] = np.arange(n)
    return out[0, back], out[1, back], out[2, back], redo[back]


def _generate_split(task: CompiledTask, split: str) -> list[SequenceSample]:
    """The samples of one split: ``_lockstep`` on the words of
    ``_split_words``, and a redone walk on its ``_Draws`` for each walk it
    marks."""
    spec = task.spec
    plan = _split_plan(spec, split)
    for label, length in dict.fromkeys(plan):  # distinct pairs, first in plan order
        _checked_plan(task, label, length)
    labels = np.array([label for label, _ in plan], dtype=np.intp)
    lengths = np.array([length for _, length in plan], dtype=np.intp)
    words = _split_words(spec.seed, split, lengths.tolist())
    *walked, redo = _lockstep(task, labels, lengths, words)
    # each array's steps, walk after walk in one flat list: no list per walk
    taken = np.arange(walked[0].shape[1]) < lengths[:, None]
    uses, points, states = (a[taken].tolist() for a in walked)
    # the letters are the usable_letters ints themselves: one object per letter
    letters = list(map(task.usable_letters.__getitem__, uses))
    variables, atoms = spec.variables, task.atoms
    samples = []
    end = 0
    for i, ((label, length), again) in enumerate(zip(plan, redo.tolist())):
        start, end = end, end + length
        if again:
            draws = _Draws(_sequence_seed(spec.seed, split, i), length + 1)
            samples.append(generate_sequence(task, label, length, draws, seq_id=i))
        else:
            samples.append(
                SequenceSample(
                    i, label, tuple(points[start:end]), variables,
                    tuple(letters[start:end]), atoms, tuple(states[start:end]),
                )
            )
    return samples


def generate_dataset(source: TaskSpec | CompiledTask, jobs: int = 1) -> Dataset:
    """Full train/val/test dataset for a task, deterministic in its seed.

    Each sequence draws from its own ``(seed, split, index)`` stream, and
    equals ``generate_sequence`` on ``_sequence_rng(seed, split, index)``.
    The walks of a split run in lockstep (``_lockstep``), each on the first
    ``length + 1`` words of its stream, and those words come from one
    ``streams.stream_words`` pass per split: no bit generator is built
    except for a walk that Lemire rejects, which is redone on its own
    ``_Draws``.
    ``jobs`` is accepted for compatibility and starts no threads.
    """
    task = source if isinstance(source, CompiledTask) else compile_task(source)
    spec = task.spec
    splits = {split: _generate_split(task, split) for split in SPLIT_NAMES}
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
    new_splits: dict[str, list[SequenceSample]] = {}
    for split, samples in ds.splits.items():
        pool_split = _POOL_SPLIT.get(split, split)
        out = []
        for sample in samples:
            per_step = []
            for step, row in enumerate(grid_positions(sample.points, sample.variables).tolist()):
                chosen = {}
                for v, i in zip(sample.variables, row):
                    label = v.domain.labels[i]
                    pool = pools.get(pool_split, {}).get(v.source, {}).get(label)
                    if not pool:
                        raise DomainError(
                            f"no image pool for class {label!r} "
                            f"(source {v.source!r}, split {pool_split!r})"
                        )
                    h = _digest_int(
                        f"{seed}:{split}:{sample.seq_id}:{step}:{v.name}:{resample_epoch}"
                    )
                    chosen[v.name] = int(pool[h % len(pool)])
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
    """Write ``sequences.csv`` and ``metadata.json`` (as
    ``write_summary_json`` writes it); output is byte-stable.

    Every sample is checked, and the metadata rendered, before any file is
    opened, so a refused dataset leaves ``out_dir`` as it was.  A row is
    joined from cells rendered once: each label as ``csv`` quotes it, the
    ``*_label`` cells of each distinct grid point and the ``*_truth`` cells
    of each distinct letter.
    """
    atoms = list(ds.metadata["atoms"])
    variables = ds.spec.variables
    with_indices = any(s.indices is not None for _, s in ds)
    index_cells = [_index_cells(split, s, atoms, variables, with_indices) for split, s in ds]
    metadata = _summary_text(ds.metadata)
    points = list(dict.fromkeys(itertools.chain.from_iterable(s.points for _, s in ds)))
    positions = grid_positions(points, variables)
    columns = [
        np.array(list(map(_label_cell, v.domain.labels)), dtype=object)[positions[:, i]].tolist()
        for i, v in enumerate(variables)
    ]
    cells = map("".join, zip(*columns)) if columns else itertools.repeat("")
    label_cells = dict(zip(points, cells))
    truth_cells = {
        letter: "".join(",1" if letter >> i & 1 else ",0" for i in range(len(atoms)))
        for letter in set(itertools.chain.from_iterable(s.letters for _, s in ds))
    }
    times = list(map(str, range(max((s.length for _, s in ds), default=0))))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sequences.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(_columns(ds.spec, atoms, with_indices))
        for (split, sample), indices in zip(ds, index_cells):
            head, tail = f"{split},{sample.seq_id},", f",{sample.label}\r\n"
            steps = zip(times, sample.points, indices, sample.letters, sample.states)
            fh.writelines([
                f"{head}{t}{label_cells[p]}{i}{truth_cells[u]},{s}{tail}" for t, p, i, u, s in steps
            ])
    (out_dir / "metadata.json").write_text(metadata, encoding="utf-8")


def _index_cells(split: str, sample: SequenceSample, atoms, variables, with_indices: bool):
    """Each step's ``*_index`` cells, each after its comma ("" for every step
    without indices); DomainError if the sample is not over ``atoms`` and
    ``variables``, or an index is missing or not an integer."""
    where = f"sample {split}/{sample.seq_id}"
    if list(sample.atoms) != atoms:
        raise DomainError(f"{where} is over atoms {list(sample.atoms)}, the dataset over {atoms}")
    if sample.variables != variables:
        raise DomainError(
            f"{where} is not over the dataset's variables {[v.name for v in variables]}"
        )
    if not len(sample.points) == len(sample.letters) == len(sample.states):
        raise DomainError(f"{where} has unequal numbers of points, letters and states")
    if not with_indices:
        return itertools.repeat("")
    if sample.indices is None or len(sample.indices) != sample.length:
        raise DomainError(f"{where} has no image indices for each of its {sample.length} steps")
    cells = ",%d" * len(variables)
    return [
        cells % tuple(_index(where, t, step, v.name) for v in variables)
        for t, step in enumerate(sample.indices)
    ]


def _index(where: str, t: int, step: Mapping, name: str) -> int:
    value = step.get(name)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        what = f"image index {value!r} is not an integer" if name in step else "no image index"
        raise DomainError(f"{where} step {t}, variable {name!r}: {what}")
    return int(value)


def _label_cell(label: str) -> str:
    """``label`` as a cell after its comma, as ``csv.writer`` quotes it:
    written after an empty cell, so an empty label stays empty, not ``""``."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", label])
    return buf.getvalue()[:-2]  # less the "\r\n"


def write_summary_json(summary: Mapping, path) -> None:
    """Write a JSON output file: UTF-8, two-space indent, sorted keys and a
    trailing newline.  Every JSON file the package writes goes through it.

    The bytes, and the exception for a value JSON cannot hold, are those of
    ``json.dump(summary, fh, indent=2, sort_keys=True)`` plus ``"\\n"``; see
    ``_render`` for how flat containers reach json's C encoder.  The text is
    rendered before the file is opened, so a failed render leaves it as it was.
    """
    text = _summary_text(summary)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _summary_text(summary: Mapping) -> str:
    if _c_make_encoder is None:
        return json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return _render(summary, 0, set()) + "\n"


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
    call whose item separator carries the indent; other dicts and lists
    recurse, so a list of int lists is one C call per inner list.
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
_BITS = {"0": 0, "1": 1}


def _undecodable(row: list[str], label_cols, bit_cols) -> str:
    """Why a label or 0/1 cell of ``row`` does not decode (first in column order)."""
    labels = (
        f"label {row[i]!r} not in domain {domain.name!r}"
        for i, codes, domain in label_cols
        if row[i] not in codes
    )
    bits = (f"{col} cell {row[i]!r} is not 0 or 1" for col, i in bit_cols if row[i] not in _BITS)
    return next(itertools.chain(labels, bits))


def deserialize(in_dir: str | Path, verify: bool = False) -> Dataset:
    """Load a serialized dataset.

    Every row must have as many cells as the header, and ``*_truth`` and
    ``seq_label`` cells must read exactly ``0`` or ``1``; errors name the
    physical line; a row's ``*_label`` cells become its step's grid point and
    its ``*_truth`` cells its letter.  With
    ``verify=True`` also recomputes the spec hash and replays every
    sample's letters through ``Dataset.dfa``, raising IntegrityError on any
    mismatch with the recorded states or labels.  Errors of the stored DFA
    name ``metadata.json``.

    ``_decode_columns`` decodes the text when it can, and the verified load
    then replays with one gather (``_replay_matches``).  When the columnar
    decoder defers, ``_decode_sequences`` decodes the text, and the scalar
    ``_verify_replay`` runs whenever no gather ran or the gather found a
    mismatch; they raise every error.
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

    splits, lines, trace = read_input(
        csv_path,
        lambda text: _decode_columns(text, spec) or (*_decode_sequences(text, spec, csv_path), None),
        DatasetFormatError,
    )
    ds = Dataset(spec=spec, splits=splits, metadata=metadata)
    if verify:
        try:
            ds.dfa
        except IntegrityError as err:
            raise IntegrityError(f"{meta_path}: {err}") from err
        except DomainError as err:
            raise DatasetFormatError(f"{meta_path}: {err}") from err
        if trace is None or not _replay_matches(ds.dfa, *trace):
            _verify_replay(ds, lines, csv_path)
    return ds


# characters of sequences.csv that the columnar decoder splits into cells at once
_BLOCK_CHARS = 1 << 18


def _decode_columns(text: str, spec: TaskSpec):
    """``_decode_sequences``'s samples and lines, plus the flat arrays
    ``_replay_matches`` reads, decoded a column at a time; None when the text
    needs the row decoder.

    It takes only text that ``csv.reader`` splits at every comma: no quote
    or NUL, every line ended by CR LF, no line longer than
    ``csv.field_size_limit()`` and every row as wide as the header.  Rows
    are split into cells one block of about ``_BLOCK_CHARS`` characters at a
    time, and each column of a block is decoded by one ``map``.  A cell that
    does not decode, a value past int64, an unknown split, a sequence whose
    rows are not contiguous, a time step out of order or a label that changes
    within a sequence all return None, and the row decoder names the line.
    """
    atoms, variables = spec.atoms, spec.variables
    head = text.find("\r\n")
    limit = csv.field_size_limit()
    if not (0 <= head <= limit and text.endswith("\r\n")) or '"' in text or "\0" in text:
        return None
    header_line = text[:head]
    header = header_line.split(",")
    with_indices = any(col.endswith("_index") for col in header)
    width = len(header)
    pos = {col: i for i, col in enumerate(header)}  # a repeated column reads its last occurrence
    if "\r" in header_line or "\n" in header_line:
        return None
    # a row's letter and seq_label bit go in one int64: at most 62 atoms
    if len(atoms) > 62 or any(col not in pos for col in _columns(spec, atoms, with_indices)):
        return None
    split_codes = {name: code for code, name in enumerate(SPLIT_NAMES)}
    i_split, int_cols = pos["split"], [pos["seq_id"], pos["t"], pos["state_after"]]
    label_cols = [
        (pos[f"{v.name}_label"], {label: i for i, label in enumerate(v.domain.labels)})
        for v in variables
    ]
    bit_cols = [pos[f"{a}_truth"] for a in atoms] + [pos["seq_label"]]
    index_cols = [pos[f"{v.name}_index"] for v in variables] if with_indices else []

    blocks, indices, start = [], [], head + 2
    while start < len(text):
        end = text.find("\r\n", start + _BLOCK_CHARS)
        end = len(text) - 2 if end < 0 else end
        rows = text[start:end].split("\r\n")
        start, n = end + 2, len(rows)
        cells = ",".join(rows)
        if "\r" in cells or "\n" in cells or max(map(len, rows)) > limit:
            return None
        if set(map(str.count, rows, itertools.repeat(","))) != {width - 1}:
            return None
        cells = cells.split(",")
        try:
            split = np.fromiter(map(split_codes.__getitem__, cells[i_split::width]), np.int8, n)
            seq_id, t, state = (np.fromiter(map(int, cells[i::width]), np.int64, n) for i in int_cols)
            positions = np.empty((n, len(variables)), dtype=np.intp)
            for j, (i, codes) in enumerate(label_cols):
                positions[:, j] = np.fromiter(map(codes.__getitem__, cells[i::width]), np.intp, n)
            indices.extend(zip(*(map(int, cells[i::width]) for i in index_cols)))
        except (KeyError, ValueError, OverflowError):
            return None
        bits = np.zeros(n, dtype=np.int64)  # the letter, and seq_label above it
        for bit, i in enumerate(bit_cols):
            column = cells[i::width]
            if not set(column).issubset(_BITS):
                return None
            # each cell is one "0" or "1": the joined text's bytes are the bits
            ones = np.frombuffer("".join(column).encode("ascii"), np.uint8) & 1
            bits |= ones.astype(np.int64) << bit
        blocks.append((split, seq_id, t, state, bits, grid_points(positions, variables)))
    if not blocks:
        return None

    split, seq_id, t, state, bits, points = map(np.concatenate, zip(*blocks))
    n = len(split)
    first = np.ones(n, dtype=bool)
    first[1:] = (split[1:] != split[:-1]) | (seq_id[1:] != seq_id[:-1])
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=n)
    keys = list(zip(split[starts].tolist(), seq_id[starts].tolist()))
    labels, letters = bits >> len(atoms), bits & ((1 << len(atoms)) - 1)
    if (
        len(set(keys)) != len(keys)
        or not np.array_equal(t, np.arange(n) - np.repeat(starts, lengths))
        or not np.array_equal(labels, np.repeat(labels[starts], lengths))
    ):
        return None

    labels = labels[starts]
    points, letter_list, states = points.tolist(), letters.tolist(), state.tolist()
    if with_indices:
        names = [v.name for v in variables]
        indices = [dict(zip(names, row)) for row in indices]
    splits: dict[str, list[SequenceSample]] = {s: [] for s in SPLIT_NAMES}
    lines = {}
    ends = (starts + lengths).tolist()
    for (code, seq), label, a, b in zip(keys, labels.tolist(), starts.tolist(), ends):
        split_name = SPLIT_NAMES[code]
        splits[split_name].append(
            SequenceSample(
                seq, label, tuple(points[a:b]), variables, tuple(letter_list[a:b]), atoms,
                tuple(states[a:b]), tuple(indices[a:b]) if with_indices else None,
            )
        )
        lines[split_name, seq] = list(range(a + 2, b + 2))  # the header is line 1
    return splits, lines, (letters, state, starts, labels)


def _replay_matches(dfa: Dfa, letters, states, starts, labels) -> bool:
    """Whether every recorded state is ``δ`` of the state recorded before it
    (``dfa.initial`` at a sequence's first row, ``starts``) and its letter,
    and each sequence ends accepting exactly when its label is 1: one gather
    over ``dfa.transitions``.  A recorded state outside ``[0, n_states)``
    indexes nothing; it can only mismatch."""
    before = np.empty_like(states)
    before[1:] = states[:-1]
    before[starts] = dfa.initial
    if not ((0 <= before) & (before < dfa.n_states)).all():
        return False
    if not np.array_equal(dfa.transitions[before, letters], states):
        return False
    accepting = np.zeros(dfa.n_states, dtype=bool)
    accepting[list(dfa.accepting)] = True
    ends = np.append(starts[1:], len(states)) - 1
    return np.array_equal(accepting[states[ends]], labels.astype(bool))


def _decode_sequences(
    text: str, spec: TaskSpec, csv_path: Path
) -> tuple[dict[str, list[SequenceSample]], dict[tuple[str, int], list[int]]]:
    """The samples of ``sequences.csv`` by split, and the lines of each
    (split, seq_id)'s rows, for ``_verify_replay``.

    The row decoder: the reference for ``_decode_columns``, and what
    ``deserialize`` runs on any text that decoder defers, such as quoted
    cells, LF line breaks, blank lines or an error to name.  One pass: each
    row is decoded straight into the accumulator of its (split, seq_id), so
    no raw row outlives its line.  Errors name the physical line,
    ``reader.line_num``.  Each distinct combination of label cells is
    decoded to domain positions once; one ``grid_points`` call then encodes
    them all.
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
        (pos[f"{v.name}_label"], {label: i for i, label in enumerate(v.domain.labels)}, v.domain)
        for v in spec.variables
    ]
    # the *_label cells of a row -> the index of their domain positions in `positions`
    label_idx = [i for i, _, _ in label_cols]
    label_cells = operator.itemgetter(*label_idx) if label_idx else lambda row: ()
    combos: dict = {}
    positions: list[list[int]] = []
    index_cols = [(v.name, pos[f"{v.name}_index"]) for v in spec.variables] if with_indices else []
    i_split, i_seq, i_t = pos["split"], pos["seq_id"], pos["t"]
    i_state, i_label = pos["state_after"], pos["seq_label"]
    truth_cols = [pos[f"{a}_truth"] for a in atoms]
    bit_cols = [(f"{a}_truth", i) for a, i in zip(atoms, truth_cols)] + [("seq_label", i_label)]
    # the seq_label and *_truth cells of a row -> (letter, label)
    bit_cells = operator.itemgetter(i_label, *truth_cols)
    bit_codes: dict = {}

    # (split, seq_id) -> (label, combos, letters, states, indices, lines)
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
            labels = label_cells(row)
            combo = combos.get(labels)
            if combo is None:
                combo = combos[labels] = len(combos)
                positions.append([codes[row[i]] for i, codes, _ in label_cols])
            cells = bit_cells(row)
            bits = bit_codes.get(cells)
            if bits is None:
                letter = sum(_BITS[row[i]] << bit for bit, i in enumerate(truth_cols))
                bits = bit_codes[cells] = (letter, _BITS[row[i_label]])
            state = int(row[i_state])
            indices = {name: int(row[i]) for name, i in index_cols}
        except KeyError:
            reason = _undecodable(row, label_cols, bit_cols)
            raise DatasetFormatError(f"{csv_path}:{reader.line_num}: {reason}") from None
        except ValueError as err:
            raise DatasetFormatError(f"{csv_path}:{reader.line_num}: bad cell ({err})") from err
        letter, label = bits
        acc = seqs.get(key)
        if acc is None:
            if key[0] not in SPLIT_NAMES:
                raise DatasetFormatError(f"{csv_path}:{reader.line_num}: unknown split {key[0]!r}")
            acc = seqs[key] = (label, [], [], [], [], [])
        seq_label, seq_combos, seq_letters, seq_states, seq_indices, seq_lines = acc
        if step != len(seq_combos):
            raise DatasetFormatError(
                f"{csv_path}:{reader.line_num}: time step {row[i_t]} out of order "
                f"(expected {len(seq_combos)})"
            )
        if label != seq_label:
            raise DatasetFormatError(
                f"{csv_path}:{reader.line_num}: seq_label changes within sequence {key[1]}"
            )
        seq_combos.append(combo)
        seq_letters.append(letter)
        seq_states.append(state)
        seq_lines.append(reader.line_num)
        if with_indices:
            seq_indices.append(indices)

    variables = spec.variables
    shape = (len(positions), len(variables))
    points = grid_points(np.array(positions, dtype=np.intp).reshape(shape), variables).tolist()
    splits: dict[str, list[SequenceSample]] = {s: [] for s in SPLIT_NAMES}
    for (split, seq_id), (label, seq_combos, letters, states, indices, _) in seqs.items():
        splits[split].append(
            SequenceSample(
                seq_id, label, tuple(map(points.__getitem__, seq_combos)), variables,
                tuple(letters), atoms, tuple(states), tuple(indices) if with_indices else None,
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


def _verify_replay(
    ds: Dataset, lines: Mapping[tuple[str, int], Sequence[int]], csv_path: Path
) -> None:
    """Replay each sample's letters through ``ds.dfa``.  A mismatch names
    the line of its row in ``csv_path``, read from ``lines[split, seq_id]``;
    a label that disagrees with acceptance names the sequence's last row."""
    dfa = ds.dfa
    transitions = dfa.transitions.tolist()
    for split, sample in ds:
        state = dfa.initial
        seq_lines = lines[split, sample.seq_id]
        for t, letter in enumerate(sample.letters):
            state = transitions[state][letter]
            if state != sample.states[t]:
                where = f"{csv_path}:{seq_lines[t]}: sequence {split}/{sample.seq_id}"
                raise IntegrityError(f"{where}: replay diverges at step {t}")
        if (state in dfa.accepting) != bool(sample.label):
            where = f"{csv_path}:{seq_lines[-1]}: sequence {split}/{sample.seq_id}"
            raise IntegrityError(f"{where}: label does not match acceptance")
