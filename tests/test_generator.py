"""Dataset generation: replay invariants, splits, determinism, serialization."""

import csv
import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ltlseq import generator, streams
from ltlseq.automata import letter_of
from ltlseq.constraints import SymbolicDomain, VariableSpec, eval_constraint
from ltlseq.errors import DatasetFormatError, DomainError, IntegrityError
from ltlseq.generator import (
    _sequence_rng,
    _sequence_seed,
    _split_plan,
    attach_image_indices,
    deserialize,
    generate_dataset,
    generate_sequence,
    serialize,
)
from ltlseq.harness import _split_arrays
from ltlseq.library import builtin_task, builtin_task_names
from ltlseq.tasks import SPLIT_NAMES, CompiledTask, compile_task
from oracles import split_labels_reference
from test_tasks import family_spec, small_spec


def small_task(**overrides):
    return compile_task(builtin_task("task5", splits=(30, 10, 10), **overrides))


def replay_states(ct, sample):
    state = ct.dfa.initial
    out = []
    for truths in sample.truths:
        state = ct.dfa.step(state, ct.truth_letter(truths))
        out.append(state)
    return out


# ---------------------------------------------------------------------------
# Generation invariants


def test_replay_and_label_consistency():
    ct = small_task()
    ds = generate_dataset(ct)
    for split, sample in ds:
        states = replay_states(ct, sample)
        assert list(sample.states) == states
        assert (states[-1] in ct.dfa.accepting) == bool(sample.label)
        # recorded truths match the constraint semantics of the raw values
        for values, truths in zip(sample.values, sample.truths):
            for name, c in ct.constraints_by_name.items():
                assert truths[name] == eval_constraint(c, values)


def test_split_sizes_and_positive_counts():
    ds = generate_dataset(compile_task(builtin_task("task3")))
    for split, total, positive in [("train", 320, 160), ("val", 40, 20), ("test", 40, 20)]:
        samples = ds.splits[split]
        assert len(samples) == total
        assert sum(s.label for s in samples) == positive


def test_positive_ratio_override():
    ds = generate_dataset(compile_task(builtin_task("task3", positive_ratio=0.9)))
    assert sum(s.label for s in ds.splits["train"]) == 288
    assert sum(s.label for s in ds.splits["val"]) == 36


def test_lengths_in_declared_range():
    ct = small_task()
    ds = generate_dataset(ct)
    lengths = {sample.length for _, sample in ds}
    assert lengths <= set(range(ct.spec.min_length, ct.spec.max_length + 1))
    assert len(lengths) > 1  # lengths actually vary


def test_generation_is_deterministic():
    ct = small_task()
    a = generate_dataset(ct)
    b = generate_dataset(ct)
    assert a.splits == b.splits
    assert a.metadata == b.metadata


def test_jobs_do_not_change_output():
    ct = small_task()
    assert generate_dataset(ct, jobs=1).splits == generate_dataset(ct, jobs=4).splits


def test_seed_changes_sequences_not_structure():
    base = generate_dataset(small_task())
    other = generate_dataset(small_task(seed=777))
    assert base.splits != other.splits
    for split in base.splits:
        assert len(base.splits[split]) == len(other.splits[split])
        assert sum(s.label for s in base.splits[split]) == sum(
            s.label for s in other.splits[split]
        )


def test_accepts_spec_or_compiled_task():
    spec = builtin_task("task5", splits=(10, 5, 5))
    from_spec = generate_dataset(spec)
    from_task = generate_dataset(compile_task(spec))
    assert from_spec.splits == from_task.splits


def test_values_lie_in_domains():
    ct = small_task()
    ds = generate_dataset(ct)
    for _, sample in ds:
        for values in sample.values:
            for name, value in values.items():
                assert value in ct.variables_by_name[name].domain


# ---------------------------------------------------------------------------
# The streams against numpy, and generation against its reference loop

# the seeding edge cases: one entropy word or two, and the top bit
_EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def assert_stream_words_equal_numpy(seeds, counts):
    words = streams.stream_words(seeds, counts)
    assert words.shape == (len(seeds), max(counts, default=0)) and words.dtype == np.uint64
    for row, seed, count in zip(words, seeds, counts):
        assert row[:count].tolist() == np.random.PCG64(seed).random_raw(count).tolist()
        assert not row[count:].any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_seed_states_equal_seed_sequence():
    rnd = random.Random(35)
    seeds = [*_EDGE_SEEDS, *(rnd.getrandbits(64) for _ in range(250))]
    states = streams.seed_states(np.array(seeds, dtype=np.uint64))
    for seed, state in zip(seeds, states.T):
        assert state.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("count", [1, 2, 21, 150])
def test_stream_words_equal_pcg64(count):
    rnd = random.Random(count)
    seeds = [*_EDGE_SEEDS, *(rnd.getrandbits(64) for _ in range(250))]
    assert_stream_words_equal_numpy(seeds, [count] * len(seeds))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stream_words_cross_column_blocks():
    rnd = random.Random(7)
    seeds = [*_EDGE_SEEDS, *(rnd.getrandbits(64) for _ in range(200))]
    # rows of every length, zero words among them, past the first block
    counts = [rnd.randint(0, 700) for _ in seeds]
    assert max(counts) > streams._SEED_BLOCK // len(seeds)
    assert_stream_words_equal_numpy(seeds, counts)
    # one row: blocks of _JUMPS columns, and a last one cut short
    for count in (streams._JUMPS, streams._JUMPS + 1, 2 * streams._JUMPS + 5):
        assert_stream_words_equal_numpy([2**64 - 1], [count])
    assert_stream_words_equal_numpy([], [])
    assert_stream_words_equal_numpy([3, 4], [0, 0])


def test_split_words_peak_within_twice_their_table():
    import tracemalloc

    from ltlseq.tasks import _MAX_LENGTH

    tracemalloc.start()
    try:
        words = generator._split_words(1, "train", [_MAX_LENGTH] * 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words.shape == (200, _MAX_LENGTH + 1)
    assert peak <= 2 * words.nbytes


def test_an_empty_split_generates():
    task = compile_task(builtin_task("task3", splits=(5, 0, 3)))
    ds = generate_dataset(task)
    assert ds.splits["val"] == []
    assert ds.splits == reference_splits(task)


def from_values_task():
    """task6 over a value-coded domain whose ``p & q`` letter has one assignment."""
    sparse = SymbolicDomain.from_values("sparse", ("a", "b", "c", "d"), (0, 1, 2, 2**40))
    spec = builtin_task("task6", splits=(40, 10, 10))
    variables = tuple(VariableSpec(v.name, sparse, v.source) for v in spec.variables)
    return compile_task(replace(spec, name="sparse", domains=(sparse,), variables=variables))


def wide_task():
    """``small_spec`` over two 1,500-value ranges: its letters' buckets hold
    1,125,750 and 1,124,250 grid points, bounds past 2^20 and no power of two."""
    wide = SymbolicDomain.from_range("wide", 0, 1499)
    variables = tuple(VariableSpec(n, wide, "mnist") for n in "AB")
    return compile_task(small_spec(domains=(wide,), variables=variables, splits=(6, 2, 2)))


def reference_splits(task):
    """``generate_dataset``'s walks, each on its own numpy Generator."""
    seed = task.spec.seed
    return {
        split: [
            generate_sequence(task, label, length, _sequence_rng(seed, split, i), seq_id=i)
            for i, (label, length) in enumerate(_split_plan(task.spec, split))
        ]
        for split in SPLIT_NAMES
    }


@pytest.mark.parametrize("name", [*builtin_task_names(), "fam6", "fam10", "from_values", "wide"])
def test_dataset_equals_reference_loop(name):
    if name.startswith("fam"):
        task = compile_task(replace(family_spec(int(name[3:])), splits=(40, 10, 10)))
    elif name == "from_values":
        task = from_values_task()
        assert min(len(task.solutions[letter]) for letter in task.usable_letters) == 1
    elif name == "wide":
        task = wide_task()
        assert min(len(task.solutions[letter]) for letter in task.usable_letters) > 2**20
    else:
        task = compile_task(builtin_task(name))
    assert generate_dataset(task).splits == reference_splits(task)


@pytest.mark.parametrize("name", [*builtin_task_names(), "fam6", "fam10"])
def test_letters_are_the_truths_letters(tmp_path, name):
    if name.startswith("fam"):
        task = compile_task(replace(family_spec(int(name[3:])), splits=(40, 10, 10)))
    else:
        task = compile_task(builtin_task(name))
    ds = generate_dataset(task)
    serialize(ds, tmp_path)
    for dataset in (ds, deserialize(tmp_path, verify=True)):
        for split, sample in dataset:
            assert sample.atoms == task.atoms
            assert len(sample.letters) == len(sample.truths) == sample.length
            for letter, truths in zip(sample.letters, sample.truths):
                assert letter == letter_of(truths, sample.atoms)
        for split in SPLIT_NAMES:
            data = _split_arrays(task, dataset, split)
            rows = np.zeros(data.mask.shape + (len(task.atoms),), dtype=bool)
            for i, sample in enumerate(dataset.splits[split]):
                for t, truths in enumerate(sample.truths):
                    rows[i, t] = [truths[a] for a in task.atoms]
            assert data.truths.dtype == bool
            np.testing.assert_array_equal(data.truths, rows)


@pytest.mark.parametrize("name", [*builtin_task_names(), "fam6", "from_values"])
def test_split_labels_equal_reference(tmp_path, name):
    if name == "fam6":
        task = compile_task(replace(family_spec(6), splits=(40, 10, 10)))
    elif name == "from_values":
        task = from_values_task()  # values 0, 1, 2, 2^40: positions are not values
    else:
        task = compile_task(builtin_task(name))
    ds = generate_dataset(task)
    serialize(ds, tmp_path)
    for dataset in (ds, deserialize(tmp_path, verify=True)):
        for split in SPLIT_NAMES:
            samples = dataset.splits[split]
            labels = _split_arrays(task, dataset, split).labels
            assert labels.dtype == np.intp
            np.testing.assert_array_equal(labels, split_labels_reference(task, samples))


def test_sample_values_are_fresh_dicts():
    ct = from_values_task()  # 4^4 grid points: samples share points
    samples = generate_dataset(ct).splits["train"]
    before = [(s.points, s.values) for s in samples]
    # sample i shares its first point with another sample; no dict is shared with it
    starts = [s.points[0] for s in samples]
    i = next(i for i, point in enumerate(starts) if starts.count(point) > 1)
    first = samples[i].values
    assert first is not samples[i].values
    first[0][ct.spec.variables[0].name] = None
    first[0]["extra"] = 1
    assert [(s.points, s.values) for s in samples] == before
    assert samples[i].values[0] in ct.solutions[samples[i].letters[0]].materialize()


def test_sample_truths_are_fresh_dicts():
    ct = small_task()
    samples = generate_dataset(ct).splits["train"]
    before = [(s.letters, s.truths) for s in samples]
    # sample 0 shares its first letter with later samples; no dict is shared with them
    first = samples[0].truths
    assert first is not samples[0].truths
    assert any(s.letters[0] == samples[0].letters[0] for s in samples[1:])
    first[0][ct.atoms[0]] = None
    first[0]["extra"] = True
    assert [(s.letters, s.truths) for s in samples] == before
    letter = samples[0].letters[0]
    assert samples[0].truths[0] == {a: bool(letter >> i & 1) for i, a in enumerate(ct.atoms)}


def test_serialize_rejects_a_sample_over_other_atoms(tmp_path):
    ds = generate_dataset(small_task())
    sample = ds.splits["val"][1]
    ds.splits["val"][1] = replace(sample, atoms=("x",) * len(sample.atoms))
    with pytest.raises(DomainError, match=r"sample val/1 is over atoms \['x'\]"):
        serialize(ds, tmp_path)


def test_serialize_rejects_a_sample_over_other_variables(tmp_path):
    ds = generate_dataset(small_task())
    sample = ds.splits["test"][2]
    renamed = tuple(replace(v, name=v.name.lower()) for v in sample.variables)
    ds.splits["test"][2] = replace(sample, variables=renamed)
    with pytest.raises(DomainError, match=r"sample test/2 is not over the dataset's variables"):
        serialize(ds, tmp_path)
    assert not (tmp_path / "sequences.csv").exists()  # checked before any row is written


def test_only_the_scalar_walk_calls_letters_and_solutions_per_step(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        generator, "sample_solution", counted("sample_solution", generator.sample_solution)
    )
    monkeypatch.setattr(
        CompiledTask, "feasible_letters", counted("feasible_letters", CompiledTask.feasible_letters)
    )
    task = small_task()
    generate_dataset(task)
    assert calls == {}  # the lockstep walk reads the tables, not the per-step helpers
    generate_sequence(task, 1, 12, np.random.default_rng(0))
    assert calls == {"sample_solution": 12, "feasible_letters": 12}


def plan_arrays(task, split):
    plan = _split_plan(task.spec, split)
    labels = np.array([label for label, _ in plan], dtype=np.intp)
    lengths = np.array([length for _, length in plan], dtype=np.intp)
    return labels, lengths


def reject_first_draw(task, split, words, draw):
    """Zero the half word that the first ``draw`` ("letter" or "point") of
    some walk of ``split`` reads, where its bound is not a power of two, so
    Lemire rejects it: 0 is below its floor ``2^32 mod bound``.  Returns
    the walk's index."""
    seed = task.spec.seed
    for i, (label, length) in enumerate(_split_plan(task.spec, split)):
        bound = len(task.feasible_letters(task.dfa.initial, length, label))
        if draw == "point":
            # the letter draw reads the low half (if it reads one), the point the next
            first = generate_sequence(task, label, length, _sequence_rng(seed, split, i))
            high, bound = bound > 1, len(task.solutions[first.letters[0]])
        else:
            high = False
        if bound & (bound - 1):
            words[i, 0] &= np.uint64(0xFFFFFFFF if high else 0xFFFFFFFF00000000)
            return i
    raise AssertionError(f"every first {draw} bound is a power of two")


@pytest.mark.parametrize("draw", ["letter", "point"])
def test_lockstep_marks_a_rejected_draw(draw):
    task = compile_task(replace(family_spec(6), splits=(40, 10, 10)))
    labels, lengths = plan_arrays(task, "train")
    words = generator._split_words(task.spec.seed, "train", lengths.tolist())
    i = reject_first_draw(task, "train", words, draw)
    uses, points, states, redo = generator._lockstep(task, labels, lengths, words)
    assert np.flatnonzero(redo).tolist() == [i]
    letters = np.array(task.usable_letters)[uses]
    for j, (label, length) in enumerate(zip(labels.tolist(), lengths.tolist())):
        if j == i:
            continue
        sample = generate_sequence(
            task, label, length, _sequence_rng(task.spec.seed, "train", j), seq_id=j
        )
        assert tuple(letters[j, :length].tolist()) == sample.letters
        assert tuple(points[j, :length].tolist()) == sample.points
        assert tuple(states[j, :length].tolist()) == sample.states


@pytest.mark.parametrize("draw", ["letter", "point"])
def test_rejected_walk_is_redone_on_its_stream(monkeypatch, draw):
    task = compile_task(replace(family_spec(6), splits=(40, 10, 10)))
    split_words, lockstep = generator._split_words, generator._lockstep
    rejected, marked = [], []

    def words_with_a_rejection(seed, split, lengths):
        words = split_words(seed, split, lengths)
        if split == "val":
            rejected.append(reject_first_draw(task, split, words, draw))
        return words

    def spy(*args):
        result = lockstep(*args)
        marked.append(np.flatnonzero(result[3]).tolist())
        return result

    monkeypatch.setattr(generator, "_split_words", words_with_a_rejection)
    monkeypatch.setattr(generator, "_lockstep", spy)
    assert generate_dataset(task).splits == reference_splits(task)
    assert marked == [[], rejected, []]


def test_only_a_redone_walk_builds_a_bit_generator(monkeypatch):
    task = compile_task(replace(family_spec(6), splits=(40, 10, 10)))
    split_words, pcg64 = generator._split_words, np.random.PCG64
    built, rejected = [], []

    def counting(seed):
        built.append(seed)
        return pcg64(seed)

    # default_rng builds its PCG64 in C, past the PCG64 spy
    def counting_rng(seed, split, index):
        built.append(_sequence_seed(seed, split, index))
        return _sequence_rng(seed, split, index)

    def words_with_a_rejection(seed, split, lengths):
        words = split_words(seed, split, lengths)
        if split == "val":
            rejected.append(reject_first_draw(task, split, words, "letter"))
        return words

    monkeypatch.setattr(generator.np.random, "PCG64", counting)
    monkeypatch.setattr(generator, "_sequence_rng", counting_rng)
    generate_dataset(task)
    assert built == []
    monkeypatch.setattr(generator, "_split_words", words_with_a_rejection)
    generate_dataset(task)
    assert built == [_sequence_seed(task.spec.seed, "val", rejected[0])]


def test_unreachable_plan_raises_the_reference_error():
    # X X p is false on every walk of one or two steps
    compiled = compile_task(small_spec(formula="X X p", min_length=3, max_length=6))
    task = replace(compiled, spec=replace(compiled.spec, min_length=1))
    label, length = next(
        pair
        for split in SPLIT_NAMES
        for pair in _split_plan(task.spec, split)
        if not task.reach[pair[1]][task.dfa.initial][pair[0]]
    )
    with pytest.raises(DomainError) as reference:
        generate_sequence(task, label, length, np.random.default_rng(0))
    assert str(reference.value) == f"task 'small': label 1 unreachable at length {length}"
    with pytest.raises(DomainError) as lockstep:
        generate_dataset(task)
    assert str(lockstep.value) == str(reference.value)


@pytest.mark.parametrize(
    "label, length",
    [
        (1, 0),  # task5's initial state accepts: an empty walk has no last state
        (0, 0),
        (0, 21),  # past the reach table
        (0, -1),
        (0, 2.0),
        (True, 10),  # would be written as a "True" cell that deserialize rejects
        (2, 10),
        ("1", 10),
        (0, None),
    ],
)
def test_generate_sequence_rejects_edge_inputs(label, length):
    task = compile_task(builtin_task("task5"))
    with pytest.raises(DomainError, match="must be an integer in"):
        generate_sequence(task, label, length, np.random.default_rng(0))


def test_generate_sequence_stores_a_plain_int_label():
    sample = generate_sequence(small_task(), np.int64(1), 12, np.random.default_rng(0))
    assert type(sample.label) is int and sample.label == 1


# ---------------------------------------------------------------------------
# Serialization round trip


def test_serialize_round_trip(tmp_path):
    ct = small_task()
    ds = generate_dataset(ct)
    serialize(ds, tmp_path)
    assert (tmp_path / "sequences.csv").exists()
    assert (tmp_path / "metadata.json").exists()
    loaded = deserialize(tmp_path, verify=True)
    assert loaded.spec == ds.spec
    assert loaded.splits == ds.splits
    assert loaded.metadata == ds.metadata


def test_serialize_is_byte_stable(tmp_path):
    ct = small_task()
    ds = generate_dataset(ct)
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        serialize(ds, out)
        digests.append(hashlib.sha256((out / "sequences.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_deserialize_missing_files(tmp_path):
    with pytest.raises(DatasetFormatError):
        deserialize(tmp_path / "nowhere")


def test_deserialize_missing_column(tmp_path):
    ds = generate_dataset(small_task())
    serialize(ds, tmp_path)
    csv_path = tmp_path / "sequences.csv"
    rows = list(csv.reader(csv_path.open()))
    drop = rows[0].index("state_after")
    rows = [[c for i, c in enumerate(r) if i != drop] for r in rows]
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(DatasetFormatError) as exc:
        deserialize(tmp_path)
    assert "state_after" in str(exc.value)


def test_deserialize_out_of_order_steps(tmp_path):
    ds = generate_dataset(small_task())
    serialize(ds, tmp_path)
    csv_path = tmp_path / "sequences.csv"
    rows = list(csv.reader(csv_path.open()))
    t_col = rows[0].index("t")
    rows[1][t_col], rows[2][t_col] = rows[2][t_col], rows[1][t_col]
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(DatasetFormatError) as exc:
        deserialize(tmp_path)
    assert "out of order" in str(exc.value)


def test_verify_catches_corrupted_truth(tmp_path):
    ds = generate_dataset(small_task())
    serialize(ds, tmp_path)
    csv_path = tmp_path / "sequences.csv"
    rows = list(csv.reader(csv_path.open()))
    truth_col = next(i for i, name in enumerate(rows[0]) if name.endswith("_truth"))
    rows[1][truth_col] = "0" if rows[1][truth_col] == "1" else "1"
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    deserialize(tmp_path)  # structurally fine without verification
    with pytest.raises(IntegrityError):
        deserialize(tmp_path, verify=True)


def test_verify_catches_flipped_label(tmp_path):
    ds = generate_dataset(small_task())
    serialize(ds, tmp_path)
    csv_path = tmp_path / "sequences.csv"
    rows = list(csv.reader(csv_path.open()))
    label_col = rows[0].index("seq_label")
    first_len = sum(1 for r in rows[1:] if r[1] == rows[1][1] and r[0] == rows[1][0])
    for r in rows[1 : 1 + first_len]:
        r[label_col] = "0" if r[label_col] == "1" else "1"
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(IntegrityError) as exc:
        deserialize(tmp_path, verify=True)
    assert "label" in str(exc.value)


def test_verify_catches_spec_hash_mismatch(tmp_path):
    ds = generate_dataset(small_task())
    serialize(ds, tmp_path)
    meta_path = tmp_path / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta["spec_hash"] = "0" * 64
    meta_path.write_text(json.dumps(meta))
    deserialize(tmp_path)  # no check without verification
    with pytest.raises(IntegrityError):
        deserialize(tmp_path, verify=True)


# ---------------------------------------------------------------------------
# Image index attachment


def pools_for(ct, n_images=50):
    # a synthetic pool: indices 0..n-1 per (split, source, class label)
    pools = {}
    for split in ("train", "test"):
        per_source = {}
        for v in ct.spec.variables:
            per_source.setdefault(v.source, {})
            for label in v.domain.labels:
                per_source[v.source][label] = list(range(n_images))
        pools[split] = per_source
    return pools


def test_attach_image_indices():
    ct = small_task()
    ds = generate_dataset(ct)
    with_imgs = attach_image_indices(ds, pools_for(ct))
    for split, sample in with_imgs:
        assert sample.indices is not None
        assert len(sample.indices) == sample.length
        for step in sample.indices:
            for idx in step.values():
                assert 0 <= idx < 50
    # original dataset is untouched
    assert all(s.indices is None for _, s in ds)


def test_attach_is_deterministic_and_epoch_sensitive():
    ct = small_task()
    ds = generate_dataset(ct)
    pools = pools_for(ct)
    a = attach_image_indices(ds, pools)
    b = attach_image_indices(ds, pools)
    assert a.splits == b.splits
    c = attach_image_indices(ds, pools, resample_epoch=1)
    assert c.splits != a.splits
    # class labels and truths are untouched by resampling
    for split in ds.splits:
        for x, y in zip(a.splits[split], c.splits[split]):
            assert x.values == y.values
            assert x.truths == y.truths
            assert x.label == y.label


def test_attach_missing_pool():
    ct = small_task()
    ds = generate_dataset(ct)
    pools = pools_for(ct)
    victim = ct.spec.variables[0]
    del pools["train"][victim.source][victim.domain.labels[0]]
    with pytest.raises(DomainError) as exc:
        attach_image_indices(ds, pools)
    message = str(exc.value)
    assert victim.source in message and "train" in message


@pytest.mark.parametrize("epoch", ["1", 1.0, True, None], ids=repr)
def test_attach_rejects_non_integer_epoch(epoch):
    """The epoch is hashed as text, so ``"1"`` would draw epoch 1's indices
    and ``1.0``, ``True`` and ``None`` other ones; each is refused."""
    ct = small_task()
    with pytest.raises(DomainError, match="resample_epoch"):
        attach_image_indices(generate_dataset(ct), pools_for(ct), resample_epoch=epoch)


def _every_train_pool(value):
    def edit(pools):
        pools["train"] = {source: dict.fromkeys(by, value) for source, by in pools["train"].items()}
        return pools

    return edit


# a malformed pools argument, and a fragment of the DomainError it raises
BAD_POOLS = {
    "pools-none": (lambda pools: None, "None is not a mapping"),
    "split-level-list": (lambda pools: {"train": [], "test": []}, "[] is not a mapping"),
    "source-level-list": (
        lambda pools: {**pools, "train": dict.fromkeys(pools["train"], [0, 1])},
        "[0, 1] is not a mapping",
    ),
    "empty-list": (_every_train_pool([]), "no image pool for class"),
    "empty-array": (_every_train_pool(np.array([], dtype=int)), "no image pool for class"),
    "float-entry": (_every_train_pool([0, 1.5]), "holds 1.5, not an integer index"),
    "bool-entry": (_every_train_pool([True]), "holds True, not an integer index"),
    "bool-array": (_every_train_pool(np.array([False, True])), "holds False"),
    "float-array": (_every_train_pool(np.arange(3.0)), "holds 0.0"),
    "set": (_every_train_pool({0, 1}), "is not a sequence"),
}


@pytest.mark.parametrize("case", list(BAD_POOLS))
def test_attach_rejects_a_malformed_pool(case):
    ct = small_task()
    ds = generate_dataset(ct)
    edit, fragment = BAD_POOLS[case]
    with pytest.raises(DomainError) as exc:
        attach_image_indices(ds, edit(pools_for(ct)))
    message = str(exc.value)
    assert fragment in message and "(source 'mnist', split 'train')" in message, message


def test_attach_takes_array_pools_and_checks_each_pool_once():
    ct = small_task()
    ds = generate_dataset(ct)
    pools = pools_for(ct)
    lookups = []

    class Spy(dict):
        def get(self, key, default=None):
            lookups.append((id(self), key))
            return super().get(key, default)

    arrays = {
        split: {source: Spy({c: np.array(p) for c, p in by.items()}) for source, by in sources.items()}
        for split, sources in pools.items()
    }
    got = attach_image_indices(ds, arrays)
    assert got.splits == attach_image_indices(ds, pools).splits
    assert {type(i) for _, s in got for step in s.indices for i in step.values()} == {int}
    assert len(lookups) > 10 and len(set(lookups)) == len(lookups)


def test_attach_reads_the_spec_seed():
    ct = small_task()
    ds = generate_dataset(ct)
    stray = replace(ds, metadata={**ds.metadata, "seed": 999})
    pools = pools_for(ct)
    assert attach_image_indices(stray, pools).splits == attach_image_indices(ds, pools).splits


def test_attach_round_trips_through_csv(tmp_path):
    ct = small_task()
    ds = attach_image_indices(generate_dataset(ct), pools_for(ct))
    serialize(ds, tmp_path)
    header = (tmp_path / "sequences.csv").read_text().splitlines()[0]
    assert "_index" in header
    loaded = deserialize(tmp_path, verify=True)
    assert loaded.splits == ds.splits
