"""Dataset bytes and the CSV boundary: golden digests, strict cells, row widths."""

import csv
import hashlib
import json
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ltlseq.automata import Dfa
from ltlseq.cli import main
from ltlseq.constraints import SymbolicDomain, VariableSpec, parse_constraint
from ltlseq.errors import DatasetFormatError, DomainError, IntegrityError, LtlseqError
from ltlseq.generator import (
    _decode_columns,
    attach_image_indices,
    deserialize,
    generate_dataset,
    serialize,
)
from ltlseq.library import builtin_task, builtin_task_names
from ltlseq.tasks import TaskSpec, compile_task, load_task_yaml
from oracles import sequences_csv_reference
from test_tasks import family_spec

# sha256 of (sequences.csv, metadata.json); "task5+images" attaches image
# indices from a synthetic pool of 50 images per class
GOLDEN_DATASETS = {
    "task1": (
        "8854f1079447002bc68bc062ee9ba02bff1501d5522329d706f4ba7735a8e310",
        "6878f96d54c0ba03f8882923ff5f52408e1f7a20a5ad0772d33044ef061a2923",
    ),
    "task2": (
        "7690d8337c97b7d50f399ba4d82a0a6a874b0a361b0afce4a8f4c7fccb106fd1",
        "5e26bf306688c03d8ef3f77b70ceb9f706ab94b83884eda369d32bb017d8e7c0",
    ),
    "task3": (
        "e9509f74cef6524d21331d9d870652166b7011ed2002e1332b0afa94d87ca5f9",
        "4ac0f8a2b660cddfabedd67443ec8a4d603fef8472a8dcdfacb453c802c144a8",
    ),
    "task4": (
        "149a1fbe5cfcc70363f8c8b190203914c8ab37409d69d395d0cb100bcacf3add",
        "4ad25505e0f361fbadd007941f317b499012490b4409daac0d0f6673da32d025",
    ),
    "task5": (
        "d3ab66abf2b2b97872d4626f0d2158c852cca8081d7cba870801dfb75e463a9e",
        "1410d4abf2fe51bbfb1e461b47ae3175057311589531462c86f97b2a4a85c092",
    ),
    "task6": (
        "00a8913f1f319fce6cbec0a452e8d4b4dbbee570948f3a916c2306366b5f589b",
        "f8efbd82ef90adcabce4c261194718298274100f267c777ce6b2b54c18f10f61",
    ),
    "example": (
        "cfa14a573fac7ba293c759488fb1e6e8d9e64f8f6faf1b80cde716583b5be101",
        "32115698f8688cfade6b31c3a9be47a3d2d4a6e1331305846e27a0ad70b8ee85",
    ),
    "fam6": (
        "684e441664b1e434b8e8723bf90cf6afb6a9128a863567235f299578f6f3a68a",
        "e48c6bba48e8c0de8d76941d2b8a1d0a81ba6048dfe1e154799c4fc46c7ece47",
    ),
    "fam10": (
        "0381a55f71ceeac92863bd04df15ae67889d214aeb29750a88e0eb7df58ce779",
        "fb59cd937357409cb47c632d07326bdb6fb60126feda85f03fc6dc4deca58d44",
    ),
    "task5+images": (
        "97473b7eb0c39e9e4b27ad52a1efada387c001467153ae5e3e881d9588f30784",
        "325bd8f0bd189d8ee34afbb01c884fba084714d1d187502244194c2b7b24a765",
    ),
}


def pools_for(spec, n_images=50):
    per_source = {}
    for v in spec.variables:
        for label in v.domain.labels:
            per_source.setdefault(v.source, {})[label] = list(range(n_images))
    return {"train": per_source, "test": per_source}


def golden_dataset(name):
    if name.startswith("fam"):
        return generate_dataset(replace(family_spec(int(name[3:])), splits=(40, 10, 10)))
    if name == "task5+images":
        spec = builtin_task("task5", splits=(30, 10, 10))
        return attach_image_indices(generate_dataset(spec), pools_for(spec))
    return generate_dataset(builtin_task(name))


def file_digests(directory):
    return tuple(
        hashlib.sha256((directory / f).read_bytes()).hexdigest()
        for f in ("sequences.csv", "metadata.json")
    )


@pytest.mark.parametrize("name", list(GOLDEN_DATASETS))
def test_golden_dataset_bytes(name, tmp_path):
    assert set(builtin_task_names()) <= set(GOLDEN_DATASETS)
    ds = golden_dataset(name)
    serialize(ds, tmp_path)
    assert file_digests(tmp_path) == GOLDEN_DATASETS[name]
    assert deserialize(tmp_path, verify=True).splits == ds.splits


# ``ltlseq generate task5 --splits 10 4 4`` as written before the row form:
# its metadata.json stores the DFA as one {"from", "letter", "to"} object per
# transition, with no digest
OLD_FORM_DATASET = Path(__file__).parent / "data" / "task5-old-form"


def test_old_form_dataset_loads():
    ds = deserialize(OLD_FORM_DATASET, verify=True)
    assert isinstance(ds.metadata["dfa"]["transitions"][0], dict)
    spec = builtin_task("task5", splits=(10, 4, 4))
    assert ds.spec == spec
    assert ds.splits == generate_dataset(spec).splits
    assert Dfa.from_json_dict(ds.metadata["dfa"]) == compile_task(spec).dfa


# ---------------------------------------------------------------------------
# serialize against the reference writer, one csv.writer row per step

FAM6_YAML = Path(__file__).parents[1] / "perfbench" / "tasks" / "fam6.yaml"

# labels csv must quote (a comma, a quote, CR LF) or must not (empty, a leading space)
AWKWARD_LABELS = ("a,b", 'q"t', "", " lead", "x\r\ny")


def awkward_spec():
    odd = SymbolicDomain.from_labels("odd", AWKWARD_LABELS)
    return TaskSpec(
        name="awkward",
        domains=(odd,),
        variables=(VariableSpec("A", odd, "s"), VariableSpec("B", odd, "s")),
        constraints=(parse_constraint("lt", "A < B"),),
        formula="F lt",
        min_length=2,
        max_length=5,
        splits=(30, 6, 6),
    )


def writer_case(name):
    if name == "fam6":
        return generate_dataset(load_task_yaml(FAM6_YAML))
    if name == "task5+numpy-images":  # image indices as numpy ints, written as ints
        ds = golden_dataset("task5+images")
        for samples in ds.splits.values():
            for i, s in enumerate(samples):
                steps = tuple({k: np.int64(x) for k, x in step.items()} for step in s.indices)
                samples[i] = replace(s, indices=steps)
        return ds
    if name.startswith("awkward"):
        ds = generate_dataset(awkward_spec())
        return attach_image_indices(ds, pools_for(ds.spec)) if name.endswith("+images") else ds
    return golden_dataset(name)


@pytest.mark.parametrize(
    "name",
    [*builtin_task_names(), "fam6", "task5+images", "task5+numpy-images", "awkward", "awkward+images"],
)
def test_sequences_csv_equals_the_reference_writer(tmp_path, name):
    ds = writer_case(name)
    serialize(ds, tmp_path)
    assert (tmp_path / "sequences.csv").read_bytes() == sequences_csv_reference(ds)
    assert deserialize(tmp_path, verify=True).splits == ds.splits


def test_awkward_dataset_holds_every_label():
    ds = writer_case("awkward")
    steps = (values for _, s in ds for values in s.values)
    seen = {v.domain.label_of(values[v.name]) for values in steps for v in ds.spec.variables}
    assert seen == set(AWKWARD_LABELS)


def _drop_indices(sample):
    return replace(sample, indices=None), "has no image indices"


def _set_index(value):
    def edit(sample):
        steps = [dict(step) for step in sample.indices]
        name = sample.variables[-1].name
        if value is None:
            del steps[2][name]
            what = "no image index"
        else:
            steps[2][name] = value
            what = f"image index {value!r} is not an integer"
        return replace(sample, indices=tuple(steps)), f"step 2, variable {name!r}: {what}"

    return edit


def _drop_state(sample):
    message = "has unequal numbers of points, letters and states"
    return replace(sample, states=sample.states[:-1]), message


# an edit of a dataset's last sample -> (the edited sample, the end of the DomainError)
SAMPLE_EDITS = {
    "no-indices": _drop_indices,
    "missing-index": _set_index(None),
    "float-index": _set_index(1.5),
    "bool-index": _set_index(True),
    "text-index": _set_index("3"),
    "short-states": _drop_state,
}


@pytest.mark.parametrize("name", [*SAMPLE_EDITS, "metadata"])
def test_refused_serialize_leaves_the_old_dataset(tmp_path, name):
    serialize(generate_dataset(builtin_task("task5", splits=(4, 2, 2))), tmp_path)
    before = {f: (tmp_path / f).read_bytes() for f in ("sequences.csv", "metadata.json")}
    spec = builtin_task("task5", splits=(4, 2, 2), seed=7)
    ds = attach_image_indices(generate_dataset(spec), pools_for(spec))
    if name == "metadata":
        ds.metadata["note"] = object()
        with pytest.raises(TypeError, match="not JSON serializable"):
            serialize(ds, tmp_path)
    else:
        ds.splits["test"][-1], message = SAMPLE_EDITS[name](ds.splits["test"][-1])
        with pytest.raises(DomainError, match="^sample test/1 " + re.escape(message)):
            serialize(ds, tmp_path)
    assert {f: (tmp_path / f).read_bytes() for f in before} == before


# ---------------------------------------------------------------------------
# Malformed cells and rows: every one names its line


def _first_row(rows, col, value):
    i = rows[0].index(col)
    return next(r for r in range(1, len(rows)) if rows[r][i] == value)


def _set_truth(old, new):
    def change(rows):
        col = next(c for c in rows[0] if c.endswith("_truth"))
        r = _first_row(rows, col, old)
        rows[r][rows[0].index(col)] = new
        return r + 1, "is not 0 or 1"

    return change


def _set_positive_label(new):
    # every row of the first positive sequence, so the label never changes
    def change(rows):
        col = rows[0].index("seq_label")
        r = _first_row(rows, "seq_label", "1")
        for row in rows[1:]:
            if row[:2] == rows[r][:2]:
                row[col] = new
        return r + 1, "seq_label cell '5' is not 0 or 1"

    return change


def _drop_last_cell(rows):
    rows[3].pop()
    return 4, f"row has {len(rows[0]) - 1} cells, the header has {len(rows[0])}"


def _add_cell(rows):
    rows[3].append("0")
    return 4, f"row has {len(rows[0]) + 1} cells, the header has {len(rows[0])}"


def _after_blank_line(change):
    # a blank line is not a record, but errors still name the physical line
    def corrupt(rows):
        line, message = change(rows)
        rows.insert(line - 1, [])
        return line + 1, message

    return corrupt


CORRUPTIONS = {
    "truth-7": _set_truth("1", "7"),
    "truth-minus-0": _set_truth("0", "-0"),
    "truth-padded": _set_truth("1", " 1"),
    "truth-empty": _set_truth("0", ""),
    "seq-label-5": _set_positive_label("5"),
    "short-row": _drop_last_cell,
    "long-row": _add_cell,
    "truth-7-after-blank-line": _after_blank_line(_set_truth("1", "7")),
}


def corrupted_dataset(tmp_path, corrupt):
    serialize(generate_dataset(builtin_task("task1", splits=(10, 4, 4))), tmp_path)
    csv_path = tmp_path / "sequences.csv"
    rows = list(csv.reader(csv_path.open(newline="")))
    line, message = corrupt(rows)
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return f"sequences.csv:{line}: ", message


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_deserialize_rejects_malformed_rows(tmp_path, name, verify):
    where, message = corrupted_dataset(tmp_path, CORRUPTIONS[name])
    with pytest.raises(DatasetFormatError) as exc:
        deserialize(tmp_path, verify=verify)
    assert where in str(exc.value) and message in str(exc.value)


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_infer_rejects_malformed_rows(tmp_path, name):
    where, message = corrupted_dataset(tmp_path, CORRUPTIONS[name])
    result = CliRunner().invoke(main, ["infer", str(tmp_path)])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert where in result.output and message in result.output


def test_unknown_label_keeps_its_message(tmp_path):
    def unknown_label(rows):
        rows[2][rows[0].index("Y_label")] = "x"
        return 3, "label 'x' not in domain 'fashion'"

    where, message = corrupted_dataset(tmp_path, unknown_label)
    with pytest.raises(DatasetFormatError) as exc:
        deserialize(tmp_path)
    assert str(exc.value).endswith(where + message)


def test_csv_module_error_names_its_line(tmp_path):
    serialize(generate_dataset(builtin_task("task5", splits=(10, 4, 4))), tmp_path)
    csv_path = tmp_path / "sequences.csv"
    data = csv_path.read_bytes()
    csv_path.write_bytes(data + b"9" * (csv.field_size_limit() + 1) + b"\r\n")
    line = data.count(b"\n") + 1
    result = CliRunner().invoke(main, ["infer", str(tmp_path)])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert f"sequences.csv:{line}: unreadable (field larger than field limit" in result.output


# ---------------------------------------------------------------------------
# The stored automaton: a verified load names metadata.json in every error


def _stored_dfa_dataset(tmp_path):
    serialize(generate_dataset(builtin_task("task5", splits=(10, 4, 4))), tmp_path)
    path = tmp_path / "metadata.json"
    return path, json.loads(path.read_text())


def test_stored_spec_without_constraints_fails_its_load(tmp_path):
    path, metadata = _stored_dfa_dataset(tmp_path)
    metadata["spec"] |= {"constraints": {}, "formula": "true"}
    path.write_text(json.dumps(metadata))
    for verify in (False, True):
        with pytest.raises(LtlseqError) as exc:
            deserialize(tmp_path, verify=verify)
        assert type(exc.value) is DatasetFormatError
        assert str(exc.value) == f"{path}: task 'task5': no constraints; a task needs at least one"


@pytest.mark.parametrize("seed", [999, "x", None, True], ids=["other-int", "str", "null", "bool"])
def test_stored_seed_other_than_the_spec_fails_its_load(tmp_path, seed):
    path, metadata = _stored_dfa_dataset(tmp_path)
    metadata["seed"] = seed
    path.write_text(json.dumps(metadata))
    for verify in (False, True):
        with pytest.raises(DatasetFormatError) as exc:
            deserialize(tmp_path, verify=verify)
        assert str(exc.value) == f"{path}: seed {seed!r} is not the spec's seed 12345"


def _set_cell(value):
    def edit(d):
        d["transitions"][0][1] = value
        return DatasetFormatError, f"DFA transitions[0][1] {value!r} is not in 0..3"

    return edit


def _drop_row(d):
    d["transitions"].pop()
    return DatasetFormatError, "DFA transitions has 3 rows, not 4"


def _drop_digest(d):
    del d["sha256"]
    return DatasetFormatError, "DFA JSON is missing ['sha256']"


def _move_target(d):
    d["transitions"][0][1] = (d["transitions"][0][1] + 1) % d["states"]
    edited = Dfa(
        atoms=tuple(d["atoms"]),
        n_states=d["states"],
        accepting=frozenset(d["accepting"]),
        transitions=tuple(map(tuple, d["transitions"])),
        initial=d["initial"],
    )
    digest = edited.to_json_dict()["sha256"]
    return IntegrityError, f"DFA sha256 {d['sha256']!r} does not match its automaton ({digest})"


# task5's automaton: 4 states over 1 atom
STORED_DFA_EDITS = {
    "bool-cell": _set_cell(True),
    "out-of-range-cell": _set_cell(4),
    "row-count": _drop_row,
    "no-sha256": _drop_digest,
    "digest-mismatch": _move_target,
}


@pytest.mark.parametrize("name", list(STORED_DFA_EDITS))
def test_stored_dfa_error_names_metadata_json(tmp_path, name):
    path, metadata = _stored_dfa_dataset(tmp_path)
    kind, message = STORED_DFA_EDITS[name](metadata["dfa"])
    path.write_text(json.dumps(metadata))
    with pytest.raises(kind) as exc:
        deserialize(tmp_path, verify=True)
    assert type(exc.value) is kind
    assert str(exc.value) == f"{path}: {message}"
    deserialize(tmp_path)  # an unverified load does not parse the automaton
    result = CliRunner().invoke(main, ["infer", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {path}: {message}" in result.output


def _move_second_state(rows, first_len):
    col = rows[0].index("state_after")
    rows[2][col] = str((int(rows[2][col]) + 1) % 4)
    return "3: sequence train/0: replay diverges at step 1"


def _flip_first_label(rows, first_len):
    col = rows[0].index("seq_label")
    for row in rows[1 : 1 + first_len]:
        row[col] = "1" if row[col] == "0" else "0"
    return f"{1 + first_len}: sequence train/0: label does not match acceptance"


@pytest.mark.parametrize("edit", [_move_second_state, _flip_first_label], ids=["state", "label"])
def test_replay_error_names_the_line_of_sequences_csv(tmp_path, edit):
    serialize(generate_dataset(compile_task(builtin_task("task5", splits=(4, 2, 2)))), tmp_path)
    path = tmp_path / "sequences.csv"
    rows = list(csv.reader(path.open(newline="")))
    first_len = sum(1 for row in rows[1:] if row[:2] == ["train", "0"])
    assert rows[1][:2] == rows[2][:2] == ["train", "0"]
    message = f"{path}:{edit(rows, first_len)}"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    deserialize(tmp_path)  # structurally fine without verification
    with pytest.raises(IntegrityError) as exc:
        deserialize(tmp_path, verify=True)
    assert str(exc.value) == message
    result = CliRunner().invoke(main, ["infer", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {message}" in result.output


@pytest.mark.parametrize("step", [0, 1, "last"])
@pytest.mark.parametrize(
    "state", ["9" * 20, "-1", "1000"], ids=["past-int64", "negative", "past-states"]
)
def test_out_of_range_state_diverges_at_its_step(tmp_path, state, step):
    """A recorded state outside the automaton loads unverified as the int it
    reads, and a verified load names its line: the gather replay never
    indexes with it (the columnar decoder reads -1 and 1000, and defers a
    state past int64 to the row decoder)."""
    ds = generate_dataset(builtin_task("task5", splits=(4, 2, 2)))
    serialize(ds, tmp_path)
    path = tmp_path / "sequences.csv"
    rows = list(csv.reader(path.open(newline="")))
    first = ds.splits["train"][0]
    step = first.length - 1 if step == "last" else step
    rows[1 + step][rows[0].index("state_after")] = state
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    text = path.read_bytes().decode()
    assert (_decode_columns(text, ds.spec) is None) == (state == "9" * 20)
    loaded = deserialize(tmp_path).splits["train"][0]
    assert loaded.states == (*first.states[:step], int(state), *first.states[step + 1 :])
    with pytest.raises(IntegrityError) as exc:
        deserialize(tmp_path, verify=True)
    assert str(exc.value) == f"{path}:{2 + step}: sequence train/0: replay diverges at step {step}"


def test_mutated_stored_dfa_loads_unchanged_or_fails_typed(tmp_path):
    """Seeded edits of the stored automaton: dropped keys, retyped fields,
    truncated and extended rows, retyped and out-of-range cells, swapped
    rows and cells moved in range.  A verified load raises an LtlseqError
    that names metadata.json, or loads the unedited automaton."""
    path, base = _stored_dfa_dataset(tmp_path)
    base_dfa = Dfa.from_json_dict(base["dfa"])
    n = base_dfa.n_states
    retyped = ("0", 1.5, None, True, -1, [], {}, [[0, 1]], 2**64)
    cells = (True, False, 1.0, -1, "1", 2**64, None, [1])
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(300):
        metadata = json.loads(json.dumps(base))
        d = metadata["dfa"]
        for _ in range(rng.randrange(1, 3)):
            rows = d.get("transitions")
            op = rng.randrange(7)
            if op == 0 and d:
                del d[rng.choice(sorted(d))]
            elif op == 1 and d:
                d[rng.choice(sorted(d))] = rng.choice(retyped)
            elif not (isinstance(rows, list) and len(rows) > 1):
                continue
            elif op == 5:
                i, j = rng.sample(range(len(rows)), 2)
                rows[i], rows[j] = rows[j], rows[i]
            elif not (isinstance(row := rng.choice(rows), list) and row):
                continue
            elif op == 2:
                row.pop()
            elif op == 3:
                row.append(rng.randrange(n))
            elif op == 4:
                row[rng.randrange(len(row))] = rng.choice(cells)
            elif isinstance(row[cell := rng.randrange(len(row))], int):
                row[cell] = (row[cell] + rng.randrange(1, n)) % n
        path.write_text(json.dumps(metadata))
        try:
            ds = deserialize(tmp_path, verify=True)
        except LtlseqError as err:
            assert "metadata.json" in str(err), err
            outcomes.add(type(err))
        else:
            assert ds.dfa == base_dfa
            outcomes.add(Dfa)
    assert outcomes == {DatasetFormatError, IntegrityError, Dfa}
