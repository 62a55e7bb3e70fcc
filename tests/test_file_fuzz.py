"""Seeded mutations of every input file: only an ``LtlseqError`` may escape.

Each case truncates, flips, deletes, duplicates or retypes content of a file
the package reads — ``sequences.csv``, the fields of ``metadata.json`` other
than the stored DFA (which ``test_dataset_io`` fuzzes), a task YAML and a
sweep CSV — and hands it to the function that reads that file.

Each ``sequences.csv`` text, mutated or with cells edited, also goes to the
columnar decoder: it must return the row decoder's samples and lines, with a
gather replay that agrees with the scalar one, or defer to the row decoder.
"""

import csv
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from ltlseq.errors import DatasetFormatError, IntegrityError, LtlseqError
from ltlseq.generator import (
    Dataset,
    _decode_columns,
    _decode_sequences,
    _replay_matches,
    _verify_replay,
    deserialize,
    generate_dataset,
    serialize,
    write_summary_json,
)
from ltlseq.harness import (
    OracleConfig,
    oracle_sweep,
    read_sweep_csv,
    summarize_rows,
    write_sweep_csv,
)
from ltlseq.library import builtin_task
from ltlseq.tasks import TaskSpec, compile_task, load_task_yaml
from test_dataset_io import GOLDEN_DATASETS, awkward_spec, golden_dataset

MUTATIONS = 150  # per file kind
CSV_PATH = Path("sequences.csv")  # the path decode errors name

# a range domain, so that a retyped bound can ask for a grid past the cap
TASK_YAML = """\
name: fuzz
domains: {d: {range: [0, 9]}, e: {labels: [a, b, c]}}
variables: {A: {domain: d}, B: {domain: d}, C: {domain: d, source: mnist}, E: {domain: e}}
constraints: {p: 'A + B = C', q: 'A < E', r: 'all_different(A, B, E)'}
formula: G(p -> F q) & (r U p)
length: {min: 2, max: 5}
splits: {train: 4, val: 2, test: 2}
positive_ratio: 0.5
seed: 7
"""

# scalars of every JSON/YAML type, and numbers no field should take
VALUES = [
    "x", "", "-1", "0", "1.5", "true", "null", "[]", "{}", "nan", "inf", ".nan", ".inf",
    "1e400", "9" * 20, "[0, 100000000]",
]
JSON_VALUES = ["null", "true", "1.5", "-1", '"x"', "[]", "{}", "1e300"]
ALPHABET = "019-.,:;\"'[]{}\n\r\t x"
TOKEN = re.compile(r"[\w.+-]+")


def mutate(text: str, rng: random.Random) -> str:
    """``text`` truncated, with one character flipped, a span deleted or
    duplicated, or one token replaced by a value of another type."""
    op = rng.choice(["truncate", "flip", "delete", "duplicate", "retype", "retype"])
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.choice([1, 2, 8, 64, len(text)]))
    if op == "truncate":
        return text[:i]
    if op == "flip":
        return text[:i] + rng.choice(ALPHABET) + text[i + 1 :]
    if op == "delete":
        return text[:i] + text[j:]
    if op == "duplicate":
        return text[:j] + text[i:j] + text[j:]
    m = rng.choice(list(TOKEN.finditer(text)))
    return text[: m.start()] + rng.choice(VALUES) + text[m.end() :]


def mutate_json(value, rng: random.Random):
    """``value`` with one node below the top deleted, truncated, flipped,
    duplicated or replaced by a value of another type."""
    parent, key = _pick_node(value, rng)
    node = parent[key]
    op = rng.choice(["delete", "truncate", "flip", "duplicate", "retype"])
    if op == "delete":
        del parent[key]
    elif op == "truncate" and isinstance(node, (str, list)):
        parent[key] = node[: len(node) // 2]
    elif op == "flip" and isinstance(node, bool):
        parent[key] = not node
    elif op == "flip" and isinstance(node, (int, float)):
        parent[key] = rng.choice([-node, node + 1, node * 1e300])
    elif op == "flip" and isinstance(node, str) and node:
        i = rng.randrange(len(node))
        parent[key] = node[:i] + rng.choice(ALPHABET) + node[i + 1 :]
    elif op == "duplicate" and isinstance(node, (str, list)):
        parent[key] = node + node
    elif op == "duplicate" and isinstance(node, dict) and node:
        node[f"{rng.choice(list(node))}2"] = node[rng.choice(list(node))]
    else:
        parent[key] = json.loads(rng.choice(JSON_VALUES))
    return value


def _pick_node(value, rng: random.Random):
    """A (container, key) pair: a random walk down from the top, stopping at
    each level with probability 1/3."""
    parent, key = value, rng.choice(_keys(value))
    while isinstance(parent[key], (dict, list)) and _keys(parent[key]) and rng.random() < 2 / 3:
        parent, key = parent[key], rng.choice(_keys(parent[key]))
    return parent, key


def _keys(container):
    return list(container) if isinstance(container, dict) else list(range(len(container)))


def fails_typed_or_passes(read, *args):
    try:
        read(*args)
    except LtlseqError:
        pass


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds")
    serialize(generate_dataset(builtin_task("task5", splits=(4, 2, 2), max_length=12)), path)
    return path


def test_mutated_sequences_csv(dataset_dir, tmp_path):
    rng = random.Random(1)
    path = dataset_dir / "sequences.csv"
    # read_text turns CR LF into LF, which only the row decoder reads; the
    # bytes serialize writes keep CR LF, which the columnar decoder reads
    good, written = path.read_text(), path.read_bytes().decode()
    metadata = json.loads((dataset_dir / "metadata.json").read_text())
    (tmp_path / "metadata.json").write_text(json.dumps(metadata))
    outcomes = Counter()
    for text in (good, written):
        for _ in range(MUTATIONS):
            mutated = mutate(text, rng)
            (tmp_path / "sequences.csv").write_text(mutated, newline="")
            fails_typed_or_passes(deserialize, tmp_path, True)
            outcomes[columnar_outcome(mutated, metadata)] += 1
    assert set(outcomes) == {"deferred", "replays", "diverges"}, outcomes


# cell values for the columnar decoder: int spellings int() reads alike,
# values past int64, and labels and splits that do or do not decode
CELL_VALUES = [
    "0", "1", "2", "3", "-1", "-0", "+1", " 1", "01", "1_0", "\u0663", "9" * 20, "-" + "9" * 19,
    "", "x", "1.5", "train", "val", "test", "TRAIN", "rock", "paper",
]


def test_edited_cells_decode_as_the_row_decoder(dataset_dir):
    """One to three cells of the written sequences.csv set to other values,
    rows left whole: the columnar decode of each equals the row decoder's or
    defers to it, and its gather replay agrees with the scalar replay."""
    rng = random.Random(6)
    metadata = json.loads((dataset_dir / "metadata.json").read_text())
    rows = written_rows(dataset_dir / "sequences.csv")
    outcomes = Counter()
    for _ in range(MUTATIONS):
        edited = [list(row) for row in rows]
        for _ in range(rng.randrange(1, 4)):
            col = rng.randrange(len(rows[0]))
            # half the time a value of the same column, which still decodes
            values = [rng.choice(CELL_VALUES), rng.choice(rows[1:])[col]]
            rng.choice(edited[1:])[col] = rng.choice(values)
        outcomes[columnar_outcome(csv_text(edited), metadata)] += 1
    assert set(outcomes) == {"deferred", "replays", "diverges"}, outcomes


def written_rows(path):
    """The cells of each line of a ``sequences.csv`` that holds no quote."""
    return [line.split(",") for line in path.read_bytes().decode().split("\r\n")[:-1]]


def csv_text(rows):
    return "".join(",".join(row) + "\r\n" for row in rows)


def columnar_outcome(text, metadata):
    """What the columnar decoder makes of ``text``: "deferred" to the row
    decoder, or samples and lines equal to the row decoder's whose gather
    replay ("replays" or "diverges") agrees with the scalar replay."""
    spec = TaskSpec.from_dict(metadata["spec"])
    columns = _decode_columns(text, spec)
    if columns is None:
        return "deferred"
    splits, lines, trace = columns
    assert (splits, lines) == _decode_sequences(text, spec, CSV_PATH)
    ds = Dataset(spec, splits, metadata)
    if _replay_matches(ds.dfa, *trace):
        _verify_replay(ds, lines, CSV_PATH)
        return "replays"
    with pytest.raises(IntegrityError):
        _verify_replay(ds, lines, CSV_PATH)
    return "diverges"


@pytest.mark.parametrize("name", list(GOLDEN_DATASETS))
def test_columnar_decoder_reads_every_written_dataset(tmp_path, name):
    ds = golden_dataset(name)
    serialize(ds, tmp_path)
    text = (tmp_path / "sequences.csv").read_bytes().decode()
    assert columnar_outcome(text, ds.metadata) == "replays"
    assert _decode_columns(text, ds.spec)[0] == ds.splits


def test_columnar_decoder_reads_columns_in_any_order(tmp_path):
    """Columns by header name, the last of a repeated one: a dataset with its
    first index column moved to the end, the cells before it repeated under
    their names, and the last row's index grown to four digits.  Without its
    last line break the text defers, so the last cell is not cut short."""
    ds = golden_dataset("task5+images")
    serialize(ds, tmp_path)
    rows = written_rows(tmp_path / "sequences.csv")
    moved = rows[0].index(f"{ds.spec.variables[0].name}_index")
    rows = [row[:moved] + row[moved + 1 :] + row[: moved + 1] for row in rows]
    rows[-1][-1] = "1234"
    text = csv_text(rows)
    assert columnar_outcome(text, ds.metadata) == "replays"
    assert columnar_outcome(text[:-2], ds.metadata) == "deferred"
    assert _decode_sequences(text[:-2], ds.spec, CSV_PATH) == _decode_sequences(
        text, ds.spec, CSV_PATH
    )


def _interleave(text):
    # the first row of train/1 between the first two rows of train/0
    lines = text.split("\r\n")
    first_of_train_1 = next(i for i, line in enumerate(lines) if line.startswith("train,1,0,"))
    lines.insert(2, lines.pop(first_of_train_1))
    return "\r\n".join(lines)


# edits of written sequences.csv text the row decoder reads as the original dataset
DEFERRED_TEXTS = {
    "lf-line-breaks": lambda text: text.replace("\r\n", "\n"),
    "blank-line": lambda text: text.replace("\r\ntrain,0,1,", "\r\n\r\ntrain,0,1,"),
    "no-last-line-break": lambda text: text[:-2],
    "interleaved-sequences": _interleave,
    "quoted-labels": lambda text: text,
}


@pytest.mark.parametrize("name", list(DEFERRED_TEXTS))
def test_columnar_decoder_defers_and_the_load_is_unchanged(tmp_path, name):
    spec = awkward_spec() if name == "quoted-labels" else builtin_task("task5", splits=(4, 2, 2))
    ds = generate_dataset(spec)
    serialize(ds, tmp_path)
    path = tmp_path / "sequences.csv"
    written = path.read_bytes().decode()
    text = DEFERRED_TEXTS[name](written)
    if name == "quoted-labels":
        assert '"a,b"' in text and '"q""t"' in text
    else:
        assert text != written
    path.write_text(text, newline="")
    assert _decode_columns(text, spec) is None
    assert deserialize(tmp_path, verify=True).splits == ds.splits


def _first_row(col, change):
    """Change the ``col`` cell of the first row, train/0's step 0."""

    def edit(rows):
        i = rows[0].index(col)
        rows[1][i] = change(rows[1][i])
        return rows

    return edit


# edits of written rows the row decoder refuses, each naming a line
REFUSED_EDITS = {
    "repeated-sequence": lambda rows: rows + [r for r in rows[1:] if r[:2] == ["train", "0"]],
    # the same cells in the same order, so only the rows' widths are wrong
    "line-break-one-cell-early": lambda rows: [
        rows[0], rows[1][:-1], rows[1][-1:] + rows[2], *rows[3:]
    ],
    "step-out-of-order": _first_row("t", lambda t: "1"),
    # int() strips the whitespace, but csv reads a line break
    "lone-line-feed": _first_row("t", lambda t: "\n" + t),
    "lone-carriage-return": _first_row("t", lambda t: "\r" + t),
    "carriage-return-in-header": lambda rows: [rows[0] + ["no\rte"], *(r + [""] for r in rows[1:])],
    # as many commas as two unread cells, but csv reads one quoted cell
    "quoted-comma": lambda rows: [
        rows[0] + ["n1", "n2"], rows[1] + ['"x,y"'], *(r + ["", ""] for r in rows[2:])
    ],
    "label-changes": _first_row("seq_label", lambda label: "10"[int(label)]),
    "unknown-split": _first_row("split", str.upper),
    "long-unread-cell": lambda rows: [
        rows[0] + ["note"],
        rows[1] + ["x" * (csv.field_size_limit() + 1)],
        *(r + [""] for r in rows[2:]),
    ],
}


@pytest.mark.parametrize("name", list(REFUSED_EDITS))
def test_columnar_decoder_defers_what_the_row_decoder_refuses(dataset_dir, tmp_path, name):
    metadata = json.loads((dataset_dir / "metadata.json").read_text())
    text = csv_text(REFUSED_EDITS[name](written_rows(dataset_dir / "sequences.csv")))
    assert columnar_outcome(text, metadata) == "deferred"
    (tmp_path / "metadata.json").write_text(json.dumps(metadata))
    (tmp_path / "sequences.csv").write_text(text, newline="")
    with pytest.raises(DatasetFormatError, match=r"sequences\.csv:\d+: "):
        deserialize(tmp_path)


def test_mutated_metadata_fields(dataset_dir, tmp_path):
    rng = random.Random(2)
    good = json.loads((dataset_dir / "metadata.json").read_text())
    (tmp_path / "sequences.csv").write_text((dataset_dir / "sequences.csv").read_text())
    for _ in range(MUTATIONS):
        metadata = json.loads(json.dumps(good))
        dfa = metadata.pop("dfa")
        metadata = mutate_json(metadata, rng) | {"dfa": dfa}
        (tmp_path / "metadata.json").write_text(json.dumps(metadata))
        fails_typed_or_passes(deserialize, tmp_path, True)


def _compile_yaml(path):
    spec = load_task_yaml(path)
    # compile time grows with max_length: a compile near the 10,000-step cap
    # (_MAX_LENGTH) takes about 0.2 s, too long for every mutation
    if spec.max_length <= 1000:
        compile_task(spec)


def test_mutated_task_yaml(tmp_path):
    rng = random.Random(3)
    path = tmp_path / "task.yaml"
    compile_task(load_task_yaml(_write(path, TASK_YAML)))  # the unmutated task compiles
    # every value as the range's upper bound and as the range itself, then random edits
    texts = [TASK_YAML.replace("[0, 9]", f"[0, {v}]") for v in VALUES]
    texts += [TASK_YAML.replace("[0, 9]", v) for v in VALUES]
    texts += [mutate(TASK_YAML, rng) for _ in range(MUTATIONS)]
    for text in texts:
        fails_typed_or_passes(_compile_yaml, _write(path, text))


def test_mutated_sweep_csv(tmp_path):
    rng = random.Random(4)
    task = compile_task(load_task_yaml(_write(tmp_path / "task.yaml", TASK_YAML)))
    rows = oracle_sweep(
        task, generate_dataset(task), [OracleConfig(), OracleConfig("ic", "flip", 0.1)],
        engines=("exact", "sddnnf-lp"), seeds=(1, 2),
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    good = path.read_text()

    def report(path):
        write_summary_json(summarize_rows(read_sweep_csv(path)), tmp_path / "summary.json")

    for _ in range(MUTATIONS):
        fails_typed_or_passes(report, _write(path, mutate(good, rng)))


def _write(path, text):
    path.write_text(text, newline="")
    return path
