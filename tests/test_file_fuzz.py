"""Seeded mutations of every input file: only an ``LtlseqError`` may escape.

Each case truncates, flips, deletes, duplicates or retypes content of a file
the package reads — ``sequences.csv``, the fields of ``metadata.json`` other
than the stored DFA (which ``test_dataset_io`` fuzzes), a task YAML, a sweep
CSV and an automaton cache file — and hands it to the function that reads
that file.  A cache file is never an error: it is recompiled, so the task
must equal an uncached compile.
"""

import json
import random
import re

import pytest

from ltlseq.automata import Dfa
from ltlseq.cli import _compile_cached
from ltlseq.errors import LtlseqError
from ltlseq.generator import deserialize, generate_dataset, serialize, write_summary_json
from ltlseq.harness import (
    OracleConfig,
    oracle_sweep,
    read_sweep_csv,
    summarize_rows,
    write_sweep_csv,
)
from ltlseq.library import builtin_task
from ltlseq.tasks import compile_task, load_task_yaml

MUTATIONS = 150  # per file kind

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
    good = (dataset_dir / "sequences.csv").read_text()
    (tmp_path / "metadata.json").write_text((dataset_dir / "metadata.json").read_text())
    for _ in range(MUTATIONS):
        (tmp_path / "sequences.csv").write_text(mutate(good, rng), newline="")
        fails_typed_or_passes(deserialize, tmp_path, True)


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


def test_mutated_cache_file(tmp_path, monkeypatch):
    rng = random.Random(5)
    spec = builtin_task("task3")
    monkeypatch.setenv("LTLSEQ_CACHE_DIR", str(tmp_path))
    want = _compile_cached(spec)
    (path,) = tmp_path.glob("*.dfa.json")
    good = path.read_text()
    for _ in range(MUTATIONS):
        path.write_text(mutate(good, rng))
        assert _compile_cached(spec) == want
        # a file the reader rejects is rewritten; one it accepts holds the automaton
        assert Dfa.from_json_dict(json.loads(path.read_text())) == want.dfa


def _write(path, text):
    path.write_text(text, newline="")
    return path
