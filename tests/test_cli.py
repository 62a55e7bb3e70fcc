"""End-to-end command-line tests."""

import csv
import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from ltlseq.cli import main


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def generate(tmp_path, *extra, task="task5", splits=("10", "4", "4")):
    out = tmp_path / "ds"
    result = run(
        "generate", task, "-o", str(out), "--splits", *splits, *extra
    )
    assert result.exit_code == 0, result.output
    return out


# ---------------------------------------------------------------------------
# compile


def test_version():
    result = run("--version")
    assert result.exit_code == 0


def test_compile_prints_summary():
    result = run("compile", "task1")
    assert result.exit_code == 0
    assert "states: 8" in result.output
    assert "formula: G(p <-> X X q)" in result.output
    assert "atoms: p, q" in result.output
    assert "accepting:" in result.output


def test_compile_unknown_task():
    result = run("compile", "no-such-task")
    assert result.exit_code == 2
    assert "task1" in result.output  # lists the built-ins


def test_compile_writes_artifacts(tmp_path):
    out = tmp_path / "build"
    result = run("compile", "task5", "-o", str(out))
    assert result.exit_code == 0
    dfa = json.loads((out / "dfa.json").read_text())
    assert dfa["states"] == 4
    guards = (out / "guards.txt").read_text().splitlines()
    assert guards and all("->" in line for line in guards)


def test_compile_guards_print_and_or(tmp_path):
    # task1's guards are disjunctions of conjunctions over two atoms
    out = tmp_path / "build"
    assert run("compile", "task1", "-o", str(out)).exit_code == 0
    guards = (out / "guards.txt").read_text()
    assert len(guards.splitlines()) == 19
    assert "0 -> 1: (!p & !q) | (!p & q)" in guards.splitlines()
    digest = hashlib.sha256(guards.encode()).hexdigest()
    assert digest == "e826a18f435ffb38a784670bfe6d6dc06ffad5befe16517df05677d0a740f7a8"


def test_compile_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: task\nformula: 'p &'\n")
    result = run("compile", str(path))
    assert result.exit_code == 2
    assert "bad.yaml" in result.output


def test_compile_non_utf8_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"name: t\xe9st\n")
    result = run("compile", str(path))
    assert result.exit_code == 2
    assert "bad.yaml" in result.output


def test_compile_yaml_task(tmp_path):
    from ltlseq.library import builtin_task
    from ltlseq.tasks import save_task_yaml

    path = tmp_path / "task.yaml"
    save_task_yaml(builtin_task("task6"), path)
    result = run("compile", str(path))
    assert result.exit_code == 0
    assert "states: 4" in result.output


def test_compile_state_cap():
    result = run("compile", "task1", "--max-states", "3")
    assert result.exit_code == 1
    assert "cap" in result.output


_DEEP = "[" * 100_000 + "]" * 100_000  # past any parser's recursion limit
_BIG_INT = "9" * 5_000  # past the int digit limit of str -> int conversion


def _sub_once(path, pattern, repl):
    text = path.read_text()
    new, count = re.subn(pattern, repl, text, count=1, flags=re.M)
    assert count == 1
    path.write_text(new)


@pytest.mark.parametrize(
    "where, content",
    [
        ("task", "deep"),
        ("task", "big-int"),
        ("task", "inf-seed"),
        ("metadata", "deep"),
        ("metadata", "big-int"),
        ("metadata", "bad-spec"),
        ("cache", "deep"),
        ("cache", "big-int"),
    ],
)
def test_file_boundary_fails_typed(tmp_path, where, content):
    """Unparseable files end in a typed error naming the file (exit 2 for a
    task YAML, 1 for a dataset) or, for a cache file, a recompile; never a
    traceback."""
    from ltlseq.library import builtin_task
    from ltlseq.tasks import save_task_yaml

    env = None
    if where == "task":
        path = tmp_path / "bad.yaml"
        save_task_yaml(builtin_task("task1"), path)
        args, want_exit = ("compile", str(path)), 2
        value = {"big-int": _BIG_INT, "inf-seed": ".inf"}.get(content)
        if value is not None:
            _sub_once(path, r"^seed: .*$", f"seed: {value}")
    elif where == "metadata":
        path = generate(tmp_path) / "metadata.json"
        args, want_exit = ("infer", str(path.parent)), 1
        if content == "big-int":
            _sub_once(path, r'"seed": \d+', f'"seed": {_BIG_INT}')
        elif content == "bad-spec":
            _rewrite_metadata(path, lambda m: m | {"spec": m["spec"] | {"seed": "x"}})
    else:
        env, path = _seed_cache(tmp_path, "task3")
        good = path.read_text()
        args, want_exit = ("compile", "task3"), 0
        if content == "big-int":
            _sub_once(path, r'"states": \d+', f'"states": {_BIG_INT}')
    if content == "deep":
        path.write_text(_DEEP)
    result = CliRunner().invoke(main, list(args), env=env)
    assert result.exit_code == want_exit, result.output
    if want_exit:
        assert isinstance(result.exception, SystemExit), result.exception
        assert path.name in result.output
    else:
        assert result.exception is None, result.exception
        assert path.read_text() == good  # recompiled and rewritten


def test_compile_cache_round_trip(tmp_path):
    cache = tmp_path / "cache"
    env = {"LTLSEQ_CACHE_DIR": str(cache)}
    first = run("compile", "task1", env=env)
    assert first.exit_code == 0
    entries = list(cache.glob("*.dfa.json"))
    assert len(entries) == 1
    stamp = entries[0].stat().st_mtime_ns
    second = run("compile", "task1", env=env)
    assert second.exit_code == 0
    assert "states: 8" in second.output
    assert entries[0].stat().st_mtime_ns == stamp  # reused, not rewritten


def _seed_cache(tmp_path, task):
    cache = tmp_path / "cache"
    env = {"LTLSEQ_CACHE_DIR": str(cache)}
    assert run("compile", task, env=env).exit_code == 0
    (entry,) = cache.glob("*.dfa.json")
    return env, entry


def test_compile_recovers_truncated_cache(tmp_path):
    env, entry = _seed_cache(tmp_path, "task3")
    good = entry.read_text()
    entry.write_text(good[: len(good) // 2])
    result = run("compile", "task3", env=env)
    assert result.exit_code == 0, result.output
    assert "states: 5" in result.output
    assert entry.read_text() == good  # rewritten whole
    assert [p.name for p in entry.parent.iterdir()] == [entry.name]  # no temp file left


def test_compile_recovers_invalid_cache(tmp_path):
    env, entry = _seed_cache(tmp_path, "task3")
    good = entry.read_text()
    data = json.loads(good)
    data["transitions"][0]["to"] = 99
    entry.write_text(json.dumps(data))
    result = run("compile", "task3", env=env)
    assert result.exit_code == 0, result.output
    assert entry.read_text() == good


def test_compile_recovers_cache_over_other_atoms(tmp_path):
    env, entry = _seed_cache(tmp_path, "task3")
    good = entry.read_text()
    data = json.loads(good)
    data["atoms"] = ["x", "y"]
    entry.write_text(json.dumps(data))
    for _ in range(2):
        result = run("compile", "task3", env=env)
        assert result.exit_code == 0, result.output
        assert "atoms: p, q" in result.output
        assert entry.read_text() == good


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_dataset(tmp_path):
    out = generate(tmp_path)
    assert (out / "sequences.csv").exists()
    assert (out / "metadata.json").exists()


def test_generate_reports_counts(tmp_path):
    out = tmp_path / "ds"
    result = run("generate", "task3", "-o", str(out))
    assert result.exit_code == 0
    assert "train: 320 sequences, 160 positive" in result.output
    assert "val: 40 sequences, 20 positive" in result.output


def test_generate_positive_ratio(tmp_path):
    out = tmp_path / "ds"
    result = run(
        "generate", "task5", "-o", str(out), "--splits", "40", "10", "10",
        "--positive-ratio", "0.9",
    )
    assert result.exit_code == 0
    assert "train: 40 sequences, 36 positive" in result.output


def test_generate_jobs_deterministic(tmp_path):
    digests = []
    for sub, jobs in (("a", "1"), ("b", "4")):
        out = tmp_path / sub
        result = run("generate", "task5", "-o", str(out), "--jobs", jobs)
        assert result.exit_code == 0
        digests.append(
            hashlib.sha256((out / "sequences.csv").read_bytes()).hexdigest()
        )
    assert digests[0] == digests[1]


def test_generate_infeasible_task(tmp_path):
    from ltlseq.library import builtin_task
    from ltlseq.tasks import save_task_yaml

    spec = builtin_task("task5", formula="p & !p")
    path = tmp_path / "broken.yaml"
    save_task_yaml(spec, path)
    result = run("generate", str(path), "-o", str(tmp_path / "ds"))
    assert result.exit_code == 1
    assert "label 1" in result.output


# ---------------------------------------------------------------------------
# infer


def test_infer_perfect_oracle(tmp_path):
    out = generate(tmp_path)
    result = run("infer", str(out))
    assert result.exit_code == 0
    for line in ("ic_acc: 1.0", "cc_acc: 1.0", "nsp_acc: 1.0", "sc_acc: 1.0"):
        assert line in result.output
    assert "mp_successor:" in result.output
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["sc_acc"] == 1.0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["avg_acc"]) == 1.0


def test_infer_without_train_split_leaves_baselines_empty(tmp_path):
    out = generate(tmp_path, splits=("0", "4", "6"))
    result = run("infer", str(out))
    assert result.exit_code == 0, result.output
    assert "sc_acc: 1.0" in result.output
    assert "mp_successor: n/a" in result.output and "mp_sequence: n/a" in result.output
    with open(out / "metrics.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["mp_successor"] == row["mp_sequence"] == ""
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mp_successor"] is None and metrics["mp_sequence"] is None


def test_infer_combined_target_has_no_ic(tmp_path):
    out = generate(tmp_path)
    result = run("infer", str(out), "--target", "ic_cc")
    assert result.exit_code == 0
    assert "ic_acc: n/a" in result.output


def test_infer_noisy_oracle(tmp_path):
    out = generate(tmp_path)
    result = run("infer", str(out), "--oracle", "flip", "-p", "0.3")
    assert result.exit_code == 0
    assert "ic_acc: 1.0" not in result.output


def test_infer_unknown_engine(tmp_path):
    out = generate(tmp_path)
    result = run("infer", str(out), "--engine", "magic")
    assert result.exit_code == 2
    assert "exact" in result.output


def test_infer_perfect_with_noise_is_an_error(tmp_path):
    out = generate(tmp_path)
    result = run("infer", str(out), "-p", "0.1")
    assert result.exit_code == 2
    assert "perfect" in result.output


def test_infer_corrupted_dataset(tmp_path):
    out = generate(tmp_path)
    csv_path = out / "sequences.csv"
    rows = list(csv.reader(csv_path.open()))
    label_col = rows[0].index("seq_label")
    rows[1][label_col] = "0" if rows[1][label_col] == "1" else "1"
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    result = run("infer", str(out))
    assert result.exit_code == 1


def _set_first_t_cell(path):
    rows = list(csv.reader(path.open(newline="")))
    rows[1][rows[0].index("t")] = "zero"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _prepend_bad_byte(path):
    path.write_bytes(b"\xff" + path.read_bytes())


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("sequences.csv", _set_first_t_cell),
        ("sequences.csv", _prepend_bad_byte),
        ("metadata.json", _prepend_bad_byte),
    ],
    ids=["t-not-integer", "csv-not-utf8", "metadata-not-utf8"],
)
def test_infer_rejects_malformed_dataset(tmp_path, name, corrupt):
    out = generate(tmp_path)
    corrupt(out / name)
    result = run("infer", str(out))
    assert result.exit_code == 1
    assert name in result.output


def test_infer_calibrate_writes_temperature(tmp_path):
    out = generate(tmp_path)
    result = run("infer", str(out), "--calibrate")
    assert result.exit_code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "sc_temp" in metrics


@pytest.mark.parametrize("calibrate", [False, True], ids=["plain", "calibrate"])
def test_infer_row_equals_sweep_row(tmp_path, calibrate):
    from ltlseq.generator import deserialize
    from ltlseq.harness import SWEEP_COLUMNS, OracleConfig, mp_baselines, oracle_sweep
    from ltlseq.inference import ENGINE_NAMES
    from ltlseq.tasks import compile_task

    out = generate(tmp_path)
    ds = deserialize(out)
    configs = [
        OracleConfig(target="ic", kind="perfect", p=0.0),
        OracleConfig(target="ic", kind="flip", p=0.2),
        OracleConfig(target="ic_cc", kind="confidence", p=0.1),
    ]
    rows = oracle_sweep(
        compile_task(ds.spec), ds, configs, ENGINE_NAMES, (12345,), "test", calibrate
    )
    mp_successor, mp_sequence = mp_baselines(ds)
    flag = "--calibrate" if calibrate else "--no-calibrate"
    for row, (cfg, engine) in zip(rows, [(c, e) for c in configs for e in ENGINE_NAMES]):
        result = run(
            "infer", str(out), "--engine", engine, "--target", cfg.target,
            "--oracle", cfg.kind, "-p", str(cfg.p), flag, "-o", str(tmp_path / "m"),
        )
        assert result.exit_code == 0, result.output
        want = {c: row[c] for c in SWEEP_COLUMNS}
        want |= {"mp_successor": mp_successor, "mp_sequence": mp_sequence}
        if calibrate:
            want["sc_temp"] = row["sc_temp"]
        with open(tmp_path / "m" / "metrics.csv", newline="") as fh:
            (got,) = csv.DictReader(fh)
        assert list(got) == list(want)
        assert got == {k: "" if v is None else str(v) for k, v in want.items()}
        assert json.loads((tmp_path / "m" / "metrics.json").read_text()) == want


def _rewrite_metadata(path, change):
    metadata = json.loads(path.read_text())
    path.write_text(json.dumps(change(metadata)))


@pytest.mark.parametrize(
    "change",
    [
        lambda m: 5,
        lambda m: [m],
        lambda m: "metadata",
        lambda m: None,
        lambda m: m | {"atoms": "p"},
        lambda m: m | {"atoms": [1]},
        lambda m: m | {"atoms": None},
        lambda m: m | {"spec": []},
        lambda m: m | {"spec": "task5"},
        lambda m: m | {"dfa": 3},
        lambda m: m | {"dfa": [m["dfa"]]},
    ],
    ids=[
        "int", "list", "string", "null", "atoms-string", "atoms-int", "atoms-null",
        "spec-list", "spec-string", "dfa-int", "dfa-list",
    ],
)
def test_infer_rejects_metadata_of_wrong_type(tmp_path, change):
    out = generate(tmp_path)
    _rewrite_metadata(out / "metadata.json", change)
    result = run("infer", str(out))
    assert result.exit_code == 1
    assert "metadata.json" in result.output
    assert "Traceback" not in result.output


def test_infer_rejects_atoms_that_differ_from_the_dfa(tmp_path):
    out = generate(tmp_path, task="task1")
    _rewrite_metadata(out / "metadata.json", lambda m: m | {"atoms": ["p"]})
    result = run("infer", str(out))
    assert result.exit_code == 1
    assert "atoms" in result.output
    assert "Traceback" not in result.output


def test_infer_rejects_atoms_that_are_not_the_spec_constraints(tmp_path):
    # atom q renamed to r in the metadata, the stored DFA and the CSV header
    out = generate(tmp_path, task="task1")
    _rewrite_metadata(
        out / "metadata.json",
        lambda m: m | {"atoms": ["p", "r"], "dfa": m["dfa"] | {"atoms": ["p", "r"]}},
    )
    csv_path = out / "sequences.csv"
    rows = list(csv.reader(csv_path.open(newline="")))
    rows[0] = ["r_truth" if col == "q_truth" else col for col in rows[0]]
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    result = run("infer", str(out))
    assert result.exit_code == 1
    assert "constraint names" in result.output
    assert "Traceback" not in result.output


# ---------------------------------------------------------------------------
# sweep and report


def small_task_file(tmp_path):
    from ltlseq.library import builtin_task
    from ltlseq.tasks import save_task_yaml

    path = tmp_path / "small.yaml"
    save_task_yaml(builtin_task("task5", splits=(10, 4, 4)), path)
    return path


def test_sweep_and_report(tmp_path):
    out = tmp_path / "sweep"
    result = run(
        "sweep", str(small_task_file(tmp_path)), "-o", str(out),
        "-e", "exact", "-e", "fuzzy-p",
        "--seeds", "2", "--p-list", "0.0,0.1",
    )
    assert result.exit_code == 0, result.output
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # configs: perfect + flip/confidence x ic/ic_cc at p=0.1 -> 5 configs
    assert len(rows) == 5 * 2 * 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["groups"]

    report_out = tmp_path / "combined.json"
    result = run("report", str(out / "sweep.csv"), "-o", str(report_out))
    assert result.exit_code == 0
    combined = json.loads(report_out.read_text())
    assert combined["groups"] == summary["groups"]


def test_sweep_seed_list_override(tmp_path):
    out = tmp_path / "sweep"
    result = run(
        "sweep", str(small_task_file(tmp_path)), "-o", str(out),
        "--seed-list", "7,8,9", "--p-list", "0.0",
    )
    assert result.exit_code == 0, result.output
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({r["seed"] for r in rows}) == ["7", "8", "9"]
    assert {r["oracle_kind"] for r in rows} == {"perfect"}


def test_sweep_rejects_bad_p(tmp_path):
    result = run("sweep", "task5", "-o", str(tmp_path / "s"), "--p-list", "0.0,1.2")
    assert result.exit_code == 2


def test_sweep_rejects_seed_count_below_one(tmp_path):
    result = run("sweep", "task5", "-o", str(tmp_path / "s"), "--seeds", "-1", "--p-list", "0.0")
    assert result.exit_code == 2
    assert "--seeds" in result.output
    assert not (tmp_path / "s").exists()


def test_sweep_rejects_repeated_seed(tmp_path):
    result = run(
        "sweep", "task5", "-o", str(tmp_path / "s"), "--seed-list", "7,8,7", "--p-list", "0.0"
    )
    assert result.exit_code == 2
    assert "repeats seed 7" in result.output
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--p-list", "0.1,x", "--p-list"),
        ("--seed-list", "7,x", "--seed-list"),
        ("--seed-list", ",", "need at least one seed"),
    ],
    ids=["p-not-a-number", "seed-not-an-int", "no-seed"],
)
def test_sweep_rejects_malformed_list(tmp_path, option, value, message):
    result = run("sweep", "task5", "-o", str(tmp_path / "s"), option, value)
    assert result.exit_code == 2
    assert message in result.output
    assert not (tmp_path / "s").exists()


def test_derived_seeds_are_distinct():
    from ltlseq.cli import _seed_list

    seeds = _seed_list(500)
    assert len(set(seeds)) == 500
    # the first repeat of the raw derivation comes at 398 (576773, first at 26)
    assert _seed_list(397) == seeds[:397]
    assert seeds[:3] == (12345, 67890, 88888)


# a cell over the csv module's field size limit, and a NUL byte, which the
# module rejects before Python 3.11
_CSV_MODULE_ERRORS = {"oversized-cell": b"9" * (csv.field_size_limit() + 1), "nul-byte": b"0\x00"}


@pytest.mark.parametrize("cell", _CSV_MODULE_ERRORS.values(), ids=_CSV_MODULE_ERRORS.keys())
def test_infer_rejects_cell_the_csv_module_rejects(tmp_path, cell):
    out = generate(tmp_path)
    path = out / "sequences.csv"
    path.write_bytes(path.read_bytes() + cell + b"\n")
    result = run("infer", str(out))
    assert result.exit_code == 1
    assert "sequences.csv" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["infer", "sweep"])
def test_split_must_be_a_split_name(tmp_path, command):
    if command == "infer":
        args = ["infer", str(generate(tmp_path)), "--split", "tset"]
    else:
        args = ["sweep", "task5", "-o", str(tmp_path / "s"), "--p-list", "0.0", "--split", "tset"]
    result = run(*args)
    assert result.exit_code == 2
    assert "--split" in result.output
    for name in ("train", "val", "test"):
        assert name in result.output


def test_report_rejects_foreign_csv(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b\n1,2\n")
    result = run("report", str(path))
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "row",
    [
        b"task5,exact,ic,flip,zero,7,,1,1,1,1",
        b"task5,exact,ic,flip,0.1",
        b"task5,ex\xffact,ic,flip,0.1,7,,1,1,1,1",
    ],
    ids=["p-not-a-number", "short-row", "not-utf8"],
)
def test_report_rejects_malformed_csv(tmp_path, row):
    from ltlseq.harness import SWEEP_COLUMNS

    path = tmp_path / "sweep.csv"
    path.write_bytes(",".join(SWEEP_COLUMNS).encode() + b"\n" + row + b"\n")
    result = run("report", str(path))
    assert result.exit_code == 2
    assert "sweep.csv" in result.output


@pytest.mark.parametrize("cell", _CSV_MODULE_ERRORS.values(), ids=_CSV_MODULE_ERRORS.keys())
def test_report_rejects_cell_the_csv_module_rejects(tmp_path, cell):
    from ltlseq.harness import SWEEP_COLUMNS

    path = tmp_path / "sweep.csv"
    row = b"task5,exact,ic,flip,0.1,7,," + cell + b",1,1,1"
    path.write_bytes(",".join(SWEEP_COLUMNS).encode() + b"\n" + row + b"\n")
    result = run("report", str(path))
    assert result.exit_code == 2
    assert "malformed sweep CSV" in result.output


# ---------------------------------------------------------------------------
# baseline


def test_baseline_outputs(tmp_path):
    out = generate(tmp_path)
    result = run("baseline", str(out))
    assert result.exit_code == 0
    assert "mp_successor:" in result.output
    assert "mp_sequence:" in result.output
    result = run("baseline", str(out), "-o", str(tmp_path / "bl"))
    assert result.exit_code == 0
    data = json.loads((tmp_path / "bl" / "baseline.json").read_text())
    assert set(data) == {"task", "mp_successor", "mp_sequence"}


def test_baseline_does_not_compile_the_task(tmp_path, monkeypatch):
    out = generate(tmp_path)
    expected = run("baseline", str(out)).output

    def no_compile(*args, **kwargs):
        raise AssertionError("baseline compiled the task")

    monkeypatch.setattr("ltlseq.cli.compile_task", no_compile)
    result = run("baseline", str(out))
    assert result.exit_code == 0
    assert result.output == expected
    assert len(expected.splitlines()) == 2


# ---------------------------------------------------------------------------
# unwritable outputs


@pytest.mark.parametrize("command", ["compile", "generate", "infer", "sweep", "report"])
def test_unwritable_output_exits_1(tmp_path, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    under_file = str(afile / "sub")
    if command == "compile":
        args = ["compile", "task5", "-o", under_file]
    elif command == "generate":
        args = ["generate", "task5", "-o", under_file, "--splits", "10", "4", "4"]
    elif command == "infer":
        args = ["infer", str(generate(tmp_path)), "-o", under_file]
    elif command == "sweep":
        args = ["sweep", str(small_task_file(tmp_path)), "-o", under_file, "--p-list", "0.0", "--seeds", "1"]
    else:
        sweep = tmp_path / "sweep"
        assert run("sweep", str(small_task_file(tmp_path)), "-o", str(sweep), "--p-list", "0.0").exit_code == 0
        args = ["report", str(sweep / "sweep.csv"), "-o", str(tmp_path / "missing_dir" / "out.json")]
    result = run(*args)
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert ("missing_dir" if command == "report" else "afile") in result.output


# ---------------------------------------------------------------------------
# golden output bytes

# Run in order in one work directory ("{w}"; "{yaml}" is a small task5 spec
# kept outside it), all with LTLSEQ_CACHE_DIR set to {w}/cache.
GOLDEN_COMMANDS = (
    ("compile", "task5", "-o", "{w}/build"),
    ("generate", "task5", "-o", "{w}/ds", "--splits", "10", "4", "4"),
    ("infer", "{w}/ds"),
    (
        "infer", "{w}/ds", "--engine", "sddnnf-lp", "--oracle", "flip", "-p", "0.2",
        "--target", "ic_cc", "--calibrate", "-o", "{w}/infer-flip",
    ),
    ("infer", "{w}/ds", "--oracle", "confidence", "-p", "0.1", "--split", "val", "-o", "{w}/infer-val"),
    ("sweep", "{yaml}", "-o", "{w}/sweep", "-e", "exact", "-e", "sddnnf-p", "--seeds", "2", "--calibrate"),
    ("sweep", "{yaml}", "-o", "{w}/sweep-b", "--seed-list", "7", "--p-list", "0.2,0.1"),
    ("report", "{w}/sweep/sweep.csv", "{w}/sweep-b/sweep.csv", "-o", "{w}/report.json"),
    ("baseline", "{w}/ds", "-o", "{w}/bl"),
)

# sha256 of each command's stdout (work directory shown as "<w>") and of
# every file the commands write, by path relative to the work directory.
GOLDEN_CLI = {
    "stdout 0": "3eef49bf3bb0ec3c1f0ea67d624dbaa5c72b5290c8d6713ff4a914626196d5c4",
    "stdout 1": "82a85239c24b1f73dfe1e9d5ee5700ad714c5d25edfe1661b59e34bffaee9a7b",
    "stdout 2": "4fe31bd710721743eb60afa6934f8402b0b461e4c02ecb35b658ba42d62b55f1",
    "stdout 3": "f494a26a2ed6b68316e2b7269c45d4de7e2a0e6454aed1be659f1e685b872bfe",
    "stdout 4": "a61bd21c4cb6a6ae475e55bdf6d4cf9c2de96bcac40eedde6083e796e0289dfc",
    "stdout 5": "0ad759ad30cc7be89dd27167280f20b77a7d82b03a5e1b944b8386fca49f6982",
    "stdout 6": "f4408a6e8d60147cff0ccd6c06ce045fdaf4f7a299904c67aee222bd7dfadfaa",
    "stdout 7": "88d72ce7385d67740a43d1b783b550ef63dd4f747e848d2c658f1b39ce8b5e76",
    "stdout 8": "55486b675beaca5536a4d31d6d09d1802f23ca119a812aa57af4d9c64d44831c",
    "bl/baseline.json": "fa90f9026946edfcf936bd73b7f37e13e326f09b57e2d05ff7dc8abd066e4bd5",
    "build/dfa.json": "edb07fb1790bde98fdf8c2c15a63ed5abb3c107f79f12e1487303ac8b99d544d",
    "build/guards.txt": "148b7a82ca13bb7854d72418bdd76ab5226c9a259f935ac43cceb33f16104b9f",
    "cache/8cac525ac078e0e9883e0da9d3c66c4b151a0b099066a26cfe87b11a641cc792.dfa.json": "edb07fb1790bde98fdf8c2c15a63ed5abb3c107f79f12e1487303ac8b99d544d",
    "cache/ec151e79a8deca99042a77b9ed47d14223ed7a698acc8a2d8fb090076375dc1f.dfa.json": "edb07fb1790bde98fdf8c2c15a63ed5abb3c107f79f12e1487303ac8b99d544d",
    "ds/metadata.json": "5fa3fcf880e43b823168141b4918b4a489b25ef17d649dbee62b5fc2c2f9d022",
    "ds/metrics.csv": "c65a636ab28b988a47af0ea15d6bff0c6d09e5953cebcbb233fab9b5ac02c480",
    "ds/metrics.json": "5fc352e55e991ce6f69c8b1e3d3ebde8d20e21db3e2afeeb8fdcff8a9c042fe5",
    "ds/sequences.csv": "4b9bd98afd9772977374b80aeb4c28d866e9dc764ed2dcc8169c2f2708763164",
    "infer-flip/metrics.csv": "f306b6a7e9937c0db927a8b4e65830dcea7618734c07aa452f6a81c92e12779c",
    "infer-flip/metrics.json": "c9f9d934a58d391b78ad372fde3906ff3fcc2f0f72cfe954c69bdce0c7d5b9c4",
    "infer-val/metrics.csv": "af6f0f0464539c57c9be660cb525f7d361ca29ef89768ce51da3ef2f3edfdfeb",
    "infer-val/metrics.json": "b6f4941c5759a324dc3fbbcc2d953cf30b31abbdddbc2fa6731105bab13be043",
    "report.json": "52de222079fa50efc4a575d01cb3f4733daa9d0842356dcf3d94f4f92a3a2416",
    "sweep/summary.json": "3c929bf1fa4ce553fa3ecc6f9e3f040d1d69e1b33cf6baa9880637ce2cdbb6cf",
    "sweep/sweep.csv": "85acaa429824e0931da6b0a6f64546a4a3c9274a77ae958d15dbb5b56f213e91",
    "sweep-b/summary.json": "1d69b7818c7af72d5d852a2e32393a9f8d93905008039f7d6fe10e2c87bb7bda",
    "sweep-b/sweep.csv": "732714e696ec9852bbb004173c770b39317a76d6af8b862d755fe62cc75c0f80",
}


def test_golden_cli_outputs(tmp_path):
    work = tmp_path / "w"
    yaml_path = small_task_file(tmp_path)
    env = {"LTLSEQ_CACHE_DIR": str(work / "cache")}
    digests = {}
    for i, command in enumerate(GOLDEN_COMMANDS):
        args = [a.format(w=work, yaml=yaml_path) for a in command]
        result = run(*args, env=env)
        assert result.exit_code == 0, result.output
        stdout = result.output.replace(str(work), "<w>")
        digests[f"stdout {i}"] = hashlib.sha256(stdout.encode()).hexdigest()
    for path in sorted(work.rglob("*")):
        if path.is_file():
            rel = path.relative_to(work).as_posix()
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_CLI
