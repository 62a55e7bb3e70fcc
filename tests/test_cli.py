"""End-to-end command-line tests."""

import csv
import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from ltlseq.automata import Dfa
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


def test_generate_rejects_yaml_labels_that_are_not_strings(tmp_path):
    # YAML reads yes/no as booleans: they are not coerced to "True"/"False"
    path = tmp_path / "yesno.yaml"
    path.write_text(
        "name: yesno\n"
        "domains: {answer: {labels: [yes, no]}}\n"
        "variables: {A: {domain: answer}}\n"
        "constraints: {p: 'A = 0'}\n"
        "formula: F p\n"
        "length: {min: 2, max: 4}\n"
        "splits: {train: 4, val: 2, test: 2}\n"
    )
    result = run("generate", str(path), "-o", str(tmp_path / "out"))
    assert result.exit_code == 2
    assert "domains.answer.labels: malformed value (True is not a string)" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()
    quoted = path.read_text().replace("[yes, no]", "['yes', 'no']")
    path.write_text(quoted)
    assert run("generate", str(path), "-o", str(tmp_path / "out")).exit_code == 0


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


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_compile_state_cap_below_one_is_a_usage_error(cap):
    result = run("compile", "task3", "--max-states", cap)
    assert result.exit_code == 2
    assert "--max-states" in result.output
    assert "reached" not in result.output


@pytest.mark.parametrize("grid", ["five-axis", "wide-range"])
def test_compile_grid_cap_exits_without_traceback(tmp_path, grid):
    from test_tasks import HUGE_GRID_ERROR, HUGE_GRID_YAML

    path = tmp_path / "huge.yaml"
    if grid == "five-axis":
        path.write_text(HUGE_GRID_YAML)
        message = HUGE_GRID_ERROR
    else:
        path.write_text(HUGE_GRID_YAML.replace("[0, 99]", "[0, 100000000]"))
        message = (
            "domain 'd': range [0, 100000000] has 100000001 values, over the cap of "
            "65536 values of one range domain (_MAX_DOMAIN_VALUES)"
        )
    result = CliRunner().invoke(main, ["compile", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output == f"Error: {message}\n"


def test_compile_length_cap_exits_without_traceback(tmp_path):
    from test_tasks import LONG_TASK_ERROR, LONG_TASK_YAML

    path = tmp_path / "long.yaml"
    path.write_text(LONG_TASK_YAML)
    result = CliRunner().invoke(main, ["compile", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"{path}: {LONG_TASK_ERROR}" in result.output


@pytest.mark.parametrize("command", ["compile", "generate", "sweep"])
def test_task_without_constraints_exits_without_traceback(tmp_path, command):
    from test_tasks import NO_CONSTRAINTS_ERROR, NO_CONSTRAINTS_YAML

    path = tmp_path / "bare.yaml"
    path.write_text(NO_CONSTRAINTS_YAML)
    args = [command, str(path)] + ([] if command == "compile" else ["-o", str(tmp_path / "out")])
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"{path}: {NO_CONSTRAINTS_ERROR}" in result.output
    assert not (tmp_path / "out").exists()


def test_task_without_variables_runs_end_to_end(tmp_path):
    from test_tasks import NO_VARIABLES_YAML

    path = tmp_path / "novar.yaml"
    path.write_text(NO_VARIABLES_YAML)
    data, sweep = tmp_path / "ds", tmp_path / "sweep"
    for args in (
        ["generate", str(path), "-o", str(data)],
        ["infer", str(data)],
        ["sweep", str(path), "-o", str(sweep), "--p-list", "0.0,0.1", "--seeds", "1"],
    ):
        result = run(*args)
        assert result.exit_code == 0, result.output
    for written in (data / "metrics.csv", sweep / "sweep.csv"):
        with written.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["ic_acc"] == "" for row in rows), written


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
    ],
)
def test_file_boundary_fails_typed(tmp_path, where, content):
    """Unparseable files end in a typed error naming the file (exit 2 for a
    task YAML, 1 for a dataset), never a traceback."""
    from ltlseq.library import builtin_task
    from ltlseq.tasks import save_task_yaml

    if where == "task":
        path = tmp_path / "bad.yaml"
        save_task_yaml(builtin_task("task1"), path)
        args, want_exit = ("compile", str(path)), 2
        value = {"big-int": _BIG_INT, "inf-seed": ".inf"}.get(content)
        if value is not None:
            _sub_once(path, r"^seed: .*$", f"seed: {value}")
    else:
        path = generate(tmp_path) / "metadata.json"
        args, want_exit = ("infer", str(path.parent)), 1
        if content == "big-int":
            _sub_once(path, r'"seed": \d+', f'"seed": {_BIG_INT}')
        elif content == "bad-spec":
            _rewrite_metadata(path, lambda m: m | {"spec": m["spec"] | {"seed": "x"}})
    if content == "deep":
        path.write_text(_DEEP)
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == want_exit, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert path.name in result.output


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


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_jobs_option_is_gone(tmp_path, command):
    result = run(command, "task5", "-o", str(tmp_path / "out"), "--jobs", "2")
    assert result.exit_code == 2
    assert "--jobs" in result.output
    assert not (tmp_path / "out").exists()


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


def _renumbered(dfa, perm):
    """``dfa`` with each state ``s`` renamed ``perm[s]``."""
    rows = [None] * dfa.n_states
    for s, row in enumerate(dfa.transitions):
        rows[perm[s]] = tuple(perm[t] for t in row)
    return Dfa(
        atoms=dfa.atoms,
        n_states=dfa.n_states,
        accepting=frozenset(perm[s] for s in dfa.accepting),
        transitions=tuple(rows),
        initial=perm[dfa.initial],
    )


def _reversed_states(n):
    """State 0 kept, states 1 … n−1 in reverse order."""
    return [0, *range(n - 1, 0, -1)]


def _metrics(directory):
    return [(directory / name).read_bytes() for name in ("metrics.csv", "metrics.json")]


def test_infer_scores_a_dataset_in_its_own_numbering(tmp_path):
    """A dataset whose stored automaton and state_after column are renumbered
    together, digest recomputed, still verifies and scores the same."""
    from ltlseq.generator import deserialize

    out = generate(tmp_path, task="task3")
    assert run("infer", str(out), "-o", str(tmp_path / "before")).exit_code == 0
    path = out / "metadata.json"
    metadata = json.loads(path.read_text())
    dfa = Dfa.from_json_dict(metadata["dfa"])
    perm = _reversed_states(dfa.n_states)
    metadata["dfa"] = _renumbered(dfa, perm).to_json_dict()
    path.write_text(json.dumps(metadata))
    csv_path = out / "sequences.csv"
    rows = list(csv.reader(csv_path.open(newline="")))
    col = rows[0].index("state_after")
    for row in rows[1:]:
        row[col] = str(perm[int(row[col])])
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    deserialize(out, verify=True)  # the replay agrees with the renumbered automaton
    result = run("infer", str(out), "-o", str(tmp_path / "after"))
    assert result.exit_code == 0, result.output
    assert "nsp_acc: 1.0" in result.output
    assert _metrics(tmp_path / "after") == _metrics(tmp_path / "before")


def test_infer_scores_with_the_automaton_its_load_verified(tmp_path, monkeypatch):
    """infer translates nothing, parses the stored automaton once, and the
    sweep it runs holds that same object."""
    from ltlseq import cli

    out = generate(tmp_path)
    parsed, scored = [], []
    from_json_dict, oracle_sweep = Dfa.from_json_dict, cli.oracle_sweep

    def parse(cls, data):
        parsed.append(from_json_dict(data))
        return parsed[-1]

    def sweep(task, ds, *args):
        scored.append(task.dfa)
        return oracle_sweep(task, ds, *args)

    def forbidden(*args, **kwargs):
        raise AssertionError("infer compiled the task")

    monkeypatch.setattr(Dfa, "from_json_dict", classmethod(parse))
    monkeypatch.setattr(cli, "oracle_sweep", sweep)
    monkeypatch.setattr("ltlseq.tasks.ltlf_to_dfa", forbidden)
    result = run("infer", str(out))
    assert result.exit_code == 0, result.output
    assert len(parsed) == len(scored) == 1
    assert scored[0] is parsed[0]


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


def _edit_in_range(data, edit):
    """Edit a stored automaton so that it stays well-formed but changes."""
    n = data["states"]
    if edit == "transitions":
        for row in data["transitions"][:6]:
            row[0] = (row[0] + 1) % n
    else:
        data["accepting"] = sorted(set(data["accepting"]) ^ {0})


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


@pytest.mark.parametrize("edit", ["transitions", "accepting"])
def test_infer_rejects_a_stored_dfa_edited_in_range(tmp_path, edit):
    path = generate(tmp_path) / "metadata.json"
    _rewrite_metadata(path, lambda m: _edit_in_range(m["dfa"], edit) or m)
    result = CliRunner().invoke(main, ["infer", str(path.parent)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "does not match its automaton" in result.output


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


def test_sweep_rejects_more_seeds_than_exist(tmp_path):
    # derived seeds lie below 10^6, so a larger count never filled its list
    result = run("sweep", "task5", "-o", str(tmp_path / "s"), "--seeds", "1000001", "--p-list", "0.0")
    assert result.exit_code == 2
    assert "--seeds" in result.output and "1000000" in result.output
    assert not (tmp_path / "s").exists()


def test_sweep_rejects_repeated_seed(tmp_path):
    result = run(
        "sweep", "task5", "-o", str(tmp_path / "s"), "--seed-list", "7,8,7", "--p-list", "0.0"
    )
    assert result.exit_code == 2
    assert "repeats seed 7" in result.output
    assert not (tmp_path / "s").exists()


def test_sweep_rejects_repeated_engine(tmp_path):
    result = run(
        "sweep", "task5", "-o", str(tmp_path / "s"), "--engines", "exact", "-e", "sddnnf-p",
        "--engines", "exact", "--p-list", "0.0", "--seeds", "1",
    )
    assert result.exit_code == 2
    assert "--engines repeats engine exact" in result.output
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


@pytest.mark.parametrize("sc_acc", ["inf", "-inf", "nan", "1e400", "7"])
def test_report_rejects_a_metric_outside_the_unit_interval(tmp_path, sc_acc):
    from ltlseq.harness import SWEEP_COLUMNS

    path = tmp_path / "sweep.csv"
    row = f"task5,exact,ic,flip,0.1,7,,1,1,{sc_acc},1".encode()
    path.write_bytes(",".join(SWEEP_COLUMNS).encode() + b"\n" + row + b"\n")
    result = run("report", str(path), "-o", str(tmp_path / "summary.json"))
    assert result.exit_code == 2
    message = f"{path}:2: malformed sweep CSV (sc_acc '{sc_acc}' is not a number in [0, 1])"
    assert message in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "summary.json").exists()


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
# kept outside it), all with LTLSEQ_CACHE_DIR set to {w}/cache: the variable
# is no longer read, so nothing may appear there.
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
    "build/dfa.json": "886d9d1e3570f300ddbb9021a5952b53df0893a28bcbe377a85ba27994c5c337",
    "build/guards.txt": "148b7a82ca13bb7854d72418bdd76ab5226c9a259f935ac43cceb33f16104b9f",
    "ds/metadata.json": "a5162b2030768b9f74cfe4d9cad7d202a56f74e849d058b1077f7f8c0e31cd70",
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
