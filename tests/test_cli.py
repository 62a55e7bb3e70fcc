"""End-to-end command-line tests."""

import csv
import hashlib
import json

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
