"""Command-line front end: compile, generate, infer, sweep, baseline, report.

Every subcommand is deterministic given its flags; --jobs is accepted for
compatibility, starts no threads and never changes output bytes.  Compiled
automata are cached under $LTLSEQ_CACHE_DIR (keyed by the task-spec hash)
when that variable is set.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .automata import Dfa, guard_table
from .errors import LtlfSyntaxError, LtlseqError, TaskFileError
from .generator import Dataset, deserialize, generate_dataset, serialize, _digest_int
from .harness import (
    ORACLE_KINDS,
    ORACLE_TARGETS,
    SWEEP_COLUMNS,
    OracleConfig,
    evaluate,
    fit_sc_temperature,
    mp_baselines,
    oracle_sweep,
    summarize_rows,
    write_summary_json,
    write_sweep_csv,
)
from .inference import ENGINE_NAMES
from .props import print_prop
from .tasks import CompiledTask, SPLIT_NAMES, TaskSpec, builtin_or_file, compile_task

CACHE_ENV = "LTLSEQ_CACHE_DIR"

_BASE_SEEDS = (12345, 67890, 88888)


def _friendly(fn):
    """Map library errors to exit 2 (bad input) or exit 1 (runtime)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (TaskFileError, LtlfSyntaxError) as exc:
            raise click.UsageError(str(exc)) from exc
        except LtlseqError as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _compile_cached(spec: TaskSpec) -> CompiledTask:
    """compile_task with an automaton cache keyed by the spec hash.

    A cache file that is truncated or not a valid automaton is recompiled
    and rewritten; writes go through a temporary file and ``os.replace``, so
    readers never see a partial file.
    """
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return compile_task(spec)
    path = Path(cache_dir) / f"{spec.spec_hash}.dfa.json"
    try:
        dfa = Dfa.from_json_dict(json.loads(path.read_text(encoding="utf-8")))
    except (FileNotFoundError, ValueError):
        pass  # absent, or undecodable: JSON, UTF-8 and DomainError are ValueErrors
    else:
        return compile_task(spec, dfa=dfa)
    task = compile_task(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(
            json.dumps(task.dfa.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return task


def _load_dataset(dataset_dir: str) -> tuple[Dataset, CompiledTask]:
    ds = deserialize(dataset_dir, verify=True)
    return ds, _compile_cached(ds.spec)


def _seed_list(count: int) -> tuple[int, ...]:
    seeds = list(_BASE_SEEDS[:count])
    for i in range(len(seeds), count):
        seeds.append(_digest_int(f"sweep-seed:{i}") % 1_000_000)
    return tuple(seeds)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="ltlseq")
def main() -> None:
    """Temporal-constraint tasks: automata, datasets, probabilistic replay."""


# ---------------------------------------------------------------------------
# compile


@main.command("compile")
@click.argument("task_ref")
@click.option(
    "-o",
    "--out",
    type=click.Path(file_okay=False),
    default=None,
    help="Directory for dfa.json and guards.txt.",
)
@click.option(
    "--max-states",
    type=int,
    default=None,
    help="Abort if the automaton exceeds this many states before minimization.",
)
@_friendly
def cmd_compile(task_ref: str, out: str | None, max_states: int | None) -> None:
    """Compile TASK_REF (built-in name or YAML path) to a minimized DFA."""
    spec = builtin_or_file(task_ref)
    if max_states is not None:
        task = compile_task(spec, max_states=max_states)
    else:
        task = _compile_cached(spec)
    dfa = task.dfa
    click.echo(f"task: {spec.name}")
    click.echo(f"formula: {spec.formula}")
    click.echo(f"atoms: {', '.join(dfa.atoms)}")
    click.echo(f"states: {dfa.n_states}")
    click.echo(f"accepting: {' '.join(str(s) for s in sorted(dfa.accepting))}")
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "dfa.json").write_text(
            json.dumps(dfa.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        guards = [
            f"{g.source} -> {g.target}: {print_prop(g.formula)}" for g in guard_table(dfa)
        ]
        (out_dir / "guards.txt").write_text("\n".join(guards) + "\n", encoding="utf-8")
        click.echo(f"wrote {out_dir / 'dfa.json'}, {out_dir / 'guards.txt'}")


# ---------------------------------------------------------------------------
# generate


@main.command("generate")
@click.argument("task_ref")
@click.option(
    "-o",
    "--out",
    type=click.Path(file_okay=False),
    required=True,
    help="Dataset output directory (sequences.csv + metadata.json).",
)
@click.option("--seed", type=int, default=12345, show_default=True, help="Master generation seed.")
@click.option(
    "--positive-ratio",
    type=float,
    default=None,
    help="Fraction of positive sequences per split [default: the task's own].",
)
@click.option("--min-length", type=int, default=None, help="Shortest sequence length.")
@click.option("--max-length", type=int, default=None, help="Longest sequence length.")
@click.option(
    "--splits",
    type=(int, int, int),
    default=None,
    help="Train, val, and test sequence counts.",
)
@click.option(
    "--jobs",
    type=int,
    default=1,
    show_default=True,
    help="Accepted for compatibility; starts no threads, outputs are identical for any value.",
)
@_friendly
def cmd_generate(
    task_ref: str,
    out: str,
    seed: int,
    positive_ratio: float | None,
    min_length: int | None,
    max_length: int | None,
    splits: tuple[int, int, int] | None,
    jobs: int,
) -> None:
    """Generate a labeled train/val/test dataset for TASK_REF."""
    spec = builtin_or_file(task_ref)
    overrides: dict = {"seed": seed}
    if positive_ratio is not None:
        overrides["positive_ratio"] = positive_ratio
    if min_length is not None:
        overrides["min_length"] = min_length
    if max_length is not None:
        overrides["max_length"] = max_length
    if splits is not None:
        overrides["splits"] = splits
    spec = replace(spec, **overrides)
    task = _compile_cached(spec)
    ds = generate_dataset(task, jobs=jobs)
    out_dir = Path(out)
    serialize(ds, out_dir)
    for split in SPLIT_NAMES:
        samples = ds.splits[split]
        positives = sum(sample.label for sample in samples)
        ratio = positives / len(samples) if samples else 0.0
        click.echo(f"{split}: {len(samples)} sequences, {positives} positive ({ratio:.2f})")
    click.echo(f"wrote {out_dir / 'sequences.csv'}, {out_dir / 'metadata.json'}")


# ---------------------------------------------------------------------------
# infer


@main.command("infer")
@click.argument("dataset_dir", type=click.Path(exists=True, file_okay=False))
@click.option(
    "--engine",
    type=click.Choice(ENGINE_NAMES),
    default="exact",
    show_default=True,
    help="Temporal-inference engine.",
)
@click.option(
    "--oracle",
    "kind",
    type=click.Choice(ORACLE_KINDS),
    default="perfect",
    show_default=True,
    help="How ground truth is corrupted before inference.",
)
@click.option(
    "--target",
    type=click.Choice(ORACLE_TARGETS),
    default="ic",
    show_default=True,
    help="Replace per-variable labels (ic) or constraint truths (ic_cc).",
)
@click.option("--noise", "-p", type=float, default=0.0, show_default=True, help="Noise level p.")
@click.option("--oracle-seed", type=int, default=12345, show_default=True)
@click.option("--split", default="test", show_default=True, help="Split to score.")
@click.option(
    "--calibrate/--no-calibrate",
    default=False,
    help="Fit a scalar acceptance temperature on the val split first.",
)
@click.option(
    "-o",
    "--out",
    type=click.Path(file_okay=False),
    default=None,
    help="Directory for metrics.csv/metrics.json [default: DATASET_DIR].",
)
@_friendly
def cmd_infer(
    dataset_dir: str,
    engine: str,
    kind: str,
    target: str,
    noise: float,
    oracle_seed: int,
    split: str,
    calibrate: bool,
    out: str | None,
) -> None:
    """Score a stored dataset through an engine under an oracle."""
    if kind == "perfect" and noise != 0.0:
        raise click.UsageError("perfect oracle requires --noise 0")
    ds, task = _load_dataset(dataset_dir)
    cfg = OracleConfig(target=target, kind=kind, p=noise, seed=oracle_seed)
    temperature = None
    if calibrate:
        temperature, _ = fit_sc_temperature(task, ds, engine, cfg)
    metrics = evaluate(task, ds, engine, cfg, split=split, sc_temperature=temperature)
    row = {
        "task": task.spec.name,
        "engine": engine,
        "oracle_target": cfg.target,
        "oracle_kind": cfg.kind,
        "p": cfg.p,
        "seed": cfg.seed,
        "ic_acc": metrics.ic_acc,
        "cc_acc": metrics.cc_acc,
        "nsp_acc": metrics.nsp_acc,
        "sc_acc": metrics.sc_acc,
        "avg_acc": metrics.avg_acc,
        "mp_successor": metrics.mp_successor,
        "mp_sequence": metrics.mp_sequence,
    }
    if calibrate:
        row["sc_temp"] = temperature
    for name in ("ic_acc", "cc_acc", "nsp_acc", "sc_acc", "avg_acc", "mp_successor", "mp_sequence"):
        value = row[name]
        click.echo(f"{name}: {'n/a' if value is None else value}")
    out_dir = Path(out) if out is not None else Path(dataset_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = list(row)
    with open(out_dir / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerow(["" if row[c] is None else str(row[c]) for c in columns])
    with open(out_dir / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(row, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {out_dir / 'metrics.csv'}, {out_dir / 'metrics.json'}")


# ---------------------------------------------------------------------------
# sweep


@main.command("sweep")
@click.argument("task_ref")
@click.option(
    "-o",
    "--out",
    type=click.Path(file_okay=False),
    required=True,
    help="Directory for sweep.csv and summary.json.",
)
@click.option(
    "--engines",
    "-e",
    multiple=True,
    type=click.Choice(ENGINE_NAMES),
    default=("exact",),
    show_default=True,
)
@click.option(
    "--seeds",
    type=int,
    default=3,
    show_default=True,
    help="Oracle seeds per configuration: 12345, 67890, 88888, then hash-derived.",
)
@click.option(
    "--seed-list",
    default=None,
    help="Comma-separated explicit oracle seeds (overrides --seeds).",
)
@click.option(
    "--p-list",
    default="0.0,0.05,0.1,0.2",
    show_default=True,
    help="Comma-separated noise levels; 0.0 runs the perfect oracle only.",
)
@click.option("--gen-seed", type=int, default=12345, show_default=True, help="Dataset generation seed.")
@click.option("--split", default="test", show_default=True)
@click.option(
    "--calibrate/--no-calibrate",
    default=False,
    help="Fit SC temperatures on the val split (adds an sc_temp column).",
)
@click.option(
    "--jobs",
    type=int,
    default=1,
    show_default=True,
    help="Accepted for compatibility; starts no threads, outputs are identical for any value.",
)
@_friendly
def cmd_sweep(
    task_ref: str,
    out: str,
    engines: tuple[str, ...],
    seeds: int,
    seed_list: str | None,
    p_list: str,
    gen_seed: int,
    split: str,
    calibrate: bool,
    jobs: int,
) -> None:
    """Run the oracle-noise grid: {flip, confidence} x {ic, ic_cc} x p."""
    try:
        p_values = sorted({float(tok) for tok in p_list.split(",") if tok.strip()})
    except ValueError as exc:
        raise click.UsageError(f"bad --p-list: {exc}") from exc
    if not p_values or any(not 0.0 <= p <= 1.0 for p in p_values):
        raise click.UsageError("--p-list needs values in [0, 1]")
    if seed_list is not None:
        try:
            seed_values = tuple(int(tok) for tok in seed_list.split(",") if tok.strip())
        except ValueError as exc:
            raise click.UsageError(f"bad --seed-list: {exc}") from exc
    else:
        seed_values = _seed_list(seeds)
    if not seed_values:
        raise click.UsageError("need at least one seed")

    spec = replace(builtin_or_file(task_ref), seed=gen_seed)
    task = _compile_cached(spec)
    ds = generate_dataset(task, jobs=jobs)
    configs = []
    if 0.0 in p_values:
        configs.append(OracleConfig(target="ic", kind="perfect", p=0.0))
    for kind in ("flip", "confidence"):
        for target in ORACLE_TARGETS:
            for p in p_values:
                if p > 0.0:
                    configs.append(OracleConfig(target=target, kind=kind, p=p))
    rows = oracle_sweep(
        task,
        ds,
        configs,
        engines=engines,
        seeds=seed_values,
        split=split,
        calibrate=calibrate,
        jobs=jobs,
    )
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, out_dir / "sweep.csv")
    write_summary_json(summarize_rows(rows), out_dir / "summary.json")
    click.echo(f"{len(configs)} configurations x {len(engines)} engines x {len(seed_values)} seeds")
    click.echo(f"{len(rows)} rows -> {out_dir / 'sweep.csv'}")
    click.echo(f"summary -> {out_dir / 'summary.json'}")


# ---------------------------------------------------------------------------
# baseline


@main.command("baseline")
@click.argument("dataset_dir", type=click.Path(exists=True, file_okay=False))
@click.option(
    "-o",
    "--out",
    type=click.Path(file_okay=False),
    default=None,
    help="Directory for baseline.json.",
)
@_friendly
def cmd_baseline(dataset_dir: str, out: str | None) -> None:
    """Most-probable-class baselines of a stored dataset."""
    ds, _task = _load_dataset(dataset_dir)
    mp_successor, mp_sequence = mp_baselines(ds)
    click.echo(f"mp_successor: {mp_successor}")
    click.echo(f"mp_sequence: {mp_sequence}")
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "task": ds.spec.name,
            "mp_successor": mp_successor,
            "mp_sequence": mp_sequence,
        }
        with open(out_dir / "baseline.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"wrote {out_dir / 'baseline.json'}")


# ---------------------------------------------------------------------------
# report


def _read_sweep_csv(path: str) -> list[dict]:
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in SWEEP_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise click.UsageError(f"{path}: missing columns {missing}")
            for record in reader:
                row: dict = {
                    "task": record["task"],
                    "engine": record["engine"],
                    "oracle_target": record["oracle_target"],
                    "oracle_kind": record["oracle_kind"],
                    "p": float(record["p"]),
                    "seed": int(record["seed"]),
                }
                for metric in ("ic_acc", "cc_acc", "nsp_acc", "sc_acc", "avg_acc"):
                    text = record.get(metric, "")
                    row[metric] = float(text) if text else None
                rows.append(row)
    except (TypeError, ValueError) as exc:  # a bad number, a short row, or bytes not UTF-8
        raise click.UsageError(f"{path}: malformed sweep CSV ({exc})") from exc
    return rows


@main.command("report")
@click.argument("csv_files", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "-o",
    "--out",
    type=click.Path(dir_okay=False),
    default="summary.json",
    show_default=True,
    help="Summary JSON path.",
)
@_friendly
def cmd_report(csv_files: tuple[str, ...], out: str) -> None:
    """Aggregate sweep CSVs into a mean/std summary across seeds."""
    rows: list[dict] = []
    for path in csv_files:
        rows.extend(_read_sweep_csv(path))
    write_summary_json(summarize_rows(rows), out)
    click.echo(f"{len(rows)} rows -> {out}")


if __name__ == "__main__":
    main()
