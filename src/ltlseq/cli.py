"""Command-line front end: compile, generate, infer, sweep, baseline, report.

Every subcommand is deterministic given its flags; --jobs is accepted for
compatibility, starts no threads and never changes output bytes.  Compiled
automata are cached under $LTLSEQ_CACHE_DIR (keyed by the task-spec hash)
when that variable is set.  ``infer`` scores one (engine, oracle, seed)
combination as a one-row ``oracle_sweep`` and appends the dataset's
baselines; ``sweep`` runs distinct oracle seeds only.  --split names one of
train, val or test.

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
from .errors import DomainError, LtlfSyntaxError, LtlseqError, TaskFileError
from .generator import deserialize, generate_dataset, serialize, _digest_int
from .harness import (
    METRIC_COLUMNS,
    ORACLE_KINDS,
    ORACLE_TARGETS,
    SWEEP_COLUMNS,
    OracleConfig,
    default_sweep_configs,
    mp_baselines,
    oracle_sweep,
    summarize_rows,
    write_summary_json,
    write_sweep_csv,
)
from .inference import ENGINE_NAMES
from .props import print_prop
from .tasks import CompiledTask, SPLIT_NAMES, TaskSpec, builtin_or_file, compile_task, read_input

CACHE_ENV = "LTLSEQ_CACHE_DIR"

_BASE_SEEDS = (12345, 67890, 88888)

_split_option = click.option(
    "--split", type=click.Choice(SPLIT_NAMES), default="test", show_default=True,
    help="Split to score.",
)


def _friendly(fn):
    """Map library errors to exit 2 (bad input) or exit 1 (runtime, including
    an output path that cannot be written)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (TaskFileError, LtlfSyntaxError) as exc:
            raise click.UsageError(str(exc)) from exc
        except (LtlseqError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _compile_cached(spec: TaskSpec) -> CompiledTask:
    """compile_task with an automaton cache keyed by the spec hash.

    A cache file that ``read_input`` cannot read into a valid automaton, or
    an automaton over other atoms than the spec's, is a miss: it is
    recompiled and rewritten.  Writes go through a temporary file and
    ``os.replace``, so readers never see a partial file.
    """
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return compile_task(spec)
    path = Path(cache_dir) / f"{spec.spec_hash}.dfa.json"
    try:
        dfa = read_input(path, lambda text: Dfa.from_json_dict(json.loads(text)), LtlseqError)
    except LtlseqError:
        pass
    else:
        if dfa.atoms == spec.atoms:
            return compile_task(spec, dfa=dfa)
    task = compile_task(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        write_summary_json(task.dfa.to_json_dict(), tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return task


def _seed_list(count: int) -> tuple[int, ...]:
    """``count`` distinct seeds: the base seeds, then hash-derived ones, each
    skipped if already drawn."""
    seeds = dict.fromkeys(_BASE_SEEDS[:count])
    i = len(seeds)
    while len(seeds) < count:
        seeds.setdefault(_digest_int(f"sweep-seed:{i}") % 1_000_000)
        i += 1
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
        write_summary_json(dfa.to_json_dict(), out_dir / "dfa.json")
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
@_split_option
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
    """Score a stored dataset through an engine under an oracle.

    Writes the row a one-row sweep of that combination gives, plus the
    dataset's most-probable-class baselines (empty without a train or test
    split)."""
    if kind == "perfect" and noise != 0.0:
        raise click.UsageError("perfect oracle requires --noise 0")
    ds = deserialize(dataset_dir, verify=True)
    task = _compile_cached(ds.spec)
    cfg = OracleConfig(target=target, kind=kind, p=noise)
    (row,) = oracle_sweep(task, ds, [cfg], (engine,), (oracle_seed,), split, calibrate)
    try:
        row["mp_successor"], row["mp_sequence"] = mp_baselines(ds)
    except DomainError:  # no train or test split; the row needs only the scored one
        row["mp_successor"] = row["mp_sequence"] = None
    if calibrate:
        row["sc_temp"] = row.pop("sc_temp")  # after the baselines
    for name in (*METRIC_COLUMNS, "mp_successor", "mp_sequence"):
        value = row[name]
        click.echo(f"{name}: {'n/a' if value is None else value}")
    out_dir = Path(out) if out is not None else Path(dataset_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv([row], out_dir / "metrics.csv")
    write_summary_json(row, out_dir / "metrics.json")
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
    type=click.IntRange(min=1),
    default=3,
    show_default=True,
    help="Oracle seeds per configuration: 12345, 67890, 88888, then distinct hash-derived ones.",
)
@click.option(
    "--seed-list",
    default=None,
    help="Comma-separated distinct oracle seeds (overrides --seeds).",
)
@click.option(
    "--p-list",
    default="0.0,0.05,0.1,0.2",
    show_default=True,
    help="Comma-separated noise levels; 0.0 runs the perfect oracle only.",
)
@click.option("--gen-seed", type=int, default=12345, show_default=True, help="Dataset generation seed.")
@_split_option
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
        repeated = sorted({s for s in seed_values if seed_values.count(s) > 1})
        if repeated:
            raise click.UsageError(f"--seed-list repeats seed {', '.join(map(str, repeated))}")
    else:
        seed_values = _seed_list(seeds)
    if not seed_values:
        raise click.UsageError("need at least one seed")

    spec = replace(builtin_or_file(task_ref), seed=gen_seed)
    task = _compile_cached(spec)
    ds = generate_dataset(task, jobs=jobs)
    configs = default_sweep_configs([p for p in p_values if p > 0.0])
    if 0.0 not in p_values:
        configs = configs[1:]  # drop the leading perfect config
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
    ds = deserialize(dataset_dir, verify=True)
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
        write_summary_json(payload, out_dir / "baseline.json")
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
                for metric in METRIC_COLUMNS:
                    text = record.get(metric, "")
                    row[metric] = float(text) if text else None
                rows.append(row)
    # a bad number, a short row, bytes not UTF-8, or a cell the csv module rejects
    except (TypeError, ValueError, csv.Error) as exc:
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
