"""Oracle noise models, evaluation metrics, baselines, and sweeps."""

import csv
import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest

from ltlseq.errors import DomainError
from ltlseq.generator import generate_dataset
from ltlseq.harness import (
    METRIC_COLUMNS,
    ORACLE_KINDS,
    ORACLE_TARGETS,
    SWEEP_COLUMNS,
    Metrics,
    OracleConfig,
    confidence_oracle,
    default_sweep_configs,
    evaluate,
    fit_sc_temperature,
    flip_oracle,
    mp_baselines,
    oracle_sweep,
    semantic_loss,
    soft_xor,
    summarize_rows,
    write_summary_json,
    write_sweep_csv,
)
from ltlseq.library import builtin_task
from ltlseq.tasks import compile_task


def small_dataset(name="task5", splits=(30, 10, 10), **overrides):
    ct = compile_task(builtin_task(name, splits=splits, **overrides))
    return ct, generate_dataset(ct)


# ---------------------------------------------------------------------------
# Oracle configuration


def test_oracle_config_defaults():
    cfg = OracleConfig()
    assert cfg.target == "ic" and cfg.kind == "perfect"
    assert cfg.p == 0.0 and cfg.seed == 12345


def test_oracle_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(target="nope")
    with pytest.raises(DomainError):
        OracleConfig(kind="nope")
    with pytest.raises(DomainError):
        OracleConfig(kind="flip", p=1.5)
    with pytest.raises(DomainError):
        OracleConfig(kind="perfect", p=0.1)
    OracleConfig(kind="flip", p=1.0)  # boundary is allowed


# ---------------------------------------------------------------------------
# Noise models


def test_flip_oracle_marginal_accuracy():
    # re-draw over all classes: accuracy is 1 - p + p/K
    rng = np.random.default_rng(5)
    k, p, n = 10, 0.2, 20000
    hits = sum(
        int(np.argmax(flip_oracle(3, k, p, rng))) == 3 for _ in range(n)
    )
    expected = 1 - p + p / k
    sigma = math.sqrt(n * expected * (1 - expected))
    assert abs(hits - n * expected) < 4 * sigma


def test_flip_oracle_is_one_hot():
    rng = np.random.default_rng(6)
    for _ in range(200):
        out = flip_oracle(1, 4, 0.5, rng)
        assert sorted(out.tolist()) == [0.0, 0.0, 0.0, 1.0]


def test_flip_oracle_p_zero_is_perfect():
    rng = np.random.default_rng(7)
    for label in range(5):
        out = flip_oracle(label, 5, 0.0, rng)
        assert out[label] == 1.0


def test_flip_oracle_p_one_is_uniform_over_classes():
    rng = np.random.default_rng(8)
    k, n = 5, 25000
    counts = np.zeros(k)
    for _ in range(n):
        counts[int(np.argmax(flip_oracle(0, k, 1.0, rng)))] += 1
    freq = counts / n
    assert np.all(np.abs(freq - 1 / k) < 0.012)


def test_confidence_oracle_bounds():
    rng = np.random.default_rng(9)
    k, p = 10, 0.2
    for _ in range(500):
        out = confidence_oracle(2, k, p, rng)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        m = out[2]
        assert 1.0 - p <= m <= 1.0
        others = np.delete(out, 2)
        assert np.allclose(others, (1.0 - m) / (k - 1))


def test_confidence_oracle_argmax_is_always_true():
    rng = np.random.default_rng(10)
    for _ in range(5000):
        out = confidence_oracle(1, 4, 0.5, rng)
        assert int(np.argmax(out)) == 1


def test_oracle_argument_checks():
    rng = np.random.default_rng(11)
    with pytest.raises(DomainError):
        flip_oracle(0, 1, 0.1, rng)  # k too small
    with pytest.raises(DomainError):
        flip_oracle(5, 5, 0.1, rng)  # label out of range
    with pytest.raises(DomainError):
        confidence_oracle(0, 3, 1.5, rng)


# ---------------------------------------------------------------------------
# Evaluation


def test_perfect_oracle_all_metrics_one():
    ct, ds = small_dataset()
    for engine in ("exact", "fuzzy-p", "sddnnf-p"):
        m = evaluate(ct, ds, engine, OracleConfig())
        assert m.ic_acc == 1.0
        assert m.cc_acc == 1.0
        assert m.nsp_acc == 1.0
        assert m.sc_acc == 1.0
        assert m.avg_acc == 1.0


def test_ic_cc_target_has_no_ic_metric():
    ct, ds = small_dataset()
    m = evaluate(ct, ds, "exact", OracleConfig(target="ic_cc"))
    assert m.ic_acc is None
    assert m.cc_acc == 1.0 and m.nsp_acc == 1.0 and m.sc_acc == 1.0
    assert m.avg_acc == 1.0  # averaged over the metrics that exist


def test_flip_noise_degrades_metrics():
    ct, ds = small_dataset()
    m = evaluate(ct, ds, "exact", OracleConfig(kind="flip", p=0.3, seed=5))
    assert m.ic_acc < 1.0
    assert m.sc_acc < 1.0
    assert 0.0 <= m.avg_acc <= 1.0


def test_flip_corruptions_are_engine_independent():
    ct, ds = small_dataset()
    cfg = OracleConfig(kind="flip", p=0.2, seed=21)
    a = evaluate(ct, ds, "fuzzy-p", cfg)
    b = evaluate(ct, ds, "sddnnf-p", cfg)
    # Boolean traces: both symbolic engines see identical corrupted inputs
    # and give identical answers
    assert a.ic_acc == b.ic_acc
    assert a.cc_acc == b.cc_acc
    assert a.nsp_acc == b.nsp_acc
    assert a.sc_acc == b.sc_acc


def test_evaluate_is_deterministic():
    ct, ds = small_dataset()
    cfg = OracleConfig(kind="confidence", p=0.2, seed=77)
    assert evaluate(ct, ds, "exact", cfg) == evaluate(ct, ds, "exact", cfg)


def test_evaluate_accepts_engine_instance():
    from ltlseq.inference import make_engine

    ct, ds = small_dataset()
    engine = make_engine("exact", ct.dfa)
    m = evaluate(ct, ds, engine, OracleConfig())
    assert m.sc_acc == 1.0


def test_evaluate_needs_no_train_split():
    ct, ds = small_dataset(splits=(0, 10, 10))
    m = evaluate(ct, ds, "exact", OracleConfig())
    assert m.avg_acc == 1.0


def test_evaluate_on_val_equals_the_val_sweep_row():
    ct, ds = small_dataset()
    configs = [OracleConfig(kind="flip", p=0.3), OracleConfig(target="ic_cc", kind="confidence", p=0.2)]
    rows = oracle_sweep(ct, ds, configs, engines=("exact", "sddnnf-lp"), split="val")
    for row in rows:
        cfg = OracleConfig(row["oracle_target"], row["oracle_kind"], row["p"], row["seed"])
        m = evaluate(ct, ds, row["engine"], cfg, split="val")
        assert dataclasses.asdict(m) == {c: row[c] for c in METRIC_COLUMNS}


def test_evaluate_split_selection():
    ct, ds = small_dataset()
    m_val = evaluate(ct, ds, "exact", OracleConfig(kind="flip", p=0.3), split="val")
    m_test = evaluate(ct, ds, "exact", OracleConfig(kind="flip", p=0.3), split="test")
    assert m_val != m_test  # different sequences, different corruptions
    with pytest.raises(DomainError):
        evaluate(ct, ds, "exact", OracleConfig(), split="nope")


def test_sc_tie_counts_as_positive():
    class ConstantEngine:
        name = "constant"

        def __init__(self, dfa):
            self.dfa = dfa
            n = dfa.n_states
            n_acc = len(dfa.accepting)
            value = 0.5 / n_acc
            rest = 0.5 / (n - n_acc) if n > n_acc else 0.0
            self.belief = np.array(
                [value if s in dfa.accepting else rest for s in range(n)]
            )

        def step(self, b, cb):
            return self.belief.copy(), 1.0

    ct, ds = small_dataset()
    engine = ConstantEngine(ct.dfa)
    m = evaluate(ct, ds, engine, OracleConfig())
    # acceptance is exactly 0.5 for every sequence: ties go to positive
    positives = sum(s.label for s in ds.splits["test"]) / len(ds.splits["test"])
    assert m.sc_acc == pytest.approx(positives)


def test_metrics_average_only_present_metrics():
    m = Metrics(ic_acc=None, cc_acc=0.8, nsp_acc=0.6, sc_acc=1.0, avg_acc=0.8)
    assert m.avg_acc == pytest.approx((0.8 + 0.6 + 1.0) / 3)


# ---------------------------------------------------------------------------
# Majority-prediction baselines


def test_mp_baselines_hand_counts():
    from collections import Counter

    ct, ds = small_dataset()
    mp_succ, mp_seq = mp_baselines(ds)
    # constant prediction of the modal train state, scored per test step
    state_counts = Counter()
    for sample in ds.splits["train"]:
        state_counts.update(sample.states)
    modal_state = min(state_counts, key=lambda s: (-state_counts[s], s))
    test_states = [s for sample in ds.splits["test"] for s in sample.states]
    assert mp_succ == pytest.approx(
        sum(s == modal_state for s in test_states) / len(test_states)
    )

    labels = Counter(s.label for s in ds.splits["train"])
    modal_label = min(labels, key=lambda l: (-labels[l], l))
    expected_seq = sum(
        s.label == modal_label for s in ds.splits["test"]
    ) / len(ds.splits["test"])
    assert mp_seq == pytest.approx(expected_seq)


def test_mp_successor_constructed_fixture():
    # hand-built dataset: state 0 fills 70% of steps in train and test
    from dataclasses import replace

    ct, ds = small_dataset()
    template = ds.splits["train"][0]

    def fake(seq_id, states, label):
        n = len(states)
        return replace(
            template,
            seq_id=seq_id,
            label=label,
            states=tuple(states),
            values=template.values[:1] * n,
            truths=template.truths[:1] * n,
        )

    from ltlseq.generator import Dataset

    split = [fake(i, [0] * 7 + [1] * 3, 1) for i in range(10)]
    fixture = Dataset(
        spec=ds.spec,
        splits={"train": split, "val": split, "test": split},
        metadata=ds.metadata,
    )
    mp_succ, mp_seq = mp_baselines(fixture)
    assert mp_succ == pytest.approx(0.7)
    assert mp_seq == pytest.approx(1.0)  # all labels positive


def test_mp_sequence_balanced_is_half():
    _, ds = small_dataset("task3", splits=(40, 10, 10))
    _, mp_seq = mp_baselines(ds)
    assert mp_seq == pytest.approx(0.5)  # balanced labels, tie broken to 0


def test_mp_baselines_require_data():
    ct, ds = small_dataset()
    from ltlseq.generator import Dataset

    empty = Dataset(spec=ds.spec, splits={"train": [], "val": [], "test": []}, metadata=ds.metadata)
    with pytest.raises(DomainError):
        mp_baselines(empty)


# ---------------------------------------------------------------------------
# Semantic loss


def test_soft_xor_values():
    assert soft_xor(1.0, 1.0) == 0.0
    assert soft_xor(1.0, 0.0) == 1.0
    assert soft_xor(0.0, 0.0) == 0.0
    assert soft_xor(0.5, 0.5) == pytest.approx(0.5625)


def test_semantic_loss_unit_values():
    assert semantic_loss([1.0], [1]) == pytest.approx(0.0, abs=1e-12)
    assert semantic_loss([0.0], [0]) == pytest.approx(0.0, abs=1e-12)
    assert semantic_loss([0.0], [1]) == pytest.approx(1.0, abs=1e-12)
    assert semantic_loss([0.9], [0]) == pytest.approx(0.9, abs=1e-12)
    # two positives both certain: exclusive-or of (1, 1) is 0, so the
    # "exactly one positive" term contributes its full weight
    assert semantic_loss([1.0, 1.0], [1, 1]) == pytest.approx(1.0, abs=1e-12)
    assert semantic_loss([1.0, 0.0], [1, 1]) == pytest.approx(0.0, abs=1e-12)
    # no positives: the positive term defaults to satisfied
    assert semantic_loss([0.2, 0.3], [0, 0]) == pytest.approx(
        (1 - 0.8 * 0.7), abs=1e-12
    )


def test_semantic_loss_validation():
    with pytest.raises(DomainError):
        semantic_loss([0.5], [1, 0])
    with pytest.raises(DomainError):
        semantic_loss([1.5], [1])
    with pytest.raises(DomainError):
        semantic_loss([0.5], [2])
    # empty inputs: both reductions sit at their identity, so the loss is 0
    assert semantic_loss([], []) == 0.0


# ---------------------------------------------------------------------------
# Temperature fitting on validation data


def test_fit_sc_temperature_perfect_data():
    ct, ds = small_dataset()
    temp, degenerate = fit_sc_temperature(ct, ds, "exact", OracleConfig())
    assert not degenerate
    assert temp > 0


# ---------------------------------------------------------------------------
# Sweeps


def test_default_sweep_configs():
    configs = default_sweep_configs()
    assert len(configs) == 13
    assert configs[0].kind == "perfect"
    kinds = {(c.kind, c.target, c.p) for c in configs}
    for kind in ("flip", "confidence"):
        for target in ORACLE_TARGETS:
            for p in (0.05, 0.1, 0.2):
                assert (kind, target, p) in kinds


def test_oracle_sweep_rows():
    ct, ds = small_dataset()
    configs = [OracleConfig(), OracleConfig(kind="flip", p=0.1)]
    rows = oracle_sweep(ct, dataset=ds, configs=configs, engines=("exact",), seeds=(1, 2))
    assert len(rows) == 4
    for row in rows:
        assert set(SWEEP_COLUMNS) <= set(row)
        assert row["task"] == ct.spec.name
        assert row["engine"] == "exact"
    perfect = [r for r in rows if r["oracle_kind"] == "perfect"]
    assert all(r["avg_acc"] == 1.0 for r in perfect)


def test_oracle_sweep_jobs_deterministic():
    ct, ds = small_dataset()
    configs = [OracleConfig(kind="confidence", p=0.2)]
    serial = oracle_sweep(ct, dataset=ds, configs=configs, engines=("exact", "fuzzy-p"), seeds=(1, 2))
    parallel = oracle_sweep(
        ct, dataset=ds, configs=configs, engines=("exact", "fuzzy-p"), seeds=(1, 2), jobs=4
    )
    assert serial == parallel


def test_oracle_sweep_calibrate_adds_column():
    ct, ds = small_dataset()
    rows = oracle_sweep(
        ct, dataset=ds, configs=[OracleConfig()], engines=("exact",), calibrate=True
    )
    assert all("sc_temp" in r for r in rows)


# sha256 of write_sweep_csv output for builtin_task(name) with its default
# splits and mixed lengths, all five engines, calibration on, two seeds.
# Captured from the per-step engines; the batched kernels must match them
# byte for byte, sc_temp included.
GOLDEN_SWEEPS = {
    "task3": "b7087865a01c4d072adf2b26b3b8736577495fa46e63a20e96ca7a2734df54e4",
    "task4": "97824cf3f905410f4c82993051093ca01d4d3ad5f4f828704f2b1820d098ca14",
    "task5": "54bfa632c75162749c98647eebb945f4fcfb25f684331e776131139535518e2d",
    "task6": "dc6f92b7f9b736333c1e1c9d02d6dfc098d7ef5f8f572b8328eee1139271151d",
}


@pytest.mark.parametrize("name", list(GOLDEN_SWEEPS))
def test_golden_sweep_bytes(tmp_path, name):
    from ltlseq.inference import ENGINE_NAMES

    ct = compile_task(builtin_task(name))
    rows = oracle_sweep(
        ct,
        dataset=generate_dataset(ct),
        configs=default_sweep_configs(),
        engines=ENGINE_NAMES,
        seeds=(12345, 67890),
        calibrate=True,
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SWEEPS[name]


def test_sweep_csv_round_trip(tmp_path):
    ct, ds = small_dataset()
    rows = oracle_sweep(
        ct,
        dataset=ds,
        configs=[OracleConfig(), OracleConfig(kind="flip", p=0.2, target="ic_cc")],
        engines=("exact",),
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == SWEEP_COLUMNS
        loaded = list(reader)
    assert len(loaded) == len(rows)
    # ic_acc is blank for the combined-target oracle
    flip_row = next(r for r in loaded if r["oracle_kind"] == "flip")
    assert flip_row["ic_acc"] == ""
    assert float(flip_row["p"]) == 0.2


def test_summarize_rows_groups_and_stats(tmp_path):
    ct, ds = small_dataset()
    rows = oracle_sweep(
        ct,
        dataset=ds,
        configs=[OracleConfig(kind="flip", p=0.1)],
        engines=("exact",),
        seeds=(1, 2, 3),
    )
    summary = summarize_rows(rows)
    assert summary["groups"]
    group = summary["groups"][0]
    assert group["seeds"] == [1, 2, 3]
    values = [r["sc_acc"] for r in rows]
    assert group["sc_acc"]["mean"] == pytest.approx(sum(values) / len(values))
    assert group["sc_acc"]["std"] >= 0.0
    assert "notes" in summary
    path = tmp_path / "summary.json"
    write_summary_json(summary, path)
    assert json.loads(path.read_text()) == json.loads(json.dumps(summary))


# ---------------------------------------------------------------------------
# Array oracle traces against the per-sample, per-draw reference loop


def _trace_configs():
    configs = [OracleConfig(target=t) for t in ORACLE_TARGETS]
    for target in ORACLE_TARGETS:
        for kind in ("flip", "confidence"):
            for p in (0.05, 0.5, 1.0):
                configs.append(OracleConfig(target=target, kind=kind, p=p))
    return configs


@pytest.mark.parametrize("name", ["task1", "task3", "task4", "task5", "task6", "example"])
def test_array_traces_equal_reference_loop(name):
    from dataclasses import replace

    from ltlseq.harness import _oracle_traces, _split_arrays
    from oracles import oracle_traces

    ct = compile_task(builtin_task(name, splits=(2, 9, 0), min_length=4, max_length=12))
    ds = generate_dataset(ct)
    data = _split_arrays(ct, ds, "val")
    assert len(set(data.lengths.tolist())) > 1  # mixed lengths pad the batch
    for cfg in _trace_configs():
        for seed in (3, 41):
            cfg = replace(cfg, seed=seed)
            got = _oracle_traces(ct, data, cfg)
            want, hits, total = oracle_traces(ct, ds.splits["val"], "val", cfg)
            for i, trace in enumerate(want):
                assert np.array_equal(got.cb[i, : len(trace)], trace), (cfg, i)
                assert not got.cb[i, len(trace):].any()
            assert (got.ic_hits, got.ic_total) == (hits, total), cfg


@pytest.mark.parametrize("kind", ["flip", "confidence"])
def test_one_label_domain_is_rejected_by_noisy_ic_oracles(kind):
    from dataclasses import replace

    from ltlseq.constraints import SymbolicDomain, VariableSpec

    spec = builtin_task("task6", splits=(8, 4, 4))
    one = SymbolicDomain.from_values("one", ("five",), (5,))
    variables = tuple(
        VariableSpec(v.name, one, v.source) if v.name == "Z" else v for v in spec.variables
    )
    ct = compile_task(replace(spec, domains=spec.domains + (one,), variables=variables))
    ds = generate_dataset(ct)
    assert evaluate(ct, ds, "exact", OracleConfig()).ic_acc == 1.0
    assert evaluate(ct, ds, "exact", OracleConfig(target="ic_cc", kind=kind, p=0.2)).ic_acc is None
    cfg = OracleConfig(kind=kind, p=0.2)
    with pytest.raises(DomainError, match="class count must be >= 2, got 1"):
        evaluate(ct, ds, "exact", cfg)
    with pytest.raises(DomainError, match="class count must be >= 2, got 1"):
        oracle_sweep(ct, dataset=ds, configs=[OracleConfig(), cfg], engines=("exact",))


def test_oracle_sweep_calibrates_each_distinct_acceptance_once(monkeypatch):
    from ltlseq import harness
    from ltlseq.inference import ENGINE_NAMES

    ct, ds = small_dataset("task3", splits=(20, 10, 10))
    calls = []
    fit = harness.calibrate_temperature

    def counting(pairs, *args, **kwargs):
        calls.append(pairs)
        return fit(pairs, *args, **kwargs)

    monkeypatch.setattr(harness, "calibrate_temperature", counting)
    seeds = (1, 2)
    rows = oracle_sweep(ct, dataset=ds, engines=ENGINE_NAMES, seeds=seeds, calibrate=True)
    units = len(default_sweep_configs()) * len(seeds)
    assert 0 < len(calls) < units * len(ENGINE_NAMES)
    # a shared fit is still the fit of the row's own (config, engine, seed)
    for row in rows[::5]:
        cfg = OracleConfig(row["oracle_target"], row["oracle_kind"], row["p"], row["seed"])
        assert row["sc_temp"] == fit_sc_temperature(ct, ds, row["engine"], cfg)[0]


@pytest.mark.parametrize("empty", ["configs", "seeds"])
def test_oracle_sweep_with_no_units_returns_no_rows(empty):
    ct, ds = small_dataset()
    grid = {"configs": [OracleConfig()], "seeds": (12345,)} | {empty: ()}
    assert oracle_sweep(ct, dataset=ds, engines=("exact", "sddnnf-p"), calibrate=True, **grid) == []


def test_oracle_sweep_needs_no_train_split():
    ct, ds = small_dataset("task5", splits=(0, 4, 6))
    rows = oracle_sweep(ct, dataset=ds)
    assert len(rows) == len(default_sweep_configs()) == 13
    assert all(set(row) == set(SWEEP_COLUMNS) for row in rows)


@pytest.mark.parametrize("name", ["task3", "task4", "task5", "task6"])
def test_calibration_changes_no_metric(name):
    from ltlseq.inference import ENGINE_NAMES

    ct, ds = small_dataset(name, splits=(10, 8, 8))
    sweep = functools.partial(oracle_sweep, ct, dataset=ds, engines=ENGINE_NAMES, seeds=(1, 2))
    calibrated = sweep(calibrate=True)
    for row in calibrated:
        del row["sc_temp"]
    assert calibrated == sweep(calibrate=False)
