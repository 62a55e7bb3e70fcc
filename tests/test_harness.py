"""Oracle noise models, evaluation metrics, baselines, and sweeps."""

import csv
import dataclasses
import functools
import hashlib
import json
import math
import re

import numpy as np
import pytest

from ltlseq.automata import Dfa
from ltlseq.errors import DomainError, TaskFileError
from ltlseq.generator import generate_dataset, write_summary_json
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
    read_sweep_csv,
    semantic_loss,
    soft_xor,
    summarize_rows,
    write_sweep_csv,
)
from ltlseq.inference import make_engine
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


# 1, True and 1.0 compare and hash equal but name three oracle streams
# ("1:…", "True:…", "1.0:…"), so a sweep that grouped units by seed would
# merge configs that draw differently
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", True, "oracle seed must be an int, got True"),
        ("seed", 1.0, "oracle seed must be an int, got 1.0"),
        ("seed", "1", "oracle seed must be an int, got '1'"),
        ("p", True, "noise level must be an int or a float, got True"),
        ("p", "0.1", "noise level must be an int or a float, got '0.1'"),
        ("p", None, "noise level must be an int or a float, got None"),
    ],
)
def test_oracle_config_rejects_values_of_other_types(field, value, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        OracleConfig(kind="flip", **{"p": 0.5, "seed": 1, field: value})
    ct, ds = small_dataset("task3", splits=(2, 3, 3))
    if field == "seed":
        with pytest.raises(DomainError, match=f"^{message}$"):
            oracle_sweep(ct, ds, [OracleConfig(kind="flip", p=0.5)], seeds=(value,))


def test_oracle_config_accepts_int_and_float_values():
    assert OracleConfig(kind="flip", p=1, seed=np.int64(7)).seed == 7
    assert OracleConfig(kind="confidence", p=np.float64(0.25)).p == 0.25


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


# OracleConfig's type rule: a bool label would index every class as a mask
@pytest.mark.parametrize("oracle", [flip_oracle, confidence_oracle])
@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 3, 0.0), "true label must be an int, got True"),
        ((1.5, 3, 0.0), "true label must be an int, got 1.5"),
        ((0, 3.0, 0.0), "class count must be an int, got 3.0"),
        ((0, True, 0.0), "class count must be an int, got True"),
        ((0, 3, True), "noise level must be an int or a float, got True"),
        ((0, 3, "0.1"), "noise level must be an int or a float, got '0.1'"),
        ((0, 1, 0.1), "class count must be >= 2, got 1"),
    ],
)
def test_oracles_reject_arguments_of_other_types(oracle, args, message):
    rng = np.random.default_rng(12)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        oracle(*args, rng)
    out = oracle(np.int64(1), np.int32(3), 0, rng)  # numpy ints and an int p are accepted
    assert out.tolist() == [0.0, 1.0, 0.0]


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


def test_unknown_split_names_the_valid_splits():
    ct, ds = small_dataset()
    message = r"unknown split 'bogus'; valid: train, val, test"
    with pytest.raises(DomainError, match=message):
        evaluate(ct, ds, "exact", OracleConfig(), split="bogus")
    with pytest.raises(DomainError, match=message):
        fit_sc_temperature(ct, ds, "exact", OracleConfig(), split="bogus")
    with pytest.raises(DomainError, match=message):
        oracle_sweep(ct, ds, [OracleConfig()], split="bogus")


def renumbered(dfa, a, b):
    """``dfa`` with states ``a`` and ``b`` swapped: the same language, in
    another numbering."""
    perm = np.arange(dfa.n_states)
    perm[[a, b]] = perm[[b, a]]
    table = np.empty_like(dfa.transitions)
    table[perm] = perm[dfa.transitions]
    accepting = frozenset(int(perm[s]) for s in dfa.accepting)
    return Dfa(dfa.atoms, dfa.n_states, accepting, table, int(perm[dfa.initial]))


def automaton_mismatch(what, dfa, other):
    return rf"{what} automaton {dfa.digest} is not the task's {other.digest}"


SCORERS = {
    "evaluate": lambda ct, ds, engine: evaluate(ct, ds, engine, OracleConfig()),
    "fit_sc_temperature": lambda ct, ds, engine: fit_sc_temperature(ct, ds, engine, OracleConfig()),
    "oracle_sweep": lambda ct, ds, engine: oracle_sweep(ct, ds, [OracleConfig()], engines=(engine,)),
}


@pytest.mark.parametrize("scorer", SCORERS)
def test_a_dataset_over_another_automaton_is_rejected(scorer):
    # scored in the task's numbering, task3's perfect oracle reached
    # nsp_acc 0.873 with no error
    ct, ds = small_dataset("task3", splits=(10, 4, 6))
    other = compile_task(ct.spec, dfa=renumbered(ct.dfa, 1, 2))
    assert other.dfa != ds.dfa
    with pytest.raises(DomainError, match=automaton_mismatch("dataset", ds.dfa, other.dfa)):
        SCORERS[scorer](other, ds, "exact")
    assert SCORERS[scorer](ct, ds, "exact")  # the dataset's own automaton scores


@pytest.mark.parametrize("scorer", ["evaluate", "fit_sc_temperature"])
def test_an_engine_over_another_automaton_is_rejected(scorer):
    ct, ds = small_dataset("task3", splits=(10, 4, 6))
    engine = make_engine("exact", renumbered(ct.dfa, 1, 2))
    with pytest.raises(DomainError, match=automaton_mismatch("engine", engine.dfa, ct.dfa)):
        SCORERS[scorer](ct, ds, engine)


def test_sc_tie_counts_as_positive(monkeypatch):
    ct, ds = small_dataset()
    dfa = ct.dfa
    n = dfa.n_states
    n_acc = len(dfa.accepting)
    value = 0.5 / n_acc
    rest = 0.5 / (n - n_acc) if n > n_acc else 0.0
    belief = np.array([value if s in dfa.accepting else rest for s in range(n)])
    engine = make_engine("exact", dfa)
    # every step of every sequence lands on that constant belief
    monkeypatch.setattr(
        engine, "advance", lambda b, weights: (np.tile(belief, (len(b), 1)), np.ones(len(b)))
    )
    m = evaluate(ct, ds, engine, OracleConfig())
    # acceptance is exactly 0.5 for every sequence: ties go to positive
    positives = sum(s.label for s in ds.splits["test"]) / len(ds.splits["test"])
    assert m.sc_acc == pytest.approx(positives)
    # the split is balanced, so ties going negative would score the same;
    # on its positive sequences alone only ties going positive score 1
    positive = dataclasses.replace(ds, splits={"test": [s for s in ds.splits["test"] if s.label]})
    assert evaluate(ct, positive, engine, OracleConfig()).sc_acc == 1.0


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


def test_split_over_other_atoms_is_rejected():
    ct, ds = small_dataset()
    sample = ds.splits["test"][0]
    ds.splits["test"][0] = dataclasses.replace(sample, atoms=("x",) * len(sample.atoms))
    with pytest.raises(DomainError, match="split 'test' is not over the task's atoms"):
        oracle_sweep(ct, ds, [OracleConfig()], engines=("exact",), seeds=(1,))


def test_split_over_other_variables_is_rejected():
    ct, ds = small_dataset()
    sample = ds.splits["test"][3]
    renamed = tuple(dataclasses.replace(v, name=v.name.lower()) for v in sample.variables)
    ds.splits["test"][3] = dataclasses.replace(sample, variables=renamed)
    with pytest.raises(DomainError, match=r"split 'test' is not over the task's variables \['W'"):
        oracle_sweep(ct, ds, [OracleConfig()], engines=("exact",), seeds=(1,))


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
            points=template.points[:1] * n,
            letters=template.letters[:1] * n,
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


# sha256 of write_sweep_csv output of the noise sweep at oracle seeds 1 and 2:
# every built-in task and fam6 at splits (2, 6, 6) and lengths 10-20, the
# default configs, all five engines, calibration on.  The `ltlseq` entries
# are the sweep.csv of `ltlseq sweep task3 --calibrate` at its defaults, with
# the default engine and with all five, and a flip-heavy task5 sweep (at
# p = 1 every entry re-draws, so re-draws pair up on half words), which CI
# also checks on the installed console script.  Captured while each noisy
# config still seeded its own
# numpy Generator per sequence, and the five-engine entry while each engine
# ran the val and test splits in separate batches on a rows × letters ×
# states log-semiring cube; the current code must match them byte for byte.
GOLDEN_NOISY_SWEEPS = {
    "task1": "5f1fc657ee6e15afdcec8fee8d8c238220dedc8b54687e733a5956cb2c378c70",
    "task2": "182be0ceb80ae676077045c736139a75fc7b4c9f815181010fa80bfdde2fd3d3",
    "task3": "166e0fb6488a012e2a6c101d73efdeb368a0002640f8e8a3b5beb9165a733d09",
    "task4": "80148083db8b6eec9ef471f373d2e44b657c94031737dc32626552cbb8df6be3",
    "task5": "a0f0ec54fabf98f1ce5a224ffec280dd22b92b9bd129d1b23d34d276c23764f7",
    "task6": "7e85ec8a27ba1f08db9090c63eac2e399ec0e983b538ef9a402ac43481cf0d27",
    "example": "107b4735f1af1b36940f98dd3d1ee5d9ff0300dcf021896d4682be085a0e202f",
    "fam6": "a063256f923cd56cac621b6e3b5616934a97fe8e63d813b9bd5adca60d46d87c",
    "ltlseq sweep task3 --calibrate": "37211c20453454d8607f0a6225ac8feea6dd75ea8430a7867e25c788905dd9b7",
    "ltlseq sweep task3 --calibrate -e exact -e fuzzy-p -e fuzzy-lp -e sddnnf-p -e sddnnf-lp": (
        "392956b8d7b6e1aa59d24e16408276223b62da617799ba660cf4701cdbcc5118"
    ),
    "ltlseq sweep task5 --calibrate --p-list 0.5,1.0 -e exact -e sddnnf-lp": (
        "8cd5ebfe7e24dc898dfb606fad2cb68c9079f1f64e6857e513178c5b72f09503"
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_NOISY_SWEEPS))
def test_golden_noisy_sweep_bytes(tmp_path, name):
    from click.testing import CliRunner

    from ltlseq.cli import main
    from ltlseq.inference import ENGINE_NAMES
    from test_tasks import family_spec

    path = tmp_path / "sweep.csv"
    if name.startswith("ltlseq "):
        args = [*name.split()[1:], "-o", str(tmp_path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
    else:
        spec = family_spec(6) if name == "fam6" else builtin_task(name)
        ct = compile_task(dataclasses.replace(spec, splits=(2, 6, 6)))
        rows = oracle_sweep(
            ct,
            generate_dataset(ct),
            default_sweep_configs(),
            engines=ENGINE_NAMES,
            seeds=(1, 2),
            calibrate=True,
        )
        write_sweep_csv(rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_NOISY_SWEEPS[name]


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


def test_read_sweep_csv_reads_what_write_sweep_csv_wrote(tmp_path):
    ct, ds = small_dataset()
    configs = [OracleConfig(), OracleConfig(kind="flip", p=0.2, target="ic_cc")]
    rows = oracle_sweep(ct, ds, configs, engines=("exact", "sddnnf-p"), calibrate=True)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    loaded = read_sweep_csv(path)
    assert loaded == [{c: row[c] for c in SWEEP_COLUMNS} for row in rows]
    assert [type(row["p"]) for row in loaded] == [float] * len(rows)
    assert [type(row["seed"]) for row in loaded] == [int] * len(rows)
    # one row per engine; ic_acc is blank for the combined-target oracle
    assert [row["ic_acc"] is None for row in loaded] == [False, False, True, True]
    assert summarize_rows(loaded) == summarize_rows(rows)


_HEADER = ",".join(SWEEP_COLUMNS).encode() + b"\n"


@pytest.mark.parametrize(
    "content",
    [
        b"a,b\n1,2\n",
        _HEADER + b"task5,exact,ic,flip,zero,7,,1,1,1,1\n",
        _HEADER + b"task5,exact,ic,flip,0.1\n",
        _HEADER + b"task5,exact,ic,flip,0.1,7,,1,1\n",
        _HEADER + b"task5,exact,ic,flip,0.1,7,,1,1,1,1,1\n",
        _HEADER + b"task5,exact,ic,flip,0.1,7,,0\x00,1,1,1\n",
        _HEADER + b"task5,exact,ic,flip,0.1,7,," + b"9" * (csv.field_size_limit() + 1) + b",1,1,1\n",
    ],
    ids=[
        "missing-columns",
        "p-not-a-number",
        "short-row",
        "short-metrics",
        "long-row",
        "nul-cell",
        "oversized-cell",
    ],
)
def test_read_sweep_csv_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "sweep.csv"
    path.write_bytes(content)
    with pytest.raises(TaskFileError, match="malformed sweep CSV") as err:
        read_sweep_csv(path)
    assert str(err.value).startswith(f"{path}:")


_OUT_OF_RANGE = {
    "sc-inf": ("sc_acc", "inf"),
    "sc-minus-inf": ("sc_acc", "-inf"),
    "sc-nan": ("sc_acc", "nan"),
    "sc-overflow": ("sc_acc", "1e400"),
    "sc-seven": ("sc_acc", "7"),
    "p-nan": ("p", "nan"),
    "p-minus-three": ("p", "-3"),
    "ic-inf": ("ic_acc", "inf"),
    "avg-negative": ("avg_acc", "-0.5"),
}


@pytest.mark.parametrize("column, cell", _OUT_OF_RANGE.values(), ids=_OUT_OF_RANGE.keys())
def test_read_sweep_csv_rejects_cells_outside_the_unit_interval(tmp_path, column, cell):
    record = dict(zip(SWEEP_COLUMNS, "task5 exact ic flip 0.1 7 1 1 1 1 1".split()))
    good = _HEADER + ",".join(record.values()).encode() + b"\n"
    record[column] = cell
    path = tmp_path / "sweep.csv"
    path.write_bytes(good + ",".join(record.values()).encode() + b"\n")
    with pytest.raises(TaskFileError) as err:
        read_sweep_csv(path)
    assert str(err.value) == (
        f"{path}:3: malformed sweep CSV ({column} {cell!r} is not a number in [0, 1])"
    )


@pytest.mark.parametrize("content", [None, b"task,\xff\n"], ids=["missing-file", "not-utf8"])
def test_read_sweep_csv_names_an_unreadable_file(tmp_path, content):
    path = tmp_path / "sweep.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(TaskFileError) as err:
        read_sweep_csv(path)
    assert str(err.value).startswith(f"{path}:")


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


def test_a_task_without_variables_scores_no_ic_stage(tmp_path):
    from ltlseq.inference import ENGINE_NAMES
    from ltlseq.tasks import load_task_yaml
    from test_tasks import NO_VARIABLES_YAML

    path = tmp_path / "novar.yaml"
    path.write_text(NO_VARIABLES_YAML)
    ct = compile_task(load_task_yaml(path))
    ds = generate_dataset(ct)
    for target in ORACLE_TARGETS:
        m = evaluate(ct, ds, "exact", OracleConfig(target=target))
        assert m.ic_acc is None
        assert m.avg_acc == (m.cc_acc + m.nsp_acc + m.sc_acc) / 3
    rows = oracle_sweep(ct, ds, engines=ENGINE_NAMES, seeds=(1, 2), calibrate=True)
    assert len(rows) == len(default_sweep_configs()) * len(ENGINE_NAMES) * 2
    for row in rows:
        assert row["ic_acc"] is None
        assert row["avg_acc"] == (row["cc_acc"] + row["nsp_acc"] + row["sc_acc"]) / 3
        if row["oracle_kind"] == "perfect":
            assert row["cc_acc"] == row["nsp_acc"] == row["sc_acc"] == 1.0
        cfg = OracleConfig(row["oracle_target"], row["oracle_kind"], row["p"], row["seed"])
        assert row["sc_temp"] == fit_sc_temperature(ct, ds, row["engine"], cfg)[0]


@pytest.mark.parametrize("name", ["task1", "task3", "task4", "task5", "task6", "example"])
def test_array_traces_equal_reference_loop(name):
    from dataclasses import replace

    from ltlseq.harness import _group_traces, _split_arrays
    from oracles import oracle_traces

    ct = compile_task(builtin_task(name, splits=(2, 9, 0), min_length=4, max_length=12))
    ds = generate_dataset(ct)
    data = _split_arrays(ct, ds, "val")
    assert len(set(data.lengths.tolist())) > 1  # mixed lengths pad the batch
    for cfg in _trace_configs():
        for seed in (3, 41):
            cfg = replace(cfg, seed=seed)
            got = _group_traces(ct, data, [cfg])[0]
            want, hits, total = oracle_traces(ct, ds.splits["val"], "val", cfg)
            for i, trace in enumerate(want):
                assert np.array_equal(got.cb[i, : len(trace)], trace), (cfg, i)
                assert not got.cb[i, len(trace):].any()
            assert (got.ic_hits, got.ic_total) == (hits, total), cfg


# ---------------------------------------------------------------------------
# Oracle draws from cached PCG64 words against fresh numpy Generators


def _reference_oracle(oracle, seed, true, sizes, p):
    """One sequence's labels (flip) or true-label masses (confidence) from
    the scalar oracle on a fresh Generator, steps outer, columns inner."""
    rng = np.random.default_rng(seed)
    out = []
    for step in true:
        for label, k in zip(step, sizes):
            dist = oracle(int(label), k, p, rng)
            out.append(int(dist.argmax()) if oracle is flip_oracle else dist[label])
    return out


def test_cached_oracle_draws_equal_scalar_oracles():
    import random

    from ltlseq.harness import _confidence_masses, _flip_labels, _Words

    rnd = random.Random(23)
    for trial in range(120):
        # 1 - (1 - p) is not p for many p below 1/2, and numpy's uniform spans the former
        p = rnd.choice([0.0, 1.0, 0.05, 0.1, 0.2, rnd.random(), 10 ** -rnd.uniform(0, 4)])
        sizes = [rnd.randint(2, 10) for _ in range(rnd.randint(1, 4))]
        lengths = np.array([rnd.randint(1, 30) for _ in range(rnd.randint(1, 4))])
        seeds = [rnd.getrandbits(64) for _ in lengths]
        true = [np.array([[rnd.randrange(k) for k in sizes] for _ in range(n)]) for n in lengths]
        # a flip table row of 1 or 5 words runs out mid-sequence and replays
        # on a fresh Generator; 2·entries is the oracle's own.  A confidence
        # table row holds a word per entry
        block = rnd.choice([1, 5, 2 * int(lengths.max()) * len(sizes)])
        flip_words = _Words.of(seeds, [block] * len(seeds))
        flips = _flip_labels(np.concatenate(true), sizes, p, flip_words, lengths)
        words = _Words.of(seeds, lengths * len(sizes))
        (masses,) = _confidence_masses([p], len(sizes), words, lengths)
        want_flips, want_masses = [], []
        for seed, t in zip(seeds, true):
            want_flips += _reference_oracle(flip_oracle, seed, t, sizes, p)
            want_masses += _reference_oracle(confidence_oracle, seed, t, sizes, p)
        assert flips.ravel().tolist() == want_flips, trial
        assert masses.ravel().tolist() == want_masses, trial


def _flip_case(p=0.3, seed=7):
    """A task5 test split, its flip-oracle inputs under ``seed`` and the
    labels ``flip_oracle`` draws on fresh Generators, sequence after sequence."""
    from ltlseq.harness import _split_arrays
    from ltlseq.streams import _digest_int

    ct, ds = small_dataset("task5", splits=(2, 4, 8))
    data = _split_arrays(ct, ds, "test")
    true = data.labels[data.mask]
    sizes = [v.domain.size for v in ct.spec.variables]
    want, lo = [], 0
    for sample, length in zip(data.samples, data.lengths.tolist()):
        stream = _digest_int(f"{seed}:test:{sample.seq_id}:oracle")
        want += _reference_oracle(flip_oracle, stream, true[lo : lo + length], sizes, p)
        lo += length
    return data, true, sizes, data.oracle_words(seed), want


def _replays(monkeypatch):
    """The rows whose streams are replayed for the scalar draws, in order."""
    from ltlseq.harness import _Words

    rows, stream = [], _Words.stream

    def spy(words, i):
        rows.append(i)
        return stream(words, i)

    monkeypatch.setattr(_Words, "stream", spy)
    return rows


def test_a_rejecting_flip_redraw_replays_only_its_sequence(monkeypatch):
    from ltlseq.harness import _flip_labels

    p = 0.3
    data, true, sizes, words, want = _flip_case(p)
    assert _flip_labels(true, sizes, p, words, data.lengths).ravel().tolist() == want
    # row 2's first flip re-draws on the low half of the next word: with that
    # half zeroed, the low product 0 is below k, as when Lemire would reject
    q = int(np.flatnonzero(words.doubles[2] < p)[0])
    assert q < data.lengths[2] * len(sizes)  # an entry's flip test
    table = words.table.copy()
    table[2, q + 1] &= np.uint64(0xFFFFFFFF00000000)
    replayed = _replays(monkeypatch)
    got = _flip_labels(true, sizes, p, dataclasses.replace(words, table=table), data.lengths)
    assert replayed == [2]
    assert got.ravel().tolist() == want


def test_a_flip_row_that_runs_out_of_words_replays_only_its_sequence(monkeypatch):
    from ltlseq.harness import _flip_labels, _Words

    p = 0.3
    data, true, sizes, words, want = _flip_case(p)
    # about half the words row 5 reads, the last of them no flip: no re-draw
    # reads past the row, so only the count of words shows that it ran out
    counts, half = words.counts.copy(), int(data.lengths[5]) * len(sizes) // 2
    counts[5] = next(c for c in range(half, counts[5]) if words.doubles[5, c - 1] >= p)
    short = _Words.of(words.seeds, counts)
    replayed = _replays(monkeypatch)
    assert _flip_labels(true, sizes, p, short, data.lengths).ravel().tolist() == want
    assert replayed == [5]


@pytest.mark.parametrize("k", [2, 4])
def test_argmax_hits_equal_argmax_on_a_forced_tie(k):
    from ltlseq.harness import _argmax_hits, _confidence_masses, _Words
    from ltlseq.streams import _next_doubles

    # zero words draw u = 0, so at p = 1 − 1/k the true class holds
    # m = 1/k and every other class (1 − m)/(k − 1) = 1/k: a tie in every entry
    lengths = np.array([k, 3])
    true = np.arange(int(lengths.sum()))[:, None] % k  # one column, every class
    table = np.zeros((2, 9), dtype=np.uint64)
    zeros = _Words([1, 2], table, np.array([8, 8]), _next_doubles(table))
    (m,) = _confidence_masses([1 - 1 / k], 1, zeros, lengths)
    o = (1.0 - m) / (k - 1)
    assert (m == o).all()
    dists = np.repeat(o, k, axis=1)
    dists[np.arange(len(true)), true[:, 0]] = m[:, 0]
    want = dists.argmax(axis=1) == true[:, 0]
    assert want[true[:, 0] == 0].all() and not want[true[:, 0] > 0].any()
    assert _argmax_hits(m, o, true)[:, 0].tolist() == want.tolist()


def test_a_replayed_row_reads_its_stream_from_word_0():
    from ltlseq.harness import _split_arrays, _Words
    from ltlseq.streams import _digest_int

    ops = [None if i % 3 else 7 for i in range(40)] + [None] * 10

    def read(draws, count):
        return [draws.random() if k is None else draws.integers(k) for k in ops[:count]]

    # a row of 2 words: its replay reads on past them
    short = _Words.of([99], [2])
    first = short.stream(0)
    assert read(first, 40) == read(short.stream(0), 40)
    assert read(short.stream(0), 50) == read(np.random.default_rng(99), 50)
    # through a split: each replay of a seed's row reads its stream from word 0
    ct, ds = small_dataset(splits=(2, 4, 4))
    data = _split_arrays(ct, ds, "test")
    words = data.oracle_words(5)
    assert data.oracle_words(5) is words

    def replays():
        return [[d.random() for _ in range(200)] for d in map(words.stream, range(len(words.seeds)))]

    once = replays()
    assert replays() == once
    for sample, count, row, values in zip(data.samples, words.counts, words.doubles, once):
        fresh = np.random.default_rng(_digest_int(f"5:test:{sample.seq_id}:oracle"))
        assert values == [fresh.random() for _ in range(200)]
        assert row[:count].tolist() == values[:count]  # the table holds the same words


def test_each_oracle_stream_is_seeded_once_per_sweep(monkeypatch):
    from ltlseq import generator, harness
    from ltlseq.streams import _digest_int

    seeded, built, replayed = [], [], []
    stream_words, stream = harness.stream_words, harness._Words.stream
    pcg64, default_rng = np.random.PCG64, np.random.default_rng

    def seeding(seeds, counts):
        seeded.extend(seeds)
        return stream_words(seeds, counts)

    def counting(seed):
        built.append(seed)
        return pcg64(seed)

    # default_rng builds its PCG64 in C, past the PCG64 spy
    def counting_rng(seed):
        built.append(seed)
        return default_rng(seed)

    def replaying(words, i):
        replayed.append(words.seeds[i])
        return stream(words, i)

    ct, ds = small_dataset("task3", splits=(2, 3, 5))
    monkeypatch.setattr(harness, "stream_words", seeding)
    monkeypatch.setattr(generator.np.random, "PCG64", counting)
    monkeypatch.setattr(generator.np.random, "default_rng", counting_rng)
    monkeypatch.setattr(harness._Words, "stream", replaying)
    oracle_sweep(ct, ds, default_sweep_configs(), engines=("exact",), seeds=(1, 2), calibrate=True)
    # 12 noisy configs read the streams of 2 seeds × (3 val + 5 test) sequences
    assert len(seeded) == len(set(seeded)) == 2 * (3 + 5)
    assert set(seeded) == {
        _digest_int(f"{seed}:{split}:{s.seq_id}:oracle")
        for seed in (1, 2)
        for split in ("val", "test")
        for s in ds.splits[split]
    }
    # a bit generator only for a row that replays
    assert built == replayed


@pytest.mark.parametrize(
    "engines, seeds, repeated",
    [
        (("exact", "exact"), (7, 7), "engine exact"),
        (("exact",), (7, 3, 7), "seed 7"),
        (("exact", "fuzzy-p", "exact"), (1,), "engine exact"),
    ],
)
def test_oracle_sweep_rejects_repeated_engines_and_seeds(engines, seeds, repeated):
    ct, ds = small_dataset()
    with pytest.raises(DomainError, match=f"oracle_sweep repeats {repeated}$"):
        oracle_sweep(ct, ds, [OracleConfig()], engines=engines, seeds=seeds)


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
    fit = harness.calibrate_temperatures

    def counting(acceptance, *args, **kwargs):
        calls.extend(acceptance)  # one pair list per row
        return fit(acceptance, *args, **kwargs)

    monkeypatch.setattr(harness, "calibrate_temperatures", counting)
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


@pytest.mark.parametrize("val_wider", [True, False], ids=["val-wider", "val-narrower"])
def test_sweep_over_splits_of_unequal_width_equals_separate_calls(val_wider, monkeypatch):
    from ltlseq import harness
    from ltlseq.inference import ENGINE_NAMES

    ct, ds = small_dataset("task3", splits=(60, 0, 0), min_length=2, max_length=12)
    long = [s for s in ds.splits["train"] if s.length > 7][:6]
    short = [s for s in ds.splits["train"] if s.length <= 7][:6]
    val, test = (long, short) if val_wider else (short, long)
    assert len({s.length for s in val}) > 1 and len({s.length for s in test}) > 1
    mixed = dataclasses.replace(ds, splits={"val": val, "test": test})
    configs = [
        OracleConfig(),
        OracleConfig(kind="flip", p=0.3),
        OracleConfig(target="ic_cc", kind="confidence", p=0.4),
    ]
    calls = []
    real = harness.run_batch
    monkeypatch.setattr(harness, "run_batch", lambda *args: calls.append(1) or real(*args))
    rows = oracle_sweep(ct, mixed, configs, engines=ENGINE_NAMES, seeds=(5, 6), calibrate=True)
    assert len(calls) == len(ENGINE_NAMES)  # one batch per engine over both splits
    assert len(rows) == len(configs) * len(ENGINE_NAMES) * 2
    for row in rows:
        cfg = OracleConfig(row["oracle_target"], row["oracle_kind"], row["p"], row["seed"])
        m = evaluate(ct, mixed, row["engine"], cfg)
        assert {c: row[c] for c in METRIC_COLUMNS} == dataclasses.asdict(m)
        assert row["sc_temp"] == fit_sc_temperature(ct, mixed, row["engine"], cfg)[0]
    # bit for bit: each unit of the stacked batch equals a batch of its own
    splits = [harness._split_arrays(ct, mixed, split) for split in ("val", "test")]
    units = [harness._group_traces(ct, data, [cfg])[0] for data in splits for cfg in configs]
    for name in ENGINE_NAMES:
        engine = make_engine(name, ct.dfa)
        predicted, acceptance = harness._run_units(engine, *harness._stack(units))
        lo = 0
        for unit in units:
            alone = harness._run_units(engine, *harness._stack([unit]))
            rows, lo = slice(lo, lo + len(unit.cb)), lo + len(unit.cb)
            assert np.array_equal(predicted[rows, : unit.cb.shape[1]], alone[0])
            assert np.array_equal(acceptance[rows], alone[1])
        assert lo == len(predicted)


@pytest.mark.parametrize("name", ["task3", "task4", "task5", "task6"])
def test_calibration_changes_no_metric(name):
    from ltlseq.inference import ENGINE_NAMES

    ct, ds = small_dataset(name, splits=(10, 8, 8))
    sweep = functools.partial(oracle_sweep, ct, dataset=ds, engines=ENGINE_NAMES, seeds=(1, 2))
    calibrated = sweep(calibrate=True)
    for row in calibrated:
        del row["sc_temp"]
    assert calibrated == sweep(calibrate=False)
