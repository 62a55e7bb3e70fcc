"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each."""

import math
import random
import time

import numpy as np

from ltlseq.circuits import (
    LOGPROB,
    PROB,
    amc,
    brute_force_wmc,
    compile_sddnnf,
    smooth,
)
from ltlseq.constraints import eval_constraint
from ltlseq.generator import generate_dataset
from ltlseq.harness import (
    OracleConfig,
    default_sweep_configs,
    evaluate,
    mp_baselines,
    oracle_sweep,
    semantic_loss,
    soft_xor,
)
from ltlseq.inference import (
    apply_temperature,
    exact_step,
    fuzzy_step,
    reference_circuits,
    reference_formulas,
    sddnnf_step,
)
from ltlseq.library import builtin_task
from ltlseq.props import PFALSE, PTRUE, PVar, pand, pnot, por, prop_vars
from ltlseq.tasks import compile_task

TASKS = ("task1", "task2", "task3", "task4", "task5", "task6")
EXPECTED_STATES = (8, 5, 5, 5, 4, 4)

_compiled = {}
_datasets = {}


def task_for(name):
    if name not in _compiled:
        _compiled[name] = compile_task(builtin_task(name))
    return _compiled[name]


def dataset_for(name):
    if name not in _datasets:
        _datasets[name] = generate_dataset(task_for(name), jobs=4)
    return _datasets[name]


def criterion(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_automaton_sizes():
    start = time.perf_counter()
    counts = tuple(task_for(name).dfa.n_states for name in TASKS)
    elapsed = time.perf_counter() - start
    ok = counts == EXPECTED_STATES and elapsed < 5.0
    criterion(1, ok, f"state counts {counts}, compiled in {elapsed:.2f}s")


def test_criterion_02_worked_example():
    task = task_for_example()
    s_plus = [(0, 8, 8), (1, 7, 3), (3, 2, 5), (2, 4, 8)]
    s_minus = [(0, 8, 8), (1, 7, 3), (3, 1, 5), (2, 4, 8)]

    def truth_trace(values):
        out = []
        for a, b, c in values:
            assignment = {"A": a, "B": b, "C": c}
            out.append(
                tuple(
                    eval_constraint(
                        task.constraints_by_name[atom],
                        assignment,
                        task.variables_by_name,
                    )
                    for atom in task.atoms
                )
            )
        return out

    # the documented per-step truth patterns of the two traces
    plus_truths = truth_trace(s_plus)
    minus_truths = truth_trace(s_minus)
    assert plus_truths == [(True, False), (False, True), (True, True), (False, True)]
    assert minus_truths == [(True, False), (False, True), (False, True), (False, True)]

    def letters(truths):
        return [sum(1 << i for i, t in enumerate(row) if t) for row in truths]

    plus_accepted = task.dfa.accepts(letters(plus_truths))
    minus_accepted = task.dfa.accepts(letters(minus_truths))
    ok = plus_accepted and not minus_accepted
    detail = (
        f"positive trace accepted={plus_accepted}, negative accepted={minus_accepted}"
    )
    if not plus_accepted:
        detail += (
            "; the positive trace itself falsifies G(p <-> X q) at step 1"
            " (p false, q true at step 2), so no finite-trace evaluator accepts it"
        )
    criterion(2, ok, detail)


def task_for_example():
    if "example" not in _compiled:
        _compiled["example"] = compile_task(builtin_task("example"))
    return _compiled["example"]


def test_criterion_03_generator_soundness():
    worst = 0.0
    checked = 0
    for name in TASKS:
        task = task_for(name)
        start = time.perf_counter()
        ds = dataset_for(name)
        dfa = task.dfa
        variables = task.variables_by_name
        for _split, sample in ds:
            state = dfa.initial
            states = []
            for values in sample.values:
                truths = {
                    atom: eval_constraint(
                        task.constraints_by_name[atom], values, variables
                    )
                    for atom in task.atoms
                }
                letter = sum(1 << i for i, a in enumerate(dfa.atoms) if truths[a])
                state = dfa.transitions[state][letter]
                states.append(state)
            assert tuple(states) == sample.states, f"{name} seq {sample.seq_id}"
            assert (state in dfa.accepting) == bool(sample.label)
            checked += 1
        worst = max(worst, time.perf_counter() - start)
    sizes = {len(dataset_for(n).splits[s]) for n in TASKS for s in ("val", "test")}
    ok = worst < 30.0 and sizes == {40} and checked == 6 * 400
    criterion(3, ok, f"{checked} sequences replayed, worst task {worst:.1f}s")


def test_criterion_04_model_count_agreement():
    rng = random.Random(41)
    names_pool = [f"v{i}" for i in range(12)]

    def rand_prop(depth):
        if depth == 0:
            return rng.choice([PTRUE, PFALSE] + [PVar(v) for v in names_pool])
        k = rng.randrange(6)
        if k == 0:
            return PVar(rng.choice(names_pool))
        if k == 1:
            return pnot(rand_prop(depth - 1))
        if k <= 3:
            return pand([rand_prop(depth - 1), rand_prop(depth - 1)])
        return por([rand_prop(depth - 1), rand_prop(depth - 1)])

    worst_p = worst_lp = 0.0
    for _ in range(200):
        f = rand_prop(rng.randrange(3, 6))
        names = prop_vars(f)
        c = smooth(compile_sddnnf(f))
        w = {}
        for v in names:
            p = rng.uniform(0.05, 0.95)
            w[(v, True)] = p
            w[(v, False)] = 1.0 - p
        worst_p = max(worst_p, abs(amc(c, w, PROB) - brute_force_wmc(f, w, PROB)))
        w_lp = {k: LOGPROB.from_prob(v) for k, v in w.items()}
        got = math.exp(amc(c, w_lp, LOGPROB))
        want = math.exp(brute_force_wmc(f, w_lp, LOGPROB))
        rel = abs(got - want) / want if want else abs(got - want)
        worst_lp = max(worst_lp, rel)
    ok = worst_p <= 1e-9 and worst_lp <= 1e-6
    criterion(4, ok, f"200 formulas, worst |err| {worst_p:.2e} (prob), rel {worst_lp:.2e} (log)")


def test_criterion_05_circuit_step_exactness():
    rng = np.random.default_rng(42)
    worst = 0.0
    for name in TASKS:
        dfa = task_for(name).dfa
        circuits = reference_circuits(dfa)
        for _ in range(1000):
            b = np.zeros(dfa.n_states)
            b[rng.integers(dfa.n_states)] = 1.0
            cb = rng.uniform(size=len(dfa.atoms))
            want = exact_step(dfa, b, cb)
            got_p = sddnnf_step(circuits, dfa, b, cb, PROB)
            got_lp = np.exp(sddnnf_step(circuits, dfa, b, cb, LOGPROB))
            worst = max(
                worst,
                float(np.max(np.abs(got_p - want))),
                float(np.max(np.abs(got_lp - want))),
            )
    ok = worst <= 1e-9
    criterion(5, ok, f"6000 one-hot steps x 2 semirings, worst |err| {worst:.2e}")


def test_criterion_06_fuzzy_boolean_boundary():
    transitions = 0
    for name in TASKS:
        dfa = task_for(name).dfa
        formulas = reference_formulas(dfa)
        for s in range(dfa.n_states):
            b = np.zeros(dfa.n_states)
            b[s] = 1.0
            for letter in range(dfa.n_letters):
                cb = np.array(
                    [float(letter >> i & 1) for i in range(len(dfa.atoms))]
                )
                got = fuzzy_step(formulas, dfa, b, cb, PROB)
                want = exact_step(dfa, b, cb)
                assert np.array_equal(got, want), (name, s, letter)
                assert got[dfa.transitions[s][letter]] == 1.0
                transitions += 1
    criterion(6, True, f"fuzzy == exact on all {transitions} Boolean transitions")


def test_criterion_07_perfect_pipeline():
    for name in TASKS:
        dataset_for(name)  # build outside the timed region
    engines = ("fuzzy-p", "fuzzy-lp", "sddnnf-p", "sddnnf-lp")
    start = time.perf_counter()
    failures = []
    for name in TASKS:
        task = task_for(name)
        for engine in engines:
            m = evaluate(task, dataset_for(name), engine, OracleConfig())
            if m.nsp_acc != 1.0 or m.sc_acc != 1.0:
                failures.append((name, engine, m.nsp_acc, m.sc_acc))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    detail = f"6 tasks x 4 engines all NSP=SC=1.0 in {elapsed:.1f}s"
    if failures:
        detail = f"failures: {failures}"
    criterion(7, ok, detail)


def test_criterion_08_noise_ablation():
    seeds = (12345, 67890, 88888, 13579, 24680)
    engines = ("fuzzy-p", "sddnnf-p")
    noise = (0.05, 0.1, 0.2)
    configs = default_sweep_configs()
    assert len(configs) == 13
    start = time.perf_counter()
    rows = []
    for name in ("task3", "task4", "task5", "task6"):
        rows.extend(
            oracle_sweep(
                task_for(name), dataset_for(name), configs,
                engines=engines, seeds=seeds, jobs=4,
            )
        )
    elapsed = time.perf_counter() - start

    def mean(metric, **key):
        vals = [r[metric] for r in rows if all(r[k] == v for k, v in key.items())]
        assert vals, key
        return sum(vals) / len(vals)

    problems = []

    # (a) flip-oracle SC accuracy never improves as noise grows
    for name in ("task3", "task4", "task5", "task6"):
        for engine in engines:
            for target in ("ic", "ic_cc"):
                curve = [mean("sc_acc", task=name, engine=engine, oracle_kind="perfect")]
                curve += [
                    mean("sc_acc", task=name, engine=engine, oracle_kind="flip",
                         oracle_target=target, p=p)
                    for p in noise
                ]
                drops = [curve[i + 1] - curve[i] for i in range(len(curve) - 1)]
                if any(d > 1e-12 for d in drops):
                    problems.append(f"flip SC not monotone: {name}/{engine}/{target} {curve}")

    # (b) confidence noise on the constraint stage never flips a threshold
    for r in rows:
        if r["oracle_kind"] == "confidence" and r["oracle_target"] == "ic_cc":
            if r["cc_acc"] != 1.0:
                problems.append(f"confidence cc_acc {r['cc_acc']} at {r['task']} p={r['p']}")
                break

    # (c) the two algebraic encodings agree
    worst_cfg = worst_pooled = 0.0
    for name in ("task3", "task4", "task5", "task6"):
        pooled = {}
        for engine in engines:
            per_cfg = [
                mean("avg_acc", task=name, engine=engine,
                     oracle_kind=c.kind, oracle_target=c.target, p=c.p)
                for c in configs
            ]
            pooled[engine] = sum(per_cfg) / len(per_cfg)
            for c, v in zip(configs, per_cfg):
                if engine == "fuzzy-p":
                    continue
                f_v = mean("avg_acc", task=name, engine="fuzzy-p",
                           oracle_kind=c.kind, oracle_target=c.target, p=c.p)
                gap = v - f_v
                if c.kind == "confidence" and c.target == "ic_cc":
                    # spread beliefs: the counting encoding may only do better
                    if gap < -0.01:
                        problems.append(f"sddnnf worse on confidence ic_cc: {name} p={c.p} gap {gap:.3f}")
                else:
                    worst_cfg = max(worst_cfg, abs(gap))
                    if abs(gap) > 0.05:
                        problems.append(f"engine gap {gap:.3f} at {name}/{c.kind}/{c.target}/p={c.p}")
        worst_pooled = max(worst_pooled, abs(pooled["fuzzy-p"] - pooled["sddnnf-p"]))
    if worst_pooled > 0.05:
        problems.append(f"pooled engine gap {worst_pooled:.3f}")

    ok = not problems and elapsed < 600.0
    detail = (
        f"{len(rows)} runs in {elapsed:.0f}s; worst per-config gap {worst_cfg:.3f}, "
        f"pooled {worst_pooled:.3f}"
    )
    if problems:
        detail = "; ".join(problems[:3])
    criterion(8, ok, detail)


def test_criterion_09_calibration_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        v = rng.uniform(size=rng.integers(2, 11))
        v /= v.sum()
        top = int(np.argmax(v))
        for temp in (0.1, 0.5, 2.0, 10.0):
            assert int(np.argmax(apply_temperature(v, temp))) == top
    scalar_err = abs(apply_temperature(0.9, 2.0) - 0.75)
    ok = scalar_err <= 1e-12
    criterion(9, ok, f"argmax stable on 10^4 vectors; sigmoid(ln 3) err {scalar_err:.1e}")


def test_criterion_10_semantic_loss_units():
    errs = (
        abs(semantic_loss([1.0], [1]) - 0.0),
        abs(semantic_loss([1.0, 1.0], [1, 1]) - 1.0),
        abs(soft_xor(0.5, 0.5) - 0.5625),
    )
    ok = all(e <= 1e-12 for e in errs)
    criterion(10, ok, f"unit losses 0 / 1 / 0.5625, worst err {max(errs):.1e}")


def test_criterion_11_mp_baselines():
    from dataclasses import replace

    from ltlseq.generator import Dataset

    ds5 = dataset_for("task5")
    template = ds5.splits["train"][0]

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

    split = [fake(i, [0] * 7 + [1] * 3, 1) for i in range(10)]
    fixture = Dataset(
        spec=ds5.spec,
        splits={"train": split, "val": split, "test": split},
        metadata=ds5.metadata,
    )
    mp_succ, mp_seq = mp_baselines(fixture)
    exact = mp_succ == 0.7 and mp_seq == 1.0

    succ2, seq2 = mp_baselines(dataset_for("task2"))
    sane = 0.0 <= succ2 <= 1.0 and 0.0 <= seq2 <= 1.0
    ok = exact and sane
    criterion(
        11,
        ok,
        f"fixture 0.7/1.0 exact; regenerated task2 {succ2:.3f}/{seq2:.2f} "
        f"vs reported 0.34/0.50 (non-binding)",
    )
