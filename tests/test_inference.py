"""Temperature scaling, belief updates, and the three inference engines."""

import math
import random

import numpy as np
import pytest

from ltlseq.circuits import LOGPROB, PROB
from ltlseq.errors import DegenerateBeliefError, DomainError
from ltlseq.generator import generate_dataset
from ltlseq.inference import (
    ENGINE_NAMES,
    ExactEngine,
    FuzzyEngine,
    SddnnfEngine,
    apply_temperature,
    calibrate_temperature,
    exact_step,
    letter_probabilities,
    make_engine,
    run_batch,
    run_sequence,
)
from ltlseq.library import builtin_task
from ltlseq.tasks import compile_task


def boolean_cb(task, truths):
    return np.array([1.0 if truths[a] else 0.0 for a in task.atoms])


def one_hot(n, i):
    out = np.zeros(n)
    out[i] = 1.0
    return out


# ---------------------------------------------------------------------------
# Temperature scaling


def test_scalar_temperature_identity():
    for p in [0.05, 0.25, 0.5, 0.75, 0.9]:
        assert apply_temperature(p, 1.0) == pytest.approx(p, abs=1e-12)


def test_scalar_temperature_exact_value():
    # logit(0.75) = ln 3, so halving the logit gives √3/(√3+1)
    expected = math.sqrt(3) / (math.sqrt(3) + 1)
    assert apply_temperature(0.75, 2.0) == pytest.approx(expected, abs=1e-12)


def test_scalar_temperature_limits():
    assert apply_temperature(0.9, 1e9) == pytest.approx(0.5, abs=1e-5)
    assert apply_temperature(0.9, 1e-6) == pytest.approx(1.0, abs=1e-9)
    assert apply_temperature(0.1, 1e-6) == pytest.approx(0.0, abs=1e-9)
    # extreme inputs stay finite
    assert 0.0 <= apply_temperature(1.0, 0.001) <= 1.0
    assert 0.0 <= apply_temperature(0.0, 0.001) <= 1.0


def test_scalar_temperature_preserves_threshold():
    rng = random.Random(4)
    for _ in range(500):
        p = rng.random()
        t = 10 ** rng.uniform(-2, 2)
        assert (apply_temperature(p, t) >= 0.5) == (p >= 0.5)


def test_vector_temperature_preserves_argmax():
    rng = np.random.default_rng(8)
    for _ in range(500):
        v = rng.dirichlet(np.ones(5))
        for t in (0.1, 0.5, 2.0, 10.0):
            out = apply_temperature(v, t)
            assert out.shape == v.shape
            assert abs(out.sum() - 1.0) < 1e-9
            assert int(np.argmax(out)) == int(np.argmax(v))


def test_vector_temperature_flattens_and_sharpens():
    v = np.array([0.7, 0.2, 0.1])
    flat = apply_temperature(v, 1e9)
    assert np.allclose(flat, 1 / 3, atol=1e-6)
    sharp = apply_temperature(v, 1e-3)
    assert sharp[0] == pytest.approx(1.0, abs=1e-9)


def test_temperature_must_be_positive():
    with pytest.raises(DomainError):
        apply_temperature(0.5, 0.0)
    with pytest.raises(DomainError):
        apply_temperature(np.array([0.5, 0.5]), -1.0)


def test_calibration_sharpens_underconfident_scores():
    # all predictions mildly positive and always right: temperature < 1
    pairs = [(0.6, 1)] * 50 + [(0.4, 0)] * 50
    temp, degenerate = calibrate_temperature(pairs)
    assert not degenerate
    assert temp < 1.0


def test_calibration_fixed_point():
    rng = np.random.default_rng(123)
    probs = rng.uniform(0.01, 0.99, size=400)
    labels = (rng.random(400) < probs).astype(int)
    temp, degenerate = calibrate_temperature(list(zip(probs, labels)))
    assert not degenerate
    rescaled = [(apply_temperature(p, temp), y) for p, y in zip(probs, labels)]
    refit, _ = calibrate_temperature(rescaled)
    assert refit == pytest.approx(1.0, abs=1e-3)


def test_calibration_degenerate_inputs():
    # all scores at the midpoint: the objective is flat in the temperature
    temp, degenerate = calibrate_temperature([(0.5, 1), (0.5, 0)])
    assert degenerate and temp == 1.0
    # saturated but consistent scores are fine; the fit must stay finite
    temp, degenerate = calibrate_temperature([(1.0, 1)] * 10)
    assert not degenerate
    assert 0.0 < temp < 100.0


def test_calibration_errors():
    with pytest.raises(DomainError):
        calibrate_temperature([])
    with pytest.raises(DomainError):
        calibrate_temperature([(0.5, 2)])


def test_calibration_accepts_a_score_one_ulp_below_the_threshold():
    # at the fitted temperature the last score rescales to exactly 0.5,
    # which is no reason to reject the fit
    below = math.nextafter(0.5, 0.0)
    temp, degenerate = calibrate_temperature([(0.99, 0), (0.01, 1), (below, 0)])
    assert not degenerate
    assert temp >= 2.0
    assert apply_temperature(below, temp) == 0.5


# ---------------------------------------------------------------------------
# Letter distribution and the exact update


def test_letter_probabilities_hand_table():
    lp = letter_probabilities(np.array([0.3, 0.8]), 2)
    # bit i of the letter is atom i
    assert lp == pytest.approx([0.7 * 0.2, 0.3 * 0.2, 0.7 * 0.8, 0.3 * 0.8])
    assert lp.sum() == pytest.approx(1.0, abs=1e-12)


def test_letter_probabilities_validation():
    with pytest.raises(DomainError):
        letter_probabilities(np.array([0.5]), 2)
    with pytest.raises(DomainError):
        letter_probabilities(np.array([1.5, 0.0]), 2)
    with pytest.raises(DomainError):
        letter_probabilities(np.array([-0.1, 0.0]), 2)


def test_exact_step_is_stochastic():
    rng = np.random.default_rng(77)
    ct = compile_task(builtin_task("task1"))
    for _ in range(100):
        b = rng.dirichlet(np.ones(ct.dfa.n_states))
        cb = rng.random(len(ct.atoms))
        out = exact_step(ct.dfa, b, cb)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 0)


def test_exact_step_boolean_is_dfa_step():
    ct = compile_task(builtin_task("task6"))
    rng = random.Random(3)
    for _ in range(200):
        state = rng.randrange(ct.dfa.n_states)
        letter = rng.randrange(ct.dfa.n_letters)
        cb = np.array([float(letter >> i & 1) for i in range(len(ct.atoms))])
        out = exact_step(ct.dfa, one_hot(ct.dfa.n_states, state), cb)
        expected = ct.dfa.transitions[state][letter]
        assert out[expected] == pytest.approx(1.0, abs=1e-12)


def test_exact_step_uniform_split():
    dfa = compile_task(
        builtin_task("task5", splits=(4, 2, 2))
    ).dfa  # single atom task
    out = exact_step(dfa, one_hot(dfa.n_states, dfa.initial), np.array([0.5]))
    targets = {dfa.transitions[dfa.initial][0], dfa.transitions[dfa.initial][1]}
    for s in range(dfa.n_states):
        expected = sum(
            0.5
            for letter in (0, 1)
            if dfa.transitions[dfa.initial][letter] == s
        )
        assert out[s] == pytest.approx(expected)
    assert sum(out[s] > 0 for s in range(dfa.n_states)) == len(targets)


# ---------------------------------------------------------------------------
# Engine agreement


def test_make_engine_names():
    ct = compile_task(builtin_task("task5"))
    for name in ENGINE_NAMES:
        engine = make_engine(name, ct.dfa)
        assert engine.name == name
    with pytest.raises(DomainError) as exc:
        make_engine("magic", ct.dfa)
    assert "exact" in str(exc.value)


def test_engine_classes_match_registry():
    ct = compile_task(builtin_task("task5"))
    assert isinstance(make_engine("exact", ct.dfa), ExactEngine)
    assert isinstance(make_engine("fuzzy-p", ct.dfa), FuzzyEngine)
    assert isinstance(make_engine("sddnnf-lp", ct.dfa), SddnnfEngine)
    assert make_engine("fuzzy-lp", ct.dfa).semiring is LOGPROB
    assert make_engine("sddnnf-p", ct.dfa).semiring is PROB


def test_all_engines_agree_on_boolean_beliefs():
    # with one-hot state and 0/1 constraint beliefs every engine is the DFA
    rng = random.Random(15)
    for name in ("task3", "task5"):
        ct = compile_task(builtin_task(name))
        engines = [make_engine(n, ct.dfa) for n in ENGINE_NAMES]
        for _ in range(150):
            state = rng.randrange(ct.dfa.n_states)
            letter = rng.randrange(ct.dfa.n_letters)
            b = one_hot(ct.dfa.n_states, state)
            cb = np.array([float(letter >> i & 1) for i in range(len(ct.atoms))])
            expected = ct.dfa.transitions[state][letter]
            for engine in engines:
                out, mass = engine.step(b, cb)
                assert out[expected] == pytest.approx(1.0, abs=1e-12), engine.name
                assert mass == pytest.approx(1.0, abs=1e-9), engine.name


def test_sddnnf_matches_exact_on_one_hot_beliefs():
    rng = np.random.default_rng(42)
    for name in ("task3", "task5"):
        ct = compile_task(builtin_task(name))
        exact = ExactEngine(ct.dfa)
        for semiring in (PROB, LOGPROB):
            circuit_engine = SddnnfEngine(ct.dfa, semiring)
            for _ in range(250):
                b = one_hot(ct.dfa.n_states, int(rng.integers(ct.dfa.n_states)))
                cb = rng.random(len(ct.atoms))
                want, want_mass = exact.step(b, cb)
                got, got_mass = circuit_engine.step(b, cb)
                assert np.allclose(got, want, atol=1e-9), semiring.name
                assert got_mass == pytest.approx(want_mass, rel=1e-9)


def test_fuzzy_matches_exact_on_task_formulas():
    # the per-target formulas of a DFA have mutually exclusive clauses, so
    # the structural evaluation equals the stochastic update for soft inputs
    rng = np.random.default_rng(43)
    for name in ("task1", "task6"):
        ct = compile_task(builtin_task(name))
        exact = ExactEngine(ct.dfa)
        fuzzy = FuzzyEngine(ct.dfa)
        for _ in range(250):
            b = rng.dirichlet(np.ones(ct.dfa.n_states))
            cb = rng.random(len(ct.atoms))
            want, _ = exact.step(b, cb)
            got, mass = fuzzy.step(b, cb)
            assert np.allclose(got, want, atol=1e-9)
            assert mass == pytest.approx(1.0, abs=1e-9)


def test_sddnnf_deviates_from_exact_on_soft_beliefs():
    # multi-hot weighted counting marginalizes differently once the state
    # belief is spread out; the engines are only guaranteed to agree on
    # one-hot state beliefs
    ct = compile_task(builtin_task("task5"))
    exact = ExactEngine(ct.dfa)
    sddnnf = SddnnfEngine(ct.dfa)
    b = np.full(ct.dfa.n_states, 1.0 / ct.dfa.n_states)
    cb = np.array([0.7])
    _, mass_exact = exact.step(b, cb)
    _, mass_sddnnf = sddnnf.step(b, cb)
    assert mass_exact == pytest.approx(1.0, abs=1e-12)
    assert mass_sddnnf != pytest.approx(1.0, abs=1e-6)


def test_degenerate_belief_raises():
    ct = compile_task(builtin_task("task5"))
    zero = np.zeros(ct.dfa.n_states)
    cb = np.array([0.5])
    for name in ("fuzzy-p", "fuzzy-lp", "sddnnf-p", "sddnnf-lp"):
        engine = make_engine(name, ct.dfa)
        with pytest.raises(DegenerateBeliefError):
            engine.step(zero, cb)


# ---------------------------------------------------------------------------
# Sequence runs


def test_run_sequence_shapes_and_masses():
    ct = compile_task(builtin_task("task6", splits=(10, 4, 4)))
    ds = generate_dataset(ct)
    engine = make_engine("exact", ct.dfa)
    sample = ds.splits["test"][0]
    cb_trace = [boolean_cb(ct, truths) for truths in sample.truths]
    result = run_sequence(engine, cb_trace)
    assert result.beliefs.shape == (sample.length, ct.dfa.n_states)
    assert len(result.masses) == sample.length
    assert all(m == pytest.approx(1.0, abs=1e-12) for m in result.masses)


def test_run_sequence_replays_boolean_traces():
    ct = compile_task(builtin_task("task3", splits=(20, 5, 5)))
    ds = generate_dataset(ct)
    for engine_name in ENGINE_NAMES:
        engine = make_engine(engine_name, ct.dfa)
        for sample in ds.splits["test"]:
            cb_trace = [boolean_cb(ct, truths) for truths in sample.truths]
            result = run_sequence(engine, cb_trace)
            # belief tracks the recorded state exactly
            for belief, state in zip(result.beliefs, sample.states):
                assert int(np.argmax(belief)) == state
                assert belief[state] == pytest.approx(1.0, abs=1e-9)
            assert result.acceptance == pytest.approx(float(sample.label), abs=1e-9)


def test_run_sequence_acceptance_is_probability():
    rng = np.random.default_rng(31)
    ct = compile_task(builtin_task("task1"))
    engine = make_engine("exact", ct.dfa)
    for _ in range(50):
        cb_trace = [rng.random(len(ct.atoms)) for _ in range(10)]
        result = run_sequence(engine, cb_trace)
        assert 0.0 <= result.acceptance <= 1.0
        assert result.beliefs[-1].sum() == pytest.approx(1.0, abs=1e-9)


def test_run_sequence_rejects_empty_trace():
    ct = compile_task(builtin_task("task5"))
    with pytest.raises(DomainError):
        run_sequence(make_engine("exact", ct.dfa), [])


def test_calibration_equals_per_pair_reference_search():
    from oracles import calibrate_temperature_reference

    rng = np.random.default_rng(2718)
    cases = [[(0.5, 1), (0.5, 0), (0.5, 1)], [(0.0, 0), (1.0, 1)], [(1.0, 0), (0.0, 1), (0.3, 1)]]
    while len(cases) < 200:
        n = int(rng.integers(1, 40))
        probs = rng.random(n)
        probs[rng.random(n) < 0.2] = rng.choice([0.0, 1.0, 0.5, 1e-9, 1 - 1e-9])
        labels = rng.integers(0, 2, size=n)
        cases.append([(float(p), int(y)) for p, y in zip(probs, labels)])
    for pairs in cases:
        assert calibrate_temperature(pairs) == calibrate_temperature_reference(pairs), pairs


# ---------------------------------------------------------------------------
# Values outside [0, 1] and non-finite values are rejected, not propagated


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12, 1.0 + 1e-12])
@pytest.mark.parametrize(
    "entry", ["run_batch", "run_sequence", "exact_step", "letter_probabilities"]
)
def test_constraint_beliefs_outside_unit_interval_raise(entry, bad):
    ct = compile_task(builtin_task("task5"))
    k = len(ct.atoms)
    cb = np.full((3, k), 0.5)
    cb[1, k - 1] = bad
    b0 = one_hot(ct.dfa.n_states, ct.dfa.initial)
    calls = {
        "run_batch": lambda engine: run_batch(engine, cb[None]),
        "run_sequence": lambda engine: run_sequence(engine, list(cb)),
        "exact_step": lambda engine: exact_step(ct.dfa, b0, cb[1]),
        "letter_probabilities": lambda engine: letter_probabilities(cb[1], k),
    }
    for name in ENGINE_NAMES:
        with pytest.raises(DomainError, match=r"constraint beliefs must lie in \[0, 1\]"):
            calls[entry](make_engine(name, ct.dfa))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: calibrate_temperature([(math.nan, 1), (0.2, 0)]), id="fit-nan"),
        pytest.param(lambda: calibrate_temperature([(0.2, 0), (1.5, 1)]), id="fit-above-1"),
        pytest.param(lambda: calibrate_temperature([(-0.25, 0)]), id="fit-below-0"),
        pytest.param(lambda: calibrate_temperature([(math.inf, 1)]), id="fit-inf"),
        pytest.param(lambda: apply_temperature(math.nan, 1.0), id="scalar-nan"),
        pytest.param(lambda: apply_temperature(1.5, 1.0), id="scalar-above-1"),
        pytest.param(lambda: apply_temperature(np.array([0.2, math.nan, 0.8]), 1.0), id="vector-nan"),
        pytest.param(lambda: apply_temperature(np.array([0.2, -0.1]), 1.0), id="vector-below-0"),
        pytest.param(lambda: apply_temperature(0.7, math.nan), id="scalar-temp-nan"),
        pytest.param(lambda: apply_temperature(0.7, math.inf), id="scalar-temp-inf"),
        pytest.param(lambda: apply_temperature(np.array([0.3, 0.7]), math.inf), id="vector-temp-inf"),
        pytest.param(lambda: apply_temperature(np.array([0.3, 0.7]), math.nan), id="vector-temp-nan"),
        pytest.param(lambda: apply_temperature(0.7, -math.inf), id="scalar-temp-minus-inf"),
    ],
)
def test_calibration_rejects_non_finite_and_out_of_range_inputs(call):
    with pytest.raises(DomainError):
        call()


def test_probabilities_within_rounding_of_the_unit_interval_pass():
    # acceptance summed in floats can pass 1 by a few ulps
    over = 1.0 + 4 * np.finfo(float).eps
    assert calibrate_temperature([(over, 1), (0.2, 0)]) == calibrate_temperature(
        [(1.0, 1), (0.2, 0)]
    )
    assert apply_temperature(over, 2.0) == apply_temperature(1.0, 2.0)
