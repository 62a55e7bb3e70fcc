"""Batched table kernels against the per-step reference semantics.

Every engine runs one of two numpy kernels over the transition table.  The
references are ``exact_step`` (letter enumeration), ``fuzzy_step`` on the
engine's simplified next-state formulas and ``sddnnf_step`` (algebraic model
counting on its compiled circuits), each followed by the renormalization the
per-step engines always applied.
"""

import math

import numpy as np
import pytest

from ltlseq.automata import Dfa, ltlf_to_dfa
from ltlseq.circuits import LOGPROB, PROB
from ltlseq.errors import DegenerateBeliefError
from ltlseq.formulas import parse
from ltlseq.inference import (
    ENGINE_NAMES,
    exact_step,
    fuzzy_step,
    make_engine,
    run_batch,
    run_sequence,
    sddnnf_step,
)
from ltlseq.library import builtin_task, builtin_task_names
from ltlseq.tasks import compile_task

TOL = 1e-12
FAM6 = "G(a0 -> F b0) & G(a1 -> F b1) & G(a2 -> F b2)"


def random_dfa(rng, n_states, n_atoms):
    n_letters = 1 << n_atoms
    return Dfa(
        atoms=tuple("pqr"[:n_atoms]),
        n_states=n_states,
        accepting=frozenset(
            int(s) for s in rng.choice(n_states, rng.integers(1, n_states + 1), replace=False)
        ),
        transitions=tuple(
            tuple(int(t) for t in rng.integers(n_states, size=n_letters)) for _ in range(n_states)
        ),
    )


def dfa_cases():
    cases = [(name, compile_task(builtin_task(name)).dfa) for name in builtin_task_names()]
    cases.append(("fam6", ltlf_to_dfa(parse(FAM6))))
    rng = np.random.default_rng(20261018)
    for i in range(8):
        dfa = random_dfa(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        cases.append((f"random{i}", dfa))
    return cases


CASES = dfa_cases()
_references = {}


def reference_raw(dfa, name, b, cb, semiring):
    """The raw per-step reference value of engine ``name``'s semantics."""
    key = (id(dfa), name.split("-")[0])
    if key not in _references:
        _references[key] = make_engine(name, dfa)  # compiles on first read below
    engine = _references[key]
    if name == "exact":
        return exact_step(dfa, b, cb)
    if name.startswith("fuzzy"):
        return fuzzy_step(engine.formulas, dfa, b, cb, semiring)
    return sddnnf_step(engine.circuits, dfa, b, cb, semiring)


def reference_step(dfa, name, b, cb):
    """The per-step engines' update: raw reference, then renormalization."""
    if name == "exact":
        out = exact_step(dfa, b, cb)
        return out, float(out.sum())
    semiring = LOGPROB if name.endswith("-lp") else PROB
    raw = reference_raw(dfa, name, b, cb, semiring)
    if semiring is LOGPROB:
        top = float(raw.max())
        if top == float("-inf"):
            raise DegenerateBeliefError(name)
        mass = float(np.exp(raw - top).sum() * math.exp(top)) if top < 700 else math.inf
        belief = np.exp(raw - top)
        return belief / belief.sum(), mass
    mass = float(raw.sum())
    if mass == 0.0:
        raise DegenerateBeliefError(name)
    return raw / mass, mass


def reference_run(dfa, name, trace):
    b = np.zeros(dfa.n_states)
    b[dfa.initial] = 1.0
    beliefs, masses = [], []
    for cb in trace:
        b, mass = reference_step(dfa, name, b, cb)
        beliefs.append(b)
        masses.append(mass)
    return np.array(beliefs), float(sum(b[s] for s in dfa.accepting)), masses


def soft_belief(rng, n):
    return rng.dirichlet(np.full(n, 0.7))


@pytest.mark.parametrize("case", CASES, ids=[name for name, _ in CASES])
def test_single_steps_match_references_on_soft_beliefs(case):
    _, dfa = case
    rng = np.random.default_rng(len(dfa.transitions) * 7919 + dfa.n_letters)
    engines = [make_engine(name, dfa) for name in ENGINE_NAMES]
    k = len(dfa.atoms)
    n_samples = 10 if dfa.n_states > 5 else 40
    b = np.array([soft_belief(rng, dfa.n_states) for _ in range(n_samples)])
    cb = rng.random((n_samples, k))
    for engine in engines:
        raw = engine.raw(b, engine.letter_weights(cb))
        for i in range(n_samples):
            want = reference_raw(dfa, engine.name, b[i], cb[i], engine.semiring)
            assert np.array_equal(np.isneginf(raw[i]), np.isneginf(want)), engine.name
            finite = np.isfinite(want)
            assert np.max(np.abs(raw[i][finite] - want[finite]), initial=0.0) <= TOL
        for i in range(n_samples):
            got, got_mass = engine.step(b[i], cb[i])
            want, want_mass = reference_step(dfa, engine.name, b[i], cb[i])
            assert np.max(np.abs(got - want)) <= TOL, engine.name
            assert abs(got_mass - want_mass) <= TOL, engine.name


@pytest.mark.parametrize("case", CASES, ids=[name for name, _ in CASES])
def test_batched_runs_of_mixed_lengths_match_references(case):
    _, dfa = case
    rng = np.random.default_rng(dfa.n_states * 104729 + dfa.n_letters)
    k = len(dfa.atoms)
    n_seq = 6 if dfa.n_states > 5 else 24
    lengths = rng.integers(1, 7, size=n_seq)
    cb = rng.random((n_seq, lengths.max(), k))
    cb[::3, 0] = np.round(cb[::3, 0])  # a few Boolean steps keep some beliefs one-hot
    for name in ENGINE_NAMES:
        engine = make_engine(name, dfa)
        out = run_batch(engine, cb, lengths)
        assert out.beliefs.shape == (n_seq, lengths.max(), dfa.n_states)
        for i, length in enumerate(lengths):
            beliefs, acceptance, masses = reference_run(dfa, name, cb[i, :length])
            assert np.max(np.abs(out.beliefs[i, :length] - beliefs)) <= TOL, name
            assert np.max(np.abs(out.masses[i, :length] - masses)) <= TOL, name
            assert abs(out.acceptance[i] - acceptance) <= TOL, name
            assert np.all(np.isnan(out.beliefs[i, length:]))
            assert np.all(np.isnan(out.masses[i, length:]))
            single = run_sequence(engine, list(cb[i, :length]))
            assert np.array_equal(single.beliefs, out.beliefs[i, :length])
            assert single.masses == out.masses[i, :length].tolist()
            assert single.acceptance == out.acceptance[i]


@pytest.mark.parametrize("name", ["fuzzy-lp", "sddnnf-lp"])
def test_log_engines_match_logprob_reference_where_probabilities_underflow(name):
    dfa = compile_task(builtin_task("task1")).dfa
    engine = make_engine(name, dfa)
    rng = np.random.default_rng(99)
    for _ in range(20):
        b = 1e-200 * soft_belief(rng, dfa.n_states)
        cb = 10.0 ** -rng.uniform(150, 250, size=len(dfa.atoms))
        want = reference_raw(dfa, name, b, cb, LOGPROB)
        finite = np.isfinite(want)
        # products of two such probabilities underflow in float64
        assert np.exp(want[finite]).min() == 0.0
        raw = engine.raw(b[None], engine.letter_weights(cb[None]))[0]
        assert np.array_equal(np.isfinite(raw), finite)
        assert np.max(np.abs(raw[finite] - want[finite])) <= TOL * np.max(np.abs(want[finite]))
        got, _ = engine.step(b, cb)
        want_belief, _ = reference_step(dfa, name, b, cb)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want_belief)) <= TOL


@pytest.mark.parametrize("name", [n for n in ENGINE_NAMES if n != "exact"])
def test_zero_belief_in_a_batch_raises(name):
    dfa = compile_task(builtin_task("task3")).dfa
    engine = make_engine(name, dfa)
    b = np.array([np.full(dfa.n_states, 1.0 / dfa.n_states), np.zeros(dfa.n_states)])
    weights = engine.letter_weights(np.full((2, len(dfa.atoms)), 0.5))
    with pytest.raises(DegenerateBeliefError):
        engine.advance(b, weights)


def test_reference_circuits_and_formulas_are_built_lazily():
    dfa = ltlf_to_dfa(parse(FAM6))
    fuzzy, sddnnf = make_engine("fuzzy-p", dfa), make_engine("sddnnf-p", dfa)
    sddnnf.step(np.eye(dfa.n_states)[0], np.full(len(dfa.atoms), 0.5))
    assert "formulas" not in vars(fuzzy) and "circuits" not in vars(sddnnf)
    assert len(fuzzy.formulas) == dfa.n_states
    assert fuzzy.formulas is fuzzy.formulas


@pytest.mark.parametrize("case", CASES, ids=[name for name, _ in CASES])
def test_stacked_batches_equal_separate_runs(case, monkeypatch):
    from ltlseq import harness
    from ltlseq.harness import _run_units, _Split, _Traces

    _, dfa = case
    rng = np.random.default_rng(dfa.n_states * 7717 + dfa.n_letters)
    steps, n_seq = 5, 4
    lengths = rng.integers(1, steps + 1, size=n_seq)
    lengths[0] = steps
    mask = np.arange(steps) < lengths[:, None]
    split = _Split("val", (), lengths, mask, None, None, None)
    units = []
    for _ in range(3):
        cb = rng.random((n_seq, steps, len(dfa.atoms)))
        cb[::2] = np.round(cb[::2])
        units.append(_Traces(split, np.where(mask[..., None], cb, 0.0), 0, 0))
    # three rows per run_batch call over 4-row units: chunks 2 and 3 straddle units
    monkeypatch.setattr(harness, "_BATCH_CELLS", 3 * dfa.n_letters * (dfa.n_states + steps))
    for name in ENGINE_NAMES:
        engine = make_engine(name, dfa)
        parts = [run_batch(engine, u.cb, lengths) for u in units]
        whole = run_batch(engine, np.concatenate([u.cb for u in units]), np.tile(lengths, 3))
        chunked = _run_units(engine, units)
        for i, part in enumerate(parts):
            rows = slice(i * n_seq, (i + 1) * n_seq)
            assert np.array_equal(whole.beliefs[rows], part.beliefs, equal_nan=True), name
            assert np.array_equal(whole.masses[rows], part.masses, equal_nan=True), name
            assert np.array_equal(whole.acceptance[rows], part.acceptance), name
            assert np.array_equal(chunked[i][0], part.beliefs.argmax(axis=2)), name
            assert np.array_equal(chunked[i][1], part.acceptance), name
