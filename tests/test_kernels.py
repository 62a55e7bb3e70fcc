"""Batched table kernels against the per-step reference semantics.

Every engine runs one of two numpy kernels over the transition table.  The
references are ``exact_step`` (letter enumeration), ``fuzzy_step`` on the
simplified next-state formulas of ``reference_formulas`` and ``sddnnf_step``
(algebraic model counting on the compiled circuits of ``reference_circuits``),
each followed by the renormalization the per-step engines always applied.
"""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ltlseq.automata import Dfa, ltlf_to_dfa
from ltlseq.circuits import LOGPROB, PROB
from ltlseq.errors import DegenerateBeliefError, DomainError
from ltlseq.formulas import parse
from ltlseq.inference import (
    ENGINE_NAMES,
    exact_step,
    fuzzy_step,
    make_engine,
    reference_circuits,
    reference_formulas,
    run_batch,
    run_sequence,
    sddnnf_step,
)
from ltlseq.library import builtin_task, builtin_task_names
from ltlseq.tasks import compile_task
from oracles import logprob_raw_reference, prob_raw_reference
from test_tasks import family_spec

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
    # one state: numpy sums the 8 letters of each row pairwise, in any batch
    cases.append(("one-state", Dfa(("p", "q", "r"), 1, frozenset({0}), ((0,) * 8,))))
    return cases


CASES = dfa_cases()
_references = {}


def reference_raw(dfa, name, b, cb, semiring):
    """The raw per-step reference value of engine ``name``'s semantics."""
    if name == "exact":
        return exact_step(dfa, b, cb)
    key = (id(dfa), name.split("-")[0])
    fuzzy = name.startswith("fuzzy")
    if key not in _references:
        _references[key] = (reference_formulas if fuzzy else reference_circuits)(dfa)
    step = fuzzy_step if fuzzy else sddnnf_step
    return step(_references[key], dfa, b, cb, semiring)


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


@pytest.mark.parametrize(
    "lengths",
    [
        [2.0, 3.0], [2.5, 3], ["2", "3"], [True, True], np.array([True, True]),
        np.array([2, 3], dtype=object), [0, 3], [2, 4], [2**64, 3], [2], [[2], [3]], 3,
    ],
    ids=[
        "floats", "fraction", "strings", "bools", "bool-array", "objects",
        "zero", "too-long", "2**64", "too-few", "column", "scalar",
    ],
)
def test_run_batch_rejects_lengths_that_are_not_integers_in_range(lengths):
    engine = make_engine("exact", compile_task(builtin_task("task5")).dfa)
    with pytest.raises(DomainError, match=r"sequence lengths must lie in \[1, 3\], one per sequence"):
        run_batch(engine, np.full((2, 3, 1), 0.5), lengths)


def test_run_batch_takes_integer_lengths_of_any_integer_type():
    engine = make_engine("exact", compile_task(builtin_task("task5")).dfa)
    cb = np.full((2, 3, 1), 0.5)
    want = run_batch(engine, cb, [2, 3])
    for lengths in (np.array([2, 3], dtype=np.uint8), [np.int64(2), 3], (2, 3)):
        got = run_batch(engine, cb, lengths)
        assert np.array_equal(got.acceptance, want.acceptance)
        assert np.array_equal(got.beliefs, want.beliefs, equal_nan=True)


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


# No letter leads to state 0, so its column holds no present cell and its
# per-target max is -inf.
ABSENT_TARGET = Dfa(("p", "q"), 3, frozenset({2}), ((1, 2, 1, 2), (2, 2, 1, 1), (1, 1, 2, 2)))
# 24 states over 1 atom whose preimages have 8 or 12 sources: numpy sums a
# preimage past its first source pairwise, with 8 accumulators from 9 on.
WIDE_PREIMAGES = Dfa(("p",), 24, frozenset({1}), tuple((s % 3, 3 + s % 2) for s in range(24)))
KERNEL_CASES = [
    *CASES,
    ("fam10", compile_task(family_spec(10)).dfa),
    ("absent-target", ABSENT_TARGET),
    ("wide-preimages", WIDE_PREIMAGES),
]


def mixed_beliefs(rng, dfa, n_rows):
    """Soft state beliefs with every third row one-hot, and soft constraint
    beliefs with some exactly 0 or 1, which give letters of weight 0."""
    b = np.array([soft_belief(rng, dfa.n_states) for _ in range(n_rows)])
    b[1::3] = np.eye(dfa.n_states)[rng.integers(dfa.n_states, size=len(b[1::3]))]
    cb = rng.random((n_rows, len(dfa.atoms)))
    cb[::2, 0] = 0.0
    cb[::3, -1] = 1.0
    return b, cb


def renormalized(raw):
    """The LOGPROB engines' renormalization of raw log scores (rows × states)."""
    top = raw.max(axis=1)
    belief = np.exp(raw - top[:, None])
    total = belief.sum(axis=1)
    with np.errstate(over="ignore"):
        mass = np.where(top < 700, total * np.exp(top), np.inf)
    return belief / total[:, None], mass


@pytest.mark.parametrize("case", KERNEL_CASES, ids=[name for name, _ in KERNEL_CASES])
def test_log_kernel_equals_rows_first_reference_bit_for_bit(case):
    _, dfa = case
    rng = np.random.default_rng(dfa.n_states * 6007 + dfa.n_letters)
    for n_rows in (1, 9):
        b, cb = mixed_beliefs(rng, dfa, n_rows)
        for name in ("fuzzy-lp", "sddnnf-lp"):
            engine = make_engine(name, dfa)
            weights = engine.letter_weights(cb)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                raw = engine.raw(b, weights)
                beliefs, masses = engine.advance(b, weights)
            want = logprob_raw_reference(dfa, engine.multihot, b, weights)
            assert raw.tobytes() == want.tobytes(), (name, n_rows)
            want_beliefs, want_masses = renormalized(want)
            assert beliefs.tobytes() == want_beliefs.tobytes(), (name, n_rows)
            assert masses.tobytes() == want_masses.tobytes(), (name, n_rows)


@pytest.mark.parametrize("case", KERNEL_CASES, ids=[name for name, _ in KERNEL_CASES])
def test_prob_kernel_equals_dense_cube_reference_bit_for_bit(case):
    # the reference's multi-hot cube holds -0.0 at absent cells where the
    # kernel scatters +0.0: absent-target has a whole column of them
    _, dfa = case
    rng = np.random.default_rng(dfa.n_states * 6011 + dfa.n_letters)
    for n_rows in (1, 9):
        b, cb = mixed_beliefs(rng, dfa, n_rows)
        for name in ("exact", "fuzzy-p", "sddnnf-p"):
            engine = make_engine(name, dfa)
            for weights in (engine.letter_weights(cb), engine.letter_weights(np.round(cb))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    raw = engine.raw(b, weights)
                    beliefs, masses = engine.advance(b, weights)
                want = prob_raw_reference(dfa, engine.multihot, b, weights)
                assert raw.tobytes() == want.tobytes(), (name, n_rows)
                want_masses = want.sum(axis=1)
                if engine.renormalize:
                    want = want / want_masses[:, None]
                assert beliefs.tobytes() == want.tobytes(), (name, n_rows)
                assert masses.tobytes() == want_masses.tobytes(), (name, n_rows)


@pytest.mark.parametrize("name", [n for n in ENGINE_NAMES if n != "exact"])
def test_zero_belief_in_a_batch_raises(name):
    dfa = compile_task(builtin_task("task3")).dfa
    engine = make_engine(name, dfa)
    b = np.array([np.full(dfa.n_states, 1.0 / dfa.n_states), np.zeros(dfa.n_states)])
    weights = engine.letter_weights(np.full((2, len(dfa.atoms)), 0.5))
    with pytest.raises(DegenerateBeliefError):
        engine.advance(b, weights)


def test_reference_circuits_and_formulas_are_built_lazily(monkeypatch):
    from ltlseq import inference

    dfa = ltlf_to_dfa(parse(FAM6))
    calls = []

    def counted(builder):
        real = getattr(inference, builder)

        def build(*args):
            calls.append(builder)
            return real(*args)

        return build

    for builder in ("reference_formulas", "reference_circuits", "next_state_formulas"):
        monkeypatch.setattr(inference, builder, counted(builder))
    for name in ENGINE_NAMES:
        make_engine(name, dfa).step(np.eye(dfa.n_states)[0], np.full(len(dfa.atoms), 0.5))
    assert calls == []
    assert len(inference.reference_formulas(dfa)) == dfa.n_states
    assert calls == ["reference_formulas", "next_state_formulas"]


@pytest.mark.parametrize("case", CASES, ids=[name for name, _ in CASES])
def test_stacked_batches_equal_separate_runs(case, monkeypatch):
    from ltlseq import inference
    from ltlseq.harness import _run_units, _Split, _stack, _Traces

    _, dfa = case
    rng = np.random.default_rng(dfa.n_states * 7717 + dfa.n_letters)
    steps, n_seq = 5, 4
    lengths = rng.integers(1, steps + 1, size=n_seq)
    lengths[0] = steps
    mask = np.arange(steps) < lengths[:, None]
    split = _Split("val", (), lengths, mask, None, None, None, None)
    units = []
    for _ in range(3):
        cb = rng.random((n_seq, steps, len(dfa.atoms)))
        cb[::2] = np.round(cb[::2])
        units.append(_Traces(split, np.where(mask[..., None], cb, 0.0), 0, 0, 0))
    # three rows per run_batch call over 4-row units: chunks 2 and 3 straddle units
    monkeypatch.setattr(inference, "_BATCH_CELLS", 3 * dfa.n_letters * (dfa.n_states + steps))
    for name in ENGINE_NAMES:
        engine = make_engine(name, dfa)
        parts = [run_batch(engine, u.cb, lengths) for u in units]
        whole = run_batch(engine, np.concatenate([u.cb for u in units]), np.tile(lengths, 3))
        predicted, acceptance = _run_units(engine, *_stack(units))
        for i, part in enumerate(parts):
            rows = slice(i * n_seq, (i + 1) * n_seq)
            assert np.array_equal(whole.beliefs[rows], part.beliefs, equal_nan=True), name
            assert np.array_equal(whole.masses[rows], part.masses, equal_nan=True), name
            assert np.array_equal(whole.acceptance[rows], part.acceptance), name
            assert np.array_equal(predicted[rows], part.beliefs.argmax(axis=2)), name
            assert np.array_equal(acceptance[rows], part.acceptance), name


@pytest.mark.parametrize("case", CASES, ids=[name for name, _ in CASES])
def test_row_chunks_equal_one_call(case, monkeypatch):
    from ltlseq import inference

    _, dfa = case
    rng = np.random.default_rng(dfa.n_states * 131 + dfa.n_letters)
    steps, n_seq = 5, 7
    lengths = rng.integers(1, steps + 1, size=n_seq)
    cb = rng.random((n_seq, steps, len(dfa.atoms)))
    cb[::2] = np.round(cb[::2])
    for name in ENGINE_NAMES:
        engine = make_engine(name, dfa)
        whole = run_batch(engine, cb, lengths)
        for rows in (1, 3):
            with monkeypatch.context() as patch:
                cells = rows * dfa.n_letters * (dfa.n_states + steps)
                patch.setattr(inference, "_BATCH_CELLS", cells)
                chunked = run_batch(engine, cb, lengths)
            assert np.array_equal(chunked.beliefs, whole.beliefs, equal_nan=True), (name, rows)
            assert np.array_equal(chunked.masses, whole.masses, equal_nan=True), (name, rows)
            assert np.array_equal(chunked.acceptance, whole.acceptance), (name, rows)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_run_batch_bounds_its_working_set(name):
    dfa = compile_task(family_spec(10)).dfa  # 32 states over 1,024 letters
    engine = make_engine(name, dfa)
    cb = np.random.default_rng(10).random((200, 20, len(dfa.atoms)))
    run_batch(engine, cb[:1])  # first-call caches are not the batch's
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = run_batch(engine, cb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert result.beliefs.shape == (200, 20, 32)
    assert peak < 48_000_000, peak  # one unchunked call peaked at about 140 MB


# sha256 over run_batch's beliefs, masses and acceptance bytes of every engine
# on the fixed padded soft-belief batches of ``digest_batches``.
GOLDEN_RUN_BATCH = "7c86e1caaddd1a38abba66b4d0c0b67ad63ca32ee38ca4085647812a0683e2e7"


def digest_batches():
    """(dfa, cb, lengths): each built-in and fam6 at 6 × 7, fam10 at 40 × 15."""
    dfas = [compile_task(builtin_task(name)).dfa for name in builtin_task_names()]
    dfas.append(ltlf_to_dfa(parse(FAM6)))
    dfas.append(compile_task(family_spec(10)).dfa)
    rng = np.random.default_rng(20261019)
    for dfa in dfas:
        n_seq, steps = (40, 15) if len(dfa.atoms) == 10 else (6, 7)
        lengths = rng.integers(1, steps + 1, size=n_seq)
        lengths[0] = steps
        yield dfa, rng.random((n_seq, steps, len(dfa.atoms))), lengths


def test_run_batch_output_bytes_are_pinned():
    digest = hashlib.sha256()
    for dfa, cb, lengths in digest_batches():
        for name in ENGINE_NAMES:
            out = run_batch(make_engine(name, dfa), cb, lengths)
            for array in (out.beliefs, out.masses, out.acceptance):
                digest.update(array.tobytes())
    assert digest.hexdigest() == GOLDEN_RUN_BATCH
