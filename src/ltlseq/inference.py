"""Probabilistic temporal inference over a task DFA.

A belief state is a distribution over DFA states, advanced one step per time
step from the per-atom constraint beliefs.  The five engines run two update
rules, each a numpy kernel over the transition table δ (states × 2^k letters)
that steps a whole batch of sequences at once:

* linear (``exact``, ``fuzzy-p``, ``fuzzy-lp``): the stochastic-matrix update
  ``b'[t] = Σ_ℓ P(ℓ)·Σ_{s: δ(s,ℓ)=t} b[s]``;
* multi-hot (``sddnnf-p``, ``sddnnf-lp``): state atoms are independent with
  ``P(state s) = b[s]``, so ``b'[t] = Σ_ℓ P(ℓ)·(1 − Π_{s: δ(s,ℓ)=t}(1 − b[s]))``;
  it coincides with the linear rule on one-hot beliefs.

Every engine sums the preimages on the present (letter, target) cells only,
those some source reaches (``_Preimages``), and takes the multi-hot ``1 − Π``
there.  The PROB engines scatter the cells into a zero-filled rows × letters
× states array for one ``matmul`` over letters.  The ``-lp`` engines sum over
letters with logsumexp, so letter probabilities that underflow in float64
still give the log-semiring answer, and take their logs and exps on the
present cells, with one letters·states × rows array for the max and the
sum.  Either path holds one such array a step, so ``_BATCH_CELLS`` bounds all
five engines.

Each engine is one row of ``_ENGINES`` (rule, renormalization, semiring),
built by ``make_engine``.  The per-step semantics the kernels implement stay
as checked references:

* ``exact_step``: enumerate letters;
* ``sddnnf_step``: algebraic model counting on the compiled next-state
  circuits of ``reference_circuits``;
* ``fuzzy_step``: structural semiring evaluation of the simplified next-state
  formulas of ``reference_formulas``.

No engine builds or holds circuits or formulas.  Raw step outputs keep
whatever mass the semantics produced; every engine but ``exact``
renormalizes each step and records the pre-normalization mass as a
diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .automata import Dfa
from .circuits import (
    LOGPROB,
    PROB,
    Circuit,
    Semiring,
    WeightMap,
    amc,
    compile_sddnnf,
    fuzzy_eval,
    next_state_formulas,
    smooth,
    state_var,
)
from .errors import DegenerateBeliefError, DomainError
from .props import PropFormula, simplify

_CLAMP = 1e-7
_LOG_TEMP_TOL = 1e-4  # width at which each log-temperature search of calibrate_temperatures stops
_PROB_SLACK = 1e-9
# Cells of run_batch's working arrays (rows × letters × (states + steps))
# allowed in one chunk of rows, so a large batch keeps memory bounded.  2^21
# float64 cells (16 MB) is about 40 sequences of a 10-atom, 32-state task.
_BATCH_CELLS = 1 << 21


# ---------------------------------------------------------------------------
# Temperature scaling


def _check_probabilities(prob) -> None:
    """DomainError unless every entry of ``prob`` lies in [0, 1], up to float
    rounding: acceptance summed over states can pass 1 by a few ulps."""
    p = np.asarray(prob, dtype=float)
    ok = (p >= -_PROB_SLACK) & (p <= 1.0 + _PROB_SLACK)  # NaN fails both
    if not ok.all():
        raise DomainError(f"probabilities must lie in [0, 1], got {p[~ok].flat[0]}")


def apply_temperature(prob, temp: float):
    """Logit-space temperature rescaling; preserves the argmax.

    Scalars go through σ(σ⁻¹(p)/temp); vectors through softmax(log(b)/temp).
    Inputs are clamped away from {0, 1} by 1e-7 first.  Raises DomainError
    for a probability that is NaN or outside [0, 1] and for a temperature
    that is not positive and finite.
    """
    if not (temp > 0 and math.isfinite(temp)):
        raise DomainError(f"temperature must be positive and finite, got {temp}")
    _check_probabilities(prob)
    if isinstance(prob, float) or np.ndim(prob) == 0:
        p = min(max(float(prob), _CLAMP), 1.0 - _CLAMP)
        z = math.log(p / (1.0 - p)) / temp
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)
    if not np.size(prob):
        raise DomainError("temperature scaling needs at least one probability")
    b = np.clip(np.asarray(prob, dtype=float), _CLAMP, 1.0 - _CLAMP)
    logits = np.log(b) / temp
    logits -= logits.max()
    out = np.exp(logits)
    return out / out.sum()


def calibrate_temperature(pairs: Sequence[tuple[float, int]]) -> tuple[float, bool]:
    """Fit a scalar temperature by golden-section search on log-temp.

    Returns (temperature, degenerate).  A flat objective — e.g. every
    prediction exactly 0.5 — cannot be calibrated; then (1.0, True) comes
    back.  The rescaling is monotone, but in floats a prediction within an
    ulp or so of 0.5 can land on exactly 0.5, so the harness reports the
    temperature and scores SC on raw acceptance.  This is the one-row call
    of ``calibrate_temperatures``.  An empty list, a truth label other than
    0/1 and a probability that is NaN or outside [0, 1] raise DomainError.
    """
    return calibrate_temperatures([[prob for prob, _ in pairs]], [truth for _, truth in pairs])[0]


def calibrate_temperatures(acceptance, labels: Sequence[int]) -> list[tuple[float, bool]]:
    """``calibrate_temperature`` of every row of a (fits × pairs) matrix of
    probabilities, each row paired with the same truth ``labels``.

    All searches run in lockstep: each golden-section iteration scores the
    probe of every still-active row in one (fits × pairs) pass, so the
    numpy calls span the fits rather than the pairs of one fit.  Per row the
    arithmetic is the scalar search's: the clamped logits are rescaled by
    ``math.exp`` of the row's probe point with the steps of
    ``apply_temperature``, and the terms are summed with ``np.cumsum`` in
    pair order.  A row's result therefore does not depend on the rows beside
    it.  Input with no pairs, rows and labels of unequal length, a label
    other than 0/1 and a probability that is NaN or outside [0, 1] raise
    DomainError.
    """
    for truth in labels:
        if truth not in (0, 1):
            raise DomainError(f"truth labels must be 0/1, got {truth!r}")
    try:
        probs = np.asarray(acceptance, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows or a non-number
        raise DomainError(f"calibration needs a (fits × pairs) matrix: {exc}") from exc
    if probs.ndim != 2 or probs.shape[1] != len(labels):
        raise DomainError(
            f"calibration needs a (fits × {len(labels)} pairs) matrix, got shape {probs.shape}"
        )
    if not len(labels):
        raise DomainError("calibration needs at least one (probability, truth) pair")
    _check_probabilities(probs)
    clamped = np.clip(probs, _CLAMP, 1.0 - _CLAMP)
    logits = np.log(clamped / (1.0 - clamped))
    truth = np.array(labels, dtype=bool)

    def nll(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
        """The objective of each row at its log-temperature point."""
        temps = np.array([math.exp(x) for x in points.tolist()])
        z = logits[rows] / temps[:, None]
        e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) below
        p = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        p = np.clip(p, _CLAMP, 1.0 - _CLAMP)
        return -np.cumsum(np.log(np.where(truth, p, 1.0 - p)), axis=1)[:, -1]

    fits = len(probs)
    every = np.arange(fits)
    lo, hi = -5.0, 5.0
    probe = np.stack([nll(every, np.full(fits, x)) for x in np.linspace(lo, hi, 9)], axis=1)
    flat = probe.max(axis=1) - probe.min(axis=1) < 1e-12

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.full(fits, lo), np.full(fits, hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = nll(every, c), nll(every, d)
    active = ~flat
    while active.any():
        rows = np.flatnonzero(active)
        left = fc[rows] < fd[rows]
        lrows, rrows = rows[left], rows[~left]
        # left: the minimum lies below d, so [a, d] is kept and c is new
        b[lrows], d[lrows], fd[lrows] = d[lrows], c[lrows], fc[lrows]
        c[lrows] = b[lrows] - inv_phi * (b[lrows] - a[lrows])
        # right: [c, b] is kept and d is new
        a[rrows], c[rrows], fc[rrows] = c[rrows], d[rrows], fd[rrows]
        d[rrows] = a[rrows] + inv_phi * (b[rrows] - a[rrows])
        f = nll(rows, np.where(left, c[rows], d[rows]))
        fc[lrows], fd[rrows] = f[left], f[~left]
        active[rows] = b[rows] - a[rows] > _LOG_TEMP_TOL
    mid = ((a + b) / 2.0).tolist()
    return [(1.0, True) if flat[i] else (math.exp(mid[i]), False) for i in range(fits)]


# ---------------------------------------------------------------------------
# Step semantics


def _beliefs(x, what: str, n: int, batched: bool = True) -> np.ndarray:
    """``x`` as floats, checked to have shape (..., n), or exactly (n,) unless
    ``batched``, and to lie in [0, 1] (so not NaN); errors name ``what``."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as err:  # a string, a ragged list
        raise DomainError(f"{what} are not an array of numbers: {err}") from None
    if (x.shape[-1:] if batched else x.shape) != (n,):
        raise DomainError(f"expected {n} {what}, got shape {x.shape}")
    ok = (x >= 0) & (x <= 1)  # NaN fails both
    if not ok.all():
        raise DomainError(f"{what} must lie in [0, 1], got {x[~ok].flat[0]}")
    return x


def letter_probabilities(cb: np.ndarray, n_atoms: int) -> np.ndarray:
    """P(letter) for every bitmask, treating atoms as independent."""
    return _letter_table(_beliefs(cb, "constraint beliefs", n_atoms, batched=False), log=False)


def exact_step(dfa: Dfa, b: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """One stochastic-matrix update: b'(s') = Σ_s b(s)·P(letters s→s')."""
    lp = letter_probabilities(cb, len(dfa.atoms))
    out = np.zeros(dfa.n_states)
    for s, row in enumerate(dfa.transitions.tolist()):
        if b[s] == 0.0:
            continue
        for letter, p in enumerate(lp):
            out[row[letter]] += b[s] * p
    return out


def _weights(dfa: Dfa, b: np.ndarray, cb: np.ndarray, s: Semiring) -> WeightMap:
    w: dict[tuple[str, bool], float] = {}
    for i in range(dfa.n_states):
        p = float(b[i])
        w[(state_var(i), True)] = s.from_prob(p)
        w[(state_var(i), False)] = s.from_prob(1.0 - p)
    for i, atom in enumerate(dfa.atoms):
        p = float(cb[i])
        w[(atom, True)] = s.from_prob(p)
        w[(atom, False)] = s.from_prob(1.0 - p)
    return w


def reference_circuits(dfa: Dfa) -> list[Circuit]:
    """The smooth next-state circuits that ``sddnnf_step`` counts on."""
    return [smooth(compile_sddnnf(f)) for f in next_state_formulas(dfa)]


def reference_formulas(dfa: Dfa) -> list[PropFormula]:
    """The simplified next-state formulas that ``fuzzy_step`` evaluates."""
    return [simplify(f) for f in next_state_formulas(dfa)]


def sddnnf_step(
    circuits: Sequence[Circuit],
    dfa: Dfa,
    b: np.ndarray,
    cb: np.ndarray,
    s: Semiring = PROB,
) -> np.ndarray:
    """Raw AMC value of each next-state circuit (semiring carrier space)."""
    w = _weights(dfa, b, cb, s)
    return np.array([amc(c, w, s) for c in circuits])


def fuzzy_step(
    formulas: Sequence[PropFormula],
    dfa: Dfa,
    b: np.ndarray,
    cb: np.ndarray,
    s: Semiring = PROB,
) -> np.ndarray:
    """Raw structural evaluation of each next-state formula."""
    w = _weights(dfa, b, cb, s)
    return np.array([fuzzy_eval(f, w, s) for f in formulas])


# ---------------------------------------------------------------------------
# Table kernels


def _letter_table(cb: np.ndarray, log: bool) -> np.ndarray:
    """P(letter), or its log, along the last axis of ``cb``; bit i of a letter
    is atom i.  The log form adds logs, so letters whose probability
    underflows keep a finite log.
    """
    if log:
        with np.errstate(divide="ignore"):
            on, off = np.log(cb), np.log1p(-cb)
        combine, out = np.add, np.zeros(cb.shape[:-1] + (1,))
    else:
        on, off = cb, 1.0 - cb
        combine, out = np.multiply, np.ones(cb.shape[:-1] + (1,))
    for i in range(cb.shape[-1]):
        # doubling the table adds atom i at bit position i
        pair = (combine(out, off[..., i, None]), combine(out, on[..., i, None]))
        out = np.concatenate(pair, axis=-1)
    return out


class _Preimages:
    """The sums over the preimages {s: δ(s,ℓ) = t} of a DFA's transition
    table δ, one per present cell (ℓ, t), one that some source reaches.

    The (source, letter) pairs are sorted by (letter, target), so one
    ``np.add.reduceat`` sums every preimage; cell k's ``keys`` entry is
    ℓ·states + t, and ``letters`` and ``targets`` split it.
    """

    def __init__(self, dfa: Dfa):
        n, n_letters = dfa.n_states, dfa.n_letters
        keys = (np.arange(n_letters) * n + dfa.transitions).ravel()  # source-major pairs
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        self.starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        self.keys = sorted_keys[self.starts]
        self.letters, self.targets = np.divmod(self.keys, n)
        self.sources = order // n_letters
        self.shape = (n_letters, n)

    def cells(self, v: np.ndarray) -> np.ndarray:
        """Row k is Σ_{s: δ(s,ℓ)=t} v[:, s] for keys[k] = ℓ·states + t, for v
        of shape rows × states: the present cells' sums, cells × rows."""
        return np.add.reduceat(v.T[self.sources], self.starts, axis=0)


# ---------------------------------------------------------------------------
# Engines


# The one table of engines: name -> (multi-hot rule, renormalize, semiring).
_ENGINES = {
    "exact": (False, False, PROB),
    "fuzzy-p": (False, True, PROB),
    "fuzzy-lp": (False, True, LOGPROB),
    "sddnnf-p": (True, True, PROB),
    "sddnnf-lp": (True, True, LOGPROB),
}
ENGINE_NAMES = tuple(_ENGINES)


class _Engine:
    """One row of ``_ENGINES``: the linear or multi-hot rule and the
    renormalization of the module docstring in a semiring, stepping a batch
    of beliefs at once; built by ``make_engine``."""

    def __init__(self, name: str, dfa: Dfa):
        self.multihot, self.renormalize, self.semiring = _ENGINES[name]
        self.name, self.dfa = name, dfa
        self._preimages = _Preimages(dfa)

    def letter_weights(self, cb: np.ndarray) -> np.ndarray:
        """P(letter) (log P(letter) in LOGPROB) for constraint beliefs ``cb``
        of shape (..., atoms); the result has shape (..., 2^atoms)."""
        cb = _beliefs(cb, "constraint beliefs", len(self.dfa.atoms))
        return _letter_table(cb, self.semiring is LOGPROB)

    def raw(self, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Raw next-state scores (semiring carrier space) for state beliefs
        ``b`` (sequences × states) and ``letter_weights`` (sequences × 2^k)."""
        p = self._preimages
        with np.errstate(divide="ignore"):  # log 0 = -inf
            # b = 1 makes log1p(−b) = -inf, and exp(-inf) = 0 keeps Π(1 − b) exact
            mass = p.cells(np.log1p(-b) if self.multihot else b)
            if self.multihot:
                np.negative(np.expm1(mass, out=mass), out=mass)
            if self.semiring is LOGPROB:
                return self._logsumexp(mass, weights)
        # absent cells are 0 in the rows × letters × states array matmul sums
        x = np.zeros((len(b), p.shape[0] * p.shape[1]))
        x[:, p.keys] = mass.T
        return np.matmul(weights[:, None, :], x.reshape(len(b), *p.shape))[:, 0, :]

    def _logsumexp(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """logsumexp over letters of log x + log P(ℓ), x the present cells ×
        rows (overwritten).  The max runs over one letters·states × rows
        buffer of -inf; refilled with 0, it takes the exps, and numpy sums
        its states × rows slices in letter order, so absent cells add exact
        zeros and the bits are those of a rows × letters × states cube."""
        p = self._preimages
        np.log(x, out=x)
        x += weights.T[p.letters]
        cube = np.full((p.shape[0] * p.shape[1], len(weights)), -np.inf)
        cube[p.keys] = x
        top = cube.reshape(*p.shape, -1).max(axis=0)  # states × rows
        shift = np.where(np.isfinite(top), top, 0.0)  # an all -inf column stays -inf
        x -= shift[p.targets]
        cube.fill(0.0)
        cube[p.keys] = np.exp(x, out=x)
        if p.shape[1] > 1:
            out = np.log(cube.reshape(*p.shape, -1).sum(axis=0))
        else:  # one state: numpy sums each row's letters pairwise, as in a rows-first cube
            out = np.log(np.ascontiguousarray(cube.T).sum(axis=1)[None])
        out += shift
        return out.T.copy()  # C order: advance's sums over states depend on it

    def advance(self, b: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Beliefs (sequences × states) and masses (sequences) after one step."""
        raw = self.raw(b, weights)
        if not self.renormalize:
            return raw, raw.sum(axis=1)
        if self.semiring is LOGPROB:
            top = raw.max(axis=1)
            if np.any(top == -np.inf):
                raise DegenerateBeliefError(f"{self.name}: all next-state scores are zero")
            belief = np.exp(raw - top[:, None])
            total = belief.sum(axis=1)
            with np.errstate(over="ignore"):
                mass = np.where(top < 700, total * np.exp(top), np.inf)
            return belief / total[:, None], mass
        mass = raw.sum(axis=1)
        if not mass.all():
            raise DegenerateBeliefError(f"{self.name}: all next-state scores are zero")
        return raw / mass[:, None], mass

    def step(self, b: np.ndarray, cb: np.ndarray) -> tuple[np.ndarray, float]:
        """Beliefs and mass after one step from state beliefs ``b`` in [0, 1]."""
        b = _beliefs(b, "state beliefs", self.dfa.n_states, batched=False)
        beliefs, masses = self.advance(b[None], self.letter_weights(cb)[None])
        return beliefs[0], float(masses[0])


def make_engine(name: str, dfa: Dfa):
    """The engine ``name`` (one of ``ENGINE_NAMES``) over ``dfa``."""
    if name not in ENGINE_NAMES:
        raise DomainError(f"unknown engine {name!r}; valid: {', '.join(ENGINE_NAMES)}")
    return _Engine(name, dfa)


@dataclass
class RunResult:
    """Belief after each step, final acceptance mass, per-step raw masses."""

    beliefs: np.ndarray
    acceptance: float
    masses: list[float]


@dataclass
class BatchResult:
    """``run_batch`` output: beliefs (sequences × steps × states), final
    acceptance masses (sequences) and per-step raw masses (sequences ×
    steps).  Past a sequence's length its beliefs and masses are NaN."""

    beliefs: np.ndarray
    acceptance: np.ndarray
    masses: np.ndarray


def run_batch(engine, cb: np.ndarray, lengths: Sequence[int] | None = None) -> BatchResult:
    """Iterate an engine from the one-hot initial belief over a batch of cb
    traces, given as one array of shape sequences × steps × atoms.

    ``lengths`` gives each sequence's own length, as ints that numpy reads
    to an integer array, when the batch is padded (default: every sequence
    fills every step); padding steps are run but masked out, and acceptance
    is read at each sequence's last step.
    The engine steps a chunk of rows at once, as many as ``_BATCH_CELLS``
    allows; rows are independent, so the chunking does not change a bit of
    the output.
    """
    cb = _beliefs(cb, "constraint beliefs", len(engine.dfa.atoms))
    if cb.ndim != 3 or cb.shape[1] == 0:
        raise DomainError(f"expected traces of shape (sequences, steps > 0, atoms), got {cb.shape}")
    n_seq, length = cb.shape[:2]
    lengths = np.full(n_seq, length) if lengths is None else np.asarray(lengths)
    integral = lengths.dtype.kind in "iu"  # not float, str, bool or object
    if not integral or lengths.shape != (n_seq,) or np.any(lengths < 1) or np.any(lengths > length):
        raise DomainError(f"sequence lengths must lie in [1, {length}], one per sequence")
    dfa = engine.dfa
    beliefs = np.empty((n_seq, length, dfa.n_states))
    masses = np.empty((n_seq, length))
    rows = max(1, _BATCH_CELLS // (dfa.n_letters * (dfa.n_states + length)))
    for lo in range(0, n_seq, rows):
        chunk = slice(lo, lo + rows)
        weights = engine.letter_weights(cb[chunk])
        b = np.zeros((len(weights), dfa.n_states))
        b[:, dfa.initial] = 1.0
        for t in range(length):
            b, masses[chunk, t] = engine.advance(b, weights[:, t])
            beliefs[chunk, t] = b
    final = beliefs[np.arange(n_seq), lengths - 1]
    acceptance = np.zeros(n_seq)
    for s in dfa.accepting:  # the set's order, as the per-sequence sum had it
        acceptance += final[:, s]
    padding = np.arange(length) >= lengths[:, None]
    beliefs[padding] = np.nan
    masses[padding] = np.nan
    return BatchResult(beliefs=beliefs, acceptance=acceptance, masses=masses)


def run_sequence(engine, cb_trace: Sequence[np.ndarray]) -> RunResult:
    """Iterate an engine from the one-hot initial belief over a cb trace."""
    if len(cb_trace) == 0:
        raise DomainError("constraint-belief trace must be non-empty")
    cb = _beliefs(cb_trace, "constraint beliefs", len(engine.dfa.atoms))
    if cb.ndim != 2:
        raise DomainError(f"expected a steps × atoms trace, got shape {cb.shape}")
    out = run_batch(engine, cb[None])
    return RunResult(
        beliefs=out.beliefs[0], acceptance=float(out.acceptance[0]), masses=out.masses[0].tolist()
    )
