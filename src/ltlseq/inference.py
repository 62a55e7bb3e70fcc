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

The ``-lp`` engines sum over letters with logsumexp in log space, so letter
probabilities that underflow in float64 still give the log-semiring answer.

The per-step semantics the kernels implement stay as checked references:

* ``exact_step``: enumerate letters;
* ``sddnnf_step``: algebraic model counting on the compiled next-state
  circuits (``SddnnfEngine.circuits``);
* ``fuzzy_step``: structural semiring evaluation of the simplified next-state
  formulas (``FuzzyEngine.formulas``).

Circuits and formulas are built only when something reads them.  Raw step
outputs keep whatever mass the semantics produced; every engine but
``exact`` renormalizes each step and records the pre-normalization mass as a
diagnostic.
"""

from __future__ import annotations

import functools
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
_LOG_TEMP_TOL = 1e-4  # width at which calibrate_temperature's log-temperature search stops

ENGINE_NAMES = ("exact", "fuzzy-p", "fuzzy-lp", "sddnnf-p", "sddnnf-lp")


# ---------------------------------------------------------------------------
# Temperature scaling


def apply_temperature(prob, temp: float):
    """Logit-space temperature rescaling; preserves the argmax.

    Scalars go through σ(σ⁻¹(p)/temp); vectors through softmax(log(b)/temp).
    Inputs are clamped away from {0, 1} by 1e-7 first.
    """
    if temp <= 0:
        raise DomainError(f"temperature must be positive, got {temp}")
    if isinstance(prob, float) or np.ndim(prob) == 0:
        p = min(max(float(prob), _CLAMP), 1.0 - _CLAMP)
        z = math.log(p / (1.0 - p)) / temp
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)
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
    temperature and scores SC on raw acceptance.  The clamped logits are
    computed once; each probe then rescales them with the scalar steps of
    ``apply_temperature``.
    """
    if not pairs:
        raise DomainError("calibration needs at least one (probability, truth) pair")
    for _, truth in pairs:
        if truth not in (0, 1):
            raise DomainError(f"truth labels must be 0/1, got {truth!r}")
    logits = []
    for prob, truth in pairs:
        p = min(max(float(prob), _CLAMP), 1.0 - _CLAMP)
        logits.append((math.log(p / (1.0 - p)), truth))

    def nll(temp: float) -> float:
        total = 0.0
        for logit, truth in logits:
            z = logit / temp
            if z >= 0:
                p = 1.0 / (1.0 + math.exp(-z))
            else:
                e = math.exp(z)
                p = e / (1.0 + e)
            p = min(max(p, _CLAMP), 1.0 - _CLAMP)
            total -= math.log(p) if truth else math.log(1.0 - p)
        return total

    lo, hi = -5.0, 5.0
    probe = [nll(math.exp(x)) for x in np.linspace(lo, hi, 9)]
    if max(probe) - min(probe) < 1e-12:
        return 1.0, True

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = nll(math.exp(c)), nll(math.exp(d))
    while b - a > _LOG_TEMP_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = nll(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = nll(math.exp(d))
    return math.exp((a + b) / 2.0), False


# ---------------------------------------------------------------------------
# Step semantics


def _constraint_beliefs(cb, n_atoms: int, batched: bool = True) -> np.ndarray:
    """``cb`` as floats, checked to lie in [0, 1] and to have shape
    (..., atoms), or exactly (atoms,) unless ``batched``."""
    cb = np.asarray(cb, dtype=float)
    if (cb.shape[-1:] if batched else cb.shape) != (n_atoms,):
        raise DomainError(f"expected {n_atoms} constraint beliefs, got shape {cb.shape}")
    if np.any(cb < 0) or np.any(cb > 1):
        raise DomainError("constraint beliefs must lie in [0, 1]")
    return cb


def letter_probabilities(cb: np.ndarray, n_atoms: int) -> np.ndarray:
    """P(letter) for every bitmask, treating atoms as independent."""
    return _letter_table(_constraint_beliefs(cb, n_atoms, batched=False), log=False)


def exact_step(dfa: Dfa, b: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """One stochastic-matrix update: b'(s') = Σ_s b(s)·P(letters s→s')."""
    lp = letter_probabilities(cb, len(dfa.atoms))
    out = np.zeros(dfa.n_states)
    for s in range(dfa.n_states):
        if b[s] == 0.0:
            continue
        row = dfa.transitions[s]
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
    """Sums over the preimages {s: δ(s,ℓ) = t} of a DFA's transition table δ.

    The (source, letter) pairs are sorted by (letter, target), so one
    ``np.add.reduceat`` sums every preimage; the working array is
    sequences × letters × states.
    """

    def __init__(self, dfa: Dfa):
        n, n_letters = dfa.n_states, dfa.n_letters
        table = np.asarray(dfa.transitions, dtype=np.intp).reshape(n, n_letters)
        keys = (np.arange(n_letters) * n + table).ravel()  # source-major pairs
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        self.starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        self.keys = sorted_keys[self.starts]
        self.sources = order // n_letters
        self.shape = (n_letters, n)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """x[:, ℓ, t] = Σ_{s: δ(s,ℓ)=t} v[:, s] for v of shape sequences × states."""
        x = np.zeros((len(v), self.shape[0] * self.shape[1]))
        x[:, self.keys] = np.add.reduceat(v[:, self.sources], self.starts, axis=1)
        return x.reshape(len(v), *self.shape)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)  # an all -inf slice stays -inf
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - shift).sum(axis=axis, keepdims=True)) + shift
    return np.squeeze(out, axis=axis)


# ---------------------------------------------------------------------------
# Engines


class _TableEngine:
    """One update rule in one semiring, stepping a batch of beliefs at once.

    The linear rule is ``b'[t] = Σ_ℓ P(ℓ)·Σ_{s: δ(s,ℓ)=t} b[s]``; the
    multi-hot rule is ``b'[t] = Σ_ℓ P(ℓ)·(1 − Π_{s: δ(s,ℓ)=t}(1 − b[s]))``.
    In LOGPROB the sum over letters is a logsumexp.  ``exact`` returns its
    raw update; every other engine renormalizes each step and reports the
    pre-normalization mass.
    """

    name: str
    semiring: Semiring = PROB
    multihot = False
    renormalize = True

    def __init__(self, dfa: Dfa):
        self.dfa = dfa
        self._preimages = _Preimages(dfa)

    def letter_weights(self, cb: np.ndarray) -> np.ndarray:
        """P(letter) (log P(letter) in LOGPROB) for constraint beliefs ``cb``
        of shape (..., atoms); the result has shape (..., 2^atoms)."""
        cb = _constraint_beliefs(cb, len(self.dfa.atoms))
        return _letter_table(cb, self.semiring is LOGPROB)

    def raw(self, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Raw next-state scores (semiring carrier space) for state beliefs
        ``b`` (sequences × states) and ``letter_weights`` (sequences × 2^k)."""
        if self.multihot:
            with np.errstate(divide="ignore"):
                # b = 1 makes log1p(−b) = -inf, and exp(-inf) = 0 keeps Π(1 − b) exact
                mass = -np.expm1(self._preimages(np.log1p(-b)))
        else:
            mass = self._preimages(b)
        if self.semiring is not LOGPROB:
            return np.matmul(weights[:, None, :], mass)[:, 0, :]
        with np.errstate(divide="ignore"):
            return _logsumexp(weights[:, :, None] + np.log(mass), axis=1)

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
        b = np.asarray(b, dtype=float)
        if b.shape != (self.dfa.n_states,):
            raise DomainError(f"expected {self.dfa.n_states} state beliefs, got shape {b.shape}")
        beliefs, masses = self.advance(b[None], self.letter_weights(cb)[None])
        return beliefs[0], float(masses[0])


class ExactEngine(_TableEngine):
    name = "exact"
    renormalize = False


class FuzzyEngine(_TableEngine):
    """The linear rule.  The simplified next-state formulas are disjoint
    minterm DNFs, so their structural evaluation is that same update."""

    def __init__(self, dfa: Dfa, semiring: Semiring = PROB):
        super().__init__(dfa)
        self.semiring = semiring
        self.name = "fuzzy-lp" if semiring is LOGPROB else "fuzzy-p"

    @functools.cached_property
    def formulas(self) -> list[PropFormula]:
        """Reference formulas for ``fuzzy_step``, built on first read."""
        return [simplify(f) for f in next_state_formulas(self.dfa)]


class SddnnfEngine(_TableEngine):
    """The multi-hot rule: the closed form of model counting on the
    next-state circuits when state atoms are independent."""

    multihot = True

    def __init__(self, dfa: Dfa, semiring: Semiring = PROB):
        super().__init__(dfa)
        self.semiring = semiring
        self.name = "sddnnf-lp" if semiring is LOGPROB else "sddnnf-p"

    @functools.cached_property
    def circuits(self) -> list[Circuit]:
        """Reference circuits for ``sddnnf_step``, compiled on first read."""
        return [smooth(compile_sddnnf(f)) for f in next_state_formulas(self.dfa)]


def make_engine(name: str, dfa: Dfa):
    """Engine registry: exact, fuzzy-p, fuzzy-lp, sddnnf-p, sddnnf-lp."""
    if name == "exact":
        return ExactEngine(dfa)
    if name == "fuzzy-p":
        return FuzzyEngine(dfa, PROB)
    if name == "fuzzy-lp":
        return FuzzyEngine(dfa, LOGPROB)
    if name == "sddnnf-p":
        return SddnnfEngine(dfa, PROB)
    if name == "sddnnf-lp":
        return SddnnfEngine(dfa, LOGPROB)
    raise DomainError(f"unknown engine {name!r}; valid: {', '.join(ENGINE_NAMES)}")


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


def _step_each(engine, b: np.ndarray, cb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch step for an engine that only has the per-sequence ``step``."""
    pairs = [engine.step(bi, ci) for bi, ci in zip(b, cb)]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def run_batch(engine, cb: np.ndarray, lengths: Sequence[int] | None = None) -> BatchResult:
    """Iterate an engine from the one-hot initial belief over a batch of cb
    traces, given as one array of shape sequences × steps × atoms.

    ``lengths`` gives each sequence's own length when the batch is padded
    (default: every sequence fills every step); padding steps are run but
    masked out, and acceptance is read at each sequence's last step.
    Engines from ``make_engine`` step the whole batch at once; any other
    object with ``dfa`` and ``step`` is run sequence by sequence.
    """
    cb = np.asarray(cb, dtype=float)
    if cb.ndim != 3 or cb.shape[1] == 0:
        raise DomainError(f"expected traces of shape (sequences, steps > 0, atoms), got {cb.shape}")
    n_seq, length = cb.shape[:2]
    lengths = np.full(n_seq, length) if lengths is None else np.asarray(lengths)
    if lengths.shape != (n_seq,) or np.any(lengths < 1) or np.any(lengths > length):
        raise DomainError(f"sequence lengths must lie in [1, {length}], one per sequence")
    if isinstance(engine, _TableEngine):
        weights, step = engine.letter_weights(cb), engine.advance
    else:
        weights, step = cb, functools.partial(_step_each, engine)
    dfa = engine.dfa
    b = np.zeros((n_seq, dfa.n_states))
    b[:, dfa.initial] = 1.0
    beliefs = np.empty((n_seq, length, dfa.n_states))
    masses = np.empty((n_seq, length))
    for t in range(length):
        b, masses[:, t] = step(b, weights[:, t])
        beliefs[:, t] = b
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
    try:
        cb = np.array([np.asarray(c, dtype=float) for c in cb_trace])
    except ValueError as err:
        raise DomainError(f"constraint-belief trace rows differ in shape: {err}") from None
    if cb.ndim != 2:
        raise DomainError(f"expected a steps × atoms trace, got shape {cb.shape}")
    out = run_batch(engine, cb[None])
    return RunResult(
        beliefs=out.beliefs[0], acceptance=float(out.acceptance[0]), masses=out.masses[0].tolist()
    )
