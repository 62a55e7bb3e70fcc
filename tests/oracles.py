"""Reference implementations the tests check the library against.

Everything here is written independently of the package internals: direct
finite-trace semantics by recursion over formula structure, a random
formula generator for property-style checks, per-point enumeration of
constraint solutions, the per-sample, per-draw oracle corruption loop,
the per-pair temperature search, the feasible letters of a walk step, the
per-variable, per-step domain positions of a split, the per-entry JSON
form a stored automaton had before the row form, ``sequences.csv`` as
one ``csv.writer`` row per step, the automaton of a formula explored by
one progression per state and letter and the probability and log-semiring
step kernels on a rows × letters × states cube.
"""

import csv
import io
import itertools
import math

import numpy as np

from ltlseq.constraints import AllDifferent, AllEqual, Comparison, tensor_probability
from ltlseq.errors import DomainError, ResourceLimitError
from ltlseq.harness import confidence_oracle, flip_oracle
from ltlseq.inference import apply_temperature
from ltlseq.streams import _digest_int

from ltlseq.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Finally,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakNext,
)

ATOMS = ["p", "q", "r"]


def rand_formula(rng, depth, atoms=ATOMS):
    if depth == 0:
        return rng.choice([TRUE, FALSE] + [Atom(a) for a in atoms])
    k = rng.randrange(12)
    sub = lambda: rand_formula(rng, depth - 1, atoms)
    if k == 0:
        return TRUE
    if k == 1:
        return Atom(rng.choice(atoms))
    if k == 2:
        return Not(sub())
    if k == 3:
        return And(sub(), sub())
    if k == 4:
        return Or(sub(), sub())
    if k == 5:
        return Implies(sub(), sub())
    if k == 6:
        return Iff(sub(), sub())
    if k == 7:
        return Next(sub())
    if k == 8:
        return WeakNext(sub())
    if k == 9:
        return Finally(sub())
    if k == 10:
        return Globally(sub())
    return rng.choice([Until, Release])(sub(), sub())


def holds(f, trace, i):
    """Direct finite-trace semantics: does ``trace[i:]`` satisfy ``f``?"""
    t = type(f)
    if f == TRUE:
        return True
    if f == FALSE:
        return False
    if t is Atom:
        return trace[i][f.name]
    if t is Not:
        return not holds(f.child, trace, i)
    if t is And:
        return holds(f.left, trace, i) and holds(f.right, trace, i)
    if t is Or:
        return holds(f.left, trace, i) or holds(f.right, trace, i)
    if t is Implies:
        return (not holds(f.left, trace, i)) or holds(f.right, trace, i)
    if t is Iff:
        return holds(f.left, trace, i) == holds(f.right, trace, i)
    if t is Next:
        return i + 1 < len(trace) and holds(f.child, trace, i + 1)
    if t is WeakNext:
        return i + 1 >= len(trace) or holds(f.child, trace, i + 1)
    if t is Finally:
        return any(holds(f.child, trace, j) for j in range(i, len(trace)))
    if t is Globally:
        return all(holds(f.child, trace, j) for j in range(i, len(trace)))
    if t is Until:
        return any(
            holds(f.right, trace, j)
            and all(holds(f.left, trace, k) for k in range(i, j))
            for j in range(i, len(trace))
        )
    if t is Release:
        return all(
            holds(f.right, trace, j)
            or any(holds(f.left, trace, k) for k in range(i, j))
            for j in range(i, len(trace))
        )
    raise AssertionError(f"unhandled formula {f!r}")


def rand_trace(rng, n, atoms=ATOMS):
    return [{a: rng.random() < 0.5 for a in atoms} for _ in range(n)]


# fm.progress results of explore_reference, by (state formula, atoms, letter):
# repeated explorations of one formula, as under several caps, reuse them.
_PROGRESSIONS = {}


def explore_reference(f, atoms, cap, cap_name):
    """The automaton of ``f``'s reachable state forms before minimization,
    built one ``progress`` call per state and letter, letters ascending:
    states are numbered in BFS order, and within a row in the order of the
    first letter reaching them.  Raises ``ResourceLimitError``, naming
    ``cap_name``, on reaching state ``cap + 1``, as ``ltlf_to_dfa`` does."""
    from ltlseq import formulas as fm
    from ltlseq.automata import Dfa, assignment_of

    atoms = tuple(atoms)
    initial = fm.state_form(fm.to_nnf(f))
    letters = [assignment_of(letter, atoms) for letter in range(1 << len(atoms))]
    state_of = {}  # raw progression -> state form
    index, order, rows = {initial: 0}, [initial], []
    for state_formula in order:  # grows while iterated: BFS
        row = []
        for letter, assignment in enumerate(letters):
            key = (state_formula, atoms, letter)
            raw = _PROGRESSIONS.get(key)
            if raw is None:
                raw = _PROGRESSIONS[key] = fm.progress(state_formula, assignment)
            if raw not in state_of:
                state_of[raw] = fm.state_form(raw)
            nxt = state_of[raw]
            if nxt not in index:
                if len(order) >= cap:
                    raise ResourceLimitError(
                        f"translating {f} reached {len(order) + 1} states, over the cap of "
                        f"{cap} states before minimization ({cap_name})"
                    )
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    return Dfa(
        atoms=atoms,
        n_states=len(order),
        accepting=frozenset(i for i, g in enumerate(order) if fm.eval_empty(g)),
        transitions=tuple(rows),
    )


def minimize_reference(d):
    """Moore partition refinement with the package's numbering contract.

    States are renumbered by BFS over classes from the initial state,
    letters ascending, exactly as ``ltlseq.automata.minimize`` promises.
    """
    from ltlseq.automata import Dfa

    reach, frontier = {d.initial}, [d.initial]
    while frontier:
        frontier = {t for s in frontier for t in d.transitions[s].tolist() if t not in reach}
        reach.update(frontier)
    cls = {s: int(s in d.accepting) for s in reach}
    while True:
        sigs = {s: (cls[s], *(cls[t] for t in d.transitions[s])) for s in reach}
        ids = {}
        refined = {s: ids.setdefault(sigs[s], len(ids)) for s in sorted(reach)}
        if len(ids) == len(set(cls.values())):
            break
        cls = refined
    members = {}
    for s in sorted(reach):
        members.setdefault(cls[s], s)  # smallest member represents its class
    number = {cls[d.initial]: 0}
    order = [cls[d.initial]]
    for c in order:  # grows while iterated: BFS
        for t in d.transitions[members[c]]:
            if cls[t] not in number:
                number[cls[t]] = len(order)
                order.append(cls[t])
    return Dfa(
        atoms=d.atoms,
        n_states=len(order),
        accepting=frozenset(i for i, c in enumerate(order) if members[c] in d.accepting),
        transitions=tuple(
            tuple(number[cls[t]] for t in d.transitions[members[c]]) for c in order
        ),
    )


def old_form_json(d):
    """``d`` as the per-entry JSON document written before the row form: one
    ``{"from", "letter", "to"}`` object per (state, letter) and no digest."""
    return {
        "atoms": list(d.atoms),
        "states": d.n_states,
        "initial": d.initial,
        "accepting": sorted(d.accepting),
        "transitions": [
            {"from": s, "letter": letter, "to": t}
            for s, row in enumerate(d.transitions.tolist())
            for letter, t in enumerate(row)
        ],
    }


def _linear_value(expr, assignment):
    return expr.constant + sum(coeff * assignment[var] for var, coeff in expr.terms)


def constraint_holds(c, assignment):
    """Truth of a constraint on one integer assignment, in plain Python."""
    body = c.body
    if isinstance(body, Comparison):
        lhs, rhs = _linear_value(body.lhs, assignment), _linear_value(body.rhs, assignment)
        return {
            "<": lhs < rhs,
            "<=": lhs <= rhs,
            "=": lhs == rhs,
            "!=": lhs != rhs,
            ">=": lhs >= rhs,
            ">": lhs > rhs,
        }[body.op]
    values = [assignment[n] for n in body.names]
    if isinstance(body, AllDifferent):
        return len(set(values)) == len(values)
    assert isinstance(body, AllEqual)
    return all(v == values[0] for v in values)


def partition_reference(constraints, variables):
    """Per-point bucketing of the Cartesian product by constraint-truth vector.

    Buckets appear in the order of their first assignment and list their
    assignments in ``itertools.product`` order, as ``partition_solutions``
    promises.
    """
    names = [v.name for v in variables]
    buckets = {}
    for values in itertools.product(*(v.domain.values for v in variables)):
        a = dict(zip(names, values))
        key = tuple(constraint_holds(c, a) for c in constraints)
        buckets.setdefault(key, []).append(a)
    return {key: tuple(sols) for key, sols in buckets.items()}


def split_labels_reference(task, samples):
    """Each step's position in each variable's domain, (samples x steps x
    variables) and zero past a sample's end: one ``index_of`` per variable
    per step of the samples' ``values``."""
    variables = task.spec.variables
    width = max(sample.length for sample in samples)
    labels = np.zeros((len(samples), width, len(variables)), dtype=np.intp)
    for i, sample in enumerate(samples):
        for t, values in enumerate(sample.values):
            labels[i, t] = [v.domain.index_of(values[v.name]) for v in variables]
    return labels


def oracle_rng(seed, split, seq_id):
    """The oracle stream of one sequence, as ``harness`` seeds it."""
    return np.random.default_rng(_digest_int(f"{seed}:{split}:{seq_id}:oracle"))


def label_distribution(cfg, true_label, k, rng):
    """One drawn label distribution: one-hot for a perfect oracle, else one
    ``flip_oracle`` or ``confidence_oracle`` draw."""
    if cfg.kind == "perfect":
        out = np.zeros(k)
        out[true_label] = 1.0
        return out
    if cfg.kind == "flip":
        return flip_oracle(true_label, k, cfg.p, rng)
    return confidence_oracle(true_label, k, cfg.p, rng)


def corrupted_cb_trace(task, sample, cfg, rng):
    """Constraint-belief trace (steps × atoms) of one sample, plus IC (hits, total).

    Draws in the contract's order: steps outer; declared variables (``ic``)
    or sorted atoms (``ic_cc``) inner.  The ``ic`` target draws every label
    distribution first, then contracts each constraint's indicator tensor
    with them over all steps.
    """
    atoms = task.atoms
    trace = np.empty((sample.length, len(atoms)))
    if cfg.target == "ic":
        variables = task.spec.variables
        true_idx = np.array(
            [[v.domain.index_of(values[v.name]) for v in variables] for values in sample.values]
        ).reshape(sample.length, len(variables))
        drawn = [
            [label_distribution(cfg, int(i), v.domain.size, rng) for i, v in zip(row, variables)]
            for row in true_idx
        ]
        dists = {v.name: np.array([row[j] for row in drawn]) for j, v in enumerate(variables)}
        ic_hits = sum(
            int(np.count_nonzero(dists[v.name].argmax(axis=1) == true_idx[:, j]))
            for j, v in enumerate(variables)
        )
        for i, atom in enumerate(atoms):
            names, tensor = task.indicator(atom)
            trace[:, i] = tensor_probability(tensor, [dists[n] for n in names])
        return trace, ic_hits, true_idx.size
    for t, truths in enumerate(sample.truths):
        for i, atom in enumerate(atoms):
            trace[t, i] = label_distribution(cfg, int(truths[atom]), 2, rng)[1]
    return trace, 0, 0


def oracle_traces(task, samples, split, cfg):
    """Per-sample traces of a split under one config, plus summed IC (hits, total)."""
    traces, hits, total = [], 0, 0
    for sample in samples:
        rng = None if cfg.kind == "perfect" else oracle_rng(cfg.seed, split, sample.seq_id)
        trace, h, n = corrupted_cb_trace(task, sample, cfg, rng)
        traces.append(trace)
        hits += h
        total += n
    return traces, hits, total


_CLAMP = 1e-7


def _nll(pairs, temp):
    total = 0.0
    for prob, truth in pairs:
        p = apply_temperature(prob, temp)
        p = min(max(p, _CLAMP), 1.0 - _CLAMP)
        total -= math.log(p) if truth else math.log(1.0 - p)
    return total


def calibrate_temperature_reference(pairs, tol=1e-4):
    """Golden-section search on log-temp, scoring each probe pair by pair
    through ``apply_temperature``; returns (temperature, degenerate)."""
    lo, hi = -5.0, 5.0
    probe = [_nll(pairs, math.exp(x)) for x in np.linspace(lo, hi, 9)]
    if max(probe) - min(probe) < 1e-12:
        return 1.0, True
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = _nll(pairs, math.exp(c)), _nll(pairs, math.exp(d))
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _nll(pairs, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _nll(pairs, math.exp(d))
    return math.exp((a + b) / 2.0), False


def feasible_letters_reference(task, state, remaining, label, ends=None):
    """The usable letters, in ``usable_letters`` order, after which some walk
    of ``remaining - 1`` more usable letters ends in a state whose acceptance
    is ``label``.

    Works forward on sets of end states, ``ends[s, n]`` being every state a
    walk of exactly ``n`` usable letters from ``s`` can stop in; pass one dict
    as ``ends`` to share those sets between calls on the same task.
    """
    if remaining < 1:
        raise DomainError("remaining steps must be >= 1")
    ends = {} if ends is None else ends
    dfa, usable = task.dfa, task.usable_letters

    def end_states(s, n):
        if (s, n) not in ends:
            if n == 0:
                ends[s, n] = {s}
            else:  # extend every walk of n - 1 letters by one more letter
                ends[s, n] = {
                    dfa.transitions[q][letter] for q in end_states(s, n - 1) for letter in usable
                }
        return ends[s, n]

    return tuple(
        letter
        for letter in usable
        if any(
            (q in dfa.accepting) == bool(label)
            for q in end_states(dfa.transitions[state][letter], remaining - 1)
        )
    )


def reach_table_reference(dfa, usable, max_steps):
    """``ltlseq.tasks._reach_table`` as nested lists, one Python ``any`` per
    cell: ``table[r][s]`` is the pair (label 0, label 1) of whether a walk of
    exactly ``r`` usable letters from ``s`` can end with that label."""
    delta = dfa.transitions.tolist()
    base = [(s not in dfa.accepting, s in dfa.accepting) for s in range(dfa.n_states)]
    table = [base]
    for _ in range(max_steps):
        prev = table[-1]
        row = []
        for s in range(dfa.n_states):
            neg = any(prev[delta[s][letter]][0] for letter in usable)
            pos = any(prev[delta[s][letter]][1] for letter in usable)
            row.append((neg, pos))
        table.append(row)
    return table


def sequences_csv_reference(ds):
    """The bytes ``serialize`` writes to ``sequences.csv``: one
    ``csv.writer`` row per step, each ``*_label`` cell the label of the
    step's value and each ``*_truth`` cell its letter's bit."""
    atoms, variables = list(ds.metadata["atoms"]), ds.spec.variables
    with_indices = any(s.indices is not None for _, s in ds)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(
        ["split", "seq_id", "t"]
        + [f"{v.name}_label" for v in variables]
        + ([f"{v.name}_index" for v in variables] if with_indices else [])
        + [f"{a}_truth" for a in atoms]
        + ["state_after", "seq_label"]
    )
    for split, sample in ds:
        for t, (values, letter) in enumerate(zip(sample.values, sample.letters)):
            row = [split, sample.seq_id, t]
            row += [v.domain.label_of(values[v.name]) for v in variables]
            if with_indices:
                row += [sample.indices[t][v.name] for v in variables]
            row += [letter >> i & 1 for i in range(len(atoms))]
            row += [sample.states[t], sample.label]
            writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _preimage_cube(dfa, v):
    """x[:, ℓ, t] = Σ_{s: δ(s,ℓ)=t} v[:, s] on a rows × letters × states
    cube, absent cells 0, by one ``np.add.reduceat`` over (letter,
    target)-sorted pairs."""
    n, n_letters = dfa.n_states, dfa.n_letters
    keys = (np.arange(n_letters) * n + dfa.transitions).ravel()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    x = np.zeros((len(v), n_letters * n))
    x[:, sorted_keys[starts]] = np.add.reduceat(v[:, order // n_letters], starts, axis=1)
    return x.reshape(len(v), n_letters, n)


def prob_raw_reference(dfa, multihot, b, weights):
    """The PROB engines' raw scores computed on the preimage cube of ``b``
    (of Π(1 − b) for the multi-hot rule, whose absent cells turn -0.0), then
    one ``np.matmul`` over the letters axis."""
    with np.errstate(divide="ignore"):
        x = _preimage_cube(dfa, np.log1p(-b) if multihot else b)
    if multihot:
        np.negative(np.expm1(x, out=x), out=x)
    return np.matmul(weights[:, None, :], x)[:, 0, :]


def logprob_raw_reference(dfa, multihot, b, weights):
    """The LOGPROB engines' raw scores computed on the preimage cube of
    ``b`` (of Π(1 − b) for the multi-hot rule), then a logsumexp over the
    middle, letters axis."""
    with np.errstate(divide="ignore"):
        x = _preimage_cube(dfa, np.log1p(-b) if multihot else b)
        x = np.log(-np.expm1(x) if multihot else x) + weights[:, :, None]
        top = np.max(x, axis=1, keepdims=True)
        shift = np.where(np.isfinite(top), top, 0.0)
        total = np.exp(x - shift).sum(axis=1, keepdims=True)
        return np.squeeze(np.log(total) + shift, axis=1)
