"""Deterministic finite automata over bitmask letters, built by progression.

A letter is an integer whose bit ``i`` gives the truth value of ``atoms[i]``.
Automata are always complete; state 0 is initial.  ``ltlf_to_dfa`` yields the
minimized automaton of a formula with a deterministic BFS numbering, so equal
inputs produce identical automata.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import formulas as fm
from .errors import DomainError, ResourceLimitError
from .props import PropFormula, PFALSE, PTRUE, PVar, pand, pnot, por

MAX_DFA_STATES = 10_000
_MAX_ATOMS = 16


@dataclass(frozen=True)
class Dfa:
    """Complete DFA; ``transitions[s][letter]`` is the successor state."""

    atoms: tuple[str, ...]
    n_states: int
    accepting: frozenset[int]
    transitions: tuple[tuple[int, ...], ...]

    initial: int = 0

    @property
    def n_letters(self) -> int:
        return 1 << len(self.atoms)

    def step(self, state: int, letter: int) -> int:
        if not 0 <= letter < self.n_letters:
            raise DomainError(f"letter {letter} out of range for {len(self.atoms)} atoms")
        return self.transitions[state][letter]

    def run(self, trace: Sequence[int]) -> list[int]:
        """States after each letter of ``trace`` (same length as the trace)."""
        if len(trace) == 0:
            raise DomainError("trace must be non-empty")
        out = []
        state = self.initial
        for letter in trace:
            state = self.step(state, letter)
            out.append(state)
        return out

    def accepts(self, trace: Sequence[int]) -> bool:
        return self.run(trace)[-1] in self.accepting

    def to_json_dict(self) -> dict:
        return {
            "atoms": list(self.atoms),
            "states": self.n_states,
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "transitions": [
                {"from": s, "letter": letter, "to": self.transitions[s][letter]}
                for s in range(self.n_states)
                for letter in range(self.n_letters)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Dfa":
        """Inverse of :meth:`to_json_dict`; any malformed field is a DomainError.

        The table must list each ``(from, letter)`` pair exactly once, and
        every state and letter must be in range.
        """
        if not isinstance(data, dict):
            raise DomainError("DFA JSON must be an object")
        missing = {"atoms", "states", "accepting", "transitions"} - data.keys()
        if missing:
            raise DomainError(f"DFA JSON is missing {sorted(missing)}")
        atoms = data["atoms"]
        if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
            raise DomainError("DFA atoms must be a list of names")
        if len(set(atoms)) != len(atoms):
            raise DomainError(f"DFA atoms repeat: {atoms}")
        n = _json_index(data["states"], None, "states")
        n_letters = 1 << len(atoms)
        entries = data["transitions"]
        accepting = data["accepting"]
        if not isinstance(entries, list) or not isinstance(accepting, list):
            raise DomainError("DFA transitions and accepting states must be lists")
        transitions = _bulk_transitions(entries, n, n_letters)
        if transitions is None:
            transitions = _checked_transitions(entries, n, n_letters)
        return cls(
            atoms=tuple(atoms),
            n_states=n,
            accepting=frozenset(_json_index(s, n, "accepting") for s in accepting),
            transitions=transitions,
            initial=_json_index(data.get("initial", 0), n, "initial"),
        )


_TRANSITION_CELLS = operator.itemgetter("from", "letter", "to")


def _bulk_transitions(entries: list, n: int, n_letters: int) -> tuple[tuple[int, ...], ...] | None:
    """The table of a well-formed transition list, checked as arrays; None
    if any entry is off, so that ``_checked_transitions`` names it.

    Well-formed: exact dicts holding exact ints in range, and one entry per
    ``(from, letter)`` pair.  An int subclass also falls back, and passes there.
    """
    if not entries or len(entries) != n * n_letters or not set(map(type, entries)) <= {dict}:
        return None
    try:
        flat = list(itertools.chain.from_iterable(map(_TRANSITION_CELLS, entries)))
    except KeyError:
        return None
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        src, letter, dst = np.array(flat, dtype=np.int64).reshape(-1, 3).T
    except OverflowError:
        return None
    if (
        min(src.min(), letter.min(), dst.min()) < 0
        or max(src.max(), dst.max()) >= n
        or letter.max() >= n_letters
    ):
        return None
    pair = src * n_letters + letter
    seen = np.zeros(n * n_letters, dtype=bool)
    seen[pair] = True
    if not seen.all():
        return None  # a pair repeats, so another is missing
    table = np.empty(n * n_letters, dtype=np.int64)
    table[pair] = dst
    return tuple(map(tuple, table.reshape(n, n_letters).tolist()))


def _checked_transitions(entries: list, n: int, n_letters: int) -> tuple[tuple[int, ...], ...]:
    """The table of a transition list, checked entry by entry: the reference
    for ``_bulk_transitions``, and the path whose DomainError names the
    first bad entry."""
    table: dict[tuple[int, int], int] = {}
    for t in entries:
        if not isinstance(t, dict) or not {"from", "letter", "to"} <= t.keys():
            raise DomainError(f"transition {t!r} needs 'from', 'letter' and 'to'")
        key = (
            _json_index(t["from"], n, "from"),
            _json_index(t["letter"], n_letters, "letter"),
        )
        if key in table:
            raise DomainError(f"duplicate transition from {key[0]} on letter {key[1]}")
        table[key] = _json_index(t["to"], n, "to")
    if len(table) != n * n_letters:
        raise DomainError("transition table is not complete")
    return tuple(tuple(table[s, letter] for letter in range(n_letters)) for s in range(n))


def _json_index(value, bound: int | None, what: str) -> int:
    """``value`` as a non-negative int below ``bound`` (if given)."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or value < 0
        or (bound is not None and value >= bound)
    ):
        limit = "a non-negative integer" if bound is None else f"in 0..{bound - 1}"
        raise DomainError(f"DFA {what} {value!r} is not {limit}")
    return value


def letter_of(assignment: Mapping[str, bool], atoms: Sequence[str]) -> int:
    mask = 0
    for i, a in enumerate(atoms):
        if assignment[a]:
            mask |= 1 << i
    return mask


def assignment_of(letter: int, atoms: Sequence[str]) -> dict[str, bool]:
    return {a: bool(letter >> i & 1) for i, a in enumerate(atoms)}


def ltlf_to_dfa(
    f: fm.Formula,
    atoms: Sequence[str] | None = None,
    max_states: int = MAX_DFA_STATES,
) -> Dfa:
    """Complete, minimized DFA accepting exactly the traces satisfying ``f``.

    ``atoms`` fixes the alphabet (it must cover every atom of ``f``); by
    default the formula's own atoms in sorted order.

    States are the canonical state forms of progressions of ``f``, explored
    breadth-first over letters in ascending order.  Formulas are interned
    and one :class:`~ltlseq.formulas.ProgressionMemo` serves the whole
    translation, so each subformula is progressed once per letter of its
    own atoms, and each distinct raw progression is brought to state form
    once: on ``&_i G(a_i -> F b_i)`` over 10 atoms, 32 states times 1024
    letters need 33 state forms.
    """
    f_atoms = f.atoms()
    if atoms is None:
        atoms = sorted(f_atoms)
    atoms = tuple(atoms)
    missing = f_atoms - set(atoms)
    if missing:
        raise DomainError(f"alphabet is missing atoms: {sorted(missing)}")
    if len(atoms) > _MAX_ATOMS:
        raise ResourceLimitError(f"too many atoms ({len(atoms)} > {_MAX_ATOMS})")

    initial = fm.state_form(fm.to_nnf(f))
    letters = [assignment_of(letter, atoms) for letter in range(1 << len(atoms))]
    memo = fm.ProgressionMemo(atoms)
    state_of: dict[fm.Formula, fm.Formula] = {}  # raw progression -> state form

    index: dict[fm.Formula, int] = {initial: 0}
    order: list[fm.Formula] = [initial]
    rows: list[list[int]] = []

    pos = 0
    while pos < len(order):
        state_formula = order[pos]
        row = []
        for assignment in letters:
            raw = fm.progress(state_formula, assignment, memo)
            nxt = state_of.get(raw)
            if nxt is None:
                nxt = state_of[raw] = fm.state_form(raw)
            dst = index.get(nxt)
            if dst is None:
                dst = len(order)
                if dst >= max_states:
                    raise ResourceLimitError(
                        f"state cap {max_states} exceeded while translating {f}"
                    )
                index[nxt] = dst
                order.append(nxt)
            row.append(dst)
        rows.append(row)
        pos += 1

    dfa = Dfa(
        atoms=atoms,
        n_states=len(order),
        accepting=frozenset(i for i, g in enumerate(order) if fm.eval_empty(g)),
        transitions=tuple(tuple(row) for row in rows),
    )
    return minimize(dfa)


def _reachable(d: Dfa) -> list[int]:
    seen = {d.initial}
    bfs = deque([d.initial])
    out = []
    while bfs:
        s = bfs.popleft()
        out.append(s)
        for letter in range(d.n_letters):
            t = d.transitions[s][letter]
            if t not in seen:
                seen.add(t)
                bfs.append(t)
    return out


def minimize(d: Dfa) -> Dfa:
    """Hopcroft minimization plus deterministic BFS renumbering.

    Unreachable states are dropped first.  The result's states are numbered
    by BFS from the initial state, exploring letters in ascending order, so
    minimization is a pure function of the automaton.
    """
    reach = _reachable(d)
    # inverse[letter][t]: the reachable states that step to t on letter
    inverse: list[dict[int, list[int]]] = [{} for _ in range(d.n_letters)]
    for s in reach:
        for letter, t in enumerate(d.transitions[s]):
            inverse[letter].setdefault(t, []).append(s)

    final = {s for s in reach if s in d.accepting}
    blocks: list[set[int]] = [b for b in (final, set(reach) - final) if b]
    block_of = {s: i for i, block in enumerate(blocks) for s in block}
    # Hopcroft's rule: a split block not awaiting use as a splitter queues
    # only its smaller half, and each split costs time proportional to the
    # states moved, which keeps refinement O(m log n) over m transitions
    # (Hopcroft 1971; Valmari & Lehtinen 2008).
    worklist = {min(range(len(blocks)), key=lambda b: len(blocks[b]))}
    while worklist:
        splitter = list(blocks[worklist.pop()])
        for by_target in inverse:
            # only blocks meeting the preimage of the splitter can split
            touched: dict[int, list[int]] = {}
            for t in splitter:
                for s in by_target.get(t, ()):
                    touched.setdefault(block_of[s], []).append(s)
            for b, inside in touched.items():
                block = blocks[b]
                if len(inside) == len(block):
                    continue
                block.difference_update(inside)
                new = len(blocks)
                blocks.append(set(inside))
                for s in inside:
                    block_of[s] = new
                worklist.add(new if b in worklist or len(inside) <= len(block) else b)

    # deterministic renumbering: BFS over blocks, letters ascending
    reps = [min(block) for block in blocks]
    start = block_of[d.initial]
    number = {start: 0}
    bfs = deque([start])
    ordered = [start]
    while bfs:
        b = bfs.popleft()
        for t in d.transitions[reps[b]]:
            succ = block_of[t]
            if succ not in number:
                number[succ] = len(ordered)
                ordered.append(succ)
                bfs.append(succ)

    rows = tuple(
        tuple(number[block_of[t]] for t in d.transitions[reps[b]]) for b in ordered
    )
    accepting = frozenset(i for i, b in enumerate(ordered) if reps[b] in d.accepting)
    return Dfa(
        atoms=d.atoms,
        n_states=len(ordered),
        accepting=accepting,
        transitions=rows,
    )


@dataclass(frozen=True)
class Guard:
    """Propositional condition under which ``source`` steps to ``target``."""

    source: int
    target: int
    letters: tuple[int, ...]
    formula: PropFormula


def _minterm(letter: int, atoms: Sequence[str]) -> PropFormula:
    lits = []
    for i, a in enumerate(atoms):
        v = PVar(a)
        lits.append(v if letter >> i & 1 else pnot(v))
    return pand(lits)


def transition_guard(d: Dfa, source: int, target: int) -> Guard:
    """Guard formula: DNF over the letters driving ``source`` to ``target``."""
    letters = tuple(
        letter for letter in range(d.n_letters) if d.transitions[source][letter] == target
    )
    if len(letters) == d.n_letters:
        formula: PropFormula = PTRUE
    elif not letters:
        formula = PFALSE
    else:
        formula = por(_minterm(letter, d.atoms) for letter in letters)
    return Guard(source=source, target=target, letters=letters, formula=formula)


def guard_table(d: Dfa) -> list[Guard]:
    """All non-empty guards, ordered by (source, target)."""
    out = []
    for s in range(d.n_states):
        targets = sorted(set(d.transitions[s]))
        for t in targets:
            out.append(transition_guard(d, s, t))
    return out
