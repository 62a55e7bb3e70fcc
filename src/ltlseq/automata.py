"""Deterministic finite automata over bitmask letters, built by progression.

A letter is an integer whose bit ``i`` gives the truth value of ``atoms[i]``.
Automata are always complete; state 0 is initial.  ``ltlf_to_dfa`` yields the
minimized automaton of a formula with a deterministic BFS numbering, so equal
inputs produce identical automata.

``Dfa.to_json_dict`` is the stored form every ``dfa.json``, cache file and
``metadata.json`` holds: the table as one JSON row of successor states per
state, and a sha256 digest of the document that ``Dfa.from_json_dict``
checks.  The per-entry form written before it still loads.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import formulas as fm
from .errors import DomainError, IntegrityError, ResourceLimitError
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
        if not 0 <= state < self.n_states:
            raise DomainError(f"state {state} outside [0, {self.n_states})")
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
        """The stored form: ``transitions`` holds one row per state, row ``s``
        listing ``δ(s, letter)`` for letters ``0 … 2^k − 1``, and ``sha256``
        is the digest of the rest of the document (``digest``).  Every call
        builds fresh lists, so a caller may change what it gets."""
        return self._json_body() | {"sha256": self.digest}

    @functools.cached_property
    def digest(self) -> str:
        """``_sha256`` of the stored form without its digest; computed on
        first read, then kept (the automaton is frozen)."""
        return _sha256(self._json_body())

    def _json_body(self) -> dict:
        return {
            "atoms": list(self.atoms),
            "states": self.n_states,
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "transitions": list(map(list, self.transitions)),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Dfa":
        """Inverse of :meth:`to_json_dict`; any malformed field is a DomainError.

        The table is either the row form (a list of ``states`` rows of
        ``2^k`` ints in range) or the per-entry form written before it (a
        list of ``{"from", "letter", "to"}`` objects, one per pair); a list
        that is empty or holds an object is read as the per-entry form.  The
        row form must carry ``sha256``: once shape, types and bounds hold, it
        is checked against the digest of the parsed automaton, and a
        mismatch is an IntegrityError.  A per-entry document needs none, but
        one it carries is checked the same way.
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
        table = data["transitions"]
        accepting = data["accepting"]
        if not isinstance(table, list) or not isinstance(accepting, list):
            raise DomainError("DFA transitions and accepting states must be lists")
        per_entry = not table or any(isinstance(t, dict) for t in table)
        dfa = cls(
            atoms=tuple(atoms),
            n_states=n,
            accepting=frozenset(_json_index(s, n, "accepting") for s in accepting),
            transitions=(
                _checked_transitions(table, n, n_letters)
                if per_entry
                else _row_transitions(table, n, n_letters)
            ),
            initial=_json_index(data.get("initial", 0), n, "initial"),
        )
        if "sha256" not in data:
            if per_entry:
                return dfa
            raise DomainError("DFA JSON is missing ['sha256']")
        digest = data["sha256"]
        if not isinstance(digest, str):
            raise DomainError(f"DFA sha256 {digest!r} is not a hex digest string")
        actual = dfa.digest
        if digest != actual:
            raise IntegrityError(f"DFA sha256 {digest!r} does not match its automaton ({actual})")
        return dfa


def _sha256(doc: dict) -> str:
    """sha256 of the compact, sorted-key JSON of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _row_transitions(rows: list, n: int, n_letters: int) -> tuple[tuple[int, ...], ...]:
    """The table of the row form: ``n`` lists of ``n_letters`` ints (not
    bools) in ``0..n-1``; ``rows`` is not empty.  The cells are checked as
    one flat list; only if that fails are they walked to name the first bad
    one."""
    if len(rows) != n:
        raise DomainError(f"DFA transitions has {len(rows)} rows, not {n}")
    for s, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_letters:
            raise DomainError(f"DFA transitions[{s}] is not a list of {n_letters} states")
    cells = list(itertools.chain.from_iterable(rows))
    if not (set(map(type, cells)) == {int} and min(cells) >= 0 and max(cells) < n):
        for s, row in enumerate(rows):
            for letter, t in enumerate(row):
                _json_index(t, n, f"transitions[{s}][{letter}]")
    return tuple(map(tuple, rows))


def _checked_transitions(entries: list, n: int, n_letters: int) -> tuple[tuple[int, ...], ...]:
    """The table of the per-entry form, checked entry by entry; a
    DomainError names the first bad entry."""
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
        try:
            truth = assignment[a]
        except KeyError:
            raise DomainError(f"assignment does not assign atom {a!r}") from None
        if truth:
            mask |= 1 << i
    return mask


def assignment_of(letter: int, atoms: Sequence[str]) -> dict[str, bool]:
    return {a: bool(letter >> i & 1) for i, a in enumerate(atoms)}


def ltlf_to_dfa(
    f: fm.Formula,
    atoms: Sequence[str] | None = None,
    max_states: int | None = None,
) -> Dfa:
    """Complete, minimized DFA accepting exactly the traces satisfying ``f``.

    ``atoms`` fixes the alphabet (it must cover every atom of ``f``, and no
    atom may repeat); by default the formula's own atoms in sorted order.

    States are the canonical state forms of progressions of ``f``, explored
    breadth-first; within a state, new states are numbered in the order of
    the first letter reaching them.  Formulas are interned and one
    :class:`~ltlseq.formulas.ProgressionMemo` serves the whole translation:
    each state is progressed through all 2^k letters by one table lookup,
    whose tables are built per subformula over the whole alphabet and shared
    between states, and each distinct raw progression is brought to state
    form once.  On ``&_i G(a_i -> F b_i)`` over 10 atoms, the 32 states
    take 60 tables of 1024 letters, none with more than 32 distinct
    progressions, and 33 state forms.

    Raises DomainError for repeated atoms or a ``max_states`` that is not an
    int of at least 1, and ResourceLimitError naming the cap past
    ``_MAX_ATOMS`` atoms, or when exploration reaches more than
    ``max_states`` states before minimization (by default
    ``MAX_DFA_STATES``).
    """
    f_atoms = f.atoms()
    if atoms is None:
        atoms = sorted(f_atoms)
    atoms = tuple(atoms)
    missing = f_atoms - set(atoms)
    if missing:
        raise DomainError(f"alphabet is missing atoms: {sorted(missing)}")
    if len(atoms) > _MAX_ATOMS:
        raise ResourceLimitError(
            f"the alphabet has {len(atoms)} atoms, over the cap of {_MAX_ATOMS} atoms (_MAX_ATOMS)"
        )
    if max_states is None:
        cap, cap_name = MAX_DFA_STATES, "MAX_DFA_STATES"
    elif not isinstance(max_states, int) or isinstance(max_states, bool) or max_states < 1:
        raise DomainError(f"max_states {max_states!r} is not an integer of at least 1")
    else:
        cap, cap_name = max_states, "max_states"
    return minimize(_explore(f, atoms, cap, cap_name))


def _explore(f: fm.Formula, atoms: tuple[str, ...], cap: int, cap_name: str) -> Dfa:
    """The automaton of ``f``'s reachable state forms, before minimization;
    raises ResourceLimitError, naming ``cap_name``, on reaching state
    ``cap + 1``."""
    memo = fm.ProgressionMemo(atoms)  # raises DomainError if atoms repeat
    initial = fm.state_form(fm.to_nnf(f))
    state_of: dict[fm.Formula, fm.Formula] = {}  # raw progression -> state form

    index: dict[fm.Formula, int] = {initial: 0}
    order: list[fm.Formula] = [initial]
    rows: list[tuple[int, ...]] = []

    pos = 0
    while pos < len(order):
        outs, ids = memo.table(order[pos])
        targets = []
        for raw in outs:  # in the order of the first letter giving each
            nxt = state_of.get(raw)
            if nxt is None:
                nxt = state_of[raw] = fm.state_form(raw)
            dst = index.get(nxt)
            if dst is None:
                dst = len(order)
                if dst >= cap:
                    raise ResourceLimitError(
                        f"translating {f} reached {dst + 1} states, over the cap of {cap} "
                        f"states before minimization ({cap_name})"
                    )
                index[nxt] = dst
                order.append(nxt)
            targets.append(dst)
        rows.append(tuple(np.array(targets)[ids].tolist()))
        pos += 1

    return Dfa(
        atoms=atoms,
        n_states=len(order),
        accepting=frozenset(i for i, g in enumerate(order) if fm.eval_empty(g)),
        transitions=tuple(rows),
    )


def minimize(d: Dfa) -> Dfa:
    """Hopcroft minimization plus deterministic BFS renumbering.

    Refinement runs over every state; the renumbering BFS from the initial
    state reaches only reachable blocks, so unreachable states are dropped
    there.  The result's states are numbered in that BFS order, exploring
    letters in ascending order, so minimization is a pure function of the
    automaton.
    """
    # inverse[letter][t]: the states that step to t on letter
    inverse: list[dict[int, list[int]]] = [{} for _ in range(d.n_letters)]
    for s, row in enumerate(d.transitions):
        for letter, t in enumerate(row):
            inverse[letter].setdefault(t, []).append(s)

    final = set(d.accepting)
    blocks: list[set[int]] = [b for b in (final, set(range(d.n_states)) - final) if b]
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
