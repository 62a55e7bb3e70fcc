"""Deterministic finite automata over bitmask letters, built by progression.

A letter is an integer whose bit ``i`` gives the truth value of ``atoms[i]``.
Automata are always complete; state 0 is initial; ``transitions[s, letter]``,
one read-only array of states × 2^k, is the successor.  ``ltlf_to_dfa`` yields
the minimized automaton of a formula with a deterministic BFS numbering, so
equal inputs produce identical automata.

``Dfa.to_json_dict`` is the stored form every ``dfa.json`` and
``metadata.json`` holds: the table as one JSON row of successor states per
state, and a sha256 digest of the document that ``Dfa.from_json_dict``
checks.  The per-entry form written before it still loads.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import formulas as fm
from .errors import DomainError, IntegrityError, ResourceLimitError
from .props import PropFormula, PFALSE, PTRUE, PVar, pand, pnot, por

MAX_DFA_STATES = 10_000


@dataclass(frozen=True)
class Dfa:
    """Complete DFA; ``transitions[s, letter]`` is the successor state, kept as a
    read-only ``np.intp`` array of shape ``(n_states, 2^k)``, else a DomainError."""

    atoms: tuple[str, ...]
    n_states: int
    accepting: frozenset[int]
    transitions: np.ndarray

    initial: int = 0

    def __post_init__(self):
        shape = (self.n_states, self.n_letters)
        try:
            table = np.array(self.transitions, dtype=np.intp)
        except (TypeError, ValueError) as err:  # ragged rows, or not ints
            raise DomainError(f"DFA transitions are not a {shape} table ({err})") from None
        if table.shape != shape:
            raise DomainError(f"DFA transitions have shape {table.shape}, not {shape}")
        table.flags.writeable = False
        object.__setattr__(self, "transitions", table)

    def __eq__(self, other) -> bool:
        fields = ("atoms", "n_states", "initial", "accepting")
        same = isinstance(other, Dfa) and all(getattr(self, f) == getattr(other, f) for f in fields)
        return same and np.array_equal(self.transitions, other.transitions)

    def __hash__(self) -> int:
        return hash(self.digest)

    def __reduce__(self):
        # pickle and deepcopy rebuild through __post_init__, so the copy's table is read-only too
        return Dfa, (self.atoms, self.n_states, self.accepting, self.transitions, self.initial)

    def __repr__(self) -> str:
        table, accepting = self.transitions.tolist(), self.accepting
        return f"Dfa({self.atoms!r}, {self.n_states}, {accepting!r}, {table!r}, {self.initial})"

    @property
    def n_letters(self) -> int:
        return 1 << len(self.atoms)

    def step(self, state: int, letter: int) -> int:
        if not 0 <= state < self.n_states:
            raise DomainError(f"state {state} outside [0, {self.n_states})")
        if not 0 <= letter < self.n_letters:
            raise DomainError(f"letter {letter} out of range for {len(self.atoms)} atoms")
        return int(self.transitions[state, letter])

    def run(self, trace: Sequence[int]) -> list[int]:
        """States after each letter of ``trace`` (same length as the trace)."""
        if len(trace) == 0:
            raise DomainError("trace must be non-empty")
        out = [self.initial]
        for letter in trace:
            out.append(self.step(out[-1], letter))
        return out[1:]

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
            "transitions": self.transitions.tolist(),
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


def _row_transitions(rows: list, n: int, n_letters: int) -> list:
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
    return rows


def _checked_transitions(entries: list, n: int, n_letters: int) -> list[list[int]]:
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
    return [[table[s, letter] for letter in range(n_letters)] for s in range(n)]


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
    ``formulas._MAX_ATOMS`` atoms (checked by the memo), or when exploration
    reaches more than
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
    memo = fm.ProgressionMemo(atoms)  # checks the atoms: not repeated, not too many
    initial = fm.state_form(fm.to_nnf(f))
    state_of: dict[fm.Formula, fm.Formula] = {}  # raw progression -> state form

    index: dict[fm.Formula, int] = {initial: 0}
    order: list[fm.Formula] = [initial]
    rows: list[np.ndarray] = []

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
        rows.append(np.array(targets)[ids])
        pos += 1

    return Dfa(
        atoms=atoms,
        n_states=len(order),
        accepting=frozenset(i for i, g in enumerate(order) if fm.eval_empty(g)),
        transitions=np.stack(rows),
    )


def _letter_classes(table: np.ndarray) -> np.ndarray:
    """The first letter of each class of letters with equal columns of
    ``table``, ascending: one ``np.unique`` over the columns as byte strings."""
    keys = np.ascontiguousarray(table.T).view(np.dtype((np.void, table.itemsize * len(table))))
    return np.sort(np.unique(keys.ravel(), return_index=True)[1])


def minimize(d: Dfa) -> Dfa:
    """Hopcroft minimization plus deterministic BFS renumbering.

    Both run over one letter per class of letters with equal columns
    (``_letter_classes``).  Refinement runs over every state; the renumbering
    BFS from the initial state reaches only reachable blocks, so unreachable
    states are dropped there.  The result's states are numbered in that BFS
    order, exploring classes in order of their first letter, which numbers
    them as letters in ascending order would, so minimization is a pure
    function of the automaton.
    """
    columns = d.transitions[:, _letter_classes(d.transitions)].T.tolist()  # [class][state]
    # inverse[c][t]: the states that step to t on letter class c
    inverse: list[dict[int, list[int]]] = [{} for _ in columns]
    for by_target, column in zip(inverse, columns):
        for s, t in enumerate(column):
            by_target.setdefault(t, []).append(s)

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

    # deterministic renumbering: BFS over blocks, letter classes ascending
    first = [min(block) for block in blocks]
    ordered = [block_of[d.initial]]
    number = {ordered[0]: 0}
    for b in ordered:  # grows while iterated: BFS
        for column in columns:
            succ = block_of[column[first[b]]]
            if succ not in number:
                number[succ] = len(ordered)
                ordered.append(succ)

    sources = [first[b] for b in ordered]
    # state -> number of its block; an unreachable block's 0 is never read
    renumber = np.array([number.get(block_of[s], 0) for s in range(d.n_states)])
    return Dfa(
        atoms=d.atoms,
        n_states=len(ordered),
        accepting=frozenset(i for i, s in enumerate(sources) if s in d.accepting),
        transitions=renumber[d.transitions[sources]],
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
    letters = tuple(np.flatnonzero(d.transitions[source] == target).tolist())
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
        for t in np.unique(d.transitions[s]).tolist():
            out.append(transition_guard(d, s, t))
    return out
