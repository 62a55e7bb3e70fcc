"""LTLf formulas over named atoms: AST, parser, printer, NNF, progression.

Formulas are hash-consed: every constructor goes through one weak-valued
unique table, so structurally equal formulas are the same object, ``==`` is
identity and each node's hash is computed once.  A node also caches its atom
set and its printed form, which doubles as the sort key of canonical child
order.  The parser and printer round-trip exactly (``parse(str(f)) is f``).
``conj`` and ``disj`` flatten and sort associative connectives, and
``state_form`` rewrites each progression state as its irredundant DNF over
maximal temporal subterms, so logically identical states collapse to a
single representative, which keeps the automaton construction finite.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DomainError,
    LtlfSyntaxError,
    ResourceLimitError,
    UnknownTokenError,
)

_ATOM_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

# The unique table: (class, *fields) -> the one live node with those fields.
# Values are weak, so a formula nobody references leaves the table.
_TABLE: weakref.WeakValueDictionary[tuple, Formula] = weakref.WeakValueDictionary()
_TABLE_LOCK = threading.Lock()


def _intern(cls, fields: tuple) -> Formula:
    key = (cls, *fields)
    node = _TABLE.get(key)
    if node is None:
        with _TABLE_LOCK:
            node = _TABLE.get(key)
            if node is None:
                node = object.__new__(cls)
                init = object.__setattr__
                for name, value in zip(cls._fields, fields):
                    init(node, name, value)
                init(node, "_hash", hash((cls.__name__, *fields)))
                init(node, "_text", None)
                init(node, "_atoms", None)
                _TABLE[key] = node
    return node


class Formula:
    """Base class of the interned, immutable formula nodes."""

    __slots__ = ("_hash", "_text", "_atoms", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __str__(self) -> str:
        return print_formula(self)

    def atoms(self) -> frozenset[str]:
        atoms = self._atoms
        if atoms is None:
            atoms = frozenset().union(
                *(getattr(self, name).atoms() for name in self._fields)
            )
            object.__setattr__(self, "_atoms", atoms)
        return atoms


class _Constant(Formula):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, ())


class TrueF(_Constant):
    __slots__ = ()


class FalseF(_Constant):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)
    _fields = ("name",)
    __match_args__ = _fields

    def __new__(cls, name: str):
        if not _ATOM_RE.match(name) or name in _KEYWORDS:
            raise ValueError(f"invalid atom name: {name!r}")
        return _intern(cls, (name,))

    def atoms(self) -> frozenset[str]:
        atoms = self._atoms
        if atoms is None:
            atoms = frozenset((self.name,))
            object.__setattr__(self, "_atoms", atoms)
        return atoms


class _Unary(Formula):
    __slots__ = ("child",)
    _fields = ("child",)
    __match_args__ = _fields

    def __new__(cls, child: Formula):
        return _intern(cls, (child,))


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")
    __match_args__ = _fields

    def __new__(cls, left: Formula, right: Formula):
        return _intern(cls, (left, right))


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class WeakNext(_Unary):
    __slots__ = ()


class Finally(_Unary):
    __slots__ = ()


class Globally(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Release(_Binary):
    __slots__ = ()


TRUE = TrueF()
FALSE = FalseF()

# Obligations produced when a (weak) next operator is progressed.  "F true"
# holds exactly on non-empty remainders and "G false" exactly on the empty
# one, so conjoining/disjoining them preserves the strong/weak distinction
# at the end of the trace.  Both vanish after one further step.
NONEMPTY = Finally(TRUE)
ENDED = Globally(FALSE)


# --------------------------------------------------------------------------
# Printing.  Binding, tightest first: unary; U/R (right); & (left); | (left);
# -> (right); <-> (right).

_LEVEL_IFF = 1
_LEVEL_IMPLIES = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_UR = 5
_LEVEL_UNARY = 6
_LEVEL_ATOM = 7

_BINARY = {
    Iff: ("<->", _LEVEL_IFF, "right"),
    Implies: ("->", _LEVEL_IMPLIES, "right"),
    Or: ("|", _LEVEL_OR, "left"),
    And: ("&", _LEVEL_AND, "left"),
    Until: ("U", _LEVEL_UR, "right"),
    Release: ("R", _LEVEL_UR, "right"),
}
_UNARY = {Not: "!", Next: "X", WeakNext: "WX", Finally: "F", Globally: "G"}


def _level(f: Formula) -> int:
    t = type(f)
    if t in _BINARY:
        return _BINARY[t][1]
    if t in _UNARY:
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def print_formula(f: Formula) -> str:
    """Render ``f`` in the concrete syntax accepted by :func:`parse`."""
    text = f._text
    if text is None:
        text = _render(f)
        object.__setattr__(f, "_text", text)
    return text


def _render(f: Formula) -> str:
    t = type(f)
    if t is TrueF:
        return "true"
    if t is FalseF:
        return "false"
    if t is Atom:
        return f.name
    if t in _UNARY:
        sym = _UNARY[t]
        inner = print_formula(f.child)
        if _level(f.child) < _LEVEL_UNARY:
            inner = "(" + inner + ")"
        return sym + inner if sym == "!" else sym + " " + inner
    sym, level, assoc = _BINARY[t]
    left, right = print_formula(f.left), print_formula(f.right)
    # Parenthesize the child on the non-associating side so the tree
    # structure survives a re-parse.
    if _level(f.left) < level or (_level(f.left) == level and assoc == "right"):
        left = "(" + left + ")"
    if _level(f.right) < level or (_level(f.right) == level and assoc == "left"):
        right = "(" + right + ")"
    return f"{left} {sym} {right}"


# --------------------------------------------------------------------------
# Parsing.

_KEYWORDS = {"true", "false", "X", "WX", "F", "G", "U", "R"}
_ALIASES = {"◯": "X", "○": "X", "◇": "F", "□": "G"}

_TOKEN_RE = re.compile(
    r"\s+|(?P<op><->|->|&|\||!|\(|\))|(?P<word>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"|(?P<alias>[◯○◇□])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise UnknownTokenError(
                f"unknown token {text[pos]!r}", line, pos - line_start + 1
            )
        chunk = m.group(0)
        col = pos - line_start + 1
        if m.lastgroup == "op":
            tokens.append(_Token(chunk, chunk, line, col))
        elif m.lastgroup == "word":
            if chunk in _KEYWORDS:
                tokens.append(_Token(chunk, chunk, line, col))
            else:
                tokens.append(_Token("atom", chunk, line, col))
        elif m.lastgroup == "alias":
            tokens.append(_Token(_ALIASES[chunk], chunk, line, col))
        else:  # whitespace; track newlines for error positions
            for i, ch in enumerate(chunk):
                if ch == "\n":
                    line += 1
                    line_start = pos + i + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def fail(self, expected: Iterable[str]):
        t = self.tok
        what = "end of input" if t.kind == "eof" else repr(t.text)
        raise LtlfSyntaxError(f"unexpected {what}", t.line, t.column, expected)

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        if self.tok.kind == "<->":
            self.advance()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.tok.kind == "->":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.tok.kind == "|":
            self.advance()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_until()
        while self.tok.kind == "&":
            self.advance()
            f = And(f, self.parse_until())
        return f

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        if self.tok.kind in ("U", "R"):
            op = self.advance().kind
            right = self.parse_until()
            return Until(left, right) if op == "U" else Release(left, right)
        return left

    def parse_unary(self) -> Formula:
        kind = self.tok.kind
        if kind == "!":
            self.advance()
            return Not(self.parse_unary())
        if kind in ("X", "WX", "F", "G"):
            self.advance()
            ctor = {"X": Next, "WX": WeakNext, "F": Finally, "G": Globally}[kind]
            return ctor(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        kind = self.tok.kind
        if kind == "atom":
            return Atom(self.advance().text)
        if kind == "true":
            self.advance()
            return TRUE
        if kind == "false":
            self.advance()
            return FALSE
        if kind == "(":
            self.advance()
            f = self.parse_iff()
            if self.tok.kind != ")":
                self.fail({")"})
            self.advance()
            return f
        self.fail({"atom", "true", "false", "!", "X", "WX", "F", "G", "("})


def parse(text: str) -> Formula:
    """Parse formula text; raises :class:`LtlfSyntaxError` with position."""
    parser = _Parser(_tokenize(text))
    f = parser.parse_iff()
    if parser.tok.kind != "eof":
        parser.fail({"end of input"})
    return f


# --------------------------------------------------------------------------
# Canonical form: n-ary flattening of &/| with sorted, deduplicated children
# plus unit, complement, and absorption rules.  Temporal operators are never
# rewritten (in particular "F true" is NOT folded to "true": the two differ
# on the empty remainder of a trace).  Children sort by their printed form,
# which every node caches.


def _flatten(f: Formula, cls) -> list[Formula]:
    """Maximal non-``cls`` operands of a ``cls`` tree, left to right."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is cls:
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out


def _build_chain(children: list[Formula], ctor) -> Formula:
    out = children[-1]
    for c in reversed(children[:-1]):
        out = ctor(c, out)
    return out


def _canon_nary(items: Iterable[Formula], cls, unit, absorber, dual_cls) -> Formula:
    seen: list[Formula] = []
    present: set[Formula] = set()
    for f in items:
        for c in _flatten(f, cls):
            if c is absorber:
                return absorber
            if c is unit or c in present:
                continue
            present.add(c)
            seen.append(c)
    for c in seen:
        if type(c) is Not and c.child in present:
            return absorber
    # absorption: inside an And, an Or-child with a sibling disjunct is
    # redundant (x & (x | y) == x); dually for Or.
    drop = set()
    for c in seen:
        if isinstance(c, dual_cls):
            if any(d in present for d in _flatten(c, dual_cls)):
                drop.add(c)
    seen = [c for c in seen if c not in drop]
    if not seen:
        return unit
    if len(seen) == 1:
        return seen[0]
    seen.sort(key=print_formula)
    return _build_chain(seen, cls)


def conj(items: Iterable[Formula]) -> Formula:
    """Canonical conjunction of ``items``."""
    return _canon_nary(items, And, TRUE, FALSE, Or)


def disj(items: Iterable[Formula]) -> Formula:
    """Canonical disjunction of ``items``."""
    return _canon_nary(items, Or, FALSE, TRUE, And)


# --------------------------------------------------------------------------
# Canonical state form: unique irredundant DNF over maximal temporal
# subterms.  In NNF the Boolean skeleton is monotone in those subterms
# (negation sits only on propositional atoms, inside them), so the antichain
# of minimal models determines the skeleton exactly.  Progression rebuilt
# from it cannot grow unboundedly: every reachable state is one antichain
# over the closure of the original formula.

_MAX_STATE_MODELS = 4096


def _antichain(models: Iterable[frozenset[Formula]]) -> list[frozenset[Formula]]:
    models = set(models)
    if len(models) > _MAX_STATE_MODELS:
        raise ResourceLimitError(
            f"a state form has {len(models)} candidate models, over the cap of "
            f"{_MAX_STATE_MODELS} models of one state form (_MAX_STATE_MODELS)"
        )
    return [m for m in models if not any(other < m for other in models)]


def _minimal_models(f: Formula) -> list[frozenset[Formula]]:
    t = type(f)
    if t is TrueF:
        return [frozenset()]
    if t is FalseF:
        return []
    if t is And:
        left = _minimal_models(f.left)
        right = _minimal_models(f.right)
        return _antichain(a | b for a in left for b in right)
    if t is Or:
        return _antichain(_minimal_models(f.left) + _minimal_models(f.right))
    return [frozenset([f])]


def state_form(f: Formula) -> Formula:
    """Canonical NNF equivalent of ``f``: disjunction of minimal models."""
    models = _minimal_models(f)
    return disj(conj(sorted(m, key=print_formula)) for m in models)


# --------------------------------------------------------------------------
# Negation normal form.


def to_nnf(f: Formula) -> Formula:
    """Eliminate ->/<-> and push negation onto atoms, canonically."""
    return _nnf(f, False)


def _nnf(f: Formula, neg: bool) -> Formula:
    t = type(f)
    if t is TrueF:
        return FALSE if neg else TRUE
    if t is FalseF:
        return TRUE if neg else FALSE
    if t is Atom:
        return Not(f) if neg else f
    if t is Not:
        return _nnf(f.child, not neg)
    if t is And:
        parts = [_nnf(f.left, neg), _nnf(f.right, neg)]
        return disj(parts) if neg else conj(parts)
    if t is Or:
        parts = [_nnf(f.left, neg), _nnf(f.right, neg)]
        return conj(parts) if neg else disj(parts)
    if t is Implies:
        return _nnf(Or(Not(f.left), f.right), neg)
    if t is Iff:
        expanded = Or(And(f.left, f.right), And(Not(f.left), Not(f.right)))
        return _nnf(expanded, neg)
    if t is Next:
        return WeakNext(_nnf(f.child, True)) if neg else Next(_nnf(f.child, False))
    if t is WeakNext:
        return Next(_nnf(f.child, True)) if neg else WeakNext(_nnf(f.child, False))
    if t is Finally:
        return Globally(_nnf(f.child, True)) if neg else Finally(_nnf(f.child, False))
    if t is Globally:
        return Finally(_nnf(f.child, True)) if neg else Globally(_nnf(f.child, False))
    if t is Until:
        l, r = _nnf(f.left, neg), _nnf(f.right, neg)
        return Release(l, r) if neg else Until(l, r)
    if t is Release:
        l, r = _nnf(f.left, neg), _nnf(f.right, neg)
        return Until(l, r) if neg else Release(l, r)
    raise TypeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# Progression: the obligation a strictly shorter remainder must satisfy
# after one letter has been consumed, and truth on the empty remainder.


def progress(f: Formula, letter: Mapping[str, bool]) -> Formula:
    """Progress NNF formula ``f`` through one letter.

    ``letter`` must assign every atom that progression reads: a next
    operator defers its operand unread, and ``U``/``R`` read their right
    operand before their left.  Strong next keeps its obligation conjoined
    with ``F true`` (the remainder must be non-empty); weak next disjoins
    ``G false`` (trivially satisfied if the trace ends).  This is the plain
    recursion that :meth:`ProgressionMemo.table` computes for every letter
    at once, raising the same errors in the same order.
    """
    t = type(f)
    if t is Atom or (t is Not and type(f.child) is Atom):
        name = f.name if t is Atom else f.child.name
        try:
            value = letter[name]
        except KeyError:
            raise DomainError(f"letter does not assign atom {name!r}") from None
        return TRUE if bool(value) == (t is Atom) else FALSE
    if t in (TrueF, FalseF):
        return f
    if t is Next:
        return conj([f.child, NONEMPTY])
    if t is WeakNext:
        return disj([f.child, ENDED])
    if t in (Globally, Finally):
        combine = conj if t is Globally else disj
        return combine([progress(f.child, letter), f])
    if t in (And, Or):
        combine = conj if t is And else disj
        return combine([progress(f.left, letter), progress(f.right, letter)])
    if t in (Until, Release):
        now, later = (disj, conj) if t is Until else (conj, disj)
        return now([progress(f.right, letter), later([progress(f.left, letter), f])])
    raise ValueError(f"progress requires NNF, got {f}")


class ProgressionMemo:
    """Whole-alphabet progression tables shared within one translation.

    A table holds a subformula's progression on every letter of the
    alphabet at once, and is built from its children's tables, so the
    parts that states share are tabulated once.  The canonical
    conjunctions and disjunctions of progressed parts are kept as well.
    Nothing is ever evicted, so a memo should live for one translation.
    """

    def __init__(self, atoms: Iterable[str]):
        atoms = list(atoms)
        if len(set(atoms)) != len(atoms):
            raise DomainError(f"atoms repeat: {atoms}")
        self._bit = {a: 1 << i for i, a in enumerate(atoms)}
        self._joins: dict[tuple, Formula] = {}
        self._letters = np.arange(1 << len(self._bit), dtype=np.intp)
        self._one = np.zeros_like(self._letters)  # ids of a one-output table
        self._tables: dict[Formula, tuple[list[Formula], np.ndarray]] = {}

    def table(self, f: Formula) -> tuple[list[Formula], np.ndarray]:
        """``f`` progressed through every letter of the alphabet.

        Returns ``(outs, ids)``: ``outs`` lists the distinct progressions in
        the order of the first letter giving each, and ``ids[letter]`` is
        the position in ``outs`` of ``progress(f, letter)``, the very same
        object.  The caller must not change either.
        """
        out = self._tables.get(f)
        if out is None:
            out = self._tables[f] = self._tabulate(f)
        return out

    def _tabulate(self, f: Formula) -> tuple[list[Formula], np.ndarray]:
        t = type(f)
        if t is Atom or (t is Not and type(f.child) is Atom):
            name = f.name if t is Atom else f.child.name
            try:
                bit = self._bit[name]
            except KeyError:
                raise DomainError(f"letter does not assign atom {name!r}") from None
            outs = [FALSE, TRUE] if t is Atom else [TRUE, FALSE]
            return outs, (self._letters & bit != 0).astype(np.intp)
        if t in (TrueF, FalseF):
            return [f], self._one
        if t is Next:
            return [self._join(conj, f.child, NONEMPTY)], self._one
        if t is WeakNext:
            return [self._join(disj, f.child, ENDED)], self._one
        if t in (Globally, Finally):
            combine = conj if t is Globally else disj
            outs, ids = self.table(f.child)
            return _distinct([self._join(combine, x, f) for x in outs], ids)
        if t in (And, Or):
            combine = conj if t is And else disj
            return self._pairs(
                self.table(f.left), self.table(f.right), lambda x, y: self._join(combine, x, y)
            )
        if t in (Until, Release):
            now, later = (disj, conj) if t is Until else (conj, disj)
            return self._pairs(
                self.table(f.right),
                self.table(f.left),
                lambda x, y: self._join(now, x, self._join(later, y, f)),
            )
        raise ValueError(f"progress requires NNF, got {f}")

    def _pairs(self, a, b, combine) -> tuple[list[Formula], np.ndarray]:
        """Table of ``combine(x, y)``, ``x`` and ``y`` being tables ``a``
        and ``b`` on the same letter: each distinct pair of outputs is
        combined once."""
        (a_outs, a_ids), (b_outs, b_ids) = a, b
        codes = a_ids * len(b_outs) + b_ids
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the pairs by their first letter
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        outs = [combine(a_outs[a_ids[i]], b_outs[b_ids[i]]) for i in first[order].tolist()]
        return _distinct(outs, rank[inverse])

    def _join(self, combine, a: Formula, b: Formula) -> Formula:
        key = (combine, a, b)
        out = self._joins.get(key)
        if out is None:
            out = self._joins[key] = combine([a, b])
        return out


def _distinct(outs: list[Formula], ids: np.ndarray) -> tuple[list[Formula], np.ndarray]:
    """Table ``(outs, ids)`` with repeated outputs merged.  ``outs`` is in
    first-letter order, so the merged list is too."""
    position: dict[Formula, int] = {}
    merged = [position.setdefault(g, len(position)) for g in outs]
    if len(position) == len(outs):
        return outs, ids
    return list(position), np.asarray(merged, dtype=np.intp)[ids]


def eval_empty(f: Formula) -> bool:
    """Truth of NNF formula ``f`` on the empty continuation of a trace."""
    t = type(f)
    if t is TrueF:
        return True
    if t in (FalseF, Atom, Next, Finally, Until):
        return False
    if t is Not:
        if not isinstance(f.child, Atom):
            raise ValueError(f"eval_empty requires NNF, got {f}")
        return False
    if t in (WeakNext, Globally, Release):
        return True
    if t is And:
        return eval_empty(f.left) and eval_empty(f.right)
    if t is Or:
        return eval_empty(f.left) or eval_empty(f.right)
    raise ValueError(f"eval_empty requires NNF, got {f}")
