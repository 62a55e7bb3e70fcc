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
            f"state form exceeded {_MAX_STATE_MODELS} minimal models"
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


def progress(
    f: Formula, letter: Mapping[str, bool], memo: ProgressionMemo | None = None
) -> Formula:
    """Progress NNF formula ``f`` through one letter.

    ``letter`` must assign every atom of ``f``.  Strong next keeps its
    obligation conjoined with ``F true`` (the remainder must be non-empty);
    weak next disjoins ``G false`` (trivially satisfied if the trace ends).
    A ``memo`` shares work between calls over its alphabet, which ``letter``
    must then assign in full; the result is the same with or without it.
    """
    if memo is None:
        memo = ProgressionMemo(letter)
    return memo._step(f, memo._encode(letter))


class ProgressionMemo:
    """Progression results shared between :func:`progress` calls.

    A subformula's progression depends only on the atoms it reads, so each
    result is kept under the subformula and the letter projected onto those
    atoms: over all 2^k letters, ``G(a -> F b)`` is progressed for four
    projected letters.  The canonical conjunctions and disjunctions of
    progressed parts are kept as well.  Nothing is ever evicted, so a memo
    should live for one translation.
    """

    def __init__(self, atoms: Iterable[str]):
        self._bit = {a: 1 << i for i, a in enumerate(atoms)}
        self._masks: dict[Formula, int] = {}
        self._memo: dict[tuple[Formula, int], Formula] = {}
        self._joins: dict[tuple, Formula] = {}

    def _encode(self, letter: Mapping[str, bool]) -> int:
        try:
            return sum(bit for a, bit in self._bit.items() if letter[a])
        except KeyError as err:
            raise DomainError(f"letter does not assign atom {err.args[0]!r}") from None

    def _step(self, f: Formula, letter: int) -> Formula:
        key = (f, letter & self._mask(f))
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self._progress(f, letter)
        return out

    def _mask(self, f: Formula) -> int:
        mask = self._masks.get(f)
        if mask is None:
            mask = self._masks[f] = self._reads(f)
        return mask

    def _reads(self, f: Formula) -> int:
        """Bits of the atoms that progressing ``f`` reads.

        Visits subformulas in the order :meth:`_progress` does, so the first
        missing atom or non-NNF node raises here, before any progression.
        """
        t = type(f)
        if t is Atom or (t is Not and type(f.child) is Atom):
            name = f.name if t is Atom else f.child.name
            try:
                return self._bit[name]
            except KeyError:
                raise DomainError(f"letter does not assign atom {name!r}") from None
        if t in (TrueF, FalseF, Next, WeakNext):
            return 0
        if t in (And, Or):
            return self._mask(f.left) | self._mask(f.right)
        if t in (Globally, Finally):
            return self._mask(f.child)
        if t in (Until, Release):
            return self._mask(f.right) | self._mask(f.left)
        raise ValueError(f"progress requires NNF, got {f}")

    def _join(self, combine, a: Formula, b: Formula) -> Formula:
        key = (combine, a, b)
        out = self._joins.get(key)
        if out is None:
            out = self._joins[key] = combine([a, b])
        return out

    def _progress(self, f: Formula, letter: int) -> Formula:
        t = type(f)
        if t is Atom:
            return TRUE if letter & self._bit[f.name] else FALSE
        if t is Not:
            return FALSE if letter & self._bit[f.child.name] else TRUE
        if t is And:
            return self._join(conj, self._step(f.left, letter), self._step(f.right, letter))
        if t is Or:
            return self._join(disj, self._step(f.left, letter), self._step(f.right, letter))
        if t is Next:
            return self._join(conj, f.child, NONEMPTY)
        if t is WeakNext:
            return self._join(disj, f.child, ENDED)
        if t is Globally:
            return self._join(conj, self._step(f.child, letter), f)
        if t is Finally:
            return self._join(disj, self._step(f.child, letter), f)
        if t is Until:
            now = self._step(f.right, letter)
            return self._join(disj, now, self._join(conj, self._step(f.left, letter), f))
        if t is Release:
            now = self._step(f.right, letter)
            return self._join(conj, now, self._join(disj, self._step(f.left, letter), f))
        return f  # TRUE or FALSE


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
