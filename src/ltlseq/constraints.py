"""Finite symbolic domains and the relational constraints that ground atoms.

Constraints compare integer linear expressions (``X + Y = 2*Z``) or apply
``all_different`` / ``all_equal`` over declared variables.  Domains are small
(tens of values), so grounding needs no CSP solver: each constraint body is
evaluated once over the whole numpy index grid of its variables' domain
values (``np.ix_`` axes, whose C order is ``itertools.product`` order), and
indicator tensors and the solution buckets are read off the resulting truth
arrays.  ``solution_buckets`` maps each realizable truth code, bit i the truth
of the i-th constraint, to its ``SolutionBucket``; over constraints sorted by
name these codes are the automaton's letters.

A full assignment is stored as one int, its grid point: the C-order flat
index over the variables' domain sizes, axis i a position in variable i's
domain.  A bucket holds the points of its code; ``grid_positions`` and
``grid_points`` are the one encoding between points and domain positions, and
``grid_assignments`` reads ``{name: value}`` dicts off points.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError, UnsatisfiableLetterError


@dataclass(frozen=True)
class SymbolicDomain:
    """Finite ordered domain mapping class labels to integer values.

    Labels are kept in lexicographic order and values must ascend with them,
    so that casting an enumeration to integers is order-preserving.
    """

    name: str
    labels: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise DomainError(f"domain {self.name!r} is empty")
        if len(self.labels) != len(self.values):
            raise DomainError(f"domain {self.name!r}: labels/values length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError(f"domain {self.name!r}: duplicate labels")
        if len(set(self.values)) != len(self.values):
            raise DomainError(f"domain {self.name!r}: duplicate values")
        if list(self.labels) != sorted(self.labels):
            raise DomainError(f"domain {self.name!r}: labels not in lexicographic order")
        if list(self.values) != sorted(self.values):
            raise DomainError(f"domain {self.name!r}: values must ascend with label order")

    @classmethod
    def from_labels(cls, name: str, labels: Iterable[str]) -> "SymbolicDomain":
        """Enumeration domain: labels sorted lexicographically, values 0..n-1."""
        ordered = tuple(sorted(labels))
        return cls(name=name, labels=ordered, values=tuple(range(len(ordered))))

    @classmethod
    def from_values(cls, name: str, labels: Iterable[str], values: Iterable[int]) -> "SymbolicDomain":
        """Enumeration restricted to an explicit label→value mapping."""
        pairs = sorted(zip(labels, values))
        return cls(
            name=name,
            labels=tuple(l for l, _ in pairs),
            values=tuple(v for _, v in pairs),
        )

    @classmethod
    def from_range(cls, name: str, lo: int, hi: int) -> "SymbolicDomain":
        """Integer range domain [lo, hi], labels zero-padded digits; at most
        ``_MAX_DOMAIN_VALUES`` values, else ResourceLimitError."""
        if lo < 0 or hi < lo:
            raise DomainError(f"domain {name!r}: bad range [{lo}, {hi}]")
        if hi - lo + 1 > _MAX_DOMAIN_VALUES:
            raise ResourceLimitError(
                f"domain {name!r}: range [{lo}, {hi}] has {hi - lo + 1} values, over the cap "
                f"of {_MAX_DOMAIN_VALUES} values of one range domain (_MAX_DOMAIN_VALUES)"
            )
        width = len(str(hi))
        values = tuple(range(lo, hi + 1))
        return cls(name=name, labels=tuple(str(v).zfill(width) for v in values), values=values)

    @property
    def size(self) -> int:
        return len(self.values)

    def __contains__(self, value: int) -> bool:
        return value in self._value_index

    @functools.cached_property
    def _value_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.values)}

    def index_of(self, value: int) -> int:
        try:
            return self._value_index[value]
        except KeyError:
            raise DomainError(f"value {value} not in domain {self.name!r}") from None

    def label_of(self, value: int) -> str:
        return self.labels[self.index_of(value)]

    def value_of(self, label: str) -> int:
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise DomainError(f"label {label!r} not in domain {self.name!r}") from None


@dataclass(frozen=True)
class VariableSpec:
    """A declared variable: its domain plus a perceptual-source annotation."""

    name: str
    domain: SymbolicDomain
    source: str = ""


def variable_map(variables: Iterable[VariableSpec]) -> dict[str, VariableSpec]:
    out: dict[str, VariableSpec] = {}
    for v in variables:
        if v.name in out:
            raise DomainError(f"variable {v.name!r} declared twice")
        out[v.name] = v
    return out


@dataclass(frozen=True)
class LinearExpr:
    """Integer-coefficient combination of variables plus a constant.  The
    terms are kept canonical, one per variable, sorted, with no zero
    coefficient, so equal sums are equal and print alike however built."""

    terms: tuple[tuple[str, int], ...]
    constant: int = 0

    def __post_init__(self) -> None:
        coeffs: dict[str, int] = {}
        for var, coeff in self.terms:
            coeffs[var] = coeffs.get(var, 0) + coeff
        terms = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        object.__setattr__(self, "terms", terms)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return self.constant + sum(coeff * assignment[var] for var, coeff in self.terms)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(var for var, _ in self.terms)


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}
_OP_ALIASES = {"==": "=", "≤": "<=", "≥": ">=", "≠": "!="}


@dataclass(frozen=True)
class Comparison:
    lhs: LinearExpr
    op: str
    rhs: LinearExpr

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise DomainError(f"unknown comparison operator {self.op!r}")

    def holds(self, assignment: Mapping[str, int | np.ndarray]) -> bool | np.ndarray:
        """Truth of the comparison; values may be ints or broadcastable arrays."""
        return _OPS[self.op](self.lhs.evaluate(assignment), self.rhs.evaluate(assignment))


@dataclass(frozen=True)
class AllDifferent:
    names: tuple[str, ...]

    def holds(self, assignment: Mapping[str, int | np.ndarray]) -> bool | np.ndarray:
        """Pairwise ``!=`` of the variables; values may be ints or broadcastable arrays."""
        values = [assignment[n] for n in self.names]
        return functools.reduce(
            operator.and_, (a != b for a, b in itertools.combinations(values, 2)), True
        )


@dataclass(frozen=True)
class AllEqual:
    names: tuple[str, ...]

    def holds(self, assignment: Mapping[str, int | np.ndarray]) -> bool | np.ndarray:
        """Each variable ``==`` the first; values may be ints or broadcastable arrays."""
        first = assignment[self.names[0]]
        return functools.reduce(
            operator.and_, (assignment[n] == first for n in self.names[1:]), True
        )


ConstraintBody = Comparison | AllDifferent | AllEqual


@dataclass(frozen=True)
class Constraint:
    """A named constraint; the name is the atom it grounds in formulas."""

    name: str
    body: ConstraintBody


def constraint_vars(c: Constraint) -> tuple[str, ...]:
    """Distinct variables of the constraint, sorted."""
    body = c.body
    if isinstance(body, Comparison):
        return tuple(sorted(set(body.lhs.variables) | set(body.rhs.variables)))
    return tuple(sorted(set(body.names)))


# ---------------------------------------------------------------------------
# Constraint text syntax


_CONSTRAINT_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|!=|==|≤|≥|≠|[<>=+\-*(),]))"
)


def _tokenize_body(name: str, text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _CONSTRAINT_TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise DomainError(f"constraint {name!r}: cannot read {rest[:10]!r} at column {pos}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


class _BodyParser:
    def __init__(self, name: str, tokens: list[tuple[str, str]]):
        self.name = name
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise DomainError(f"constraint {self.name!r}: unexpected end of text")
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.take()
        if tok[1] != value:
            raise DomainError(f"constraint {self.name!r}: expected {value!r}, got {tok[1]!r}")

    def parse(self) -> ConstraintBody:
        head = self.peek()
        if head and head[0] == "ident" and head[1] in ("all_different", "all_equal"):
            return self.parse_global()
        return self.parse_comparison()

    def parse_global(self) -> ConstraintBody:
        _, fn = self.take()
        self.expect("(")
        names = []
        while True:
            tok = self.take()
            if tok[0] != "ident":
                raise DomainError(f"constraint {self.name!r}: expected variable, got {tok[1]!r}")
            names.append(tok[1])
            tok = self.take()
            if tok[1] == ")":
                break
            if tok[1] != ",":
                raise DomainError(f"constraint {self.name!r}: expected ',' or ')', got {tok[1]!r}")
        if self.peek() is not None:
            raise DomainError(f"constraint {self.name!r}: trailing text after {fn}(...)")
        if len(names) < 2:
            raise DomainError(f"constraint {self.name!r}: {fn} needs at least two variables")
        cls = AllDifferent if fn == "all_different" else AllEqual
        return cls(names=tuple(names))

    def parse_comparison(self) -> Comparison:
        lhs = self.parse_linear()
        tok = self.take()
        if tok[0] != "op" or (tok[1] not in _OPS and tok[1] not in _OP_ALIASES):
            raise DomainError(f"constraint {self.name!r}: expected comparison, got {tok[1]!r}")
        op = _OP_ALIASES.get(tok[1], tok[1])
        rhs = self.parse_linear()
        if self.peek() is not None:
            raise DomainError(f"constraint {self.name!r}: trailing text after comparison")
        return Comparison(lhs=lhs, op=op, rhs=rhs)

    def parse_linear(self) -> LinearExpr:
        coeffs: dict[str, int] = {}
        constant = 0
        sign = 1
        tok = self.peek()
        if tok and tok[1] in ("+", "-"):
            sign = -1 if tok[1] == "-" else 1
            self.take()
        while True:
            coeff, var = self.parse_term()
            if var is None:
                constant += sign * coeff
            else:
                coeffs[var] = coeffs.get(var, 0) + sign * coeff
            tok = self.peek()
            if tok is None or tok[1] not in ("+", "-"):
                break
            sign = -1 if tok[1] == "-" else 1
            self.take()
        return LinearExpr(terms=tuple(coeffs.items()), constant=constant)

    def parse_term(self) -> tuple[int, str | None]:
        """One product: INT, VAR, INT*VAR, VAR*INT, or INT VAR juxtaposed."""
        tok = self.take()
        if tok[0] == "int":
            coeff = int(tok[1])
            nxt = self.peek()
            if nxt and nxt[1] == "*":
                self.take()
                nxt = self.take()
                if nxt[0] != "ident":
                    raise DomainError(
                        f"constraint {self.name!r}: expected variable after '*', got {nxt[1]!r}"
                    )
                return coeff, nxt[1]
            if nxt and nxt[0] == "ident":
                self.take()
                return coeff, nxt[1]
            return coeff, None
        if tok[0] == "ident":
            var = tok[1]
            nxt = self.peek()
            if nxt and nxt[1] == "*":
                self.take()
                nxt = self.take()
                if nxt[0] != "int":
                    raise DomainError(
                        f"constraint {self.name!r}: expected integer after '*', got {nxt[1]!r}"
                    )
                return int(nxt[1]), var
            return 1, var
        raise DomainError(f"constraint {self.name!r}: unexpected token {tok[1]!r}")


def parse_constraint(name: str, text: str) -> Constraint:
    """Parse a constraint body like ``"Y < Z"`` or ``"all_equal(V,W,X)"``."""
    tokens = _tokenize_body(name, text)
    if not tokens:
        raise DomainError(f"constraint {name!r}: empty body")
    body = _BodyParser(name, tokens).parse()
    return Constraint(name=name, body=body)


def _linear_text(e: LinearExpr) -> str:
    parts = []
    for var, coeff in e.terms:
        term = var if abs(coeff) == 1 else f"{abs(coeff)}*{var}"
        parts.append(("-" if coeff < 0 else "+", term))
    if e.constant != 0 or not parts:
        parts.append(("-" if e.constant < 0 else "+", str(abs(e.constant))))
    head_sign, head = parts[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def constraint_text(c: Constraint) -> str:
    """Canonical text form; parses back to an equal constraint."""
    body = c.body
    if isinstance(body, Comparison):
        return f"{_linear_text(body.lhs)} {body.op} {_linear_text(body.rhs)}"
    fn = "all_different" if isinstance(body, AllDifferent) else "all_equal"
    return f"{fn}({', '.join(body.names)})"


# ---------------------------------------------------------------------------
# Evaluation, enumeration, probabilities


def eval_constraint(
    c: Constraint,
    assignment: Mapping[str, int],
    variables: Mapping[str, VariableSpec] | None = None,
) -> bool:
    """Truth of ``c`` under an integer assignment.

    With ``variables`` given, also checks that every variable of ``c`` is
    declared and its value lies in the declared domain.
    """
    for name in constraint_vars(c):
        if name not in assignment:
            raise DomainError(f"constraint {c.name!r}: variable {name!r} unassigned")
        if variables is not None:
            spec = variables.get(name)
            if spec is None:
                raise DomainError(f"constraint {c.name!r}: variable {name!r} not declared")
            if assignment[name] not in spec.domain:
                raise DomainError(
                    f"constraint {c.name!r}: value {assignment[name]} outside domain "
                    f"of {name!r}"
                )
    return bool(c.body.holds(assignment))


def _check_declared(constraints: Sequence[Constraint], variables: Sequence[VariableSpec]) -> None:
    declared = {v.name for v in variables}
    for c in constraints:
        undeclared = set(constraint_vars(c)) - declared
        if undeclared:
            raise DomainError(
                f"constraint {c.name!r} uses undeclared variables: {sorted(undeclared)}"
            )


def enumerate_solutions(
    letter: Mapping[str, bool],
    constraints: Sequence[Constraint],
    variables: Sequence[VariableSpec],
) -> tuple[dict[str, int], ...]:
    """All full assignments whose constraint truths match ``letter`` exactly."""
    missing = [c.name for c in constraints if c.name not in letter]
    if missing:
        raise DomainError(f"letter does not fix constraints: {missing}")
    code = sum(1 << bit for bit, c in enumerate(constraints) if letter[c.name])
    bucket = solution_buckets(constraints, variables).get(code)
    return () if bucket is None else bucket.materialize()


# One int64 code bit per constraint; the sign bit stays clear.
_MAX_PARTITION_CONSTRAINTS = 63
# Points of one grounding grid (the product of its domain sizes).  A task over
# a 64^4 grid, at the cap, compiles in about 1.1 s with a 420 MB peak (2-core
# Xeon, Python 3.11, numpy 2.4).
_MAX_GRID_POINTS = 1 << 24
# Values of one range domain.  Its values, labels and checks cost far more per
# value than a grid point: at the cap a range builds in about 0.04 s with a
# 9 MB peak, at 2^20 values in 0.7 s (same machine).
_MAX_DOMAIN_VALUES = 1 << 16


def _grid_truths(
    constraints: Sequence[Constraint],
    names: Sequence[str],
    domains: Sequence[SymbolicDomain],
) -> Iterator[np.ndarray]:
    """Truth array of each constraint over the grid of the domains' values.

    Axis i runs over ``domains[i]`` in value order, so C order is
    ``itertools.product`` order.  Values are int64 unless a domain value or a
    linear expression could leave that range; then they stay exact Python
    ints in object arrays.  The grid size is checked against
    ``_MAX_GRID_POINTS`` on the call, before any array is built.
    """
    shape = tuple(d.size for d in domains)
    points = math.prod(shape)
    if points > _MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"the grid of {list(names)} over {list(shape)} values has {points} points, "
            f"over the cap of {_MAX_GRID_POINTS} grid points (_MAX_GRID_POINTS)"
        )
    widest = max([1] + [abs(x) for d in domains for x in d.values])
    sums = [
        abs(e.constant) + widest * sum(abs(k) for _, k in e.terms)
        for c in constraints
        if isinstance(c.body, Comparison)
        for e in (c.body.lhs, c.body.rhs)
    ]
    dtype = np.int64 if max([widest] + sums) < 2**63 else object
    axes = np.ix_(*(np.array(d.values, dtype=dtype) for d in domains))
    grid = dict(zip(names, axes))
    return (np.broadcast_to(c.body.holds(grid), shape) for c in constraints)


def solution_buckets(
    constraints: Sequence[Constraint],
    variables: Sequence[VariableSpec],
) -> dict[int, SolutionBucket]:
    """The ``SolutionBucket`` of each truth code that some grid point has.

    Bit i of a code is the truth of ``constraints[i]``: over constraints
    sorted by name, the codes are the automaton's letters.  Codes appear in
    the order of their first grid point; an unrealizable code has no entry.
    """
    _check_declared(constraints, variables)
    if len(constraints) > _MAX_PARTITION_CONSTRAINTS:
        raise ResourceLimitError(
            f"grounding {len(constraints)} constraints, over the cap of {_MAX_PARTITION_CONSTRAINTS}"
            " constraints of one grounding (_MAX_PARTITION_CONSTRAINTS)"
        )
    domains = [v.domain for v in variables]
    truths = _grid_truths(constraints, [v.name for v in variables], domains)
    codes = np.zeros(tuple(d.size for d in domains), dtype=np.int64)
    for bit, truth in enumerate(truths):
        codes |= truth.astype(np.int64) << bit
    codes = codes.ravel()
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    keys = codes[starts].tolist()
    del codes
    ends = np.append(starts[1:], len(order))
    return {
        keys[g]: SolutionBucket(variables, order[starts[g] : ends[g]])
        for g in np.argsort(order[starts])
    }


class SolutionBucket(Sequence[int]):
    """The assignments of one truth vector, as grid points in
    ``itertools.product`` order.

    ``bucket[i]`` is the i-th point, an int, and ``points`` all of them as
    one int array; ``materialize()`` reads every assignment off the points as
    fresh dicts.
    """

    def __init__(self, variables: Sequence[VariableSpec], flat: np.ndarray) -> None:
        self._flat = flat
        self._variables = tuple(variables)

    @property
    def points(self) -> np.ndarray:
        """The grid points, in order, as one int array (not a copy)."""
        return self._flat

    def __len__(self) -> int:
        return len(self._flat)

    def __getitem__(self, i: int) -> int:
        return int(self._flat[i])

    def __eq__(self, other: object) -> bool:
        """Same variables and grid points; builds no assignment."""
        if not isinstance(other, SolutionBucket):
            return NotImplemented
        return self._variables == other._variables and np.array_equal(self._flat, other._flat)

    def __repr__(self) -> str:
        return f"SolutionBucket({len(self)} assignments over {[v.name for v in self._variables]})"

    def materialize(self) -> tuple[dict[str, int], ...]:
        """Every assignment, in ``itertools.product`` order, as fresh dicts."""
        return grid_assignments(self._flat, self._variables)


def grid_positions(points, variables: Sequence[VariableSpec]) -> np.ndarray:
    """The domain positions of grid points: ``out[..., i]`` is each point's
    position in ``variables[i]``'s domain.

    A grid point is the C-order flat index over the variables' domain sizes,
    the index ``solution_buckets`` groups; ``grid_points`` is the inverse.
    Raises DomainError for a point outside the grid; a grid over no
    variable has one point, and any point reads as it.
    """
    points = np.asarray(points, dtype=np.int64)
    shape = tuple(v.domain.size for v in variables)
    if not shape:
        return np.zeros(points.shape + (0,), dtype=np.intp)
    try:
        return np.stack(np.unravel_index(points, shape), axis=-1)
    except ValueError as err:  # a point outside the grid
        raise DomainError(f"grid points over {[v.name for v in variables]}: {err}") from None


def grid_points(positions, variables: Sequence[VariableSpec]) -> np.ndarray:
    """The grid point of domain positions, one per variable along the last
    axis: the inverse of ``grid_positions``."""
    positions = np.asarray(positions, dtype=np.intp)
    shape = tuple(v.domain.size for v in variables)
    if not shape:
        return np.zeros(positions.shape[:-1], dtype=np.intp)
    return np.ravel_multi_index(tuple(np.moveaxis(positions, -1, 0)), shape)


def grid_assignments(points, variables: Sequence[VariableSpec]) -> tuple[dict[str, int], ...]:
    """The ``{name: value}`` assignment of each of a sequence of grid points,
    as fresh dicts."""
    positions = grid_positions(points, variables)
    columns = [
        np.array(v.domain.values, dtype=object)[positions[:, i]].tolist()
        for i, v in enumerate(variables)
    ]
    names = [v.name for v in variables]
    rows = zip(*columns) if columns else [()] * len(positions)
    return tuple(dict(zip(names, row)) for row in rows)


def partition_solutions(
    constraints: Sequence[Constraint],
    variables: Sequence[VariableSpec],
) -> dict[tuple[bool, ...], tuple[dict[str, int], ...]]:
    """Bucket the full Cartesian product by constraint-truth vector.

    Keys are truth tuples aligned with ``constraints``, read off the
    ``solution_buckets`` codes; every assignment lands in exactly one bucket,
    so the buckets partition the product.  Buckets appear in the order of
    their first assignment, and each lists its assignments in
    ``itertools.product`` order.

    Raises ResourceLimitError above 63 constraints, the bits of the int64
    code that groups grid points by truth vector, or over a grid of more
    than ``_MAX_GRID_POINTS`` points.
    """
    bits = range(len(constraints))
    return {
        tuple(bool(code >> bit & 1) for bit in bits): bucket.materialize()
        for code, bucket in solution_buckets(constraints, variables).items()
    }


def sample_solution(
    solutions: Sequence[int] | Sequence[dict[str, int]],
    rng: np.random.Generator,
) -> int | dict[str, int]:
    """Uniform draw from a solution set: a grid point from a
    ``SolutionBucket``, an element itself from a tuple of dicts."""
    n = len(solutions)
    if not n:
        raise UnsatisfiableLetterError("letter has no solutions")
    return solutions[int(rng.integers(n))]


def _check_distribution(name: str, dist: Mapping[int, float]) -> None:
    if not dist:
        raise DomainError(f"distribution for {name!r} is empty")
    total = 0.0
    for value, p in dist.items():
        if p < 0:
            raise DomainError(f"distribution for {name!r}: negative mass at {value}")
        total += p
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"distribution for {name!r} sums to {total!r}, not 1")


def constraint_probability(c: Constraint, dists: Mapping[str, Mapping[int, float]]) -> float:
    """Exact satisfaction probability under independent per-variable dists.

    ``dists`` maps each variable of ``c`` to a value→probability table.
    Computed by full enumeration of the joint support — no truncation.
    """
    names = constraint_vars(c)
    for name in names:
        if name not in dists:
            raise DomainError(f"no distribution for variable {name!r}")
        _check_distribution(name, dists[name])
    supports = [sorted(dists[name]) for name in names]
    total = 0.0
    for combo in itertools.product(*supports):
        a = dict(zip(names, combo))
        if c.body.holds(a):
            p = 1.0
            for name, value in zip(names, combo):
                p *= dists[name][value]
            total += p
    return total


def indicator_tensor(
    c: Constraint,
    domains: Mapping[str, SymbolicDomain],
) -> tuple[tuple[str, ...], np.ndarray]:
    """0/1 tensor of the constraint over its variables' domain grids.

    Axes follow ``constraint_vars(c)``; axis i is indexed by position in that
    variable's domain.  Contracting with per-variable probability vectors
    gives the satisfaction probability.  Raises ResourceLimitError over a
    grid of more than ``_MAX_GRID_POINTS`` points.
    """
    names = constraint_vars(c)
    missing = [n for n in names if n not in domains]
    if missing:
        raise DomainError(f"no domain for variables: {missing}")
    (truth,) = _grid_truths([c], names, [domains[n] for n in names])
    return names, truth.astype(float)


def tensor_probability(indicator: np.ndarray, dists: Sequence[np.ndarray]) -> float | np.ndarray:
    """Contract an indicator tensor with per-axis probability vectors.

    Given (steps × axis) matrices instead of vectors, contracts every step at
    once and returns one probability per step.  The last axis goes first, as
    one matrix-vector product per step; each remaining axis, last to first,
    is then one ``einsum`` over the steps, so no intermediate is larger than
    steps × the product of all but the last axis.  A vector call is a batch
    of one step, and each step's arithmetic does not depend on how many steps
    share the call: a batched row equals the vector contraction of that
    step's rows bit for bit.

    Raises DomainError unless there is one distribution per axis, each as
    long as its axis, all vectors or all matrices with one step count.
    """
    indicator = np.asarray(indicator, dtype=float)
    rows = [np.asarray(d, dtype=float) for d in dists]
    _check_axis_dists(indicator.shape, rows)
    vector = rows[0].ndim == 1
    # contiguous (steps × values) operands: BLAS and einsum then take one
    # path whatever the caller's strides
    rows = [np.ascontiguousarray(d[None] if vector else d) for d in rows]
    shape, steps = indicator.shape, len(rows[0])
    # a stacked (step row @ last-axis-first matrix) product is one gemv per
    # step; one batch-wide gemm would sum each row in an order that can
    # depend on the step count
    by_last = np.ascontiguousarray(np.moveaxis(indicator, -1, 0)).reshape(shape[-1], -1)
    out = (rows[-1][:, None, :] @ by_last).reshape(steps, *shape[:-1])
    # integer sublists (axis i, then step axis ndim): no subscript alphabet to run out of
    n = indicator.ndim
    for i in range(n - 2, -1, -1):
        out = np.einsum(out, [n, *range(i + 1)], rows[i], [n, i], [n, *range(i)])
    return float(out[0]) if vector else out


def _check_axis_dists(shape: tuple[int, ...], dists: Sequence[np.ndarray]) -> None:
    if not shape:
        raise DomainError("indicator tensor has no axes to contract")
    counts = f"the tensor has {len(shape)} axes, got {len(dists)} distributions"
    if len(dists) < len(shape):
        raise DomainError(f"axis {len(dists)} has no distribution: {counts}")
    if len(dists) > len(shape):
        raise DomainError(f"distribution {len(shape)} has no axis: {counts}")
    ndim = dists[0].ndim
    for i, (size, d) in enumerate(zip(shape, dists)):
        if d.ndim != ndim or ndim not in (1, 2):
            raise DomainError(
                f"axis {i}: distribution has {d.ndim} dimensions; give every axis a vector"
                " or every axis a (steps × values) matrix"
            )
        if d.shape[-1] != size:
            raise DomainError(f"axis {i}: distribution over {d.shape[-1]} values, axis has {size}")
        if ndim == 2 and d.shape[0] != dists[0].shape[0]:
            raise DomainError(
                f"axis {i}: distribution has {d.shape[0]} steps, axis 0's has {dists[0].shape[0]}"
            )
