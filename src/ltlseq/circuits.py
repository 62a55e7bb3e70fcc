"""Next-state formulas, their circuit compilation, and semiring evaluation.

Transposing a DFA's transition table gives one propositional formula per
next state (sources ∧ guards).  Two evaluation paths exist:

* fuzzy: simplify the formula, then replace connectives with semiring
  operations directly on the AST — cheap, but sums of non-disjoint clauses
  can over-count;
* exact: compile the formula to a smooth deterministic DNNF by top-down
  Shannon decomposition, where algebraic model counting is correct.

A brute-force weighted model counter serves as the testing oracle for both.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .automata import Dfa, transition_guard
from .errors import DomainError, ResourceLimitError
from .props import (
    PFALSE,
    PTRUE,
    PAnd,
    PNot,
    POr,
    PropFormula,
    PVar,
    all_assignments,
    cofactor,
    eval_prop,
    pand,
    por,
    prop_vars,
    simplify,
)

__all__ = [
    "Semiring",
    "PROB",
    "LOGPROB",
    "Circuit",
    "state_var",
    "next_state_formulas",
    "simplify",
    "compile_sddnnf",
    "smooth",
    "amc",
    "fuzzy_eval",
    "brute_force_wmc",
]


# ---------------------------------------------------------------------------
# Semirings


def _logaddexp(a: float, b: float) -> float:
    if a == float("-inf"):
        return b
    if b == float("-inf"):
        return a
    m = a if a >= b else b
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


@dataclass(frozen=True)
class Semiring:
    """Commutative semiring with an injection from probabilities."""

    name: str
    plus: Callable[[float, float], float]
    times: Callable[[float, float], float]
    zero: float
    one: float
    from_prob: Callable[[float], float]

    def sum(self, values: Iterable[float]) -> float:
        out = self.zero
        for v in values:
            out = self.plus(out, v)
        return out

    def product(self, values: Iterable[float]) -> float:
        out = self.one
        for v in values:
            out = self.times(out, v)
        return out


PROB = Semiring("prob", operator.add, operator.mul, 0.0, 1.0, float)
LOGPROB = Semiring("logprob", _logaddexp, operator.add, float("-inf"), 0.0, _log)


# ---------------------------------------------------------------------------
# Next-state formulas


STATE_PREFIX = "state_"


def state_var(state: int) -> str:
    return f"{STATE_PREFIX}{state}"


def next_state_formulas(dfa: Dfa) -> list[PropFormula]:
    """One formula per next state: OR over sources of (state ∧ guard)."""
    out = []
    for target in range(dfa.n_states):
        clauses = []
        for source in range(dfa.n_states):
            guard = transition_guard(dfa, source, target)
            if guard.formula is PFALSE:
                continue
            clauses.append(pand([PVar(state_var(source)), guard.formula]))
        out.append(por(clauses))
    return out


# ---------------------------------------------------------------------------
# Circuits

Node = tuple  # ("true",) | ("false",) | ("lit", var, bool) | ("and", ids) | ("or", ids, decision)


@dataclass(frozen=True)
class Circuit:
    """DAG in bottom-up topological order; children precede parents."""

    nodes: tuple[Node, ...]
    scopes: tuple[frozenset[str], ...]
    root: int

    @property
    def scope(self) -> frozenset[str]:
        return self.scopes[self.root]


class _Builder:
    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.scopes: list[frozenset[str]] = []
        self._memo: dict[Node, int] = {}

    def _add(self, node: Node, scope: frozenset[str]) -> int:
        cached = self._memo.get(node)
        if cached is not None:
            return cached
        self.nodes.append(node)
        self.scopes.append(scope)
        self._memo[node] = len(self.nodes) - 1
        return len(self.nodes) - 1

    def true(self) -> int:
        return self._add(("true",), frozenset())

    def false(self) -> int:
        return self._add(("false",), frozenset())

    def lit(self, var: str, polarity: bool) -> int:
        return self._add(("lit", var, polarity), frozenset((var,)))

    def and_(self, children: Sequence[int]) -> int:
        kids = []
        for c in children:
            if self.nodes[c][0] == "false":
                return self.false()
            if self.nodes[c][0] != "true":
                kids.append(c)
        if not kids:
            return self.true()
        if len(kids) == 1:
            return kids[0]
        kids = tuple(sorted(set(kids)))
        scope: frozenset[str] = frozenset()
        for c in kids:
            if scope & self.scopes[c]:
                raise DomainError("And children must have disjoint scopes")
            scope |= self.scopes[c]
        return self._add(("and", kids), scope)

    def or_(self, children: Sequence[int], decision: str | None = None) -> int:
        kids = tuple(c for c in children if self.nodes[c][0] != "false")
        if not kids:
            return self.false()
        if len(kids) == 1:
            return kids[0]
        scope = frozenset().union(*(self.scopes[c] for c in kids))
        return self._add(("or", kids, decision), scope)

    def finish(self, root: int) -> Circuit:
        return Circuit(nodes=tuple(self.nodes), scopes=tuple(self.scopes), root=root)


def _is_literal(f: PropFormula) -> tuple[str, bool] | None:
    if isinstance(f, PVar):
        return f.name, True
    if isinstance(f, PNot) and isinstance(f.child, PVar):
        return f.child.name, False
    return None


def _default_order(names: Iterable[str]) -> list[str]:
    states, atoms = [], []
    for n in names:
        suffix = n[len(STATE_PREFIX):]
        if n.startswith(STATE_PREFIX) and suffix.isdigit():
            states.append((int(suffix), n))
        else:
            atoms.append(n)
    return [n for _, n in sorted(states)] + sorted(atoms)


def _components(f: PAnd) -> list[PropFormula]:
    """Group And-children into connected components of shared variables."""
    children = list(f.children)
    parent = list(range(len(children)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[str, int] = {}
    for i, child in enumerate(children):
        for v in prop_vars(child):
            if v in owner:
                parent[find(i)] = find(owner[v])
            else:
                owner[v] = i
    groups: dict[int, list[PropFormula]] = {}
    for i, child in enumerate(children):
        groups.setdefault(find(i), []).append(child)
    return [g[0] if len(g) == 1 else pand(g) for g in groups.values()]


def compile_sddnnf(f: PropFormula, max_vars: int = 30) -> Circuit:
    """Compile to a deterministic, decomposable circuit by Shannon splits.

    Branching follows state variables by id, then atoms; sub-results are
    cached by sub-formula and independent conjuncts are compiled
    separately.  The result is not smooth — see ``smooth``.
    """
    names = prop_vars(f)
    if len(names) > max_vars:
        raise ResourceLimitError(
            f"formula has {len(names)} variables, over the cap of {max_vars} variables "
            "of one compiled circuit (max_vars)"
        )
    order = _default_order(names)

    builder = _Builder()
    cache: dict[PropFormula, int] = {}

    def rec(g: PropFormula) -> int:
        cached = cache.get(g)
        if cached is not None:
            return cached
        if g is PTRUE:
            out = builder.true()
        elif g is PFALSE:
            out = builder.false()
        else:
            lit = _is_literal(g)
            if lit is not None:
                out = builder.lit(*lit)
            elif isinstance(g, PAnd) and len(parts := _components(g)) > 1:
                out = builder.and_([rec(p) for p in parts])
            else:
                gvars = prop_vars(g)
                var = next(v for v in order if v in gvars)
                branches = []
                for value in (True, False):
                    sub = rec(cofactor(g, var, value))
                    if builder.nodes[sub][0] != "false":
                        branches.append(builder.and_([builder.lit(var, value), sub]))
                out = builder.or_(branches, decision=var)
        cache[g] = out
        return out

    return builder.finish(rec(f))


def smooth(c: Circuit, names: Iterable[str] = ()) -> Circuit:
    """Pad Or-children (and the root) so scopes line up for counting.

    Every Or-child gains (v ∨ ¬v) factors for the variables its siblings
    mention but it does not; the root is additionally padded to cover
    ``names``.  Weighted counts with normalized weights are unchanged.
    """
    builder = _Builder()

    def tautology(var: str) -> int:
        return builder.or_([builder.lit(var, True), builder.lit(var, False)], decision=var)

    def pad(node_id: int, missing: frozenset[str]) -> int:
        if not missing:
            return node_id
        return builder.and_([node_id] + [tautology(v) for v in sorted(missing)])

    mapping: dict[int, int] = {}
    for i, node in enumerate(c.nodes):
        kind = node[0]
        if kind == "true":
            mapping[i] = builder.true()
        elif kind == "false":
            mapping[i] = builder.false()
        elif kind == "lit":
            mapping[i] = builder.lit(node[1], node[2])
        elif kind == "and":
            mapping[i] = builder.and_([mapping[k] for k in node[1]])
        else:
            target = c.scopes[i]
            kids = [pad(mapping[k], target - c.scopes[k]) for k in node[1]]
            mapping[i] = builder.or_(kids, decision=node[2])
    root = pad(mapping[c.root], frozenset(names) - c.scopes[c.root])
    return builder.finish(root)


WeightMap = Mapping[tuple[str, bool], float]


def _weight(weights: WeightMap, var: str, polarity: bool) -> float:
    try:
        return weights[(var, polarity)]
    except KeyError:
        raise DomainError(f"no weight for literal {'' if polarity else '!'}{var}") from None


def amc(c: Circuit, weights: WeightMap, s: Semiring) -> float:
    """Algebraic model count: one bottom-up pass over the circuit."""
    values: list[float] = []
    for node in c.nodes:
        kind = node[0]
        if kind == "true":
            values.append(s.one)
        elif kind == "false":
            values.append(s.zero)
        elif kind == "lit":
            values.append(_weight(weights, node[1], node[2]))
        elif kind == "and":
            values.append(s.product(values[k] for k in node[1]))
        else:
            values.append(s.sum(values[k] for k in node[1]))
    return values[c.root]


def fuzzy_eval(f: PropFormula, weights: WeightMap, s: Semiring) -> float:
    """Structural semiring evaluation of an NNF formula.

    And→times, Or→plus, literal→weight.  No determinism guarantee: clauses
    with shared models are counted once per clause, so the result can exceed
    the true probability mass.
    """
    if f is PTRUE:
        return s.one
    if f is PFALSE:
        return s.zero
    lit = _is_literal(f)
    if lit is not None:
        return _weight(weights, *lit)
    if isinstance(f, PAnd):
        return s.product(fuzzy_eval(g, weights, s) for g in f.children)
    if isinstance(f, POr):
        return s.sum(fuzzy_eval(g, weights, s) for g in f.children)
    raise DomainError("fuzzy evaluation requires an NNF formula")


def brute_force_wmc(
    f: PropFormula,
    weights: WeightMap,
    s: Semiring,
    names: Iterable[str] | None = None,
    max_vars: int = 20,
) -> float:
    """Oracle weighted model count by full assignment enumeration."""
    all_names = prop_vars(f) if names is None else frozenset(names) | prop_vars(f)
    if len(all_names) > max_vars:
        raise ResourceLimitError(
            f"model count over {len(all_names)} variables, over the cap of {max_vars} "
            "variables of one brute-force enumeration (max_vars)"
        )
    total = s.zero
    for assignment in all_assignments(all_names):
        if eval_prop(f, assignment):
            term = s.product(
                _weight(weights, var, value) for var, value in assignment.items()
            )
            total = s.plus(total, term)
    return total
