"""Reference implementations the tests check the library against.

Everything here is written independently of the package internals: direct
finite-trace semantics by recursion over formula structure, and a random
formula generator for property-style checks.
"""

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


def rand_formula(rng, depth):
    if depth == 0:
        return rng.choice([TRUE, FALSE] + [Atom(a) for a in ATOMS])
    k = rng.randrange(12)
    sub = lambda: rand_formula(rng, depth - 1)
    if k == 0:
        return TRUE
    if k == 1:
        return Atom(rng.choice(ATOMS))
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


def minimize_reference(d):
    """Moore partition refinement with the package's numbering contract.

    States are renumbered by BFS over classes from the initial state,
    letters ascending, exactly as ``ltlseq.automata.minimize`` promises.
    """
    from ltlseq.automata import Dfa

    reach, frontier = {d.initial}, [d.initial]
    while frontier:
        frontier = [t for s in frontier for t in d.transitions[s] if t not in reach]
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
