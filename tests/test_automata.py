"""DFA construction, minimization, guards, and serialization tests."""

import hashlib
import json
import random

import pytest

from ltlseq.automata import (
    Dfa,
    assignment_of,
    guard_table,
    letter_of,
    ltlf_to_dfa,
    minimize,
    transition_guard,
)
from ltlseq.errors import DomainError, ResourceLimitError
from ltlseq.formulas import parse
from ltlseq.library import builtin_task, builtin_task_names
from ltlseq.props import PFALSE, PTRUE, all_assignments, eval_prop

from oracles import holds, minimize_reference, rand_formula

TASK_FORMULAS = [
    "G(p <-> X X q)",
    "G((p & X p & X X p) -> X X X q)",
    "F p & (q U X p)",
    "G(p <-> WX !p)",
    "G(p <-> X q)",
    "p & G(p <-> X q)",
]


def trace_letters(trace, atoms):
    return [letter_of(step, atoms) for step in trace]


def test_finally_has_two_states():
    d = ltlf_to_dfa(parse("F p"))
    assert d.n_states == 2
    assert d.atoms == ("p",)
    assert d.initial == 0


def test_letter_encoding_round_trip():
    atoms = ("a", "b", "c")
    for letter in range(8):
        assignment = assignment_of(letter, atoms)
        assert letter_of(assignment, atoms) == letter
    assert letter_of({"a": True, "b": False, "c": True}, atoms) == 0b101


def test_accepts_matches_direct_semantics():
    rng = random.Random(1812)
    for text in TASK_FORMULAS:
        f = parse(text)
        atoms = sorted(f.atoms())
        d = ltlf_to_dfa(f)
        assert d.atoms == tuple(atoms)
        for _ in range(500):
            n = rng.randrange(1, 11)
            trace = [{a: rng.random() < 0.5 for a in atoms} for _ in range(n)]
            expected = holds(f, trace, 0)
            assert d.accepts(trace_letters(trace, atoms)) == expected, (text, trace)


def test_accepts_matches_direct_semantics_random_formulas():
    rng = random.Random(2718)
    for _ in range(60):
        f = rand_formula(rng, 3)
        atoms = sorted(f.atoms()) or ["p"]
        d = ltlf_to_dfa(f, atoms=atoms)
        for _ in range(60):
            n = rng.randrange(1, 8)
            trace = [{a: rng.random() < 0.5 for a in atoms} for _ in range(n)]
            assert d.accepts(trace_letters(trace, atoms)) == holds(f, trace, 0)


def test_minimize_is_idempotent_and_preserves_language():
    rng = random.Random(5050)
    for text in TASK_FORMULAS:
        d = ltlf_to_dfa(parse(text))
        m = minimize(d)
        assert m == d  # construction already minimizes and renumbers
        again = minimize(m)
        assert again == m
        for _ in range(300):
            trace = [rng.randrange(d.n_letters) for _ in range(rng.randrange(1, 12))]
            assert m.accepts(trace) == d.accepts(trace)


def test_minimize_matches_moore_reference():
    rng = random.Random(1971)
    for _ in range(1500):
        k = rng.randrange(4)
        n = rng.randrange(1, 13)
        d = Dfa(
            atoms=("a", "b", "c")[:k],
            n_states=n,
            accepting=frozenset(s for s in range(n) if rng.random() < 0.4),
            transitions=tuple(
                tuple(rng.randrange(n) for _ in range(1 << k)) for _ in range(n)
            ),
            initial=rng.randrange(n),
        )
        assert minimize(d) == minimize_reference(d)


def test_construction_is_deterministic():
    for text in TASK_FORMULAS:
        assert ltlf_to_dfa(parse(text)) == ltlf_to_dfa(parse(text))


def test_alphabet_extension_keeps_language():
    rng = random.Random(64)
    d2 = ltlf_to_dfa(parse("F p"), atoms=["p", "q"])
    d1 = ltlf_to_dfa(parse("F p"))
    assert d2.atoms == ("p", "q")
    for _ in range(200):
        trace = [
            {"p": rng.random() < 0.5, "q": rng.random() < 0.5}
            for _ in range(rng.randrange(1, 8))
        ]
        assert d2.accepts(trace_letters(trace, ["p", "q"])) == d1.accepts(
            trace_letters(trace, ["p"])
        )


def test_alphabet_must_cover_formula_atoms():
    with pytest.raises(DomainError):
        ltlf_to_dfa(parse("F p"), atoms=["q"])


def test_state_cap_raises():
    f = parse("G((p & X p & X X p) -> X X X q)")
    with pytest.raises(ResourceLimitError):
        ltlf_to_dfa(f, max_states=3)


def test_empty_trace_rejected():
    d = ltlf_to_dfa(parse("F p"))
    with pytest.raises(DomainError):
        d.run([])
    with pytest.raises(DomainError):
        d.accepts([])


def test_step_letter_range_checked():
    d = ltlf_to_dfa(parse("F p"))
    with pytest.raises(DomainError):
        d.step(0, 2)
    with pytest.raises(DomainError):
        d.step(0, -1)


def test_run_returns_state_per_letter():
    d = ltlf_to_dfa(parse("F p"))
    trace = [0, 0, 1, 0]
    states = d.run(trace)
    assert len(states) == len(trace)
    s = d.initial
    for letter, expected in zip(trace, states):
        s = d.step(s, letter)
        assert s == expected


# ---------------------------------------------------------------------------
# Guards


def test_guards_partition_the_alphabet():
    for text in TASK_FORMULAS:
        d = ltlf_to_dfa(parse(text))
        for source in range(d.n_states):
            seen = []
            for target in sorted(set(d.transitions[source])):
                g = transition_guard(d, source, target)
                assert g.source == source and g.target == target
                seen.extend(g.letters)
                # the guard formula is true on exactly the guard's letters
                for letter in range(d.n_letters):
                    value = eval_prop(g.formula, assignment_of(letter, d.atoms))
                    assert value == (letter in g.letters)
            assert sorted(seen) == list(range(d.n_letters))


def test_guard_degenerate_formulas():
    d = ltlf_to_dfa(parse("F p"))
    # find a state with a self-loop on every letter (the accepting sink)
    sink = next(
        s
        for s in range(d.n_states)
        if all(d.transitions[s][letter] == s for letter in range(d.n_letters))
    )
    assert transition_guard(d, sink, sink).formula == PTRUE
    other = 1 - sink
    assert transition_guard(d, sink, other).formula == PFALSE
    assert transition_guard(d, sink, other).letters == ()


def test_guard_table_is_ordered_and_complete():
    d = ltlf_to_dfa(parse("G(p <-> X X q)"))
    table = guard_table(d)
    keys = [(g.source, g.target) for g in table]
    assert keys == sorted(keys)
    assert all(g.letters for g in table)
    per_source = {}
    for g in table:
        per_source.setdefault(g.source, []).extend(g.letters)
    for source in range(d.n_states):
        assert sorted(per_source[source]) == list(range(d.n_letters))


# ---------------------------------------------------------------------------
# JSON round trip


def test_json_round_trip():
    for text in TASK_FORMULAS:
        d = ltlf_to_dfa(parse(text))
        assert Dfa.from_json_dict(d.to_json_dict()) == d


def test_json_incomplete_table_rejected():
    d = ltlf_to_dfa(parse("F p"))
    data = d.to_json_dict()
    data["transitions"] = data["transitions"][:-1]
    with pytest.raises(DomainError):
        Dfa.from_json_dict(data)


def _mutated(mutate):
    data = ltlf_to_dfa(parse("F p")).to_json_dict()  # 2 states, 2 letters
    mutate(data)
    return data


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("atoms"),
        lambda d: d.pop("states"),
        lambda d: d.pop("accepting"),
        lambda d: d.pop("transitions"),
        lambda d: d["transitions"][0].pop("to"),
        lambda d: d["transitions"][0].update({"from": 2}),
        lambda d: d["transitions"][0].update({"letter": 2}),
        lambda d: d["transitions"][0].update({"letter": -1}),
        lambda d: d["transitions"][0].update({"to": 2}),
        lambda d: d["transitions"][0].update({"to": -1}),
        lambda d: d["transitions"][0].update({"to": 1.0}),
        lambda d: d["transitions"][0].update({"to": True}),
        lambda d: d["transitions"].__setitem__(1, dict(d["transitions"][0])),
        lambda d: d.update({"accepting": [2]}),
        lambda d: d.update({"initial": 2}),
        lambda d: d.update({"states": "2"}),
        lambda d: d.update({"atoms": "p"}),
        lambda d: d.update({"atoms": ["p", "p"]}),
        lambda d: d.update({"transitions": {}}),
    ],
    ids=[
        "no-atoms",
        "no-states",
        "no-accepting",
        "no-transitions",
        "entry-without-to",
        "from-out-of-range",
        "letter-out-of-range",
        "letter-negative",
        "to-out-of-range",
        "to-negative",
        "to-float",
        "to-bool",
        "duplicate-entry",
        "accepting-out-of-range",
        "initial-out-of-range",
        "states-string",
        "atoms-string",
        "atoms-repeated",
        "transitions-object",
    ],
)
def test_json_malformed_rejected(mutate):
    with pytest.raises(DomainError):
        Dfa.from_json_dict(_mutated(mutate))


def test_json_non_object_rejected():
    with pytest.raises(DomainError):
        Dfa.from_json_dict([])


# ---------------------------------------------------------------------------
# Golden automata: sha256 of the sorted-key JSON of each automaton as the
# translation produced it before formulas were interned.  Any change to the
# states, their BFS numbering or the acceptance set shows up here.

_FAMILY_6 = "G(a0 -> F b0) & G(a1 -> F b1) & G(a2 -> F b2)"
_FAMILY_10 = _FAMILY_6 + " & G(a3 -> F b3) & G(a4 -> F b4)"

GOLDEN_BUILTIN = {
    "task1": (8, "867bf11934fb47d3fab3f5943e8322dd72a3e553d9149c3dadb9bf63ee7ac8d5"),
    "task2": (5, "87e0d86f4a2fbdad74f376d13a4ebc7bd1b745c2296a0e7d48dcd314d314b203"),
    "task3": (5, "ae98c7d851052e38e52b29343d8a959e1569c99db2902c68dbc62a843e19f259"),
    "task4": (5, "ae98c7d851052e38e52b29343d8a959e1569c99db2902c68dbc62a843e19f259"),
    "task5": (4, "7498c6bf46a9138a99dc8826a72b81ebd7f4a2c32340c3f65f94fdd486535a2d"),
    "task6": (4, "e1143458a7e6b1eaa38167af9b1adcbde9a25579a315fb2bbd29b208fb035cc1"),
    "example": (4, "b2ff20905811829b55b3b29cbe5c943995537bc9dddbef3930103b4f82019432"),
}
GOLDEN_FAMILY = {
    _FAMILY_6: (8, "bf4c8ffd22d8c7a1835260474adc945b6dc09455a1e44e0dc745eb77f5af4586"),
    _FAMILY_10: (32, "a9cf87ad8b14691e0876d336944452cd2cc151b561b54cec14e1eb5d4a827864"),
}


def _digest(d):
    return hashlib.sha256(json.dumps(d.to_json_dict(), sort_keys=True).encode()).hexdigest()


def test_golden_builtin_automata():
    assert set(GOLDEN_BUILTIN) == set(builtin_task_names())
    for name, (n_states, digest) in GOLDEN_BUILTIN.items():
        spec = builtin_task(name)
        atoms = sorted(c.name for c in spec.constraints)
        d = ltlf_to_dfa(parse(spec.formula), atoms=atoms)
        assert (d.n_states, _digest(d)) == (n_states, digest), name


@pytest.mark.parametrize("text", list(GOLDEN_FAMILY), ids=["fam6", "fam10"])
def test_golden_family_automata(text):
    d = ltlf_to_dfa(parse(text))
    assert (d.n_states, _digest(d)) == GOLDEN_FAMILY[text]


def test_golden_random_formula_automata():
    rng = random.Random(20261017)
    digest = hashlib.sha256()
    for _ in range(300):
        d = ltlf_to_dfa(rand_formula(rng, 3), atoms=("p", "q", "r"))
        digest.update(json.dumps(d.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "29548cc5c8bd80c9f10723d5cef2beb1cea924f5cd787d5eb3c863a5458bc874"
    )
