"""DFA construction, minimization, guards, and serialization tests."""

import copy
import hashlib
import json
import pickle
import random
from pathlib import Path

import numpy as np
import pytest

from ltlseq import automata
from ltlseq.automata import (
    Dfa,
    assignment_of,
    guard_table,
    letter_of,
    ltlf_to_dfa,
    minimize,
    transition_guard,
)
from ltlseq.errors import DomainError, IntegrityError, LtlseqError, ResourceLimitError
from ltlseq.formulas import parse
from ltlseq.library import builtin_task, builtin_task_names
from ltlseq.props import PFALSE, PTRUE, all_assignments, eval_prop
from ltlseq.tasks import compile_task, load_task_yaml

from oracles import (
    explore_reference,
    holds,
    minimize_reference,
    old_form_json,
    rand_formula,
)

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


def _chain(n):
    """States 0 … n-1 in a line: letter 1 steps on, letter 0 stays; only the
    last state accepts, so Moore refinement needs n rounds."""
    return Dfa(("p",), n, frozenset({n - 1}), [(s, min(s + 1, n - 1)) for s in range(n)])


def test_minimize_over_repeated_columns_matches_moore_reference():
    rng = np.random.default_rng(1971)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 16))
        # a few distinct columns, each shared by many letters
        columns = rng.integers(n, size=(int(rng.integers(1, 4)), n))
        d = Dfa(
            atoms=("a", "b", "c", "d", "e")[:k],
            n_states=n,
            accepting=frozenset(np.flatnonzero(rng.random(n) < 0.4).tolist()),
            transitions=columns[rng.integers(len(columns), size=1 << k)].T,
            initial=int(rng.integers(n)),
        )
        assert minimize(d) == minimize_reference(d)


def test_minimize_with_all_columns_distinct_matches_moore_reference():
    # 3 atoms, 8 states: letter l sends s to (s + l) % 8, a different column per letter
    d = Dfa(("a", "b", "c"), 8, frozenset({0, 3}), [[(s + l) % 8 for l in range(8)] for s in range(8)])
    assert len(automata._letter_classes(d.transitions)) == 8
    assert minimize(d) == minimize_reference(d)


def test_minimize_chain_needing_many_rounds_matches_moore_reference():
    d = _chain(300)
    m = minimize(d)
    assert m.n_states == 300
    assert m == minimize_reference(d)
    # accepting every state past 149 merges them into one
    merged = Dfa(("p",), 300, frozenset(range(150, 300)), d.transitions)
    assert minimize(merged) == minimize_reference(merged)
    assert minimize(merged).n_states == 151


def test_letter_classes_match_column_dict_reference():
    rng = np.random.default_rng(20261020)
    cases = [_chain(5).transitions, ltlf_to_dfa(parse(_FAMILY_6)).transitions]
    for _ in range(200):
        n, letters = int(rng.integers(1, 9)), 1 << int(rng.integers(0, 6))
        cases.append(rng.integers(int(rng.integers(1, 4)), size=(n, letters)))
    for table in cases:
        first: dict[tuple, int] = {}
        for letter, column in enumerate(table.T.tolist()):
            first.setdefault(tuple(column), letter)
        assert automata._letter_classes(table).tolist() == list(first.values())


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1]],  # ragged
        [[0, 1, 1], [1, 0, 0]],  # three letters for one atom
        [[0, 1]],  # one row for two states
        [0, 1, 1, 0],  # flat
        [[[0], [1]], [[1], [0]]],  # three axes
    ],
)
def test_wrong_shaped_table_is_a_domain_error(rows):
    with pytest.raises(DomainError, match=r"DFA transitions .*\(2, 2\)"):
        Dfa(("p",), 2, frozenset({1}), rows)


def test_table_is_one_read_only_array():
    rows = ((0, 1), (1, 1))
    d = Dfa(("p",), 2, frozenset({1}), rows)
    assert isinstance(d.transitions, np.ndarray) and d.transitions.dtype == np.intp
    with pytest.raises(ValueError):
        d.transitions[0, 0] = 1
    array = np.array(rows)
    from_array = Dfa(("p",), 2, frozenset({1}), array)
    array[0, 0] = 1  # the automaton keeps its own copy
    assert from_array == d and hash(from_array) == hash(d)
    assert from_array != Dfa(("p",), 2, frozenset({1}), array)
    assert d != Dfa(("p",), 2, frozenset({0}), rows) and d != rows
    assert type(d.step(0, 1)) is int and d.run([1, 0]) == [1, 1]
    assert repr(d) == "Dfa(('p',), 2, frozenset({1}), [[0, 1], [1, 1]], 0)"


def test_pickle_and_deepcopy_keep_the_table_read_only():
    d = compile_task(builtin_task("task5")).dfa
    d.digest  # a cached digest is not carried over, only recomputed
    for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert copied == d and copied.digest == d.digest and copied.initial == d.initial
        assert copied.transitions is not d.transitions
        assert not copied.transitions.flags.writeable
        with pytest.raises(ValueError):
            copied.transitions[0, 0] = 1


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


def test_state_cap_raises(monkeypatch):
    from ltlseq import automata

    f = parse("G((p & X p & X X p) -> X X X q)")
    reached = f"translating {f} reached 4 states, over the cap of 3 states before minimization"
    with pytest.raises(ResourceLimitError) as exc:
        ltlf_to_dfa(f, max_states=3)
    assert str(exc.value) == f"{reached} (max_states)"
    monkeypatch.setattr(automata, "MAX_DFA_STATES", 3)
    with pytest.raises(ResourceLimitError) as exc:
        ltlf_to_dfa(f)
    assert str(exc.value) == f"{reached} (MAX_DFA_STATES)"


def test_atom_cap_names_itself():
    atoms = [f"a{i}" for i in range(17)]
    ltlf_to_dfa(parse("F a0"), atoms=atoms[:16])
    with pytest.raises(ResourceLimitError) as exc:
        ltlf_to_dfa(parse("F a0"), atoms=atoms)
    assert str(exc.value) == "the alphabet has 17 atoms, over the cap of 16 atoms (_MAX_ATOMS)"


def test_repeated_atoms_rejected():
    with pytest.raises(DomainError) as exc:
        ltlf_to_dfa(parse("G(a -> F b)"), atoms=("a", "a", "b"))
    assert str(exc.value) == "atoms repeat: ['a', 'a', 'b']"


@pytest.mark.parametrize("cap", [0, -3, 2.5, True, False, "3"])
def test_state_cap_must_be_an_int_of_at_least_one(cap):
    with pytest.raises(DomainError) as exc:
        ltlf_to_dfa(parse("G(p -> F q)"), max_states=cap)
    assert str(exc.value) == f"max_states {cap!r} is not an integer of at least 1"


def test_state_cap_of_one_admits_the_initial_state():
    assert ltlf_to_dfa(parse("G p"), max_states=2).n_states == 2
    assert ltlf_to_dfa(parse("true"), max_states=1).n_states == 1
    with pytest.raises(ResourceLimitError, match="reached 2 states, over the cap of 1 "):
        ltlf_to_dfa(parse("G p"), max_states=1)


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


def test_step_state_range_checked():
    d = compile_task(builtin_task("task3")).dfa
    assert d.n_states == 5
    with pytest.raises(DomainError, match=r"^state -1 outside \[0, 5\)$"):
        d.step(-1, 0)  # not state 4 by negative indexing
    with pytest.raises(DomainError, match=r"^state 5 outside \[0, 5\)$"):
        d.step(5, 0)


def test_letter_of_names_a_missing_atom():
    with pytest.raises(DomainError, match=r"^assignment does not assign atom 'b'$"):
        letter_of({"a": True, "c": False}, ("a", "b", "c"))


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


def test_json_dict_is_fresh_and_its_digest_computed_once(monkeypatch):
    d = ltlf_to_dfa(parse("G(p <-> X q)"))
    digests = []

    def counted(doc):
        digests.append(doc)
        return _compact_sha256(doc)

    monkeypatch.setattr(automata, "_sha256", counted)
    first = d.to_json_dict()
    expected = json.loads(json.dumps(first))
    first["transitions"][0][0] = 99
    first["accepting"].append(99)
    first["atoms"].append("z")
    first["sha256"] = "0" * 64
    assert d.to_json_dict() == expected
    assert d.digest == expected["sha256"]
    assert len(digests) == 1


def test_json_incomplete_table_rejected():
    d = ltlf_to_dfa(parse("F p"))
    data = d.to_json_dict()
    data["transitions"] = data["transitions"][:-1]
    with pytest.raises(DomainError):
        Dfa.from_json_dict(data)


def _mutated(mutate):
    data = old_form_json(ltlf_to_dfa(parse("F p")))  # 2 states, 2 letters
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
# Golden automata: sha256 of the sorted-key per-entry JSON (``old_form_json``)
# of each automaton as the translation produced it before formulas were
# interned.  Any change to the states, their BFS numbering or the acceptance
# set shows up here.

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
    return hashlib.sha256(json.dumps(old_form_json(d), sort_keys=True).encode()).hexdigest()


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
        digest.update(json.dumps(old_form_json(d), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "29548cc5c8bd80c9f10723d5cef2beb1cea924f5cd787d5eb3c863a5458bc874"
    )


def _explore_cases():
    for name in GOLDEN_BUILTIN:
        spec = builtin_task(name)
        yield parse(spec.formula), tuple(sorted(c.name for c in spec.constraints))
    for text in GOLDEN_FAMILY:
        f = parse(text)
        yield f, tuple(sorted(f.atoms()))
    rng = random.Random(20261020)
    for _ in range(300):
        yield rand_formula(rng, 3), ("p", "q", "r")


def test_table_exploration_matches_per_letter_reference():
    # One table lookup per state numbers new states as the per-letter loop
    # does, so the automata are equal before minimization.
    for f, atoms in _explore_cases():
        expected = explore_reference(f, atoms, automata.MAX_DFA_STATES, "MAX_DFA_STATES")
        actual = automata._explore(f, atoms, automata.MAX_DFA_STATES, "MAX_DFA_STATES")
        assert actual == expected, str(f)


def test_fam10_state_cap_message_matches_reference_at_every_cap():
    # fam10's initial row reaches all 32 states, so each cap pins which new
    # state comes next within that row.
    f = parse(_FAMILY_10)
    atoms = tuple(sorted(f.atoms()))
    assert explore_reference(f, atoms, 32, "max_states").n_states == 32
    for k in range(1, 32):
        with pytest.raises(ResourceLimitError) as expected:
            explore_reference(f, atoms, k, "max_states")
        with pytest.raises(ResourceLimitError) as exc:
            ltlf_to_dfa(f, max_states=k)
        assert str(exc.value) == str(expected.value)


# ---------------------------------------------------------------------------
# The per-entry form written before the row form still loads, and its
# per-entry check names the first bad entry with the message it always gave.


class _Int(int):
    pass


def _set_entry(i, **fields):
    return lambda d: d["transitions"][i].update(fields)


# (mutation of the "F p" automaton's JSON, exact DomainError message)
MALFORMED_TRANSITIONS = {
    "from-bool": (_set_entry(1, **{"from": True}), "DFA from True is not in 0..1"),
    "letter-bool": (_set_entry(1, letter=False), "DFA letter False is not in 0..1"),
    "to-bool": (_set_entry(2, to=True), "DFA to True is not in 0..1"),
    "from-float": (_set_entry(1, **{"from": 0.0}), "DFA from 0.0 is not in 0..1"),
    "letter-float": (_set_entry(3, letter=1.0), "DFA letter 1.0 is not in 0..1"),
    "to-float": (_set_entry(2, to=1.5), "DFA to 1.5 is not in 0..1"),
    "from-negative": (_set_entry(1, **{"from": -1}), "DFA from -1 is not in 0..1"),
    "letter-negative": (_set_entry(0, letter=-3), "DFA letter -3 is not in 0..1"),
    "to-negative": (_set_entry(3, to=-1), "DFA to -1 is not in 0..1"),
    "from-out-of-range": (_set_entry(2, **{"from": 2}), "DFA from 2 is not in 0..1"),
    "letter-out-of-range": (_set_entry(1, letter=2), "DFA letter 2 is not in 0..1"),
    "to-out-of-range": (_set_entry(0, to=7), "DFA to 7 is not in 0..1"),
    "to-past-int64": (_set_entry(0, to=2**70), f"DFA to {2**70} is not in 0..1"),
    "to-string": (_set_entry(1, to="1"), "DFA to '1' is not in 0..1"),
    "to-null": (_set_entry(1, to=None), "DFA to None is not in 0..1"),
    "missing-from": (
        lambda d: d["transitions"][2].pop("from"),
        "transition {'letter': 0, 'to': 1} needs 'from', 'letter' and 'to'",
    ),
    "missing-to": (
        lambda d: d["transitions"][3].pop("to"),
        "transition {'from': 1, 'letter': 1} needs 'from', 'letter' and 'to'",
    ),
    "list-entry": (
        lambda d: d["transitions"].__setitem__(1, [0, 1, 1]),
        "transition [0, 1, 1] needs 'from', 'letter' and 'to'",
    ),
    "null-entry": (
        lambda d: d["transitions"].__setitem__(3, None),
        "transition None needs 'from', 'letter' and 'to'",
    ),
    "duplicate-pair": (
        _set_entry(3, **{"from": 0, "letter": 1}),
        "duplicate transition from 0 on letter 1",
    ),
    "missing-pair": (lambda d: d["transitions"].pop(2), "transition table is not complete"),
    "extra-pair": (
        lambda d: d["transitions"].append({"from": 0, "letter": 0, "to": 0}),
        "duplicate transition from 0 on letter 0",
    ),
    "extra-out-of-range-pair": (
        lambda d: d["transitions"].append({"from": 2, "letter": 0, "to": 0}),
        "DFA from 2 is not in 0..1",
    ),
    "no-entries": (lambda d: d.update(transitions=[]), "transition table is not complete"),
}


@pytest.mark.parametrize("name", list(MALFORMED_TRANSITIONS))
def test_malformed_transition_keeps_its_message(name):
    mutate, message = MALFORMED_TRANSITIONS[name]
    with pytest.raises(DomainError) as exc:
        Dfa.from_json_dict(_mutated(mutate))
    assert str(exc.value) == message


def test_int_subclass_transitions_are_accepted():
    data = _mutated(lambda d: None)
    data["transitions"] = [{k: _Int(v) for k, v in t.items()} for t in data["transitions"]]
    assert Dfa.from_json_dict(data) == ltlf_to_dfa(parse("F p"))


@pytest.mark.parametrize("name", [*GOLDEN_BUILTIN, "fam6", "fam10"])
def test_json_round_trip_builtin_and_family(name):
    if name in GOLDEN_BUILTIN:
        spec = builtin_task(name)
        d = ltlf_to_dfa(parse(spec.formula), atoms=sorted(c.name for c in spec.constraints))
    else:
        d = ltlf_to_dfa(parse(_FAMILY_6 if name == "fam6" else _FAMILY_10))
    text = json.dumps(d.to_json_dict(), indent=2, sort_keys=True)
    assert Dfa.from_json_dict(json.loads(text)) == d


def test_array_check_matches_per_entry_check_on_random_lists():
    """Shuffled, retyped, dropped and repeated per-entry lists give the table
    or the exact error of the per-entry check."""
    from ltlseq.automata import _checked_transitions

    base = old_form_json(ltlf_to_dfa(parse("G(p -> F q)")))  # 2 states, 4 letters
    values = (0, 1, 2, 3, 4, -1, True, False, 1.0, None, "0", 2**64, _Int(1))
    rng = random.Random(20261018)
    for _ in range(1000):
        entries = [dict(t) for t in base["transitions"]]
        rng.shuffle(entries)
        for _ in range(rng.randrange(3)):
            t = rng.choice(entries)
            op = rng.randrange(5) if isinstance(t, dict) else 2
            if op == 0:
                t[rng.choice(("from", "letter", "to"))] = rng.choice(values)
            elif op == 1:
                t.pop(rng.choice(("from", "letter", "to")))
            elif op == 2:
                entries.remove(t)
            elif op == 3:
                entries.append(dict(t))
            else:
                entries[entries.index(t)] = rng.choice(([0, 0, 0], None, "t"))
        data = base | {"transitions": entries}
        try:
            expected = _checked_transitions(entries, base["states"], 4)
        except DomainError as err:
            with pytest.raises(DomainError) as exc:
                Dfa.from_json_dict(data)
            assert str(exc.value) == str(err)
        else:
            assert Dfa.from_json_dict(data).transitions.tolist() == expected


# ---------------------------------------------------------------------------
# The row form: one list of successor states per state, and a digest


def _golden_dfas():
    for name in GOLDEN_BUILTIN:
        spec = builtin_task(name)
        yield ltlf_to_dfa(parse(spec.formula), atoms=sorted(c.name for c in spec.constraints))
    for text in GOLDEN_FAMILY:
        yield ltlf_to_dfa(parse(text))
    fam6 = load_task_yaml(Path(__file__).parents[1] / "perfbench" / "tasks" / "fam6.yaml")
    for spec in [*map(builtin_task, builtin_task_names()), fam6]:
        yield compile_task(spec).dfa
    rng = random.Random(20261019)
    for _ in range(50):
        yield ltlf_to_dfa(rand_formula(rng, 3), atoms=("p", "q", "r"))


def _compact_sha256(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_row_form_and_old_form_load_to_the_same_dfa():
    for d in _golden_dfas():
        data = d.to_json_dict()
        assert data["transitions"] == [list(row) for row in d.transitions]
        assert data["sha256"] == _compact_sha256({k: v for k, v in data.items() if k != "sha256"})
        assert Dfa.from_json_dict(json.loads(json.dumps(data))) == d
        assert Dfa.from_json_dict(json.loads(json.dumps(old_form_json(d)))) == d


def _set_cell(s, letter, value):
    return lambda d: d["transitions"][s].__setitem__(letter, value)


# (mutation of the "F p" automaton's row-form JSON, exact DomainError message)
MALFORMED_ROWS = {
    "transitions-string": (
        lambda d: d.update(transitions="1 1 1 1"),
        "DFA transitions and accepting states must be lists",
    ),
    "transitions-object": (
        lambda d: d.update(transitions={"0": [1, 1]}),
        "DFA transitions and accepting states must be lists",
    ),
    "missing-row": (lambda d: d["transitions"].pop(), "DFA transitions has 1 rows, not 2"),
    "extra-row": (lambda d: d["transitions"].append([0, 0]), "DFA transitions has 3 rows, not 2"),
    "row-string": (
        lambda d: d["transitions"].__setitem__(1, "1 1"),
        "DFA transitions[1] is not a list of 2 states",
    ),
    "row-null": (
        lambda d: d["transitions"].__setitem__(0, None),
        "DFA transitions[0] is not a list of 2 states",
    ),
    "row-short": (
        lambda d: d["transitions"][1].pop(),
        "DFA transitions[1] is not a list of 2 states",
    ),
    "row-long": (
        lambda d: d["transitions"][0].append(0),
        "DFA transitions[0] is not a list of 2 states",
    ),
    "cell-bool": (_set_cell(0, 1, True), "DFA transitions[0][1] True is not in 0..1"),
    "cell-float": (_set_cell(1, 0, 1.0), "DFA transitions[1][0] 1.0 is not in 0..1"),
    "cell-negative": (_set_cell(1, 1, -1), "DFA transitions[1][1] -1 is not in 0..1"),
    "cell-out-of-range": (_set_cell(0, 0, 2), "DFA transitions[0][0] 2 is not in 0..1"),
    "cell-2**64": (_set_cell(1, 0, 2**64), f"DFA transitions[1][0] {2**64} is not in 0..1"),
    "cell-string": (_set_cell(0, 1, "1"), "DFA transitions[0][1] '1' is not in 0..1"),
    "cell-null": (_set_cell(1, 1, None), "DFA transitions[1][1] None is not in 0..1"),
    "sha256-missing": (lambda d: d.pop("sha256"), "DFA JSON is missing ['sha256']"),
    "sha256-int": (lambda d: d.update(sha256=5), "DFA sha256 5 is not a hex digest string"),
    "sha256-null": (lambda d: d.update(sha256=None), "DFA sha256 None is not a hex digest string"),
}

# well-formed edits that change the automaton, or only its digest
MISMATCHED_ROWS = {
    "cell-in-range": _set_cell(0, 0, 1),
    "accepting": lambda d: d.update(accepting=[0]),
    "initial": lambda d: d.update(initial=1),
    "atoms": lambda d: d.update(atoms=["q"]),
    "digest": lambda d: d.update(sha256="0" * 64),
    "digest-upper-case": lambda d: d.update(sha256=d["sha256"].upper()),
}


def _row_form(mutate):
    data = ltlf_to_dfa(parse("F p")).to_json_dict()  # 2 states, 2 letters
    mutate(data)
    return data


@pytest.mark.parametrize("name", list(MALFORMED_ROWS))
def test_malformed_row_form_message(name):
    mutate, message = MALFORMED_ROWS[name]
    with pytest.raises(DomainError) as exc:
        Dfa.from_json_dict(_row_form(mutate))
    assert str(exc.value) == message


@pytest.mark.parametrize("name", list(MISMATCHED_ROWS))
def test_row_form_digest_mismatch(name):
    data = _row_form(MISMATCHED_ROWS[name])
    actual = _compact_sha256({k: v for k, v in data.items() if k != "sha256"})
    assert actual != data["sha256"]
    with pytest.raises(IntegrityError) as exc:
        Dfa.from_json_dict(data)
    assert str(exc.value) == f"DFA sha256 {data['sha256']!r} does not match its automaton ({actual})"


def test_old_form_digest_is_checked_when_present():
    d = ltlf_to_dfa(parse("F p"))
    data = old_form_json(d)
    assert Dfa.from_json_dict(data | {"sha256": d.to_json_dict()["sha256"]}) == d
    with pytest.raises(IntegrityError):
        Dfa.from_json_dict(data | {"sha256": "0" * 64})


def test_random_row_form_edits_load_the_same_dfa_or_raise_typed():
    """Retyped cells, replaced, dropped and repeated rows and other digests
    either raise an LtlseqError or load the unedited automaton."""
    d = ltlf_to_dfa(parse("G(p -> F q)"))  # 2 states, 4 letters
    base = d.to_json_dict()
    values = (0, 1, 2, -1, True, False, 1.0, None, "0", 2**64, _Int(1), [0], {}, "0" * 64)
    rng = random.Random(20261020)
    outcomes = set()
    for _ in range(1000):
        data = json.loads(json.dumps(base))
        for _ in range(rng.randrange(1, 3)):
            rows = data["transitions"]
            op = rng.randrange(6)
            row = rng.choice(rows) if rows else None
            if op == 0 and isinstance(row, list) and row:
                row[rng.randrange(len(row))] = rng.choice(values)
            elif op == 1 and rows:
                rows[rng.randrange(len(rows))] = rng.choice(values)
            elif op == 2 and rows:
                rows.pop(rng.randrange(len(rows)))
            elif op == 3 and rows:
                rows.append(rng.choice(rows))
            elif op == 4:
                data["sha256"] = rng.choice(values)
            else:
                data[rng.choice(("accepting", "initial", "states"))] = rng.choice(values)
        try:
            loaded = Dfa.from_json_dict(data)
        except LtlseqError as err:
            outcomes.add(type(err))
        else:
            assert loaded == d
            outcomes.add(Dfa)
    assert outcomes == {DomainError, IntegrityError, Dfa}
