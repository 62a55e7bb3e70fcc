"""Task specs: built-ins, YAML round trip, hashing, and compilation."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from ltlseq.automata import Dfa
from ltlseq.constraints import SymbolicDomain, VariableSpec, parse_constraint
from ltlseq.errors import DomainError, IntegrityError, TaskCompileError, TaskFileError
from ltlseq.library import builtin_task, builtin_task_names
from ltlseq.tasks import (
    CompiledTask,
    TaskSpec,
    _reach_table,
    builtin_or_file,
    compile_task,
    load_task_yaml,
    read_input,
    save_task_yaml,
)
from oracles import feasible_letters_reference

EXPECTED_STATES = {
    "task1": 8,
    "task2": 5,
    "task3": 5,
    "task4": 5,
    "task5": 4,
    "task6": 4,
    "example": 4,
}


def small_spec(formula="F p", positive_ratio=0.5, **overrides):
    digits = SymbolicDomain.from_range("digits", 0, 9)
    kwargs = dict(
        name="small",
        domains=(digits,),
        variables=(
            VariableSpec(name="A", domain=digits, source="mnist"),
            VariableSpec(name="B", domain=digits, source="mnist"),
        ),
        constraints=(parse_constraint("p", "A < B"),),
        formula=formula,
        splits=(20, 5, 5),
        positive_ratio=positive_ratio,
    )
    kwargs.update(overrides)
    return TaskSpec(**kwargs)


# ---------------------------------------------------------------------------
# Built-ins


def test_builtin_names():
    assert builtin_task_names() == (
        "task1",
        "task2",
        "task3",
        "task4",
        "task5",
        "task6",
        "example",
    )


def test_builtin_state_counts():
    for name, expected in EXPECTED_STATES.items():
        ct = compile_task(builtin_task(name))
        assert ct.dfa.n_states == expected, name


def test_builtin_overrides():
    spec = builtin_task("task3", seed=99, positive_ratio=0.25)
    assert spec.seed == 99
    assert spec.positive_ratio == 0.25
    with pytest.raises(DomainError):
        builtin_task("task99")


def test_builtin_atoms_are_sorted_constraint_names():
    ct = compile_task(builtin_task("task1"))
    assert ct.atoms == tuple(sorted(c.name for c in ct.spec.constraints))
    assert ct.dfa.atoms == ct.atoms


def test_task3_and_task4_differ_only_in_domains():
    t3, t4 = builtin_task("task3"), builtin_task("task4")
    assert t3.formula == t4.formula
    assert t3.domains != t4.domains
    assert compile_task(t3).dfa.n_states == compile_task(t4).dfa.n_states


# ---------------------------------------------------------------------------
# Hashing


def test_spec_hash_is_stable_and_sensitive():
    a = small_spec()
    b = small_spec()
    assert a.spec_hash == b.spec_hash
    assert a.spec_hash != small_spec(formula="G p").spec_hash
    assert a.spec_hash != replace(a, seed=2).spec_hash
    assert a.spec_hash != replace(a, positive_ratio=0.4).spec_hash
    assert len(a.spec_hash) == 64
    int(a.spec_hash, 16)  # hex string


# ---------------------------------------------------------------------------
# YAML round trip


def test_yaml_round_trip(tmp_path):
    spec = builtin_task("task3")
    path = tmp_path / "task3.yaml"
    save_task_yaml(spec, path)
    loaded = load_task_yaml(path)
    assert loaded == spec
    assert loaded.spec_hash == spec.spec_hash


def test_yaml_round_trip_custom(tmp_path):
    spec = small_spec(min_length=3, max_length=6, seed=7)
    path = tmp_path / "small.yaml"
    save_task_yaml(spec, path)
    assert load_task_yaml(path) == spec


def test_load_missing_file():
    with pytest.raises(TaskFileError) as exc:
        load_task_yaml("/nonexistent/task.yaml")
    assert "task.yaml" in str(exc.value)


def test_load_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: [unclosed\n")
    with pytest.raises(TaskFileError) as exc:
        load_task_yaml(path)
    assert "bad.yaml" in str(exc.value)


def test_load_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(TaskFileError) as exc:
        load_task_yaml(path)
    assert "mapping" in str(exc.value)


def test_from_dict_missing_keys(tmp_path):
    spec = small_spec()
    base = spec.to_dict()
    for key in ["name", "domains", "variables", "constraints", "formula", "length", "splits"]:
        data = {k: v for k, v in base.items() if k != key}
        with pytest.raises(TaskFileError) as exc:
            TaskSpec.from_dict(data)
        assert key in str(exc.value)


def test_from_dict_bad_formula():
    data = small_spec().to_dict()
    data["formula"] = "p &"
    with pytest.raises(TaskFileError):
        TaskSpec.from_dict(data)


def test_from_dict_unknown_domain_reference():
    data = small_spec().to_dict()
    data["variables"]["A"]["domain"] = "nope"
    with pytest.raises(TaskFileError) as exc:
        TaskSpec.from_dict(data)
    assert "nope" in str(exc.value)


def test_from_dict_unknown_split():
    data = small_spec().to_dict()
    data["splits"]["extra"] = 5
    with pytest.raises(TaskFileError):
        TaskSpec.from_dict(data)


@pytest.mark.parametrize(
    "key, change",
    [
        ("seed", lambda d: d.update(seed="x")),
        ("seed", lambda d: d.update(seed=float("inf"))),
        ("splits.train", lambda d: d["splits"].update(train="many")),
        ("splits.test", lambda d: d["splits"].update(test=[4])),
        ("length.min", lambda d: d["length"].update(min=None)),
        ("length.max", lambda d: d["length"].update(max="ten")),
        ("positive_ratio", lambda d: d.update(positive_ratio="half")),
    ],
)
def test_from_dict_malformed_value_names_its_key(key, change):
    data = json.loads(json.dumps(builtin_task("task5").to_dict()))
    change(data)
    with pytest.raises(TaskFileError) as exc:
        TaskSpec.from_dict(data, where="metadata.json")
    assert str(exc.value).startswith(f"metadata.json: {key}: malformed value (")


def test_validate_errors():
    with pytest.raises(DomainError):
        small_spec(min_length=5, max_length=2).validate()
    with pytest.raises(DomainError):
        small_spec(positive_ratio=1.5).validate()
    with pytest.raises(DomainError):
        small_spec(splits=(10, -1, 5)).validate()
    with pytest.raises(DomainError):
        small_spec(formula="F q").validate()  # atom without a constraint


def test_read_input_passes_package_errors_through(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("text")
    raised = IntegrityError("raised by parse")

    def parse(text):
        raise raised

    with pytest.raises(IntegrityError) as exc:
        read_input(path, parse, TaskFileError)
    assert exc.value is raised
    with pytest.raises(TaskFileError) as exc:
        read_input(path, int, TaskFileError)  # a plain ValueError names the file
    assert str(exc.value).startswith(f"{path}: ")


def test_builtin_or_file(tmp_path):
    assert builtin_or_file("task5") == builtin_task("task5")
    path = tmp_path / "custom.yaml"
    save_task_yaml(small_spec(), path)
    assert builtin_or_file(str(path)) == small_spec()
    with pytest.raises(TaskFileError) as exc:
        builtin_or_file("no-such-task")
    assert "task1" in str(exc.value)  # lists the built-ins


# ---------------------------------------------------------------------------
# Compilation


def test_compile_small_task():
    ct = compile_task(small_spec())
    assert ct.dfa.n_states == 2
    assert ct.atoms == ("p",)
    # letter 1 is "p true": 45 solutions; letter 0: the other 55
    assert len(ct.solutions[1]) == 45
    assert len(ct.solutions[0]) == 55
    assert ct.usable_letters == (0, 1)


def test_truth_letter():
    ct = compile_task(builtin_task("task3"))
    assert ct.truth_letter({a: False for a in ct.atoms}) == 0
    assert ct.truth_letter({a: True for a in ct.atoms}) == (1 << len(ct.atoms)) - 1


def test_feasible_letters_respect_reachability():
    ct = compile_task(small_spec())
    # from the initial state, a positive sequence of remaining length 1 must
    # take a letter that lands in an accepting state
    letters = ct.feasible_letters(ct.dfa.initial, 1, 1)
    assert letters
    for letter in letters:
        assert ct.dfa.transitions[ct.dfa.initial][letter] in ct.dfa.accepting
    with pytest.raises(DomainError):
        ct.feasible_letters(ct.dfa.initial, 0, 1)


def test_compile_rejects_unsatisfiable_positive():
    spec = small_spec(formula="p & !p")
    with pytest.raises(TaskCompileError) as exc:
        compile_task(spec)
    assert "label 1" in str(exc.value)


def test_compile_rejects_unsatisfiable_negative():
    spec = small_spec(formula="p | !p")
    with pytest.raises(TaskCompileError) as exc:
        compile_task(spec)
    assert "label 0" in str(exc.value)


def test_compile_allows_one_sided_ratio():
    # a tautology is fine when only positive sequences are requested
    ct = compile_task(small_spec(formula="p | !p", positive_ratio=1.0))
    assert ct.dfa.n_states == 1


def test_compile_with_precompiled_dfa():
    spec = small_spec()
    ct = compile_task(spec)
    again = compile_task(spec, dfa=ct.dfa)
    assert again.dfa == ct.dfa
    other = compile_task(builtin_task("task3"))
    with pytest.raises(TaskCompileError) as exc:
        compile_task(spec, dfa=other.dfa)
    assert "atoms" in str(exc.value)


def test_indicator_shapes():
    ct = compile_task(builtin_task("example"))
    for atom in ct.atoms:
        names, tensor = ct.indicator(atom)
        dims = tuple(ct.variables_by_name[n].domain.size for n in names)
        assert tensor.shape == dims
        assert set(tensor.ravel().tolist()) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# Golden grounding: sha256 of every letter's solutions (in order) and of every
# atom's indicator tensor, as per-point enumeration produced them before
# constraints were evaluated on numpy grids.

_FAMILY_CONSTRAINTS = (
    ("a0", "X < Y"),
    ("b0", "Y < Z"),
    ("a1", "X + Y = Z"),
    ("b1", "all_different(X, Y, Z)"),
    ("a2", "W = V"),
    ("b2", "W < V"),
    ("a3", "X + W = Y + V"),
    ("b3", "all_equal(X, Y)"),
    ("a4", "Z < W"),
    ("b4", "X + Y = W + V"),
)


def family_spec(n_atoms):
    """``&_i G(a_i -> F b_i)`` over five digit variables, ``n_atoms`` atoms."""
    digits = SymbolicDomain.from_range("digits", 0, 9)
    return TaskSpec(
        name=f"fam{n_atoms}",
        domains=(digits,),
        variables=tuple(VariableSpec(n, digits, "mnist") for n in "VWXYZ"),
        constraints=tuple(parse_constraint(a, t) for a, t in _FAMILY_CONSTRAINTS[:n_atoms]),
        formula=" & ".join(f"G(a{i} -> F b{i})" for i in range(n_atoms // 2)),
    )


GOLDEN_GROUNDING = {
    "task1": (
        "5ccb283622aca3b836455efeacf765a4aae33ab0f9061fe2fc1eef0e1c89f5f7",
        "096a9dc56e239265fcffcf8a1563478419a14d7ebc21388070c9566c620e2b4e",
    ),
    "task2": (
        "5ccb283622aca3b836455efeacf765a4aae33ab0f9061fe2fc1eef0e1c89f5f7",
        "096a9dc56e239265fcffcf8a1563478419a14d7ebc21388070c9566c620e2b4e",
    ),
    "task3": (
        "7cf25cb8845f523315ab6396bd6902706df63144d36ac90342ae992a5cd016cf",
        "4ffb11c18f1bcaa79c054e8f758471426ed4348e23aee64df67bbdc4067edebe",
    ),
    "task4": (
        "7cf25cb8845f523315ab6396bd6902706df63144d36ac90342ae992a5cd016cf",
        "4ffb11c18f1bcaa79c054e8f758471426ed4348e23aee64df67bbdc4067edebe",
    ),
    "task5": (
        "22c8e6f0580b6e84dda4b9a433f46b40b27a106480cc4f4b8709cd7913715b0d",
        "7ae5551cd681f99100feea4e207db9288dda15177a869c986cef347e05cf3cde",
    ),
    "task6": (
        "b258ec90df92353f5c37a22c4b71b27124cbf7c6a575fd6469d44193d724d529",
        "be61ef85e55815d5b00d60186c005aebb055a0ed1c054f2ebfdeed55b7d7c2bc",
    ),
    "example": (
        "c8a78ca23ca7797f9e51e536a6333de0efc13b7c64928f3b63174e3a49b84cea",
        "aaf9ad9cf4739b4b54d7d960f42d6fa82ef9ea95b8cd1db606934e5534cbeee3",
    ),
    "fam6": (
        "346d108bd2390dc555681ec560755821466183b29181d14d48247a54864b5e73",
        "1a70c9269b89a189b1ecdc508d5548aad2e734b1767a9926d1f27c8870780ba0",
    ),
    "fam10": (
        "39c1e2bd6aadf2c771878e84d0c61f3f622f244f006621d80a1200c1fa741305",
        "108c6e64df506b7a2eb44cecc064a08c3c6d776f9a4093749e7f7c78984df0cd",
    ),
}


def grounding_digests(ct):
    # json.dumps rejects numpy integers, so this also pins Python int values
    solutions = hashlib.sha256(json.dumps(list(ct.solutions.items())).encode())
    indicators = hashlib.sha256()
    for atom in ct.atoms:
        names, arr = ct.indicator(atom)
        indicators.update(json.dumps([atom, list(names), str(arr.dtype), list(arr.shape)]).encode())
        indicators.update(arr.tobytes())
    return solutions.hexdigest(), indicators.hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN_GROUNDING))
def test_golden_grounding(name):
    assert set(builtin_task_names()) <= set(GOLDEN_GROUNDING)
    spec = family_spec(int(name[3:])) if name.startswith("fam") else builtin_task(name)
    assert grounding_digests(compile_task(spec)) == GOLDEN_GROUNDING[name]


# ---------------------------------------------------------------------------
# Memoized feasible letters


def random_walk_task(rng):
    """A task over a random complete DFA with a random set of usable letters."""
    n_atoms, n_states = int(rng.integers(1, 4)), int(rng.integers(1, 7))
    n_letters = 1 << n_atoms
    dfa = Dfa(
        atoms=tuple("pqr"[:n_atoms]),
        n_states=n_states,
        accepting=frozenset(
            int(s) for s in rng.choice(n_states, int(rng.integers(0, n_states + 1)), replace=False)
        ),
        transitions=tuple(
            tuple(int(t) for t in rng.integers(n_states, size=n_letters)) for _ in range(n_states)
        ),
    )
    usable = tuple(
        sorted(int(x) for x in rng.choice(n_letters, int(rng.integers(1, n_letters + 1)), replace=False))
    )
    spec = small_spec(max_length=8)
    return CompiledTask(
        spec=spec,
        dfa=dfa,
        solutions={x: ({},) if x in usable else () for x in range(n_letters)},
        usable_letters=usable,
        reach=_reach_table(dfa, usable, spec.max_length),
    )


@pytest.mark.parametrize(
    "name", [*builtin_task_names(), "fam6", "fam10", *(f"random{i}" for i in range(12))]
)
def test_feasible_letters_equal_reference(name):
    if name.startswith("random"):
        ct = random_walk_task(np.random.default_rng(int(name[6:])))
    else:
        ct = compile_task(family_spec(int(name[3:])) if name.startswith("fam") else builtin_task(name))
    keys = [
        (state, remaining, label)
        for state in range(ct.dfa.n_states)
        for remaining in range(1, ct.spec.max_length + 1)
        for label in (0, 1)
    ]
    keys *= 2
    ends = {}
    for i in np.random.default_rng(20261018).permutation(len(keys)):
        key = keys[i]
        assert ct.feasible_letters(*key) == feasible_letters_reference(ct, *key, ends=ends), key
    for state in range(ct.dfa.n_states):
        for remaining in (0, -1):
            with pytest.raises(DomainError):
                ct.feasible_letters(state, remaining, 1)


def test_letter_truths_are_fresh_copies():
    ct = compile_task(builtin_task("task3"))
    first = ct.letter_truths(5)
    assert first == {a: bool(5 >> i & 1) for i, a in enumerate(ct.atoms)}
    first[ct.atoms[0]] = None
    assert ct.letter_truths(5) == {a: bool(5 >> i & 1) for i, a in enumerate(ct.atoms)}


def test_compiled_tasks_compare_after_indicator():
    a, b, fresh = (compile_task(builtin_task("task3")) for _ in range(3))
    for atom in a.atoms:
        a.indicator(atom)
        b.indicator(atom)
    assert a == b
    assert a == fresh
    assert "array" not in repr(a)
