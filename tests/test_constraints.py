"""Finite-domain constraint parsing, evaluation, counting, and probability."""

import itertools
import math
import random

import numpy as np
import pytest

from ltlseq.constraints import (
    AllDifferent,
    AllEqual,
    Comparison,
    Constraint,
    LinearExpr,
    SymbolicDomain,
    VariableSpec,
    constraint_probability,
    constraint_text,
    constraint_vars,
    enumerate_solutions,
    eval_constraint,
    indicator_tensor,
    parse_constraint,
    partition_solutions,
    sample_solution,
    tensor_probability,
    variable_map,
)
from ltlseq.errors import DomainError, ResourceLimitError, UnsatisfiableLetterError

from oracles import partition_reference

DIGITS = SymbolicDomain.from_range("digits", 0, 9)


def vars_over(domain, *names):
    return [VariableSpec(name=n, domain=domain, source="mnist") for n in names]


# ---------------------------------------------------------------------------
# Domains


def test_domain_from_range():
    assert DIGITS.size == 10
    assert DIGITS.labels[0] == "0" and DIGITS.labels[-1] == "9"
    assert DIGITS.values == tuple(range(10))
    assert DIGITS.index_of(7) == 7
    assert DIGITS.label_of(3) == "3"
    assert DIGITS.value_of("5") == 5
    assert 9 in DIGITS and 10 not in DIGITS
    wide = SymbolicDomain.from_range("wide", 2, 12)
    assert wide.labels[0] == "02" and wide.labels[-1] == "12"


def test_domain_from_labels_sorts_lexicographically():
    d = SymbolicDomain.from_labels("animals", ["dog", "cat", "bird"])
    assert d.labels == ("bird", "cat", "dog")
    assert d.values == (0, 1, 2)
    assert d.value_of("dog") == 2


def test_domain_validation_errors():
    with pytest.raises(DomainError):
        SymbolicDomain(name="d", labels=(), values=())
    with pytest.raises(DomainError):
        SymbolicDomain(name="d", labels=("a", "b"), values=(0,))
    with pytest.raises(DomainError):
        SymbolicDomain(name="d", labels=("a", "a"), values=(0, 1))
    with pytest.raises(DomainError):
        SymbolicDomain(name="d", labels=("b", "a"), values=(0, 1))
    with pytest.raises(DomainError):
        SymbolicDomain(name="d", labels=("a", "b"), values=(1, 0))
    with pytest.raises(DomainError):
        SymbolicDomain.from_range("d", 5, 2)
    with pytest.raises(DomainError):
        DIGITS.index_of(11)
    with pytest.raises(DomainError):
        DIGITS.value_of("x")


def test_variable_map_rejects_duplicates():
    v = VariableSpec(name="A", domain=DIGITS)
    assert variable_map([v])["A"] is v
    with pytest.raises(DomainError):
        variable_map([v, VariableSpec(name="A", domain=DIGITS)])


# ---------------------------------------------------------------------------
# Parsing and printing


def test_parse_round_trip():
    for body in [
        "A + B = C",
        "all_different(A, B, C)",
        "all_equal(A, B)",
        "Y < Z",
        "A != B",
        "2*A - B <= 7",
        "A >= 3",
    ]:
        c = parse_constraint("c", body)
        assert constraint_text(c) == body
        again = parse_constraint("c", constraint_text(c))
        assert constraint_text(again) == body


def test_parse_errors():
    for bad in ["", "A +", "all_different(A)", "A = B = C", "foo(A, B)", "A ** B"]:
        with pytest.raises(DomainError):
            parse_constraint("c", bad)


def test_constraint_vars_sorted():
    c = parse_constraint("c", "B + A = C")
    assert constraint_vars(c) == ("A", "B", "C")
    d = parse_constraint("d", "all_different(C, A, B)")
    assert constraint_vars(d) == ("A", "B", "C")


# ---------------------------------------------------------------------------
# Evaluation and counting, checked against direct enumeration


def count_solutions(c, variables):
    n = 0
    for values in itertools.product(*(v.domain.values for v in variables)):
        if eval_constraint(c, dict(zip((v.name for v in variables), values))):
            n += 1
    return n


def test_sum_constraint_count():
    variables = vars_over(DIGITS, "A", "B", "C")
    c = parse_constraint("sum", "A + B = C")
    # for each (A, B) with A+B <= 9 there is exactly one C: 55 pairs
    assert count_solutions(c, variables) == 55


def test_all_different_count():
    variables = vars_over(DIGITS, "A", "B", "C")
    c = parse_constraint("diff", "all_different(A, B, C)")
    assert count_solutions(c, variables) == 10 * 9 * 8


def test_tautology_count():
    variables = vars_over(DIGITS, "A", "B", "C")
    c = parse_constraint("t", "A + 0 >= 0")
    assert count_solutions(c, variables) == 1000


def test_eval_constraint_examples():
    c = parse_constraint("sum", "A + B = C")
    assert eval_constraint(c, {"A": 3, "B": 4, "C": 7}) is True
    assert eval_constraint(c, {"A": 3, "B": 4, "C": 8}) is False
    d = parse_constraint("diff", "all_different(A, B)")
    assert eval_constraint(d, {"A": 1, "B": 1}) is False
    e = parse_constraint("eq", "all_equal(A, B)")
    assert eval_constraint(e, {"A": 2, "B": 2}) is True


def test_eval_constraint_errors():
    c = parse_constraint("sum", "A + B = C")
    with pytest.raises(DomainError):
        eval_constraint(c, {"A": 1, "B": 2})
    vmap = variable_map(vars_over(DIGITS, "A", "B"))
    with pytest.raises(DomainError):
        eval_constraint(c, {"A": 1, "B": 2, "C": 3}, vmap)  # C not declared
    vmap = variable_map(vars_over(DIGITS, "A", "B", "C"))
    with pytest.raises(DomainError):
        eval_constraint(c, {"A": 1, "B": 2, "C": 42}, vmap)  # outside domain


# ---------------------------------------------------------------------------
# Partition and sampling


def test_partition_covers_product_exactly():
    variables = vars_over(DIGITS, "A", "B")
    cs = [parse_constraint("lt", "A < B"), parse_constraint("diff", "A != B")]
    buckets = partition_solutions(cs, variables)
    total = sum(len(v) for v in buckets.values())
    assert total == 100
    # A < B implies A != B, so the (True, False) bucket is empty
    assert (True, False) not in buckets
    assert len(buckets[(True, True)]) == 45
    assert len(buckets[(False, True)]) == 45
    assert len(buckets[(False, False)]) == 10
    for key, sols in buckets.items():
        for a in sols:
            assert tuple(eval_constraint(c, a) for c in cs) == key


def test_enumerate_solutions_matches_partition():
    variables = vars_over(DIGITS, "A", "B")
    cs = [parse_constraint("lt", "A < B")]
    sols = enumerate_solutions({"lt": True}, cs, variables)
    assert len(sols) == 45
    assert all(a["A"] < a["B"] for a in sols)
    with pytest.raises(DomainError):
        enumerate_solutions({}, cs, variables)


def test_undeclared_variable_rejected():
    variables = vars_over(DIGITS, "A")
    c = parse_constraint("lt", "A < B")
    with pytest.raises(DomainError):
        partition_solutions([c], variables)


def rand_domain(rng, name):
    """A range domain, or explicit values with gaps (possibly negative)."""
    size = rng.randint(1, 5)
    if rng.random() < 0.3:
        return SymbolicDomain.from_range(name, rng.randint(0, 3), rng.randint(0, 3) + size + 2)
    values = sorted(rng.sample(range(-8, 12), size))
    return SymbolicDomain.from_values(name, [f"l{i}" for i in range(size)], values)


def rand_constraint(rng, name, names):
    kind = rng.random()
    if names and kind < 0.3:
        picked = tuple(rng.choice(names) for _ in range(rng.randint(2, 4)))  # may repeat
        return Constraint(name, (AllDifferent if kind < 0.15 else AllEqual)(picked))

    def side():
        terms = tuple(
            (rng.choice(names), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, min(3, len(names))))
        )
        return LinearExpr(terms=terms, constant=rng.randint(-6, 6))

    op = rng.choice(["<", "<=", "=", "!=", ">=", ">"])
    return Constraint(name, Comparison(lhs=side(), op=op, rhs=side()))


def indicator_reference(c, variables):
    """0/1 tensor of ``c`` over its own variables, read off the reference partition."""
    vmap = variable_map(variables)
    names = constraint_vars(c)
    arr = np.zeros([vmap[n].domain.size for n in names])
    own = [vmap[n] for n in names]
    for a in partition_reference([c], own).get((True,), ()):
        arr[tuple(vmap[n].domain.index_of(a[n]) for n in names)] = 1.0
    return names, arr


def assert_same_partition(got, want):
    assert list(got) == list(want)  # same keys in the same order
    for key, bucket in got.items():
        assert all(type(t) is bool for t in key)
        assert [list(a.items()) for a in bucket] == [list(a.items()) for a in want[key]]
        assert all(type(x) is int for a in bucket for x in a.values())


def check_grounding(constraints, variables):
    want = partition_reference(constraints, variables)
    assert_same_partition(partition_solutions(constraints, variables), want)
    names = [c.name for c in constraints]
    absent = tuple(not t for t in next(iter(want)))
    for key in [*want, absent]:
        got = enumerate_solutions(dict(zip(names, key)), constraints, variables)
        assert got == want.get(key, ())
    domains = {v.name: v.domain for v in variables}
    for c in constraints:
        got_names, got_arr = indicator_tensor(c, domains)
        want_names, want_arr = indicator_reference(c, variables)
        assert got_names == want_names
        assert got_arr.dtype == want_arr.dtype and np.array_equal(got_arr, want_arr)


def test_grid_grounding_matches_reference():
    rng = random.Random(4404)
    for _ in range(300):
        names = rng.sample("ABCD", rng.randint(0, 4))
        variables = [VariableSpec(n, rand_domain(rng, f"d{n}")) for n in names]
        constraints = [
            rand_constraint(rng, f"c{i}", names) for i in range(rng.randint(0, 4))
        ]
        check_grounding(constraints, variables)


def test_grounding_without_variables():
    true, false = parse_constraint("t", "1 < 2"), parse_constraint("f", "0 = 1")
    assert partition_solutions([true], []) == {(True,): ({},)}
    assert partition_solutions([], []) == {(): ({},)}
    assert enumerate_solutions({"t": True, "f": False}, [true, false], []) == ({},)
    assert enumerate_solutions({"t": False}, [true], []) == ()
    names, tensor = indicator_tensor(false, {})
    assert names == () and tensor.shape == () and tensor == 0.0
    check_grounding([true, false], [])


def test_grounding_exact_beyond_int64():
    # 2**62 * 2 overflows int64; the grid must keep exact integers
    huge = SymbolicDomain.from_values("huge", ["a", "b", "c"], [0, 2**62, 2**64])
    variables = vars_over(SymbolicDomain.from_range("small", 0, 3), "A", "B")
    variables.append(VariableSpec("H", huge))
    check_grounding(
        [
            parse_constraint("big", f"{2**62}*A > {2**62} + B"),
            parse_constraint("eq", "all_equal(H, H)"),
            parse_constraint("h", f"H + A >= {2**64}"),
        ],
        variables,
    )


def test_partition_constraint_cap():
    variables = vars_over(SymbolicDomain.from_range("bit", 0, 1), "A")
    constraints = [parse_constraint(f"c{i}", f"A + {i} >= {i + 1}") for i in range(64)]
    check_grounding(constraints[:63], variables)  # the top code bit is used
    with pytest.raises(ResourceLimitError) as exc:
        partition_solutions(constraints, variables)
    assert "63" in str(exc.value)


def test_sample_solution_uniform():
    variables = vars_over(DIGITS, "A", "B")
    cs = [parse_constraint("lt", "A < B")]
    sols = enumerate_solutions({"lt": True}, cs, variables)
    rng = np.random.default_rng(321)
    counts = {}
    n_draws = 45 * 400
    for _ in range(n_draws):
        a = sample_solution(sols, rng)
        counts[(a["A"], a["B"])] = counts.get((a["A"], a["B"]), 0) + 1
    assert set(counts) == {(a["A"], a["B"]) for a in sols}
    expected = n_draws / 45
    sigma = math.sqrt(n_draws * (1 / 45) * (1 - 1 / 45))
    assert all(abs(n - expected) < 5 * sigma for n in counts.values())


def test_sample_solution_empty_raises():
    with pytest.raises(UnsatisfiableLetterError):
        sample_solution([], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Probability under independent per-variable distributions


def uniform_dist(domain):
    return {v: 1.0 / domain.size for v in domain.values}


def test_probability_less_than_uniform():
    c = parse_constraint("lt", "Y < Z")
    dists = {"Y": uniform_dist(DIGITS), "Z": uniform_dist(DIGITS)}
    assert constraint_probability(c, dists) == pytest.approx(0.45, abs=1e-12)


def test_probability_all_equal_uniform():
    five = SymbolicDomain.from_range("five", 0, 4)
    c = parse_constraint("eq", "all_equal(A, B)")
    dists = {"A": uniform_dist(five), "B": uniform_dist(five)}
    assert constraint_probability(c, dists) == pytest.approx(0.04 * 5, abs=1e-12)


def test_probability_point_mass():
    c = parse_constraint("sum", "A + B = C")
    dists = {
        "A": {v: 1.0 if v == 3 else 0.0 for v in DIGITS.values},
        "B": {v: 1.0 if v == 4 else 0.0 for v in DIGITS.values},
        "C": {v: 1.0 if v == 7 else 0.0 for v in DIGITS.values},
    }
    assert constraint_probability(c, dists) == pytest.approx(1.0, abs=1e-12)


def test_tensor_route_matches_enumeration_route():
    rng = np.random.default_rng(2026)
    variables = vars_over(DIGITS, "A", "B", "C")
    vmap = variable_map(variables)
    for body in ["A + B = C", "all_different(A, B, C)", "all_equal(A, B, C)"]:
        c = parse_constraint("c", body)
        names, tensor = indicator_tensor(c, {n: vmap[n].domain for n in constraint_vars(c)})
        assert names == constraint_vars(c)
        assert tensor.shape == tuple(vmap[n].domain.size for n in names)
        for _ in range(25):
            raw = {n: rng.random(10) for n in names}
            dists = {
                n: dict(zip(DIGITS.values, (p / p.sum()).tolist())) for n, p in raw.items()
            }
            by_enum = constraint_probability(c, dists)
            by_tensor = tensor_probability(
                tensor, [np.array([dists[n][v] for v in DIGITS.values]) for n in names]
            )
            assert by_tensor == pytest.approx(by_enum, abs=1e-10)


def test_indicator_tensor_contents():
    c = parse_constraint("lt", "A < B")
    three = SymbolicDomain.from_range("three", 0, 2)
    names, tensor = indicator_tensor(c, {"A": three, "B": three})
    assert names == ("A", "B")
    expected = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float)
    assert np.array_equal(tensor, expected)


def test_probability_requires_valid_distribution():
    c = parse_constraint("lt", "Y < Z")
    with pytest.raises(DomainError):
        constraint_probability(c, {"Y": uniform_dist(DIGITS)})  # Z missing
    bad = {v: 0.5 for v in DIGITS.values}
    with pytest.raises(DomainError):
        constraint_probability(c, {"Y": bad, "Z": uniform_dist(DIGITS)})
    with pytest.raises(DomainError):
        constraint_probability(c, {"Y": {}, "Z": uniform_dist(DIGITS)})
    negative = dict(uniform_dist(DIGITS))
    negative[0] = -0.1
    negative[9] = 0.3
    with pytest.raises(DomainError):
        constraint_probability(c, {"Y": negative, "Z": uniform_dist(DIGITS)})


def test_random_assignment_agreement():
    # eval_constraint agrees with a hand expansion on random assignments
    rng = random.Random(888)
    c = parse_constraint("mix", "2*A - B <= 7")
    for _ in range(300):
        a = {"A": rng.randrange(10), "B": rng.randrange(10)}
        assert eval_constraint(c, a) == (2 * a["A"] - a["B"] <= 7)
