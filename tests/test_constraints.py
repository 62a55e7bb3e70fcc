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
    grid_assignments,
    grid_points,
    grid_positions,
    indicator_tensor,
    parse_constraint,
    partition_solutions,
    sample_solution,
    solution_buckets,
    tensor_probability,
    variable_map,
)
from ltlseq.errors import (
    DomainError,
    LtlseqError,
    ResourceLimitError,
    UnsatisfiableLetterError,
)

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


def test_indexed_domain_equals_a_fresh_one():
    indexed, fresh = (SymbolicDomain.from_range("digits", 0, 9) for _ in range(2))
    assert 7 in indexed and indexed.index_of(7) == 7 and indexed.label_of(3) == "3"
    assert "_value_index" in vars(indexed) and "_value_index" not in vars(fresh)
    assert indexed == fresh and hash(indexed) == hash(fresh)
    assert len({indexed, fresh}) == 1
    assert indexed._value_index is indexed._value_index  # built once, then kept
    assert "_value_index" not in repr(indexed)


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


def test_linear_terms_are_canonical_however_built():
    # repeated, unsorted and cancelling terms: the parsed form, printed alike,
    # so a spec built in Python keeps its hash through a dataset round trip
    lhs = LinearExpr(terms=(("B", 1), ("A", 2), ("B", -1), ("A", -4)), constant=7)
    assert lhs == LinearExpr(terms=(("A", -2),), constant=7)
    c = Constraint("c", Comparison(lhs=lhs, op="<", rhs=LinearExpr(terms=())))
    assert c == parse_constraint("c", constraint_text(c)) == parse_constraint("c", "7 - 2*A < 0")


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


def test_solution_bucket_codes_follow_constraint_positions():
    rng = random.Random(5505)
    unsorted = unrealizable = 0
    for _ in range(200):
        names = rng.sample("ABCD", rng.randint(0, 4))
        variables = [VariableSpec(n, rand_domain(rng, f"d{n}")) for n in names]
        n = rng.randint(1, 4)
        # names drawn in a shuffled order: bit i is constraints[i], whatever its name
        constraints = [rand_constraint(rng, f"c{i}", names) for i in rng.sample(range(n), n)]
        unsorted += [c.name for c in constraints] != sorted(c.name for c in constraints)
        buckets = solution_buckets(constraints, variables)
        want = partition_reference(constraints, variables)
        keys = [tuple(bool(code >> bit & 1) for bit in range(n)) for code in range(1 << n)]
        assert [keys[code] for code in buckets] == list(want)  # first-grid-point order
        for code, key in enumerate(keys):
            expected = [list(a.items()) for a in want.get(key, ())]
            assert (code in buckets) == bool(expected)
            got = buckets[code].materialize() if code in buckets else ()
            assert [list(a.items()) for a in got] == expected
            points = list(buckets.get(code, ()))
            assert [list(a.items()) for a in grid_assignments(points, variables)] == expected
            unrealizable += not expected
            letter = {c.name: t for c, t in zip(constraints, key)}
            assert enumerate_solutions(letter, constraints, variables) == got
        assert partition_solutions(constraints, variables) == {
            keys[code]: bucket.materialize() for code, bucket in buckets.items()
        }
    assert unsorted > 50 and unrealizable > 0
    bit = vars_over(SymbolicDomain.from_range("bit", 0, 1), "A")
    wide = [parse_constraint(f"c{i}", f"A + {i} >= {i + 1}") for i in range(63)]
    buckets = solution_buckets(wide, bit)  # 2^63 codes, two of them realizable
    assert list(buckets) == [0, (1 << 63) - 1]
    assert buckets[(1 << 63) - 1].materialize() == ({"A": 1},)
    assert enumerate_solutions({c.name: True for c in wide}, wide, bit) == ({"A": 1},)


def test_grid_points_follow_product_order():
    rng = random.Random(6606)
    for _ in range(100):
        names = rng.sample("ABCD", rng.randint(0, 4))
        variables = [VariableSpec(n, rand_domain(rng, f"d{n}")) for n in names]
        product = list(itertools.product(*(range(v.domain.size) for v in variables)))
        points = np.arange(len(product))
        positions = grid_positions(points, variables)
        assert positions.tolist() == [list(p) for p in product]
        assert grid_points(positions, variables).tolist() == points.tolist()
        assert grid_assignments(points, variables) == tuple(
            {v.name: v.domain.values[i] for v, i in zip(variables, p)} for p in product
        )
        if variables:
            for outside in (-1, len(product)):
                with pytest.raises(DomainError, match="grid points over"):
                    grid_positions([0, outside], variables)


def test_bucket_indices_count_from_either_end():
    variables = vars_over(DIGITS, "A", "B")
    bucket = solution_buckets([parse_constraint("lt", "A < B")], variables)[1]
    n = len(bucket)
    assert n == 45 and bucket[-1] == 89  # A = 8, B = 9: row 8, column 9 of the 10 x 10 grid
    assert grid_assignments([bucket[-1]], variables) == ({"A": 8, "B": 9},)
    assert bucket[-1] == bucket[n - 1] and bucket[-n] == bucket[0] == 1
    assert all(type(point) is int for point in bucket)
    for outside in (n, -n - 1):
        with pytest.raises(IndexError):
            bucket[outside]
    # iteration stops at the last point
    assert grid_assignments(list(bucket), variables) == bucket.materialize()


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
    message = (
        "grounding 64 constraints, over the cap of 63 constraints of one grounding"
        " (_MAX_PARTITION_CONSTRAINTS)"
    )
    letter = {c.name: True for c in constraints}
    _raises_exactly(ResourceLimitError, message, partition_solutions, constraints, variables)
    _raises_exactly(ResourceLimitError, message, solution_buckets, constraints, variables)
    _raises_exactly(
        ResourceLimitError, message, enumerate_solutions, letter, constraints, variables
    )


_GRID_CAP = "over the cap of 16777216 grid points (_MAX_GRID_POINTS)"
HUNDRED = SymbolicDomain.from_range("hundred", 0, 99)


def _raises_exactly(cls, message, fn, *args):
    with pytest.raises(LtlseqError) as exc:
        fn(*args)
    assert type(exc.value) is cls
    assert str(exc.value) == message


_RANGE_CAP = "over the cap of 65536 values of one range domain (_MAX_DOMAIN_VALUES)"


def test_range_domain_cap():
    _raises_exactly(
        ResourceLimitError,
        f"domain 'wide': range [0, 100000000] has 100000001 values, {_RANGE_CAP}",
        SymbolicDomain.from_range, "wide", 0, 100_000_000,
    )
    _raises_exactly(
        ResourceLimitError,
        f"domain 'wide': range [5, 16777221] has 16777217 values, {_RANGE_CAP}",
        SymbolicDomain.from_range, "wide", 5, 16777221,
    )


def test_grid_cap_on_partition_and_indicator():
    names = ["A", "B", "C", "D", "E"]
    message = (
        f"the grid of {names} over [100, 100, 100, 100, 100] values has 10000000000 points, "
        + _GRID_CAP
    )
    variables = vars_over(HUNDRED, *names)
    constraints = [parse_constraint("s", "A + B = C"), parse_constraint("l", "D < E")]
    _raises_exactly(ResourceLimitError, message, partition_solutions, constraints, variables)
    wide = parse_constraint("w", "A + B + C = D + E")
    domains = {n: HUNDRED for n in names}
    _raises_exactly(ResourceLimitError, message, indicator_tensor, wide, domains)


def test_grid_cap_boundary(monkeypatch):
    from ltlseq import constraints as cmod

    monkeypatch.setattr(cmod, "_MAX_GRID_POINTS", 12)
    three, four = SymbolicDomain.from_range("three", 0, 2), SymbolicDomain.from_range("four", 0, 3)
    c = parse_constraint("lt", "A < B")
    names, tensor = indicator_tensor(c, {"A": three, "B": four})  # 12 points: at the cap
    assert tensor.shape == (3, 4)
    assert len(partition_solutions([c], vars_over(three, "A") + vars_over(four, "B"))) == 2
    with pytest.raises(ResourceLimitError, match="has 16 points, over the cap of 12 grid"):
        indicator_tensor(c, {"A": four, "B": four})
    monkeypatch.setattr(cmod, "_MAX_DOMAIN_VALUES", 12)
    SymbolicDomain.from_range("twelve", 1, 12)
    with pytest.raises(
        ResourceLimitError, match=r"range \[0, 12\] has 13 values, over the cap of 12"
    ):
        SymbolicDomain.from_range("thirteen", 0, 12)


def test_range_domain_cap_boundary():
    from ltlseq.constraints import _MAX_DOMAIN_VALUES

    assert SymbolicDomain.from_range("cap", 3, 2 + _MAX_DOMAIN_VALUES).size == _MAX_DOMAIN_VALUES
    _raises_exactly(
        ResourceLimitError,
        f"domain 'over': range [3, 65539] has 65537 values, {_RANGE_CAP}",
        SymbolicDomain.from_range, "over", 3, 3 + _MAX_DOMAIN_VALUES,
    )
    # checked before any value is built: a range of 10^30 values fails at once
    with pytest.raises(ResourceLimitError, match="has 1000000000000000000000000000001 values"):
        SymbolicDomain.from_range("vast", 0, 10**30)


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


def test_batched_tensor_route_matches_enumeration_route():
    # each step of the batched contraction against full enumeration, over
    # range and explicit-value domains
    rng = random.Random(6420)
    np_rng = np.random.default_rng(6420)
    checked = 0
    while checked < 80:
        names = rng.sample("ABCDE", rng.randint(2, 5))
        domains = {n: rand_domain(rng, f"d{n}") for n in names}
        c = rand_constraint(rng, "c", names)
        own, tensor = indicator_tensor(c, domains)
        if len(own) < 2:
            continue
        steps = rng.randint(1, 6)
        dists = [np_rng.random((steps, domains[n].size)) for n in own]
        dists = [d / d.sum(axis=1, keepdims=True) for d in dists]
        got = tensor_probability(tensor, dists)
        assert got.shape == (steps,)
        for t in range(steps):
            want = constraint_probability(
                c, {n: dict(zip(domains[n].values, d[t].tolist())) for n, d in zip(own, dists)}
            )
            assert abs(got[t] - want) <= 1e-12, (constraint_text(c), t)
        checked += 1


def test_tensor_probability_past_sixteen_axes():
    # one axis per variable: 17 axes outrun a 16-letter subscript alphabet
    names = [f"V{i}" for i in range(17)]
    two = SymbolicDomain.from_range("two", 0, 1)
    c = parse_constraint("eq", f"all_equal({', '.join(names)})")
    _, tensor = indicator_tensor(c, dict.fromkeys(names, two))
    assert tensor.ndim == 17
    on = np.random.default_rng(17).random((3, 17))  # P(V = 1) per step and axis
    dists = [np.stack([1.0 - on[:, i], on[:, i]], axis=1) for i in range(17)]
    want = np.prod(on, axis=1) + np.prod(1.0 - on, axis=1)
    got = tensor_probability(tensor, dists)
    assert got.shape == (3,) and np.max(np.abs(got - want)) <= 1e-12
    assert abs(tensor_probability(tensor, [d[0] for d in dists]) - want[0]) <= 1e-12


@pytest.mark.parametrize("axes", [1, 2, 3, 4, 5, 17])
def test_tensor_probability_rows_do_not_depend_on_the_batch(axes):
    # each batched row is the vector contraction of its step, bit for bit,
    # and a batch of one step gives the same row as a batch of many
    np_rng = np.random.default_rng(100 + axes)
    for _ in range(3 if axes == 17 else 20):
        shape = (2,) * axes if axes == 17 else tuple(np_rng.integers(1, 7, size=axes).tolist())
        steps = int(np_rng.integers(2, 30))
        tensor = (np_rng.random(shape) < 0.5).astype(float)
        dists = [np_rng.random((steps, k)) for k in shape]
        dists = [d / d.sum(axis=1, keepdims=True) for d in dists]
        got = tensor_probability(tensor, dists)
        assert got.shape == (steps,)
        for t in range(steps):
            assert tensor_probability(tensor, [d[t] for d in dists]) == got[t], (shape, t)
            assert tensor_probability(tensor, [d[t : t + 1] for d in dists])[0] == got[t]


@pytest.mark.parametrize(
    "shape, dists, axis",
    [
        ((3, 4), [np.full(3, 1 / 3)], "axis 1 has no distribution"),
        ((3,), [np.full(3, 1 / 3)] * 2, "distribution 1 has no axis"),
        ((3, 4), [np.full(3, 1 / 3), np.full(3, 1 / 3)], "axis 1: distribution over 3 values"),
        ((3, 4), [np.full(4, 1 / 4), np.full(4, 1 / 4)], "axis 0: distribution over 4 values"),
        ((3, 4), [np.full((2, 3), 1 / 3), np.full(4, 1 / 4)], "axis 1: distribution has 1 dim"),
        ((3, 4), [np.full((2, 3), 1 / 3), np.full((5, 4), 1 / 4)], "axis 1: distribution has 5 steps"),
        ((3,), [np.full((1, 2, 3), 1 / 3)], "axis 0: distribution has 3 dim"),
        ((3,), [np.array(1.0)], "axis 0: distribution has 0 dim"),
        ((), [], "no axes"),
    ],
    ids=["missing", "extra", "short", "long", "mixed", "steps", "3-d", "scalar", "no-axes"],
)
def test_tensor_probability_rejects_distributions_that_miss_their_axes(shape, dists, axis):
    with pytest.raises(DomainError, match=axis):
        tensor_probability(np.ones(shape), dists)


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
