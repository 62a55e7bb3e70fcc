"""Semirings, next-state formulas, and sd-DNNF compilation/counting."""

import math
import random

import numpy as np
import pytest

from ltlseq.automata import assignment_of, ltlf_to_dfa
from ltlseq.circuits import (
    LOGPROB,
    PROB,
    amc,
    brute_force_wmc,
    compile_sddnnf,
    fuzzy_eval,
    next_state_formulas,
    smooth,
    state_var,
)
from ltlseq.errors import DomainError, ResourceLimitError
from ltlseq.formulas import parse
from ltlseq.props import (
    PFALSE,
    PTRUE,
    PAnd,
    PNot,
    POr,
    PVar,
    all_assignments,
    eval_prop,
    pand,
    pnot,
    por,
    prop_vars,
    simplify,
)

VARS = ["a", "b", "c", "d", "e", "f"]


def rand_prop(rng, depth, vars=VARS):
    if depth == 0:
        return rng.choice([PTRUE, PFALSE] + [PVar(v) for v in vars])
    k = rng.randrange(6)
    sub = lambda: rand_prop(rng, depth - 1, vars)
    if k == 0:
        return PVar(rng.choice(vars))
    if k == 1:
        return pnot(sub())
    if k <= 3:
        return pand([sub(), sub()])
    return por([sub(), sub()])


def prob_weights(rng, names, s):
    out = {}
    for v in names:
        p = rng.uniform(0.05, 0.95)
        out[(v, True)] = s.from_prob(p)
        out[(v, False)] = s.from_prob(1.0 - p)
    return out


def node_truths(circuit, assignment):
    vals = []
    for node in circuit.nodes:
        kind = node[0]
        if kind == "true":
            vals.append(True)
        elif kind == "false":
            vals.append(False)
        elif kind == "lit":
            vals.append(assignment[node[1]] == node[2])
        elif kind == "and":
            vals.append(all(vals[k] for k in node[1]))
        else:
            vals.append(any(vals[k] for k in node[1]))
    return vals


# ---------------------------------------------------------------------------
# Semirings


def test_semiring_laws():
    rng = random.Random(5)
    for s in (PROB, LOGPROB):
        for _ in range(200):
            x, y, z = (s.from_prob(rng.uniform(0.01, 1.0)) for _ in range(3))
            assert s.plus(x, y) == pytest.approx(s.plus(y, x))
            assert s.times(x, y) == pytest.approx(s.times(y, x))
            assert s.plus(s.plus(x, y), z) == pytest.approx(s.plus(x, s.plus(y, z)))
            assert s.times(s.times(x, y), z) == pytest.approx(
                s.times(x, s.times(y, z)), rel=1e-12
            )
            assert s.times(x, s.plus(y, z)) == pytest.approx(
                s.plus(s.times(x, y), s.times(x, z)), rel=1e-9
            )
            assert s.plus(x, s.zero) == pytest.approx(x)
            assert s.times(x, s.one) == pytest.approx(x)
            assert s.times(x, s.zero) == s.zero


def test_semiring_injection():
    assert PROB.from_prob(0.25) == 0.25
    assert LOGPROB.from_prob(0.25) == pytest.approx(math.log(0.25), abs=1e-15)
    assert LOGPROB.from_prob(0.0) == float("-inf")
    assert LOGPROB.from_prob(1.0) == 0.0


# ---------------------------------------------------------------------------
# Next-state formulas


def test_next_state_formulas_match_transitions():
    for text in ["F p", "G(p <-> X q)", "G(p <-> X X q)"]:
        dfa = ltlf_to_dfa(parse(text))
        formulas = next_state_formulas(dfa)
        assert len(formulas) == dfa.n_states
        for source in range(dfa.n_states):
            for letter in range(dfa.n_letters):
                assignment = assignment_of(letter, dfa.atoms)
                assignment.update(
                    {state_var(s): s == source for s in range(dfa.n_states)}
                )
                target = dfa.transitions[source][letter]
                for candidate in range(dfa.n_states):
                    value = eval_prop(formulas[candidate], assignment)
                    assert value == (candidate == target)


# ---------------------------------------------------------------------------
# Compilation: equivalence, determinism, decomposability, smoothing


def test_compiled_circuit_is_equivalent():
    rng = random.Random(11)
    for _ in range(150):
        f = rand_prop(rng, 3)
        c = compile_sddnnf(f)
        for assignment in all_assignments(prop_vars(f)):
            assert node_truths(c, assignment)[c.root] == eval_prop(f, assignment)


def test_compiled_circuit_is_decomposable():
    rng = random.Random(12)
    for _ in range(150):
        c = compile_sddnnf(rand_prop(rng, 3))
        for i, node in enumerate(c.nodes):
            if node[0] != "and":
                continue
            union = set()
            for k in node[1]:
                assert not (union & c.scopes[k]), "And children share variables"
                union |= c.scopes[k]


def test_compiled_circuit_is_deterministic():
    rng = random.Random(13)
    for _ in range(100):
        f = rand_prop(rng, 3, vars=VARS[:4])
        c = compile_sddnnf(f)
        names = sorted(prop_vars(f))
        for assignment in all_assignments(names):
            vals = node_truths(c, assignment)
            for node in c.nodes:
                if node[0] == "or":
                    assert sum(vals[k] for k in node[1]) <= 1, "Or children overlap"


def test_smooth_aligns_scopes():
    rng = random.Random(14)
    for _ in range(100):
        f = rand_prop(rng, 3)
        c = smooth(compile_sddnnf(f))
        for node in c.nodes:
            if node[0] == "or":
                scopes = [c.scopes[k] for k in node[1]]
                assert all(sc == scopes[0] for sc in scopes)


def test_smooth_preserves_counts_and_adds_names():
    rng = random.Random(15)
    for _ in range(60):
        f = rand_prop(rng, 3)
        c = compile_sddnnf(f)
        extra = {"z1", "z2"}
        sm = smooth(c, names=extra)
        if sm.nodes[sm.root][0] != "false":  # padding on false is absorbed
            assert extra <= sm.scope
        names = prop_vars(f) | extra
        w = prob_weights(random.Random(16), names, PROB)
        assert amc(sm, w, PROB) == pytest.approx(
            brute_force_wmc(f, w, PROB, names=names), abs=1e-12
        )


def test_amc_matches_brute_force_wmc():
    rng = random.Random(2024)
    for _ in range(200):
        f = rand_prop(rng, 3)
        names = prop_vars(f)
        c = smooth(compile_sddnnf(f))
        w_p = prob_weights(rng, names, PROB)
        assert amc(c, w_p, PROB) == pytest.approx(
            brute_force_wmc(f, w_p, PROB), abs=1e-9
        )
        w_lp = {k: LOGPROB.from_prob(v) for k, v in w_p.items()}
        got = amc(c, w_lp, LOGPROB)
        want = brute_force_wmc(f, w_lp, LOGPROB)
        assert math.exp(got) == pytest.approx(math.exp(want), rel=1e-6, abs=1e-12)


def test_amc_with_unnormalized_weights_counts_models():
    # weights of 1 for both polarities turn AMC into plain model counting
    f = por([pand([PVar("a"), PVar("b")]), PVar("c")])
    c = smooth(compile_sddnnf(f))
    w = {(v, pol): 1.0 for v in "abc" for pol in (True, False)}
    models = sum(
        eval_prop(f, assignment) for assignment in all_assignments(["a", "b", "c"])
    )
    assert amc(c, w, PROB) == pytest.approx(models)
    assert models == 5


def test_amc_missing_weight():
    c = smooth(compile_sddnnf(pnot(PVar("a"))))
    with pytest.raises(DomainError) as exc:
        amc(c, {("a", True): 0.5}, PROB)
    assert "!a" in str(exc.value)


def test_compile_variable_cap():
    f = pand([PVar(f"v{i}") for i in range(31)])
    with pytest.raises(
        ResourceLimitError,
        match=r"^formula has 31 variables, over the cap of 30 variables of one compiled "
        r"circuit \(max_vars\)$",
    ):
        compile_sddnnf(f)
    with pytest.raises(ResourceLimitError, match=r"over the cap of 8 variables .*\(max_vars\)$"):
        compile_sddnnf(f, max_vars=8)
    compile_sddnnf(f, max_vars=31)  # the cap itself compiles


def test_brute_force_variable_cap():
    f = pand([PVar(f"v{i}") for i in range(21)])
    with pytest.raises(
        ResourceLimitError,
        match=r"^model count over 21 variables, over the cap of 20 variables of one "
        r"brute-force enumeration \(max_vars\)$",
    ):
        brute_force_wmc(f, {}, PROB)
    # names outside the formula count toward the cap
    with pytest.raises(ResourceLimitError, match=r"over 3 variables, over the cap of 2 "):
        brute_force_wmc(PVar("a"), {}, PROB, names=["b", "c"], max_vars=2)


# ---------------------------------------------------------------------------
# Fuzzy evaluation


def test_fuzzy_matches_wmc_when_clauses_are_disjoint():
    # an Or of full minterms has pairwise-disjoint clauses, so the structural
    # evaluation and the weighted model count coincide for any weights
    rng = random.Random(77)
    names = ["a", "b", "c", "d"]
    for _ in range(80):
        chosen = [m for m in range(16) if rng.random() < 0.4]
        minterms = [
            pand([PVar(v) if m >> i & 1 else pnot(PVar(v)) for i, v in enumerate(names)])
            for m in chosen
        ]
        f = POr(tuple(minterms)) if minterms else PFALSE
        w = prob_weights(rng, names, PROB)
        assert fuzzy_eval(f, w, PROB) == pytest.approx(
            brute_force_wmc(f, w, PROB, names=names), abs=1e-12
        )


def test_fuzzy_overcounts_overlapping_clauses():
    # a | a has one model over {a}, but structural evaluation adds twice
    f = POr((PVar("a"), PVar("a")))
    w = {("a", True): 0.6, ("a", False): 0.4}
    assert fuzzy_eval(f, w, PROB) == pytest.approx(1.2)
    c = smooth(compile_sddnnf(por([PVar("a"), PVar("a")])))
    assert amc(c, w, PROB) == pytest.approx(0.6)


def test_fuzzy_rejects_negation_on_composite():
    f = PNot(PAnd((PVar("a"), PVar("b"))))
    w = {(v, pol): 0.5 for v in "ab" for pol in (True, False)}
    with pytest.raises(DomainError):
        fuzzy_eval(f, w, PROB)


def test_fuzzy_logprob_route():
    f = pand([PVar("a"), PVar("b")])
    w = {
        ("a", True): math.log(0.5),
        ("b", True): math.log(0.5),
        ("a", False): math.log(0.5),
        ("b", False): math.log(0.5),
    }
    assert fuzzy_eval(f, w, LOGPROB) == pytest.approx(math.log(0.25), abs=1e-12)


# ---------------------------------------------------------------------------
# Propositional helpers


def test_simplify_preserves_truth_tables():
    rng = random.Random(31415)
    for _ in range(200):
        f = rand_prop(rng, 3)
        g = simplify(f)
        for assignment in all_assignments(prop_vars(f)):
            assert eval_prop(g, assignment) == eval_prop(f, assignment)


def test_canonical_constructors():
    a, b = PVar("a"), PVar("b")
    assert pand([a, PTRUE]) == a
    assert pand([a, PFALSE]) == PFALSE
    assert por([a, PTRUE]) == PTRUE
    assert por([a, PFALSE]) == a
    assert pand([a, a]) == a
    assert por([a, pnot(a)]) == PTRUE
    assert pand([a, pnot(a)]) == PFALSE
    assert pnot(pnot(a)) == a
    assert pand([a, b]) == pand([b, a])
