"""Parser, printer, NNF, and progression tests for the LTLf formula core."""

import copy
import gc
import pickle
import random
import tracemalloc
import weakref

import pytest

from ltlseq.automata import assignment_of
from ltlseq.errors import DomainError, LtlfSyntaxError, UnknownTokenError
from ltlseq.formulas import (
    FALSE,
    NONEMPTY,
    TRUE,
    And,
    Atom,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    ProgressionMemo,
    Release,
    Until,
    WeakNext,
    eval_empty,
    parse,
    print_formula,
    progress,
    state_form,
    to_nnf,
)

from oracles import ATOMS, holds, rand_formula, rand_trace

# ---------------------------------------------------------------------------
# Parsing and printing


def test_parse_task_formulas():
    assert parse("G(p <-> X X q)") == Globally(Iff(Atom("p"), Next(Next(Atom("q")))))
    assert parse("G((p & X p & X X p) -> X X X q)") == Globally(
        Implies(
            And(And(Atom("p"), Next(Atom("p"))), Next(Next(Atom("p")))),
            Next(Next(Next(Atom("q")))),
        )
    )
    assert parse("F p & (q U X p)") == And(
        Finally(Atom("p")), Until(Atom("q"), Next(Atom("p")))
    )
    assert parse("G(p <-> WX !p)") == Globally(Iff(Atom("p"), WeakNext(Not(Atom("p")))))
    assert parse("G(p <-> X q)") == Globally(Iff(Atom("p"), Next(Atom("q"))))
    assert parse("p & G(p <-> X q)") == And(
        Atom("p"), Globally(Iff(Atom("p"), Next(Atom("q"))))
    )


def test_parse_precedence_and_associativity():
    # unary operators bind tighter than binary ones
    assert parse("X p & q") == And(Next(Atom("p")), Atom("q"))
    assert parse("!p & q") == And(Not(Atom("p")), Atom("q"))
    # & binds tighter than |, which binds tighter than -> and <->
    assert parse("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p | q -> r") == Implies(Or(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p -> q <-> r") == Iff(Implies(Atom("p"), Atom("q")), Atom("r"))
    # U and R are right associative
    assert parse("p U q U r") == Until(Atom("p"), Until(Atom("q"), Atom("r")))
    assert parse("p R q R r") == Release(Atom("p"), Release(Atom("q"), Atom("r")))
    assert parse("p <-> q <-> r") == Iff(Atom("p"), Iff(Atom("q"), Atom("r")))


def test_parse_unicode_aliases():
    assert parse("◇ p") == Finally(Atom("p"))
    assert parse("□ p") == Globally(Atom("p"))
    assert parse("◯ p") == Next(Atom("p"))
    assert parse("○ p") == Next(Atom("p"))


def test_print_parenthesizes_only_when_needed():
    assert print_formula(parse("p & (q | r)")) == "p & (q | r)"
    assert print_formula(parse("(p & q) | r")) == "p & q | r"
    assert print_formula(Until(Until(Atom("p"), Atom("q")), Atom("r"))) == "(p U q) U r"
    assert print_formula(parse("G(p <-> X X q)")) == "G (p <-> X X q)"
    assert print_formula(Not(And(Atom("p"), Atom("q")))) == "!(p & q)"


def test_round_trip_structural_equality():
    rng = random.Random(20260816)
    for _ in range(400):
        f = rand_formula(rng, 3)
        assert parse(print_formula(f)) == f


# ---------------------------------------------------------------------------
# Interning


def test_equal_formulas_are_one_object():
    p, q = Atom("p"), Atom("q")
    assert Atom("p") is p
    assert And(p, q) is And(p, q)
    assert And(left=p, right=q) is And(p, q)
    assert And(p, q) is not And(q, p)
    assert Finally(TRUE) is NONEMPTY
    assert hash(Until(p, q)) == hash(Until(Atom("p"), Atom("q")))
    rng = random.Random(606)
    for _ in range(300):
        f = rand_formula(rng, 3)
        assert parse(str(f)) is f
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert copy.deepcopy([f, f])[1] is f
        assert pickle.loads(pickle.dumps(f)) is f


def test_formulas_are_immutable():
    f = And(Atom("p"), Atom("q"))
    with pytest.raises(AttributeError):
        f.left = Atom("r")
    with pytest.raises(AttributeError):
        del f.right
    assert repr(f) == "And(left=Atom(name='p'), right=Atom(name='q'))"
    assert repr(TRUE) == "TrueF()"


def test_unique_table_does_not_keep_formulas_alive():
    f = Until(Atom("interning_probe_a"), Next(Atom("interning_probe_b")))
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    # rebuilding it gives a fresh, equal node
    g = Until(Atom("interning_probe_a"), Next(Atom("interning_probe_b")))
    assert str(g) == "interning_probe_a U X interning_probe_b"


def test_atoms_collection():
    f = parse("G((p & X p & X X p) -> X X X q)")
    assert f.atoms() == frozenset({"p", "q"})
    assert TRUE.atoms() == frozenset()


def test_parse_errors_report_location():
    with pytest.raises(LtlfSyntaxError) as exc:
        parse("p &")
    assert exc.value.line == 1 and exc.value.column == 4
    assert "atom" in exc.value.expected

    with pytest.raises(LtlfSyntaxError) as exc:
        parse("(p")
    assert exc.value.expected == frozenset({")"})

    with pytest.raises(LtlfSyntaxError) as exc:
        parse("p q")
    assert exc.value.column == 3
    assert exc.value.expected == frozenset({"end of input"})

    with pytest.raises(LtlfSyntaxError) as exc:
        parse("")
    assert exc.value.line == 1 and exc.value.column == 1

    # locations track newlines
    with pytest.raises(LtlfSyntaxError) as exc:
        parse("p\n& (q")
    assert exc.value.line == 2 and exc.value.column == 5


def test_unknown_token_error():
    with pytest.raises(UnknownTokenError) as exc:
        parse("p $ q")
    assert exc.value.line == 1 and exc.value.column == 3
    assert "$" in str(exc.value)


def test_keywords_are_not_atoms():
    with pytest.raises(LtlfSyntaxError):
        parse("U")
    assert parse("true") == TRUE
    assert parse("false") == FALSE


# ---------------------------------------------------------------------------
# NNF


def test_nnf_removes_negation_on_composites():
    rng = random.Random(4242)
    for _ in range(300):
        f = rand_formula(rng, 3)
        g = to_nnf(f)
        stack = [g]
        while stack:
            node = stack.pop()
            if isinstance(node, (Implies, Iff)):
                raise AssertionError(f"NNF kept {type(node).__name__}: {node}")
            if isinstance(node, Not):
                assert isinstance(node.child, Atom), print_formula(g)
                continue
            for attr in ("child", "left", "right"):
                sub = getattr(node, attr, None)
                if sub is not None:
                    stack.append(sub)


def test_nnf_preserves_semantics():
    rng = random.Random(31337)
    for _ in range(500):
        f = rand_formula(rng, 3)
        g = to_nnf(f)
        trace = rand_trace(rng, rng.randrange(1, 7))
        assert holds(g, trace, 0) == holds(f, trace, 0), print_formula(f)


def test_nnf_dualities():
    assert to_nnf(Not(Next(Atom("p")))) == WeakNext(Not(Atom("p")))
    assert to_nnf(Not(WeakNext(Atom("p")))) == Next(Not(Atom("p")))
    assert to_nnf(Not(Finally(Atom("p")))) == Globally(Not(Atom("p")))
    assert to_nnf(Not(Globally(Atom("p")))) == Finally(Not(Atom("p")))
    assert to_nnf(Not(Until(Atom("p"), Atom("q")))) == Release(
        Not(Atom("p")), Not(Atom("q"))
    )
    assert to_nnf(Not(Release(Atom("p"), Atom("q")))) == Until(
        Not(Atom("p")), Not(Atom("q"))
    )
    assert to_nnf(Not(Not(Atom("p")))) == Atom("p")


# ---------------------------------------------------------------------------
# Progression and empty-trace evaluation


def test_progression_matches_direct_semantics():
    rng = random.Random(99)
    for _ in range(2000):
        f = rand_formula(rng, 3)
        trace = rand_trace(rng, rng.randrange(1, 7))
        g = to_nnf(f)
        for letter in trace:
            g = progress(g, letter)
        assert eval_empty(g) == holds(f, trace, 0), print_formula(f)


def test_progression_strong_next_needs_successor():
    # X p is false on a one-letter trace no matter the letter
    g = progress(to_nnf(Next(Atom("p"))), {"p": True})
    assert eval_empty(g) is False
    # WX p is true on a one-letter trace no matter the letter
    g = progress(to_nnf(WeakNext(Atom("p"))), {"p": False})
    assert eval_empty(g) is True


def test_progress_requires_assignment_for_every_atom():
    with pytest.raises(DomainError):
        progress(to_nnf(And(Atom("p"), Atom("q"))), {"p": True})


def test_progress_reads_only_the_atoms_it_needs():
    # a next operator defers its operand, so the letter need not assign it
    assert progress(Next(Atom("p")), {}) is And(NONEMPTY, Atom("p"))
    with pytest.raises(DomainError):
        progress(Globally(Or(Next(Atom("p")), Atom("q"))), {"p": True})


def _error(thunk):
    try:
        thunk()
    except (DomainError, ValueError) as err:
        return type(err), str(err)
    return None


def test_progress_and_table_fail_alike():
    # On alphabets lacking one or two atoms, and on formulas not in NNF, the
    # scalar progression and the table raise the same error: both read the
    # right operand of U/R first and never the operand of X/WX.
    rng = random.Random(4713)
    alphabets = [("p", "q"), ("p", "r"), ("q", "r"), ("p",), ("q",), ("r",)]
    memos = {atoms: ProgressionMemo(atoms) for atoms in alphabets}
    kinds = set()
    for i in range(300):
        f = rand_formula(rng, 3)
        if i % 2:
            f = to_nnf(f)
        atoms = rng.choice(alphabets)
        error = _error(lambda: memos[atoms].table(f))
        for letter in range(1 << len(atoms)):
            assignment = assignment_of(letter, atoms)
            assert _error(lambda: progress(f, assignment)) == error, str(f)
        kinds.add(error and error[0])
    assert kinds == {None, DomainError, ValueError}


def test_progress_step_stays_small_on_a_22_atom_letter():
    # One scalar step on a 22-atom letter must not tabulate 2^22 letters.
    atoms = [f"a{i}" for i in range(11)], [f"b{i}" for i in range(11)]
    f = to_nnf(parse(" & ".join(f"G({a} -> F {b})" for a, b in zip(*atoms))))
    letter = {x: False for x in atoms[0] + atoms[1]}
    tracemalloc.start()
    try:
        progress(f, letter)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _subformulas(f):
    yield f
    for name in f._fields:
        child = getattr(f, name)
        if isinstance(child, Formula):
            yield from _subformulas(child)


def test_table_cells_are_scalar_progressions():
    # Every subformula of states reached over p, q, r: each cell is the very
    # object the scalar progression gives, and the distinct outputs are
    # listed once each, in the order of their first letter.
    letters = [assignment_of(letter, ATOMS) for letter in range(1 << len(ATOMS))]
    memo = ProgressionMemo(ATOMS)
    rng = random.Random(4712)
    for _ in range(150):
        frontier = [state_form(to_nnf(rand_formula(rng, 3)))]
        for _ in range(2):
            successors = []
            for g in frontier:
                for sub in _subformulas(g):
                    outs, ids = memo.table(sub)
                    cells = [outs[i] for i in ids]
                    for cell, letter in zip(cells, letters, strict=True):
                        assert cell is progress(sub, letter), (str(sub), letter)
                    assert outs == list(dict.fromkeys(cells))
                successors += [state_form(raw) for raw in memo.table(g)[0]]
            frontier = rng.sample(successors, min(3, len(successors)))


def test_table_rejects_non_nnf_and_bad_alphabets():
    with pytest.raises(DomainError, match=r"atoms repeat: \['a', 'a', 'b'\]"):
        ProgressionMemo(["a", "a", "b"])
    memo = ProgressionMemo(ATOMS)
    with pytest.raises(ValueError):
        memo.table(Not(And(Atom("p"), Atom("q"))))
    with pytest.raises(ValueError):
        memo.table(Implies(Atom("p"), Atom("q")))
    with pytest.raises(DomainError):
        memo.table(Globally(Or(Atom("p"), Atom("s"))))


def test_progress_rejects_non_nnf():
    with pytest.raises(ValueError):
        progress(Not(And(Atom("p"), Atom("q"))), {"p": True, "q": True})
    with pytest.raises(ValueError):
        progress(Implies(Atom("p"), Atom("q")), {"p": True, "q": True})


def test_eval_empty_base_cases():
    assert eval_empty(TRUE) is True
    assert eval_empty(FALSE) is False
    assert eval_empty(Atom("p")) is False
    assert eval_empty(Not(Atom("p"))) is False
    assert eval_empty(Next(TRUE)) is False
    assert eval_empty(WeakNext(FALSE)) is True
    assert eval_empty(Finally(TRUE)) is False
    assert eval_empty(Globally(FALSE)) is True
    assert eval_empty(Until(TRUE, TRUE)) is False
    assert eval_empty(Release(FALSE, FALSE)) is True
    assert eval_empty(And(TRUE, Globally(Atom("p")))) is True
    assert eval_empty(Or(Atom("p"), WeakNext(Atom("q")))) is True


def test_eval_empty_rejects_non_nnf():
    with pytest.raises(ValueError):
        eval_empty(Not(Next(Atom("p"))))


# ---------------------------------------------------------------------------
# Canonical state form


def test_state_form_is_boolean_canonical():
    p, q = Atom("p"), Finally(Atom("q"))
    # absorption across alternating And/Or that plain flattening cannot see
    nested = Or(p, And(q, Or(p, And(q, Until(Atom("p"), Atom("q"))))))
    flat = Or(p, And(q, Until(Atom("p"), Atom("q"))))
    assert state_form(nested) == state_form(flat)
    # idempotent
    assert state_form(state_form(nested)) == state_form(nested)
    assert state_form(TRUE) == TRUE
    assert state_form(FALSE) == FALSE
    assert state_form(And(p, Not(p))) == FALSE


def test_state_form_preserves_semantics():
    rng = random.Random(7777)
    for _ in range(400):
        f = to_nnf(rand_formula(rng, 3))
        g = state_form(f)
        trace = rand_trace(rng, rng.randrange(1, 6))
        assert holds(g, trace, 0) == holds(f, trace, 0), print_formula(f)


def test_state_model_cap_names_itself(monkeypatch):
    from ltlseq import formulas
    from ltlseq.errors import ResourceLimitError

    f = to_nnf(parse("F a | F b | F c"))  # three minimal models, one per disjunct
    monkeypatch.setattr(formulas, "_MAX_STATE_MODELS", 3)
    assert state_form(f) is f
    monkeypatch.setattr(formulas, "_MAX_STATE_MODELS", 2)
    with pytest.raises(ResourceLimitError) as exc:
        state_form(f)
    assert str(exc.value) == (
        "a state form has 3 candidate models, over the cap of 2 models of one state form"
        " (_MAX_STATE_MODELS)"
    )


def test_state_form_keeps_progression_bounded():
    # without canonicalization this progression grows without bound under
    # the all-false letter
    f = to_nnf(parse("(G true -> r R false) U (F p & !r)"))
    g = state_form(f)
    letter = {"p": False, "r": False}
    sizes = set()
    for _ in range(50):
        g = state_form(progress(g, letter))
        sizes.add(print_formula(g))
    assert len(sizes) <= 3
