"""Seeded random tasks through the whole pipeline: compile, generate, store,
load and score with every engine.

Each task draws an LTLf formula over ``p``, ``q``, ``r`` from
``oracles.rand_formula`` and one random constraint per atom over two to four
variables on small domains, as ``test_constraints`` builds them.  Samples are
checked against the direct semantics in ``oracles``, not against the
package's own bookkeeping.
"""

import random

import pytest

from ltlseq.constraints import VariableSpec
from ltlseq.errors import TaskCompileError
from ltlseq.formulas import print_formula
from ltlseq.generator import deserialize, generate_dataset, serialize
from ltlseq.harness import OracleConfig, oracle_sweep
from ltlseq.inference import ENGINE_NAMES
from ltlseq.tasks import TaskSpec, compile_task
from oracles import ATOMS, constraint_holds, holds, rand_formula
from test_constraints import rand_constraint, rand_domain

SEEDS = range(100)


def rand_task(rng, name, seed):
    """(spec, formula): a random task whose constraints are named p, q, r."""
    names = [f"V{i}" for i in range(rng.randint(2, 4))]
    domains = [rand_domain(rng, f"d{n}") for n in names]
    formula = rand_formula(rng, rng.randint(1, 3))
    min_length = rng.randint(1, 3)
    spec = TaskSpec(
        name=name,
        domains=tuple(domains),
        variables=tuple(VariableSpec(n, d) for n, d in zip(names, domains)),
        constraints=tuple(rand_constraint(rng, atom, names) for atom in ATOMS),
        formula=print_formula(formula),
        min_length=min_length,
        max_length=min_length + rng.randint(0, 3),
        splits=(6, 3, 3),
        seed=seed,
    )
    return spec, formula


def realizable_task(seed):
    """(spec, formula, compiled task) of the first of ``seed``'s draws that
    compiles.  Most draws cannot be realized at some (label, length) pair;
    compiling them may raise TaskCompileError and nothing else."""
    rng = random.Random(seed)
    for draw in range(100):
        spec, formula = rand_task(rng, f"rand{seed}-{draw}", seed)
        try:
            return spec, formula, compile_task(spec)
        except TaskCompileError:
            continue
    raise AssertionError(f"no realizable task in 100 draws of seed {seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_random_task_end_to_end(tmp_path, seed):
    spec, formula, task = realizable_task(seed)
    constraints = {c.name: c for c in spec.constraints}
    ds = generate_dataset(task)
    for split, sample in ds:
        assert sample.length == len(sample.truths) == len(sample.states)
        assert spec.min_length <= sample.length <= spec.max_length
        for values, truths in zip(sample.values, sample.truths):
            assert truths == {a: constraint_holds(constraints[a], values) for a in ATOMS}
        trace = list(sample.truths)
        assert holds(formula, trace, 0) == bool(sample.label), (split, sample.seq_id)
        letters = [sum(1 << i for i, a in enumerate(task.atoms) if t[a]) for t in trace]
        assert task.dfa.run(letters) == list(sample.states), (split, sample.seq_id)
    serialize(ds, tmp_path)
    assert deserialize(tmp_path, verify=True).splits == ds.splits
    rows = oracle_sweep(task, ds, [OracleConfig()], engines=ENGINE_NAMES, seeds=(1,))
    assert [row["engine"] for row in rows] == list(ENGINE_NAMES)
    for row in rows:
        assert row["cc_acc"] == row["nsp_acc"] == row["sc_acc"] == 1.0, row
