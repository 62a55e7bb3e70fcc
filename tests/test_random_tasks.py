"""Seeded random tasks through the whole pipeline: compile, generate, store,
load and score with every engine.

Each task draws an LTLf formula over ``p``, ``q``, ``r`` (or over one atom,
or four) from ``oracles.rand_formula`` and one random constraint per atom
over two to four variables on small domains, as ``test_constraints`` builds
them.  Samples are checked against the direct semantics in ``oracles``, not
against the package's own bookkeeping.  Noisy oracles must give metrics in
[0, 1], or fail with a typed error.
"""

import random

import pytest

from ltlseq.constraints import VariableSpec
from ltlseq.errors import LtlseqError, TaskCompileError
from ltlseq.formulas import print_formula
from ltlseq.generator import deserialize, generate_dataset, serialize
from ltlseq.harness import (
    METRIC_COLUMNS,
    ORACLE_TARGETS,
    OracleConfig,
    _split_arrays,
    oracle_sweep,
)
from ltlseq.inference import ENGINE_NAMES
from ltlseq.tasks import TaskSpec, compile_task
from oracles import (
    ATOMS,
    constraint_holds,
    holds,
    rand_formula,
    sequences_csv_reference,
    split_labels_reference,
)
from test_constraints import rand_constraint, rand_domain
from test_generator import reference_splits

SEEDS = range(100)
# one atom, and four: the alphabet's edges around p, q, r
ATOM_SETS = {"1": ATOMS[:1], "4": [*ATOMS, "s"]}
NOISY = [
    OracleConfig(target, kind, p)
    for target in ORACLE_TARGETS
    for kind in ("flip", "confidence")
    for p in (0.1, 0.5)
]


def rand_task(rng, name, seed, atoms=ATOMS):
    """(spec, formula): a random task whose constraints are named after ``atoms``."""
    names = [f"V{i}" for i in range(rng.randint(2, 4))]
    domains = [rand_domain(rng, f"d{n}") for n in names]
    formula = rand_formula(rng, rng.randint(1, 3), atoms)
    min_length = rng.randint(1, 3)
    spec = TaskSpec(
        name=name,
        domains=tuple(domains),
        variables=tuple(VariableSpec(n, d) for n, d in zip(names, domains)),
        constraints=tuple(rand_constraint(rng, atom, names) for atom in atoms),
        formula=print_formula(formula),
        min_length=min_length,
        max_length=min_length + rng.randint(0, 3),
        splits=(6, 3, 3),
        seed=seed,
    )
    return spec, formula


def realizable_task(seed, atoms=ATOMS):
    """(spec, formula, compiled task) of the first of ``seed``'s draws that
    compiles.  Most draws cannot be realized at some (label, length) pair;
    compiling them may raise TaskCompileError and nothing else."""
    rng = random.Random(seed)
    for draw in range(100):
        spec, formula = rand_task(rng, f"rand{seed}-{draw}", seed, atoms)
        try:
            return spec, formula, compile_task(spec)
        except TaskCompileError:
            continue
    raise AssertionError(f"no realizable task in 100 draws of seed {seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_random_task_end_to_end(tmp_path, seed):
    check_end_to_end(tmp_path, seed, ATOMS)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("n_atoms", list(ATOM_SETS))
def test_random_task_over_one_or_four_atoms(tmp_path, n_atoms, seed):
    check_end_to_end(tmp_path, seed, ATOM_SETS[n_atoms])


def check_end_to_end(tmp_path, seed, atoms):
    spec, formula, task = realizable_task(seed, atoms)
    constraints = {c.name: c for c in spec.constraints}
    ds = generate_dataset(task)
    assert ds.splits == reference_splits(task)  # the lockstep walk against the scalar one
    for split, sample in ds:
        assert sample.length == len(sample.truths) == len(sample.states)
        assert spec.min_length <= sample.length <= spec.max_length
        for values, truths in zip(sample.values, sample.truths):
            assert truths == {a: constraint_holds(constraints[a], values) for a in atoms}
        trace = list(sample.truths)
        assert holds(formula, trace, 0) == bool(sample.label), (split, sample.seq_id)
        letters = [sum(1 << i for i, a in enumerate(task.atoms) if t[a]) for t in trace]
        assert task.dfa.run(letters) == list(sample.states), (split, sample.seq_id)
    serialize(ds, tmp_path)
    assert (tmp_path / "sequences.csv").read_bytes() == sequences_csv_reference(ds)
    loaded = deserialize(tmp_path, verify=True)
    assert loaded.splits == ds.splits
    for dataset in (ds, loaded):
        for split in ("train", "val", "test"):
            labels = _split_arrays(task, dataset, split).labels
            reference = split_labels_reference(task, dataset.splits[split])
            assert (labels == reference).all(), split
    rows = oracle_sweep(task, ds, [OracleConfig()], engines=ENGINE_NAMES, seeds=(1,))
    assert [row["engine"] for row in rows] == list(ENGINE_NAMES)
    for row in rows:
        assert row["cc_acc"] == row["nsp_acc"] == row["sc_acc"] == 1.0, row


@pytest.mark.parametrize("seed", range(24))
def test_random_task_noisy_oracles(seed):
    """Flip and confidence oracles at p = 0.1 and 0.5 on both targets: every
    metric lies in [0, 1] and ``ic_acc`` is None exactly for ``ic_cc``.  The
    one typed failure allowed: an ``ic`` oracle over a one-value domain,
    which has no wrong class to pick."""
    atoms = [ATOM_SETS["1"], ATOMS, ATOM_SETS["4"]][seed % 3]
    spec, formula, task = realizable_task(seed, atoms)
    one_class = min(v.domain.size for v in spec.variables) < 2
    ds = generate_dataset(task)
    for config in NOISY:
        try:
            rows = oracle_sweep(task, ds, [config], engines=ENGINE_NAMES, seeds=(1,))
        except LtlseqError as err:
            assert config.target == "ic" and one_class, err
            assert str(err) == "class count must be >= 2, got 1"
            continue
        assert [row["engine"] for row in rows] == list(ENGINE_NAMES)
        for row in rows:
            assert (row["ic_acc"] is None) == (config.target == "ic_cc"), row
            for column in METRIC_COLUMNS:
                assert row[column] is None or 0.0 <= row[column] <= 1.0, (column, row)
