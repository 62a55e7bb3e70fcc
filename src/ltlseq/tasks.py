"""Task specifications and their compilation into annotated automata.

A task couples an LTLf formula with the constraints grounding its atoms and
the variables/domains the constraints range over.  ``compile_task`` turns a
spec into everything sequence generation and inference need: the minimized
DFA, the ``constraints.solution_buckets`` of the constraints sorted by name
(whose truth codes are the letters), and exact-length reachability tables.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, TypeVar

import numpy as np
import yaml

from . import formulas as fm
from .automata import Dfa, letter_of, ltlf_to_dfa
from .constraints import (
    Constraint,
    SolutionBucket,
    SymbolicDomain,
    VariableSpec,
    constraint_text,
    constraint_vars,
    indicator_tensor,
    parse_constraint,
    partition_solutions,  # noqa: F401  (kept importable here: perfbench's tracer patches it)
    solution_buckets,
    variable_map,
)
from .errors import DomainError, LtlseqError, TaskCompileError, TaskFileError

SPLIT_NAMES = ("train", "val", "test")

# compile_task builds one reach row per step up to max_length: task1 takes
# 0.02 s at 10^4 steps, and its table at 10^5 peaks at 1.6 MB (2-core Xeon)
_MAX_LENGTH = 10_000

_T = TypeVar("_T")


def read_input(path: str | Path, parse: Callable[[str], _T], error: type[LtlseqError]) -> _T:
    """``parse`` applied to the UTF-8 text of ``path``: every input file is read here.

    Any way the file can be unreadable (an OS error, bytes that are not
    UTF-8, a JSON or YAML error, nesting too deep for the parser, an int past
    the digit limit) becomes ``error("<path>: ...")``; an ``LtlseqError``
    raised by ``parse``, such as a ``sequences.csv`` error naming its line,
    passes through unchanged.  Newlines reach ``parse`` untranslated, as
    ``csv`` expects.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        return parse(text)
    except LtlseqError:
        raise
    except OSError as err:
        raise error(f"{path}: {err}") from err
    except (ValueError, RecursionError, yaml.YAMLError) as err:
        raise error(f"{path}: unreadable ({err})") from err


@dataclass(frozen=True)
class TaskSpec:
    """Everything needed to build one benchmark task."""

    name: str
    domains: tuple[SymbolicDomain, ...]
    variables: tuple[VariableSpec, ...]
    constraints: tuple[Constraint, ...]
    formula: str
    min_length: int = 10
    max_length: int = 20
    splits: tuple[int, int, int] = (320, 40, 40)
    positive_ratio: float = 0.5
    seed: int = 12345

    @property
    def atoms(self) -> tuple[str, ...]:
        """The formula atoms: the constraint names, sorted."""
        return tuple(sorted(c.name for c in self.constraints))

    @property
    def split_counts(self) -> dict[str, int]:
        return dict(zip(SPLIT_NAMES, self.splits))

    def positive_count(self, split: str) -> int:
        return round(self.positive_ratio * self.split_counts[split])

    def validate(self) -> None:
        if self.min_length < 1 or self.max_length < self.min_length:
            raise DomainError(
                f"task {self.name!r}: bad length range "
                f"[{self.min_length}, {self.max_length}]"
            )
        if self.max_length > _MAX_LENGTH:
            raise DomainError(
                f"task {self.name!r}: max_length {self.max_length} is over the cap of "
                f"{_MAX_LENGTH} steps (_MAX_LENGTH)"
            )
        if any(n < 0 for n in self.splits):
            raise DomainError(f"task {self.name!r}: negative split count")
        if not 0.0 <= self.positive_ratio <= 1.0:
            raise DomainError(f"task {self.name!r}: positive_ratio outside [0, 1]")
        domain_names = [d.name for d in self.domains]
        if len(set(domain_names)) != len(domain_names):
            raise DomainError(f"task {self.name!r}: duplicate domain names")
        by_domain_name = {d.name: d for d in self.domains}
        vmap = variable_map(self.variables)
        for v in self.variables:
            if by_domain_name.get(v.domain.name) != v.domain:
                raise DomainError(
                    f"task {self.name!r}: variable {v.name!r} uses undeclared domain "
                    f"{v.domain.name!r}"
                )
        atom_names = [c.name for c in self.constraints]
        if not atom_names:
            # no atom: nothing to perceive, and no sweep stage could be scored
            raise DomainError(f"task {self.name!r}: no constraints; a task needs at least one")
        if len(set(atom_names)) != len(atom_names):
            raise DomainError(f"task {self.name!r}: duplicate constraint names")
        for c in self.constraints:
            fm.Atom(c.name)  # constraint names double as formula atoms
            for var in constraint_vars(c):
                if var not in vmap:
                    raise DomainError(
                        f"task {self.name!r}: constraint {c.name!r} uses undeclared "
                        f"variable {var!r}"
                    )
        formula = fm.parse(self.formula)
        free = formula.atoms() - set(atom_names)
        if free:
            raise DomainError(
                f"task {self.name!r}: formula atoms without constraints: {sorted(free)}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "domains": {
                d.name: {"labels": list(d.labels), "values": list(d.values)}
                for d in self.domains
            },
            "variables": {
                v.name: {"domain": v.domain.name, "source": v.source}
                for v in self.variables
            },
            "constraints": {c.name: constraint_text(c) for c in self.constraints},
            "formula": self.formula,
            "length": {"min": self.min_length, "max": self.max_length},
            "splits": self.split_counts,
            "positive_ratio": self.positive_ratio,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping, where: str = "task spec") -> "TaskSpec":
        def need(key: str) -> object:
            if not isinstance(data, Mapping) or key not in data:
                raise TaskFileError(f"{where}: missing key {key!r}")
            return data[key]

        def number(key: str, value: object, kind: type[int] | type[float] = int) -> int | float:
            """``value`` as a ``kind``: an int, or for a float any int or float; never a bool."""
            try:
                if isinstance(value, bool) or not isinstance(value, (int, kind)):
                    kind_name = "an integer" if kind is int else "a number"
                    raise TypeError(f"{value!r} is not {kind_name}")
                return kind(value)
            except (TypeError, OverflowError) as err:
                raise TaskFileError(f"{where}: {key}: malformed value ({err})") from err

        def text(key: str, value: object) -> str:
            """``value`` if it is a str: YAML's ``yes`` or ``12`` is no text here."""
            if not isinstance(value, str):
                raise TaskFileError(f"{where}: {key}: malformed value ({value!r} is not a string)")
            return value

        def labels(name: str, body: Mapping) -> list[str]:
            key, value = f"domains.{name}.labels", body["labels"]
            if not isinstance(value, (list, tuple)):
                raise TaskFileError(f"{where}: {key}: malformed value ({value!r} is not a list)")
            return [text(key, label) for label in value]

        try:
            domains = {}
            for name, body in dict(need("domains")).items():
                if not isinstance(body, Mapping):
                    raise TaskFileError(f"{where}: domain {name!r} must be a mapping")
                if "range" in body:
                    lo, hi = (number(f"domains.{name}.range", x) for x in body["range"])
                    domains[name] = SymbolicDomain.from_range(name, lo, hi)
                elif "values" in body:
                    values = [number(f"domains.{name}.values", v) for v in body["values"]]
                    domains[name] = SymbolicDomain.from_values(name, labels(name, body), values)
                elif "labels" in body:
                    domains[name] = SymbolicDomain.from_labels(name, labels(name, body))
                else:
                    raise TaskFileError(
                        f"{where}: domain {name!r} needs 'range', 'labels', or "
                        "'labels'+'values'"
                    )
            variables = []
            for name, body in dict(need("variables")).items():
                if not isinstance(body, Mapping) or "domain" not in body:
                    raise TaskFileError(f"{where}: variable {name!r} needs a 'domain' key")
                dom = domains.get(text(f"variables.{name}.domain", body["domain"]))
                if dom is None:
                    raise TaskFileError(
                        f"{where}: variable {name!r} references unknown domain "
                        f"{body['domain']!r}"
                    )
                source = text(f"variables.{name}.source", body.get("source", ""))
                variables.append(VariableSpec(name=name, domain=dom, source=source))
            constraints = tuple(
                parse_constraint(name, text(f"constraints.{name}", body))
                for name, body in dict(need("constraints")).items()
            )
            length = need("length")
            if not isinstance(length, Mapping) or not {"min", "max"} <= set(length):
                raise TaskFileError(f"{where}: 'length' needs 'min' and 'max'")
            split_map = dict(need("splits"))
            unknown = set(split_map) - set(SPLIT_NAMES)
            if unknown:
                raise TaskFileError(f"{where}: unknown splits {sorted(unknown)}")
            spec = cls(
                name=text("name", need("name")),
                domains=tuple(domains.values()),
                variables=tuple(variables),
                constraints=constraints,
                formula=text("formula", need("formula")),
                min_length=number("length.min", length["min"]),
                max_length=number("length.max", length["max"]),
                splits=tuple(number(f"splits.{s}", split_map.get(s, 0)) for s in SPLIT_NAMES),
                positive_ratio=number("positive_ratio", data.get("positive_ratio", 0.5), float),
                seed=number("seed", data.get("seed", 12345)),
            )
            spec.validate()
        except TaskFileError:
            raise
        except (DomainError, fm.LtlfSyntaxError) as err:
            raise TaskFileError(f"{where}: {err}") from err
        except (TypeError, ValueError, KeyError, OverflowError) as err:
            raise TaskFileError(f"{where}: malformed value ({err})") from err
        return spec

    @property
    def spec_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def load_task_yaml(path: str | Path) -> TaskSpec:
    """Read a task spec from YAML; errors name the file."""

    def parse(text: str) -> TaskSpec:
        data = yaml.safe_load(text)
        if not isinstance(data, dict):
            raise TaskFileError(f"{path}: top level must be a mapping")
        return TaskSpec.from_dict(data, where=str(path))

    return read_input(path, parse, TaskFileError)


def save_task_yaml(spec: TaskSpec, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(spec.to_dict(), sort_keys=False), encoding="utf-8")


@dataclass(frozen=True, eq=False)
class FeasibleTable:
    """Every answer of ``CompiledTask.feasible_letters``, as arrays.

    ``ids[remaining - 1, state, label]`` is the id of the letter set that
    keeps ``label`` reachable from ``state`` in ``remaining`` steps.  Set
    ``i`` is stored once: its letters are the positions
    ``members[i, :counts[i]]`` of ``usable_letters``, in ascending order
    (the rest of the row is padding).
    """

    ids: np.ndarray
    members: np.ndarray
    counts: np.ndarray


def _feasible_table(dfa: Dfa, usable: tuple[int, ...], reach: np.ndarray) -> FeasibleTable:
    """The table of ``feasible_letters``, built once per *distinct* reach
    row: rows repeat once the walk's horizon is past the automaton's depth
    (fam10: 3 distinct rows of 21), so its cost stops growing with
    ``max_length``."""
    successors = dfa.transitions[:, list(usable)]
    distinct: dict[bytes, int] = {}
    row_ids = [distinct.setdefault(row.tobytes(), len(distinct)) for row in reach]
    sets: dict[bytes, int] = {}
    masks = []
    set_ids = np.empty((len(distinct), dfa.n_states, 2), dtype=np.int32)
    for d, row in enumerate(distinct):
        # ok[s, label, u]: usable letter u from s keeps label reachable on this row
        ok = np.frombuffer(row, dtype=bool).reshape(-1, 2)[successors].transpose(0, 2, 1)
        keys = np.packbits(ok, axis=-1)
        for s in range(dfa.n_states):
            for label in (0, 1):
                i = set_ids[d, s, label] = sets.setdefault(keys[s, label].tobytes(), len(sets))
                if i == len(masks):
                    masks.append(ok[s, label])
    counts = np.array([np.count_nonzero(m) for m in masks], dtype=np.intp)
    members = np.zeros((len(masks), max(counts, default=0)), dtype=np.int32)
    for i, mask in enumerate(masks):
        members[i, : counts[i]] = np.flatnonzero(mask)
    return FeasibleTable(set_ids[row_ids], members, counts)


@dataclass
class CompiledTask:
    """A task spec plus everything derived from it, ready for generation.

    ``solutions`` maps each usable letter (bit i = truth of ``atoms[i]``) to
    the ``SolutionBucket`` of full variable assignments realizing it, kept as
    grid points; an unrealizable letter has no entry, and
    ``usable_letters`` are its keys in ascending order.  ``reach[r, s, label]``
    of the ``(max_length + 1) × states × 2`` bool array ``reach`` tells whether
    a walk of exactly ``r`` further steps from state ``s`` can end with that
    label using only usable letters (derived, so not compared or shown).

    ``feasible`` is the ``FeasibleTable`` of every ``feasible_letters``
    answer, built on first use and kept.
    """

    spec: TaskSpec
    dfa: Dfa
    solutions: dict[int, SolutionBucket]
    usable_letters: tuple[int, ...]
    reach: np.ndarray = field(compare=False, repr=False)
    _indicators: dict[str, tuple[tuple[str, ...], np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def atoms(self) -> tuple[str, ...]:
        return self.dfa.atoms

    @property
    def variables_by_name(self) -> dict[str, VariableSpec]:
        return variable_map(self.spec.variables)

    @property
    def constraints_by_name(self) -> dict[str, Constraint]:
        return {c.name: c for c in self.spec.constraints}

    def truth_letter(self, truths: Mapping[str, bool]) -> int:
        return letter_of(truths, self.atoms)

    @functools.cached_property
    def feasible(self) -> FeasibleTable:
        return _feasible_table(self.dfa, self.usable_letters, self.reach)

    def feasible_letters(self, state: int, remaining: int, label: int) -> tuple[int, ...]:
        """Usable letters from ``state`` keeping ``label`` reachable in ``remaining`` steps."""
        if not 0 <= state < self.dfa.n_states:
            raise DomainError(f"state {state} outside [0, {self.dfa.n_states})")
        if label not in (0, 1):
            raise DomainError(f"label {label} is neither 0 nor 1")
        if not 1 <= remaining <= len(self.reach):
            raise DomainError(f"remaining steps {remaining} outside [1, {len(self.reach)}]")
        table = self.feasible
        i = table.ids[remaining - 1, state, label]
        return tuple(self.usable_letters[u] for u in table.members[i, : table.counts[i]].tolist())

    def indicator(self, atom: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Cached 0/1 tensor of the named constraint over its domain grid."""
        cached = self._indicators.get(atom)
        if cached is None:
            c = self.constraints_by_name[atom]
            cached = indicator_tensor(c, {v.name: v.domain for v in self.spec.variables})
            self._indicators[atom] = cached
        return cached


def _reach_table(dfa: Dfa, usable: tuple[int, ...], max_steps: int) -> np.ndarray:
    """``CompiledTask.reach``: row ``r`` is the boolean product of the
    usable-letter adjacency matrix with row ``r - 1``."""
    n = dfa.n_states
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[np.arange(n)[:, None], dfa.transitions[:, list(usable)]] = True
    reach = np.zeros((max_steps + 1, n, 2), dtype=bool)
    reach[0, list(dfa.accepting), 1] = True
    reach[0, :, 0] = ~reach[0, :, 1]
    for r in range(1, max_steps + 1):
        reach[r] = adjacent @ reach[r - 1]
    return reach


def compile_task(
    spec: TaskSpec, max_states: int | None = None, dfa: Dfa | None = None
) -> CompiledTask:
    """Build the DFA, solution buckets, and reachability tables for a spec.

    A precompiled ``dfa`` (e.g. the one a dataset stores) skips the
    formula translation; it must match the spec's sorted atoms.

    Raises TaskCompileError naming the first requested (label, length) pair
    no random walk can realize.
    """
    spec.validate()
    atoms = spec.atoms
    if dfa is None:
        dfa = ltlf_to_dfa(fm.parse(spec.formula), atoms=atoms, max_states=max_states)
    elif dfa.atoms != atoms:
        raise TaskCompileError(
            f"precompiled automaton atoms {dfa.atoms} do not match spec atoms {atoms}"
        )

    solutions = solution_buckets(sorted(spec.constraints, key=lambda c: c.name), spec.variables)
    usable = tuple(sorted(solutions))

    reach = _reach_table(dfa, usable, spec.max_length)
    task = CompiledTask(
        spec=spec, dfa=dfa, solutions=solutions, usable_letters=usable, reach=reach
    )

    requested = set()
    for split in SPLIT_NAMES:
        n = spec.split_counts[split]
        n_pos = spec.positive_count(split)
        if n_pos > 0:
            requested.add(1)
        if n - n_pos > 0:
            requested.add(0)
    for label in sorted(requested):
        for length in range(spec.min_length, spec.max_length + 1):
            if not reach[length, dfa.initial, label]:
                raise TaskCompileError(
                    f"task {spec.name!r}: no sequence with label {label} at length "
                    f"{length} is reachable"
                )
    return task


def builtin_or_file(ref: str) -> TaskSpec:
    """Resolve a task reference: a built-in name, else a YAML file path."""
    from .library import builtin_task, builtin_task_names

    if ref in builtin_task_names():
        return builtin_task(ref)
    if Path(ref).exists():
        return load_task_yaml(ref)
    raise TaskFileError(
        f"{ref!r} is neither a built-in task ({', '.join(builtin_task_names())}) "
        "nor an existing file"
    )
