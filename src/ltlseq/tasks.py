"""Task specifications and their compilation into annotated automata.

A task couples an LTLf formula with the constraints grounding its atoms and
the variables/domains the constraints range over.  ``compile_task`` turns a
spec into everything sequence generation and inference need: the minimized
DFA, per-letter solution caches, and exact-length reachability tables.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np
import yaml

from . import formulas as fm
from .automata import Dfa, assignment_of, letter_of, ltlf_to_dfa
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

        def number(key: str, convert: Callable[[object], _T], value: object) -> _T:
            try:
                return convert(value)
            except (TypeError, ValueError, OverflowError) as err:
                raise TaskFileError(f"{where}: {key}: malformed value ({err})") from err

        try:
            domains = {}
            for name, body in dict(need("domains")).items():
                if not isinstance(body, Mapping):
                    raise TaskFileError(f"{where}: domain {name!r} must be a mapping")
                if "range" in body:
                    lo, hi = body["range"]
                    domains[name] = SymbolicDomain.from_range(name, int(lo), int(hi))
                elif "values" in body:
                    domains[name] = SymbolicDomain.from_values(
                        name, [str(l) for l in body["labels"]], [int(v) for v in body["values"]]
                    )
                elif "labels" in body:
                    domains[name] = SymbolicDomain.from_labels(
                        name, [str(l) for l in body["labels"]]
                    )
                else:
                    raise TaskFileError(
                        f"{where}: domain {name!r} needs 'range', 'labels', or "
                        "'labels'+'values'"
                    )
            variables = []
            for name, body in dict(need("variables")).items():
                if not isinstance(body, Mapping) or "domain" not in body:
                    raise TaskFileError(f"{where}: variable {name!r} needs a 'domain' key")
                dom = domains.get(str(body["domain"]))
                if dom is None:
                    raise TaskFileError(
                        f"{where}: variable {name!r} references unknown domain "
                        f"{body['domain']!r}"
                    )
                variables.append(
                    VariableSpec(name=name, domain=dom, source=str(body.get("source", "")))
                )
            constraints = tuple(
                parse_constraint(name, str(text))
                for name, text in dict(need("constraints")).items()
            )
            length = need("length")
            if not isinstance(length, Mapping) or not {"min", "max"} <= set(length):
                raise TaskFileError(f"{where}: 'length' needs 'min' and 'max'")
            split_map = dict(need("splits"))
            unknown = set(split_map) - set(SPLIT_NAMES)
            if unknown:
                raise TaskFileError(f"{where}: unknown splits {sorted(unknown)}")
            spec = cls(
                name=str(need("name")),
                domains=tuple(domains.values()),
                variables=tuple(variables),
                constraints=constraints,
                formula=str(need("formula")),
                min_length=number("length.min", int, length["min"]),
                max_length=number("length.max", int, length["max"]),
                splits=tuple(number(f"splits.{s}", int, split_map.get(s, 0)) for s in SPLIT_NAMES),
                positive_ratio=number("positive_ratio", float, data.get("positive_ratio", 0.5)),
                seed=number("seed", int, data.get("seed", 12345)),
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


class SolutionTable(Mapping[int, tuple[dict[str, int], ...]]):
    """Read-only map from every letter to the tuple of assignments realizing it.

    Iterates the letters ``0 .. n_letters - 1`` in order; a letter that no
    assignment realizes maps to ``()``.  A letter's tuple is built when it is
    first read and then kept.  ``bucket(letter)`` gives the same assignments
    as a ``SolutionBucket``, which builds only the ones it is asked for.
    """

    def __init__(self, buckets: Mapping[int, SolutionBucket], n_letters: int) -> None:
        self._buckets = dict(buckets)
        self._letters = range(n_letters)
        self._tuples: dict[int, tuple[dict[str, int], ...]] = {}

    def __getitem__(self, letter: int) -> tuple[dict[str, int], ...]:
        cached = self._tuples.get(letter)
        if cached is None:
            if letter not in self._letters:
                raise KeyError(letter)
            bucket = self._buckets.get(letter)
            cached = self._tuples[letter] = () if bucket is None else bucket.materialize()
        return cached

    def __iter__(self) -> Iterator[int]:
        return iter(self._letters)

    def __len__(self) -> int:
        return len(self._letters)

    def __contains__(self, letter: object) -> bool:
        return letter in self._letters

    def __repr__(self) -> str:
        return f"SolutionTable({len(self._buckets)} of {len(self)} letters realizable)"

    def bucket(self, letter: int) -> Sequence[dict[str, int]]:
        """``letter``'s assignments, each built when first read."""
        bucket = self._buckets.get(letter)
        return self[letter] if bucket is None else bucket


@dataclass
class CompiledTask:
    """A task spec plus everything derived from it, ready for generation.

    ``solutions`` maps every letter bitmask (bit i = truth of ``atoms[i]``)
    to the tuple of full variable assignments realizing it.  ``compile_task``
    stores a ``SolutionTable``, which keeps each letter's assignments as grid
    indices until read; any mapping with the same items works, and
    ``solution_bucket`` reads either one lazily when it can.  ``reach[r][s]``
    tells, for each label, whether a walk of exactly ``r`` further steps from
    state ``s`` can end with that label using only usable letters.

    ``feasible_letters`` memoizes its answer per ``(state, remaining, label)``
    on the instance, one shared tuple per distinct letter set, so a dataset's
    walks filter ``usable_letters`` at most once per key instead of once per
    step; ``letter_truths`` likewise builds each letter's truth dict once and
    hands out copies.
    """

    spec: TaskSpec
    dfa: Dfa
    solutions: Mapping[int, tuple[dict[str, int], ...]]
    usable_letters: tuple[int, ...]
    reach: list[list[tuple[bool, bool]]]
    _indicators: dict[str, tuple[tuple[str, ...], np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _feasible: dict[tuple[int, int, int], tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _letter_sets: dict[tuple[int, ...], tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _truths: dict[int, dict[str, bool]] = field(default_factory=dict, repr=False, compare=False)

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

    def letter_truths(self, letter: int) -> dict[str, bool]:
        """A fresh ``{atom: truth}`` dict for ``letter`` (bit i = ``atoms[i]``)."""
        cached = self._truths.get(letter)
        if cached is None:
            cached = self._truths[letter] = assignment_of(letter, self.atoms)
        return cached.copy()

    def solution_bucket(self, letter: int) -> Sequence[dict[str, int]]:
        """``letter``'s assignments; from a ``SolutionTable``, built one by one as read."""
        if isinstance(self.solutions, SolutionTable):
            return self.solutions.bucket(letter)
        return self.solutions[letter]

    def feasible_letters(self, state: int, remaining: int, label: int) -> tuple[int, ...]:
        """Usable letters from ``state`` keeping ``label`` reachable in ``remaining`` steps."""
        if remaining < 1:
            raise DomainError("remaining steps must be >= 1")
        key = (state, remaining, label)
        cached = self._feasible.get(key)
        if cached is None:
            row = self.reach[remaining - 1]
            successors = self.dfa.transitions[state]
            letters = tuple(
                letter for letter in self.usable_letters if row[successors[letter]][label]
            )
            # keys share few distinct sets (fam10: 53 for 1,171 keys); keep one tuple each
            cached = self._feasible[key] = self._letter_sets.setdefault(letters, letters)
        return cached

    def indicator(self, atom: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Cached 0/1 tensor of the named constraint over its domain grid."""
        cached = self._indicators.get(atom)
        if cached is None:
            c = self.constraints_by_name[atom]
            cached = indicator_tensor(c, {v.name: v.domain for v in self.spec.variables})
            self._indicators[atom] = cached
        return cached


def _reach_table(dfa: Dfa, usable: tuple[int, ...], max_steps: int) -> list[list[tuple[bool, bool]]]:
    base = [(s not in dfa.accepting, s in dfa.accepting) for s in range(dfa.n_states)]
    table = [base]
    for _ in range(max_steps):
        prev = table[-1]
        row = []
        for s in range(dfa.n_states):
            neg = any(prev[dfa.transitions[s][letter]][0] for letter in usable)
            pos = any(prev[dfa.transitions[s][letter]][1] for letter in usable)
            row.append((neg, pos))
        table.append(row)
    return table


def compile_task(
    spec: TaskSpec, max_states: int | None = None, dfa: Dfa | None = None
) -> CompiledTask:
    """Build the DFA, solution caches, and reachability tables for a spec.

    A precompiled ``dfa`` (e.g. from a cache keyed by the spec hash) skips
    the formula translation; it must match the spec's sorted atoms.

    Raises TaskCompileError naming the first requested (label, length) pair
    no random walk can realize.
    """
    spec.validate()
    atoms = spec.atoms
    if dfa is None:
        kwargs = {} if max_states is None else {"max_states": max_states}
        dfa = ltlf_to_dfa(fm.parse(spec.formula), atoms=atoms, **kwargs)
    elif dfa.atoms != atoms:
        raise TaskCompileError(
            f"precompiled automaton atoms {dfa.atoms} do not match spec atoms {atoms}"
        )

    ordered = sorted(spec.constraints, key=lambda c: c.name)
    buckets = {
        letter_of(dict(zip(atoms, key)), atoms): bucket
        for key, bucket in solution_buckets(ordered, spec.variables).items()
    }
    solutions = SolutionTable(buckets, dfa.n_letters)
    usable = tuple(sorted(buckets))

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
            if not reach[length][dfa.initial][label]:
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
