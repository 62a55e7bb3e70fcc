"""Temporal-logic sequence tasks: automata, datasets, probabilistic replay.

The pipeline: parse a finite-trace temporal formula over named finite-domain
constraints, compile it to a minimized annotated DFA, generate labeled
sequence datasets by reachability-constrained random walks, and classify
sequences probabilistically with exact, fuzzy, or sd-DNNF engines — plus an
oracle-noise harness for controlled ablations.
"""

from .automata import Dfa, Guard, guard_table, ltlf_to_dfa, minimize, transition_guard
from .circuits import (
    LOGPROB,
    PROB,
    Circuit,
    Semiring,
    amc,
    brute_force_wmc,
    compile_sddnnf,
    fuzzy_eval,
    next_state_formulas,
    smooth,
)
from .constraints import (
    Constraint,
    SymbolicDomain,
    VariableSpec,
    constraint_probability,
    enumerate_solutions,
    eval_constraint,
    indicator_tensor,
    parse_constraint,
    partition_solutions,
    tensor_probability,
)
from .errors import (
    DatasetFormatError,
    DegenerateBeliefError,
    DomainError,
    IntegrityError,
    LtlfSyntaxError,
    LtlseqError,
    ResourceLimitError,
    TaskCompileError,
    TaskFileError,
    UnsatisfiableLetterError,
)
from .formulas import canonical, eval_empty, parse, print_formula, progress, to_nnf
from .generator import (
    Dataset,
    SequenceSample,
    attach_image_indices,
    deserialize,
    generate_dataset,
    generate_sequence,
    serialize,
)
from .harness import (
    Metrics,
    OracleConfig,
    confidence_oracle,
    default_sweep_configs,
    evaluate,
    fit_sc_temperature,
    flip_oracle,
    mp_baselines,
    oracle_sweep,
    semantic_loss,
    soft_xor,
    summarize_rows,
    write_summary_json,
    write_sweep_csv,
)
from .inference import (
    ENGINE_NAMES,
    BatchResult,
    RunResult,
    apply_temperature,
    calibrate_temperature,
    exact_step,
    fuzzy_step,
    make_engine,
    run_batch,
    run_sequence,
    sddnnf_step,
)
from .library import builtin_task, builtin_task_names
from .tasks import CompiledTask, TaskSpec, builtin_or_file, compile_task, load_task_yaml, save_task_yaml

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # formulas
    "parse",
    "print_formula",
    "canonical",
    "to_nnf",
    "progress",
    "eval_empty",
    # automata
    "Dfa",
    "Guard",
    "ltlf_to_dfa",
    "minimize",
    "transition_guard",
    "guard_table",
    # constraints
    "SymbolicDomain",
    "VariableSpec",
    "Constraint",
    "parse_constraint",
    "eval_constraint",
    "enumerate_solutions",
    "partition_solutions",
    "constraint_probability",
    "indicator_tensor",
    "tensor_probability",
    # tasks
    "TaskSpec",
    "CompiledTask",
    "compile_task",
    "builtin_or_file",
    "load_task_yaml",
    "save_task_yaml",
    "builtin_task",
    "builtin_task_names",
    # generator
    "Dataset",
    "SequenceSample",
    "generate_sequence",
    "generate_dataset",
    "attach_image_indices",
    "serialize",
    "deserialize",
    # circuits
    "Circuit",
    "Semiring",
    "PROB",
    "LOGPROB",
    "next_state_formulas",
    "compile_sddnnf",
    "smooth",
    "amc",
    "fuzzy_eval",
    "brute_force_wmc",
    # inference
    "ENGINE_NAMES",
    "RunResult",
    "BatchResult",
    "exact_step",
    "fuzzy_step",
    "sddnnf_step",
    "make_engine",
    "run_sequence",
    "run_batch",
    "apply_temperature",
    "calibrate_temperature",
    # harness
    "OracleConfig",
    "Metrics",
    "flip_oracle",
    "confidence_oracle",
    "evaluate",
    "mp_baselines",
    "soft_xor",
    "semantic_loss",
    "default_sweep_configs",
    "fit_sc_temperature",
    "oracle_sweep",
    "summarize_rows",
    "write_sweep_csv",
    "write_summary_json",
    # errors
    "LtlseqError",
    "LtlfSyntaxError",
    "DomainError",
    "ResourceLimitError",
    "UnsatisfiableLetterError",
    "TaskCompileError",
    "TaskFileError",
    "DatasetFormatError",
    "IntegrityError",
    "DegenerateBeliefError",
]
