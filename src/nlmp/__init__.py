"""Exact-arithmetic workbench for finite nondeterministic labeled
Markov processes: sigma-algebras as atom partitions, rational
probability measures, three bisimulation notions with greatest-fixpoint
computers, and a two-level probabilistic modal logic with
distinguishing-formula synthesis."""

from .errors import (
    DomainError,
    InternalCheckError,
    ModelSyntaxError,
    NlmpError,
    PreconditionError,
    UnsupportedModelError,
)
from .measurable import (
    Relation,
    SigmaAlgebra,
    Universe,
    relation_of_sigma,
    sigma_generate,
    sigma_is_sub,
    sigma_of_relation,
)
from .measures import (
    Measure,
    dirac,
    profile,
    trace_classes,
)
from .model import (
    Lmp,
    Nlmp,
    ValidationReport,
    diamond,
    hit_preimage,
    is_non_probabilistic,
    lmp_validate,
    nlmp_validate,
)
from .bisim import (
    BisimReport,
    CheckResult,
    ComparisonReport,
    compare_bisims,
    is_event_bisim,
    is_state_bisim,
    is_traditional_bisim,
    largest_state,
    largest_traditional,
    np_state_check,
    np_traditional_check,
    smallest_stable_sigma,
)
from .logic import (
    And,
    AtLeast,
    AtMost,
    Bound,
    Diamond,
    DiamondMulti,
    EquivalenceReport,
    GreaterThan,
    LessThan,
    MNot,
    MOr,
    MeasureFormula,
    StateFormula,
    Top,
    distinguish,
    eval_measure,
    eval_state,
    formula_to_text,
    logical_equivalence,
    satisfies,
)
from .parser import (
    parse_measure_formula,
    parse_model,
    parse_state_formula,
    serialize_model,
)
from .cli import corpus_dir

__all__ = [name for name in dir() if not name.startswith("_")]
