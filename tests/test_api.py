"""The package's public names, pinned: a change to the API edits this list."""

import nlmp

PUBLIC = [
    "And", "AtLeast", "AtMost", "BisimReport", "Bound", "CheckResult",
    "ComparisonReport", "Diamond", "DiamondMulti", "DomainError", "EquivalenceReport",
    "GreaterThan", "InternalCheckError", "LessThan", "Lmp", "MNot", "MOr", "Measure",
    "MeasureFormula", "ModelSyntaxError", "Nlmp", "NlmpError", "PreconditionError",
    "Relation", "SigmaAlgebra", "StateFormula", "Top", "Universe", "UnsupportedModelError",
    "ValidationReport", "compare_bisims", "corpus_dir", "dirac", "distinguish", "eval_state",
    "formula_to_text", "hit_preimage", "is_event_bisim", "is_state_bisim",
    "is_traditional_bisim", "largest_state", "largest_traditional", "lmp_validate",
    "logical_equivalence", "nlmp_validate", "parse_measure_formula", "parse_model",
    "parse_state_formula", "profile", "relation_of_sigma", "satisfies", "serialize_model",
    "sigma_generate", "sigma_is_sub", "sigma_of_relation", "smallest_stable_sigma",
    "trace_classes",
]


def test_all_is_the_sorted_public_names():
    assert nlmp.__all__ == PUBLIC
    # The submodules are attributes of the package but are not exported.
    assert "bisim" in vars(nlmp) and "bisim" not in nlmp.__all__
