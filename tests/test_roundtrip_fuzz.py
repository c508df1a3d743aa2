"""Seeded round-trip fuzz tests of the two concrete syntaxes.

Models: `parse_model(serialize_model(doc))` gives back an equal model
with the same digest, for valid and invalid `nlmp` documents over
powerset and coarse sigma-algebras and for `lmp` documents.  Formulas:
`parse_state_formula(formula_to_text(phi)) == phi`, for random formulas
of the whole grammar and for every formula that `Lf` synthesis returns.

The cases come from the `support` generators under fixed seeds, so a
failure names a case that reproduces.
"""

from __future__ import annotations

import random

from nlmp import (
    ModelDocument,
    formula_to_text,
    logical_equivalence,
    parse_model,
    parse_state_formula,
    serialize_model,
)
from support import rand_any_nlmp, rand_lmp, rand_state_formula, rand_valid_nlmp

SEED = 1607
MODEL_CASES = 300
FORMULA_CASES = 300
SYNTH_MODELS = 60


def _documents(rng: random.Random):
    for i in range(MODEL_CASES):
        kind = i % 4
        if kind == 0:
            yield ModelDocument(rand_valid_nlmp(rng, coarse=False))
        elif kind == 1:
            yield ModelDocument(rand_valid_nlmp(rng, coarse=True, dirac_only=rng.random() < 0.3))
        elif kind == 2:
            yield ModelDocument(rand_any_nlmp(rng))
        else:
            yield ModelDocument(rand_lmp(rng, coarse=rng.random() < 0.5, per_state=rng.random() < 0.5))


def test_models_round_trip_with_their_digest():
    rng = random.Random(SEED)
    for i, doc in enumerate(_documents(rng)):
        again = parse_model(serialize_model(doc))
        assert again.kind == doc.kind, i
        assert again.nlmp == doc.nlmp, i
        assert again.lmp == doc.lmp, i
        assert again.digest == doc.digest, i


def test_random_formulas_round_trip():
    rng = random.Random(SEED + 1)
    for i in range(FORMULA_CASES):
        labels = ("a", "b", "c")[: rng.randint(1, 3)]
        phi = rand_state_formula(rng, labels, rng.randint(0, 4))
        assert parse_state_formula(formula_to_text(phi)) == phi, i


def test_synthesized_formulas_round_trip():
    rng = random.Random(SEED + 2)
    seen = 0
    for i in range(SYNTH_MODELS):
        m = rand_valid_nlmp(rng, coarse=False)
        for psi in {id(f): f for f in logical_equivalence(m, "Lf").formulas.values()}.values():
            assert parse_state_formula(formula_to_text(psi)) == psi, i
            seen += 1
    assert seen > SYNTH_MODELS
