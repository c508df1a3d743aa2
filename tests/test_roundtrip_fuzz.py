"""Seeded round-trip fuzz tests of the two concrete syntaxes.

Models: `parse_model(serialize_model(m))` gives back a model of the
same class, equal to `m`, which serializes to the same text, for valid
and invalid `nlmp` models over powerset and coarse sigma-algebras and
for `lmp` models, half of them with state identifiers that hold `:` or
are `->`.  The `validate` report on that text with its trans lines
shuffled carries the sha256 of the text as the model's digest, and
models with equal digests are equal.  Formulas:
`parse_state_formula(formula_to_text(phi)) == phi`, for random formulas
of the whole grammar and for every formula that `Lf` synthesis returns.

The cases come from the `support` generators under fixed seeds, so a
failure names a case that reproduces.
"""

from __future__ import annotations

import hashlib
import random

from nlmp import (
    Lmp,
    Measure,
    Nlmp,
    SigmaAlgebra,
    Universe,
    formula_to_text,
    logical_equivalence,
    parse_model,
    parse_state_formula,
    serialize_model,
)
from support import rand_any_nlmp, rand_lmp, rand_state_formula, rand_valid_nlmp
from test_parser import report_digest

SEED = 1607
MODEL_CASES = 300
FORMULA_CASES = 300
SYNTH_MODELS = 60
# State identifiers that the item syntax `state:weight` and the
# point-mass shorthand `-> state` must not misread.
ODD_NAMES = ("->", "s:x", "x:", ":", "::", "a:1/2", "1:1", "->:", ":->", "s0")


def _renamed(m: Nlmp, names: list[str]) -> Nlmp:
    """m with its states renamed in universe order, so its atoms keep
    their order and each measure its weights."""
    rename = dict(zip(m.states, names))
    sigma = SigmaAlgebra(Universe(tuple(names)), tuple(frozenset(map(rename.get, q)) for q in m.sigma.atoms))
    rows = {(rename[s], a): tuple(Measure(sigma, mu.weights) for mu in row) for (s, a), row in m.transition_items()}
    if isinstance(m, Lmp):
        return Lmp(sigma, m.labels, {key: row[0] for key, row in rows.items()})
    return Nlmp(sigma, m.labels, rows)


def _models(rng: random.Random):
    for i in range(MODEL_CASES):
        kind = i % 4
        if kind == 0:
            m = rand_valid_nlmp(rng, coarse=False)
        elif kind == 1:
            m = rand_valid_nlmp(rng, coarse=True, dirac_only=rng.random() < 0.3)
        elif kind == 2:
            m = rand_any_nlmp(rng)
        else:
            m = rand_lmp(rng, coarse=rng.random() < 0.5, per_state=rng.random() < 0.5)
        if rng.random() < 0.5:
            m = _renamed(m, rng.sample(ODD_NAMES, len(m.states)))
        yield m


def test_models_round_trip_with_their_digest(tmp_path):
    rng, shuffler = random.Random(SEED), random.Random(SEED + 3)
    odd = 0
    by_digest: dict[str, Nlmp] = {}
    for i, m in enumerate(_models(rng)):
        text = serialize_model(m)
        again = parse_model(text)
        assert type(again) is type(m), i
        assert again == m, i
        assert serialize_model(again) == text, i
        lines = text.splitlines(keepends=True)
        header, trans = lines[:4], lines[4:]  # kind, states, labels, sigma
        shuffler.shuffle(trans)
        digest = report_digest(tmp_path, "".join(header + trans))
        assert digest == hashlib.sha256(text.encode()).hexdigest(), i
        first = by_digest.setdefault(digest, m)
        assert type(first) is type(m) and first == m, i
        odd += "->" in m.states
    assert odd > MODEL_CASES // 10
    assert len(by_digest) > MODEL_CASES // 2


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
