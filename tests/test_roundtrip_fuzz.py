"""Seeded round-trip fuzz tests of the two concrete syntaxes.

Models: `parse_model(serialize_model(m))` gives back a model of the
same class, equal to `m`, which serializes to the same text, for valid
and invalid `nlmp` models over powerset and coarse sigma-algebras and
for `lmp` models, half of them with state identifiers that hold `:` or
are `->`.  The `validate` report on that text with its trans lines
shuffled carries the sha256 of the text as the model's digest, and
models with equal digests are equal.  The same law holds for models
built through the library with names at the edges of the identifier
rules, and the names the rules refuse raise `DomainError`.  Formulas:
`parse_state_formula(formula_to_text(phi)) == phi`, for random formulas
of the whole grammar over identifier and integer labels and for every
formula that `Lf` synthesis returns.

The cases come from the `support` generators under fixed seeds, so a
failure names a case that reproduces.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from nlmp import (
    DomainError,
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
LABELS = ("a", "b", "c", "0", "1", "12")
# Names at the edges of the identifier rules: a state identifier is one
# word without `#` or braces, a label one formula token, an integer or
# an identifier.
EDGE_STATES = ("->", "s:x", "1", "T", ":", "x->", "a/b", "\u00fc", "[", "<a>", "0:1/2", "&")
EDGE_LABELS = ("1", "12", "0", "T", "_", "a1")
BAD_STATES = ("", "a b", "c#d", "{", "}", "x{", "x\ty", "a\u2028b")
BAD_LABELS = ("->", "a-b", "{", "", "1a", "a b", "<a>", "T&T", "\u00fc")


def _renamed(m: Nlmp, names: list[str], labels: list[str] | None = None) -> Nlmp:
    """m with its states renamed in universe order, so its atoms keep
    their order and each measure its weights, and its labels renamed in
    label order when labels are given."""
    rename = dict(zip(m.states, names))
    relabel = dict(zip(m.labels, labels or m.labels))
    sigma = SigmaAlgebra(Universe(tuple(names)), tuple(frozenset(map(rename.get, q)) for q in m.sigma.atoms))
    rows = {
        (rename[s], relabel[a]): tuple(Measure(sigma, mu.weights) for mu in row)
        for (s, a), row in m.transition_items()
    }
    new_labels = [relabel[a] for a in m.labels]
    if isinstance(m, Lmp):
        return Lmp(sigma, new_labels, {key: row[0] for key, row in rows.items()})
    return Nlmp(sigma, new_labels, rows)


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


def test_library_models_with_edge_names_round_trip():
    rng = random.Random(SEED + 4)
    for i in range(MODEL_CASES // 3):
        m = rand_any_nlmp(rng) if i % 2 else rand_lmp(rng, coarse=rng.random() < 0.5)
        m = _renamed(m, rng.sample(EDGE_STATES, len(m.states)), rng.sample(EDGE_LABELS, len(m.labels)))
        text = serialize_model(m)
        again = parse_model(text)
        assert type(again) is type(m), i
        assert again == m, i
        assert serialize_model(again) == text, i
        if isinstance(m, Lmp):
            # the same rows under the other header are another model
            assert Nlmp(m.sigma, m.labels, dict(m.transition_items())) != m, i
    sigma = SigmaAlgebra.powerset(Universe(("s",)))
    for name in BAD_STATES:
        with pytest.raises(DomainError, match="state identifier"):
            Universe(("s", name))
    for label in BAD_LABELS:
        with pytest.raises(DomainError, match="is not an identifier or an integer"):
            Nlmp(sigma, ["a", label], {})


def test_random_formulas_round_trip():
    rng = random.Random(SEED + 1)
    for i in range(FORMULA_CASES):
        # integer labels reach the lookahead that tells `<a>[<1 ...` from `<a>[<1>...`
        labels = tuple(rng.sample(LABELS, rng.randint(1, 3)))
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
