"""Every model within a small scope, checked against the definitional
oracles of `support.py`.

A scope is a largest number of states, a number of labels and a longest
row.  It holds, for each number of states up to the largest, every
sigma-algebra on the states, and every assignment to each (state,
label) of a row of at most that many distinct measures whose weights
are halves: a point mass on one atom, or half on each of two atoms.
Valid and invalid models are both in it.

Each model must round-trip through its text, and validation must agree
with the oracles.  On a valid model, each bisimilarity must be the
extreme candidate its independent checker accepts; when every measure
of the model is a point mass, so must the traditional bisimilarity be
for each of the paper's point-mass characterizations,
`np_traditional_check` and `np_state_check`.  `distinguish` must answer
every ordered pair of a powerset model: None iff the two states are
bisimilar, else a formula that the tree evaluator says holds at exactly
one of them and whose text parses back to it.

On a smaller scope, each model must also give the same verdicts, up to
the renaming, when its states are renamed and listed in another order,
its labels are listed in reverse and its trans lines are shuffled:
validation's findings, the three fixpoints, and which pairs
`distinguish` finds bisimilar.

Each model whose rows are all one measure is also checked as an `Lmp`:
`lmp_validate` must report the single-atom findings of the check over
every measurable set, and the verdict of `nlmp_validate`.

`check_scope` returns the number of models it checked and prints how
many of them have point masses only and how many were checked as `Lmp`
models, so a larger scope can be run by calling it, as CI does with 4
states and rows of one measure.
"""

import random
import re
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from nlmp import (
    Lmp,
    Measure,
    Nlmp,
    SigmaAlgebra,
    Universe,
    UnsupportedModelError,
    compare_bisims,
    distinguish,
    formula_to_text,
    is_event_bisim,
    is_state_bisim,
    is_traditional_bisim,
    lmp_validate,
    nlmp_validate,
    parse_model,
    parse_state_formula,
    serialize_model,
)
from support import (
    all_equivalences,
    all_set_partitions,
    class_findings,
    lmp_validate_direct,
    np_state_check,
    np_traditional_check,
    point_masses_only,
    row_constant_on_atoms,
    subalgebras,
    tree_eval_state,
)


def half_measures(sigma: SigmaAlgebra) -> list[Measure]:
    """Every measure over sigma whose weights are 0, 1/2 or 1."""
    k = len(sigma.atoms)
    supports = [{i: F(1)} for i in range(k)]
    supports += [{i: F(1, 2), j: F(1, 2)} for i, j in combinations(range(k), 2)]
    return [Measure(sigma, [w.get(i, F(0)) for i in range(k)]) for w in supports]


def models(n_states: int, n_labels: int, max_row: int):
    """Every model of the scope with exactly n_states states, each with
    the candidates its checks compare the fixpoints against: the
    equivalences largest first, and the sub-sigma-algebras smallest
    first."""
    universe = Universe(tuple(f"s{i}" for i in range(n_states)))
    labels = tuple("abcdefgh"[:n_labels])
    keys = [(s, a) for s in universe for a in labels]
    equivalences = sorted(all_equivalences(universe), key=lambda r: -len(r.pairs))
    for part in all_set_partitions(universe.states):
        sigma = SigmaAlgebra(universe, tuple(map(frozenset, part)))
        subs = sorted(subalgebras(sigma), key=lambda lam: len(lam.atoms))
        measures = half_measures(sigma)
        rows = [row for k in range(max_row + 1) for row in combinations(measures, k)]
        for choice in product(rows, repeat=len(keys)):
            yield Nlmp(sigma, labels, dict(zip(keys, choice))), equivalences, subs


def check_model(m: Nlmp, equivalences, subs) -> bool:
    """Check one model; True iff it is valid and has point masses only,
    so that the point-mass characterizations were checked too."""
    assert parse_model(serialize_model(m)) == m
    report = nlmp_validate(m)
    assert report.findings == class_findings(m)
    assert report.valid == row_constant_on_atoms(m)
    if not report.valid:
        return False
    bisims = compare_bisims(m)
    # The bisimilarity holds every pair of any bisimulation, so it is
    # the first equivalence the checker accepts, largest first; the
    # smallest stable sigma-algebra lies under every stable one.
    assert bisims.traditional.relation == next(r for r in equivalences if is_traditional_bisim(m, r))
    assert bisims.state.relation == next(r for r in equivalences if is_state_bisim(m, r))
    assert bisims.event.lam == next(lam for lam in subs if is_event_bisim(m, lam))
    point_masses = point_masses_only(m)
    if point_masses:
        assert bisims.traditional.relation == next(r for r in equivalences if np_traditional_check(m, r))
        assert bisims.traditional.relation == next(r for r in equivalences if np_state_check(m, r))
    lam = bisims.traditional.lam
    if not m.sigma.is_powerset:
        with pytest.raises(UnsupportedModelError):
            distinguish(m, m.states[0], m.states[0])
        return point_masses
    for s in m.states:
        for t in m.states:
            phi = distinguish(m, s, t)
            if lam.atom_index(s) == lam.atom_index(t):
                assert phi is None, (s, t)
            else:
                ext = tree_eval_state(m, phi)
                assert (s in ext) != (t in ext), (s, t)
                text = formula_to_text(phi)
                assert formula_to_text(parse_state_formula(text)) == text
    return point_masses


def check_lmp(m: Nlmp) -> bool:
    """Check m as an `Lmp` when each of its rows is one measure; True
    iff it was checked."""
    if not all(len(m.row(s, a)) == 1 for s in m.states for a in m.labels):
        return False
    l = Lmp(m.sigma, m.labels, {(s, a): m.row(s, a)[0] for s in m.states for a in m.labels})
    report = lmp_validate(l)
    assert list(report.findings) == [f for q, f in lmp_validate_direct(l) if q in l.sigma.atoms]
    assert report.valid == nlmp_validate(m).valid
    return True


def check_scope(max_states: int, n_labels: int, max_row: int) -> int:
    """Check every model of the scope; the number of models checked."""
    count = point_masses = lmps = 0
    for n_states in range(1, max_states + 1):
        for m, equivalences, subs in models(n_states, n_labels, max_row):
            point_masses += check_model(m, equivalences, subs)
            lmps += check_lmp(m)
            count += 1
    print(f"{point_masses} of the {count} models are valid with point masses only")
    print(f"{lmps} of the {count} models were also checked as lmp models")
    return count


def renamed_text(m: Nlmp, rng: random.Random) -> tuple[str, dict[str, str]]:
    """The text of m with its states renamed and listed in another
    order, its labels reversed and its trans lines shuffled, and the
    renaming."""
    names = [f"r{i}" for i in range(len(m.states))]
    rng.shuffle(names)
    rename = dict(zip(m.states, names))
    lines = re.sub(r"\bs\d+\b", lambda x: rename[x.group()], serialize_model(m)).splitlines()
    # The header, states, labels and sigma lines come first, in order.
    head = [lines[0], "states " + " ".join(sorted(names)), "labels " + " ".join(reversed(m.labels)), lines[3]]
    trans = lines[4:]
    rng.shuffle(trans)
    return "\n".join(head + trans) + "\n", rename


def check_renamed(m: Nlmp, rng: random.Random) -> None:
    text, rename = renamed_text(m, rng)
    r = parse_model(text)

    def moved(sets):
        return {frozenset(map(rename.get, block)) for block in sets}

    def findings(report, name=str):
        return Counter(
            (f.message, f.label, None if f.witness_set is None else frozenset(map(name, f.witness_set)))
            for f in report.findings
        )

    report = nlmp_validate(m)
    assert findings(report, rename.get) == findings(nlmp_validate(r))
    if not report.valid:
        return
    bisims, renamed = compare_bisims(m), compare_bisims(r)
    assert moved(bisims.traditional.partition) == set(renamed.traditional.partition)
    assert moved(bisims.state.partition) == set(renamed.state.partition)
    assert moved(bisims.event.lam.atoms) == set(renamed.event.lam.atoms)
    if m.sigma.is_powerset:
        for s in m.states:
            for t in m.states:
                assert (distinguish(m, s, t) is None) == (distinguish(r, rename[s], rename[t]) is None)


def check_renamed_scope(max_states: int, n_labels: int, max_row: int) -> int:
    """Check every model of the scope against its renamed text; the
    number of models checked."""
    rng = random.Random(18)
    count = 0
    for n_states in range(1, max_states + 1):
        for m, _, _ in models(n_states, n_labels, max_row):
            check_renamed(m, rng)
            count += 1
    return count


def test_one_label_up_to_three_states():
    count = check_scope(3, 1, 2)
    print(f"one label, at most 3 states, rows of at most 2 measures: {count} models")
    assert count == 2 + 53 + 11685


def test_two_labels_up_to_two_states():
    count = check_scope(2, 2, 2)
    print(f"two labels, at most 2 states, rows of at most 2 measures: {count} models")
    assert count == 4 + 2417


def test_renamed_up_to_three_states():
    count = check_renamed_scope(3, 1, 1)
    print(f"renamed, one label, at most 3 states, rows of at most 1 measure: {count} models")
    assert count == 2 + 20 + 543
    count = check_renamed_scope(2, 2, 2)
    print(f"renamed, two labels, at most 2 states, rows of at most 2 measures: {count} models")
    assert count == 4 + 2417
