"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  All comparisons are exact (rational arithmetic throughout); the
stated tolerances are zero violations plus the two runtime budgets."""

import itertools
import json
import random
import time
from fractions import Fraction as F

from nlmp import (
    DiamondMulti,
    Measure,
    Nlmp,
    Relation,
    SigmaAlgebra,
    Universe,
    compare_bisims,
    corpus_dir,
    dirac,
    distinguish,
    is_event_bisim,
    is_state_bisim,
    is_traditional_bisim,
    largest_state,
    largest_traditional,
    lmp_validate,
    logical_equivalence,
    nlmp_validate,
    relation_of_sigma,
    satisfies,
    sigma_is_sub,
    sigma_of_relation,
    smallest_stable_sigma,
)
from nlmp.cli import main
from support import (
    all_equivalences,
    all_set_partitions,
    lmp_bisimilarity,
    np_state_check,
    np_traditional_check,
    rand_lmp,
    rand_symmetric_relation,
    rand_valid_nlmp,
    single_bound_separates,
    subalgebras,
    two_bounds_model,
)


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def random_model_suite(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        yield rand_valid_nlmp(rng, max_states=5, max_labels=3, max_row=3, coarse=i % 2 == 1)


def test_criterion_01_two_bounds_reproduction():
    started = time.perf_counter()
    m = two_bounds_model()

    union = set()
    accepted = 0
    enumerated = 0
    for r in all_equivalences(m.universe):
        enumerated += 1
        if is_traditional_bisim(m, r):
            union |= r.pairs
            accepted += 1
    comparison = compare_bisims(m)
    rep_t = comparison.traditional
    oracle_ok = (
        enumerated == 52
        and union == set(rep_t.relation.pairs)
        and ("s", "t") not in rep_t.relation
    )
    equal_ok = comparison.all_equal and comparison.chain_holds

    blind_ok = not single_bound_separates(m, "s", "t", depth=2)

    psi = distinguish(m, "s", "t")
    synth_ok = (
        isinstance(psi, DiamondMulti)
        and len(psi.constraints) == 2
        and satisfies(m, "s", psi) != satisfies(m, "t", psi)
    )

    elapsed = time.perf_counter() - started
    verdict(
        1,
        oracle_ok and equal_ok and blind_ok and synth_ok and elapsed < 5.0,
        f"oracle over {enumerated} equivalences ({accepted} accepted), single-bound search "
        f"blind, two-bound formula verified, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_inclusion_chain_on_random_models():
    violations = 0
    total = 0
    for m in random_model_suite(seed=9102, count=1000):
        total += 1
        rt = largest_traditional(m).relation.pairs
        rs = largest_state(m).relation.pairs
        re_ = smallest_stable_sigma(m).relation.pairs
        if not (rt <= rs <= re_):
            violations += 1
    verdict(2, total >= 1000 and violations == 0, f"{total} models, {violations} chain violations")


def test_criterion_03_full_coincidence_on_powerset_models():
    violations = 0
    checked = 0
    for m in random_model_suite(seed=9102, count=1000):
        if not m.sigma.is_powerset:
            continue
        checked += 1
        rt = largest_traditional(m).relation.pairs
        rs = largest_state(m).relation.pairs
        re_ = smallest_stable_sigma(m).relation.pairs
        rl = logical_equivalence(m, "Lf").relation.pairs
        if not (rt == rs == re_ == rl):
            violations += 1
    verdict(
        3,
        checked >= 400 and violations == 0,
        f"{checked} powerset models, {violations} coincidence violations",
    )


def test_criterion_04_state_versus_event_acceptance():
    rng = random.Random(9104)
    violations = 0
    total = 0
    while total < 1000:
        m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
        r = rand_symmetric_relation(rng, m.universe)
        total += 1
        lhs = bool(is_state_bisim(m, r))
        rhs = bool(is_event_bisim(m, sigma_of_relation(m.sigma, r)))
        if lhs != rhs:
            violations += 1
    verdict(4, violations == 0, f"{total} (model, relation) pairs, {violations} mismatches")


def test_criterion_05_traditional_versus_state_acceptance():
    rng = random.Random(9105)
    violations = 0
    implications = 0
    total = 0
    while total < 1000:
        m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
        r = rand_symmetric_relation(rng, m.universe)
        total += 1
        trad = bool(is_traditional_bisim(m, r))
        state = bool(is_state_bisim(m, r))
        if trad and not state:
            violations += 1
        if trad != state:
            violations += 1
        implications += trad
        if largest_traditional(m).partition != largest_state(m).partition:
            violations += 1
    verdict(
        5,
        violations == 0 and implications > 100,
        f"{total} pairs ({implications} accepted), {violations} violations",
    )


def test_criterion_06_relation_sigma_galois_suite():
    started = time.perf_counter()
    universe = Universe(("w", "x", "y", "z"))
    base = SigmaAlgebra.powerset(universe)
    sigmas = subalgebras(base)
    assert len(sigmas) == 15

    states = list(universe)
    diag = [(s, s) for s in states]
    offdiag = [(s, t) for s, t in itertools.combinations(states, 2)]
    symmetric_relations = []
    for mask in range(2 ** (len(diag) + len(offdiag))):
        pairs = set()
        for i, p in enumerate(diag):
            if mask >> i & 1:
                pairs.add(p)
        for j, (s, t) in enumerate(offdiag):
            if mask >> (len(diag) + j) & 1:
                pairs.add((s, t))
                pairs.add((t, s))
        symmetric_relations.append(Relation(universe, frozenset(pairs)))
    assert len(symmetric_relations) == 1024

    violations = 0
    checks = 0
    for sigma in sigmas:
        for lam in subalgebras(sigma):
            checks += 2
            if not sigma_is_sub(lam, sigma_of_relation(sigma, relation_of_sigma(lam))):
                violations += 1
            lhs = relation_of_sigma(lam).pairs
            rhs = relation_of_sigma(
                sigma_of_relation(sigma, relation_of_sigma(lam))
            ).pairs
            if lhs != rhs:
                violations += 1
        for r in symmetric_relations:
            checks += 2
            if not r.pairs <= relation_of_sigma(sigma_of_relation(sigma, r)).pairs:
                violations += 1
            if sigma_of_relation(sigma, r) != sigma_of_relation(
                sigma, relation_of_sigma(sigma_of_relation(sigma, r))
            ):
                violations += 1
        for atom_partition in all_set_partitions(range(len(sigma.atoms))):
            checks += 1
            blocks = [
                frozenset().union(*(sigma.atoms[i] for i in block))
                for block in atom_partition
            ]
            r = Relation.from_partition(universe, blocks)
            if r.pairs != relation_of_sigma(sigma_of_relation(sigma, r)).pairs:
                violations += 1
    elapsed = time.perf_counter() - started
    verdict(
        6,
        violations == 0 and elapsed < 60.0,
        f"complete enumeration, {checks} checks, {violations} violations, {elapsed:.1f}s < 60s",
    )


def test_criterion_07_deterministic_embedding():
    rng = random.Random(9107)
    violations = 0
    valid_seen = 0
    invalid_seen = 0
    for _ in range(220):
        l = rand_lmp(rng, max_states=4, coarse=rng.random() < 0.5, per_state=rng.random() < 0.4)
        verdict_lmp = lmp_validate(l).valid
        # l is its own embedding: an Lmp is the Nlmp of its singleton rows
        if verdict_lmp != nlmp_validate(l).valid:
            violations += 1
        if not verdict_lmp:
            invalid_seen += 1
            continue
        valid_seen += 1
        oracle = lmp_bisimilarity(l).pairs
        if largest_traditional(l).relation.pairs != oracle:
            violations += 1
        if largest_state(l).relation.pairs != oracle:
            violations += 1
    verdict(
        7,
        violations == 0 and valid_seen + invalid_seen >= 200 and invalid_seen > 10,
        f"{valid_seen} valid + {invalid_seen} invalid deterministic models, {violations} violations",
    )


def _minimality_menu(sig: SigmaAlgebra) -> list[tuple[Measure, ...]]:
    states = list(sig.universe)
    rows: list[tuple[Measure, ...]] = [()]
    for s in states:
        rows.append((dirac(sig, s),))
    for s, t in itertools.combinations(states, 2):
        rows.append((Measure.from_state_weights(sig, {s: F(1, 2), t: F(1, 2)}),))
    return rows


def test_criterion_08_smallest_stable_sigma_minimality():
    universe = Universe(("w", "x", "y", "z"))
    sig = SigmaAlgebra.powerset(universe)
    candidates = subalgebras(sig)
    states = list(universe)
    violations = 0
    models = 0

    def check(m: Nlmp) -> int:
        nonlocal violations, models
        models += 1
        star = smallest_stable_sigma(m).sigma
        if not is_event_bisim(m, star):
            violations += 1
        for lam in candidates:
            if is_event_bisim(m, lam) and not sigma_is_sub(star, lam):
                violations += 1
        return 0

    # one label: every point-mass or even-split row assignment
    menu = _minimality_menu(sig)
    for assignment in itertools.product(range(len(menu)), repeat=len(states)):
        rows = {
            (s, "a"): menu[i] for s, i in zip(states, assignment) if menu[i]
        }
        check(Nlmp(sig, ("a",), rows))
    one_label = models

    # two labels: the same exhaustive scheme over a reduced row menu
    reduced = [(), (dirac(sig, "w"),), (Measure.from_state_weights(sig, {"y": F(1, 2), "z": F(1, 2)}),)]
    slots = [(s, a) for s in states for a in ("a", "b")]
    for assignment in itertools.product(range(len(reduced)), repeat=len(slots)):
        rows = {
            slot: reduced[i] for slot, i in zip(slots, assignment) if reduced[i]
        }
        check(Nlmp(sig, ("a", "b"), rows))

    verdict(
        8,
        violations == 0,
        f"{one_label} one-label + {models - one_label} two-label models, "
        f"all {len(candidates)} sub-sigma-algebras each, {violations} violations",
    )


def test_criterion_09_non_probabilistic_checker_agreement():
    rng = random.Random(9109)
    violations = 0
    total = 0
    while total < 1000:
        m = rand_valid_nlmp(rng, max_states=4, coarse=rng.random() < 0.4, dirac_only=True)
        r = rand_symmetric_relation(rng, m.universe)
        total += 1
        if bool(np_traditional_check(m, r)) != bool(is_traditional_bisim(m, r)):
            violations += 1
        if bool(np_state_check(m, r)) != bool(is_state_bisim(m, r)):
            violations += 1
    verdict(9, violations == 0, f"{total} point-mass models, {violations} checker mismatches")


def test_criterion_10_measurability_failure_corpus(capsys):
    code_bad = main(["validate", str(corpus_dir() / "atom_split_invalid.nlmp")])
    out_bad = capsys.readouterr().out
    report = json.loads(out_bad)
    findings = report["result"]["findings"]
    witnessed = any(f.get("witness_set") == ["s"] and f.get("xi") for f in findings)

    code_good = main(["validate", str(corpus_dir() / "atom_split_repaired.nlmp")])
    capsys.readouterr()
    with capsys.disabled():
        verdict(
            10,
            code_bad == 2 and witnessed and code_good == 0,
            f"invalid file exits {code_bad} with preimage witness, repair exits {code_good}",
        )
