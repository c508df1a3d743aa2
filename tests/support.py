"""Shared generators, fixed models, and brute-force oracles for the
test suite.  The oracles deliberately avoid the code paths they check:
closures are computed set by set, bisimilarity on deterministic models
by its own fixpoint, and families of measure sets by literal closure of
their generator traces."""

from __future__ import annotations

import contextlib
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from nlmp import (
    And,
    AtLeast,
    AtMost,
    CheckResult,
    Diamond,
    DiamondMulti,
    DomainError,
    GreaterThan,
    InternalCheckError,
    LessThan,
    Lmp,
    MNot,
    MOr,
    Measure,
    ModelSyntaxError,
    Nlmp,
    PreconditionError,
    Relation,
    SigmaAlgebra,
    Top,
    Universe,
    dirac,
    eval_state,
    profile,
    sigma_of_relation,
    trace_classes,
)
from nlmp.bisim import TraditionalWitness
from nlmp.logic import BOUNDS, MeasureFormula, _evaluate
from nlmp.measures import _shown
from nlmp.model import Finding
from nlmp.parser import _measure_text, _parse_rational

F = Fraction


# ---------------------------------------------------------------------------
# Fixed models


def two_bounds_model() -> Nlmp:
    """Five states; s carries one more a-measure than t, lying weakly
    between the two shared ones on every target set, so only a
    two-bound modality separates s from t."""
    u = Universe(("s", "t", "x", "y", "z"))
    sig = SigmaAlgebra.powerset(u)
    mu1 = dirac(sig, "x")
    mu2 = Measure.from_state_weights(sig, {"y": F(1, 2), "z": F(1, 2)})
    mu3 = Measure.from_state_weights(sig, {"x": F(1, 2), "y": F(1, 4), "z": F(1, 4)})
    return Nlmp(
        sig,
        ("a", "b", "c", "d"),
        {
            ("s", "a"): (mu1, mu2, mu3),
            ("t", "a"): (mu1, mu2),
            ("x", "b"): (dirac(sig, "x"),),
            ("y", "c"): (dirac(sig, "y"),),
            ("z", "d"): (dirac(sig, "z"),),
        },
    )


def two_bounds_measures(m: Nlmp) -> tuple[Measure, Measure, Measure]:
    sig = m.sigma
    mu1 = dirac(sig, "x")
    mu2 = Measure.from_state_weights(sig, {"y": F(1, 2), "z": F(1, 2)})
    mu3 = Measure.from_state_weights(sig, {"x": F(1, 2), "y": F(1, 4), "z": F(1, 4)})
    return mu1, mu2, mu3


def np_reach_model(equal_continuations: bool) -> Nlmp:
    u = Universe(("s", "t", "u", "v"))
    sig = SigmaAlgebra.powerset(u)
    rows = {
        ("s", "a"): (dirac(sig, "u"),),
        ("t", "a"): (dirac(sig, "v"),),
        ("u", "b"): (dirac(sig, "u"),),
    }
    if equal_continuations:
        rows[("v", "b")] = (dirac(sig, "v"),)
    return Nlmp(sig, ("a", "b"), rows)


def uniform_rows_model() -> Nlmp:
    u = Universe(("p", "q", "r"))
    sig = SigmaAlgebra.powerset(u)
    mix = Measure.from_state_weights(sig, {"p": F(1, 3), "q": F(1, 3), "r": F(1, 3)})
    return Nlmp(sig, ("a",), {(s, "a"): (mix,) for s in u})


def atom_split_model(repaired: bool) -> Nlmp:
    u = Universe(("s", "t", "x"))
    if repaired:
        sig = SigmaAlgebra.powerset(u)
    else:
        sig = SigmaAlgebra(u, (frozenset({"s", "t"}), frozenset({"x"})))
    return Nlmp(sig, ("a",), {("s", "a"): (dirac(sig, "x"),)})


def coarse_valid_model() -> Nlmp:
    u = Universe(("s", "t", "x"))
    sig = SigmaAlgebra(u, (frozenset({"s", "t"}), frozenset({"x"})))
    return Nlmp(sig, ("a",), {("s", "a"): (dirac(sig, "x"),), ("t", "a"): (dirac(sig, "x"),)})


# ---------------------------------------------------------------------------
# Random generators (all seeded by the caller)


def rand_universe(rng: random.Random, max_states: int = 5) -> Universe:
    n = rng.randint(1, max_states)
    return Universe(tuple(f"s{i}" for i in range(n)))


def wide_huge_rational_text(seed: int, width: int, measures: int = 800, digits: int = 3900) -> str:
    """A model file whose rows are wide and whose weights are huge
    rationals: `measures` two-point measures, `width` to a row, each
    line's weights over a denominator of `digits` digits.  By default,
    12.5 MB: 800 measures over denominators of 3900 digits, below the
    int-string limit of 4300.  The states x0 to x7, the targets, have no
    transitions."""
    rng = random.Random(seed)
    rows = -(-measures // width)
    targets = [f"x{i}" for i in range(8)]
    lines = ["states " + " ".join([f"r{k}" for k in range(rows)] + targets), "labels a", "sigma powerset"]
    for k in range(measures):
        x, y = rng.sample(targets, 2)
        den = rng.randrange(10 ** (digits - 1), 10**digits)
        num = rng.randrange(1, den)
        lines.append(f"trans r{k // width} a {x}:{num}/{den} {y}:{den - num}/{den}")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def int_str_limit(limit: int):
    """sys.set_int_max_str_digits(limit) for the block, the limit before
    it restored after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def rand_partition(rng: random.Random, items: list) -> list[set]:
    """A uniform-ish random partition: each item joins an existing block
    or starts a new one."""
    blocks: list[set] = []
    for item in items:
        i = rng.randint(0, len(blocks))
        if i == len(blocks):
            blocks.append({item})
        else:
            blocks[i].add(item)
    return blocks


def rand_sigma(rng: random.Random, universe: Universe, coarse: bool) -> SigmaAlgebra:
    if not coarse:
        return SigmaAlgebra.powerset(universe)
    blocks = rand_partition(rng, list(universe))
    return SigmaAlgebra(universe, tuple(frozenset(b) for b in blocks))


def rand_weights(rng: random.Random, n: int, max_weight: int = 4) -> tuple[Fraction, ...]:
    """n Fraction weights summing to 1, on a random non-empty support."""
    support = rng.sample(range(n), rng.randint(1, n))
    raw = [rng.randint(1, max_weight) for _ in support]
    total = sum(raw)
    weights = [F(0)] * n
    for i, w in zip(support, raw):
        weights[i] = F(w, total)
    return tuple(weights)


def rand_measure(rng: random.Random, sigma: SigmaAlgebra, max_weight: int = 4) -> Measure:
    return Measure(sigma, rand_weights(rng, len(sigma.atoms), max_weight))


def rand_valid_nlmp(
    rng: random.Random,
    max_states: int = 5,
    max_labels: int = 3,
    max_row: int = 3,
    coarse: bool = False,
    dirac_only: bool = False,
) -> Nlmp:
    """A model passing measurability validation by construction: rows
    are assigned per atom, so every hit preimage is a union of atoms."""
    universe = rand_universe(rng, max_states)
    sigma = rand_sigma(rng, universe, coarse)
    labels = tuple(chr(ord("a") + i) for i in range(rng.randint(1, max_labels)))
    rows: dict[tuple[str, str], tuple[Measure, ...]] = {}
    for atom in sigma.atoms:
        for a in labels:
            k = rng.randint(0, max_row)
            if dirac_only:
                row = tuple(dirac(sigma, rng.choice(universe.states)) for _ in range(k))
            else:
                row = tuple(rand_measure(rng, sigma) for _ in range(k))
            for s in atom:
                rows[(s, a)] = row
    return Nlmp(sigma, labels, rows)


def rand_any_nlmp(
    rng: random.Random,
    max_states: int = 5,
    max_labels: int = 3,
    max_row: int = 3,
) -> Nlmp:
    """Rows assigned per state over a possibly coarse sigma-algebra, so
    validation may fail."""
    universe = rand_universe(rng, max_states)
    sigma = rand_sigma(rng, universe, coarse=rng.random() < 0.5)
    labels = tuple(chr(ord("a") + i) for i in range(rng.randint(1, max_labels)))
    rows = {}
    for s in universe:
        for a in labels:
            k = rng.randint(0, max_row)
            rows[(s, a)] = tuple(rand_measure(rng, sigma) for _ in range(k))
    return Nlmp(sigma, labels, rows)


def rand_lmp(rng: random.Random, max_states: int = 4, coarse: bool = False, per_state: bool = False) -> Lmp:
    universe = rand_universe(rng, max_states)
    sigma = rand_sigma(rng, universe, coarse)
    labels = tuple(chr(ord("a") + i) for i in range(rng.randint(1, 2)))
    kernels: dict[tuple[str, str], Measure] = {}
    if per_state:
        for s in universe:
            for a in labels:
                kernels[(s, a)] = rand_measure(rng, sigma)
    else:
        for atom in sigma.atoms:
            for a in labels:
                mu = rand_measure(rng, sigma)
                for s in atom:
                    kernels[(s, a)] = mu
    return Lmp(sigma, labels, kernels)


def rand_symmetric_relation(rng: random.Random, universe: Universe, density: float = 0.3) -> Relation:
    pairs = set()
    states = list(universe)
    for s in states:
        for t in states:
            if rng.random() < density:
                pairs.add((s, t))
                pairs.add((t, s))
    return Relation(universe, frozenset(pairs))


def rand_state_formula(rng: random.Random, labels: tuple[str, ...], depth: int):
    choices = ["top"]
    if depth > 0 and labels:
        choices += ["and", "diamond", "multi", "multi"]
    kind = rng.choice(choices)
    if kind == "top":
        return Top()
    if kind == "and":
        return And(
            rand_state_formula(rng, labels, depth - 1),
            rand_state_formula(rng, labels, depth - 1),
        )
    if kind == "diamond":
        return Diamond(rng.choice(labels), rand_measure_formula(rng, labels, depth - 1))

    def rand_constraint():
        # Op, threshold, then sub-formula: the order the seeded tests' data was drawn in.
        op, q = rng.choice("><"), rand_threshold(rng)
        return BOUNDS[op](rand_state_formula(rng, labels, depth - 1), q)

    constraints = tuple(rand_constraint() for _ in range(rng.randint(1, 2)))
    return DiamondMulti(rng.choice(labels), constraints)


def rand_measure_formula(rng: random.Random, labels: tuple[str, ...], depth: int):
    kind = rng.choice(["atleast", "greater", "less", "atmost", "or", "not"] if depth > 0 else ["atleast"])
    if kind == "or":
        return MOr(
            tuple(rand_measure_formula(rng, labels, depth - 1) for _ in range(rng.randint(2, 3)))
        )
    if kind == "not":
        return MNot(rand_measure_formula(rng, labels, depth - 1))
    phi = rand_state_formula(rng, labels, depth - 1) if depth > 0 else Top()
    q = rand_threshold(rng)
    return {"atleast": AtLeast, "greater": GreaterThan, "less": LessThan, "atmost": AtMost}[kind](phi, q)


def rand_threshold(rng: random.Random) -> Fraction:
    den = rng.randint(1, 4)
    return F(rng.randint(0, den), den)


# ---------------------------------------------------------------------------
# Brute-force oracles


def closure_family(universe: Universe, generators) -> frozenset[frozenset[str]]:
    """Literal closure of the generators under complement and pairwise
    union (enough on a finite universe)."""
    full = frozenset(universe.states)
    family = {frozenset(), full} | {frozenset(g) for g in generators}
    while True:
        new = set(family)
        for q in family:
            new.add(full - q)
        for q1 in family:
            for q2 in family:
                new.add(q1 | q2)
        if new == family:
            return frozenset(family)
        family = new


def family_atoms(family, universe: Universe) -> frozenset[frozenset[str]]:
    """Minimal non-empty members: intersect every member containing each
    state (the family must be closed, so intersections stay inside)."""
    atoms = set()
    for s in universe:
        atom = frozenset(universe.states)
        for q in family:
            if s in q:
                atom &= q
        atoms.add(atom)
    return frozenset(atoms)


def measurable_sets(sigma: SigmaAlgebra) -> list[frozenset[str]]:
    """All measurable sets, i.e. all unions of atoms (2^len(atoms) sets):
    the empty set, then for each atom in turn the unions of it with
    every set listed before it."""
    sets: list[frozenset[str]] = [frozenset()]
    for a in sigma.atoms:
        sets += [q | a for q in sets]
    return sets


def measurable_family(sigma: SigmaAlgebra) -> frozenset[frozenset[str]]:
    return frozenset(measurable_sets(sigma))


def image(r: Relation, q) -> frozenset[str]:
    q = r.universe.check_subset(q)
    return frozenset(t for s, t in r.pairs if s in q)


def is_r_closed(r: Relation, q) -> bool:
    """True iff the image of q under r stays inside q."""
    q = r.universe.check_subset(q)
    return image(r, q) <= q


def from_pairs(universe: Universe, pairs) -> Relation:
    return Relation(universe, frozenset(pairs))


def identity_relation(universe: Universe) -> Relation:
    return Relation(universe, frozenset((s, s) for s in universe))


def total_relation(universe: Universe) -> Relation:
    return Relation(universe, frozenset((s, t) for s in universe for t in universe))


def ordered_pairs(r: Relation) -> list[tuple[str, str]]:
    """r's pairs in universe order."""
    index = r.universe.index
    return sorted(r.pairs, key=lambda p: (index(p[0]), index(p[1])))


def compose(r1: Relation, r2: Relation) -> Relation:
    pairs = frozenset((s, v) for s, t in r1.pairs for u, v in r2.pairs if t == u)
    return Relation(r1.universe, pairs)


def is_equivalence(r: Relation) -> bool:
    """Reflexive, symmetric, and transitive: r composed with itself
    stays inside r."""
    reflexive = all((s, s) in r.pairs for s in r.universe)
    return reflexive and r.is_symmetric and compose(r, r).pairs <= r.pairs


def union(r1: Relation, r2: Relation) -> Relation:
    return Relation(r1.universe, r1.pairs | r2.pairs)


def classes(r: Relation) -> tuple[frozenset[str], ...]:
    """Equivalence classes ordered by their first state; requires an
    equivalence."""
    if not is_equivalence(r):
        raise PreconditionError("classes() requires an equivalence relation")
    index = r.universe.index
    return tuple(sorted({image(r, {s}) for s in r.universe}, key=lambda c: min(map(index, c))))


def rclosed_family(sigma: SigmaAlgebra, r: Relation) -> frozenset[frozenset[str]]:
    return frozenset(q for q in measurable_sets(sigma) if is_r_closed(r, q))


def all_set_partitions(items):
    """Every partition of a finite collection (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1 :]
        yield [{first}] + part


def all_equivalences(universe: Universe):
    for part in all_set_partitions(universe.states):
        yield Relation.from_partition(universe, part)


def subalgebras(sigma: SigmaAlgebra) -> list[SigmaAlgebra]:
    """All sub-sigma-algebras, i.e. all coarsenings of the atom partition."""
    out = []
    for part in all_set_partitions(range(len(sigma.atoms))):
        atoms = tuple(
            frozenset().union(*(sigma.atoms[i] for i in block)) for block in part
        )
        out.append(SigmaAlgebra(sigma.universe, atoms))
    return out


def lmp_bisimilarity(l: Lmp) -> Relation:
    """Deterministic-model bisimilarity by its own greatest fixpoint:
    keep a pair while the kernels agree on every measurable set closed
    under the current relation.  Shares nothing with the production
    fixpoints."""
    pairs = {(s, t) for s in l.states for t in l.states}
    while True:
        closed = [
            q
            for q in measurable_sets(l.sigma)
            if all((s in q) == (t in q) for s, t in pairs)
        ]
        new = {
            (s, t)
            for s, t in pairs
            if all(
                l.kernel(s, a).value(q) == l.kernel(t, a).value(q)
                for a in l.labels
                for q in closed
            )
        }
        if new == pairs:
            return Relation(l.universe, frozenset(pairs))
        pairs = new


def _class_unions(classes):
    """Every union of the given measure classes (2^len(classes) sets)."""
    n = len(classes)
    for mask in range(2 ** n):
        yield tuple(mu for i in range(n) if mask >> i & 1 for mu in classes[i])


def state_bisim_direct(m: Nlmp, r: Relation) -> bool:
    """State bisimulation by literal quantification over every union of
    the pool's profile classes over the r-closed sub-sigma-algebra:
    related states must lie on the same side of every hit preimage."""
    classes = trace_classes(scan_pool(m), sigma_of_relation(m.sigma, r))
    for xi in _class_unions(classes):
        for a in m.labels:
            pre = scan_hit_preimage(m, a, xi)
            if any((s in pre) != (t in pre) for s, t in r.pairs):
                return False
    return True


def event_bisim_direct(m: Nlmp, lam: SigmaAlgebra) -> bool:
    """Event bisimulation by literal quantification over every union of
    the pool's lam-profile classes: every hit preimage must be
    lam-measurable."""
    classes = trace_classes(scan_pool(m), lam)
    return all(
        lam.is_measurable(scan_hit_preimage(m, a, xi))
        for a in m.labels
        for xi in _class_unions(classes)
    )


def profile_signature(m: Nlmp, lam: SigmaAlgebra):
    """Per label, the set of lam-profile keys of a state's row: the
    traditional signature keyed by `profile` rather than by interned
    ids."""
    profiles = {mu: profile(mu, lam) for mu in scan_pool(m)}
    return lambda s: tuple(frozenset(profiles[mu] for mu in m.row(s, a)) for a in m.labels)


def state_signature(m: Nlmp, lam: SigmaAlgebra):
    """Per label, the indices of the pool's lam-profile classes that a
    state's transition set intersects."""
    class_sets = [frozenset(c) for c in trace_classes(scan_pool(m), lam)]

    def key(s: str) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(i for i, c in enumerate(class_sets) if not c.isdisjoint(m.row(s, a)))
            for a in m.labels
        )

    return key


def event_signature(m: Nlmp, lam: SigmaAlgebra):
    """Membership in the hit preimage, under every label, of every
    lam-profile class of the pool."""
    classes = trace_classes(scan_pool(m), lam)
    preimages = [scan_hit_preimage(m, a, cls) for a in m.labels for cls in classes]
    return lambda s: tuple(s in pre for pre in preimages)


def refinement_under(m: Nlmp, signature) -> list[tuple[tuple[frozenset[str], ...], list[list[list[str]]]]]:
    """The rounds of partition refinement from the total partition when
    blocks are split by ``signature(m, lam)``, as (atoms of lam, sub-blocks
    per block), with the states of a block in universe order and its
    sub-blocks in first-seen order: the shape `nlmp.bisim.refinement`
    records, computed without it."""
    lam = SigmaAlgebra.trivial(m.universe)
    rounds = []
    while True:
        key = signature(m, lam)
        splits = []
        for block in lam.atoms:
            groups: dict = {}
            for s in sorted(block, key=m.universe.index):
                groups.setdefault(key(s), []).append(s)
            splits.append(list(groups.values()))
        rounds.append((lam.atoms, splits))
        if all(len(subs) == 1 for subs in splits):
            return rounds
        lam = SigmaAlgebra(m.universe, tuple(frozenset(b) for subs in splits for b in subs))


def lmp_validate_direct(l: Lmp) -> list[tuple[frozenset[str], Finding]]:
    """lmp_validate by literal quantification over every measurable set,
    each finding paired with the set whose value map it is about."""
    out = []
    for a in l.labels:
        for q in measurable_sets(l.sigma):
            by_value: dict = {}
            for s in l.states:
                by_value.setdefault(l.kernel(s, a).value(q), set()).add(s)
            for v, level in sorted(by_value.items()):
                if not l.sigma.is_measurable(level):
                    message = f"kernel value map on {sorted(q)} has a non-measurable level set at {v}"
                    out.append((q, Finding(message, label=a, witness_set=frozenset(level))))
    return out


# ---------------------------------------------------------------------------
# The paper's characterizations on non-probabilistic models, where every
# transition measure is a point mass: oracles for is_traditional_bisim
# and is_state_bisim


@dataclass(frozen=True)
class DiamondWitness:
    """A measurable target set reachable from one related state only."""

    s: str
    t: str
    label: str
    q: frozenset[str]


def point_masses_only(m: Nlmp) -> bool:
    """True iff every transition measure is a point mass: the model is
    non-probabilistic."""
    return all(mu.is_dirac for mu in m.pool)


def point_mass_closed_sigma(m: Nlmp, r: Relation) -> SigmaAlgebra:
    """The r-closed sub-sigma-algebra, for the checks defined only on
    non-probabilistic models."""
    if not point_masses_only(m):
        raise PreconditionError("the point-mass checks need a non-probabilistic model")
    return sigma_of_relation(m.sigma, r)


def np_traditional_check(m: Nlmp, r: Relation) -> CheckResult:
    """Point-mass specialization of the traditional check: a target u of
    s must be matched by a target v of t that no r-closed measurable set
    separates from u."""
    sig_r = point_mass_closed_sigma(m, r)

    def block_of(mu: Measure) -> frozenset[str]:
        return atom_of(sig_r, min(scan_dirac_atom(mu)))

    for s, t in ordered_pairs(r):
        for a in m.labels:
            target_blocks = {block_of(nu) for nu in m.row(t, a)}
            for mu in m.row(s, a):
                if block_of(mu) not in target_blocks:
                    return CheckResult(False, TraditionalWitness(s, t, a, mu))
    return CheckResult(True)


def np_state_check(m: Nlmp, r: Relation) -> CheckResult:
    """Reachability specialization of the state check: related states
    must reach exactly the same r-closed measurable sets.

    Only the atoms of the r-closed sub-sigma-algebra are tried, smallest
    first.  A point mass reaches a union of atoms iff it reaches one of
    them, so a set reached from s but not from t contains an atom
    reached from s but not from t.  That atom comes no later in the
    (size, sorted states) order, so the first failing set over all
    r-closed measurable sets is an atom and the witness is the same.
    """
    return _first_unmatched_reach(m, r, point_mass_closed_sigma(m, r).atoms)


def np_state_direct(m: Nlmp, r: Relation) -> CheckResult:
    """np_state_check by literal quantification over every r-closed
    measurable set."""
    return _first_unmatched_reach(m, r, measurable_sets(point_mass_closed_sigma(m, r)))


def _first_unmatched_reach(m: Nlmp, r: Relation, sets) -> CheckResult:
    """The first of the sets, smallest first (ties by sorted states), that
    one state of a pair of r reaches under some label and the other does
    not."""
    pairs = ordered_pairs(r)
    for q in sorted(sets, key=lambda q: (len(q), sorted(q))):
        for a in m.labels:
            reach = scan_diamond(m, a, q)
            for s, t in pairs:
                if (s in reach) != (t in reach):
                    return CheckResult(False, DiamondWitness(s, t, a, q))
    return CheckResult(True)


def delta_trace_family(pool, lam: SigmaAlgebra) -> frozenset[frozenset[Measure]]:
    """Traces on the pool of the measure sets generated by lam: closure
    under union, intersection, and complement (within the pool) of the
    inclusive threshold sets over lam-measurable targets, with
    thresholds ranging over the values pool measures actually take."""
    pool = frozenset(pool)
    gens = {pool, frozenset()}
    for q in measurable_sets(lam):
        values = {mu.value(q) for mu in pool}
        for v in values:
            gens.add(frozenset(mu for mu in pool if mu.value(q) >= v))
    family = set(gens)
    while True:
        new = set(family)
        for x in family:
            new.add(pool - x)
            for y in family:
                new.add(x | y)
                new.add(x & y)
        if new == family:
            return frozenset(family)
        family = new


def relevant_thresholds(pool, ext) -> list[Fraction]:
    """Values the pool measures take on ext, their consecutive
    midpoints, and the endpoints 0 and 1."""
    values = sorted({mu.value(ext) for mu in pool} | {F(0), F(1)})
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return sorted(set(values) | set(mids))


def sublogic_extensions(m: Nlmp, depth: int) -> set[frozenset[str]]:
    """Extensions of every finitary-sublogic formula of modal depth at
    most `depth`, computed semantically.

    A modality's extension only depends on which pool measures satisfy
    all its bounds, and those measure sets are exactly the intersections
    of the single-bound measure sets, so closing the latter under
    intersection enumerates every reachable extension without touching
    the (unbounded) syntax.
    """
    pool = scan_pool(m)
    exts: set[frozenset[str]] = {frozenset(m.states)}
    for _ in range(depth):
        new = set(exts)
        for a in m.labels:
            base: set[frozenset] = set()
            for ext in exts:
                for q in relevant_thresholds(pool, ext):
                    base.add(frozenset(mu for mu in pool if mu.value(ext) > q))
                    base.add(frozenset(mu for mu in pool if mu.value(ext) < q))
            filters = {frozenset(pool)} | base
            while True:
                more = set(filters)
                for f1 in filters:
                    for f2 in base:
                        more.add(f1 & f2)
                if more == filters:
                    break
                filters = more
            for f in filters:
                new.add(frozenset(s for s in m.states if set(m.row(s, a)) & f))
        while True:
            more = set(new)
            for e1 in new:
                for e2 in new:
                    more.add(e1 & e2)
            if more == new:
                break
            new = more
        exts = new
    return exts


def single_bound_separates(m: Nlmp, s: str, t: str, depth: int = 2) -> bool:
    """Exhaustive search over modalities with one probability bound,
    the bound's state formula ranging over all depth-limited sublogic
    extensions and the threshold over the pool-relevant rationals."""
    for ext in sublogic_extensions(m, depth):
        for a in m.labels:
            for q in relevant_thresholds(scan_pool(m), ext):
                for op in (">", "<"):
                    sat = frozenset(
                        w
                        for w in m.states
                        if any(
                            (mu.value(ext) > q if op == ">" else mu.value(ext) < q)
                            for mu in m.row(w, a)
                        )
                    )
                    if (s in sat) != (t in sat):
                        return True
    return False


def row_constant_on_atoms(m: Nlmp) -> bool:
    """Independent characterization of measurability on finite models:
    transition rows must be constant within sigma-algebra atoms."""
    for atom in m.sigma.atoms:
        states = sorted(atom)
        for a in m.labels:
            rows = {frozenset(m.row(s, a)) for s in states}
            if len(rows) > 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Straightforward versions of the indexed lookups (reference for the
# dict indices and one-pass sums in the library)


def tuple_index(universe: Universe, s: str) -> int:
    """Universe.index as a search of the state tuple."""
    try:
        return universe.states.index(s)
    except ValueError:
        raise DomainError(f"unknown state {s!r}") from None


def atom_of(sigma: SigmaAlgebra, s: str) -> frozenset[str]:
    """The atom of sigma holding s."""
    return sigma.atoms[sigma.atom_index(s)]


def scan_atom_index(sigma: SigmaAlgebra, s: str) -> int:
    """SigmaAlgebra.atom_index as a scan of the atoms."""
    for i, a in enumerate(sigma.atoms):
        if s in a:
            return i
    raise DomainError(f"unknown state {s!r}")


def common_denominator_row(measures) -> tuple[Measure, ...]:
    """A transition row as `nlmp.model` ordered it by a sort key: the
    distinct measures, each key the pairs (-atom index, numerator) with
    every numerator put over the lcm of the row's denominators."""
    uniq = tuple(dict.fromkeys(measures))
    if len(uniq) < 2:
        return uniq
    den = lcm(*[mu.den for mu in uniq])
    return tuple(sorted(uniq, key=lambda mu: tuple((-i, n * (den // mu.den)) for i, n in mu.nums)))


def quadratic_sigma_is_sub(lam: SigmaAlgebra, sigma: SigmaAlgebra) -> bool:
    """sigma_is_sub by testing every atom of sigma against every atom of lam."""
    if lam.universe != sigma.universe:
        raise DomainError("sigma-algebras live on different universes")
    return all(any(a <= b for b in lam.atoms) for a in sigma.atoms)


def support(mu: Measure) -> tuple[tuple[int, Fraction], ...]:
    """The pairs (atom index, weight) of the atoms of non-zero weight, in
    atom order."""
    return tuple((i, F(n, mu.den)) for i, n in mu.nums)


def weights(mu: Measure) -> tuple[Fraction, ...]:
    """The dense view: one weight per atom of mu's sigma-algebra."""
    dense = [F(0)] * len(mu.sigma.atoms)
    for i, w in support(mu):
        dense[i] = w
    return tuple(dense)


def dense_profile(mu: Measure, lam: SigmaAlgebra) -> tuple[Fraction, ...]:
    """profile as one sum per lam atom over every atom of mu's sigma-algebra."""
    if not quadratic_sigma_is_sub(lam, mu.sigma):
        raise PreconditionError("profile requires a sub-sigma-algebra of the measure's")
    return tuple(
        sum((w for a, w in zip(mu.sigma.atoms, weights(mu)) if a <= b), F(0))
        for b in lam.atoms
    )


def profile_values(key, lam: SigmaAlgebra) -> tuple[Fraction, ...]:
    """A profile key expanded into one value per lam atom: atom ``j``
    gets its numerator over the numerators' sum, an absent atom 0."""
    total = sum(n for _, n in key)
    dense = [F(0)] * len(lam.atoms)
    for j, n in key:
        dense[j] = F(n, total)
    return tuple(dense)


def profile_key(values) -> tuple[tuple[int, int], ...]:
    """The key `profile` gives a dense profile: the non-zero entries'
    indices with their numerators over the common denominator, divided
    by the numerators' gcd."""
    den = lcm(*[v.denominator for v in values])
    nums = [(j, v.numerator * (den // v.denominator)) for j, v in enumerate(values) if v]
    g = gcd(*[n for _, n in nums])
    return tuple((j, n // g) for j, n in nums)


def dense_trace_classes(pool, lam: SigmaAlgebra) -> tuple[tuple[Measure, ...], ...]:
    """trace_classes by grouping the pool on whole dense profiles, in
    first-seen order."""
    groups: dict[tuple[Fraction, ...], list[Measure]] = {}
    for mu in pool:
        groups.setdefault(dense_profile(mu, lam), []).append(mu)
    return tuple(tuple(g) for g in groups.values())


def build_pool(measures) -> tuple[Measure, ...]:
    """Deduplicate by exact equality, preserving first-seen order."""
    seen: dict[Measure, None] = {}
    for mu in measures:
        seen.setdefault(mu)
    return tuple(seen)


def scan_pool(m: Nlmp) -> tuple[Measure, ...]:
    """Nlmp.pool by a scan of every row: the distinct transition
    measures in first-seen order over (state, label)."""
    return build_pool(mu for s in m.states for a in m.labels for mu in m.row(s, a))


def scan_hit_preimage(m: Nlmp, a: str, xi) -> frozenset[str]:
    """hit_preimage as a scan of every state's row under a."""
    if a not in m.labels:
        raise DomainError(f"unknown label {a!r}")
    xi = frozenset(xi)
    if not xi <= frozenset(scan_pool(m)):
        raise DomainError("xi contains a measure outside the model's pool")
    return frozenset(s for s in m.states if not xi.isdisjoint(m.row(s, a)))


def scan_diamond(m: Nlmp, a: str, q) -> frozenset[str]:
    """The states with a point-mass transition under a into q, by a scan
    of every state's row under a for a point mass whose atom meets q.
    Defined on non-probabilistic models only."""
    if not all(scan_dirac_atom(mu) is not None for mu in scan_pool(m)):
        raise PreconditionError("diamond is only defined on non-probabilistic models")
    if a not in m.labels:
        raise DomainError(f"unknown label {a!r}")
    q = m.universe.check_subset(q)
    return frozenset(s for s in m.states if any(scan_dirac_atom(mu) & q for mu in m.row(s, a)))


def scan_dirac_atom(mu: Measure):
    """The atom of weight 1 of a point mass, None for any other measure,
    by a scan of every dense weight."""
    for a, w in zip(mu.sigma.atoms, weights(mu)):
        if w == 1:
            return a
    return None


def class_findings(m: Nlmp) -> tuple[Finding, ...]:
    """nlmp_validate's findings by testing, per label, the scanned hit
    preimage of every profile class of the pool over the model's own
    sigma-algebra."""
    findings = []
    for a in m.labels:
        for cls in trace_classes(scan_pool(m), m.sigma):
            pre = scan_hit_preimage(m, a, cls)
            if not all_atoms_is_measurable(m.sigma, pre):
                message = "hit preimage of a measurable set of measures is not measurable"
                findings.append(Finding(message, label=a, xi=cls, witness_set=pre))
    return tuple(findings)


def rand_coarsening(rng: random.Random, sigma: SigmaAlgebra) -> SigmaAlgebra:
    """A random sub-sigma-algebra: a random partition of sigma's atoms,
    each block merged into one atom."""
    blocks = rand_partition(rng, list(sigma.atoms))
    return SigmaAlgebra(sigma.universe, tuple(frozenset().union(*b) for b in blocks))


# ---------------------------------------------------------------------------
# The evaluator as a tree walk over dense measures (reference for the
# memoised DAG evaluation, the sparse Measure.value and the O(|q|)
# measurability test in the library)


def all_atoms_is_measurable(sigma: SigmaAlgebra, q) -> bool:
    """SigmaAlgebra.is_measurable by testing every atom against q."""
    q = sigma.universe.check_subset(q)
    return all(a <= q or not (a & q) for a in sigma.atoms)


def dense_value(mu: Measure, q) -> Fraction:
    """Measure.value as a sum over every atom, zero weights included."""
    q = mu.sigma.universe.check_subset(q)
    if not all_atoms_is_measurable(mu.sigma, q):
        raise DomainError(f"set {sorted(q)} is not measurable")
    return sum((w for a, w in zip(mu.sigma.atoms, weights(mu)) if a <= q), F(0))


def _tree_assert_measurable(m: Nlmp, q) -> None:
    if not all_atoms_is_measurable(m.sigma, q):
        raise InternalCheckError("formula denotes a non-measurable state set")


def tree_eval_state(m: Nlmp, phi) -> frozenset[str]:
    """eval_state walking the formula as a tree: a shared subformula is
    evaluated once per occurrence, every bound once per row entry."""
    if isinstance(phi, Top):
        return frozenset(m.states)
    if isinstance(phi, And):
        return tree_eval_state(m, phi.left) & tree_eval_state(m, phi.right)
    if isinstance(phi, Diamond):
        result = scan_hit_preimage(m, phi.label, tree_eval_measure(m, phi.body))
        _tree_assert_measurable(m, result)
        return result
    if isinstance(phi, DiamondMulti):
        if phi.label not in m.labels:
            raise DomainError(f"unknown label {phi.label!r}")
        bounds = [(c, tree_eval_state(m, c.phi)) for c in phi.constraints]
        result = frozenset(
            s
            for s in m.states
            if any(
                all(
                    dense_value(mu, ext) > c.q if c.op == ">" else dense_value(mu, ext) < c.q
                    for c, ext in bounds
                )
                for mu in m.row(s, phi.label)
            )
        )
        _tree_assert_measurable(m, result)
        return result
    raise TypeError(f"not a state formula: {phi!r}")


def eval_measure(m: Nlmp, psi) -> frozenset[Measure]:
    """The library's evaluator at the measure level: the set of pool
    measures satisfying psi, negation complementing within the pool."""
    return _evaluate(m, psi, MeasureFormula, {})


def tree_eval_measure(m: Nlmp, psi) -> frozenset[Measure]:
    if isinstance(psi, MOr):
        out: frozenset[Measure] = frozenset()
        for item in psi.items:
            out |= tree_eval_measure(m, item)
        return out
    if isinstance(psi, MNot):
        return frozenset(scan_pool(m)) - tree_eval_measure(m, psi.item)
    ext = tree_eval_state(m, psi.phi)
    keep = {
        AtLeast: lambda v: v >= psi.q,
        GreaterThan: lambda v: v > psi.q,
        LessThan: lambda v: v < psi.q,
        AtMost: lambda v: v <= psi.q,
    }[type(psi)]
    return frozenset(mu for mu in scan_pool(m) if keep(dense_value(mu, ext)))


def modal_depth(f, memo=None) -> int:
    """The deepest nesting of modalities (`<a>` and `<a>[..]`) in a
    formula, each distinct node of its DAG walked once."""
    memo = {} if memo is None else memo
    if id(f) not in memo:
        if isinstance(f, Top):
            d = 0
        elif isinstance(f, And):
            d = max(modal_depth(f.left, memo), modal_depth(f.right, memo))
        elif isinstance(f, Diamond):
            d = 1 + modal_depth(f.body, memo)
        elif isinstance(f, DiamondMulti):
            d = 1 + max(modal_depth(c.phi, memo) for c in f.constraints)
        elif isinstance(f, MOr):
            d = max(modal_depth(item, memo) for item in f.items)
        elif isinstance(f, MNot):
            d = modal_depth(f.item, memo)
        else:
            d = modal_depth(f.phi, memo)
        memo[id(f)] = d
    return memo[id(f)]


# ---------------------------------------------------------------------------
# Definitional expansions of the derived modalities


def expand_multi(phi: DiamondMulti) -> Diamond:
    """The multi-constraint diamond as a plain diamond over a measure
    level conjunction (made of negation and disjunction)."""
    return Diamond(phi.label, MNot(MOr(tuple(MNot(c) for c in phi.constraints))))


def expand_greater(m: Nlmp, phi, q: Fraction) -> MOr:
    """The strict bound as a finite disjunction of inclusive bounds over
    the pool-relevant thresholds (the values model measures actually
    take on phi's extension)."""
    ext = eval_state(m, phi)
    values = sorted({mu.value(ext) for mu in m.pool if mu.value(ext) > q})
    return MOr(tuple(AtLeast(phi, v) for v in values))


# ---------------------------------------------------------------------------
# Measure values and bounds as free functions (the tests' vocabulary for
# measure sets; the library itself only needs Measure.value and profile)


def measure_eval(mu: Measure, q) -> Fraction:
    return mu.value(q)


@dataclass(frozen=True)
class BoundSpec:
    """A probability bound: one of >=, >, <, <= a threshold, or an open
    interval (lo, hi).  Thresholds are rationals in [0, 1]."""

    kind: str  # "ge" | "gt" | "lt" | "le" | "interval"
    lo: Fraction
    hi: Fraction | None = None

    def __post_init__(self):
        if self.kind not in ("ge", "gt", "lt", "le", "interval"):
            raise DomainError(f"unknown bound kind {self.kind!r}")
        object.__setattr__(self, "lo", Fraction(self.lo))
        if self.kind == "interval":
            if self.hi is None:
                raise DomainError("interval bound needs an upper threshold")
            object.__setattr__(self, "hi", Fraction(self.hi))
            if self.lo > self.hi:
                raise DomainError("interval bounds out of order")
        elif self.hi is not None:
            raise DomainError("only interval bounds take two thresholds")
        for q in (self.lo,) if self.hi is None else (self.lo, self.hi):
            if q < 0 or q > 1:
                raise DomainError(f"threshold {q} outside [0, 1]")

    @classmethod
    def at_least(cls, q) -> "BoundSpec":
        return cls("ge", Fraction(q))

    @classmethod
    def greater(cls, q) -> "BoundSpec":
        return cls("gt", Fraction(q))

    @classmethod
    def less(cls, q) -> "BoundSpec":
        return cls("lt", Fraction(q))

    @classmethod
    def at_most(cls, q) -> "BoundSpec":
        return cls("le", Fraction(q))

    @classmethod
    def open_interval(cls, lo, hi) -> "BoundSpec":
        return cls("interval", Fraction(lo), Fraction(hi))

    def contains(self, v: Fraction) -> bool:
        if self.kind == "ge":
            return v >= self.lo
        if self.kind == "gt":
            return v > self.lo
        if self.kind == "lt":
            return v < self.lo
        if self.kind == "le":
            return v <= self.lo
        return self.lo < v < self.hi


def in_delta_set(mu: Measure, q, b: BoundSpec) -> bool:
    """Membership of mu in the set of measures whose value on q meets b."""
    return b.contains(mu.value(q))


def measures_related(mu: Measure, nu: Measure, sigma_r: SigmaAlgebra) -> bool:
    """The lifted relation: mu and nu agree on every sigma_r-measurable set."""
    return profile(mu, sigma_r) == profile(nu, sigma_r)


# ---------------------------------------------------------------------------
# The trans-line parser before its per-call memos (reference for the
# loader in nlmp.parser): each line tokenized by one pattern, each item
# checked for its colon, its state, a repeated state and its weight, in
# that order, and its numerators accumulated into their atoms over the
# line's lcm.

ORACLE_LINE_TOKEN = re.compile(r"\{|\}|[^\s{}]+")


def oracle_line_tokens(raw: str) -> list[str]:
    return ORACLE_LINE_TOKEN.findall(raw.split("#", 1)[0])


def oracle_parse_trans(
    tokens: list[str],
    universe: Universe,
    sigma: SigmaAlgebra,
    labels: set[str],
    rationals: dict[str, tuple[int, int]],
    line_no: int,
) -> tuple[str, str, Measure]:
    """The state, label and measure of a trans line's tokens after
    "trans", or the ModelSyntaxError the line raises."""
    if len(tokens) < 3:
        raise ModelSyntaxError("trans line needs a state, a label and a target measure", line_no)
    s, a = tokens[0], tokens[1]
    if s not in universe:
        raise ModelSyntaxError(f"unknown state {s!r}", line_no)
    if a not in labels:
        raise ModelSyntaxError(f"unknown label {a!r}", line_no)
    body = tokens[2:]
    if body[0] == "->":
        if len(body) != 2:
            raise ModelSyntaxError("point-mass shorthand is 'trans s a -> target'", line_no)
        target = body[1]
        if target not in universe:
            raise ModelSyntaxError(f"unknown state {target!r}", line_no)
        return s, a, dirac(sigma, target)
    weights: dict[str, tuple[int, int]] = {}
    for item in body:
        if ":" not in item:
            raise ModelSyntaxError(f"expected 'state:weight', got {item!r}", line_no)
        target, _, w = item.rpartition(":")
        if target not in universe:
            raise ModelSyntaxError(f"unknown state {target!r}", line_no)
        if target in weights:
            raise ModelSyntaxError(f"duplicate weight for state {target!r}", line_no)
        q = rationals.get(w)
        if q is None:
            q = rationals[w] = _parse_rational(w, line_no)
        weights[target] = q
    den = lcm(*[d for _, d in weights.values()])
    totals: dict[int, int] = {}
    atom_index = sigma._atom_index
    for target, (n, d) in weights.items():
        i = atom_index[target]
        totals[i] = totals.get(i, 0) + n * (den // d)
    total = sum(totals.values())
    if total != den:
        raise ModelSyntaxError(f"weights sum to {_shown(Fraction(total, den))}, expected 1", line_no)
    mu = Measure._of(sigma, den, sorted(totals.items()))
    # The trial print: the serializer's text, or the ValueError that str()
    # raises past the int-string limit.
    try:
        _measure_text(mu)
    except ValueError:
        raise ModelSyntaxError("an atom's accumulated weight is too long to print", line_no) from None
    return s, a, mu
