"""Bisimulation checkers and greatest-fixpoint computers.

Three notions are implemented, each with an independent checker:

* traditional: related states match transition measures one against one,
  modulo agreement on all r-closed measurable sets;
* state: related states hit exactly the same measurable sets of
  measures built from r-closed sets (realized as unions of profile
  classes of the pool);
* event: a sub-sigma-algebra on which the model is still a model, i.e.
  all hit preimages of its measure sets stay inside it.

The three fixpoint computers read one partition refinement
(`refinement`), computed once per model.  It splits blocks by the
profile sets of the rows; the profile classes a row hits, and its
membership in their hit preimages, carry the same information, so the
state and event signatures would split every block identically
(`tests/support.py` keeps them as oracles).  Refinement from the total
relation (the trivial sigma-algebra) shrinks toward the greatest
bisimilarity (grows toward the smallest stable sigma-algebra).  On a
finite model each bisimilarity is the inseparability relation of the
fixpoint's sigma-algebra, so a report keeps that sigma-algebra: its
atoms are the blocks and its atom index maps each state to its block;
the pair set is built only when ``relation`` is read.  A round
compares profiles by small-int ids, one pass over each pool measure's
support.  The independent checkers compare the integer keys of
`profile` and group by them through `trace_classes`, so a checker costs
about its pairs times their rows.
Determinism everywhere comes from canonical state, label, and atom
ordering.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from itertools import tee
from math import gcd
from typing import Iterator

from .errors import PreconditionError
from .measurable import (
    Relation,
    SigmaAlgebra,
    StateSet,
    relation_of_sigma,
    sigma_is_sub,
    sigma_of_relation,
)
from .measures import Measure, profile, trace_classes
from .model import Nlmp, Row, _unstable, _validation_of

Partition = tuple[StateSet, ...]


@dataclass(frozen=True)
class TraditionalWitness:
    """A measure of one related state with no counterpart on the other side."""

    s: str
    t: str
    label: str
    measure: Measure


@dataclass(frozen=True)
class StateWitness:
    """A set of pool measures hit by one related state but not the other."""

    s: str
    t: str
    label: str
    xi: tuple[Measure, ...]


@dataclass(frozen=True)
class EventWitness:
    """A measure set whose hit preimage escapes the candidate sigma-algebra."""

    label: str
    xi: tuple[Measure, ...]
    preimage: StateSet


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.holds


class Blocks:
    """A bisimilarity held as the fixpoint sigma-algebra ``lam``; two
    states are related iff they share a lam atom."""

    lam: SigmaAlgebra

    @property
    def partition(self) -> Partition:
        return self.lam.atoms

    @property
    def relation(self) -> Relation:
        """The related pairs, built anew on each read."""
        return relation_of_sigma(self.lam)


@dataclass(frozen=True)
class BisimReport(Blocks):
    kind: str  # "traditional" | "state" | "event"
    lam: SigmaAlgebra
    trace: tuple[Partition, ...]
    sigma: SigmaAlgebra | None = None


@dataclass(frozen=True)
class ComparisonReport:
    """The three bisimilarities of one model.  The reports share one lam,
    so the four booleans of the inclusion chain and of equality are True
    by construction; ``sigma_is_powerset`` says whether the model's
    sigma-algebra is the powerset."""

    traditional: BisimReport
    state: BisimReport
    event: BisimReport
    chain_holds: bool
    traditional_eq_state: bool
    state_eq_event: bool
    all_equal: bool
    sigma_is_powerset: bool


def _require_valid(m: Nlmp) -> None:
    if not _validation_of(m).valid:
        raise PreconditionError("model fails measurability validation")


def _ordered_pairs(r: Relation) -> list[tuple[str, str]]:
    idx = r.universe.index
    return sorted(r.pairs, key=lambda p: (idx(p[0]), idx(p[1])))


def is_traditional_bisim(m: Nlmp, r: Relation) -> CheckResult:
    """One-against-one matching of transition measures.

    For every related (s, t) and label, every measure leaving s must
    agree with some measure leaving t on all r-closed measurable sets,
    and symmetrically (covered because r itself is symmetric;
    `sigma_of_relation` raises PreconditionError on an asymmetric r).
    """
    sig_r = sigma_of_relation(m.sigma, r)
    prof = {mu: profile(mu, sig_r) for mu in m.pool}
    for s, t in _ordered_pairs(r):
        for a in m.labels:
            targets = {prof[nu] for nu in m.row(t, a)}
            for mu in m.row(s, a):
                if prof[mu] not in targets:
                    return CheckResult(False, TraditionalWitness(s, t, a, mu))
    return CheckResult(True)


def is_state_bisim(m: Nlmp, r: Relation) -> CheckResult:
    """Hit-set comparison of related states.

    Compares, per label, the sets of pool profile classes (over the
    r-closed sub-sigma-algebra) that each state's transition set
    intersects; the unions of those classes are exactly the measure
    sets to quantify over.  Each row measure's class is looked up, so a
    pair costs its rows, not the number of classes.
    """
    sig_r = sigma_of_relation(m.sigma, r)
    classes = trace_classes(m.pool, sig_r)
    class_of = {mu: i for i, c in enumerate(classes) for mu in c}

    def hit_indices(s: str, a: str) -> frozenset[int]:
        return frozenset([class_of[mu] for mu in m.row(s, a)])

    for s, t in _ordered_pairs(r):
        for a in m.labels:
            hs, ht = hit_indices(s, a), hit_indices(t, a)
            if hs != ht:
                i = min(hs ^ ht)
                return CheckResult(False, StateWitness(s, t, a, classes[i]))
    return CheckResult(True)


def is_event_bisim(m: Nlmp, lam: SigmaAlgebra) -> CheckResult:
    """Stability of a sub-sigma-algebra under hit preimages: (S, lam, T)
    must still be a model, the test `nlmp_validate` makes over the
    model's own sigma-algebra.  The witness is the first unstable
    (label, lam-profile class, hit preimage) of `_unstable`, which
    decides every union of classes by the single classes.
    """
    if not sigma_is_sub(lam, m.sigma):
        raise PreconditionError("candidate must be a sub-sigma-algebra of the model's")
    for found in _unstable(m, lam):
        return CheckResult(False, EventWitness(*found))
    return CheckResult(True)


@dataclass(frozen=True)
class RowProfiles:
    """The traditional signature over one sigma-algebra.  ``profiles``
    maps each pool measure to a small-int id, equal for two measures iff
    their profiles over the sigma-algebra are; synthesis reads it to find
    a measure of a given class, and ``rows`` is the model's table of each
    state's rows, one per label."""

    rows: dict[str, tuple[Row, ...]]
    profiles: dict[Measure, int]

    def __call__(self, s: str) -> tuple[frozenset[int], ...]:
        ids = self.profiles.__getitem__
        return tuple([frozenset(map(ids, row)) for row in self.rows[s]])


def traditional_signature(m: Nlmp, lam: SigmaAlgebra) -> RowProfiles:
    """Per label, the set of lam-profile ids of a state's row: two states
    keep the same key iff their rows match measure against measure.

    The guard that lam is a sub-sigma-algebra of the model's runs once,
    then ``block[i]`` gives the lam atom of model atom ``i`` (read off
    the atom's name) and each pool measure costs one pass over its
    numerators.  A profile is keyed by its block index when all its mass
    lies in one block, and otherwise by its ``(block, total)`` pairs in
    block order, each block's integer total divided by the totals' gcd;
    the reduced totals sum to the reduced denominator, so equal keys
    mean equal profiles.  Each key is interned to a small int.  A
    state's key reads its rows from the model's row table, never through
    `Nlmp.row`.

    The guard raises PreconditionError on a lam that is not a
    sub-sigma-algebra of the model's.  The refinement calls this once
    per round, the fixpoint round included, so every fixpoint it
    reports has passed the guard.
    """
    if not sigma_is_sub(lam, m.sigma):
        raise PreconditionError("profile requires a sub-sigma-algebra of the measure's")
    block = list(map(lam._atom_index.__getitem__, m.sigma._atom_names))
    ids: dict[object, int] = {}
    profiles: dict[Measure, int] = {}
    for mu in m.pool:
        nums = mu.nums
        k = block[nums[0][0]]
        if len(nums) > 1:
            totals: dict[int, int] = {}
            for i, n in nums:
                j = block[i]
                totals[j] = totals.get(j, 0) + n
            if len(totals) > 1:
                g = gcd(*totals.values())
                k = tuple(x for j in sorted(totals) for x in (j, totals[j] // g))
        profiles[mu] = ids.setdefault(k, len(ids))
    return RowProfiles(m._rows, profiles)


Round = tuple[SigmaAlgebra, RowProfiles, tuple]


def _round_source(m: Nlmp) -> Iterator[Round]:
    # A round that raises, or is interrupted, clears the model's
    # refinement slot, so that the next reader starts over instead of
    # taking the rounds read so far for the whole refinement.
    try:
        yield from _rounds(m)
    except BaseException:
        m._refinement = None
        raise


def _rounds(m: Nlmp) -> Iterator[Round]:
    # ``blocks`` holds the current blocks as universe-ordered tuples, in
    # the order of lam's atoms, so no round sorts a block.  A singleton
    # cannot split and none of its states is keyed; a block that does not
    # split keeps its lam atom in the next lam.
    rows_of = m._rows
    position = m.universe._index
    lam = SigmaAlgebra.trivial(m.universe)
    blocks: list[tuple[str, ...]] = [m.states]
    while True:
        key = traditional_signature(m, lam)
        ids = key.profiles.__getitem__
        splits = []
        nexts: list[tuple[str, ...]] = []
        atoms: list[StateSet] = []
        for block, atom in zip(blocks, lam.atoms):
            if len(block) > 1:
                groups: dict[tuple, list[str]] = {}
                for s in block:
                    groups.setdefault(tuple([frozenset(map(ids, row)) for row in rows_of[s]]), []).append(s)
                if len(groups) > 1:
                    subs = tuple(map(tuple, groups.values()))
                    splits.append(subs)
                    nexts += subs
                    atoms += map(frozenset, subs)
                    continue
            splits.append((block,))
            nexts.append(block)
            atoms.append(atom)
        yield lam, key, tuple(splits)
        if len(atoms) == len(blocks):
            return
        # The next blocks in the order the constructor gives lam's atoms,
        # by least state, which is each block's first.
        least = [position[b[0]] for b in nexts]
        order = sorted(range(len(nexts)), key=least.__getitem__)
        blocks = [nexts[i] for i in order]
        lam = SigmaAlgebra(m.universe, tuple([atoms[i] for i in order]))


def refinement_rounds(m: Nlmp) -> Iterator[Round]:
    """The rounds of `refinement`, in order, each computed when it is
    first read.

    The model's one refinement slot holds the rounds computed so far
    and the generator of the rest, so each round is computed once
    however many readers it has, and a reader that stops at round k
    leaves every later round uncomputed.
    """
    # The slot is a tee that is never advanced: it keeps every round the
    # generator has yielded, and each reader is a copy of it, which
    # starts at round 0 and shares those rounds.
    if m._refinement is None:
        (m._refinement,) = tee(_round_source(m), 1)
    return copy(m._refinement)


def refinement(m: Nlmp) -> tuple[Round, ...]:
    """Partition refinement from the total partition, one round at a time.

    Each round takes lam to be the sigma-algebra whose atoms are the
    current blocks, splits every block by ``key = traditional_signature(m,
    lam)`` (states in universe order, sub-blocks in first-seen order) and
    records ``(lam, key, sub-blocks per block)``.  A round costs one
    sub-sigma-algebra check (immediate on a powerset model), one pass over
    each pool measure's support, and one key of small ints per state of
    a block of two or more: the blocks are carried from round to round
    as universe-ordered tuples, so no block is sorted, a singleton is
    recorded as its own one sub-block without keying its state, and
    each state's rows are read from the model's row table, not through
    `Nlmp.row`.  The last round is the first in which no block splits;
    its lam is the fixpoint.  This is `refinement_rounds` drained: every
    call returns the same round objects, and only the rounds no reader
    has asked for yet are computed.

    On a valid model the rows are constant within the model's atoms, so
    every block stays a union of atoms and lam is exactly the r-closed
    sub-sigma-algebra of the blocks' equivalence.
    """
    return tuple(refinement_rounds(m))


def _fixpoint(kind: str, m: Nlmp) -> BisimReport:
    _require_valid(m)
    rounds = [lam for lam, _, _ in refinement(m)]
    lam = rounds[-1]
    return BisimReport(kind, lam, tuple(r.atoms for r in rounds), sigma=lam if kind == "event" else None)


def largest_traditional(m: Nlmp) -> BisimReport:
    """Greatest fixpoint of the one-against-one matching operator.

    A pair stays related while both rows still match measure against
    measure over the current partition.  Monotonicity of the lifting (a
    smaller relation closes more sets, hence relates fewer measures)
    makes the limit the largest relation accepted by
    is_traditional_bisim.
    """
    return _fixpoint("traditional", m)


def largest_state(m: Nlmp) -> BisimReport:
    """Greatest fixpoint of the hit-class operator: states stay together
    while, for every label, their transition sets intersect exactly the
    same profile classes over the current partition."""
    return _fixpoint("state", m)


def smallest_stable_sigma(m: Nlmp) -> BisimReport:
    """Least fixpoint, from the trivial sigma-algebra, of adding every
    hit preimage of a measure set of the current stage.

    The limit is the smallest sub-sigma-algebra on which the model is
    still a model; its inseparability relation is event bisimilarity.
    That it is a sub-sigma-algebra of the model's was checked by the
    fixpoint round's `traditional_signature`, which raises
    PreconditionError otherwise.
    """
    return _fixpoint("event", m)


def compare_bisims(m: Nlmp) -> ComparisonReport:
    """Compute all three bisimilarities: traditional <= state <= event
    on every valid model, with equality on full powerset models.

    The three fixpoints read one refinement, so their reports share one
    lam, and the chain and both equalities hold by construction, on
    coarse sigma-algebras too.  The independent checkers
    (`is_traditional_bisim`, `is_state_bisim`, `is_event_bisim`) are
    what the tests hold the reports against.
    """
    return ComparisonReport(
        traditional=largest_traditional(m),
        state=largest_state(m),
        event=smallest_stable_sigma(m),
        chain_holds=True,
        traditional_eq_state=True,
        state_eq_event=True,
        all_equal=True,
        sigma_is_powerset=m.sigma.is_powerset,
    )
