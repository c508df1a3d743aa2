"""Finite measurable spaces.

A sigma-algebra on a finite universe is stored as its partition into
atoms: a set is measurable exactly when it is a union of atoms.  All
constructions in this package (generated sigma-algebras, R-closed
sub-sigma-algebras, inseparability relations) reduce to manipulating
that partition, which keeps everything exact and canonical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, PreconditionError

StateSet = frozenset[str]
Pair = tuple[str, str]

# A state identifier is one word of a model file's line: no whitespace,
# and neither `#` (a comment) nor a brace (a sigma generator).
_NOT_IN_IDENTIFIER = re.compile(r"[\s#{}]")


@dataclass(frozen=True)
class Universe:
    """A finite ordered set of state identifiers."""

    states: tuple[str, ...]

    def __post_init__(self):
        if not self.states:
            raise DomainError("universe must be non-empty")
        # A repeated state leaves the index shorter than the states.
        index = {s: i for i, s in enumerate(self.states)}
        if len(index) != len(self.states):
            raise DomainError("universe contains duplicate state identifiers")
        for s in self.states:
            if not s or _NOT_IN_IDENTIFIER.search(s):
                raise DomainError(f"state identifier {s!r} is empty or holds whitespace, '#', '{{' or '}}'")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_state_set", frozenset(self.states))

    def __contains__(self, s: str) -> bool:
        return s in self._index

    def __iter__(self):
        return iter(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def index(self, s: str) -> int:
        try:
            return self._index[s]
        except KeyError:
            raise DomainError(f"unknown state {s!r}") from None

    def check_subset(self, q: Iterable[str]) -> StateSet:
        q = frozenset(q)
        if not q <= self._state_set:
            s = next(s for s in q if s not in self._index)
            raise DomainError(f"state {s!r} is not in the universe")
        return q

    def sort(self, q: Iterable[str]) -> list[str]:
        return sorted(q, key=self.index)


@dataclass(frozen=True)
class SigmaAlgebra:
    """A finite sigma-algebra, represented by its atom partition.  The
    atoms are kept ordered by their least states."""

    universe: Universe
    atoms: tuple[StateSet, ...]

    def __post_init__(self):
        # One pass finds each atom's least state, which meets an empty
        # atom or a state outside the universe; one pass builds the atom
        # index, which comes out short of the atoms' sizes on an overlap
        # and short of the universe on a gap.  The atoms are sorted by
        # position, not as (least, atom) pairs: fewer objects for the
        # garbage collector to track.
        index = self.universe._index.__getitem__
        try:
            least = [min(map(index, a)) for a in self.atoms]
        except ValueError:
            raise DomainError("sigma-algebra atoms must be non-empty") from None
        except KeyError:
            raise DomainError("sigma-algebra atoms must cover the universe") from None
        order = sorted(range(len(least)), key=least.__getitem__)
        atoms = tuple([frozenset(self.atoms[i]) for i in order])
        atom_index = {s: i for i, a in enumerate(atoms) for s in a}
        if len(atom_index) != sum(map(len, atoms)):
            raise DomainError("sigma-algebra atoms must be disjoint")
        if len(atom_index) != len(self.universe):
            raise DomainError("sigma-algebra atoms must cover the universe")
        object.__setattr__(self, "atoms", atoms)
        # Each atom's least state, the name model text gives the atom.
        object.__setattr__(self, "_atom_names", tuple([self.universe.states[least[i]] for i in order]))
        object.__setattr__(self, "_atom_index", atom_index)
        object.__setattr__(self, "_is_powerset", len(atoms) == len(self.universe))

    @classmethod
    def powerset(cls, universe: Universe) -> "SigmaAlgebra":
        return cls(universe, tuple(frozenset([s]) for s in universe))

    @classmethod
    def trivial(cls, universe: Universe) -> "SigmaAlgebra":
        return cls(universe, (frozenset(universe.states),))

    @property
    def is_powerset(self) -> bool:
        return self._is_powerset

    def atom_index(self, s: str) -> int:
        try:
            return self._atom_index[s]
        except KeyError:
            raise DomainError(f"unknown state {s!r}") from None

    def is_measurable(self, q: Iterable[str]) -> bool:
        """True iff q is a union of atoms."""
        q = self.universe.check_subset(q)
        if self._is_powerset:
            return True
        # Only the atoms q meets can straddle it.
        return all(self.atoms[i] <= q for i in {self._atom_index[s] for s in q})


@dataclass(frozen=True)
class Relation:
    """A binary relation on a universe, as a set of ordered pairs."""

    universe: Universe
    pairs: frozenset[Pair]

    def __post_init__(self):
        for s, t in self.pairs:
            if s not in self.universe or t not in self.universe:
                raise DomainError(f"relation pair ({s!r}, {t!r}) leaves the universe")

    @classmethod
    def from_partition(cls, universe: Universe, blocks: Iterable[Iterable[str]]) -> "Relation":
        """The equivalence relation whose classes are the given blocks."""
        pairs = set()
        for block in blocks:
            block = list(block)
            for s in block:
                for t in block:
                    pairs.add((s, t))
        return cls(universe, frozenset(pairs))

    @property
    def is_symmetric(self) -> bool:
        return all((t, s) in self.pairs for s, t in self.pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __le__(self, other: "Relation") -> bool:
        return self.pairs <= other.pairs


def sigma_generate(universe: Universe, generators: Iterable[Iterable[str]]) -> SigmaAlgebra:
    """Smallest sigma-algebra containing every generator set.

    Two states end up in the same atom exactly when no generator
    separates them; closure under complement and union then falls out of
    the atom representation.  A state's signature is the list of indices
    of the generators holding it, built in one pass over each
    generator's members, so the cost is linear in the generators' total
    size, not in states times generators.
    """
    gens = [universe.check_subset(g) for g in generators]
    members: dict[str, list[int]] = {s: [] for s in universe}
    for i, g in enumerate(gens):
        for s in g:
            members[s].append(i)
    signature: dict[tuple[int, ...], set[str]] = {}
    for s, sig in members.items():
        signature.setdefault(tuple(sig), set()).add(s)
    return SigmaAlgebra(universe, tuple(frozenset(b) for b in signature.values()))


def sigma_of_relation(sigma: SigmaAlgebra, r: Relation) -> SigmaAlgebra:
    """Sub-sigma-algebra of all r-closed measurable sets.

    For symmetric r, a union of atoms is r-closed iff it is a union of
    connected components of the atom graph with an edge whenever some
    related pair straddles two atoms, so the components are the atoms of
    the result.
    """
    if sigma.universe != r.universe:
        raise DomainError("sigma-algebra and relation live on different universes")
    if not r.is_symmetric:
        raise PreconditionError("sigma_of_relation requires a symmetric relation")
    parent = list(range(len(sigma.atoms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s, t in r.pairs:
        i, j = find(sigma.atom_index(s)), find(sigma.atom_index(t))
        if i != j:
            parent[j] = i
    merged: dict[int, set[str]] = {}
    for i, a in enumerate(sigma.atoms):
        merged.setdefault(find(i), set()).update(a)
    return SigmaAlgebra(sigma.universe, tuple(frozenset(b) for b in merged.values()))


def relation_of_sigma(lam: SigmaAlgebra) -> Relation:
    """Inseparability by lam-measurable sets: the equivalence whose
    classes are exactly lam's atoms."""
    return Relation.from_partition(lam.universe, lam.atoms)


def sigma_is_sub(lam: SigmaAlgebra, sigma: SigmaAlgebra) -> bool:
    """True iff every lam-measurable set is sigma-measurable, i.e. sigma's
    atoms refine lam's."""
    if lam is sigma:
        return True
    if lam.universe != sigma.universe:
        raise DomainError("sigma-algebras live on different universes")
    if sigma._is_powerset:
        return True  # every state set is sigma-measurable
    # The lam atoms partition the universe, so an atom of sigma lies in
    # some lam atom iff it lies in the one holding any of its states.
    return all(a <= lam.atoms[lam.atom_index(next(iter(a)))] for a in sigma.atoms)
