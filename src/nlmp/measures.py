"""Exact-rational probability measures on a finite sigma-algebra.

A measure is stored as its support: the atoms of non-zero weight, by
index, with their Fraction weights.  Its behavior on a sub-sigma-algebra
is captured by its profile there (the vector of values on the coarser
atoms); two measures agree on every set of the sub-sigma-algebra iff
their profiles are equal.  The measurable sets of measures used
elsewhere in the package are never materialized: only their trace on a
model's finite pool matters, and that trace is always a union of
profile classes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, PreconditionError
from .measurable import SigmaAlgebra, StateSet, sigma_is_sub

ZERO = Fraction(0)
ONE = Fraction(1)

Profile = tuple[Fraction, ...]
Support = tuple[tuple[int, Fraction], ...]


def _rational_text(q: Fraction) -> str | None:
    # str() refuses integers beyond sys.get_int_max_str_digits(), which
    # an exact sum of shorter numerals can exceed; None stands for such.
    try:
        return str(q)
    except ValueError:
        return None


def _shown(q: Fraction) -> str:
    """q as an error message prints it."""
    return _rational_text(q) or "a rational too long to print"


def _exact_sum(weights: Iterable[Fraction]) -> Fraction:
    """The sum of the weights, added as integers over the lcm of their
    denominators and reduced once."""
    weights = tuple(weights)
    if len(weights) == 1:
        return weights[0]
    den = lcm(*[w.denominator for w in weights])
    return Fraction(sum(w.numerator * (den // w.denominator) for w in weights), den)


def _unit_weight(w, state: str | None = None) -> Fraction:
    """w as a Fraction, or DomainError unless 0 <= w <= 1."""
    if type(w) is not Fraction:
        w = Fraction(w)
    # Fraction keeps its denominator positive.
    if w.numerator < 0 or w.numerator > w.denominator:
        owner = "atom" if state is None else f"state {state!r}"
        raise DomainError(f"{owner} weight {_shown(w)} outside [0, 1]")
    return w


class Measure:
    """A probability measure on sigma, stored as its support: the pairs
    ``(atom index, weight)`` of the atoms of non-zero weight, in atom
    order.

    ``Measure(sigma, weights)`` takes one weight per atom; the other
    constructors (`from_atom_weights`, `from_state_weights`, `dirac`)
    cost time in the support, not in the number of atoms.  All of them
    go through one validator.  Measures are immutable and equal when
    their sigma-algebras and supports are; the hash is computed once,
    from the support, since pools, rows and hit preimages put the same
    measures into sets over and over.
    """

    __slots__ = ("sigma", "support", "_hash")

    sigma: SigmaAlgebra
    support: Support

    def __init__(self, sigma: SigmaAlgebra, weights: Sequence[Fraction]):
        if len(weights) != len(sigma.atoms):
            raise DomainError("need exactly one weight per atom")
        self._settle(sigma, enumerate(weights))

    @classmethod
    def _of(cls, sigma: SigmaAlgebra, items: Iterable[tuple[int, Fraction]]) -> "Measure":
        """The measure with the given (atom index, weight) pairs, in
        atom order; zero weights are dropped."""
        mu = object.__new__(cls)
        mu._settle(sigma, items)
        return mu

    def _settle(self, sigma: SigmaAlgebra, items: Iterable[tuple[int, Fraction]]) -> None:
        support = []
        for i, w in items:
            w = _unit_weight(w)
            if w:
                support.append((i, w))
        support = tuple(support)
        total = _exact_sum(w for _, w in support)
        if total != ONE:
            raise DomainError(f"atom weights sum to {_shown(total)}, expected 1")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_hash", hash(support))

    def __setattr__(self, name, value):
        raise AttributeError(f"Measure is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Measure is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.support == other.support
            and (self.sigma is other.sigma or self.sigma == other.sigma)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Measure(sigma={self.sigma!r}, support={self.support!r})"

    def __reduce__(self):
        # Unpickling re-runs the validator, which computes the hash in
        # the unpickling process.
        return (Measure._of, (self.sigma, self.support))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """The dense view: one weight per atom of sigma."""
        dense = [ZERO] * len(self.sigma.atoms)
        for i, w in self.support:
            dense[i] = w
        return tuple(dense)

    @classmethod
    def from_atom_weights(cls, sigma: SigmaAlgebra, by_atom: Mapping[StateSet, Fraction]) -> "Measure":
        by_index = {}
        for a, w in by_atom.items():
            i = sigma._atom_index.get(next(iter(a), None))
            if i is None or sigma.atoms[i] != a:
                raise DomainError(f"{sorted(a)} is not an atom")
            by_index[i] = w
        return cls._of(sigma, sorted(by_index.items()))

    @classmethod
    def from_state_weights(cls, sigma: SigmaAlgebra, by_state: Mapping[str, Fraction]) -> "Measure":
        """Weights given on states are accumulated into their atoms; a
        measure on a coarse sigma-algebra cannot see finer detail.  Each
        state weight must lie in [0, 1] on its own."""
        totals: dict[int, Fraction] = {}
        for s, w in by_state.items():
            w = _unit_weight(w, s)
            i = sigma.atom_index(s)
            totals[i] = totals[i] + w if i in totals else w
        return cls._of(sigma, sorted(totals.items()))

    def value(self, q: Iterable[str]) -> Fraction:
        """Measure of a measurable set: the sum of its atoms' weights."""
        q = frozenset(q)
        if not self.sigma.is_measurable(q):  # also rejects states outside the universe
            raise DomainError(f"set {sorted(q)} is not measurable")
        atoms = self.sigma.atoms
        return sum((w for i, w in self.support if atoms[i] <= q), ZERO)

    @property
    def dirac_atom(self) -> StateSet | None:
        """The single atom carrying weight 1, if any: a point mass has
        exactly one atom of non-zero weight."""
        return self.sigma.atoms[self.support[0][0]] if len(self.support) == 1 else None

    @property
    def is_dirac(self) -> bool:
        return len(self.support) == 1


def dirac(sigma: SigmaAlgebra, s: str) -> Measure:
    """Point mass at s: value 1 on exactly the measurable sets containing s."""
    return Measure._of(sigma, ((sigma.atom_index(s), ONE),))


def profile(mu: Measure, lam: SigmaAlgebra) -> Profile:
    """mu's values on lam's atoms, in canonical atom order.

    Requires lam to be a sub-sigma-algebra of mu's.  Two measures have
    equal profiles over lam iff they agree on every lam-measurable set.
    """
    if not sigma_is_sub(lam, mu.sigma):
        raise PreconditionError("profile requires a sub-sigma-algebra of the measure's")
    # Each atom of mu's sigma-algebra lies inside exactly one atom of lam.
    totals = [ZERO] * len(lam.atoms)
    atoms = mu.sigma.atoms
    for i, w in mu.support:
        j = lam.atom_index(next(iter(atoms[i])))
        totals[j] = totals[j] + w if totals[j] else w
    return tuple(totals)


def trace_classes(pool: Sequence[Measure], lam: SigmaAlgebra) -> tuple[tuple[Measure, ...], ...]:
    """Partition of the pool by equal profile over lam.

    The unions of these classes are exactly the traces on the pool of
    the measurable sets of measures generated by lam (see the design
    notes in the README); everything that quantifies over such sets can
    therefore quantify over unions of classes instead.
    """
    groups: dict[Profile, list[Measure]] = {}
    for mu in pool:
        groups.setdefault(profile(mu, lam), []).append(mu)
    return tuple(tuple(g) for g in groups.values())
