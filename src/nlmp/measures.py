"""Exact-rational probability measures on a finite sigma-algebra.

A measure is a vector of Fraction weights, one per atom.  Its behavior
on a sub-sigma-algebra is captured by its profile there (the vector of
values on the coarser atoms); two measures agree on every set of the
sub-sigma-algebra iff their profiles are equal.  The measurable sets of
measures used elsewhere in the package are never materialized: only
their trace on a model's finite pool matters, and that trace is always
a union of profile classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, PreconditionError
from .measurable import SigmaAlgebra, StateSet, sigma_is_sub

ZERO = Fraction(0)
ONE = Fraction(1)

Profile = tuple[Fraction, ...]


@dataclass(frozen=True)
class Measure:
    """A probability measure, stored as one weight per atom of sigma.

    Measures are immutable, so the hash (the dataclass hash of
    ``(sigma, weights)``) is computed once: pools, rows and hit
    preimages put the same measures into sets over and over.  So is the
    support, the atoms of non-zero weight with their weights, over which
    ``value`` sums.
    """

    sigma: SigmaAlgebra
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.sigma.atoms):
            raise DomainError("need exactly one weight per atom")
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        for w in self.weights:
            if w < ZERO or w > ONE:
                raise DomainError(f"atom weight {w} outside [0, 1]")
        if sum(self.weights) != ONE:
            raise DomainError(f"atom weights sum to {sum(self.weights)}, expected 1")
        object.__setattr__(self, "_hash", hash((self.sigma, self.weights)))
        object.__setattr__(
            self, "_support", tuple((a, w) for a, w in zip(self.sigma.atoms, self.weights) if w)
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: unpickling re-runs the
        # constructor instead of restoring another process's hash.
        return (Measure, (self.sigma, self.weights))

    @classmethod
    def from_atom_weights(cls, sigma: SigmaAlgebra, by_atom: Mapping[StateSet, Fraction]) -> "Measure":
        return cls(sigma, tuple(Fraction(by_atom.get(a, ZERO)) for a in sigma.atoms))

    @classmethod
    def from_state_weights(cls, sigma: SigmaAlgebra, by_state: Mapping[str, Fraction]) -> "Measure":
        """Weights given on states are accumulated into their atoms; a
        measure on a coarse sigma-algebra cannot see finer detail."""
        totals = [ZERO] * len(sigma.atoms)
        for s, w in by_state.items():
            totals[sigma.atom_index(s)] += Fraction(w)
        return cls(sigma, tuple(totals))

    def value(self, q: Iterable[str]) -> Fraction:
        """Measure of a measurable set: the sum of its atoms' weights."""
        q = frozenset(q)
        if not self.sigma.is_measurable(q):  # also rejects states outside the universe
            raise DomainError(f"set {sorted(q)} is not measurable")
        return sum((w for a, w in self._support if a <= q), ZERO)

    @property
    def dirac_atom(self) -> StateSet | None:
        """The single atom carrying weight 1, if any: a point mass has
        exactly one atom of non-zero weight."""
        return self._support[0][0] if len(self._support) == 1 else None

    @property
    def is_dirac(self) -> bool:
        return self.dirac_atom is not None


def _rational_text(q: Fraction) -> str | None:
    # str() refuses integers beyond sys.get_int_max_str_digits(), which
    # an exact sum of shorter numerals can exceed; None stands for such.
    try:
        return str(q)
    except ValueError:
        return None


def dirac(sigma: SigmaAlgebra, s: str) -> Measure:
    """Point mass at s: value 1 on exactly the measurable sets containing s."""
    if s not in sigma.universe:
        raise DomainError(f"unknown state {s!r}")
    i = sigma.atom_index(s)
    return Measure(sigma, tuple(ONE if j == i else ZERO for j in range(len(sigma.atoms))))


def profile(mu: Measure, lam: SigmaAlgebra) -> Profile:
    """mu's values on lam's atoms, in canonical atom order.

    Requires lam to be a sub-sigma-algebra of mu's.  Two measures have
    equal profiles over lam iff they agree on every lam-measurable set.
    """
    if not sigma_is_sub(lam, mu.sigma):
        raise PreconditionError("profile requires a sub-sigma-algebra of the measure's")
    # Each atom of mu's sigma-algebra lies inside exactly one atom of lam.
    totals = [ZERO] * len(lam.atoms)
    for a, w in mu._support:
        totals[lam.atom_index(next(iter(a)))] += w
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
