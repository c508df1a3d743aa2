"""Exact-rational probability measures on a finite sigma-algebra.

A measure is stored as integers: one positive denominator and the
numerators of its support, the atoms of non-zero weight by index, with
the numerators' gcd divided out so that equal measures store equal
ints.  Every constructor goes through one integer validator; hashing
and equality compare ints, and values and profiles add ints and build
one Fraction per result entry.  A measure's behavior on a
sub-sigma-algebra is captured by its profile there (the vector of
values on the coarser atoms); two measures agree on every set of the
sub-sigma-algebra iff their profiles are equal.
The measurable sets of measures used elsewhere in the package are
never materialized: only their trace on a model's finite pool matters,
and that trace is always a union of profile classes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, PreconditionError
from .measurable import SigmaAlgebra, StateSet, sigma_is_sub

ZERO = Fraction(0)

Profile = tuple[Fraction, ...]
Numerators = tuple[tuple[int, int], ...]


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


def _unit_weight(w, state: str | None = None) -> Fraction:
    """w as a Fraction, or DomainError unless 0 <= w <= 1."""
    if type(w) is not Fraction:
        w = Fraction(w)
    # Fraction keeps its denominator positive.
    if w.numerator < 0 or w.numerator > w.denominator:
        owner = "atom" if state is None else f"state {state!r}"
        raise DomainError(f"{owner} weight {_shown(w)} outside [0, 1]")
    return w


def _over_lcm(weights: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the weights' denominators, and each weight's numerator
    over it."""
    weights = tuple(weights)
    den = lcm(*[w.denominator for w in weights])
    return den, [w.numerator * (den // w.denominator) for w in weights]


class Measure:
    """A probability measure on sigma, stored as ``den``, a positive int,
    and ``nums``, the pairs ``(atom index, numerator)`` of the atoms of
    non-zero weight, in atom order: atom ``i`` has weight ``n / den``.
    The numerators have gcd 1, so equal measures store equal ints.

    ``Measure(sigma, weights)`` takes one weight per atom; the other
    constructors (`from_atom_weights`, `from_state_weights`, `dirac`)
    cost time in the support, not in the number of atoms.  All of them
    go through one integer validator.  Measures are immutable and equal
    when their sigma-algebras and numerators are; the hash is computed
    once, from the numerators, since pools, rows and hit preimages put
    the same measures into sets over and over.
    """

    __slots__ = ("sigma", "den", "nums", "_hash")

    sigma: SigmaAlgebra
    den: int
    nums: Numerators

    def __init__(self, sigma: SigmaAlgebra, weights: Sequence[Fraction]):
        if len(weights) != len(sigma.atoms):
            raise DomainError("need exactly one weight per atom")
        den, nums = _over_lcm(_unit_weight(w) for w in weights)
        self._settle(sigma, den, enumerate(nums))

    @classmethod
    def _of(cls, sigma: SigmaAlgebra, den: int, items: Iterable[tuple[int, int]]) -> "Measure":
        """The measure with the given (atom index, numerator) pairs over
        den, in atom order; zero numerators are dropped."""
        mu = object.__new__(cls)
        mu._settle(sigma, den, items)
        return mu

    def _settle(self, sigma: SigmaAlgebra, den: int, items: Iterable[tuple[int, int]]) -> None:
        # The integer validator, in one pass: each weight in [0, 1], the
        # weights summing to 1, that is, the numerators to den, and the
        # numerators' gcd, which then divides den.
        nums = []
        total = g = 0
        for i, n in items:
            if n:
                if n < 0 or n > den:
                    raise DomainError(f"atom weight {_shown(Fraction(n, den))} outside [0, 1]")
                nums.append((i, n))
                total += n
                g = gcd(g, n)
        if total != den:
            raise DomainError(f"atom weights sum to {_shown(Fraction(total, den))}, expected 1")
        if g > 1:
            nums = [(i, n // g) for i, n in nums]
            den //= g
        nums = tuple(nums)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "_hash", hash(nums))

    def __setattr__(self, name, value):
        raise AttributeError(f"Measure is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Measure is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        # den is the sum of the numerators.
        return (
            self._hash == other._hash
            and self.nums == other.nums
            and (self.sigma is other.sigma or self.sigma == other.sigma)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Measure(sigma={self.sigma!r}, den={self.den!r}, nums={self.nums!r})"

    def __reduce__(self):
        # Unpickling re-runs the validator, which computes the hash in
        # the unpickling process.
        return (Measure._of, (self.sigma, self.den, self.nums))

    @classmethod
    def from_atom_weights(cls, sigma: SigmaAlgebra, by_atom: Mapping[StateSet, Fraction]) -> "Measure":
        by_index = {}
        for a, w in by_atom.items():
            i = sigma._atom_index.get(next(iter(a), None))
            if i is None or sigma.atoms[i] != a:
                raise DomainError(f"{sorted(a)} is not an atom")
            by_index[i] = w
        items = sorted(by_index.items())
        den, nums = _over_lcm(_unit_weight(w) for _, w in items)
        return cls._of(sigma, den, zip([i for i, _ in items], nums))

    @classmethod
    def from_state_weights(cls, sigma: SigmaAlgebra, by_state: Mapping[str, Fraction]) -> "Measure":
        """Weights given on states are accumulated into their atoms; a
        measure on a coarse sigma-algebra cannot see finer detail.  Each
        state weight must lie in [0, 1] on its own."""
        indexed = []
        for s, w in by_state.items():
            w = _unit_weight(w, s)
            indexed.append((sigma.atom_index(s), w))
        den, nums = _over_lcm(w for _, w in indexed)
        totals: dict[int, int] = {}
        for (i, _), n in zip(indexed, nums):
            totals[i] = totals.get(i, 0) + n
        return cls._of(sigma, den, sorted(totals.items()))

    def value(self, q: Iterable[str]) -> Fraction:
        """Measure of a measurable set: the sum of its atoms' weights."""
        q = frozenset(q)
        if not self.sigma.is_measurable(q):  # also rejects states outside the universe
            raise DomainError(f"set {sorted(q)} is not measurable")
        atoms = self.sigma.atoms
        return Fraction(sum(n for i, n in self.nums if atoms[i] <= q), self.den)

    @property
    def is_dirac(self) -> bool:
        return len(self.nums) == 1


def dirac(sigma: SigmaAlgebra, s: str) -> Measure:
    """Point mass at s: value 1 on exactly the measurable sets containing s."""
    return Measure._of(sigma, 1, ((sigma.atom_index(s), 1),))


def profile(mu: Measure, lam: SigmaAlgebra) -> Profile:
    """mu's values on lam's atoms, in canonical atom order.

    Requires lam to be a sub-sigma-algebra of mu's.  Two measures have
    equal profiles over lam iff they agree on every lam-measurable set.
    """
    if not sigma_is_sub(lam, mu.sigma):
        raise PreconditionError("profile requires a sub-sigma-algebra of the measure's")
    # Each atom of mu's sigma-algebra lies inside exactly one atom of lam.
    index, atoms = lam._atom_index, mu.sigma.atoms
    totals: dict[int, int] = {}
    for i, n in mu.nums:
        j = index[next(iter(atoms[i]))]
        totals[j] = totals.get(j, 0) + n
    dense = [ZERO] * len(lam.atoms)
    for j, n in totals.items():
        dense[j] = Fraction(n, mu.den)
    return tuple(dense)


def trace_classes(pool: Sequence[Measure], lam: SigmaAlgebra) -> tuple[tuple[Measure, ...], ...]:
    """Partition of the pool by equal profile over lam.

    The unions of these classes are exactly the traces on the pool of
    the measurable sets of measures generated by lam (see the design
    notes in the README); everything that quantifies over such sets can
    therefore quantify over unions of classes instead.  A class is keyed
    by its profile's non-zero entries, the lam atoms that hold some of
    the measure's support, so the key costs time in the support.
    """
    groups: dict[tuple, list[Measure]] = {}
    index = lam._atom_index
    for mu in pool:
        values = profile(mu, lam)
        atoms = mu.sigma.atoms
        blocks = sorted({index[next(iter(atoms[i]))] for i, _ in mu.nums})
        groups.setdefault(tuple((j, values[j]) for j in blocks), []).append(mu)
    return tuple(tuple(g) for g in groups.values())
