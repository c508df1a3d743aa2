"""Finite nondeterministic labeled Markov processes and their
deterministic (single-kernel) special case, the subclass whose rows are
singletons.

A model maps each (state, label) to a finite set of probability
measures on its own sigma-algebra.  Validity means measurability of the
transition map: every "hit" preimage of a measurable set of measures
must itself be measurable.  On a finite model the candidate sets of
measures are exactly the unions of profile classes of the transition
pool, and because hit preimages distribute over unions it is enough to
check each class on its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError
from .measurable import SigmaAlgebra, StateSet, Universe
from .measures import ZERO, Measure, trace_classes

Row = tuple[Measure, ...]

# A label is one token of the formula language, an integer or an
# identifier, so that a formula can name it; the formula tokenizer reads
# labels with this pattern.
LABEL_TOKEN = r"(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
_LABEL = re.compile(LABEL_TOKEN)


def _checked_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """The labels, each once and each a formula token."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise DomainError("duplicate labels")
    for a in labels:
        if not _LABEL.fullmatch(a):
            raise DomainError(f"label {a!r} is not an identifier or an integer")
    return labels


def _canonical_row(measures: Iterable[Measure]) -> Row:
    # Ordered as the dense weight tuples would be: at the first atom
    # where two measures differ, the one without weight there has its
    # next support entry at a later atom, hence a smaller -index.  The
    # weights are compared as numerators over the row's common
    # denominator.  A row of one measure is neither deduplicated nor
    # sorted.
    uniq = tuple(measures)
    if len(uniq) > 1:
        uniq = tuple(dict.fromkeys(uniq))
    if len(uniq) < 2:
        return uniq
    den = lcm(*[mu.den for mu in uniq])

    def key(mu: Measure) -> tuple:
        scale = den // mu.den
        return tuple((-i, n * scale) for i, n in mu.nums)

    return tuple(sorted(uniq, key=key))


class Nlmp:
    """States with, per label, a finite set of target probability measures.

    The rows are held once, in ``_rows[s]``: one row per label, in label
    order, for every state (states with no transitions share one tuple
    of empty rows).  The rows never change, so neither the pool, the
    holders nor the caches kept on the model go stale: the validation
    report of its kind (`_validation_of`), and the refinement slot that
    `nlmp.bisim` owns.
    """

    kind = "nlmp"  # the model file's header

    def __init__(
        self,
        sigma: SigmaAlgebra,
        labels: Sequence[str],
        transitions: Mapping[tuple[str, str], Iterable[Measure]],
    ):
        self.sigma = sigma
        self.labels = _checked_labels(labels)
        position = {a: i for i, a in enumerate(self.labels)}
        no_rows: tuple[Row, ...] = ((),) * len(self.labels)
        filled: dict[str, list[Row]] = {}
        for (s, a), measures in transitions.items():
            if s not in sigma.universe:
                raise DomainError(f"unknown state {s!r} in transitions")
            i = position.get(a)
            if i is None:
                raise DomainError(f"unknown label {a!r} in transitions")
            row = _canonical_row(measures)
            for mu in row:
                if mu.sigma is not sigma and mu.sigma != sigma:
                    raise DomainError(
                        f"transition measure at ({s!r}, {a!r}) is not over the model's sigma-algebra"
                    )
            if row:
                r = filled.get(s)
                if r is None:
                    r = filled[s] = list(no_rows)
                r[i] = row
        # One pass in canonical (state, label) order, which freezes each
        # state's rows and gives the states with no rows their entry: the
        # pool holds the distinct measures in first-seen order, and
        # holders[a][mu] the states whose a-row holds mu (a row holds a
        # measure once, so each state is listed once).
        rows: dict[str, tuple[Row, ...]] = {}
        pool: dict[Measure, None] = {}
        holders: dict[str, dict[Measure, list[str]]] = {a: {} for a in self.labels}
        for s in sigma.universe.states:
            r = filled.get(s)
            rows[s] = r = no_rows if r is None else tuple(r)
            for a, row in zip(self.labels, r):
                for mu in row:
                    pool[mu] = None
                    holders[a].setdefault(mu, []).append(s)
        self._rows = rows
        self.pool = tuple(pool)
        self.pool_set = frozenset(pool)
        self.holders = {a: {mu: frozenset(h) for mu, h in by_mu.items()} for a, by_mu in holders.items()}
        self._validation: ValidationReport | None = None
        self._refinement = None  # nlmp.bisim.refinement_rounds

    @property
    def universe(self) -> Universe:
        return self.sigma.universe

    @property
    def states(self) -> tuple[str, ...]:
        return self.universe.states

    def row(self, s: str, a: str) -> Row:
        if s not in self.universe:
            raise DomainError(f"unknown state {s!r}")
        if a not in self.labels:
            raise DomainError(f"unknown label {a!r}")
        return self._rows[s][self.labels.index(a)]

    def transition_items(self) -> list[tuple[tuple[str, str], Row]]:
        return [
            ((s, a), row)
            for s in self.states
            for a, row in zip(self.labels, self._rows[s])
            if row
        ]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.sigma == other.sigma
            and self.labels == other.labels
            and self._rows == other._rows
        )

    __hash__ = None


class Lmp(Nlmp):
    """The deterministic special case: the Nlmp whose every row is a
    single kernel measure, one per (state, label).  It is its own
    embedding into the nondeterministic models: its rows already are the
    singletons of its kernels."""

    kind = "lmp"

    def __init__(
        self,
        sigma: SigmaAlgebra,
        labels: Sequence[str],
        kernels: Mapping[tuple[str, str], Measure],
    ):
        for s in sigma.universe:
            for a in labels:
                if (s, a) not in kernels:
                    raise DomainError(f"deterministic model is missing the transition for ({s}, {a})")
        super().__init__(sigma, labels, {key: (mu,) for key, mu in kernels.items()})

    def kernel(self, s: str, a: str) -> Measure:
        return self.row(s, a)[0]


@dataclass(frozen=True)
class Finding:
    message: str
    label: str | None = None
    xi: tuple[Measure, ...] | None = None
    witness_set: StateSet | None = None


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.findings


def nlmp_validate(m: Nlmp) -> ValidationReport:
    """Check measurability of the transition map.  (Well-formedness
    needs no check: `Measure` rejects weights that do not sum to 1 and
    `Nlmp` rejects measures over another sigma-algebra.)

    The findings are `_unstable(m, m.sigma)`: each profile class of the
    pool whose hit preimage is not measurable, reported with that
    preimage as the witness.  On the powerset sigma-algebra every state
    set is measurable, so no class can fail and none is walked; a
    coarser model walks every class.  `is_event_bisim` is the same test
    over a candidate sub-sigma-algebra.
    """
    if m.sigma.is_powerset:
        return ValidationReport()
    message = "hit preimage of a measurable set of measures is not measurable"
    return ValidationReport(
        tuple(Finding(message, label=a, xi=cls, witness_set=pre) for a, cls, pre in _unstable(m, m.sigma))
    )


def _unstable(m: Nlmp, lam: SigmaAlgebra) -> Iterator[tuple[str, tuple[Measure, ...], StateSet]]:
    """Each (label, lam-profile class of the pool, hit preimage) whose
    preimage is not lam-measurable, by label and then class.

    Measurability into lam quantifies over unions of the pool's
    lam-profile classes (the traces of the lam-measurable sets of
    measures); the hit preimage of a union is the union of the hit
    preimages and lam is closed under union, so checking the single
    classes decides all unions.
    """
    classes = trace_classes(m.pool, lam)
    for a in m.labels:
        for cls in classes:
            pre = hit_preimage(m, a, cls)
            if not lam.is_measurable(pre):
                yield a, cls, pre


def lmp_validate(l: Lmp) -> ValidationReport:
    """Curried measurability of the kernels: for every label and
    measurable set, the per-state value map must have measurable level
    sets.

    Checking the atoms decides every set.  A map has measurable level
    sets iff it is constant on every atom, and the value on a
    measurable set is the sum of the values on its atoms, so when the
    map of every atom is constant on atoms so is the map of every
    union.  The findings are the single-atom ones of the check over all
    measurable sets, in the same order (label, atom, value).

    The non-zero levels are read off the kernels' supports: each
    distinct kernel of a label is measured once on each atom of its
    support, and its holders join that atom's level at that value.  So
    the cost follows the supports, at most one `Measure.value` call per
    (label, distinct kernel, support atom), not one per (label, atom,
    state).  The level at 0 is the complement of the union of the
    non-zero levels, so it is measurable iff that union is; it is built
    only when it is a finding.  An atom in no support has the universe
    as its one level, which is measurable.
    """
    sigma = l.sigma
    findings: list[Finding] = []
    for a in l.labels:
        # levels[i][v]: the states whose a-kernel gives atom i the value v > 0.
        levels: dict[int, dict] = {}
        for mu, held in l.holders[a].items():
            for i, _ in mu.nums:
                levels.setdefault(i, {}).setdefault(mu.value(sigma.atoms[i]), set()).update(held)
        for i in sorted(levels):
            positive = set().union(*levels[i].values())
            by_value = sorted(levels[i].items())
            if not sigma.is_measurable(positive):
                by_value.insert(0, (ZERO, frozenset(l.states).difference(positive)))
            for v, level in by_value:
                if not sigma.is_measurable(level):
                    findings.append(
                        Finding(
                            f"kernel value map on {sorted(sigma.atoms[i])} has a non-measurable level set at {v}",
                            label=a,
                            witness_set=frozenset(level),
                        )
                    )
    return ValidationReport(tuple(findings))


def _validation_of(m: Nlmp) -> ValidationReport:
    """The model's validation report, from the validator of its kind:
    `lmp_validate` for an `Lmp`, `nlmp_validate` otherwise.  It is
    computed once per model object and kept on it."""
    if m._validation is None:
        m._validation = lmp_validate(m) if isinstance(m, Lmp) else nlmp_validate(m)
    return m._validation


def hit_preimage(m: Nlmp, a: str, xi: Iterable[Measure]) -> StateSet:
    """States whose transition set under a intersects xi."""
    if a not in m.labels:
        raise DomainError(f"unknown label {a!r}")
    xi = frozenset(xi)
    if not xi <= m.pool_set:
        raise DomainError("xi contains a measure outside the model's pool")
    holders = m.holders[a]
    return frozenset().union(*(holders.get(mu, ()) for mu in xi))
