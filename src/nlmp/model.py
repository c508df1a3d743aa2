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
from typing import Iterable, Mapping, Sequence

from .errors import DomainError
from .measurable import SigmaAlgebra, StateSet, Universe
from .measures import Measure, trace_classes

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
    report, and the refinement slot that `nlmp.bisim` owns.
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

    Measurability quantifies over unions of profile classes of the pool
    (the traces of the measurable sets of measures); since the hit
    preimage of a union is the union of the hit preimages and measurable
    sets are closed under union, checking the single classes decides all
    unions.  Each failing class is reported with its preimage as the
    witness.  On the powerset sigma-algebra every state set is
    measurable, so no class can fail and none is walked; a coarser
    model walks every class.  The report is computed once per model
    object and kept on it.
    """
    if m._validation is None:
        m._validation = _nlmp_findings(m)
    return m._validation


def _nlmp_findings(m: Nlmp) -> ValidationReport:
    if m.sigma.is_powerset:
        return ValidationReport()
    findings: list[Finding] = []
    classes = trace_classes(m.pool, m.sigma)
    for a in m.labels:
        for cls in classes:
            pre = hit_preimage(m, a, cls)
            if not m.sigma.is_measurable(pre):
                findings.append(
                    Finding(
                        "hit preimage of a measurable set of measures is not measurable",
                        label=a,
                        xi=cls,
                        witness_set=pre,
                    )
                )
    return ValidationReport(tuple(findings))


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
    """
    findings: list[Finding] = []
    for a in l.labels:
        kernels = [(s, l.kernel(s, a)) for s in l.states]
        for q in l.sigma.atoms:
            by_value: dict = {}
            for s, mu in kernels:
                by_value.setdefault(mu.value(q), set()).add(s)
            for v, level in sorted(by_value.items()):
                if not l.sigma.is_measurable(level):
                    findings.append(
                        Finding(
                            f"kernel value map on {sorted(q)} has a non-measurable level set at {v}",
                            label=a,
                            witness_set=frozenset(level),
                        )
                    )
    return ValidationReport(tuple(findings))


def hit_preimage(m: Nlmp, a: str, xi: Iterable[Measure]) -> StateSet:
    """States whose transition set under a intersects xi."""
    if a not in m.labels:
        raise DomainError(f"unknown label {a!r}")
    xi = frozenset(xi)
    if not xi <= m.pool_set:
        raise DomainError("xi contains a measure outside the model's pool")
    holders = m.holders[a]
    return frozenset().union(*(holders.get(mu, ()) for mu in xi))
