"""Two-level probabilistic modal logic: exact semantics, logical
equivalence, and distinguishing-formula synthesis.

State formulas denote sets of states; measure formulas denote sets of
probability measures, realized here as subsets of a model's transition
pool.  The diamond modality existentially quantifies over the
nondeterministic transition set, and the multi-constraint diamond
requires one and the same transition measure to satisfy several
probability bounds at once; a single bound per modality is strictly
weaker on nondeterministic models.

Synthesis walks the bisimulation refinement: whenever a block splits,
each pair of its sub-blocks gets one formula, which separates every
state of one from every state of the other.  The formulas are kept per
split, not per pair of states, and each split is verified once.  On two
representatives, one unmatched transition measure is told apart from
every measure on the other side by a candidate set of the round: for a
block B, C(B) is the intersection of the extensions of earlier formulas
that contain B, named by their conjunction.  The values of a measure on
the candidates form a unitriangular system in its masses on the blocks,
so two measures with different profiles differ on some C(B).  Each
difference gives a bound with a rational midpoint threshold, and the
bounds are packed into one multi-constraint diamond.  Every synthesized
formula is re-checked by the evaluator, against every state of its
split, before it is handed out.

A round's formulas read only those of earlier rounds, and the
refinement itself yields its rounds on demand, so synthesis runs lazily,
split by split.  ``logical_equivalence`` reads every split;
``distinguish`` computes the refinement only up to the round that
separates its pair, synthesizes up to that pair's split, verifies that
one split, and synthesizes nothing for a bisimilar pair.
"""

from __future__ import annotations

import operator
from bisect import insort
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations
from typing import ClassVar, Iterator

from .errors import DomainError, InternalCheckError, PreconditionError, UnsupportedModelError
from .bisim import Blocks, largest_traditional, refinement_rounds, smallest_stable_sigma
from .measurable import SigmaAlgebra, StateSet
from .measures import Measure, ZERO, _rational_text
from .model import Nlmp, hit_preimage, nlmp_validate

# A pair of sub-blocks of one split block, each in universe order.
Split = tuple[tuple[str, ...], tuple[str, ...]]

# The deepest formula, in `_dag_depth` nodes, that `distinguish`
# verifies and hands out.  The evaluator and the renderer recurse about
# once per node of a path, so this stays clear of Python's default
# recursion limit of 1000 frames.
MAX_DISTINGUISH_DEPTH = 700


# ---------------------------------------------------------------------------
# Abstract syntax


class StateFormula:
    """Base class; denotes a set of states."""

    __slots__ = ()


class MeasureFormula:
    """Base class; denotes a set of measures (a pool subset)."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(StateFormula):
    pass


@dataclass(frozen=True)
class And(StateFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class Diamond(StateFormula):
    label: str
    body: MeasureFormula


# The comparison of every probability bound, keyed by its op, which is
# its concrete syntax.
COMPARE = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class DiamondMulti(StateFormula):
    """All listed bounds, each a GreaterThan or a LessThan, must hold
    for a single transition measure."""

    label: str
    constraints: tuple[Bound, ...]

    def __post_init__(self):
        if not self.constraints:
            raise DomainError("multi-constraint diamond needs at least one constraint")
        for c in self.constraints:
            if not isinstance(c, (GreaterThan, LessThan)):
                raise DomainError(f"constraint operator must be > or <, got {getattr(c, 'op', c)!r}")


@dataclass(frozen=True)
class MOr(MeasureFormula):
    items: tuple[MeasureFormula, ...]


@dataclass(frozen=True)
class MNot(MeasureFormula):
    item: MeasureFormula


@dataclass(frozen=True)
class Bound(MeasureFormula):
    """The measures whose value on phi's extension compares to q by op.

    Construct one of the four subclasses, which set op; bounds of
    different subclasses are never equal."""

    phi: StateFormula
    q: Fraction
    op: ClassVar[str]

    def __post_init__(self):
        q = Fraction(self.q)
        if not 0 <= q <= 1:
            raise DomainError(f"threshold {q} outside [0, 1]")
        object.__setattr__(self, "q", q)


class AtLeast(Bound):
    op = ">="


class GreaterThan(Bound):
    """Sugar for the countable disjunction of AtLeast above the
    threshold; on a finite pool it is the exact strict test."""

    op = ">"


class LessThan(Bound):
    """Sugar for the complement of AtLeast."""

    op = "<"


class AtMost(Bound):
    """Sugar for the complement of GreaterThan."""

    op = "<="


BOUNDS = {cls.op: cls for cls in (AtLeast, GreaterThan, LessThan, AtMost)}


# ---------------------------------------------------------------------------
# Concrete syntax rendering (the parser lives in nlmp.parser)


def _threshold_text(q: Fraction) -> str:
    text = _rational_text(q)
    if text is None:
        raise UnsupportedModelError("a threshold of the formula is a rational too long to print")
    return text


def formula_to_text(f: StateFormula | MeasureFormula) -> str:
    if isinstance(f, Top):
        return "T"
    if isinstance(f, And):
        right = formula_to_text(f.right)
        if isinstance(f.right, And):
            right = f"({right})"
        return f"{formula_to_text(f.left)} & {right}"
    if isinstance(f, Diamond):
        return f"<{f.label}> {formula_to_text(f.body)}"
    if isinstance(f, DiamondMulti):
        parts = ", ".join(
            f"{c.op}{_threshold_text(c.q)} {formula_to_text(c.phi)}" for c in f.constraints
        )
        return f"<{f.label}>[ {parts} ]"
    if isinstance(f, MOr):
        if not f.items:
            return "![T]>=0"  # empty disjunction: the empty set of measures
        if len(f.items) == 1:
            return formula_to_text(f.items[0])
        parts = [
            f"({formula_to_text(i)})" if isinstance(i, MOr) else formula_to_text(i)
            for i in f.items
        ]
        return " \\/ ".join(parts)
    if isinstance(f, MNot):
        inner = formula_to_text(f.item)
        if isinstance(f.item, MOr):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(f, Bound):
        return f"[{formula_to_text(f.phi)}]{f.op}{_threshold_text(f.q)}"
    raise TypeError(f"not a formula: {f!r}")


def _subformulas(f: StateFormula | MeasureFormula) -> tuple:
    if isinstance(f, And):
        return f.left, f.right
    if isinstance(f, Diamond):
        return (f.body,)
    if isinstance(f, DiamondMulti):
        return f.constraints
    if isinstance(f, MOr):
        return f.items
    if isinstance(f, MNot):
        return (f.item,)
    if isinstance(f, Bound):
        return (f.phi,)
    return ()


def _dag_depth(f: StateFormula | MeasureFormula) -> int:
    """The number of nodes on the longest path down the formula DAG,
    state and measure nodes alike.  It is computed without recursion,
    each shared node once, so it is defined on formulas too deep for the
    recursive evaluator and renderer."""
    depth: dict[int, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in depth:
            stack.pop()
            continue
        subs = _subformulas(g)
        todo = [h for h in subs if id(h) not in depth]
        if todo:
            stack += todo
        else:
            stack.pop()
            depth[id(g)] = 1 + max([depth[id(h)] for h in subs], default=0)
    return depth[id(f)]


def formula_labels(f: StateFormula | MeasureFormula) -> frozenset[str]:
    if isinstance(f, (Top,)):
        return frozenset()
    if isinstance(f, And):
        return formula_labels(f.left) | formula_labels(f.right)
    if isinstance(f, Diamond):
        return frozenset([f.label]) | formula_labels(f.body)
    if isinstance(f, DiamondMulti):
        return frozenset([f.label]).union(*(formula_labels(c.phi) for c in f.constraints))
    if isinstance(f, MOr):
        return frozenset().union(*(formula_labels(i) for i in f.items))
    if isinstance(f, MNot):
        return formula_labels(f.item)
    if isinstance(f, Bound):
        return formula_labels(f.phi)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Semantics


def eval_state(m: Nlmp, phi: StateFormula) -> StateSet:
    """The set of states satisfying phi.

    The result is always measurable in the model's sigma-algebra; this
    is asserted after every modality, and can only fail when the model
    itself fails validation.
    """
    return _eval_state(m, phi, {})


def eval_measure(m: Nlmp, psi: MeasureFormula) -> frozenset[Measure]:
    """The set of pool measures satisfying psi.

    Negation complements within the pool: only the trace of the
    denoted measure set on the model's finitely many transition
    measures is ever needed.
    """
    return _eval_measure(m, psi, {})


# A formula is a DAG: synthesized formulas share their subformulas.  The
# memo maps id(node) to (node, denotation) for one evaluation, so each
# distinct node is evaluated once; holding the node keeps its id from
# being reused while the memo lives.
_Memo = dict[int, tuple[object, frozenset]]


def _eval_state(m: Nlmp, phi: StateFormula, memo: _Memo) -> StateSet:
    hit = memo.get(id(phi))
    if hit is not None:
        return hit[1]
    if isinstance(phi, Top):
        result = frozenset(m.states)
    elif isinstance(phi, And):
        result = _eval_state(m, phi.left, memo) & _eval_state(m, phi.right, memo)
    elif isinstance(phi, Diamond):
        xi = _eval_measure(m, phi.body, memo)
        result = hit_preimage(m, phi.label, xi)
        _assert_measurable(m, result)
    elif isinstance(phi, DiamondMulti):
        if phi.label not in m.labels:
            raise DomainError(f"unknown label {phi.label!r}")
        bounds = [(c, _eval_state(m, c.phi, memo)) for c in phi.constraints]
        # Each distinct measure of the label's rows is tested once.
        result = frozenset().union(
            *(
                states
                for mu, states in m.holders[phi.label].items()
                if all(COMPARE[c.op](mu.value(ext), c.q) for c, ext in bounds)
            )
        )
        _assert_measurable(m, result)
    else:
        raise TypeError(f"not a state formula: {phi!r}")
    memo[id(phi)] = (phi, result)
    return result


def _assert_measurable(m: Nlmp, q: StateSet) -> None:
    if not m.sigma.is_measurable(q):
        raise InternalCheckError(
            "formula denotes a non-measurable state set; the model does not "
            "pass measurability validation"
        )


def _eval_measure(m: Nlmp, psi: MeasureFormula, memo: _Memo) -> frozenset[Measure]:
    hit = memo.get(id(psi))
    if hit is not None:
        return hit[1]
    if isinstance(psi, MOr):
        result: frozenset[Measure] = frozenset()
        for item in psi.items:
            result |= _eval_measure(m, item, memo)
    elif isinstance(psi, MNot):
        result = m.pool_set - _eval_measure(m, psi.item, memo)
    elif isinstance(psi, Bound):
        ext = _eval_state(m, psi.phi, memo)
        compare = COMPARE[psi.op]
        result = frozenset(mu for mu in m.pool if compare(mu.value(ext), psi.q))
    else:
        raise TypeError(f"not a measure formula: {psi!r}")
    memo[id(psi)] = (psi, result)
    return result


def satisfies(m: Nlmp, s: str, phi: StateFormula) -> bool:
    if s not in m.universe:
        raise DomainError(f"unknown state {s!r}")
    return s in eval_state(m, phi)


# ---------------------------------------------------------------------------
# Logical equivalence and synthesis


@dataclass(frozen=True)
class EquivalenceReport(Blocks):
    """The equivalence a fragment induces, as the fixpoint sigma-algebra
    ``lam`` of the bisimilarity it coincides with (its atoms are the
    classes), and, for "Lf", one formula per split of the refinement:
    ``formulas[(left, right)]`` holds at every state of one sub-block and
    at no state of the other."""

    fragment: str  # "L" | "Lf"
    lam: SigmaAlgebra
    formulas: dict[Split, StateFormula]

    def formula(self, s: str, t: str) -> StateFormula | None:
        """The formula of the one split that separates s and t, found in
        one pass over the splits; None when s and t lie in one block.
        Raises KeyError on an unrelated pair when there are no formulas
        (the "L" fragment)."""
        if self.lam.atom_index(s) == self.lam.atom_index(t):
            return None
        for (left, right), psi in self.formulas.items():
            if s in left and t in right or t in left and s in right:
                return psi
        raise KeyError((s, t))


def logical_equivalence(m: Nlmp, fragment: str = "Lf") -> EquivalenceReport:
    """States indistinguishable by the chosen fragment.

    fragment="L" (the full logic, with measure-level negation and
    disjunction) coincides with event bisimilarity: it is the
    inseparability relation of the smallest stable sigma-algebra, and no
    formulas are produced.

    fragment="Lf" (the finitary sublogic built from the multi-constraint
    diamond) takes its sigma-algebra from largest_traditional,
    which reads the same cached refinement, and synthesizes one
    distinguishing formula per split of that refinement.  Each split is
    verified once: the formula's extension must contain one sub-block
    and miss the other, which says that it separates every pair of
    states across the split.
    """
    if fragment == "L":
        rep = smallest_stable_sigma(m)
        return EquivalenceReport("L", rep.lam, {})
    if fragment != "Lf":
        raise ValueError(f"unknown fragment {fragment!r}")
    rep = largest_traditional(m)
    formulas = _lf_refinement(m)
    # Verify against a memo of its own, not the one synthesis filled:
    # splits share interned formulas, so each distinct node is evaluated
    # once however many splits it explains.
    memo: _Memo = {}
    for split, psi in formulas.items():
        _verify_split(m, split, psi, memo)
    return EquivalenceReport("Lf", rep.lam, formulas)


def distinguish(m: Nlmp, s: str, t: str) -> StateFormula | None:
    """A verified formula of the finitary sublogic separating s and t,
    or None when the two states are bisimilar.

    The refinement rounds are read until the first whose key tells s
    and t apart; no later round is computed.  A pair that no round
    tells apart, up to and including the fixpoint round, is bisimilar
    and synthesizes nothing.  Synthesis then stops at the split that
    separates s and t: its formula depends only on the splits of
    earlier rounds and on its own, so it is the one
    ``logical_equivalence(m, "Lf")`` records for them.  It is verified
    against the whole split, one sub-block inside its extension and the
    other outside.  A formula more than ``MAX_DISTINGUISH_DEPTH``
    subformulas deep is refused with UnsupportedModelError before it is
    verified, since the recursive evaluator could not walk it.

    Only full powerset models are supported: on them the sublogic is
    known to pin down bisimilarity exactly, while on coarser
    sigma-algebras no such guarantee is available and the operation
    refuses to guess.
    """
    if s not in m.universe:
        raise DomainError(f"unknown state {s!r}")
    if t not in m.universe:
        raise DomainError(f"unknown state {t!r}")
    if not m.sigma.is_powerset:
        raise UnsupportedModelError(
            "distinguishing formulas are only synthesized on full powerset models"
        )
    if not nlmp_validate(m).valid:
        raise PreconditionError("model fails measurability validation")
    # s and t share a block until the first round whose key differs on them.
    if all(key(s) == key(t) for _, key, _ in refinement_rounds(m)):
        return None
    for (left, right), psi in _lf_splits(m):
        if s in left and t in right or t in left and s in right:
            if _dag_depth(psi) > MAX_DISTINGUISH_DEPTH:
                raise UnsupportedModelError(
                    f"the distinguishing formula is more than {MAX_DISTINGUISH_DEPTH} subformulas deep"
                )
            _verify_split(m, (left, right), psi, {})
            return psi
    raise InternalCheckError(f"no split separates {s!r} and {t!r}")


def _verify_split(m: Nlmp, split: Split, psi: StateFormula, memo: _Memo) -> None:
    """Check that psi separates every pair of left x right: one sub-block
    lies inside its extension and the other outside, which costs
    O(|left| + |right|) once the extension is known."""
    left, right = split
    ext = _eval_state(m, psi, memo)
    inner, outer = (left, right) if left[0] in ext else (right, left)
    if not (ext.issuperset(inner) and ext.isdisjoint(outer)):
        s, t = next((s, t) for s in left for t in right if (s in ext) == (t in ext))
        raise InternalCheckError(f"synthesized formula fails to separate {s!r} and {t!r}")


def _lf_refinement(m: Nlmp) -> dict[Split, StateFormula]:
    """Every split of the refinement with its formula."""
    return dict(_lf_splits(m))


def _lf_splits(m: Nlmp) -> Iterator[tuple[Split, StateFormula]]:
    """Partition refinement with formula synthesis, one formula per split,
    yielded round by round as it is synthesized.

    For each pair of sub-blocks (left, right) of a splitting block, one
    formula is synthesized on left[0] and right[0] and yielded once, as
    ``((left, right), formula)``.  It separates every state of left from
    every state of right, by induction on rounds.  A round reads only
    the formulas of earlier rounds, so a caller that stops reading at
    some split has every formula up to it, and no later round is
    synthesized, or computed unless another reader asked for it.

    The generators of a round are the universe and the extensions of the
    formulas recorded in earlier rounds (the first formula of each
    extension).  They are unions of the round's blocks (the atoms of
    lam), and they separate the blocks.  Whether a bound holds of a
    measure depends only on its profile over lam, and all states of one
    sub-block have equal profile sets.  Each block B gives one candidate,
    C(B), the intersection of the generators that contain B.  Two
    measures with different profiles differ on some candidate: X <= Y iff
    X lies inside C(Y) is a partial order on the blocks, because the
    generators separate them, and C(B) is the union of the blocks X <= B.
    So mu(C(B)) is the sum of mu(X) over X <= B, a unitriangular system
    whose values on the candidates fix the profile.  The search tries the
    candidates smallest first, then by the sorted indices of their
    states.  C(B) is named by the conjunction of the generators that
    shrink the intersection, taken in that same order.
    """
    top = Top()
    everything = frozenset(m.states)

    @cache
    def rank(e: StateSet) -> tuple:  # separator order: smallest first
        return len(e), sorted(map(m.universe.index, e))

    # The generators but the universe, in separator order, and `conj`:
    # () -> Top, (e,) -> the first formula recorded with extension e, a
    # longer tuple -> its And.  `conj` pins every constraint formula, so
    # `interned` (equal DiamondMultis are one object) keys them by id.
    gens: list[StateSet] = []
    conj: dict[tuple[StateSet, ...], StateFormula] = {(): top}
    interned: dict[tuple, DiamondMulti] = {}
    # One evaluation memo for all synthesized formulas.
    memo: _Memo = {}

    def synthesize(opponents: tuple[Measure, ...], label: str, mu: Measure) -> StateFormula:
        # mu is a measure under label that is unmatched in the row opponents.
        bounds: dict[tuple, StateFormula] = {}  # (op, q, id(phi)) -> phi
        if not opponents:
            bounds[(">", ZERO, id(top))] = top
        for nu in opponents:
            for ext in ordered:
                a_val, b_val = mu.value(ext), nu.value(ext)
                if a_val != b_val:
                    break
            else:
                raise InternalCheckError("no candidate separates two distinct measures")
            phi = conj[candidates[ext]]
            op = ">" if a_val > b_val else "<"
            q = (a_val + b_val) / 2
            bounds[(op, q, id(phi))] = phi
        key = (label, tuple(bounds))
        if key not in interned:
            items = tuple(BOUNDS[op](phi, q) for (op, q, _), phi in bounds.items())
            interned[key] = DiamondMulti(label, items)
        return interned[key]

    for lam, key, splits in refinement_rounds(m):
        # Each C(B) with the generators that shrink it; B is in g iff x is.
        candidates: dict[StateSet, tuple[StateSet, ...]] = {}
        for block in lam.atoms:
            x, c, used = next(iter(block)), everything, ()
            for g in gens:
                if x in g and not c <= g:
                    c, used = c & g, used + (g,)
                    if used not in conj:
                        conj[used] = And(conj[used[:-1]], conj[(g,)])
            candidates.setdefault(c, used)
        ordered = sorted(candidates, key=rank)
        for left, right in (pair for subs in splits for pair in combinations(subs, 2)):
            s, t = left[0], right[0]
            for i, (hs, ht) in enumerate(zip(key(s), key(t))):
                if hs != ht:
                    x, y, only = (s, t, hs - ht) if hs - ht else (t, s, ht - hs)
                    mu = next(mu for mu in key.rows[x][i] if key.profiles[mu] in only)
                    psi = synthesize(key.rows[y][i], m.labels[i], mu)
                    break
            else:
                raise InternalCheckError("split without a hit-class mismatch")
            yield (left, right), psi
            ext = _eval_state(m, psi, memo)
            if (ext,) not in conj:
                conj[(ext,)] = psi
                insort(gens, ext, key=rank)
