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
import threading
import weakref
from bisect import insort
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations
from typing import Callable, ClassVar, Iterator

from .errors import DomainError, InternalCheckError, UnsupportedModelError
from .bisim import Blocks, _require_valid, largest_traditional, refinement_rounds, smallest_stable_sigma
from .measurable import SigmaAlgebra, StateSet
from .measures import Measure, ZERO, _rational_text, _shown
from .model import Nlmp, hit_preimage

# A pair of sub-blocks of one split block, each in universe order.
Split = tuple[tuple[str, ...], tuple[str, ...]]


# ---------------------------------------------------------------------------
# Abstract syntax

# Every live formula node, keyed by its class and its fields.  A node is
# built once: its constructor looks the key up first and builds a node
# only when no live node has it, so equal formulas are one object, == and
# hash are identity's and never walk a formula, and a formula is a DAG
# however it was built.  The table holds its nodes weakly, and its lookup
# is taken under a lock so that two threads building one formula get one
# node.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


class _Node:
    """A formula node: the fields its class names in ``_fields``, in that
    order, set once when the node is built."""

    _fields: ClassVar[tuple[str, ...]] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                if len(args) != len(cls._fields):
                    raise TypeError(f"{cls.__name__} takes the fields {cls._fields}, got {len(args)}")
                node = _NODES[key] = object.__new__(cls)
                node.__dict__.update(zip(cls._fields, args))
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return _unfold(self, _repr_pieces)

    # A node is immutable and interned: a copy is the node itself, and
    # unpickling returns the live node.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return _rebuild, (_post_order(self),)


class StateFormula(_Node):
    """Base class; denotes a set of states."""


class MeasureFormula(_Node):
    """Base class; denotes a set of measures (a pool subset)."""


class Top(StateFormula):
    """The formula that holds at every state."""


class And(StateFormula):
    _fields = ("left", "right")


class Diamond(StateFormula):
    _fields = ("label", "body")


# The comparison of every probability bound, keyed by its op, which is
# its concrete syntax.
COMPARE = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "<=": operator.le}


class DiamondMulti(StateFormula):
    """All listed bounds, each a GreaterThan or a LessThan, must hold
    for a single transition measure."""

    _fields = ("label", "constraints")

    def __new__(cls, label: str, constraints: tuple[Bound, ...]):
        if not constraints:
            raise DomainError("multi-constraint diamond needs at least one constraint")
        for c in constraints:
            if not isinstance(c, (GreaterThan, LessThan)):
                raise DomainError(f"constraint operator must be > or <, got {getattr(c, 'op', c)!r}")
        return super().__new__(cls, label, constraints)


class MOr(MeasureFormula):
    _fields = ("items",)


class MNot(MeasureFormula):
    _fields = ("item",)


class Bound(MeasureFormula):
    """The measures whose value on phi's extension compares to q by op.

    Construct one of the four subclasses, which set op; bounds of
    different subclasses are never equal."""

    _fields = ("phi", "q")
    op: ClassVar[str]

    def __new__(cls, phi: StateFormula, q: Fraction):
        if type(q) is not Fraction:
            q = Fraction(q)
        if not 0 <= q.numerator <= q.denominator:
            raise DomainError(f"threshold {_shown(q)} outside [0, 1]")
        return super().__new__(cls, phi, q)


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
# The repr and the pickle of a node, neither of them recursive


def _repr_pieces(x: _Node | tuple) -> list:
    """The repr of a node, ``Cls(field=value, ...)``, or of a tuple of
    nodes, as strings and the nodes and tuples to be written in their
    places."""
    if isinstance(x, tuple):
        head, named, tail = "(", [("", v) for v in x], ",)" if len(x) == 1 else ")"
    else:
        head, named, tail = f"{type(x).__qualname__}(", [(f"{k}=", v) for k, v in vars(x).items()], ")"
    pieces = [head]
    for i, (name, v) in enumerate(named):
        pieces += [", " if i else "", name, v if isinstance(v, (_Node, tuple)) else repr(v)]
    return pieces + [tail]


def _post_order(root: _Node) -> list[tuple[type, tuple]]:
    """The DAG below root in post-order, each distinct node once, as its
    class and its fields, with each node among the fields, also inside a
    tuple, replaced by its index in the list."""
    index: _Memo = {}
    entries: list[tuple[type, tuple]] = []

    def ref(v):
        return index[v] if isinstance(v, _Node) else tuple(index[g] for g in v) if isinstance(v, tuple) else v

    def leave(f: _Node) -> int:
        entries.append((type(f), tuple(ref(v) for v in vars(f).values())))
        return len(entries) - 1

    _walk(root, _Node, index, leave, subformulas=_field_nodes)
    return entries


def _field_nodes(f: _Node) -> tuple[tuple, type]:
    """The nodes among f's fields, also inside a tuple, left to right."""
    values = [g for v in vars(f).values() for g in (v if isinstance(v, tuple) else (v,))]
    return tuple(g for g in values if isinstance(g, _Node)), _Node


def _rebuild(entries: list[tuple[type, tuple]]) -> _Node:
    """The last node of a `_post_order` list, each built bottom-up
    through its class's constructor."""
    nodes: list[_Node] = []
    for cls, fields in entries:
        refs = (nodes[v] if type(v) is int else tuple(nodes[i] for i in v) if type(v) is tuple else v for v in fields)
        nodes.append(cls(*refs))
    return nodes[-1]


# ---------------------------------------------------------------------------
# Concrete syntax rendering (the parser lives in nlmp.parser)


def _threshold_text(q: Fraction) -> str:
    text = _rational_text(q)
    if text is None:
        raise UnsupportedModelError("a threshold of the formula is a rational too long to print")
    return text


def formula_to_text(f: StateFormula | MeasureFormula) -> str:
    """The concrete syntax of f, its DAG written out as a tree."""
    return _unfold(f, _pieces)


def _unfold(root, pieces: Callable[[object], list]) -> str:
    """The text of root, built from a stack of pieces, not by recursion,
    so no depth is too deep for it: ``pieces(x)`` is the text of x as
    strings and the values to be written in their places."""
    out, stack = [], [root]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            stack += reversed(pieces(piece))
    return "".join(out)


def _pieces(f: StateFormula | MeasureFormula) -> list:
    """The text of f as strings and subformulas, each subformula to be
    written in its place."""
    if isinstance(f, Top):
        return ["T"]
    if isinstance(f, And):
        right = ["(", f.right, ")"] if isinstance(f.right, And) else [f.right]
        return [f.left, " & ", *right]
    if isinstance(f, Diamond):
        return [f"<{f.label}> ", f.body]
    if isinstance(f, DiamondMulti):
        pieces: list = []
        for c in f.constraints:
            pieces += [", ", f"{c.op}{_threshold_text(c.q)} ", c.phi]
        return [f"<{f.label}>[ ", *pieces[1:], " ]"]
    if isinstance(f, MOr):
        if not f.items:
            return ["![T]>=0"]  # empty disjunction: the empty set of measures
        if len(f.items) == 1:
            return [f.items[0]]
        pieces = []
        for item in f.items:
            pieces += [" \\/ ", "(", item, ")"] if isinstance(item, MOr) else [" \\/ ", item]
        return pieces[1:]
    if isinstance(f, MNot):
        return ["!(", f.item, ")"] if isinstance(f.item, MOr) else ["!", f.item]
    if isinstance(f, Bound):
        return ["[", f.phi, f"]{f.op}{_threshold_text(f.q)}"]
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# The walk over a formula DAG


def _subformulas(f: StateFormula | MeasureFormula) -> tuple[tuple, type]:
    """The subformulas of f, left to right, and the level they must have.
    A multi-constraint diamond's are its constraint formulas, not its
    bounds: each bound is tested on the label's holder measures, never
    on the whole pool."""
    if isinstance(f, And):
        return (f.left, f.right), StateFormula
    if isinstance(f, Diamond):
        return (f.body,), MeasureFormula
    if isinstance(f, DiamondMulti):
        return tuple(c.phi for c in f.constraints), StateFormula
    if isinstance(f, MOr):
        return f.items, MeasureFormula
    if isinstance(f, MNot):
        return (f.item,), MeasureFormula
    if isinstance(f, Bound):
        return (f.phi,), StateFormula
    return (), StateFormula


# A formula is a DAG: equal subformulas are one node.  A memo maps each
# node to its value for one walk, or for several over one model, so each
# distinct node is visited once.
_Memo = dict[_Node, object]


def _walk(
    root, level: type, memo: _Memo, leave: Callable, enter: Callable | None = None, subformulas: Callable = _subformulas
) -> None:
    """Walk the formula DAG below root depth first, with an explicit
    stack in place of recursion, so no depth is too deep for it.

    Each node not yet in memo is entered (``enter(node)``, when given),
    its subformulas, with the level they must have, as
    ``subformulas(node)`` gives them, are walked left to right, and then
    ``memo[node] = leave(node)``: leave reads the values of
    the subformulas from memo.  Every node must be an instance of the
    level its parent's slot asks for, level itself for root; a node in
    the wrong place raises TypeError when it is reached.
    """
    stack: list = [(root, level)]
    while stack:
        f, want = stack.pop()
        if want is None:
            memo[f] = leave(f)
        elif not isinstance(f, want):
            raise TypeError(f"not a {want.__name__}: {type(f).__name__}")
        elif f not in memo:
            if enter is not None:
                enter(f)
            subs, sub_level = subformulas(f)
            stack.append((f, None))
            for g in reversed(subs):
                stack.append((g, sub_level))


def formula_labels(f: StateFormula | MeasureFormula) -> frozenset[str]:
    """The labels of f's modalities."""
    memo: _Memo = {}
    level = MeasureFormula if isinstance(f, MeasureFormula) else StateFormula
    _walk(f, level, memo, lambda g: None)
    return frozenset(g.label for g in memo if isinstance(g, (Diamond, DiamondMulti)))


# ---------------------------------------------------------------------------
# Semantics


def eval_state(m: Nlmp, phi: StateFormula) -> StateSet:
    """The set of states satisfying phi.

    phi is walked as a DAG, each distinct node once and without
    recursion, so its depth is bounded by memory only; a subformula at
    the wrong level raises TypeError.  The result is always measurable
    in the model's sigma-algebra; this is asserted after every modality,
    and can only fail when the model itself fails validation.
    """
    return _evaluate(m, phi, StateFormula, {})


def _evaluate(m: Nlmp, f: StateFormula | MeasureFormula, level: type, memo: _Memo) -> frozenset:
    """The denotation of f, a formula of the given level; memo holds the
    denotations of the nodes already evaluated on m and receives the new
    ones."""

    def enter(g) -> None:
        # On entry, before its constraints: of two faults in one formula,
        # the one a tree walk meets first is reported.
        if isinstance(g, DiamondMulti) and g.label not in m.labels:
            raise DomainError(f"unknown label {g.label!r}")

    _walk(f, level, memo, lambda g: _denote(m, g, memo), enter)
    return memo[f]


def _denote(m: Nlmp, f: StateFormula | MeasureFormula, memo: _Memo) -> frozenset:
    """The denotation of f, given those of its subformulas in memo."""
    if isinstance(f, Top):
        return frozenset(m.states)
    if isinstance(f, And):
        return memo[f.left] & memo[f.right]
    if isinstance(f, MOr):
        return frozenset().union(*(memo[g] for g in f.items))
    if isinstance(f, MNot):
        return m.pool_set - memo[f.item]
    if isinstance(f, Bound):
        test = _bound_test(m, f, memo[f.phi])
        return frozenset(mu for mu in m.pool if _holds(mu, test))
    if isinstance(f, Diamond):
        result = hit_preimage(m, f.label, memo[f.body])
    elif isinstance(f, DiamondMulti):
        tests = [_bound_test(m, c, memo[c.phi]) for c in f.constraints]
        # Each distinct measure of the label's rows is tested once.
        passing = [mu for mu in m.holders[f.label] if all(_holds(mu, test) for test in tests)]
        result = hit_preimage(m, f.label, passing)
    else:
        raise TypeError(f"not a formula: {type(f).__name__}")
    _assert_measurable(m, result)
    return result


# A bound, ready to test measures against: the indices of the atoms of
# its formula's extension, its comparison, and its threshold's numerator
# and denominator.
_BoundTest = tuple[set[int], Callable[[int, int], bool], int, int]


def _bound_test(m: Nlmp, bound: Bound, ext: StateSet) -> _BoundTest:
    """The bound's test, given its formula's extension.  The extension's
    atoms are marked once: every set the evaluator denotes is measurable
    (asserted after every modality), so the atoms that meet it are
    exactly the atoms inside it, and a measure's mass on it is its mass
    on them."""
    index = m.sigma._atom_index
    marked = {index[s] for s in ext}
    return marked, COMPARE[bound.op], bound.q.numerator, bound.q.denominator


def _holds(mu: Measure, test: _BoundTest) -> bool:
    """Whether mu satisfies the bound: its mass on the marked atoms,
    mass / den, compares to the threshold qn / qd as the integers
    mass * qd and qn * den do, both denominators being positive.  No
    Fraction is built."""
    marked, compare, qn, qd = test
    return compare(sum([n for i, n in mu.nums if i in marked]) * qd, qn * mu.den)


def _assert_measurable(m: Nlmp, q: StateSet) -> None:
    if not m.sigma.is_measurable(q):
        raise InternalCheckError(
            "formula denotes a non-measurable state set; the model does not "
            "pass measurability validation"
        )


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
    formulas = dict(_lf_splits(m))
    # Verify against a memo of its own, not the one synthesis filled:
    # splits share their subformulas, so each distinct node is evaluated
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
    other outside.  The formula's modal depth grows with the pair's
    round, and no depth is refused: the evaluator, the renderer and the
    parser walk a formula without recursion, so its text parses back
    to it at any depth.

    Only full powerset models are supported: on them the sublogic is
    known to pin down bisimilarity exactly, while on coarser
    sigma-algebras no such guarantee is available and the operation
    refuses to guess.
    """
    found = _separate(m, s, t)
    return None if found is None else found[0]


def _separate(m: Nlmp, s: str, t: str) -> tuple[StateFormula, StateSet] | None:
    """`distinguish`'s formula with its extension, the one its
    verification computed; None for a bisimilar pair."""
    if s not in m.universe:
        raise DomainError(f"unknown state {s!r}")
    if t not in m.universe:
        raise DomainError(f"unknown state {t!r}")
    if not m.sigma.is_powerset:
        raise UnsupportedModelError(
            "distinguishing formulas are only synthesized on full powerset models"
        )
    _require_valid(m)
    # s and t share a block until the first round whose key differs on them.
    if all(key(s) == key(t) for _, key, _ in refinement_rounds(m)):
        return None
    for (left, right), psi in _lf_splits(m):
        if s in left and t in right or t in left and s in right:
            return psi, _verify_split(m, (left, right), psi, {})
    raise InternalCheckError(f"no split separates {s!r} and {t!r}")


def _verify_split(m: Nlmp, split: Split, psi: StateFormula, memo: _Memo) -> StateSet:
    """Check that psi separates every pair of left x right: one sub-block
    lies inside its extension and the other outside, which costs
    O(|left| + |right|) once the extension is known.  Returns the
    extension."""
    left, right = split
    ext = _evaluate(m, psi, StateFormula, memo)
    inner, outer = (left, right) if left[0] in ext else (right, left)
    if not (ext.issuperset(inner) and ext.isdisjoint(outer)):
        s, t = next((s, t) for s in left for t in right if (s in ext) == (t in ext))
        raise InternalCheckError(f"synthesized formula fails to separate {s!r} and {t!r}")
    return ext


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
    everything = frozenset(m.states)

    @cache
    def rank(e: StateSet) -> tuple:  # separator order: smallest first
        return len(e), sorted(map(m.universe.index, e))

    # The generators but the universe, in separator order, and `conj`:
    # () -> Top, (e,) -> the first formula recorded with extension e, a
    # longer tuple -> its And.
    gens: list[StateSet] = []
    conj: dict[tuple[StateSet, ...], StateFormula] = {(): Top()}
    # One evaluation memo for all synthesized formulas.
    memo: _Memo = {}

    def synthesize(opponents: tuple[Measure, ...], label: str, mu: Measure) -> StateFormula:
        # mu is a measure under label that is unmatched in the row opponents.
        bounds = [] if opponents else [GreaterThan(Top(), ZERO)]
        for nu in opponents:
            for ext in ordered:
                a_val, b_val = mu.value(ext), nu.value(ext)
                if a_val != b_val:
                    break
            else:
                raise InternalCheckError("no candidate separates two distinct measures")
            side = GreaterThan if a_val > b_val else LessThan
            bounds.append(side(conj[candidates[ext]], (a_val + b_val) / 2))
        # Equal bounds are one node; the first of each is kept, in order.
        return DiamondMulti(label, tuple(dict.fromkeys(bounds)))

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
            ext = _evaluate(m, psi, StateFormula, memo)
            if (ext,) not in conj:
                conj[(ext,)] = psi
                insort(gens, ext, key=rank)
