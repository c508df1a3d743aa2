import random
import re
import sys
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from nlmp import (
    And,
    AtLeast,
    AtMost,
    Bound,
    Diamond,
    DiamondMulti,
    DomainError,
    GreaterThan,
    InternalCheckError,
    LessThan,
    Measure,
    MNot,
    MOr,
    Nlmp,
    SigmaAlgebra,
    Top,
    Universe,
    UnsupportedModelError,
    compare_bisims,
    dirac,
    distinguish,
    eval_state,
    formula_to_text,
    largest_traditional,
    logical_equivalence,
    satisfies,
    smallest_stable_sigma,
    trace_classes,
)
from support import (
    eval_measure,
    expand_greater,
    expand_multi,
    lmp_bisimilarity,
    modal_depth,
    np_reach_model,
    rand_any_nlmp,
    rand_lmp,
    rand_measure_formula,
    rand_partition,
    rand_state_formula,
    rand_threshold,
    rand_universe,
    rand_valid_nlmp,
    single_bound_separates,
    tree_eval_measure,
    tree_eval_state,
    two_bounds_model,
    two_bounds_measures,
    uniform_rows_model,
)
from nlmp.bisim import refinement, refinement_rounds
from nlmp.logic import BOUNDS, formula_labels

PHI_X = Diamond("b", AtLeast(Top(), F(1)))
TWO_BOUNDS = DiamondMulti(
    "a", (GreaterThan(PHI_X, F(1, 4)), LessThan(PHI_X, F(3, 4)))
)


@pytest.fixture
def default_recursion_limit():
    """Python's default recursion limit for the test, whatever the runner set."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


class TestEvalState:
    def test_top_is_everything(self):
        m = two_bounds_model()
        assert eval_state(m, Top()) == frozenset(m.states)

    def test_certain_step_to_x(self):
        m = two_bounds_model()
        assert eval_state(m, PHI_X) == frozenset({"x"})

    def test_two_bounds_pick_out_s(self):
        m = two_bounds_model()
        assert eval_state(m, TWO_BOUNDS) == frozenset({"s"})

    def test_unknown_label_rejected(self):
        m = two_bounds_model()
        with pytest.raises(DomainError):
            eval_state(m, Diamond("nope", AtLeast(Top(), F(1))))

    def test_invalid_model_caught_by_measurability_assert(self):
        u = Universe(("s", "t", "x"))
        sig = SigmaAlgebra(u, (frozenset({"s", "t"}), frozenset({"x"})))
        m = Nlmp(sig, ("a",), {("s", "a"): (dirac(sig, "x"),)})
        with pytest.raises(InternalCheckError):
            eval_state(m, Diamond("a", AtLeast(Top(), F(0))))


class TestEvalMeasure:
    def test_full_mass_bound_keeps_whole_pool(self):
        m = two_bounds_model()
        assert eval_measure(m, AtLeast(Top(), F(1))) == frozenset(m.pool)

    def test_negated_full_mass_bound_is_empty(self):
        m = two_bounds_model()
        assert eval_measure(m, MNot(AtLeast(Top(), F(1)))) == frozenset()

    def test_interval_on_x_probability_isolates_extra_measure(self):
        m = two_bounds_model()
        _, _, mu3 = two_bounds_measures(m)
        conj = MNot(MOr((MNot(GreaterThan(PHI_X, F(1, 4))), MNot(LessThan(PHI_X, F(3, 4))))))
        assert eval_measure(m, conj) == frozenset({mu3})

    def test_result_is_union_of_profile_classes(self):
        rng = random.Random(501)
        for _ in range(60):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            psi = rand_measure_formula(rng, m.labels, 3)
            out = eval_measure(m, psi)
            for cls in trace_classes(m.pool, m.sigma):
                members = frozenset(cls)
                assert members <= out or not (members & out)

    def test_state_results_are_measurable(self):
        rng = random.Random(502)
        for _ in range(60):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            phi = rand_state_formula(rng, m.labels, 3)
            assert m.sigma.is_measurable(eval_state(m, phi))


def _outcome(evaluate, m, formula):
    try:
        return evaluate(m, formula)
    except (DomainError, InternalCheckError) as exc:
        return type(exc)


class TestBoundKernel:
    """The evaluator tests a bound in integers on its extension's marked
    atoms; it must agree with comparing the exact value."""

    def test_kernel_matches_comparing_the_value(self):
        import nlmp.logic
        from nlmp.logic import BOUNDS, COMPARE

        rng = random.Random(3403)
        kinds = set()
        for i in range(300):
            m = rand_valid_nlmp(rng, max_states=6, coarse=i % 2 == 1)
            atoms = m.sigma.atoms
            for _ in range(4):
                # a random union of atoms, empty and whole included
                ext = frozenset().union(*rng.sample(atoms, rng.randint(0, len(atoms))))
                masses = {mu.value(ext) for mu in m.pool}
                for q in {F(0), F(1), rand_threshold(rng), *masses}:
                    for op, cls in BOUNDS.items():
                        test = nlmp.logic._bound_test(m, cls(Top(), q), ext)
                        for mu in m.pool:
                            want = COMPARE[op](mu.value(ext), q)
                            assert nlmp.logic._holds(mu, test) == want, (mu, sorted(ext), op, q)
                            kinds.add((op, want, q in masses))
            assert eval_state(m, Top()) == frozenset(m.states)
        # every op both held and failed, at exact masses and between them
        assert len(kinds) == 16

    def test_evaluation_builds_no_fraction_and_reads_no_value(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the evaluator built a Fraction or read a Measure value")

        rng = random.Random(3404)
        cases = []
        for i in range(60):
            m = rand_valid_nlmp(rng, coarse=i % 2 == 1)
            phi = rand_state_formula(rng, m.labels, 3)
            cases.append((m, phi, tree_eval_state(m, phi)))
        monkeypatch.setattr(Measure, "value", forbidden)
        monkeypatch.setattr(F, "__new__", forbidden)
        for m, phi, want in cases:
            assert eval_state(m, phi) == want


class TestMemoisedEvaluation:
    def test_agrees_with_the_tree_walk(self):
        rng = random.Random(704)
        for i in range(200):
            m = rand_valid_nlmp(rng, coarse=i % 2 == 1)
            phi = rand_state_formula(rng, m.labels, 3)
            assert eval_state(m, phi) == tree_eval_state(m, phi)
            psi = rand_measure_formula(rng, m.labels, 3)
            assert eval_measure(m, psi) == tree_eval_measure(m, psi)

    def test_shared_subformulas_agree_with_the_tree_walk(self):
        # one node under several parents is answered from the memo
        rng = random.Random(705)
        for i in range(150):
            m = rand_valid_nlmp(rng, coarse=i % 2 == 1)
            phi = rand_state_formula(rng, m.labels, 2)
            a, q = rng.choice(m.labels), rand_threshold(rng)
            shared = And(phi, DiamondMulti(a, (GreaterThan(phi, q), LessThan(phi, q))))
            bound = AtLeast(shared, q)
            shared = And(shared, Diamond(a, MOr((bound, MNot(bound), bound))))
            assert eval_state(m, shared) == tree_eval_state(m, shared)

    def test_failures_agree_with_the_tree_walk(self):
        # unknown labels, and non-measurable extensions on invalid models
        rng = random.Random(706)
        for _ in range(200):
            m = rand_any_nlmp(rng)
            phi = rand_state_formula(rng, m.labels + ("zz",), 3)
            assert _outcome(eval_state, m, phi) == _outcome(tree_eval_state, m, phi)

    def test_unknown_state_is_a_domain_error(self):
        m = two_bounds_model()
        with pytest.raises(DomainError):
            satisfies(m, "nope", PHI_X)

    def test_deep_sharing_evaluates_each_node_once(self, monkeypatch):
        import nlmp.logic

        calls = []
        real = nlmp.logic.hit_preimage

        def counted(m, a, xi):
            calls.append(a)
            assert len(calls) == 1, "the shared diamond was evaluated twice"
            return real(m, a, xi)

        monkeypatch.setattr(nlmp.logic, "hit_preimage", counted)
        phi = PHI_X
        for _ in range(40):
            phi = And(phi, phi)  # 2^40 leaves as a tree, 41 nodes as a DAG
        m = two_bounds_model()
        started = time.perf_counter()
        assert eval_state(m, phi) == frozenset({"x"})
        assert time.perf_counter() - started < 5
        assert calls == ["b"]

    def test_multi_bounds_tested_once_per_distinct_measure(self, monkeypatch):
        import nlmp.logic

        m = uniform_rows_model()  # three states share one row measure
        calls = []
        real = nlmp.logic._holds
        monkeypatch.setattr(nlmp.logic, "_holds", lambda mu, test: calls.append(mu) or real(mu, test))
        phi = DiamondMulti("a", (GreaterThan(Top(), F(1, 4)), GreaterThan(Top(), F(1, 2))))
        assert eval_state(m, phi) == frozenset(m.states)
        assert len(calls) == 2  # one test per bound, for the one distinct measure


def _modality_chain(n: int):
    """n modalities deep, each a step under b, so it holds at x alone in
    two_bounds_model; and its text."""
    phi, opens, closes = Top(), [], []
    for i in range(n):
        if i % 3 == 0:
            phi = Diamond("b", AtLeast(phi, F(1)))
            opens.append("<b> [")
            closes.append("]>=1")
        elif i % 3 == 1:
            phi = DiamondMulti("b", (GreaterThan(phi, F(1, 2)),))
            opens.append("<b>[ >1/2 ")
            closes.append(" ]")
        else:
            phi = Diamond("b", MNot(MOr((LessThan(phi, F(1)),))))
            opens.append("<b> !([")
            closes.append("]<1)")
    return phi, "".join(reversed(opens)) + "T" + "".join(closes)


class TestDeepFormulas:
    """Every walk over a formula is free of recursion: none of them is
    bounded by the interpreter's stack."""

    def test_modality_chain_ten_thousand_deep(self, default_recursion_limit):
        phi, text = _modality_chain(10_000)
        m = two_bounds_model()
        mu1, _, _ = two_bounds_measures(m)
        assert eval_state(m, phi) == frozenset({"x"})
        assert eval_measure(m, AtLeast(phi, F(1))) == frozenset({mu1})
        assert formula_labels(phi) == frozenset({"b"})
        assert formula_to_text(phi) == text

    def test_shared_and_dag_five_thousand_deep(self, default_recursion_limit):
        m = two_bounds_model()
        mu1, _, mu3 = two_bounds_measures(m)
        doubled = TWO_BOUNDS
        for _ in range(5000):
            doubled = And(doubled, doubled)  # 2^5000 leaves as a tree
        assert eval_state(m, doubled) == frozenset({"s"})
        assert eval_measure(m, AtLeast(doubled, F(0))) == frozenset(m.pool)
        assert formula_labels(doubled) == frozenset({"a", "b"})
        # right-nested, one leaf under every level: the text is linear
        nested = And(PHI_X, PHI_X)
        for _ in range(4999):
            nested = And(PHI_X, nested)
        assert eval_state(m, nested) == frozenset({"x"})
        assert eval_measure(m, LessThan(nested, F(1, 2))) == frozenset(m.pool) - {mu1, mu3}
        assert formula_labels(nested) == frozenset({"b"})
        leaf = formula_to_text(PHI_X)
        assert formula_to_text(nested) == f"{leaf} & (" * 4999 + f"{leaf} & {leaf}" + ")" * 4999

    def test_labels_are_the_modalities_of_the_text(self):
        rng = random.Random(707)
        for _ in range(300):
            phi = rand_state_formula(rng, ("a", "b", "c"), rng.randint(0, 4))
            assert formula_labels(phi) == set(re.findall(r"<(\w+)>", formula_to_text(phi)))

    def test_misplaced_subformula_is_a_type_error(self):
        m = two_bounds_model()
        for phi in (And(Top(), AtLeast(Top(), 0)), Diamond("a", Top()), AtLeast(Top(), 0)):
            with pytest.raises(TypeError):
                eval_state(m, phi)
            with pytest.raises(TypeError):
                eval_measure(m, MNot(AtLeast(phi, 0)))
        with pytest.raises(TypeError):
            eval_measure(m, Top())
        with pytest.raises(TypeError):
            formula_labels(Diamond("a", Top()))


class TestSatisfies:
    def test_top_everywhere(self):
        m = two_bounds_model()
        for s in m.states:
            assert satisfies(m, s, Top())

    def test_two_bounds_formula_separates_s_from_t(self):
        m = two_bounds_model()
        assert satisfies(m, "s", TWO_BOUNDS)
        assert not satisfies(m, "t", TWO_BOUNDS)

    def test_unknown_state_rejected(self):
        with pytest.raises(DomainError):
            satisfies(two_bounds_model(), "nope", Top())


class TestSugarCoherence:
    def test_multi_bound_modality_equals_its_expansion(self):
        rng = random.Random(503)
        m_pool = [rand_valid_nlmp(rng, coarse=rng.random() < 0.3) for _ in range(40)]
        for m in m_pool:
            phi = rand_state_formula(rng, m.labels, 2)
            if not isinstance(phi, DiamondMulti):
                phi = DiamondMulti(
                    rng.choice(m.labels),
                    (BOUNDS[rng.choice("><")](phi, F(rng.randint(0, 2), 2)),),
                )
            assert eval_state(m, phi) == eval_state(m, expand_multi(phi))

    def test_strict_bound_equals_finite_disjunction_of_inclusive_bounds(self):
        rng = random.Random(504)
        for _ in range(60):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.3)
            phi = rand_state_formula(rng, m.labels, 2)
            q = F(rng.randint(0, 4), 4)
            direct = eval_measure(m, GreaterThan(phi, q))
            assert direct == eval_measure(m, expand_greater(m, phi, q))

    def test_complement_style_sugar(self):
        rng = random.Random(505)
        for _ in range(60):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.3)
            phi = rand_state_formula(rng, m.labels, 2)
            q = F(rng.randint(0, 4), 4)
            assert eval_measure(m, LessThan(phi, q)) == eval_measure(m, MNot(AtLeast(phi, q)))
            assert eval_measure(m, AtMost(phi, q)) == eval_measure(m, MNot(GreaterThan(phi, q)))


class TestBounds:
    KINDS = (AtLeast, GreaterThan, LessThan, AtMost)

    def test_bounds_of_different_kinds_are_never_equal(self):
        bounds = [cls(PHI_X, F(1, 2)) for cls in self.KINDS]
        assert all(isinstance(b, Bound) for b in bounds)
        for i, b in enumerate(bounds):
            for j, c in enumerate(bounds):
                assert (b == c) == (i == j)
        assert len(set(bounds)) == 4
        assert AtLeast(PHI_X, F(1, 2)) == AtLeast(PHI_X, F(2, 4))
        assert repr(LessThan(Top(), F(1, 3))) == "LessThan(phi=Top(), q=Fraction(1, 3))"

    def test_rendering_is_unchanged(self):
        assert [formula_to_text(cls(PHI_X, F(1, 2))) for cls in self.KINDS] == [
            "[<b> [T]>=1]>=1/2",
            "[<b> [T]>=1]>1/2",
            "[<b> [T]>=1]<1/2",
            "[<b> [T]>=1]<=1/2",
        ]

    def test_threshold_outside_unit_interval_rejected(self):
        for cls in self.KINDS:
            with pytest.raises(DomainError):
                cls(Top(), F(3, 2))

    def test_multi_bound_modality_takes_strict_bounds_only(self):
        for cls in (AtLeast, AtMost):
            with pytest.raises(DomainError, match="constraint operator must be > or <"):
                DiamondMulti("a", (cls(Top(), 1),))
            with pytest.raises(DomainError):
                DiamondMulti("a", (GreaterThan(Top(), F(1, 2)), cls(Top(), 1)))
        with pytest.raises(DomainError, match="at least one constraint"):
            DiamondMulti("a", ())


class TestLogicalEquivalence:
    def test_two_bounds_model_fully_separated_with_formulas(self):
        m = two_bounds_model()
        report = logical_equivalence(m, "Lf")
        assert sorted(sorted(b) for b in report.partition) == [["s"], ["t"], ["x"], ["y"], ["z"]]
        psi = report.formula("s", "t")
        assert satisfies(m, "s", psi) != satisfies(m, "t", psi)
        for s, t in combinations(m.states, 2):
            psi = report.formula(s, t)
            assert satisfies(m, s, psi) != satisfies(m, t, psi)

    def test_full_logic_fragment_matches_event_bisimilarity(self):
        rng = random.Random(506)
        for _ in range(30):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            report = logical_equivalence(m, "L")
            assert report.relation.pairs == smallest_stable_sigma(m).relation.pairs
            assert report.formulas == {}

    def test_identical_rows_are_logically_equivalent(self):
        m = uniform_rows_model()
        for fragment in ("L", "Lf"):
            report = logical_equivalence(m, fragment)
            assert len(report.partition) == 1

    def test_embedded_deterministic_model_matches_its_bisimilarity(self):
        rng = random.Random(507)
        for _ in range(20):
            l = rand_lmp(rng, coarse=False)
            report = logical_equivalence(l, "Lf")
            assert report.relation.pairs == lmp_bisimilarity(l).pairs

    def test_sublogic_equivalence_matches_greatest_bisimilarity_on_powerset(self):
        rng = random.Random(508)
        for _ in range(60):
            m = rand_valid_nlmp(rng, coarse=False)
            report = logical_equivalence(m, "Lf")
            assert report.relation.pairs == largest_traditional(m).relation.pairs

    def test_each_unordered_pair_is_verified_once(self, monkeypatch):
        # One logical_equivalence call verifies every split with one memo:
        # each distinct formula node is evaluated at most once, so its
        # bound tests stay within one pass over the distinct nodes and
        # below what two satisfies calls per unordered pair took.
        import nlmp.logic

        calls = []
        real_holds = nlmp.logic._holds
        monkeypatch.setattr(nlmp.logic, "_holds", lambda mu, test: calls.append(mu) or real_holds(mu, test))
        synthesized = []
        real_splits = nlmp.logic._lf_splits

        def splits(m):
            yield from real_splits(m)
            synthesized.append(len(calls))

        monkeypatch.setattr(nlmp.logic, "_lf_splits", splits)
        rng = random.Random(511)
        models = [two_bounds_model()] + [rand_valid_nlmp(rng, coarse=False) for _ in range(20)]
        compared = 0
        for m in models:
            calls.clear()
            synthesized.clear()
            report = logical_equivalence(m, "Lf")
            verification = len(calls) - synthesized[0]
            nodes, stack = {}, list(report.formulas.values())
            while stack:
                f = stack.pop()
                if id(f) in nodes:
                    continue
                nodes[id(f)] = f
                if isinstance(f, And):
                    stack += [f.left, f.right]
                elif isinstance(f, DiamondMulti):
                    stack += [c.phi for c in f.constraints]
                else:
                    assert isinstance(f, Top)
            one_pass = sum(
                len(f.constraints) * len({mu for s in m.states for mu in m.row(s, f.label)})
                for f in nodes.values()
                if isinstance(f, DiamondMulti)
            )
            assert verification <= one_pass
            calls.clear()
            pairs = [(s, t) for s, t in combinations(m.states, 2) if (s, t) not in report.relation]
            for s, t in pairs:
                psi = report.formula(s, t)
                satisfies(m, s, psi)
                satisfies(m, t, psi)
            if len(pairs) > 1:
                assert verification < len(calls)
                compared += 1
        assert compared > 10

    def test_synthesized_formulas_are_interned(self):
        # equal formulas are one object, however many pairs they separate
        rng = random.Random(512)
        shared = 0
        for _ in range(40):
            m = rand_valid_nlmp(rng, coarse=False)
            formulas = list(logical_equivalence(m, "Lf").formulas.values())
            assert len({id(f) for f in formulas}) == len(set(formulas))
            shared += len(set(formulas)) < len(formulas) // 2
        assert shared  # some formula separates several unordered pairs

    def test_one_formula_per_pair_of_sub_blocks(self):
        # each split of the refinement is explained by one formula, shared
        # by every pair of states across the two sub-blocks
        rng = random.Random(520)
        for i in range(200):
            m = rand_valid_nlmp(rng, coarse=i % 2 == 0)
            report = logical_equivalence(m, "Lf")
            splits = 0
            for _, _, blocks in refinement(m):
                for subs in blocks:
                    for left, right in combinations(subs, 2):
                        splits += 1
                        pairs = [(s, t) for s in left for t in right]
                        pairs += [(t, s) for s, t in pairs]
                        assert {id(report.formula(*p)) for p in pairs} == {id(report.formulas[(left, right)])}
            assert len(report.formulas) == splits

    def test_shared_formula_that_fails_one_pair_is_an_internal_error(self, monkeypatch):
        # TWO_BOUNDS holds at s only: it separates s from t, not t from x
        import nlmp.logic

        m = two_bounds_model()
        splits = [((("s",), ("t",)), TWO_BOUNDS), ((("t",), ("x",)), TWO_BOUNDS)]
        monkeypatch.setattr(nlmp.logic, "_lf_splits", lambda m: iter(splits))
        with pytest.raises(InternalCheckError, match="'t' and 'x'"):
            logical_equivalence(m, "Lf")

    def test_formula_that_fails_to_separate_is_an_internal_error(self, monkeypatch):
        import nlmp.logic

        m = two_bounds_model()
        monkeypatch.setattr(nlmp.logic, "_lf_splits", lambda m: iter([((("s",), ("t",)), Top())]))
        with pytest.raises(InternalCheckError, match="'s' and 't'"):
            logical_equivalence(m, "Lf")

    def test_formula_that_separates_the_representatives_only_is_an_internal_error(self, monkeypatch):
        # TWO_BOUNDS holds at s only: across the split {s, x} | {t} it
        # separates s from t but not x from t, so a check of left[0] and
        # right[0] alone would pass it
        import nlmp.logic

        m = two_bounds_model()
        assert satisfies(m, "s", TWO_BOUNDS)
        assert not satisfies(m, "x", TWO_BOUNDS) and not satisfies(m, "t", TWO_BOUNDS)
        monkeypatch.setattr(nlmp.logic, "_lf_splits", lambda m: iter([((("s", "x"), ("t",)), TWO_BOUNDS)]))
        with pytest.raises(InternalCheckError, match="'x' and 't'"):
            logical_equivalence(m, "Lf")

    def test_every_separated_pair_carries_a_verified_formula(self):
        rng = random.Random(509)
        for _ in range(40):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            report = logical_equivalence(m, "Lf")
            for s in m.states:
                for t in m.states:
                    psi = report.formula(s, t)
                    assert (psi is None) == ((s, t) in report.relation)
                    if psi is not None:
                        assert satisfies(m, s, psi) != satisfies(m, t, psi)

    def test_synthesis_builds_few_conjunctions_on_a_chain(self, monkeypatch):
        # Naming each separator candidate by a conjunction of recorded
        # formulas keeps the And nodes of one run well below n**2; closing
        # the recorded extensions under intersection built thousands.
        n = 40
        m = _two_label_chain(n)
        built = []
        real_init = And.__init__

        def counting_init(self, left, right):
            built.append(None)
            real_init(self, left, right)

        monkeypatch.setattr(And, "__init__", counting_init)
        report = logical_equivalence(m, "Lf")
        assert len(report.partition) == n
        assert len(built) <= n * n


def _two_label_chain(n: int) -> Nlmp:
    """A two-label point-mass chain c0 -> c1 -> ... -> c(n-1), each step's
    label drawn from random.Random(1) as perfbench's gen.chain draws it."""
    rng = random.Random(1)
    universe = Universe(tuple(f"c{i}" for i in range(n)))
    sigma = SigmaAlgebra.powerset(universe)
    rows = {(f"c{i}", rng.choice("ab")): [dirac(sigma, f"c{i + 1}")] for i in range(n - 1)}
    return Nlmp(sigma, ("a", "b"), rows)


class TestSeparatorCandidates:
    def test_measures_with_different_block_profiles_differ_on_some_candidate(self):
        # The argument synthesis rests on: take a partition into blocks and
        # a family of unions of blocks that contains the universe and
        # separates the blocks, and let C(B) be the intersection of the
        # members that contain the block B.  Then the values on the C(B)
        # determine a measure's profile over the blocks.  Profiles range
        # over every split of unit mass into quarters, one measure each.
        rng = random.Random(523)
        family_falls_short = 0
        for _ in range(300):
            universe = rand_universe(rng, max_states=7)
            sigma = SigmaAlgebra.powerset(universe)
            blocks = [frozenset(b) for b in rand_partition(rng, list(universe))]
            family = {frozenset(universe)}
            while any(
                all((a <= g) == (b <= g) for g in family) for a, b in combinations(blocks, 2)
            ):
                family.add(frozenset().union(*rng.sample(blocks, rng.randint(1, len(blocks)))))
            candidates = {frozenset.intersection(*(g for g in family if b <= g)) for b in blocks}
            measures = []
            for quarters in _compositions(4, len(blocks)):
                weights = [F(0)] * len(universe)
                for b, k in zip(blocks, quarters):
                    weights[universe.index(rng.choice(sorted(b)))] = F(k, 4)
                measures.append(Measure(sigma, tuple(weights)))
            on_candidates = {tuple(mu.value(c) for c in candidates) for mu in measures}
            assert len(on_candidates) == len(measures)
            on_family = {tuple(mu.value(g) for g in family) for mu in measures}
            family_falls_short += len(on_family) < len(measures)
        # Without the intersections the family alone would not do.
        assert family_falls_short


def _compositions(total: int, parts: int):
    """Every tuple of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k, *rest)


class TestSoundness:
    def test_bisimilar_states_satisfy_the_same_formulas(self):
        # event bisimilarity is the coarsest of the three notions, so
        # agreement on its classes covers the other two as well
        rng = random.Random(510)
        for _ in range(60):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            relation = smallest_stable_sigma(m).relation
            formulas = [rand_state_formula(rng, m.labels, 4) for _ in range(5)]
            for phi in formulas:
                ext = eval_state(m, phi)
                for s, t in relation.pairs:
                    assert (s in ext) == (t in ext)


class TestSingleBoundBlindness:
    def test_extra_measure_lies_weakly_between_the_shared_ones(self):
        m = two_bounds_model()
        mu1, mu2, mu3 = two_bounds_measures(m)
        targets = ["x", "y", "z"]
        for k in range(len(targets) + 1):
            for sub in combinations(targets, k):
                lo = min(mu1.value(sub), mu2.value(sub))
                hi = max(mu1.value(sub), mu2.value(sub))
                assert lo <= mu3.value(sub) <= hi

    def test_no_single_bound_modality_separates_the_pair(self):
        m = two_bounds_model()
        assert not single_bound_separates(m, "s", "t", depth=2)

    def test_two_bound_modality_does_separate(self):
        m = two_bounds_model()
        psi = distinguish(m, "s", "t")
        assert isinstance(psi, DiamondMulti)
        assert len(psi.constraints) == 2


class TestDistinguish:
    def test_same_state_is_equivalent(self):
        assert distinguish(two_bounds_model(), "x", "x") is None

    def test_bisimilar_states_are_equivalent(self):
        m = np_reach_model(True)
        assert distinguish(m, "s", "t") is None

    def test_different_enabledness_yields_enabling_probe(self):
        m = np_reach_model(False)
        psi = distinguish(m, "u", "v")
        assert psi == DiamondMulti("b", (GreaterThan(Top(), F(0)),))

    def test_result_is_verified_and_in_the_sublogic(self):
        rng = random.Random(511)
        checked = 0
        for _ in range(40):
            m = rand_valid_nlmp(rng, coarse=False)
            states = list(m.states)
            rep = largest_traditional(m)
            for s in states:
                for t in states:
                    psi = distinguish(m, s, t)
                    if (s, t) in rep.relation:
                        assert psi is None
                    else:
                        checked += 1
                        assert satisfies(m, s, psi) != satisfies(m, t, psi)
                        assert _in_sublogic(psi)
        assert checked > 50

    def test_agrees_with_the_full_table(self):
        # Stopping at the pair's round gives the formula the whole
        # refinement records for the pair, and None on the same pairs.
        rng = random.Random(528)
        models = [two_bounds_model()] + [rand_valid_nlmp(rng, coarse=False) for _ in range(60)]
        separated = 0
        for m in models:
            report = logical_equivalence(m, "Lf")
            for s in m.states:
                for t in m.states:
                    psi, expected = distinguish(m, s, t), report.formula(s, t)
                    if expected is None:
                        assert psi is None
                    else:
                        separated += 1
                        assert formula_to_text(psi) == formula_to_text(expected)
        assert separated > 100

    def test_modal_depth_is_the_separation_round_plus_one(self):
        # The separation round is the first whose key tells the pair
        # apart; a split of round k is explained one modality deeper
        # than the splits of round k - 1 it rests on.
        rng = random.Random(5)
        separated = 0
        for _ in range(400):
            m = rand_valid_nlmp(rng, max_states=6, coarse=False)
            for s in m.states:
                for t in m.states:
                    psi = distinguish(m, s, t)
                    if psi is None:
                        continue
                    separated += 1
                    k = next(k for k, (_, key, _) in enumerate(refinement_rounds(m)) if key(s) != key(t))
                    assert modal_depth(psi) == k + 1, (s, t)
        assert separated > 4000

    def test_stops_at_the_pairs_round(self, monkeypatch):
        # The last two states of the chain separate in the first round,
        # so distinguish builds fewer multi-bound modalities than the
        # whole refinement does.
        m = _two_label_chain(40)
        built = []
        real_post_init = DiamondMulti.__post_init__

        def counting_post_init(self):
            built.append(None)
            real_post_init(self)

        monkeypatch.setattr(DiamondMulti, "__post_init__", counting_post_init)
        assert distinguish(m, "c38", "c39") is not None
        pair = len(built)
        built.clear()
        logical_equivalence(m, "Lf")
        assert 0 < pair < len(built)

    def test_computes_no_round_after_the_pairs(self, monkeypatch):
        # c38 and c39 separate in round 0, c20 and c21 in round 3 of 11:
        # distinguish computes the rounds up to the separating one, and a
        # later fixpoint on the same model computes only the rest.
        import nlmp.bisim

        real = nlmp.bisim.traditional_signature
        calls = []
        monkeypatch.setattr(nlmp.bisim, "traditional_signature", lambda m, lam: calls.append(lam) or real(m, lam))
        for s, t in [("c38", "c39"), ("c20", "c21")]:
            twin = _two_label_chain(40)
            k = next(i for i, (_, key, _) in enumerate(nlmp.bisim.refinement(twin)) if key(s) != key(t))
            m = _two_label_chain(40)
            calls.clear()
            assert distinguish(m, s, t) is not None
            assert len(calls) == k + 1
            trace = compare_bisims(m).traditional.trace
            assert len(calls) == len(trace) > k + 1

    def test_bisimilar_pair_synthesizes_nothing(self, monkeypatch):
        m = np_reach_model(True)
        calls = []
        real_value = Measure.value
        monkeypatch.setattr(Measure, "value", lambda mu, q: calls.append(mu) or real_value(mu, q))
        assert distinguish(m, "s", "t") is None
        assert calls == []

    def test_formula_that_separates_the_representatives_only_is_an_internal_error(self, monkeypatch):
        # TWO_BOUNDS holds at s only: across the split {s, x} | {t} it
        # separates s from t but not x from t, so a check of the pair
        # alone would pass it
        import nlmp.logic

        m = two_bounds_model()
        monkeypatch.setattr(nlmp.logic, "_lf_splits", lambda m: iter([((("s", "x"), ("t",)), TWO_BOUNDS)]))
        with pytest.raises(InternalCheckError, match="'x' and 't'"):
            distinguish(m, "s", "t")

    def test_separating_formula_ten_thousand_deep_is_verified(self, monkeypatch, default_recursion_limit):
        # x alone steps under b, back to itself, so the b-chain of any
        # depth holds at x only, and the two-bound modality over it at s
        # only: 10,001 nodes deep, a depth the refinement reaches on a
        # one-label chain of five thousand states.
        import nlmp.logic

        chain = Top()
        for _ in range(4999):
            chain = DiamondMulti("b", (GreaterThan(chain, F(1, 2)),))
        deep = DiamondMulti("a", (GreaterThan(chain, F(1, 4)), LessThan(chain, F(3, 4))))
        m = two_bounds_model()
        monkeypatch.setattr(nlmp.logic, "_lf_splits", lambda m: iter([((("s",), ("t",)), deep)]))
        assert distinguish(m, "s", "t") is deep

    def test_shared_and_dag_five_thousand_deep_is_verified(self, monkeypatch, default_recursion_limit):
        # A conjunction of a node with itself, five thousand times: each
        # shared node is evaluated once.
        import nlmp.logic

        shared = TWO_BOUNDS
        for _ in range(5000):
            shared = And(shared, shared)
        m = two_bounds_model()
        monkeypatch.setattr(nlmp.logic, "_lf_splits", lambda m: iter([((("s",), ("t",)), shared)]))
        assert distinguish(m, "s", "t") is shared

    def test_deep_formula_that_fails_to_separate_is_an_internal_error(self, monkeypatch, default_recursion_limit):
        # Two a-steps in a row reach no state with an a-transition, so the
        # a-chain deeper than one holds nowhere.
        import nlmp.logic

        deep = Top()
        for _ in range(5000):
            deep = DiamondMulti("a", (GreaterThan(deep, F(1, 2)),))
        m = two_bounds_model()
        monkeypatch.setattr(nlmp.logic, "_lf_splits", lambda m: iter([((("s",), ("t",)), deep)]))
        with pytest.raises(InternalCheckError, match="fails to separate 's' and 't'"):
            distinguish(m, "s", "t")

    def test_coarse_sigma_algebra_refused(self):
        u = Universe(("s", "t", "x"))
        sig = SigmaAlgebra(u, (frozenset({"s", "t"}), frozenset({"x"})))
        m = Nlmp(
            sig, ("a",), {("s", "a"): (dirac(sig, "x"),), ("t", "a"): (dirac(sig, "x"),)}
        )
        with pytest.raises(UnsupportedModelError):
            distinguish(m, "s", "x")

    def test_unknown_state_rejected(self):
        with pytest.raises(DomainError):
            distinguish(two_bounds_model(), "s", "nope")


def _in_sublogic(phi) -> bool:
    if isinstance(phi, Top):
        return True
    if isinstance(phi, And):
        return _in_sublogic(phi.left) and _in_sublogic(phi.right)
    if isinstance(phi, DiamondMulti):
        return all(_in_sublogic(c.phi) for c in phi.constraints)
    return False
