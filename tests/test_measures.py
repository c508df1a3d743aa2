import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from math import lcm

import pytest

from nlmp import (
    DomainError,
    Measure,
    Nlmp,
    PreconditionError,
    SigmaAlgebra,
    Universe,
    dirac,
    parse_model,
    profile,
    sigma_of_relation,
    trace_classes,
)
from support import (
    BoundSpec,
    all_atoms_is_measurable,
    build_pool,
    dense_profile,
    dense_trace_classes,
    dense_value,
    in_delta_set,
    measurable_sets,
    measure_eval,
    measures_related,
    rand_coarsening,
    rand_measure,
    rand_partition,
    rand_symmetric_relation,
    rand_weights,
    rand_universe,
    rand_valid_nlmp,
    scan_dirac_atom,
    subalgebras,
    support,
    weights,
)


def powerset(*names):
    return SigmaAlgebra.powerset(Universe(tuple(names)))


@pytest.fixture
def xyz():
    return powerset("x", "y", "z")


class TestMeasureEval:
    def test_empty_set_has_value_zero(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 2)})
        assert measure_eval(mu, set()) == 0

    def test_whole_space_has_value_one(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 2)})
        assert measure_eval(mu, {"x", "y", "z"}) == 1

    def test_additivity_on_example(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 2)})
        assert measure_eval(mu, {"x", "z"}) == F(1, 2)

    def test_additivity_on_random_disjoint_sets(self):
        rng = random.Random(201)
        for _ in range(150):
            universe = rand_universe(rng)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            )
            mu = rand_measure(rng, sig)
            atoms = list(sig.atoms)
            rng.shuffle(atoms)
            cut = rng.randint(0, len(atoms))
            q1 = frozenset().union(*atoms[:cut]) if cut else frozenset()
            q2 = frozenset().union(*atoms[cut:]) if cut < len(atoms) else frozenset()
            assert measure_eval(mu, q1 | q2) == measure_eval(mu, q1) + measure_eval(mu, q2)

    def test_non_measurable_set_rejected(self):
        sig = SigmaAlgebra(Universe(("1", "2")), (frozenset({"1", "2"}),))
        mu = Measure.from_state_weights(sig, {"1": F(1)})
        with pytest.raises(DomainError):
            measure_eval(mu, {"1"})

    def test_bad_weight_sum_rejected(self, xyz):
        with pytest.raises(DomainError):
            Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 3)})


class TestSparseValue:
    def test_agrees_with_the_dense_sum(self):
        rng = random.Random(703)
        for i in range(150):
            m = rand_valid_nlmp(rng, max_states=6, coarse=i % 2 == 1)
            states = list(m.states)
            for mu in m.pool:
                for q in measurable_sets(m.sigma):
                    v = mu.value(q)
                    assert v == dense_value(mu, q) and type(v) is F
                # a non-measurable set, and a state outside the universe
                bad = [frozenset(s for s in states if rng.random() < 0.5) for _ in range(5)]
                bad = [q for q in bad if not all_atoms_is_measurable(m.sigma, q)]
                for q in bad + [{states[0], "nope"}]:
                    for value in (mu.value, lambda q: dense_value(mu, q)):
                        with pytest.raises(DomainError):
                            value(q)


class TestDirac:
    def test_mass_on_its_state(self):
        sig = powerset("x", "y")
        assert measure_eval(dirac(sig, "x"), {"x"}) == 1

    def test_atom_level_point_mass(self):
        sig = SigmaAlgebra(Universe(("1", "2", "3")), (frozenset({"1", "2"}), frozenset({"3"})))
        assert measure_eval(dirac(sig, "1"), {"1", "2"}) == 1

    def test_no_mass_elsewhere(self):
        sig = powerset("x", "y")
        assert measure_eval(dirac(sig, "x"), {"y"}) == 0

    def test_membership_characterizes_value(self):
        rng = random.Random(202)
        for _ in range(50):
            universe = rand_universe(rng)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            )
            s = rng.choice(universe.states)
            mu = dirac(sig, s)
            for q in measurable_sets(sig):
                assert measure_eval(mu, q) == (1 if s in q else 0)

    def test_unknown_state_rejected(self):
        with pytest.raises(DomainError):
            dirac(powerset("x"), "nope")


class TestBounds:
    def test_inclusive_boundary(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 2)})
        assert in_delta_set(mu, {"x"}, BoundSpec.at_least(F(1, 2)))

    def test_strict_boundary(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 2)})
        assert not in_delta_set(mu, {"x"}, BoundSpec.greater(F(1, 2)))

    def test_open_interval(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 4), "z": F(1, 4)})
        assert in_delta_set(mu, {"x"}, BoundSpec.open_interval(F(1, 4), F(3, 4)))
        assert not in_delta_set(mu, {"y"}, BoundSpec.open_interval(F(1, 4), F(3, 4)))

    def test_bad_bounds_rejected(self):
        with pytest.raises(DomainError):
            BoundSpec.at_least(F(3, 2))
        with pytest.raises(DomainError):
            BoundSpec.open_interval(F(3, 4), F(1, 4))


class TestProfile:
    def test_powerset_profile_lists_atom_weights(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 2)})
        assert profile(mu, xyz) == (F(1, 2), F(1, 2), F(0))

    def test_trivial_profile_is_total_mass(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 3), "y": F(2, 3)})
        assert profile(mu, SigmaAlgebra.trivial(xyz.universe)) == (F(1),)

    def test_coarse_profile_sums_atoms(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 4), "z": F(1, 4)})
        lam = SigmaAlgebra(xyz.universe, (frozenset({"x"}), frozenset({"y", "z"})))
        assert profile(mu, lam) == (F(1, 2), F(1, 2))

    def test_requires_subalgebra(self, xyz):
        mu = dirac(xyz, "x")
        other = SigmaAlgebra.powerset(Universe(("x", "y")))
        with pytest.raises((PreconditionError, DomainError)):
            profile(mu, other)

    def test_profile_over_own_sigma_algebra_is_the_weight_vector(self):
        rng = random.Random(207)
        for _ in range(50):
            universe = rand_universe(rng)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            )
            mu = rand_measure(rng, sig)
            vec = profile(mu, sig)
            assert vec == weights(mu)
            assert sum(vec) == 1
            assert all(0 <= v <= 1 for v in vec)

    def test_agrees_with_dense_sum_on_random_models(self):
        rng = random.Random(603)
        for _ in range(150):
            m = rand_valid_nlmp(rng, max_states=6, coarse=rng.random() < 0.5)
            lams = [
                rand_coarsening(rng, m.sigma),
                SigmaAlgebra(
                    m.universe, tuple(frozenset(b) for b in rand_partition(rng, list(m.universe)))
                ),
            ]
            for mu in m.pool:
                for lam in lams:
                    try:
                        expected = dense_profile(mu, lam)
                    except PreconditionError:
                        with pytest.raises(PreconditionError):
                            profile(mu, lam)
                    else:
                        assert profile(mu, lam) == expected

    def test_equal_profiles_iff_equal_on_every_measurable_set(self):
        # brute force over every measurable set of the sub-sigma-algebra
        rng = random.Random(203)
        for _ in range(120):
            universe = rand_universe(rng)
            sig = SigmaAlgebra.powerset(universe)
            lam = rng.choice(subalgebras(sig))
            mu, nu = rand_measure(rng, sig), rand_measure(rng, sig)
            same_everywhere = all(
                measure_eval(mu, q) == measure_eval(nu, q) for q in measurable_sets(lam)
            )
            assert measures_related(mu, nu, lam) == same_everywhere


def spread_over_states(mu: Measure) -> dict:
    """mu's weights spread evenly over the states of each atom."""
    by_state = {}
    for a, w in zip(mu.sigma.atoms, weights(mu)):
        for s in a:
            by_state[s] = w / len(a)
    return by_state


class TestMeasureHash:
    def test_hash_agrees_with_equality_on_seeded_models(self):
        rng = random.Random(604)
        for _ in range(100):
            m = rand_valid_nlmp(rng, max_states=6, coarse=rng.random() < 0.5)
            sig = m.sigma
            for mu in m.pool:
                same = [
                    Measure(sig, weights(mu)),
                    Measure.from_atom_weights(sig, {sig.atoms[i]: w for i, w in support(mu)}),
                    Measure.from_state_weights(sig, spread_over_states(mu)),
                    pickle.loads(pickle.dumps(mu)),
                ]
                if mu.is_dirac:
                    same.append(dirac(sig, min(scan_dirac_atom(mu))))
                for nu in same:
                    assert nu == mu and hash(nu) == hash(mu)
                for nu in m.pool:
                    assert (nu == mu) == (weights(nu) == weights(mu))
                    assert (nu != mu) == (weights(nu) != weights(mu))

    def test_same_support_over_another_sigma_algebra_is_unequal(self):
        xy = powerset("x", "y")
        assert dirac(xy, "x") != dirac(powerset("x", "z"), "x")
        assert dirac(xy, "x") != dirac(SigmaAlgebra.trivial(xy.universe), "x")
        assert dirac(xy, "x") == dirac(powerset("x", "y"), "x")

    def test_equal_measures_from_every_constructor_hash_equal(self):
        rng = random.Random(605)
        for _ in range(100):
            universe = rand_universe(rng)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            )
            mu = rand_measure(rng, sig)
            same = [
                Measure(sig, tuple(str(w) for w in weights(mu))),
                Measure.from_atom_weights(sig, dict(zip(sig.atoms, weights(mu)))),
                Measure.from_state_weights(sig, spread_over_states(mu)),
            ]
            for nu in same:
                assert nu == mu and hash(nu) == hash(mu)
            s = rng.choice(universe.states)
            point = Measure(sig, tuple(int(s in a) for a in sig.atoms))
            assert point == dirac(sig, s) and hash(point) == hash(dirac(sig, s))

    def test_measure_pickled_in_another_process_hashes_here(self, xyz):
        # the sigma-algebra's hash depends on per-process string hashing
        code = (
            "import pickle, sys\n"
            "from nlmp import SigmaAlgebra, Universe, dirac\n"
            "sig = SigmaAlgebra.powerset(Universe(('x', 'y', 'z')))\n"
            "sys.stdout.buffer.write(pickle.dumps(dirac(sig, 'y')))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
        ).stdout
        mu = pickle.loads(out)
        assert mu == dirac(xyz, "y") and mu in {dirac(xyz, "y")}


class TestMeasuresRelated:
    def test_reflexive(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(1, 3), "z": F(2, 3)})
        assert measures_related(mu, mu, xyz)

    def test_separated_on_powerset(self, xyz):
        nu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 4), "z": F(1, 4)})
        assert not measures_related(dirac(xyz, "x"), nu, xyz)

    def test_trivial_subalgebra_relates_everything(self, xyz):
        assert measures_related(
            dirac(xyz, "x"), dirac(xyz, "y"), SigmaAlgebra.trivial(xyz.universe)
        )


class TestSeparativity:
    def test_distinct_measures_get_separating_bound_on_an_atom(self):
        # constructive finite separativity: distinct measures differ on
        # some atom, and an inclusive bound at the larger value splits them
        rng = random.Random(204)
        for _ in range(150):
            universe = rand_universe(rng)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            )
            mu, nu = rand_measure(rng, sig), rand_measure(rng, sig)
            if mu == nu:
                continue
            witness = None
            for atom in sig.atoms:
                a, b = measure_eval(mu, atom), measure_eval(nu, atom)
                if a != b:
                    witness = (atom, BoundSpec.at_least(max(a, b)))
                    break
            assert witness is not None
            atom, bound = witness
            assert in_delta_set(mu, atom, bound) != in_delta_set(nu, atom, bound)


class TestTraceClasses:
    def test_distinct_profiles_make_singletons(self, xyz):
        pool = build_pool([dirac(xyz, "x"), dirac(xyz, "y"), dirac(xyz, "z")])
        classes = trace_classes(pool, xyz)
        assert sorted(len(c) for c in classes) == [1, 1, 1]

    def test_trivial_subalgebra_makes_one_class(self, xyz):
        pool = build_pool(
            [dirac(xyz, "x"), Measure.from_state_weights(xyz, {"y": F(1, 2), "z": F(1, 2)})]
        )
        classes = trace_classes(pool, SigmaAlgebra.trivial(xyz.universe))
        assert len(classes) == 1 and len(classes[0]) == 2

    def test_merge_when_subalgebra_cannot_distinguish(self):
        sig = powerset("x", "y", "z")
        pool = build_pool(
            [
                dirac(sig, "x"),
                dirac(sig, "y"),
                Measure.from_state_weights(sig, {"x": F(1, 2), "y": F(1, 2)}),
            ]
        )
        lam = SigmaAlgebra(sig.universe, (frozenset({"x", "y"}), frozenset({"z"})))
        classes = trace_classes(pool, lam)
        assert len(classes) == 1 and len(classes[0]) == 3

    def test_unions_of_classes_closed_under_lifted_relation(self):
        rng = random.Random(205)
        for _ in range(120):
            universe = rand_universe(rng)
            sig = SigmaAlgebra.powerset(universe)
            pool = build_pool(rand_measure(rng, sig) for _ in range(rng.randint(1, 5)))
            r = rand_symmetric_relation(rng, universe)
            sig_r = sigma_of_relation(sig, r)
            classes = trace_classes(pool, sig_r)
            for cls in classes:
                for mu in cls:
                    for nu in pool:
                        if measures_related(mu, nu, sig_r):
                            assert nu in cls

    def test_growing_relation_coarsens_classes(self):
        rng = random.Random(206)
        for _ in range(120):
            universe = rand_universe(rng)
            sig = SigmaAlgebra.powerset(universe)
            pool = build_pool(rand_measure(rng, sig) for _ in range(rng.randint(1, 5)))
            r2 = rand_symmetric_relation(rng, universe)
            kept = set()
            for p in r2.pairs:
                if rng.random() < 0.6:
                    kept.add(p)
                    kept.add((p[1], p[0]))
            r1 = type(r2)(universe, frozenset(kept))
            fine = trace_classes(pool, sigma_of_relation(sig, r1))
            coarse = trace_classes(pool, sigma_of_relation(sig, r2))
            for cls in fine:
                members = set(cls)
                assert any(members <= set(big) for big in coarse)

    def test_pool_deduplicates_by_exact_equality(self, xyz):
        mu = Measure.from_state_weights(xyz, {"x": F(2, 4), "y": F(1, 2)})
        nu = Measure.from_state_weights(xyz, {"x": F(1, 2), "y": F(1, 2)})
        m = Nlmp(xyz, ("a",), {("x", "a"): (mu,), ("y", "a"): (nu,)})
        assert m.pool == (mu,)
        assert m.pool_set == {nu}
        assert mu == nu


class TestConstruction:
    def test_state_weight_outside_unit_interval_rejected(self):
        # each atom total lies in [0, 1] and the totals sum to 1
        sig = SigmaAlgebra(Universe(("x", "y", "z")), (frozenset({"x", "y"}), frozenset({"z"})))
        for by_state in ({"x": F(3, 2), "y": F(-1, 2)}, {"x": F(-1, 2), "y": F(1, 2), "z": F(1)}):
            with pytest.raises(DomainError):
                Measure.from_state_weights(sig, by_state)
        assert Measure.from_state_weights(sig, {"x": F(1, 2), "y": F(1, 2)}) == dirac(sig, "x")

    def test_atom_weights_outside_unit_interval_or_not_summing_to_one_rejected(self):
        xy = powerset("x", "y")
        for weights in ((F(3, 2), F(-1, 2)), (F(1, 2), F(1, 4)), (F(1),), (1, 0, 0)):
            with pytest.raises(DomainError):
                Measure(xy, weights)
        with pytest.raises(DomainError):
            Measure.from_atom_weights(xy, {frozenset({"x"}): F(3, 2), frozenset({"y"}): F(-1, 2)})

    def test_unknown_states_and_atoms_rejected(self, xyz):
        with pytest.raises(DomainError):
            Measure.from_state_weights(xyz, {"nope": F(1)})
        for key in (frozenset({"x", "y"}), frozenset({"nope"}), frozenset()):
            with pytest.raises(DomainError):
                Measure.from_atom_weights(xyz, {key: F(1)})

    def test_unprintable_rationals_are_domain_errors(self):
        # Past Python's default int-string limit str() refuses these
        # rationals; each constructor still names the fault.
        xy = powerset("x", "y")
        huge = F(10**4400)
        with pytest.raises(DomainError, match="state 'x' weight a rational too long to print"):
            Measure.from_state_weights(xy, {"x": huge})
        with pytest.raises(DomainError, match="atom weight a rational too long to print"):
            Measure(xy, (huge, 0))
        with pytest.raises(DomainError, match="atom weights sum to a rational too long to print"):
            Measure(xy, (F(1, 10**4400), F(1, 3)))

    def test_exact_sum_is_the_fraction_sum(self):
        # The validator adds integer numerators over one denominator; it
        # accepts exactly the weights whose Fraction sum is 1 and names
        # that sum otherwise.  States of one atom share their numerators.
        rng = random.Random(4100)
        sig = SigmaAlgebra(
            Universe(tuple("abcdef")), (frozenset("ab"), frozenset("c"), frozenset("def"))
        )
        for _ in range(300):
            ws = [F(rng.randint(0, 30), rng.randint(1, 30)) for _ in range(rng.randint(0, 6))]
            total = sum(ws, F(0))
            if total and rng.random() < 0.5:
                ws, total = [w / total for w in ws], F(1)
            by_state = dict(zip("abcdef", ws))
            den = rng.randint(1, 30)
            nums = [rng.randint(0, den) for _ in sig.atoms]
            nums[-1] = max(0, den - sum(nums[:-1])) if rng.random() < 0.5 else nums[-1]
            by_atom = [sum((w for x, w in by_state.items() if x in a), F(0)) for a in sig.atoms]
            if any(w > 1 for w in ws):
                with pytest.raises(DomainError, match="^state '.' weight .* outside"):
                    Measure.from_state_weights(sig, by_state)
            elif any(w > 1 for w in by_atom):
                with pytest.raises(DomainError, match="^atom weight .* outside"):
                    Measure.from_state_weights(sig, by_state)
            elif total != 1:
                with pytest.raises(DomainError, match=f"^atom weights sum to {total}, expected 1$"):
                    Measure.from_state_weights(sig, by_state)
            else:
                mu = Measure.from_state_weights(sig, by_state)
                assert weights(mu) == tuple(by_atom)
                assert sum(n for _, n in mu.nums) == mu.den
            int_total = F(sum(nums), den)
            if int_total != 1:
                with pytest.raises(DomainError, match=f"^atom weights sum to {int_total}, expected 1$"):
                    Measure._of(sig, den, enumerate(nums))
            else:
                mu = Measure._of(sig, den, enumerate(nums))
                assert weights(mu) == tuple(F(n, den) for n in nums)

    def test_measures_are_immutable(self, xyz):
        mu = dirac(xyz, "x")
        with pytest.raises(AttributeError):
            mu.nums = ()
        with pytest.raises(AttributeError):
            mu.den = 2


def random_state_split(rng: random.Random, mu: Measure) -> dict:
    """mu's weights split at random over the states of each atom."""
    by_state = {}
    for i, w in support(mu):
        states = sorted(mu.sigma.atoms[i])
        raw = [rng.randint(0, 3) for _ in states]
        if not any(raw):
            raw[rng.randrange(len(raw))] = 1
        for s, r in zip(states, raw):
            if r or rng.random() < 0.5:  # zero weights may be given or left out
                by_state[s] = w * F(r, sum(raw))
    return by_state


class TestSparseForm:
    def test_sparse_and_dense_constructors_agree(self):
        rng = random.Random(2101)
        for i in range(150):
            universe = rand_universe(rng, max_states=6)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            ) if i % 2 else SigmaAlgebra.powerset(universe)
            lam = rand_coarsening(rng, sig)
            dense = [rand_measure(rng, sig) for _ in range(rng.randint(1, 5))]
            dense.append(Measure(sig, tuple(int(k == 0) for k in range(len(sig.atoms)))))
            built = []
            for mu in dense:
                forms = [
                    Measure.from_atom_weights(sig, {sig.atoms[k]: w for k, w in support(mu)}),
                    Measure.from_state_weights(sig, random_state_split(rng, mu)),
                    pickle.loads(pickle.dumps(mu)),
                ]
                if mu.is_dirac:
                    forms.append(dirac(sig, rng.choice(sorted(scan_dirac_atom(mu)))))
                for nu in forms:
                    assert nu == mu and hash(nu) == hash(mu)
                    assert support(nu) == support(mu) and weights(nu) == weights(mu)
                    assert (scan_dirac_atom(nu), nu.is_dirac) == (scan_dirac_atom(mu), mu.is_dirac)
                    assert profile(nu, lam) == dense_profile(mu, lam)
                    for q in measurable_sets(sig):
                        assert nu.value(q) == measure_eval(mu, q) == dense_value(mu, q)
                built.append(rng.choice(forms))
            # rows are ordered as the dense weight vectors would be
            rng.shuffle(built)
            m = Nlmp(sig, ("a",), {(universe.states[0], "a"): built})
            expected = sorted(build_pool(dense), key=weights)
            assert [weights(nu) for nu in m.row(universe.states[0], "a")] == [
                weights(mu) for mu in expected
            ]

    def test_every_route_stores_the_reduced_integers_of_the_fraction_oracle(self):
        # 300 measures, each built by every constructor, pickle and the
        # parser (weights written unreduced, states sharing atoms): all
        # store one (den, nums), the oracle's weights over their lcm.
        rng = random.Random(2401)
        for i in range(300):
            universe = rand_universe(rng, max_states=6)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            ) if i % 2 else SigmaAlgebra.powerset(universe)
            dense = rand_weights(rng, len(sig.atoms))  # the Fraction oracle
            den = lcm(*[w.denominator for w in dense])
            nums = tuple((k, w.numerator * (den // w.denominator)) for k, w in enumerate(dense) if w)
            by_state = random_state_split(rng, Measure(sig, dense))
            text = "\n".join([
                "states " + " ".join(universe.states),
                "labels a",
                "sigma gen " + " ".join("{" + " ".join(sorted(a)) + "}" for a in sig.atoms),
                f"trans {universe.states[0]} a "
                + " ".join(f"{s}:{w.numerator * k}/{w.denominator * k}"
                           for s, w in by_state.items() for k in [rng.randint(1, 3)]),
            ])
            forms = [
                Measure(sig, dense),
                Measure(sig, tuple(str(w) for w in dense)),
                Measure.from_atom_weights(sig, {sig.atoms[k]: w for k, w in enumerate(dense) if w}),
                Measure.from_state_weights(sig, by_state),
                parse_model(text).row(universe.states[0], "a")[0],
            ]
            forms.append(pickle.loads(pickle.dumps(forms[-1])))
            if len(nums) == 1:
                forms.append(dirac(sig, rng.choice(sorted(sig.atoms[nums[0][0]]))))
            lam = rand_coarsening(rng, sig)
            for mu in forms:
                assert (mu.den, mu.nums) == (den, nums) and hash(mu) == hash(forms[0])
                assert mu == forms[0] and mu.sigma == sig
                assert weights(mu) == dense
                assert support(mu) == tuple((k, w) for k, w in enumerate(dense) if w)
                assert profile(mu, lam) == dense_profile(mu, lam)
                for q in measurable_sets(sig):
                    assert mu.value(q) == dense_value(mu, q) == measure_eval(mu, q)

    def test_trace_classes_group_as_dense_profiles(self):
        rng = random.Random(2402)
        for i in range(300):
            m = rand_valid_nlmp(rng, max_states=6, coarse=i % 2 == 1)
            for lam in (m.sigma, rand_coarsening(rng, m.sigma)):
                assert trace_classes(m.pool, lam) == dense_trace_classes(m.pool, lam)

    def test_point_masses_on_many_atoms_store_only_their_support(self):
        # Stored: the denominator and one tuple of (atom index,
        # numerator) pairs, as long as the support.
        sig = SigmaAlgebra.powerset(Universe(tuple(f"s{i}" for i in range(10_000))))
        measures = {
            (1, ((7_777, 1),)): dirac(sig, "s7777"),
            (3, ((3, 1), (9_000, 2))): Measure.from_state_weights(
                sig, {"s9000": F(2, 3), "s3": F(1, 3)}
            ),
            (1, ((42, 1),)): Measure.from_atom_weights(sig, {frozenset({"s42"}): F(1)}),
        }
        for (den, nums), mu in measures.items():
            assert not hasattr(mu, "__dict__")
            assert mu.sigma is sig and mu.den == den and mu.nums == nums
            stored = [getattr(mu, name) for name in type(mu).__slots__]
            assert [x for x in stored if isinstance(x, tuple)] == [nums]
            assert len(nums) == len(support(mu))
            assert support(mu) == tuple((i, F(n, den)) for i, n in nums)
            assert len(weights(mu)) == 10_000 and sum(weights(mu)) == 1
