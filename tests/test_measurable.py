import random

import pytest

from nlmp import (
    DomainError,
    Lmp,
    PreconditionError,
    Relation,
    SigmaAlgebra,
    Universe,
    dirac,
    relation_of_sigma,
    sigma_generate,
    sigma_is_sub,
    sigma_of_relation,
)
from support import (
    all_atoms_is_measurable,
    classes,
    closure_family,
    family_atoms,
    from_pairs,
    identity_relation,
    is_equivalence,
    is_r_closed,
    measurable_family,
    measurable_sets,
    quadratic_sigma_is_sub,
    rand_coarsening,
    rand_partition,
    rand_symmetric_relation,
    rand_universe,
    rand_valid_nlmp,
    rclosed_family,
    scan_atom_index,
    subalgebras,
    total_relation,
    tuple_index,
)


def atoms_as_sets(sigma):
    return sorted(sorted(a) for a in sigma.atoms)


def u(*names):
    return Universe(tuple(names))


class TestRefusals:
    """Each constructor refuses a structure with one fault, with one
    message per fault."""

    @pytest.mark.parametrize(
        "atoms, message",
        [
            (({"s"}, set(), {"t", "x"}), "sigma-algebra atoms must be non-empty"),
            (({"s", "t"}, {"t", "x"}), "sigma-algebra atoms must be disjoint"),
            (({"s"}, {"x"}), "sigma-algebra atoms must cover the universe"),
            (({"s"}, {"t", "x"}, {"y"}), "sigma-algebra atoms must cover the universe"),
        ],
        ids=["empty", "overlap", "gap", "outside"],
    )
    def test_sigma_algebra_with_one_fault(self, atoms, message):
        with pytest.raises(DomainError) as exc:
            SigmaAlgebra(u("s", "t", "x"), tuple(map(frozenset, atoms)))
        assert str(exc.value) == message

    def test_empty_universe(self):
        with pytest.raises(DomainError) as exc:
            Universe(())
        assert str(exc.value) == "universe must be non-empty"

    def test_lmp_with_a_missing_kernel(self):
        sig = SigmaAlgebra.powerset(u("s", "t"))
        kernels = {("s", "a"): dirac(sig, "t"), ("t", "b"): dirac(sig, "s")}
        with pytest.raises(DomainError) as exc:
            Lmp(sig, ("a", "b"), kernels)
        assert str(exc.value) == "deterministic model is missing the transition for (s, b)"


class TestSigmaGenerate:
    def test_no_generators_gives_trivial(self):
        sig = sigma_generate(u("1", "2", "3"), [])
        assert atoms_as_sets(sig) == [["1", "2", "3"]]

    def test_two_overlapping_generators_split_to_singletons(self):
        # oracle: closing {1,2} and {2,3} under complement and union
        # yields every singleton as a minimal set
        universe = u("1", "2", "3", "4")
        gens = [frozenset({"1", "2"}), frozenset({"2", "3"})]
        sig = sigma_generate(universe, gens)
        oracle = family_atoms(closure_family(universe, gens), universe)
        assert frozenset(sig.atoms) == oracle
        assert atoms_as_sets(sig) == [["1"], ["2"], ["3"], ["4"]]

    def test_single_generator_pairs_with_complement(self):
        universe = u("1", "2", "3", "4")
        gens = [frozenset({"1", "2"})]
        sig = sigma_generate(universe, gens)
        oracle = family_atoms(closure_family(universe, gens), universe)
        assert frozenset(sig.atoms) == oracle
        assert atoms_as_sets(sig) == [["1", "2"], ["3", "4"]]

    def test_matches_closure_oracle_on_random_generator_sets(self):
        rng = random.Random(101)
        for _ in range(150):
            universe = rand_universe(rng)
            # up to 8 generators: random halves, some empty, some repeats
            gens = []
            for _ in range(rng.randint(0, 8)):
                r = rng.random()
                if gens and r < 0.2:
                    gens.append(rng.choice(gens))
                elif r < 0.3:
                    gens.append(frozenset())
                else:
                    gens.append(frozenset(s for s in universe if rng.random() < 0.5))
            sig = sigma_generate(universe, gens)
            family = closure_family(universe, gens)
            assert frozenset(sig.atoms) == family_atoms(family, universe)
            # the measurable sets are exactly the closure of the generators
            assert measurable_family(sig) == family

    def test_idempotent_on_its_own_atoms(self):
        rng = random.Random(102)
        for _ in range(100):
            universe = rand_universe(rng)
            gens = [frozenset(s for s in universe if rng.random() < 0.5) for _ in range(2)]
            sig = sigma_generate(universe, gens)
            assert sigma_generate(universe, sig.atoms) == sig

    def test_generator_outside_universe_rejected(self):
        with pytest.raises(DomainError):
            sigma_generate(u("1", "2"), [frozenset({"1", "9"})])
        # the first generator that leaves the universe is the one named
        with pytest.raises(DomainError, match="'8'"):
            sigma_generate(u("1", "2"), [frozenset({"1"}), frozenset({"8"}), frozenset({"9"})])


class TestIsMeasurable:
    def test_atom_is_measurable(self):
        sig = SigmaAlgebra(u("1", "2", "3", "4"), (frozenset("12"), frozenset("34")))
        assert sig.is_measurable({"1", "2"})

    def test_split_atom_is_not(self):
        sig = SigmaAlgebra(u("1", "2", "3", "4"), (frozenset("12"), frozenset("34")))
        assert not sig.is_measurable({"1"})

    def test_empty_set_is_measurable(self):
        sig = SigmaAlgebra(u("1", "2", "3", "4"), (frozenset("12"), frozenset("34")))
        assert sig.is_measurable(frozenset())

    def test_outside_universe_rejected(self):
        sig = SigmaAlgebra.powerset(u("1", "2"))
        with pytest.raises(DomainError):
            sig.is_measurable({"9"})

    def test_agrees_with_testing_every_atom(self):
        rng = random.Random(701)
        for i in range(150):
            sig = rand_valid_nlmp(rng, max_states=6, coarse=i % 2 == 1).sigma
            states = list(sig.universe)
            for _ in range(10):
                q = frozenset(s for s in states if rng.random() < 0.5)
                assert sig.is_measurable(q) == all_atoms_is_measurable(sig, q)
            for tester in (sig.is_measurable, lambda q: all_atoms_is_measurable(sig, q)):
                with pytest.raises(DomainError):
                    tester({states[0], "nope"})


class TestIsRClosed:
    def test_class_contained(self):
        r = from_pairs(u("1", "2", "3"), [("1", "2"), ("2", "1")])
        assert is_r_closed(r, {"1", "2"})

    def test_image_escapes(self):
        r = from_pairs(u("1", "2", "3"), [("1", "2"), ("2", "1")])
        assert not is_r_closed(r, {"1"})

    def test_empty_relation_closes_everything(self):
        r = from_pairs(u("1", "2", "3"), [])
        for q in ({"1"}, {"2", "3"}, set()):
            assert is_r_closed(r, q)


class TestSigmaOfRelation:
    def test_powerset_merges_related_pair(self):
        universe = u("1", "2", "3", "4")
        sig = SigmaAlgebra.powerset(universe)
        r = from_pairs(universe, [("1", "2"), ("2", "1")])
        out = sigma_of_relation(sig, r)
        # oracle: filter all 16 subsets by r-closedness, then atomize
        oracle = rclosed_family(sig, r)
        assert measurable_family(out) == oracle
        assert atoms_as_sets(out) == [["1", "2"], ["3"], ["4"]]

    def test_cross_atom_pair_collapses_to_trivial(self):
        universe = u("1", "2", "3", "4")
        sig = SigmaAlgebra(universe, (frozenset("12"), frozenset("34")))
        r = from_pairs(universe, [("2", "3"), ("3", "2")])
        out = sigma_of_relation(sig, r)
        assert atoms_as_sets(out) == [["1", "2", "3", "4"]]

    def test_empty_relation_is_identity_operation(self):
        rng = random.Random(103)
        for _ in range(50):
            universe = rand_universe(rng)
            sig = sigma_generate(
                universe, [frozenset(s for s in universe if rng.random() < 0.5)]
            )
            r = from_pairs(universe, [])
            assert sigma_of_relation(sig, r) == sig

    def test_matches_filter_oracle_on_random_inputs(self):
        rng = random.Random(104)
        for _ in range(150):
            universe = rand_universe(rng)
            sig = SigmaAlgebra(
                universe,
                tuple(frozenset(b) for b in rand_partition(rng, list(universe))),
            )
            r = rand_symmetric_relation(rng, universe)
            out = sigma_of_relation(sig, r)
            assert measurable_family(out) == rclosed_family(sig, r)

    def test_asymmetric_relation_rejected(self):
        universe = u("1", "2")
        sig = SigmaAlgebra.powerset(universe)
        with pytest.raises(PreconditionError):
            sigma_of_relation(sig, from_pairs(universe, [("1", "2")]))

    def test_universe_mismatch_rejected(self):
        sig = SigmaAlgebra.powerset(u("1", "2"))
        r = from_pairs(u("1", "2", "3"), [])
        with pytest.raises(DomainError):
            sigma_of_relation(sig, r)


class TestRelationOfSigma:
    def test_atoms_are_the_inseparability_classes(self):
        sig = SigmaAlgebra(u("1", "2", "3", "4"), (frozenset("12"), frozenset("34")))
        r = relation_of_sigma(sig)
        assert is_equivalence(r)
        assert [sorted(c) for c in classes(r)] == [["1", "2"], ["3", "4"]]

    def test_powerset_gives_identity(self):
        universe = u("1", "2", "3")
        r = relation_of_sigma(SigmaAlgebra.powerset(universe))
        assert r.pairs == identity_relation(universe).pairs

    def test_trivial_gives_total(self):
        universe = u("1", "2", "3")
        r = relation_of_sigma(SigmaAlgebra.trivial(universe))
        assert r.pairs == total_relation(universe).pairs


class TestSigmaIsSub:
    def test_trivial_below_powerset(self):
        universe = u("1", "2")
        assert sigma_is_sub(SigmaAlgebra.trivial(universe), SigmaAlgebra.powerset(universe))

    def test_powerset_not_below_trivial(self):
        universe = u("1", "2")
        assert not sigma_is_sub(SigmaAlgebra.powerset(universe), SigmaAlgebra.trivial(universe))

    def test_coarsening_is_sub(self):
        universe = u("1", "2", "3", "4")
        lam = SigmaAlgebra(universe, (frozenset("12"), frozenset("34")))
        sig = SigmaAlgebra(universe, (frozenset("12"), frozenset("3"), frozenset("4")))
        assert sigma_is_sub(lam, sig)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(DomainError):
            sigma_is_sub(SigmaAlgebra.powerset(u("1")), SigmaAlgebra.powerset(u("1", "2")))

    def test_agrees_with_quadratic_oracle_on_random_models(self):
        rng = random.Random(601)
        for _ in range(200):
            sig = rand_valid_nlmp(rng, max_states=6, coarse=rng.random() < 0.5).sigma
            coarser = rand_coarsening(rng, sig)
            other = SigmaAlgebra(
                sig.universe, tuple(frozenset(b) for b in rand_partition(rng, list(sig.universe)))
            )
            assert sigma_is_sub(coarser, sig)
            for lam, big in ((coarser, sig), (sig, coarser), (other, sig), (sig, other)):
                assert sigma_is_sub(lam, big) == quadratic_sigma_is_sub(lam, big)

    def test_every_sigma_algebra_is_sub_of_the_powerset(self):
        # The powerset answer is True without a walk; brute force agrees:
        # every lam-measurable set is measurable in the powerset.
        rng = random.Random(602)
        for _ in range(200):
            universe = rand_universe(rng, max_states=7)
            lam = SigmaAlgebra(universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe))))
            powerset = SigmaAlgebra.powerset(universe)
            brute = all(all_atoms_is_measurable(powerset, q) for q in measurable_sets(lam))
            assert brute and sigma_is_sub(lam, powerset) is True
            with pytest.raises(DomainError):
                sigma_is_sub(lam, SigmaAlgebra.powerset(Universe(universe.states + ("extra",))))


class TestIndices:
    def test_agree_with_tuple_search_and_atom_scan(self):
        rng = random.Random(602)
        for _ in range(100):
            sig = rand_valid_nlmp(rng, max_states=6, coarse=True).sigma
            for s in sig.universe:
                assert sig.universe.index(s) == tuple_index(sig.universe, s)
                assert sig.atom_index(s) == scan_atom_index(sig, s)

    def test_unknown_state_rejected(self):
        sig = SigmaAlgebra(u("1", "2", "3"), (frozenset("12"), frozenset("3")))
        for lookup in (sig.universe.index, sig.atom_index):
            with pytest.raises(DomainError):
                lookup("4")
        assert "4" not in sig.universe


class TestRelationSigmaInterplay:
    def test_larger_relation_closes_fewer_sets(self):
        # for symmetric r1 <= r2, every r2-closed measurable set is
        # r1-closed, so the r2 side is a sub-sigma-algebra of the r1 side
        rng = random.Random(105)
        for _ in range(150):
            universe = rand_universe(rng)
            sig = SigmaAlgebra.powerset(universe)
            r2 = rand_symmetric_relation(rng, universe)
            kept = set()
            for p in r2.pairs:
                if rng.random() < 0.6:
                    kept.add(p)
                    kept.add((p[1], p[0]))
            r1 = Relation(universe, frozenset(kept))
            assert sigma_is_sub(sigma_of_relation(sig, r2), sigma_of_relation(sig, r1))

    def test_subalgebra_recovered_from_its_inseparability_relation(self):
        rng = random.Random(106)
        for _ in range(100):
            universe = rand_universe(rng)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            )
            for lam in subalgebras(sig):
                assert sigma_is_sub(lam, sigma_of_relation(sig, relation_of_sigma(lam)))

    def test_relation_grows_through_closure(self):
        rng = random.Random(107)
        for _ in range(150):
            universe = rand_universe(rng)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            )
            r = rand_symmetric_relation(rng, universe)
            assert r.pairs <= relation_of_sigma(sigma_of_relation(sig, r)).pairs

    def test_equivalences_with_measurable_classes_are_recovered(self):
        rng = random.Random(108)
        for _ in range(100):
            universe = rand_universe(rng)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            )
            # merge atoms into classes, so every class is measurable
            merged = rand_partition(rng, list(range(len(sig.atoms))))
            blocks = [
                frozenset().union(*(sig.atoms[i] for i in block)) for block in merged
            ]
            r = Relation.from_partition(universe, blocks)
            assert relation_of_sigma(sigma_of_relation(sig, r)).pairs == r.pairs

    def test_closure_round_trips_stabilize(self):
        rng = random.Random(109)
        for _ in range(100):
            universe = rand_universe(rng, 4)
            sig = SigmaAlgebra(
                universe, tuple(frozenset(b) for b in rand_partition(rng, list(universe)))
            )
            for lam in subalgebras(sig):
                lhs = relation_of_sigma(lam)
                rhs = relation_of_sigma(sigma_of_relation(sig, relation_of_sigma(lam)))
                assert lhs.pairs == rhs.pairs
            r = rand_symmetric_relation(rng, universe)
            once = sigma_of_relation(sig, r)
            twice = sigma_of_relation(sig, relation_of_sigma(once))
            assert once == twice
