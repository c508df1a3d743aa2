import json
import operator
import random
from fractions import Fraction as F
from itertools import islice

import pytest

import nlmp.bisim
import support
from nlmp import (
    DiamondMulti,
    Nlmp,
    PreconditionError,
    Relation,
    SigmaAlgebra,
    Universe,
    Measure,
    compare_bisims,
    corpus_dir,
    dirac,
    distinguish,
    is_event_bisim,
    is_state_bisim,
    is_traditional_bisim,
    largest_state,
    largest_traditional,
    logical_equivalence,
    nlmp_validate,
    parse_model,
    profile,
    relation_of_sigma,
    sigma_is_sub,
    sigma_of_relation,
    smallest_stable_sigma,
)
from support import (
    all_equivalences,
    compose,
    event_bisim_direct,
    event_signature,
    from_pairs,
    identity_relation,
    is_equivalence,
    lmp_bisimilarity,
    np_reach_model,
    np_state_check,
    np_state_direct,
    np_traditional_check,
    profile_signature,
    rand_lmp,
    rand_symmetric_relation,
    rand_valid_nlmp,
    refinement_under,
    state_bisim_direct,
    state_signature,
    subalgebras,
    total_relation,
    two_bounds_model,
    two_bounds_measures,
    uniform_rows_model,
    union,
)
from test_golden import GOLDEN, run_case


def sym_with_identity(universe, *pairs):
    everything = {(s, s) for s in universe}
    for s, t in pairs:
        everything.add((s, t))
        everything.add((t, s))
    return Relation(universe, frozenset(everything))


def blocks(partition):
    return sorted(sorted(b) for b in partition)


def point_chain(steps, rng=None) -> Nlmp:
    """The powerset point-mass chain c0 -> c1 -> ... -> cn, step i under
    label steps[i]; with rng, about a third of the states also get a
    half-and-half measure on their successor and a random state, so
    blocks split unevenly."""
    universe = Universe(tuple(f"c{i}" for i in range(len(steps) + 1)))
    sigma = SigmaAlgebra.powerset(universe)
    rows = {}
    for i, a in enumerate(steps):
        row = [dirac(sigma, f"c{i + 1}")]
        if rng is not None and rng.random() < 0.3:
            other = rng.choice(universe.states)
            if other != f"c{i + 1}":
                row.append(Measure.from_state_weights(sigma, {f"c{i + 1}": F(1, 2), other: F(1, 2)}))
        rows[(f"c{i}", a)] = row
    return Nlmp(sigma, tuple(sorted(set(steps))), rows)


def outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestTraditionalCheck:
    def test_identity_always_accepted(self):
        rng = random.Random(401)
        for _ in range(30):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            assert is_traditional_bisim(m, identity_relation(m.universe))

    def test_two_bounds_pair_rejected_with_extra_measure_witness(self):
        m = two_bounds_model()
        _, _, mu3 = two_bounds_measures(m)
        result = is_traditional_bisim(m, sym_with_identity(m.universe, ("s", "t")))
        assert not result
        assert result.witness.measure == mu3
        assert {result.witness.s, result.witness.t} == {"s", "t"}

    def test_total_relation_accepted_on_silent_model(self):
        u = Universe(("1", "2", "3"))
        m = Nlmp(SigmaAlgebra.powerset(u), ("a",), {})
        assert is_traditional_bisim(m, total_relation(u))

    def test_asymmetric_candidate_rejected(self):
        m = two_bounds_model()
        r = Relation(m.universe, frozenset({("s", "t")}))
        with pytest.raises(PreconditionError):
            is_traditional_bisim(m, r)


class TestStateCheck:
    def test_identity_always_accepted(self):
        rng = random.Random(402)
        for _ in range(30):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            assert is_state_bisim(m, identity_relation(m.universe))

    def test_two_bounds_pair_rejected_with_class_witness(self):
        m = two_bounds_model()
        _, _, mu3 = two_bounds_measures(m)
        result = is_state_bisim(m, sym_with_identity(m.universe, ("s", "t")))
        assert not result
        assert mu3 in result.witness.xi

    def test_point_mass_model_coarse_equivalence(self):
        m = np_reach_model(True)
        r = sym_with_identity(m.universe, ("s", "t"), ("u", "v"))
        assert is_state_bisim(m, r)
        assert np_state_check(m, r)

    def test_direct_and_profile_methods_agree(self):
        rng = random.Random(403)
        for _ in range(60):
            m = rand_valid_nlmp(rng, max_states=4, max_row=2, coarse=rng.random() < 0.5)
            r = rand_symmetric_relation(rng, m.universe)
            assert bool(is_state_bisim(m, r)) == state_bisim_direct(m, r)


class TestEventCheck:
    def test_own_sigma_algebra_accepted_on_valid_models(self):
        rng = random.Random(404)
        for _ in range(30):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            assert is_event_bisim(m, m.sigma)

    def test_enabledness_difference_fails_trivial_sigma(self):
        u = Universe(("s", "t"))
        sig = SigmaAlgebra.powerset(u)
        m = Nlmp(sig, ("a",), {("s", "a"): (dirac(sig, "s"),)})
        result = is_event_bisim(m, SigmaAlgebra.trivial(u))
        assert not result
        assert set(result.witness.xi) == set(m.pool)
        assert result.witness.preimage == frozenset({"s"})

    def test_identical_rows_accept_trivial_sigma(self):
        m = uniform_rows_model()
        assert is_event_bisim(m, SigmaAlgebra.trivial(m.universe))

    def test_not_a_subalgebra_rejected(self):
        u = Universe(("s", "t", "x"))
        sig = SigmaAlgebra(u, (frozenset({"s", "t"}), frozenset({"x"})))
        m = Nlmp(sig, ("a",), {("s", "a"): (dirac(sig, "x"),), ("t", "a"): (dirac(sig, "x"),)})
        with pytest.raises(PreconditionError):
            is_event_bisim(m, SigmaAlgebra.powerset(u))

    def test_classes_and_direct_methods_agree(self):
        rng = random.Random(405)
        for _ in range(60):
            m = rand_valid_nlmp(rng, max_states=4, max_row=2, coarse=rng.random() < 0.5)
            for lam in subalgebras(m.sigma):
                assert bool(is_event_bisim(m, lam)) == event_bisim_direct(m, lam)


class TestLargestTraditional:
    def test_two_bounds_model_fully_separated(self):
        m = two_bounds_model()
        assert blocks(largest_traditional(m).partition) == [["s"], ["t"], ["x"], ["y"], ["z"]]

    def test_matches_enumeration_of_all_equivalences(self):
        # oracle: the union of every equivalence accepted by the checker
        m = two_bounds_model()
        union = set()
        for r in all_equivalences(m.universe):
            if is_traditional_bisim(m, r):
                union |= r.pairs
        assert union == set(largest_traditional(m).relation.pairs)

    def test_isomorphic_disconnected_copies_are_related(self):
        u = Universe(("c1", "c2", "other"))
        sig = SigmaAlgebra.powerset(u)
        m = Nlmp(
            sig,
            ("a", "b"),
            {
                ("c1", "a"): (dirac(sig, "c1"),),
                ("c2", "a"): (dirac(sig, "c2"),),
                ("other", "b"): (dirac(sig, "other"),),
            },
        )
        rep = largest_traditional(m)
        assert ("c1", "c2") in rep.relation

    def test_embedded_deterministic_model_matches_independent_fixpoint(self):
        rng = random.Random(406)
        for _ in range(40):
            l = rand_lmp(rng, coarse=rng.random() < 0.5)
            oracle = lmp_bisimilarity(l)
            rep = largest_traditional(l)
            assert rep.relation.pairs == oracle.pairs


class TestLargestState:
    def test_two_bounds_model_matches_traditional(self):
        m = two_bounds_model()
        assert largest_state(m).partition == largest_traditional(m).partition

    def test_contains_identity(self):
        rng = random.Random(407)
        for _ in range(30):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            assert identity_relation(m.universe).pairs <= largest_state(m).relation.pairs

    def test_identical_rows_collapse_to_total(self):
        m = uniform_rows_model()
        assert largest_state(m).relation.pairs == total_relation(m.universe).pairs

    def test_result_is_accepted_equivalence_containing_all_accepted(self):
        rng = random.Random(408)
        for _ in range(25):
            m = rand_valid_nlmp(rng, max_states=4, coarse=rng.random() < 0.5)
            rep = largest_state(m)
            assert is_equivalence(rep.relation)
            assert is_state_bisim(m, rep.relation)
            for r in all_equivalences(m.universe):
                if is_state_bisim(m, r):
                    assert r.pairs <= rep.relation.pairs


class TestSmallestStableSigma:
    def test_two_bounds_model_reaches_powerset(self):
        m = two_bounds_model()
        rep = smallest_stable_sigma(m)
        assert rep.sigma.is_powerset
        assert blocks(rep.partition) == [["s"], ["t"], ["x"], ["y"], ["z"]]

    def test_identical_rows_stay_trivial(self):
        m = uniform_rows_model()
        rep = smallest_stable_sigma(m)
        assert rep.sigma == SigmaAlgebra.trivial(m.universe)
        assert rep.relation.pairs == total_relation(m.universe).pairs

    def test_enabledness_separates_at_first_iteration(self):
        u = Universe(("s", "t", "w"))
        sig = SigmaAlgebra.powerset(u)
        m = Nlmp(sig, ("a",), {("s", "a"): (dirac(sig, "w"),)})
        rep = smallest_stable_sigma(m)
        assert frozenset({"s"}) in rep.trace[1]

    def test_result_is_stable_and_minimal_by_enumeration(self):
        rng = random.Random(409)
        for _ in range(25):
            m = rand_valid_nlmp(rng, max_states=4, coarse=rng.random() < 0.5)
            rep = smallest_stable_sigma(m)
            assert is_event_bisim(m, rep.sigma)
            for lam in subalgebras(m.sigma):
                if is_event_bisim(m, lam):
                    assert sigma_is_sub(rep.sigma, lam)


class TestCompare:
    def test_two_bounds_model_all_equal(self):
        comparison = compare_bisims(two_bounds_model())
        assert comparison.all_equal and comparison.chain_holds

    def test_embedded_deterministic_model_all_equal_and_matches_oracle(self):
        rng = random.Random(410)
        l = rand_lmp(rng, coarse=False)
        comparison = compare_bisims(l)
        assert comparison.all_equal
        assert comparison.traditional.relation.pairs == lmp_bisimilarity(l).pairs

    def test_single_state_model_total(self):
        u = Universe(("only",))
        m = Nlmp(SigmaAlgebra.powerset(u), ("a",), {})
        comparison = compare_bisims(m)
        assert comparison.all_equal
        assert comparison.traditional.partition == (frozenset({"only"}),)

    def test_cli_reports_never_build_a_pair_set(self, monkeypatch):
        # Every fixpoint keeps its sigma-algebra: `bisim --kind all` and
        # `distinguish` print their pinned reports without building the
        # related pairs, and the three fixpoints share one partition.
        def refuse(*args):
            raise AssertionError("a pair set was built")

        monkeypatch.setattr(Relation, "from_partition", refuse)
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        cases = [key for key in golden if key.split()[0] in ("bisim", "distinguish")]
        assert any(key.endswith("--kind all") for key in cases)
        assert any(key.startswith("distinguish") for key in cases)
        for key in cases:
            assert run_case(key.split()) == golden[key], key
        for path in sorted(corpus_dir().glob("*.nlmp")):
            m = parse_model(path.read_text(encoding="utf-8"))
            if not nlmp_validate(m).valid:
                continue
            comparison = compare_bisims(m)
            assert comparison.traditional.partition is comparison.state.partition
            assert comparison.state.partition is comparison.event.partition

    def test_invalid_model_rejected(self):
        u = Universe(("s", "t", "x"))
        sig = SigmaAlgebra(u, (frozenset({"s", "t"}), frozenset({"x"})))
        m = Nlmp(sig, ("a",), {("s", "a"): (dirac(sig, "x"),)})
        with pytest.raises(PreconditionError):
            compare_bisims(m)


class TestRefinement:
    def test_state_and_event_signatures_split_like_the_traditional_one(self):
        # The library splits blocks by the traditional signature only;
        # the state and event signatures, kept here as oracles, must give
        # the same rounds: the same lam, the same splits, the same
        # sub-block order.
        rng = random.Random(1701)
        for i in range(1200):
            m = rand_valid_nlmp(rng, max_states=6, coarse=i % 2 == 1, dirac_only=i % 3 == 0)
            kept = [
                (lam.atoms, [[list(b) for b in subs] for subs in splits])
                for lam, _, splits in nlmp.bisim.refinement(m)
            ]
            assert refinement_under(m, nlmp.bisim.traditional_signature) == kept
            assert refinement_under(m, profile_signature) == kept
            assert refinement_under(m, state_signature) == kept
            assert refinement_under(m, event_signature) == kept

    def test_long_refinements_match_the_oracle(self):
        # Many rounds, so most blocks are carried over from earlier rounds
        # and most are singletons by the end: the one-label chain of 40
        # states splits off one state per round and has 40 rounds.
        one_label = point_chain(["a"] * 39)
        rng = random.Random(1704)
        models = [one_label]
        for _ in range(40):
            n = rng.randint(10, 30)
            models.append(point_chain([rng.choice("ab") for _ in range(n - 1)], rng))
        for m in models:
            kept = [
                (lam.atoms, [[list(b) for b in subs] for subs in splits])
                for lam, _, splits in nlmp.bisim.refinement(m)
            ]
            assert refinement_under(m, profile_signature) == kept
        assert len(nlmp.bisim.refinement(one_label)) == 40
        assert max(len(nlmp.bisim.refinement(m)) for m in models[1:]) > 6

    def test_no_round_reads_a_row_through_the_model(self, monkeypatch):
        # The rounds and synthesis read each state's rows from one table
        # built per model, never through Nlmp.row.
        def build(i):
            return rand_valid_nlmp(random.Random(i), coarse=i % 2 == 1, dirac_only=i % 3 == 0)

        def results(m):
            return compare_bisims(m), [outcome(distinguish, m, s, t) for s in m.states for t in m.states]

        seeds = range(1705, 1765)
        expected = [results(build(i)) for i in seeds]

        def forbidden(*args):
            raise AssertionError("a row was read through Nlmp.row")

        monkeypatch.setattr(Nlmp, "row", forbidden)
        for i, want in zip(seeds, expected):
            assert results(build(i)) == want
        assert any(isinstance(f, DiamondMulti) for _, formulas in expected for f in formulas)

    def test_one_refinement_serves_every_fixpoint(self, monkeypatch):
        rng = random.Random(1702)
        models = [two_bounds_model(), uniform_rows_model()]
        models += [rand_valid_nlmp(rng, coarse=i % 2 == 1, dirac_only=i % 3 == 0) for i in range(20)]
        real = nlmp.bisim.traditional_signature
        real_sub = nlmp.bisim.sigma_is_sub
        calls = []
        guards = []

        def counting(m, lam):
            before = len(guards)
            key = real(m, lam)
            # one sub-sigma-algebra check per round, not one per measure
            assert len(guards) == before + 1
            calls.append(lam)
            return key

        def counting_sub(lam, sigma):
            guards.append(lam)
            return real_sub(lam, sigma)

        def forbidden(*args):
            raise AssertionError("a fixpoint recomputed dense profiles, profile classes or hit preimages")

        monkeypatch.setattr(nlmp.bisim, "traditional_signature", counting)
        monkeypatch.setattr(nlmp.bisim, "sigma_is_sub", counting_sub)
        monkeypatch.setattr(nlmp.bisim, "profile", forbidden)
        monkeypatch.setattr(nlmp.bisim, "trace_classes", forbidden)
        monkeypatch.setattr(nlmp.bisim, "hit_preimage", forbidden)
        for i, m in enumerate(models):
            calls.clear()
            # a partial read first: the rounds it reads are computed once
            read = len(list(islice(nlmp.bisim.refinement_rounds(m), 1 + i % 2)))
            assert len(calls) == read
            comparison = compare_bisims(m)
            rounds = len(comparison.traditional.trace)
            assert len(calls) == rounds
            assert tuple(nlmp.bisim.refinement_rounds(m)) == nlmp.bisim.refinement(m)
            assert len(comparison.state.trace) == len(comparison.event.trace) == rounds
            cached = nlmp.bisim.refinement(m)
            largest_traditional(m)
            largest_state(m)
            smallest_stable_sigma(m)
            logical_equivalence(m, "Lf")
            assert len(calls) == rounds
            again = nlmp.bisim.refinement(m)
            assert len(again) == len(cached) and all(map(operator.is_, again, cached))

    def test_a_round_that_raises_is_not_kept(self):
        # The model fails validation: its first round splits a model
        # atom, so the second round's guard raises.  Every read of the
        # refinement must meet that error, not the one round an earlier
        # read left behind.
        text = (corpus_dir() / "atom_split_invalid.nlmp").read_text(encoding="utf-8")
        m = parse_model(text)
        for _ in range(2):
            with pytest.raises(PreconditionError):
                nlmp.bisim.refinement(m)
        with pytest.raises(PreconditionError):
            list(nlmp.bisim.refinement_rounds(m))

    def test_an_interrupted_round_is_not_kept(self, monkeypatch):
        # An interrupt in the second round must not leave the first round
        # behind as the whole refinement.
        text = (corpus_dir() / "np_reach_unequal.nlmp").read_text(encoding="utf-8")
        full = nlmp.bisim.refinement(parse_model(text))
        assert len(full) > 2
        m = parse_model(text)
        signature = nlmp.bisim.traditional_signature
        calls = []

        def interrupted(model, lam):
            calls.append(lam)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return signature(model, lam)

        monkeypatch.setattr(nlmp.bisim, "traditional_signature", interrupted)
        with pytest.raises(KeyboardInterrupt):
            nlmp.bisim.refinement(m)
        monkeypatch.setattr(nlmp.bisim, "traditional_signature", signature)
        again = nlmp.bisim.refinement(m)
        assert [lam.atoms for lam, _, _ in again] == [lam.atoms for lam, _, _ in full]

    def test_profile_ids_are_equal_iff_dense_profiles_are(self):
        rng = random.Random(1703)
        for i in range(300):
            m = rand_valid_nlmp(rng, max_states=6, coarse=i % 2 == 1, dirac_only=i % 3 == 0)
            for lam, key, _ in nlmp.bisim.refinement(m):
                assert set(key.profiles) == set(m.pool)
                assert all(type(k) is int for k in key.profiles.values())
                dense = {mu: profile(mu, lam) for mu in m.pool}
                for mu in m.pool:
                    for nu in m.pool:
                        assert (key.profiles[mu] == key.profiles[nu]) == (dense[mu] == dense[nu])

    def test_coarse_model_profile_ids(self):
        # Model atoms {x1 x2} {y} {z}; lam puts x and y in one block.
        u = Universe(("s", "x1", "x2", "y", "z"))
        sig = SigmaAlgebra(u, tuple(map(frozenset, ({"s"}, {"x1", "x2"}, {"y"}, {"z"}))))
        lam = SigmaAlgebra(u, tuple(map(frozenset, ({"s"}, {"x1", "x2", "y"}, {"z"}))))
        half = F(1, 2)
        split = Measure.from_state_weights(sig, {"x1": half, "y": half})  # mass split inside one block
        point = dirac(sig, "y")
        heavy_z = Measure.from_state_weights(sig, {"y": F(1, 3), "z": F(2, 3)})
        heavy_x = Measure.from_state_weights(sig, {"x2": F(2, 3), "z": F(1, 3)})
        light_x = Measure.from_state_weights(sig, {"x1": F(1, 3), "z": F(2, 3)})
        rows = {("s", "a"): (split, point, heavy_z, heavy_x, light_x), ("z", "a"): (dirac(sig, "z"),)}
        m = Nlmp(sig, ("a",), rows)
        ids = nlmp.bisim.traditional_signature(m, lam).profiles
        assert ids[split] == ids[point]
        # equal weights on different blocks keep different profiles
        assert ids[heavy_z] != ids[heavy_x]
        assert ids[heavy_z] == ids[light_x]
        assert ids[point] != ids[dirac(sig, "z")]
        assert len(set(ids.values())) == 4

    def test_signature_needs_a_sub_sigma_algebra_of_the_models(self):
        u = Universe(("x", "y", "z"))
        sig = SigmaAlgebra(u, (frozenset({"x", "y"}), frozenset({"z"})))
        m = Nlmp(sig, ("a",), {("x", "a"): (dirac(sig, "z"),)})
        with pytest.raises(PreconditionError, match="sub-sigma-algebra"):
            nlmp.bisim.traditional_signature(m, SigmaAlgebra.powerset(u))

    def test_refinement_is_kept_per_model_object(self):
        m = two_bounds_model()
        twin = two_bounds_model()
        assert twin == m
        # Each read returns the same round objects, and an equal model
        # computes rounds of its own.
        first, again, other = (nlmp.bisim.refinement(x) for x in (m, m, twin))
        assert len(first) == len(again) == len(other)
        assert all(map(operator.is_, first, again))
        assert not any(map(operator.is_, first, other))


class TestNonProbabilisticCheckers:
    def test_identity_accepted(self):
        m = np_reach_model(True)
        assert np_traditional_check(m, identity_relation(m.universe))
        assert np_state_check(m, identity_relation(m.universe))

    def test_coarse_equivalence_matches_general_checkers(self):
        for equal in (True, False):
            m = np_reach_model(equal)
            r = sym_with_identity(m.universe, ("s", "t"), ("u", "v"))
            assert bool(np_traditional_check(m, r)) == bool(is_traditional_bisim(m, r))
            assert bool(np_state_check(m, r)) == bool(is_state_bisim(m, r))

    def test_targets_merged_by_closed_sets_are_accepted(self):
        # p and q step to different states that the relation's closed
        # sets cannot tell apart, so the pair is accepted
        u = Universe(("p", "q", "z"))
        sig = SigmaAlgebra.powerset(u)
        m = Nlmp(
            sig,
            ("a",),
            {("p", "a"): (dirac(sig, "p"),), ("q", "a"): (dirac(sig, "q"),)},
        )
        r = sym_with_identity(u, ("p", "q"))
        assert np_traditional_check(m, r)
        assert is_traditional_bisim(m, r)
        untied = sym_with_identity(u, ("p", "z"))
        assert not np_traditional_check(m, untied)
        assert not is_traditional_bisim(m, untied)

    def test_random_agreement_with_general_checkers(self):
        rng = random.Random(411)
        for _ in range(120):
            m = rand_valid_nlmp(rng, max_states=4, coarse=rng.random() < 0.4, dirac_only=True)
            r = rand_symmetric_relation(rng, m.universe)
            assert bool(np_traditional_check(m, r)) == bool(is_traditional_bisim(m, r))
            assert bool(np_state_check(m, r)) == bool(is_state_bisim(m, r))

    def test_state_check_agrees_with_every_closed_set(self):
        rng = random.Random(412)
        outcomes = set()
        for i in range(150):
            m = rand_valid_nlmp(rng, max_states=6, coarse=i % 2 == 1, dirac_only=True)
            bisim = largest_state(m).relation
            pairs = list(rand_symmetric_relation(rng, m.universe, 0.2).pairs)
            for r in (
                identity_relation(m.universe),
                bisim,
                union(bisim, from_pairs(m.universe, pairs[:2] + [(t, s) for s, t in pairs[:2]])),
                rand_symmetric_relation(rng, m.universe, rng.choice((0.1, 0.3, 0.6))),
            ):
                result = np_state_check(m, r)
                assert result == np_state_direct(m, r)
                outcomes.add(result.holds)
        assert outcomes == {True, False}

    def test_state_check_tries_each_closed_atom_once(self, monkeypatch):
        u = Universe(tuple(f"s{i}" for i in range(8)))
        sig = SigmaAlgebra.powerset(u)
        rows = {(f"s{i}", "a"): (dirac(sig, f"s{min(i + 1, 7)}"),) for i in range(8)}
        rows.update({(f"s{i}", "b"): (dirac(sig, f"s{i // 2}"),) for i in range(8)})
        m = Nlmp(sig, ("a", "b"), rows)
        r = identity_relation(u)
        calls = []
        real = support.scan_diamond
        monkeypatch.setattr(support, "scan_diamond", lambda m, a, q: calls.append(q) or real(m, a, q))
        assert np_state_check(m, r)
        assert 0 < len(calls) <= len(m.labels) * len(sigma_of_relation(sig, r).atoms)


class TestStructuralProperties:
    def test_traditional_acceptance_implies_state_acceptance(self):
        rng = random.Random(412)
        for _ in range(150):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            r = rand_symmetric_relation(rng, m.universe)
            if is_traditional_bisim(m, r):
                assert is_state_bisim(m, r)

    def test_acceptances_coincide_on_finite_models(self):
        # finite models are image finite, where the two notions agree;
        # exercised on coarse sigma-algebras too, which are always
        # finitely generated here
        rng = random.Random(413)
        for _ in range(150):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.6)
            r = rand_symmetric_relation(rng, m.universe)
            assert bool(is_traditional_bisim(m, r)) == bool(is_state_bisim(m, r))
            assert largest_traditional(m).partition == largest_state(m).partition

    def test_state_acceptance_matches_event_acceptance_of_closed_sets(self):
        rng = random.Random(414)
        for _ in range(150):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            r = rand_symmetric_relation(rng, m.universe)
            lam = sigma_of_relation(m.sigma, r)
            assert bool(is_state_bisim(m, r)) == bool(is_event_bisim(m, lam))

    def test_accepted_state_bisim_closure_is_state_and_event_bisim(self):
        rng = random.Random(415)
        hits = 0
        for _ in range(150):
            m = rand_valid_nlmp(rng, max_states=4, coarse=rng.random() < 0.5)
            candidates = [
                rand_symmetric_relation(rng, m.universe),
                largest_state(m).relation,
            ]
            for r in candidates:
                if not is_state_bisim(m, r):
                    continue
                hits += 1
                closure = relation_of_sigma(sigma_of_relation(m.sigma, r))
                assert is_state_bisim(m, closure)
                assert is_event_bisim(m, sigma_of_relation(m.sigma, closure))
        assert hits > 100

    def test_chain_holds_on_random_models(self):
        rng = random.Random(416)
        for _ in range(100):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            comparison = compare_bisims(m)
            assert comparison.chain_holds
            if comparison.sigma_is_powerset:
                assert comparison.all_equal
            # The fields hold by construction; the independent checkers
            # accept each bisimilarity under the next notion of the chain.
            assert is_state_bisim(m, comparison.traditional.relation)
            assert is_event_bisim(m, sigma_of_relation(m.sigma, comparison.state.relation))

    def test_fixpoint_traces_refine_and_stay_short(self):
        rng = random.Random(417)
        for _ in range(60):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            for rep in (largest_traditional(m), largest_state(m)):
                assert len(rep.trace) <= len(m.states)
                for before, after in zip(rep.trace, rep.trace[1:]):
                    for block in after:
                        assert any(block <= old for old in before)
            rep = smallest_stable_sigma(m)
            assert len(rep.trace) <= len(m.states)
            for before, after in zip(rep.trace, rep.trace[1:]):
                for block in after:
                    assert any(block <= old for old in before)

    def test_composition_of_reflexive_accepted_relations_is_accepted(self):
        rng = random.Random(418)
        for _ in range(60):
            m = rand_valid_nlmp(rng, max_states=4, coarse=rng.random() < 0.5)
            accepted = [identity_relation(m.universe), largest_traditional(m).relation]
            candidate = union(rand_symmetric_relation(rng, m.universe), identity_relation(m.universe))
            if is_traditional_bisim(m, candidate):
                accepted.append(candidate)
            for r1 in accepted:
                for r2 in accepted:
                    assert is_traditional_bisim(m, compose(r1, r2))
