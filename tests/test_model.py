import random
from fractions import Fraction as F

import pytest

from nlmp import (
    DomainError,
    Lmp,
    Measure,
    Nlmp,
    PreconditionError,
    SigmaAlgebra,
    Universe,
    dirac,
    hit_preimage,
    is_event_bisim,
    lmp_validate,
    nlmp_validate,
    trace_classes,
)
from support import (
    atom_split_model,
    build_pool,
    class_findings,
    coarse_valid_model,
    delta_trace_family,
    lmp_validate_direct,
    measurable_sets,
    np_reach_model,
    point_masses_only,
    rand_any_nlmp,
    rand_lmp,
    rand_measure,
    rand_partition,
    rand_universe,
    rand_valid_nlmp,
    row_constant_on_atoms,
    scan_diamond,
    scan_dirac_atom,
    scan_hit_preimage,
    scan_pool,
    subalgebras,
    two_bounds_model,
    two_bounds_measures,
)


class TestValidate:
    def test_full_powerset_model_is_valid(self):
        assert nlmp_validate(two_bounds_model()).valid

    def test_atom_split_is_reported_with_witness(self):
        report = nlmp_validate(atom_split_model(repaired=False))
        assert not report.valid
        finding = report.findings[0]
        assert finding.label == "a"
        assert finding.witness_set == frozenset({"s"})
        assert finding.xi is not None

    def test_repaired_atom_split_is_valid(self):
        assert nlmp_validate(atom_split_model(repaired=True)).valid

    def test_all_empty_transitions_are_valid(self):
        u = Universe(("1", "2"))
        sig = SigmaAlgebra.trivial(u)
        assert nlmp_validate(Nlmp(sig, ("a",), {})).valid

    def test_findings_match_the_class_walk_oracle(self, monkeypatch):
        # The library walks the pool's profile classes on coarse models
        # only: on the powerset every state set is measurable, so the
        # walk, kept as the class_findings oracle, finds nothing there.
        import nlmp.model

        walks = []
        real = nlmp.model.trace_classes
        monkeypatch.setattr(nlmp.model, "trace_classes", lambda pool, lam: walks.append(lam) or real(pool, lam))
        rng = random.Random(308)
        powerset = invalid = 0
        for i in range(300):
            if i % 3 == 0:
                m = rand_any_nlmp(rng)
            else:
                m = rand_valid_nlmp(rng, coarse=i % 2 == 1, dirac_only=i % 4 == 1)
            walks.clear()
            report = nlmp_validate(m)
            assert report.findings == class_findings(m)
            assert len(walks) == (not m.sigma.is_powerset)
            powerset += m.sigma.is_powerset
            invalid += not report.valid
        assert 150 < powerset < 250 and invalid > 20

    def test_agrees_with_row_constancy_oracle(self):
        # on a finite model, measurability holds exactly when rows are
        # constant within sigma-algebra atoms
        rng = random.Random(301)
        seen_invalid = 0
        for _ in range(200):
            m = rand_any_nlmp(rng)
            verdict = nlmp_validate(m).valid
            assert verdict == row_constant_on_atoms(m)
            seen_invalid += not verdict
        assert seen_invalid > 20

    def test_valid_by_construction_models_pass(self):
        rng = random.Random(302)
        for _ in range(100):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            assert nlmp_validate(m).valid


class TestLmpEmbed:
    def test_singleton_rows(self):
        u = Universe(("s", "t"))
        sig = SigmaAlgebra.powerset(u)
        kernels = {(w, "a"): dirac(sig, "t") for w in u}
        l = Lmp(sig, ("a",), kernels)
        assert isinstance(l, Nlmp)
        assert l.row("s", "a") == (dirac(sig, "t"),)
        assert all(len(l.row(s, "a")) == 1 for s in u)

    def test_has_the_rows_of_the_nlmp_but_not_its_class(self):
        # the two serialize under different headers, so they are unequal
        rng = random.Random(307)
        for _ in range(50):
            l = rand_lmp(rng, coarse=rng.random() < 0.5, per_state=rng.random() < 0.5)
            rows = {(s, a): (l.kernel(s, a),) for s in l.states for a in l.labels}
            m = Nlmp(l.sigma, l.labels, rows)
            assert l.transition_items() == m.transition_items()
            assert l != m and m != l
            assert Lmp(l.sigma, l.labels, {key: row[0] for key, row in rows.items()}) == l

    def test_embedding_preserves_validation_verdicts(self):
        rng = random.Random(303)
        invalid_seen = 0
        for _ in range(150):
            l = rand_lmp(rng, coarse=rng.random() < 0.6, per_state=rng.random() < 0.5)
            verdict = lmp_validate(l).valid
            embedded_verdict = nlmp_validate(l).valid
            assert verdict == embedded_verdict
            invalid_seen += not verdict
        assert invalid_seen > 10


class TestLmpValidateAtoms:
    def test_findings_are_the_single_atom_findings_of_every_set(self):
        rng = random.Random(305)
        invalid_seen = 0
        for i in range(200):
            l = rand_lmp(rng, max_states=6, coarse=i % 3 != 0, per_state=i % 2 == 0)
            direct = lmp_validate_direct(l)
            report = lmp_validate(l)
            assert list(report.findings) == [f for q, f in direct if q in l.sigma.atoms]
            assert report.valid == (not direct)
            invalid_seen += not report.valid
        assert invalid_seen > 30

    def test_one_value_per_label_atom_and_state(self, monkeypatch):
        rng = random.Random(306)
        u = Universe(tuple(f"s{i}" for i in range(12)))
        sig = SigmaAlgebra.powerset(u)
        labels = ("a", "b")
        l = Lmp(sig, labels, {(s, a): rand_measure(rng, sig) for s in u for a in labels})
        calls = []
        real = Measure.value
        monkeypatch.setattr(Measure, "value", lambda mu, q: calls.append(q) or real(mu, q))
        assert lmp_validate(l).valid
        assert len(calls) == len(labels) * len(sig.atoms) * len(u)


class TestNonProbabilistic:
    def test_dirac_rows_qualify(self):
        assert point_masses_only(np_reach_model(True))

    def test_mixed_measure_disqualifies(self):
        assert not point_masses_only(two_bounds_model())

    def test_empty_model_qualifies(self):
        u = Universe(("1",))
        assert point_masses_only(Nlmp(SigmaAlgebra.powerset(u), ("a",), {}))

    def test_coarse_point_masses_qualify(self):
        assert point_masses_only(coarse_valid_model())


class TestHitPreimage:
    def test_empty_set_hits_nothing(self):
        m = two_bounds_model()
        assert hit_preimage(m, "a", ()) == frozenset()

    def test_whole_pool_hits_enabled_states(self):
        m = two_bounds_model()
        assert hit_preimage(m, "a", m.pool) == frozenset({"s", "t"})

    def test_extra_measure_identifies_s(self):
        m = two_bounds_model()
        _, _, mu3 = two_bounds_measures(m)
        assert hit_preimage(m, "a", (mu3,)) == frozenset({"s"})

    def test_unknown_label_rejected(self):
        m = two_bounds_model()
        with pytest.raises(DomainError):
            hit_preimage(m, "nope", ())

    def test_measure_outside_pool_rejected(self):
        m = two_bounds_model()
        foreign = Measure.from_state_weights(m.sigma, {"s": F(1)})
        with pytest.raises(DomainError):
            hit_preimage(m, "a", (foreign,))

    def test_distributes_over_union(self):
        rng = random.Random(305)
        for _ in range(100):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            if not m.pool:
                continue
            xi1 = frozenset(mu for mu in m.pool if rng.random() < 0.5)
            xi2 = frozenset(mu for mu in m.pool if rng.random() < 0.5)
            for a in m.labels:
                assert hit_preimage(m, a, xi1 | xi2) == hit_preimage(m, a, xi1) | hit_preimage(
                    m, a, xi2
                )


class TestDiamond:
    def test_point_mass_reaches_target(self):
        m = np_reach_model(True)
        assert "s" in scan_diamond(m, "a", {"u"})

    def test_empty_target_unreachable(self):
        m = np_reach_model(True)
        assert scan_diamond(m, "a", set()) == frozenset()

    def test_both_roots_reach_the_pair(self):
        m = np_reach_model(True)
        assert scan_diamond(m, "a", {"u", "v"}) == frozenset({"s", "t"})

    def test_probabilistic_model_rejected(self):
        with pytest.raises(PreconditionError):
            scan_diamond(two_bounds_model(), "a", {"x"})


class TestHoldersIndex:
    """The pool and per-label holders built once at construction answer
    exactly what a scan of every row answers."""

    @staticmethod
    def models(rng: random.Random):
        # Valid (some point-mass) and possibly invalid models, each also
        # with an extra label that has no rows at all.
        for i in range(600):
            if i % 3 == 0:
                m = rand_any_nlmp(rng)
            else:
                m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5, dirac_only=i % 3 == 2)
            yield m
            yield Nlmp(m.sigma, m.labels + ("z",), dict(m.transition_items()))

    def test_lookups_match_their_row_scans(self):
        rng = random.Random(307)
        point_mass = invalid = empty_label = 0
        for m in self.models(rng):
            assert m.pool == scan_pool(m)
            assert m.pool_set == frozenset(scan_pool(m))
            for a in m.labels:
                xi = [mu for mu in m.pool if rng.random() < 0.5]
                assert hit_preimage(m, a, xi) == scan_hit_preimage(m, a, xi)
                for mu in m.pool:
                    assert hit_preimage(m, a, (mu,)) == scan_hit_preimage(m, a, (mu,))
                empty_label += not any(m.row(s, a) for s in m.states)
            for mu in m.pool:
                assert mu.is_dirac == (scan_dirac_atom(mu) is not None)
            point_mass += point_masses_only(m)
            report = nlmp_validate(m)
            assert report.findings == class_findings(m)
            invalid += not report.valid
        assert point_mass > 200 and invalid > 50 and empty_label > 600


class TestDiracSubspace:
    def test_point_mass_pool_classes_are_singletons_matching_states(self):
        # the state-to-point-mass map is injective on a full powerset
        # space, and unions of its trace classes correspond exactly to
        # the measurable target sets
        u = Universe(("1", "2", "3", "4"))
        sig = SigmaAlgebra.powerset(u)
        pool = build_pool(dirac(sig, s) for s in u)
        assert len(set(pool)) == len(u.states)
        classes = trace_classes(pool, sig)
        assert all(len(c) == 1 for c in classes)
        carrier = {next(iter(scan_dirac_atom(c[0]))): c for c in classes}
        assert set(carrier) == set(u.states)

    def test_reach_stability_matches_hit_stability_on_point_mass_models(self):
        # for point-mass models and a sub-sigma-algebra lam: all hit
        # preimages of lam measure sets are lam-measurable iff all
        # diamond images of lam sets are lam-measurable
        rng = random.Random(306)
        for _ in range(80):
            m = rand_valid_nlmp(rng, max_states=4, coarse=rng.random() < 0.5, dirac_only=True)
            for lam in subalgebras(m.sigma):
                hit_side = bool(is_event_bisim(m, lam))
                reach_side = all(
                    lam.is_measurable(scan_diamond(m, a, q))
                    for a in m.labels
                    for q in measurable_sets(lam)
                )
                assert hit_side == reach_side


class TestPoolTraceFamily:
    def test_unions_of_profile_classes_are_exactly_the_generated_traces(self):
        # oracle: close the inclusive-threshold generator traces under
        # union, intersection and complement; compare against all unions
        # of profile classes
        rng = random.Random(307)
        for _ in range(60):
            universe = rand_universe(rng, 4)
            blocks = rand_partition(rng, list(universe))[:3]
            covered = frozenset().union(*[frozenset(b) for b in blocks])
            if covered != frozenset(universe.states):
                continue
            sig = SigmaAlgebra(universe, tuple(frozenset(b) for b in blocks))
            pool = build_pool(rand_measure(rng, sig) for _ in range(rng.randint(1, 4)))
            if not pool:
                continue
            for lam in subalgebras(sig):
                classes = trace_classes(pool, lam)
                unions = set()
                for mask in range(2 ** len(classes)):
                    out = frozenset()
                    for i, cls in enumerate(classes):
                        if mask >> i & 1:
                            out |= frozenset(cls)
                    unions.add(out)
                assert unions == set(delta_trace_family(pool, lam))
