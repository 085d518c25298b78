"""Classification of surjections and the stable factorization system.

A surjection is a trivial covering when its restriction to radicals is
bijective, central when its kernel misses the radical, and every
surjection splits as a radical-kernel surjection followed by a
radical-missing one.
"""

import random

import pytest

from mvtk import (
    CoordMap,
    FiniteIdeal,
    FiniteMapBody,
    MarkerIdeal,
    Morphism,
    all_ideals,
    carrier_size,
    chain_product_catalog,
    classify_extension,
    compose,
    describe,
    e_member,
    elements,
    em_factorize,
    enumerate_homs,
    extension_commutator,
    fill_diagonal,
    from_initial,
    ideal_leq,
    ideal_subalgebra,
    ideal_meet,
    identity,
    kernel_subalgebra,
    m_member,
    make_chain,
    make_komori,
    polar,
    product,
    quotient,
    rad_restriction_surjective,
    radical,
    radical_projection,
    random_block_algebra,
    same_morphism,
    stability_check,
    to_finite,
    to_terminal,
    trivial_via_pullback,
    zero_ideal,
)
from oracles import trivial_via_literal_pullback

CHANG = make_komori(1, 1)
A = product([make_komori(1, 1), make_chain(2)])
B = product([make_komori(2, 1), make_chain(2)])


class TestClassification:
    def test_radical_projection_is_never_central_off_semisimple(self):
        c = classify_extension(radical_projection(CHANG))
        assert c.surjective
        assert not c.trivial and not c.central and not c.normal
        assert not c.kernel_in_radical_polar

    def test_dropping_a_semisimple_factor_is_trivial(self):
        f = quotient(A, MarkerIdeal((("sub", frozenset()), "full"))).projection
        c = classify_extension(f)
        assert c.surjective and c.trivial and c.central and c.normal
        assert describe(f.cod) == "Komori(1,1)"

    def test_kernel_invariants_are_reported(self):
        f = quotient(A, MarkerIdeal((("sub", frozenset()), "full"))).projection
        c = classify_extension(f)
        assert c.kernel == f.kernel()
        assert c.radical_meet == ideal_meet(A, f.kernel(), radical(A))

    def test_coherence_across_all_quotients(self):
        rad = radical(A)
        for ideal in all_ideals(A):
            f = quotient(A, ideal).projection
            c = classify_extension(f)
            meets_radical_trivially = ideal_leq(
                A, ideal_meet(A, ideal, rad), zero_ideal(A))
            assert c.central == meets_radical_trivially
            assert c.central == c.normal
            assert c.central == ideal_leq(A, ideal, polar(A, rad))
            if c.trivial:
                assert c.central

    def test_trivial_needs_radical_restriction_onto(self):
        # killing part of the radical keeps the kernel inside it, so the
        # map is not central, hence not a trivial covering
        f = quotient(B, MarkerIdeal((("sub", frozenset({0})), "zero"))
                     ).projection
        c = classify_extension(f)
        assert c.surjective and not c.central and not c.trivial

    def test_finite_surjections_are_always_trivial(self):
        sym = product([make_chain(1), make_chain(2)])
        idx = {e: i for i, e in enumerate(elements(sym))}
        fin = to_finite(sym)
        q = quotient(fin, FiniteIdeal(frozenset({idx[(0, 0)], idx[(1, 0)]})))
        c = classify_extension(q.projection)
        assert c.surjective and c.trivial and c.central

    def test_non_surjection_is_not_an_extension(self):
        c1, c2 = to_finite(make_chain(1)), to_finite(make_chain(2))
        up = enumerate_homs(c1, c2)[0]
        assert not classify_extension(up).surjective


class TestPullbackCharacterization:
    def test_finite_trivial_covering_is_a_pullback_square(self):
        sym = product([make_chain(1), make_chain(2)])
        idx = {e: i for i, e in enumerate(elements(sym))}
        fin = to_finite(sym)
        q = quotient(fin, FiniteIdeal(frozenset({idx[(0, 0)], idx[(1, 0)]})))
        report = trivial_via_pullback(q.projection)
        assert report.commutes and report.is_pullback
        assert report.mediator_injective and report.mediator_surjective

    def test_corrupted_unit_breaks_the_square(self):
        sym = product([make_chain(1), make_chain(2)])
        idx = {e: i for i, e in enumerate(elements(sym))}
        fin = to_finite(sym)
        q = quotient(fin, FiniteIdeal(frozenset({idx[(0, 0)], idx[(1, 0)]})))
        eta = radical_projection(fin)
        table = list(eta.body.table)
        table[idx[(0, 1)]], table[idx[(0, 2)]] = \
            table[idx[(0, 2)]], table[idx[(0, 1)]]
        bad = Morphism(eta.dom, eta.cod, FiniteMapBody(tuple(table)),
                       "corrupted")
        report = trivial_via_pullback(q.projection, eta_a=bad)
        assert not report.commutes
        assert not report.is_pullback

    def test_matches_classification_on_every_finite_quotient(self):
        fin = to_finite(product([make_chain(1), make_chain(2)]))
        for ideal in all_ideals(fin):
            f = quotient(fin, ideal).projection
            assert classify_extension(f).trivial \
                == trivial_via_pullback(f).is_pullback


    def test_symbolic_quotients_agree_with_the_classification(self):
        trivial = 0
        for seed in range(100):
            rng = random.Random(f"cls:{seed}")
            alg = random_block_algebra(rng)
            ideals = all_ideals(alg)
            f = quotient(alg, ideals[rng.randrange(len(ideals))]).projection
            report = trivial_via_pullback(f)
            assert report.commutes
            assert report.is_pullback == classify_extension(f).trivial
            trivial += report.is_pullback
        assert 0 < trivial < 100

    def test_corrupted_symbolic_unit_breaks_the_square(self):
        a = product([make_komori(1, 1), make_komori(1, 1)])
        eta = radical_projection(a)
        swapped = Morphism(a, eta.cod, CoordMap(tuple(reversed(eta.body.rows))),
                           "corrupted")
        assert trivial_via_pullback(identity(a)).is_pullback
        assert not trivial_via_pullback(identity(a), eta_a=swapped).commutes

    @pytest.mark.parametrize("f, eta_a", [
        (identity(to_finite(make_chain(2))), identity(to_finite(make_chain(4)))),
        (identity(to_finite(make_chain(2))), to_terminal(to_finite(make_chain(2)))),
        (identity(CHANG), identity(make_chain(1))),
    ], ids=["other-domain", "other-codomain", "symbolic-other-domain"])
    def test_a_mis_shaped_unit_is_refused(self, f, eta_a):
        with pytest.raises(ValueError, match=r"^eta_a must run from f\.dom to "
                                             r"its semisimple quotient$"):
            trivial_via_pullback(f, eta_a=eta_a)


class TestLiteralRoute:
    """The criterion is decided on the chain views and must give the
    report of the literal pullback, with the default unit and with other
    units of the right shape (which break the square)."""

    def test_every_hom_between_small_tables(self):
        tables = [to_finite(a) for a in chain_product_catalog(12)]
        reports = negatives = 0
        for dom in tables:
            units = [None] + enumerate_homs(dom, dom)[:4]
            for cod in tables:
                for f in enumerate_homs(dom, cod):
                    for unit in units:
                        report = trivial_via_pullback(f, eta_a=unit)
                        assert report == trivial_via_literal_pullback(f, eta_a=unit), \
                            (describe(dom), describe(cod), f.body, unit)
                        reports += 1
                        negatives += not report.is_pullback
        assert (reports, negatives) == (2045, 1216)

    def test_seeded_symbolic_maps(self):
        reports = negatives = 0
        for seed in range(130):
            rng = random.Random(f"pb:{seed}")
            alg = random_block_algebra(rng)
            ideals = all_ideals(alg)
            eta = radical_projection(alg)
            units = [None] + [compose(eta, e) for e in enumerate_homs(eta.cod, eta.cod)[:4]]
            for f in (quotient(alg, ideals[rng.randrange(len(ideals))]).projection,
                      identity(alg)):
                for unit in units:
                    report = trivial_via_pullback(f, eta_a=unit)
                    assert report == trivial_via_literal_pullback(f, eta_a=unit), \
                        (describe(alg), f.body, unit)
                    reports += 1
                    negatives += not report.is_pullback
        assert (reports, negatives) == (934, 651)


class TestRadicalRestriction:
    def test_quotient_bodies_restrict_onto(self):
        for ideal in all_ideals(B):
            assert rad_restriction_surjective(quotient(B, ideal).projection)

    def test_initial_map_restricts_onto_semisimple_targets(self):
        assert rad_restriction_surjective(from_initial(make_chain(3)))
        assert not rad_restriction_surjective(from_initial(CHANG))

    def test_identity_and_terminal(self):
        assert rad_restriction_surjective(identity(B))
        assert rad_restriction_surjective(to_terminal(B))

    def test_table_maps_cover_exactly_a_zero_radical(self):
        two = to_finite(make_chain(1))
        into_chang = Morphism(two, CHANG, FiniteMapBody((CHANG.zero, CHANG.one)))
        assert not rad_restriction_surjective(into_chang)
        tables = [to_finite(a) for a in (make_chain(1), make_chain(2),
                                          product([make_chain(1), make_chain(2)]))]
        for a in tables:
            for b in tables:
                for h in enumerate_homs(a, b):
                    assert rad_restriction_surjective(h)


class TestKernelSubalgebra:
    def test_mixed_kernel_subalgebra(self):
        f = quotient(A, MarkerIdeal((("sub", frozenset()), "full"))).projection
        K = kernel_subalgebra(f)
        assert describe(K.algebra) == "Chain(2) x Chain(1)"
        assert K.inclusion.is_injective()

    def test_radical_kernel_subalgebra_is_one_block(self):
        K = kernel_subalgebra(radical_projection(B))
        assert describe(K.algebra) == "Komori(1,1)"

    def test_kernel_subalgebra_of_injection_is_initial_copy(self):
        K = kernel_subalgebra(identity(CHANG))
        assert carrier_size(K.algebra) == 2


class TestCommutator:
    def test_trivial_covering_has_central_kernel(self):
        f = quotient(A, MarkerIdeal((("sub", frozenset()), "full"))).projection
        ec = extension_commutator(f)
        assert ec.in_center
        assert describe(ec.subalgebra.algebra) == "Chain(1)"
        assert ec.ideal.markers == (("sub", frozenset()), "zero")

    def test_radical_projection_kernel_is_not_central(self):
        ec = extension_commutator(radical_projection(A))
        assert not ec.in_center
        assert describe(ec.subalgebra.algebra) == "Komori(1,1)"
        assert ec.ideal.markers == (("sub", frozenset({0})), "zero")

    def test_commutator_matches_classification(self):
        for ideal in all_ideals(A):
            f = quotient(A, ideal).projection
            assert extension_commutator(f).in_center \
                == classify_extension(f).central


class TestFactorizationSystem:
    def test_membership_of_the_two_classes(self):
        eta = radical_projection(B)
        assert e_member(eta) and not m_member(eta)
        drop_chain = quotient(B, MarkerIdeal(("zero", "full"))).projection
        assert m_member(drop_chain) and not e_member(drop_chain)
        # collapsing the whole first factor kills radical elements too,
        # so that quotient sits in neither class
        collapse = quotient(B, MarkerIdeal(("full", "zero"))).projection
        assert not m_member(collapse) and not e_member(collapse)
        assert e_member(identity(B)) and m_member(identity(B))

    def test_split_of_a_mixed_collapse(self):
        f = quotient(B, MarkerIdeal(("full", "zero"))).projection
        fac = em_factorize(f)
        assert describe(fac.middle) == "Chain(2) x Chain(2)"
        assert fac.theta.markers == (("sub", frozenset({0})), "zero")
        assert e_member(fac.e) and m_member(fac.m)
        assert same_morphism(compose(fac.e, fac.m), f)

    def test_theta_is_kernel_meet_radical(self):
        for ideal in all_ideals(B):
            f = quotient(B, ideal).projection
            fac = em_factorize(f)
            assert fac.theta == ideal_meet(B, f.kernel(), radical(B))
            assert same_morphism(compose(fac.e, fac.m), f)

    def test_diagonal_fill_in(self):
        f = quotient(B, MarkerIdeal(("full", "zero"))).projection
        fac = em_factorize(f)
        d = fill_diagonal(fac.e, fac.m, fac.e, fac.m)
        assert same_morphism(d, identity(fac.middle))
        assert same_morphism(compose(fac.e, d), fac.e)

    def test_fill_requires_memberships(self):
        f = quotient(B, MarkerIdeal(("full", "zero"))).projection
        with pytest.raises(ValueError):
            fill_diagonal(f, identity(f.cod), f, identity(f.cod))


class TestStability:
    def test_pullback_along_identity(self):
        eta = radical_projection(B)
        report = stability_check(eta, identity(eta.cod))
        assert report.ok
        assert describe(report.projection.dom) == "Komori(2,1) x Chain(2)"
        assert report.kernel.markers == (("sub", frozenset({0})), "zero")
        assert e_member(report.projection)

    def test_pullback_along_the_initial_map(self):
        eta = radical_projection(B)
        report = stability_check(eta, from_initial(eta.cod))
        assert report.ok
        assert describe(report.projection.dom) == "Komori(1,1)"
        assert describe(report.projection.cod) == "Chain(1)"
        assert report.kernel.markers == (("sub", frozenset({0})),)
        assert e_member(report.projection)

    def test_pullback_along_itself_is_the_kernel_pair(self):
        eta = radical_projection(B)
        report = stability_check(eta, eta)
        assert report.ok
        assert describe(report.projection.dom) == "Komori(2,2) x Chain(2)"
        assert report.kernel.markers == (("sub", frozenset({0})), "zero")
        assert e_member(report.projection)

    def test_pullback_along_ideal_subalgebra_inclusions(self):
        for seed in range(20):
            rng = random.Random(f"stab-sub:{seed}")
            eta = radical_projection(random_block_algebra(rng))
            ideals = all_ideals(eta.cod)
            g = ideal_subalgebra(eta.cod, ideals[rng.randrange(len(ideals))]).inclusion
            report = stability_check(eta, g)
            assert report.ok and e_member(report.projection)
            assert report.projection.cod == g.dom

    def test_refuses_maps_outside_the_left_class(self):
        drop = quotient(B, MarkerIdeal(("full", "zero"))).projection
        with pytest.raises(ValueError):
            stability_check(drop, identity(drop.cod))

    def test_finite_pullback_is_literal(self):
        c2 = to_finite(make_chain(2))
        e = quotient(c2, FiniteIdeal(frozenset({0}))).projection
        assert e_member(e)
        g = enumerate_homs(to_finite(make_chain(1)), e.cod)[0]
        report = stability_check(e, g)
        assert report.ok
        assert carrier_size(report.projection.dom) == 2
        assert e_member(report.projection)
