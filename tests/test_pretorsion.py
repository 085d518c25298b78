"""Radical quotients, perfect parts, and the torsion-style machinery.

The torsion-free side is the semisimple algebras, the torsion side the
perfect ones; every algebra sits in a short pre-exact sequence between
its perfect part and its semisimple quotient.
"""

import itertools
import random

import pytest

from mvtk import (
    CoordMap,
    FiniteMapBody,
    Morphism,
    carrier_size,
    chain_product_catalog,
    compose,
    counit_factorization,
    describe,
    elements,
    enumerate_homs,
    from_initial,
    identity,
    is_morphism,
    is_perfect,
    is_precokernel,
    is_prekernel,
    is_semisimple,
    is_trivial_morphism,
    make_chain,
    make_komori,
    perfect_inclusion,
    perfect_map,
    perfect_part,
    pre_exact,
    product,
    protoadditivity_check,
    quotient,
    radical,
    radical_indicator,
    radical_projection,
    random_block_algebra,
    same_morphism,
    semisimple_map,
    semisimple_quotient,
    terminal_algebra,
    to_finite,
    to_terminal,
    unit_factorization,
    zero_ideal,
)

CHANG = make_komori(1, 1)
MIXED = product([make_komori(2, 1), make_chain(2)])


class TestTheTwoClasses:
    def test_finite_algebras_are_semisimple(self):
        for algebra in chain_product_catalog(12):
            assert is_semisimple(algebra)
            assert is_semisimple(to_finite(algebra))

    def test_komori_blocks_are_not_semisimple(self):
        assert not is_semisimple(CHANG)
        assert not is_semisimple(MIXED)

    def test_perfect_membership(self):
        assert is_perfect(terminal_algebra())
        assert is_perfect(make_chain(1))
        assert is_perfect(CHANG)
        assert is_perfect(make_komori(1, 3))
        assert not is_perfect(make_chain(2))
        assert not is_perfect(make_komori(2, 1))
        assert not is_perfect(MIXED)

    def test_finite_perfect_matches_symbolic(self):
        for algebra in chain_product_catalog(10):
            assert is_perfect(to_finite(algebra)) == is_perfect(algebra)

    def test_only_overlap_is_trivial(self):
        # an algebra that is both perfect and semisimple is 1 or 2 points
        for algebra in [terminal_algebra(), make_chain(1)]:
            assert is_perfect(algebra) and is_semisimple(algebra)
        for n in range(2, 7):
            assert not (is_perfect(make_chain(n))
                        and is_semisimple(make_chain(n)))


class TestReflections:
    def test_semisimple_quotient_of_a_mixed_product(self):
        s = semisimple_quotient(MIXED)
        assert describe(s.algebra) == "Chain(2) x Chain(2)"
        assert is_semisimple(s.algebra)
        assert s.projection.kernel() == radical(MIXED)
        assert s.projection.label == "radical_projection"

    def test_perfect_part_of_a_mixed_product(self):
        p = perfect_part(MIXED)
        assert describe(p.algebra) == "Komori(1,1)"
        assert is_perfect(p.algebra)
        assert p.inclusion.label == "perfect_inclusion"
        assert p.inclusion.is_injective()

    def test_perfect_part_of_a_finite_chain(self):
        c2 = to_finite(make_chain(2))
        p = perfect_part(c2)
        assert carrier_size(p.algebra) == 2
        assert [p.inclusion(x) for x in range(2)] == [0, 2]

    def test_reflections_are_idempotent(self):
        s = semisimple_quotient(MIXED).algebra
        assert describe(semisimple_quotient(s).algebra) == describe(s)
        p = perfect_part(MIXED).algebra
        assert describe(perfect_part(p).algebra) == describe(p)

    def test_fixed_points(self):
        assert same_morphism(radical_projection(make_chain(3)),
                             quotient(make_chain(3),
                                      zero_ideal(make_chain(3))).projection)
        assert same_morphism(perfect_inclusion(CHANG), identity(CHANG))


class TestFunctoriality:
    def proj_to_chain(self):
        body = CoordMap(((1, 1, ()),))
        return Morphism(MIXED, make_chain(2), body, "second_factor")

    def test_semisimple_map_commutes_with_units(self):
        f = self.proj_to_chain()
        sf = semisimple_map(f)
        eta_a = radical_projection(MIXED)
        eta_b = radical_projection(f.cod)
        assert same_morphism(compose(eta_a, sf), compose(f, eta_b))
        assert is_morphism(sf, mode="exhaustive").ok

    def test_perfect_map_commutes_with_counits(self):
        f = self.proj_to_chain()
        pf = perfect_map(f)
        eps_a = perfect_inclusion(MIXED)
        eps_b = perfect_inclusion(f.cod)
        assert same_morphism(compose(pf, eps_b), compose(eps_a, f))

    def test_functors_preserve_identities(self):
        assert same_morphism(semisimple_map(identity(CHANG)),
                             identity(semisimple_quotient(CHANG).algebra))
        assert same_morphism(perfect_map(identity(make_chain(2))),
                             identity(perfect_part(make_chain(2)).algebra))

    def test_functors_preserve_composites(self):
        k = make_komori(1, 2)
        q = quotient(k, radical(k).__class__((("sub", frozenset({1})),)))
        f = q.projection
        g = radical_projection(f.cod)
        gf = compose(f, g)
        assert same_morphism(semisimple_map(gf),
                             compose(semisimple_map(f), semisimple_map(g)))
        assert same_morphism(perfect_map(gf),
                             compose(perfect_map(f), perfect_map(g)))


class TestRadicalIndicator:
    def test_chang_indicator_reads_the_integer_part(self):
        chi = radical_indicator(CHANG)
        assert chi(((0, (5,)),)) == (0,)
        assert chi(((1, (-3,)),)) == (1,)
        assert carrier_size(chi.cod) == 2

    def test_indicator_refuses_terminal(self):
        with pytest.raises(ValueError):
            radical_indicator(terminal_algebra())

    def test_indicator_refuses_imperfect_algebras(self):
        with pytest.raises(ValueError):
            radical_indicator(make_komori(2, 1))
        with pytest.raises(ValueError):
            radical_indicator(MIXED)


class TestTrivialMorphisms:
    def test_radical_projection_of_chang_is_trivial(self):
        w = is_trivial_morphism(radical_projection(CHANG))
        assert w.trivial and w.via == "initial"

    def test_counit_then_unit_is_trivial(self):
        f = compose(perfect_inclusion(MIXED), radical_projection(MIXED))
        w = is_trivial_morphism(f)
        assert w.trivial

    def test_perfect_inclusion_of_mixed_is_not_trivial(self):
        w = is_trivial_morphism(perfect_inclusion(MIXED))
        assert not w.trivial
        assert w.witness == ((0, (1,)),)

    def test_finite_upward_hom_is_trivial(self):
        c1, c2 = to_finite(make_chain(1)), to_finite(make_chain(2))
        h = enumerate_homs(c1, c2)[0]
        assert is_trivial_morphism(h).trivial

    def test_every_perfect_to_semisimple_hom_is_trivial(self):
        for a in [make_chain(1), CHANG, make_komori(1, 2)]:
            for b in chain_product_catalog(6):
                homs = enumerate_homs(to_finite(a) if carrier_size(a)
                                      else a, to_finite(b)) \
                    if carrier_size(a) else []
                for h in homs:
                    assert is_trivial_morphism(h).trivial


class TestPreExactness:
    @pytest.mark.parametrize("algebra", [CHANG, make_komori(2, 1), MIXED],
                             ids=describe)
    def test_symbolic_sequences(self, algebra):
        seq = pre_exact(algebra)
        comp = compose(seq.inclusion, seq.projection)
        assert is_trivial_morphism(comp).trivial
        pk = is_prekernel(seq.inclusion, seq.projection)
        assert pk.ok, pk.failures
        ck = is_precokernel(seq.projection, seq.inclusion)
        assert ck.ok, ck.failures

    def test_probe_accounting_on_a_block(self):
        k = make_komori(2, 1)
        seq = pre_exact(k)
        pk = is_prekernel(seq.inclusion, seq.projection)
        assert (pk.checked, pk.skipped) == (3, 2)
        ck = is_precokernel(seq.projection, seq.inclusion)
        assert (ck.checked, ck.skipped) == (2, 1)

    def test_finite_sequence(self):
        c2 = to_finite(make_chain(2))
        seq = pre_exact(c2)
        assert is_prekernel(seq.inclusion, seq.projection).ok
        assert is_precokernel(seq.projection, seq.inclusion).ok

    def test_prekernel_rejects_non_trivial_composite(self):
        k = make_komori(2, 1)
        report = is_prekernel(identity(k), identity(k))
        assert not report.ok
        assert "not trivial" in report.reason


class TestFactorizations:
    def test_unit_factorization_exists_and_is_unique(self):
        g = semisimple_map(radical_projection(MIXED))
        target = semisimple_quotient(MIXED).algebra
        u = unit_factorization(compose(radical_projection(MIXED),
                                       identity(target)))
        assert u.exists and u.unique
        assert same_morphism(
            compose(radical_projection(MIXED), u.mediator),
            radical_projection(MIXED))

    def test_unit_factorization_needs_semisimple_codomain(self):
        with pytest.raises(ValueError):
            unit_factorization(identity(CHANG))

    def test_counit_factorization(self):
        h = perfect_inclusion(MIXED)
        c = counit_factorization(h)
        assert c.exists and c.unique
        assert same_morphism(compose(c.mediator, perfect_inclusion(MIXED)),
                             h)

    def test_counit_factorization_needs_perfect_domain(self):
        with pytest.raises(ValueError):
            counit_factorization(identity(make_chain(2)))


class TestProtoadditivity:
    def test_symbolic_split_projection(self):
        prod = product([CHANG, make_chain(2)])
        p = Morphism(prod, CHANG, CoordMap(((0, 1, ((0, 1),)),)), "first")
        eta = radical_projection(CHANG)
        double = Morphism(eta.cod, make_chain(2),
                          FiniteMapBody(((0,), (2,))), "double")
        s = Morphism(CHANG, prod,
                     CoordMap(identity(CHANG).body.rows
                              + compose(eta, double).body.rows), "section")
        assert same_morphism(compose(s, p), identity(CHANG))
        for g in [from_initial(CHANG), identity(CHANG)]:
            report = protoadditivity_check(p, s, g)
            assert report.ok, report
            assert report.compared >= 6

    def test_finite_diagonal_section(self):
        c2 = to_finite(make_chain(2))
        sq = to_finite(product([make_chain(2), make_chain(2)]))
        pairs = list(itertools.product(range(3), repeat=2))
        proj = Morphism(sq, c2,
                        FiniteMapBody(tuple(pairs[i][0] for i in range(9))),
                        "first")
        diag = Morphism(c2, sq,
                        FiniteMapBody(tuple(pairs.index((x, x))
                                            for x in range(3))), "diagonal")
        assert same_morphism(compose(diag, proj), identity(c2))
        report = protoadditivity_check(proj, diag, identity(c2))
        assert report.ok and report.compared >= 6
