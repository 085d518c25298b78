"""Extension squares, regular pushouts, and the two-ideal commutator."""

import itertools

import pytest

from mvtk import (
    CommutatorReport,
    ExtensionSquare,
    FiniteIdeal,
    MarkerIdeal,
    all_ideals,
    carrier_size,
    central_reflection,
    classify_double,
    classify_extension,
    commutator_pair,
    compose,
    describe,
    full_ideal,
    ideal_contains,
    ideal_elements,
    ideal_join,
    ideal_leq,
    ideal_meet,
    identity,
    is_regular_pushout,
    is_zero_ideal,
    make_chain,
    make_komori,
    product,
    quotient,
    radical,
    restrict_to_ideal_subalgebra,
    same_morphism,
    square_from_ideals,
    to_finite,
    to_terminal,
    validate_square,
    zero_ideal,
)

CHANG = make_komori(1, 1)
A = product([make_komori(1, 1), make_chain(2)])
CHANG2 = product([make_komori(1, 1), make_komori(1, 1)])

RAD_FIRST = MarkerIdeal((("sub", frozenset({0})), "zero"))
DROP_CHAIN = MarkerIdeal((("sub", frozenset()), "full"))


class TestRegularPushouts:
    def test_two_ideal_square_commutes_and_pushes_out(self):
        sq = square_from_ideals(A, RAD_FIRST, DROP_CHAIN)
        validate_square(sq)
        assert same_morphism(compose(sq.top, sq.right),
                             compose(sq.left, sq.bottom))
        rep = is_regular_pushout(sq)
        assert rep.ok
        assert rep.kernel_image == rep.bottom_kernel
        assert rep.kernel_image.markers == ("zero", "full")

    def test_every_two_ideal_square_is_a_regular_pushout(self):
        lattice = all_ideals(A)
        for i, j in itertools.product(lattice, repeat=2):
            assert is_regular_pushout(square_from_ideals(A, i, j)).ok

    def test_degenerate_square_fails(self):
        c1 = to_finite(make_chain(1))
        g = to_terminal(c1)
        bad = ExtensionSquare(identity(c1), identity(c1), g, g)
        rep = is_regular_pushout(bad)
        assert not rep.ok
        assert rep.comparison_surjective is False

    def test_ideal_criterion_matches_literal_comparison(self):
        fin = to_finite(product([make_chain(1), make_chain(2)]))
        for i, j in itertools.product(all_ideals(fin), repeat=2):
            sq = square_from_ideals(fin, i, j)
            rep = is_regular_pushout(sq)
            assert rep.ok
            assert rep.comparison_surjective is True

    def test_double_classification_requires_regular_pushout(self):
        c1 = to_finite(make_chain(1))
        g = to_terminal(c1)
        bad = ExtensionSquare(identity(c1), identity(c1), g, g)
        with pytest.raises(ValueError):
            classify_double(bad)

    def test_double_centrality_reads_the_meet(self):
        sq = square_from_ideals(A, RAD_FIRST, DROP_CHAIN)
        dc = classify_double(sq)
        assert dc.regular_pushout and dc.central
        assert is_zero_ideal(A, dc.meet)
        same = square_from_ideals(A, RAD_FIRST, RAD_FIRST)
        dc2 = classify_double(same)
        assert dc2.regular_pushout and not dc2.central
        assert dc2.meet == RAD_FIRST


class TestCentralReflection:
    def test_reflection_of_a_mixed_collapse(self):
        f = quotient(A, MarkerIdeal((("sub", frozenset({0})), "full"))
                     ).projection
        cr = central_reflection(f)
        assert cr.theta.markers == (("sub", frozenset({0})), "zero")
        assert cr.regular_pushout and cr.central and cr.idempotent
        assert describe(cr.reflected.dom) == "Chain(1) x Chain(2)"
        assert describe(cr.reflected.cod) == "Chain(1)"
        assert classify_extension(cr.reflected).central

    def test_reflection_of_a_central_map_is_itself(self):
        f = quotient(A, DROP_CHAIN).projection
        cr = central_reflection(f)
        assert is_zero_ideal(A, cr.theta)
        assert cr.central and cr.idempotent
        assert describe(cr.reflected.dom) == describe(A)

    def test_reflection_is_always_central(self):
        for ideal in all_ideals(A):
            f = quotient(A, ideal).projection
            cr = central_reflection(f)
            assert cr.central and cr.regular_pushout and cr.idempotent
            assert cr.theta == ideal_meet(A, f.kernel(), radical(A))


class TestRestriction:
    def test_restricting_the_radical_to_a_tail_subalgebra(self):
        k = MarkerIdeal((("sub", frozenset({0})), ("sub", frozenset({0}))))
        w = MarkerIdeal((("sub", frozenset({0})), ("sub", frozenset())))
        r = restrict_to_ideal_subalgebra(CHANG2, k, w)
        assert r.markers == (("sub", frozenset({0})),)

    def test_rejects_ideals_that_escape(self):
        with pytest.raises(ValueError):
            restrict_to_ideal_subalgebra(A, RAD_FIRST, DROP_CHAIN)


class TestCommutatorPairs:
    def test_crossed_radicals_commute(self):
        i = MarkerIdeal((("sub", frozenset({0})), ("sub", frozenset())))
        j = MarkerIdeal((("sub", frozenset()), ("sub", frozenset({0}))))
        r = commutator_pair(CHANG2, i, j)
        assert r.in_center and r.double_central and r.radical_compatible
        assert is_zero_ideal(CHANG2, r.ideal)
        assert r.style == "proper_join"
        assert describe(r.base) == "Komori(1,2)"
        assert describe(r.subalgebra.algebra) == "Chain(1)"

    def test_radical_against_itself_does_not_vanish(self):
        rad = radical(CHANG2)
        r = commutator_pair(CHANG2, rad, rad)
        assert not r.in_center and not r.double_central
        assert r.ideal == rad
        assert describe(r.subalgebra.algebra) == "Komori(1,2)"

    def test_mixed_product_pairs(self):
        i = MarkerIdeal((("sub", frozenset({0})), "zero"))
        j = MarkerIdeal((("sub", frozenset({0})), "full"))
        r = commutator_pair(A, i, j)
        assert not r.in_center
        assert r.ideal.markers == (("sub", frozenset({0})), "zero")
        assert describe(r.base) == "Chain(2) x Komori(1,1)"
        r2 = commutator_pair(A, DROP_CHAIN, i)
        assert r2.in_center

    def test_full_join_style_on_a_finite_square(self):
        c1sq = to_finite(product([make_chain(1), make_chain(1)]))
        r = commutator_pair(c1sq, FiniteIdeal(frozenset({0, 1})),
                            FiniteIdeal(frozenset({0, 2})))
        assert r.in_center and r.style == "join_full"
        assert carrier_size(r.square.right.cod) == 1

    def test_commutator_is_symmetric_and_monotone(self):
        lattice = all_ideals(A)
        for i, j in itertools.product(lattice, repeat=2):
            r = commutator_pair(A, i, j)
            assert r.ideal == commutator_pair(A, j, i).ideal
            assert ideal_leq(A, r.ideal, ideal_meet(A, i, j))
            assert r.ideal == ideal_meet(
                A, radical(A), ideal_meet(A, i, j))
            assert r.in_center == is_zero_ideal(A, r.ideal)
            assert r.double_central == r.in_center

    def test_finite_pairs_always_commute(self):
        fin = to_finite(product([make_chain(1), make_chain(2)]))
        for i, j in itertools.product(all_ideals(fin), repeat=2):
            r = commutator_pair(fin, i, j)
            assert r.in_center
            assert is_zero_ideal(fin, r.ideal)
