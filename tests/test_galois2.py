"""Extension squares, regular pushouts, and the two-ideal commutator."""

import itertools
import random

import pytest

import mvtk.ideals as ideals_module
from mvtk import (
    ExtensionSquare,
    FiniteIdeal,
    MarkerIdeal,
    all_ideals,
    carrier_size,
    central_reflection,
    chain_product_catalog,
    classify_double,
    classify_extension,
    commutator_pair,
    compose,
    describe,
    elements,
    em_factorize,
    factor_through_quotient,
    fill_diagonal,
    full_ideal,
    ideal_contains,
    ideal_elements,
    ideal_join,
    ideal_leq,
    ideal_meet,
    ideal_subalgebra,
    identity,
    image_ideal,
    is_precokernel,
    is_prekernel,
    is_regular_pushout,
    is_zero_ideal,
    make_chain,
    make_komori,
    pre_exact,
    product,
    quotient,
    radical,
    random_block_algebra,
    restrict_to_ideal_subalgebra,
    same_morphism,
    sample_tuples,
    square_from_ideals,
    to_finite,
    to_terminal,
    validate_ideal,
    validate_square,
    zero_ideal,
)
from mvtk.core import Chain, Komori, SymbolicAlgebra
from oracles import literal_comparison

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

    def test_comparison_agrees_with_the_literal_pullback(self):
        """The finite squares of the double-extension gate, and the
        degenerate square: the comparison decided on the chain views is
        onto exactly when the mediator into the literal pullback is."""
        c1 = to_finite(make_chain(1))
        g = to_terminal(c1)
        squares = [ExtensionSquare(identity(c1), identity(c1), g, g)]
        for fin in (to_finite(a) for a in chain_product_catalog(6)):
            ideals = all_ideals(fin)
            for i, j, k in itertools.product(ideals, repeat=3):
                if not ideal_leq(fin, ideal_join(fin, i, j), k):
                    continue
                top = quotient(fin, i).projection
                left = quotient(fin, j).projection
                qk = quotient(fin, k).projection
                squares.append(ExtensionSquare(top, left,
                                               factor_through_quotient(top, qk),
                                               factor_through_quotient(left, qk)))
        onto = 0
        for sq in squares:
            literal = literal_comparison(sq.bottom, sq.right, sq.left, sq.top)[1]
            assert is_regular_pushout(sq).comparison_surjective is literal
            onto += literal
        assert (len(squares), onto) == (77, 53)

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

    def test_full_k_keeps_one_marker_per_block(self):
        k = full_ideal(CHANG)
        r = restrict_to_ideal_subalgebra(CHANG, k, radical(CHANG))
        sub = ideal_subalgebra(CHANG, k).algebra
        assert validate_ideal(sub, r) == radical(sub)

    def test_table_with_full_k_restricts_the_zero_ideal(self):
        table = to_finite(make_chain(2))
        r = restrict_to_ideal_subalgebra(table, full_ideal(table),
                                         zero_ideal(table))
        assert r == FiniteIdeal(frozenset({0}))

    def test_table_rejects_a_full_w_over_a_zero_k(self):
        table = to_finite(make_chain(2))
        with pytest.raises(ValueError):
            restrict_to_ideal_subalgebra(table, zero_ideal(table),
                                         full_ideal(table))

    def test_table_escape_check_matches_the_marker_check(self):
        """On a product of chains the Boolean reading of the escape check
        refuses exactly the pairs the marker reading refuses."""
        algebra = product([make_chain(1), make_chain(2)])
        table = to_finite(algebra)
        index = {x: i for i, x in enumerate(elements(algebra))}

        def as_table(ideal):
            return FiniteIdeal(frozenset(
                index[x] for x in ideal_elements(algebra, ideal)))

        refused = 0
        for k, w in itertools.product(all_ideals(algebra), repeat=2):
            outcomes = []
            for alg, kk, ww in ((algebra, k, w),
                                (table, as_table(k), as_table(w))):
                try:
                    restrict_to_ideal_subalgebra(alg, kk, ww)
                    outcomes.append(False)
                except ValueError:
                    outcomes.append(True)
            assert outcomes[0] == outcomes[1], (k, w)
            refused += outcomes[0]
        assert refused == 7

    @pytest.mark.parametrize("seed", range(8))
    def test_every_restriction_validates(self, seed):
        """For every pair w <= k on a random block product, the restriction
        is an ideal of the subalgebra on k and holds exactly the points that
        the inclusion sends into w."""
        algebra = random_block_algebra(random.Random(seed), max_r=2)
        ideals = all_ideals(algebra)
        for k in ideals:
            sub = ideal_subalgebra(algebra, k)
            points = [x for (x,) in sample_tuples(
                sub.algebra, 1, 12, random.Random(f"{seed}:{k}"), 3)]
            for w in ideals:
                if not ideal_leq(algebra, w, k):
                    continue
                r = restrict_to_ideal_subalgebra(algebra, k, w)
                assert validate_ideal(sub.algebra, r) == r
                for x in points:
                    assert ideal_contains(sub.algebra, r, x) \
                        == ideal_contains(algebra, w, sub.inclusion(x))


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


class TestValidateOnce:
    """Public functions validate each ideal argument once; the library
    hands the ideals it builds to unchecked private helpers."""

    BAD = {
        "marker count": (CHANG, MarkerIdeal(("full", "full")),
                         ValueError, "marker count does not match block count"),
        "coordinate out of range": (
            CHANG, MarkerIdeal((("sub", {3}),)),
            ValueError, "sub coordinates out of range for Komori(1,1)"),
        "sub marker on a chain": (
            make_chain(2), MarkerIdeal((("sub", {0}),)),
            ValueError, "bad chain marker ('sub', {0})"),
        "table ideal on a block product": (
            CHANG, FiniteIdeal(frozenset({0})),
            TypeError, "symbolic algebra needs a MarkerIdeal"),
    }
    # each binary entry is called with the bad ideal first and second
    BINARY = (ideal_meet, ideal_join, ideal_leq, square_from_ideals,
              commutator_pair, restrict_to_ideal_subalgebra)

    def image_ideal_of_identity(a, i):
        return image_ideal(identity(a), i)

    def preimage_ideal_of_identity(a, i):
        return identity(a).preimage_ideal(i)

    UNARY = (is_zero_ideal, ideal_elements, quotient, ideal_subalgebra,
             image_ideal_of_identity, preimage_ideal_of_identity)

    @pytest.mark.parametrize("entry", BINARY + UNARY, ids=lambda e: e.__name__)
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_public_entries_still_validate(self, entry, bad):
        algebra, ideal, error, message = self.BAD[bad]
        zero = zero_ideal(algebra)
        calls = [(ideal, zero), (zero, ideal)] if entry in self.BINARY \
            else [(ideal,)]
        for args in calls:
            with pytest.raises(error) as caught:
                entry(algebra, *args)
            assert type(caught.value) is error and str(caught.value) == message

    @staticmethod
    def counting(monkeypatch):
        """Count the markers ``validate_ideal`` canonicalizes."""
        seen = []
        canon = ideals_module._canon_marker
        monkeypatch.setattr(ideals_module, "_canon_marker",
                            lambda b, m: seen.append(m) or canon(b, m))
        return seen

    MIXED = SymbolicAlgebra([Komori(1, 2), Komori(2, 1), Chain(3)])

    def test_library_built_ideals_are_not_canonicalized_again(self, monkeypatch):
        A = self.MIXED
        maps = [quotient(A, i).projection for i in all_ideals(A)]
        seen = self.counting(monkeypatch)
        for f in maps:
            classify_extension(f)
            fac = em_factorize(f)
            fill_diagonal(fac.e, fac.m, fac.e, fac.m)
            central_reflection(f)
            f.kernel()
        seq = pre_exact(A)
        assert is_prekernel(seq.inclusion, seq.projection).ok
        assert is_precokernel(seq.projection, seq.inclusion).ok
        assert seen == []

    def test_public_entries_canonicalize_each_argument_once(self, monkeypatch):
        A = self.MIXED
        lattice = all_ideals(A)
        pairs = random.Random(12).sample(
            list(itertools.product(lattice, repeat=2)), 40)
        assert {commutator_pair(A, i, j).style for i, j in pairs} == {
            "join_full", "proper_join"}
        seen = self.counting(monkeypatch)
        for entry in (commutator_pair, square_from_ideals, ideal_leq):
            for i, j in pairs:
                seen.clear()
                entry(A, i, j)
                assert len(seen) == 2 * len(A.blocks), entry.__name__
