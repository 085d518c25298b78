"""Quotients, subalgebras, pullbacks, and kernel pairs."""

import itertools
import random
import re

import pytest

from mvtk import (
    CoordMap,
    FiniteIdeal,
    FiniteMapBody,
    MarkerIdeal,
    Morphism,
    SymbolicAlgebra,
    all_ideals,
    are_isomorphic,
    carrier_size,
    compose,
    describe,
    elements,
    enumerate_homs,
    factor_through_quotient,
    find_isomorphism,
    from_initial,
    full_ideal,
    ideal_subalgebra,
    identity,
    image_ideal,
    image_set,
    is_morphism,
    kernel_pair,
    make_chain,
    make_komori,
    mediator_to_pullback,
    product,
    product_with_projections,
    pullback,
    quotient,
    radical,
    radical_projection,
    random_block_algebra,
    same_morphism,
    subalgebra_decode,
    to_finite,
    to_terminal,
    zero_ideal,
)

CHANG = make_komori(1, 1)


class TestQuotients:
    def test_killing_the_radical_tail_leaves_a_chain(self):
        k = make_komori(2, 1)
        q = quotient(k, MarkerIdeal((("sub", frozenset({0})),)))
        assert describe(q.algebra) == "Chain(2)"
        assert q.projection(((1, (9,)),)) == (1,)
        assert q.projection(((0, (5,)),)) == (0,)

    def test_collapsing_one_product_factor(self):
        prod = product([make_chain(1), make_chain(2)])
        q = quotient(prod, MarkerIdeal(("full", "zero")))
        assert are_isomorphic(q.algebra, make_chain(2))
        assert q.projection((1, 2)) == (2,)

    def test_quotient_by_zero_is_bijective(self):
        prod = product([make_chain(1), make_chain(2)])
        q = quotient(prod, zero_ideal(prod))
        assert q.projection.is_injective() and q.projection.is_surjective()

    def test_quotient_by_full_is_terminal(self):
        q = quotient(CHANG, full_ideal(CHANG))
        assert carrier_size(q.algebra) == 1

    def test_projection_kernel_recovers_the_ideal(self):
        prod = product([make_komori(2, 1), make_chain(2)])
        for ideal in all_ideals(prod):
            q = quotient(prod, ideal)
            assert q.projection.kernel() == ideal
            assert is_morphism(q.projection, mode="sample", count=150).ok

    def test_finite_quotient_by_explicit_index_ideal(self):
        sym = product([make_chain(1), make_chain(2)])
        idx = {e: i for i, e in enumerate(elements(sym))}
        fin = to_finite(sym)
        first_factor = FiniteIdeal(frozenset({idx[(0, 0)], idx[(1, 0)]}))
        q = quotient(fin, first_factor)
        assert carrier_size(q.algebra) == 3
        assert are_isomorphic(q.algebra, make_chain(2))


class TestFactorisation:
    def test_factor_through_quotient(self):
        prod = product([make_chain(1), make_chain(2)])
        q = quotient(prod, MarkerIdeal(("full", "zero")))
        f = quotient(prod, full_ideal(prod)).projection
        g = factor_through_quotient(q.projection, f)
        assert same_morphism(compose(q.projection, g), f)

    def test_factor_requires_kernel_containment(self):
        prod = product([make_chain(1), make_chain(2)])
        big = quotient(prod, MarkerIdeal(("full", "zero"))).projection
        small = quotient(prod, zero_ideal(prod)).projection
        with pytest.raises(ValueError):
            factor_through_quotient(big, small)

    def test_factor_refuses_a_table_map_not_constant_on_classes(self):
        fin = to_finite(product([make_chain(1), make_chain(1)]))
        q = quotient(fin, FiniteIdeal(frozenset({0, 1}))).projection
        f = Morphism(fin, to_finite(make_chain(1)), FiniteMapBody((0, 0, 1, 0)))
        with pytest.raises(ValueError, match="must sit inside ker f"):
            factor_through_quotient(q, f)

    def test_factor_takes_no_kernel(self, monkeypatch):
        prod = product([make_chain(1), make_chain(2)])
        q = quotient(prod, MarkerIdeal(("full", "zero"))).projection
        f = quotient(prod, full_ideal(prod)).projection
        fin = to_finite(prod)
        qt = quotient(fin, zero_ideal(fin)).projection
        ft = quotient(fin, full_ideal(fin)).projection
        kernels = []
        kernel = Morphism.kernel
        monkeypatch.setattr(Morphism, "kernel",
                            lambda self: kernels.append(self) or kernel(self))
        factor_through_quotient(q, f)
        factor_through_quotient(qt, ft)
        with pytest.raises(ValueError):
            factor_through_quotient(f, q)
        assert kernels == []

    def test_factored_map_kernel(self):
        prod = product([make_chain(1), make_chain(2)])
        q = quotient(prod, MarkerIdeal(("zero", "zero"))).projection
        f = quotient(prod, MarkerIdeal(("zero", "full"))).projection
        d = factor_through_quotient(q, f)
        assert d.kernel().markers == ("zero", "full")

    def test_image_ideal_pushes_markers(self):
        prod = product([make_komori(1, 1), make_chain(2)])
        q = quotient(prod, MarkerIdeal((("sub", frozenset()), "full")))
        img = image_ideal(q.projection,
                          MarkerIdeal((("sub", frozenset({0})), "zero")))
        assert img.markers == (("sub", frozenset({0})),)


class TestSubalgebras:
    def test_radical_subalgebra_of_chang_is_everything(self):
        sub = ideal_subalgebra(CHANG, radical(CHANG))
        assert describe(sub.algebra) == describe(CHANG)
        assert same_morphism(sub.inclusion, identity(CHANG))

    def test_zero_ideal_gives_initial_copy(self):
        sub = ideal_subalgebra(CHANG, zero_ideal(CHANG))
        assert carrier_size(sub.algebra) == 2
        assert sub.inclusion(sub.algebra.zero) == CHANG.zero
        assert sub.inclusion(sub.algebra.one) == CHANG.one

    def test_product_factor_as_subalgebra(self):
        prod = product([make_komori(2, 1), make_chain(2)])
        sub = ideal_subalgebra(prod, MarkerIdeal(("full", "zero")))
        assert describe(sub.algebra) == "Komori(2,1) x Chain(1)"
        assert sub.inclusion(((1, (4,)), 0)) == ((1, (4,)), 0)
        # the two-point second factor lands on the ambient chain endpoints
        top = sub.inclusion(((1, (4,)), 1))
        assert top == ((1, (4,)), 2)
        assert subalgebra_decode(sub.inclusion, top) == ((1, (4,)), 1)

    def test_inclusion_is_injective_morphism(self):
        prod = product([make_komori(2, 1), make_chain(2)])
        for ideal in all_ideals(prod):
            sub = ideal_subalgebra(prod, ideal)
            assert sub.inclusion.is_injective()
            assert is_morphism(sub.inclusion, mode="sample", count=120).ok


class TestHoms:
    def test_hom_count_is_capped_before_any_is_built(self):
        # each codomain chain reads one of 9 domain chains: 9**9 homs
        nine = product([make_chain(1)] * 9)
        with pytest.raises(ValueError, match=r"^more than 65536 homs to list$"):
            enumerate_homs(nine, nine)
        # a table side too: 2**17 homs out of Chain(1) x Chain(1)
        with pytest.raises(ValueError, match=r"^more than 65536 homs to list$"):
            enumerate_homs(to_finite(product([make_chain(1)] * 2)),
                           product([make_chain(1)] * 17))
        four = product([make_chain(1)] * 4)
        assert len(enumerate_homs(four, four)) == 256

    def test_chain_hom_counts_follow_divisibility(self):
        for n, m in itertools.product(range(1, 6), repeat=2):
            homs = enumerate_homs(to_finite(make_chain(n)),
                                  to_finite(make_chain(m)))
            expected = 1 if m % n == 0 else 0
            assert len(homs) == expected, (n, m)

    def test_surjective_chain_homs_are_identities(self):
        for n, m in itertools.product(range(1, 5), repeat=2):
            homs = enumerate_homs(to_finite(make_chain(n)),
                                  to_finite(make_chain(m)))
            for h in homs:
                if h.is_surjective():
                    assert n == m

    def test_find_isomorphism_between_shuffled_products(self):
        a = to_finite(product([make_chain(1), make_chain(2)]))
        b = to_finite(product([make_chain(2), make_chain(1)]))
        iso = find_isomorphism(a, b)
        assert iso is not None
        assert iso.is_injective() and iso.is_surjective()
        assert find_isomorphism(a, to_finite(make_chain(5))) is None

    def test_initial_map_exists_everywhere(self):
        for target in [CHANG, product([make_chain(2), make_komori(1, 2)])]:
            m = from_initial(target)
            assert m(m.dom.zero) == target.zero
            assert m(m.dom.one) == target.one
            assert is_morphism(m, mode="sample", count=60).ok


class TestPullbacks:
    def test_pullback_square_commutes(self):
        c2 = to_finite(make_chain(2))
        f = to_terminal(c2)
        pb = pullback(f, f)
        assert carrier_size(pb.algebra) == 9
        assert same_morphism(compose(pb.left, f), compose(pb.right, f))

    def test_mediator_is_unique_diagonal(self):
        c2 = to_finite(make_chain(2))
        f = to_terminal(c2)
        pb = pullback(f, f)
        med = mediator_to_pullback(pb, identity(c2), identity(c2))
        for x in range(c2.size):
            assert pb.left(med(x)) == x
            assert pb.right(med(x)) == x

    def test_mediator_rejects_non_commuting_input(self):
        c1 = to_finite(make_chain(1))
        c2 = to_finite(make_chain(2))
        up = enumerate_homs(c1, c2)[0]
        pb = pullback(to_terminal(c2), to_terminal(c2))
        med = mediator_to_pullback(pb, up, up)
        assert med(0) == pb.pairs.index((0, 0))

    def test_kernel_pair_of_symbolic_quotient_permutes_tails(self):
        k = make_komori(1, 3)
        q = quotient(k, MarkerIdeal((("sub", frozenset({1})),)))
        kp, p1, p2 = kernel_pair(q.projection)
        x = next(e for e in [((0, (5, 7, 9, 11)),)] if kp.contains(e))
        assert p1(x) == ((0, (5, 7, 9)),)
        assert p2(x) == ((0, (5, 11, 9)),)
        assert same_morphism(compose(p1, q.projection),
                             compose(p2, q.projection))

    def test_kernel_pair_of_injection_is_diagonal(self):
        c2 = to_finite(make_chain(2))
        kp, p1, p2 = kernel_pair(identity(c2))
        assert carrier_size(kp) == 3
        assert same_morphism(p1, p2)



def _box(algebra, k):
    """Elements of a block product whose coordinates lie in [-k, k]."""
    per_block = [[x for a in range(b.m + 1)
                  for v in itertools.product(range(-k, k + 1), repeat=b.r)
                  for x in [(a, v) if b.r else a]
                  if SymbolicAlgebra([b]).contains((x,))]
                 for b in algebra.blocks]
    return list(itertools.product(*per_block))


def _assert_bounded_pullback(f, h):
    """P -> B x C is injective on P's coordinates in [-1, 1] and hits every
    pair (b, c) with f(b) = h(c) and coordinates in [-1, 1]."""
    pb = pullback(f, h)
    assert pb.pairs is None
    assert same_morphism(compose(pb.left, f), compose(pb.right, h))
    over = {}
    for c in _box(h.dom, 1):
        over.setdefault(h(c), []).append(c)
    pairs = {(b, c) for b in _box(f.dom, 1) for c in over.get(f(b), ())}
    legs = [(pb.left(x), pb.right(x)) for x in _box(pb.algebra, 1)]
    assert len(set(legs)) == len(legs)
    assert pairs <= set(legs)


class TestBlockPullbacks:
    def test_bounded_brute_force(self):
        """Random quotients e against identities, e itself, maps out of
        the initial algebra and ideal-subalgebra inclusions, with the onto
        leg on either side."""
        checked = 0
        for seed in range(10):
            rng = random.Random(f"pb:{seed}")
            alg = random_block_algebra(rng, max_r=2)
            ideals = all_ideals(alg)
            e = quotient(alg, ideals[rng.randrange(len(ideals))]).projection
            D = e.cod
            sub = all_ideals(D)[rng.randrange(len(all_ideals(D)))]
            for g in (identity(D), e, from_initial(D),
                      ideal_subalgebra(D, sub).inclusion):
                _assert_bounded_pullback(e, g)
                _assert_bounded_pullback(g, e)
                checked += 2
        assert checked == 80

    def test_multiplied_coordinates(self):
        k21 = make_komori(2, 1)
        e = quotient(make_komori(2, 2),
                     MarkerIdeal((("sub", frozenset({1})),))).projection
        double = Morphism(k21, k21, CoordMap(((0, 1, ((0, 2),)),)))
        shifted = Morphism(make_komori(1, 2), k21,
                           CoordMap(((0, 2, (None,)),)))
        for g in (double, shifted):
            _assert_bounded_pullback(e, g)
            _assert_bounded_pullback(g, e)

    def test_mediator_tuples_rows(self):
        k = make_komori(1, 3)
        q = quotient(k, MarkerIdeal((("sub", frozenset({1})),))).projection
        pb = pullback(q, q)
        med = mediator_to_pullback(pb, identity(k), identity(k))
        assert same_morphism(compose(med, pb.left), identity(k))
        assert same_morphism(compose(med, pb.right), identity(k))
        swap = Morphism(k, k, CoordMap(((0, 1, ((1, 1), (0, 1), (2, 1))),)))
        with pytest.raises(ValueError, match="does not commute"):
            mediator_to_pullback(pb, identity(k), swap)

    def test_mediator_from_a_table_algebra(self):
        c2 = make_chain(2)
        pb = pullback(to_terminal(c2), to_terminal(c2))
        assert describe(pb.algebra) == "Chain(2) x Chain(2)"
        listed = Morphism(to_finite(c2), c2, FiniteMapBody(tuple(elements(c2))))
        med = mediator_to_pullback(pb, listed, listed)
        assert [med(i) for i in range(3)] == [(0, 0), (1, 1), (2, 2)]

    def test_kernel_pair_of_a_symbolic_injection_is_diagonal(self):
        k21 = make_komori(2, 1)
        incl = ideal_subalgebra(k21, radical(k21)).inclusion
        assert not incl.is_surjective()
        kp, p1, p2 = kernel_pair(incl)
        assert same_morphism(p1, p2)
        assert kp == incl.dom

    def test_two_legs_not_onto_are_not_implemented(self):
        k6 = make_komori(6, 1)
        f = Morphism(make_komori(2, 1), k6, CoordMap(((0, 3, ((0, 1),)),)))
        g = Morphism(make_komori(3, 1), k6, CoordMap(((0, 2, ((0, 1),)),)))
        with pytest.raises(NotImplementedError, match="one of them onto"):
            pullback(f, g)

class TestProducts:
    def test_projections_cover(self):
        prod, projs = product_with_projections(
            [make_chain(2), make_komori(1, 1)])
        assert describe(prod) == "Chain(2) x Komori(1,1)"
        x = ((1,), ((0, (3,)),))
        packed = (1, (0, (3,)))
        assert projs[0](packed) == (1,)
        assert projs[1](packed) == ((0, (3,)),)

    def test_projections_need_block_products(self):
        with pytest.raises(ValueError):
            product_with_projections([make_chain(2), to_finite(make_chain(1))])

    def test_image_set_of_finite_surjection(self):
        prod = to_finite(product([make_chain(1), make_chain(1)]))
        q = quotient(prod, FiniteIdeal(frozenset({0, 1})))
        assert image_set(q.projection) == set(range(2))


MIXED = product([CHANG, make_chain(2)])


@pytest.mark.parametrize("m, x", [
    (identity(make_chain(2)), (7,)),
    (radical_projection(MIXED), (5, 9)),
    (identity(to_finite(make_chain(2))), 99),
    (radical_projection(MIXED), "x"),
], ids=["chain-level", "mixed-levels", "table-index", "mixed-string"])
def test_a_morphism_refuses_a_non_element(m, x):
    """Evaluation checks its argument against the domain, as
    ``ideal_contains`` does, instead of running the body on it."""
    with pytest.raises(ValueError, match=rf"^not an element: {re.escape(repr(x))}$"):
        m(x)
