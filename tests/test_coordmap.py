"""The CoordMap normal form of maps between block products.

Every homomorphism between block products reads each codomain block from
one domain block, scaled in height, with each infinitesimal coordinate
either zero or a positive multiple of one source coordinate.  These tests
check that the normal form covers every hom table of the small catalog
exactly once, that its closed formulas agree with pointwise evaluation,
and that different constructions of one map compare equal.
"""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mvtk import (
    Chain,
    CoordMap,
    FiniteMapBody,
    Komori,
    MarkerIdeal,
    Morphism,
    SymbolicAlgebra,
    all_ideals,
    chain_product_catalog,
    compose,
    corestrict,
    elements,
    em_factorize,
    enumerate_homs,
    factor_through_quotient,
    from_initial,
    ideal_contains,
    ideal_leq,
    ideal_meet,
    ideal_subalgebra,
    identity,
    image_ideal,
    initial_algebra,
    is_morphism,
    is_trivial_morphism,
    kernel_pair,
    make_chain,
    make_komori,
    mediator_to_pullback,
    perfect_map,
    product,
    pullback,
    quotient,
    radical,
    radical_projection,
    random_block_algebra,
    same_morphism,
    sample_tuples,
    semisimple_map,
    semisimple_quotient,
    stability_check,
    subalgebra_decode,
    to_finite,
)
from oracles import hom_tables


def _candidates(dom, cod):
    """Every CoordMap between two chain products: per codomain block, a
    domain block whose height divides it."""
    per_block = [[(i, b.m // a.m, ()) for i, a in enumerate(dom.blocks)
                  if b.m % a.m == 0] for b in cod.blocks]
    return [CoordMap(rows) for rows in itertools.product(*per_block)]


class TestEveryHomDecodesOnce:
    def test_catalog_up_to_sixteen_elements(self):
        algebras = chain_product_catalog(16)
        total = 0
        for dom, cod in itertools.product(algebras, repeat=2):
            de = elements(dom)
            index = {y: k for k, y in enumerate(elements(cod))}
            tables = hom_tables(to_finite(dom), to_finite(cod))
            homs = enumerate_homs(dom, cod)
            assert len(homs) == len(tables)
            for h, t in zip(homs, tables):
                assert isinstance(h.body, CoordMap)
                assert tuple(index[h(x)] for x in de) == t
                assert h.is_surjective() == (len(set(t)) == len(index))
            decoded = collections.Counter(
                tuple(index[c(x)] for x in de) for c in _candidates(dom, cod))
            assert decoded == collections.Counter(tables), (dom, cod)
            total += len(tables)
        assert len(algebras) == 31
        assert total == 1765

    def test_a_table_that_is_not_a_homomorphism_is_refused(self):
        with pytest.raises(ValueError):
            Morphism(make_chain(1), make_chain(2),
                     FiniteMapBody(((0,), (1,))))


def _maps(algebra, rng):
    """Quotient, inclusion, projection and factor-through maps on one
    algebra, plus composites (with their two parts)."""
    ideals = all_ideals(algebra)
    i, j = rng.choice(ideals), rng.choice(ideals)
    q = quotient(algebra, i).projection
    incl = ideal_subalgebra(algebra, j).inclusion
    kept = tuple(sorted(rng.sample(range(len(algebra.blocks)),
                                   rng.randint(0, len(algebra.blocks)))))
    rows = identity(algebra).body.rows
    proj = Morphism(algebra,
                    SymbolicAlgebra([algebra.blocks[k] for k in kept]),
                    CoordMap(tuple(rows[k] for k in kept)))
    small = quotient(algebra, ideal_meet(algebra, i, j)).projection
    fac = factor_through_quotient(small, q)
    singles = [q, incl, proj, small, fac]
    pairs = [(incl, q), (small, fac), (incl, proj), (incl, small)]
    return singles, pairs


def _random_map(dom, rng):
    """A random CoordMap out of dom: per codomain block a source block, a
    height scale of 1 or 2, and placements with multipliers up to 3."""
    blocks, rows = [], []
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(dom.blocks))
        src, scale = dom.blocks[i], rng.randint(1, 2)
        if rng.random() < 0.3:
            blocks.append(Chain(src.m * scale))
            rows.append((i, scale, ()))
            continue
        r = rng.randint(1, 3)
        coords = tuple(
            (rng.randrange(src.r), rng.randint(1, 3))
            if isinstance(src, Komori) and rng.random() < 0.7 else None
            for _ in range(r))
        blocks.append(Komori(src.m * scale, r))
        rows.append((i, scale, coords))
    cod = SymbolicAlgebra(blocks)
    return Morphism(dom, cod, CoordMap(tuple(rows)))


class TestClosedFormulasAgreeWithPoints:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_komori_products(self, seed):
        rng = random.Random(seed)
        algebra = random_block_algebra(rng, max_r=2)
        singles, pairs = _maps(algebra, rng)
        wild = _random_map(algebra, rng)
        singles.append(wild)
        if wild.cod.blocks:
            pairs.append((wild, _random_map(wild.cod, rng)))
        composites = [(compose(f, g), f, g) for f, g in pairs]
        for m in singles + [c for c, _, _ in composites]:
            assert is_morphism(m, mode="sample", count=40, seed=seed).ok
            targets = all_ideals(m.cod)
            xs = [x for (x,) in sample_tuples(m.dom, 1, 30, rng)]
            for x in xs:
                y = m(x)
                assert m(subalgebra_decode(m, y)) == y
                assert ideal_contains(m.dom, m.kernel(), x) == (y == m.cod.zero)
                for k in rng.sample(targets, min(4, len(targets))):
                    assert ideal_contains(m.dom, m.preimage_ideal(k), x) \
                        == ideal_contains(m.cod, k, y)
            if not m.is_surjective():
                continue
            for (y,) in sample_tuples(m.cod, 1, 20, rng):
                x = subalgebra_decode(m, y)
                assert x is not None and m(x) == y
            for k in targets:
                assert image_ideal(m, m.preimage_ideal(k)) == k
            lows = all_ideals(m.dom)
            for low in rng.sample(lows, min(3, len(lows))):
                img = image_ideal(m, low)
                assert ideal_leq(m.dom, low, m.preimage_ideal(img))
                for x in xs:
                    if ideal_contains(m.dom, low, x):
                        assert ideal_contains(m.cod, img, m(x))
        for c, f, g in composites:
            for (x,) in sample_tuples(c.dom, 1, 30, rng):
                assert c(x) == g(f(x))
        small, fac = pairs[1]
        assert compose(small, fac).body == singles[0].body


class TestOneMapOneForm:
    MIXED = product([make_komori(2, 1), make_chain(2), make_komori(1, 2)])

    def test_factorization_recomposes_exactly(self):
        for ideal in all_ideals(self.MIXED):
            f = quotient(self.MIXED, ideal).projection
            fac = em_factorize(f)
            assert compose(fac.e, fac.m).body == f.body
            assert same_morphism(compose(fac.e, fac.m), f)

    def test_functors_preserve_identities_structurally(self):
        a = self.MIXED
        s = semisimple_quotient(a).algebra
        assert semisimple_map(identity(a)).body == identity(s).body
        f = quotient(a, radical(a)).projection
        assert perfect_map(compose(identity(a), f)).body == perfect_map(f).body

    def test_initial_map_has_one_form(self):
        a = product([make_komori(3, 1), make_chain(3)])
        listed = Morphism(initial_algebra(), a,
                          FiniteMapBody((a.zero, a.one)))
        assert listed.body == from_initial(a).body

    def test_kernel_pair_legs_agree_after_the_map(self):
        q = quotient(self.MIXED, radical(self.MIXED)).projection
        _, p1, p2 = kernel_pair(q)
        assert compose(p1, q).body == compose(p2, q).body
        assert p1.body != p2.body

    def test_stability_along_a_rebuilt_copy_of_the_map(self):
        eta = radical_projection(self.MIXED)
        again = radical_projection(self.MIXED)
        assert eta is not again and same_morphism(eta, again)
        report = stability_check(eta, again)
        assert report.ok
        assert report.projection.body == stability_check(eta, eta).projection.body


class TestTrivialWitnesses:
    def test_forced_elements_miss_two_source_blocks(self):
        eta = radical_projection(product([make_komori(1, 1), make_komori(1, 1)]))
        w = is_trivial_morphism(eta)
        assert not w.trivial
        assert w.witness == ((1, (0,)), (0, (0,)))
        assert eta(w.witness) not in (eta.cod.zero, eta.cod.one)

    def test_forced_elements_miss_a_tall_block(self):
        eta = radical_projection(make_komori(2, 1))
        w = is_trivial_morphism(eta)
        assert not w.trivial and w.witness == ((1, (0,)),)

    def test_forced_elements_miss_a_second_coordinate(self):
        k = make_komori(1, 2)
        q = quotient(k, MarkerIdeal((("sub", frozenset({0})),)))
        w = is_trivial_morphism(q.projection)
        assert not w.trivial and w.witness == ((0, (0, 1)),)

    def test_trivial_map_collapses_through_its_block(self):
        a = product([make_komori(1, 2), make_chain(3)])
        f = quotient(a, MarkerIdeal((("sub", frozenset({0, 1})), "full"))).projection
        w = is_trivial_morphism(f)
        assert w.trivial and w.via == "initial"
        assert compose(w.left, w.right).body == f.body


class TestUnsupportedShapes:
    K = make_komori(1, 1)

    def test_infinite_domain_into_a_table_algebra(self):
        eta = radical_projection(self.K)
        h = enumerate_homs(eta.cod, to_finite(eta.cod))[0]
        with pytest.raises(ValueError, match="infinite block product"):
            compose(eta, h)


C2, C3, CHANG = make_chain(2), make_chain(3), make_komori(1, 1)
T1, T2, T3, T4 = (to_finite(make_chain(n)) for n in (1, 2, 3, 4))


@pytest.mark.parametrize("build, error, text", [
    (lambda: Morphism(C2, C2, CoordMap(())),
     ValueError, "a coordinate map needs one row per codomain block"),
    (lambda: Morphism(C2, C2, CoordMap(((3, 1, ()),))),
     ValueError, "source block 3 out of range"),
    (lambda: Morphism(C2, C3, CoordMap(((0, 1, ()),))),
     ValueError, "scale 1 does not carry Chain(2) onto Chain(3)"),
    (lambda: Morphism(CHANG, CHANG, CoordMap(((0, 1, ()),))),
     ValueError, "Komori(1,1) needs one placement per coordinate"),
    (lambda: Morphism(CHANG, CHANG, CoordMap(((0, 1, ((5, 1),)),))),
     ValueError, "bad coordinate placement (5, 1) from Komori(1,1)"),
    (lambda: Morphism(C3, T3, CoordMap(((0, 1, ()),))),
     TypeError, "coordinate maps run between block products"),
    (lambda: Morphism(C2, C2, "x"), TypeError, "unknown body 'x'"),
    (lambda: Morphism(T3, T3, FiniteMapBody((0, 1))),
     ValueError, "value table does not cover the domain"),
], ids=["rows", "source", "scale", "placements", "placement", "table-side",
        "body", "cover"])
def test_a_body_is_refused_where_it_enters(build, error, text):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == text


@pytest.mark.parametrize("build, text", [
    (lambda: factor_through_quotient(
        Morphism(make_chain(1), C2, CoordMap(((0, 2, ()),))), identity(make_chain(1))),
     "f does not factor through the quotient"),
    (lambda: corestrict(identity(CHANG),
                        Morphism(CHANG, CHANG, CoordMap(((0, 1, ((0, 2),)),)))),
     "image of e escapes the subobject"),
    (lambda: corestrict(identity(C2), Morphism(product([C2, C3]), C2,
                                               CoordMap(((0, 1, ()),)))),
     "no map into Chain(3), which the corestriction does not see"),
    (lambda: factor_through_quotient(identity(C2), identity(C3)),
     "factorization needs a shared domain"),
    (lambda: corestrict(identity(C2), identity(C3)),
     "corestriction needs matching codomains"),
    (lambda: pullback(identity(C2), identity(C3)), "pullback needs a shared codomain"),
    (lambda: mediator_to_pullback(pullback(identity(C2), identity(C2)),
                                  identity(C2), identity(C3)),
     "mediator needs a shared domain"),
    # legs that do not end where the projections do
    (lambda: mediator_to_pullback(pullback(identity(T2), identity(T2)),
                                  identity(T4), identity(T4)),
     "mediator needs u.cod == pb.left.cod and v.cod == pb.right.cod"),
    (lambda: mediator_to_pullback(pullback(identity(C2), identity(C2)),
                                  identity(make_chain(4)), identity(make_chain(4))),
     "mediator needs u.cod == pb.left.cod and v.cod == pb.right.cod"),
    (lambda: mediator_to_pullback(pullback(identity(T2), identity(T2)),
                                  Morphism(T1, T2, FiniteMapBody((0, 2))), identity(T1)),
     "mediator needs u.cod == pb.left.cod and v.cod == pb.right.cod"),
], ids=["scale", "multiplier", "unseen-block", "factor-domains",
        "corestrict-codomains", "pullback-codomains", "mediator-domains",
        "mediator-table-legs", "mediator-block-legs", "mediator-right-leg"])
def test_a_body_operation_refuses_what_has_no_answer(build, text):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == text
