"""Every body operation on table maps, held to its pointwise definition.

A map with a table side runs the same CoordMap formulas as a map between
block products, on the chain view of each table.  These tests take every
pair of catalog tables of at most 12 elements, each also with its
elements relabelled, and every hom ``enumerate_homs`` lists between
them, and compare kernels, surjectivity, images of ideals, subalgebra
decoding, composites, factorizations through quotients, corestrictions,
pullbacks and their mediators with definitions written out here element
by element.
"""

import itertools
import random

import pytest

from mvtk import (
    CoordMap,
    FiniteMapBody,
    Morphism,
    all_ideals,
    chain_product_catalog,
    compose,
    corestrict,
    enumerate_homs,
    factor_through_quotient,
    ideal_subalgebra,
    identity,
    image_ideal,
    make_chain,
    make_finite,
    make_komori,
    mediator_to_pullback,
    pullback,
    quotient,
    radical_projection,
    subalgebra_decode,
    to_finite,
)


def relabelled(table, seed):
    perm = list(range(table.size))
    random.Random(seed).shuffle(perm)
    back = {p: i for i, p in enumerate(perm)}
    n = range(table.size)
    return make_finite([perm[table.neg_row[back[x]]] for x in n],
                       [[perm[table.plus_rows[back[x]][back[y]]] for y in n]
                        for x in n], perm[table.zero])


CATALOG = [to_finite(a) for a in chain_product_catalog(12)]
TABLES = CATALOG + [relabelled(t, f"one-body:{k}")
                    for k, t in enumerate(CATALOG) if t.size > 2]
HOMS = {(a, b): enumerate_homs(TABLES[a], TABLES[b])
        for a, b in itertools.product(range(len(TABLES)), repeat=2)}


def table_homs():
    for (i, j), homs in HOMS.items():
        for h in homs:
            yield TABLES[i], TABLES[j], h


def image(h):
    return {h(x) for x in range(h.dom.size)}


def test_the_catalog_is_covered():
    assert len(CATALOG) == 21 and len(TABLES) == 40
    assert sum(map(len, HOMS.values())) > 1000


def test_kernels_surjectivity_and_images():
    for A, B, h in table_homs():
        assert h.kernel().elements == {x for x in range(A.size) if h(x) == B.zero}
        assert h.is_surjective() == (len(image(h)) == B.size)
        assert h.is_injective() == (len(image(h)) == A.size)
        if h.is_surjective():
            for ideal in all_ideals(A):
                assert image_ideal(h, ideal).elements == {h(x) for x in ideal.elements}


def test_composites():
    for (i, j), homs in HOMS.items():
        for f, g in itertools.product(homs, HOMS[j, i]):
            c = compose(f, g)
            assert c.body.table == tuple(g(f(x)) for x in range(TABLES[i].size))
            assert c.kernel().elements == {x for x in range(TABLES[i].size)
                                           if g(f(x)) == TABLES[i].zero}


def test_factorizations_through_quotients():
    for A, B, h in table_homs():
        for ideal in all_ideals(A):
            q = quotient(A, ideal).projection
            lifts = {}
            constant = all(lifts.setdefault(q(x), h(x)) == h(x) for x in range(A.size))
            if not constant:
                with pytest.raises(ValueError):
                    factor_through_quotient(q, h)
                continue
            g = factor_through_quotient(q, h)
            assert g.body.table == tuple(lifts[y] for y in range(q.cod.size))


def test_corestrictions_and_subalgebra_decoding():
    for A, B, h in table_homs():
        for ideal in all_ideals(B):
            incl = ideal_subalgebra(B, ideal).inclusion
            members = incl.body.table
            assert set(members) == set(ideal.elements) | {B.neg(x) for x in ideal.elements}
            for y in range(B.size):
                x = subalgebra_decode(incl, y)
                assert x == (members.index(y) if y in members else None)
            if not image(h) <= set(members):
                with pytest.raises(ValueError):
                    corestrict(h, incl)
                continue
            phi = corestrict(h, incl)
            assert phi.body.table == tuple(members.index(h(x)) for x in range(A.size))


def pairs(f, g):
    return tuple((a, c) for a in range(f.dom.size) for c in range(g.dom.size)
                 if f(a) == g(c))


def assert_literal(pb, f, g):
    assert pb.pairs == pairs(f, g)
    assert pb.left.body.table == tuple(a for a, _ in pb.pairs)
    assert pb.right.body.table == tuple(c for _, c in pb.pairs)
    index = {p: k for k, p in enumerate(pb.pairs)}
    P = pb.algebra
    for k, (a, c) in enumerate(pb.pairs):
        assert P.neg(k) == index[f.dom.neg(a), g.dom.neg(c)]
        assert P.plus_rows[k] == tuple(index[f.dom.plus(a, a2), g.dom.plus(c, c2)]
                                       for a2, c2 in pb.pairs)


def test_pullbacks_and_mediators():
    for (i, j), homs in HOMS.items():
        A, B = TABLES[i], TABLES[j]
        for h in filter(Morphism.is_surjective, homs):
            check_pullbacks(A, B, h, HOMS[i, i])


def check_pullbacks(A, B, h, endomorphisms):
    pb = pullback(h, h)
    assert_literal(pb, h, h)
    med = mediator_to_pullback(pb, identity(A), identity(A))
    assert [pb.pairs[med(x)] for x in range(A.size)] == [(x, x) for x in range(A.size)]
    for u in endomorphisms:
        if any(h(u(x)) != h(x) for x in range(A.size)):
            with pytest.raises(ValueError):
                mediator_to_pullback(pb, u, identity(A))
        else:
            med = mediator_to_pullback(pb, u, identity(A))
            assert [pb.pairs[med(x)] for x in range(A.size)] == \
                [(u(x), x) for x in range(A.size)]
    eta = radical_projection(B)
    pb = pullback(h, eta)
    assert_literal(pb, h, eta)
    med = mediator_to_pullback(pb, radical_projection(A), h)
    assert [pb.pairs[med(x)] for x in range(A.size)] == \
        [(x, h(x)) for x in range(A.size)]


def test_a_composite_out_of_an_infinite_product_into_a_table_has_no_table():
    chang, c1 = make_komori(1, 1), make_chain(1)
    f = Morphism(chang, c1, CoordMap(((0, 1, ()),)))
    g = Morphism(c1, to_finite(c1), FiniteMapBody((0, 1)))
    with pytest.raises(ValueError, match="no representation"):
        compose(f, g)


def test_equal_tables_built_apart_have_one_chain_view():
    """A quotient or a pullback takes its chains in the order certifying
    its table finds, so a map into it composes with the maps out of an
    equal table built apart."""
    points = [to_finite(make_chain(1)), to_finite(make_chain(2))]
    for (i, j), homs in HOMS.items():
        A = TABLES[i]
        into = [quotient(A, ideal).projection for ideal in all_ideals(A)] + [
            mediator_to_pullback(pullback(h, h), identity(A), identity(A))
            for h in filter(Morphism.is_surjective, homs)]
        for m in into:
            again = make_finite(m.cod.neg_row, m.cod.plus_rows, m.cod.zero)
            for h in (h for b in points for h in enumerate_homs(again, b)):
                assert compose(m, h).body.table == tuple(h(m(x)) for x in range(A.size))
