"""The semisimple reflection of a table is its identity.

A finite MV-algebra is a product of chains, and a chain has no nonzero
infinitesimal, so the radical of a table is zero and A/Rad A is A.  The
library reads this off the chain decomposition: ``_radical`` returns the
zero ideal after certifying the table, a quotient by the zero ideal is
the table itself, and the literal pullback of two table maps is laid
out by the chain formula from the codes of its pairs.  These tests hold
``_radical`` to the three literal radical methods, the reflection to the
table itself, and the pullback to ``table_on`` over the list of pairs,
inlined here as an oracle.
"""

import itertools
import random

import pytest

from mvtk import (
    chain_product_catalog,
    elements,
    enumerate_homs,
    image_set,
    kernel_pair,
    make_chain,
    make_finite,
    product,
    radical,
    random_block_algebra,
    semisimple_quotient,
    to_finite,
)
from mvtk.core import table_on
from mvtk.ideals import _radical
from mvtk.morphisms import _quotient, pullback


def tables(max_size):
    return [to_finite(a) for a in chain_product_catalog(max_size)]


def surjections(doms, cod):
    return [h for dom in doms for h in enumerate_homs(dom, cod)
            if len(image_set(h)) == cod.size]


class TestRadicalReadOff:
    def test_every_literal_method_finds_the_zero_ideal(self):
        for table in tables(30):
            for method in ("inf", "maximal", "nilpotent"):
                assert _radical(table) == radical(table, method)

    def test_block_products_keep_the_marker_formula(self):
        for seed in range(100):
            algebra = random_block_algebra(random.Random(f"cls:{seed}"))
            assert _radical(algebra) == radical(algebra)

    def test_a_table_that_is_not_an_mv_algebra_is_refused_alike(self):
        messages = []
        for tool in (radical, _radical):
            with pytest.raises(ValueError, match="^not an MV-algebra") as err:
                tool(make_finite([1, 0], [[0, 0], [0, 0]]))
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestZeroIdealQuotient:
    def test_the_semisimple_reflection_is_the_table_itself(self):
        for table in tables(24):
            eta = semisimple_quotient(table)
            assert eta.algebra is table
            assert eta.projection.body.table == tuple(range(table.size))


def pairs_pullback(f, g):
    """The pullback of f and g as ``table_on`` over the list of pairs."""
    ea, ec = elements(f.dom), elements(g.dom)
    pairs = [(a, c) for a in ea for c in ec if f(a) == g(c)]
    pb = table_on(pairs,
                  lambda p, q: (f.dom.plus(p[0], q[0]), g.dom.plus(p[1], q[1])),
                  lambda p: (f.dom.neg(p[0]), g.dom.neg(p[1])),
                  (f.dom.zero, g.dom.zero))
    return pb, tuple(pairs)


def assert_literal_pullback(pb, f, g):
    table, pairs = pairs_pullback(f, g)
    assert pb.pairs == pairs
    assert (pb.algebra.neg_row, pb.algebra.plus_rows, pb.algebra.zero) == \
        (table.neg_row, table.plus_rows, table.zero)
    assert (pb.left.dom, pb.left.cod) == (pb.algebra, f.dom)
    assert (pb.right.dom, pb.right.cod) == (pb.algebra, g.dom)
    assert pb.left.body.table == tuple(a for a, _ in pairs)
    assert pb.right.body.table == tuple(c for _, c in pairs)


class TestLiteralPullback:
    def test_every_pair_of_surjections_between_small_tables(self):
        small = tables(12)
        count = 0
        for cod in small:
            onto = surjections(small, cod)
            for f, g in itertools.product(onto, repeat=2):
                assert_literal_pullback(pullback(f, g), f, g)
                count += 1
        assert count == 801

    def test_kernel_pairs_of_table_maps(self):
        small = tables(12)
        for dom, cod in itertools.product(small, repeat=2):
            for e in enumerate_homs(dom, cod):
                q = _quotient(dom, e.kernel(), "quotient").projection
                P, left, right = kernel_pair(e)
                pb = pullback(q, q)
                assert_literal_pullback(pb, q, q)
                assert (P, left.body, right.body) == \
                    (pb.algebra, pb.left.body, pb.right.body)

    def test_a_finite_block_product_domain_is_read_as_its_table(self):
        P = product([make_chain(1), make_chain(2)])
        for cod in tables(6):
            onto = surjections([P, to_finite(P)] + tables(6), cod)
            for f, g in itertools.product(onto, repeat=2):
                if P in (f.dom, g.dom):
                    assert_literal_pullback(pullback(f, g), f, g)
