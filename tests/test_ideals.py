"""Ideal lattices, radicals, polars, and Riesz decomposition."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mvtk import (
    FiniteIdeal,
    MarkerIdeal,
    all_ideals,
    chain_product_catalog,
    describe,
    elements,
    full_ideal,
    generated_ideal,
    ideal_contains,
    ideal_elements,
    ideal_join,
    ideal_leq,
    ideal_meet,
    is_full_ideal,
    is_ideal,
    is_nilpotent_ideal,
    is_proper_ideal,
    is_zero_ideal,
    make_chain,
    make_finite,
    make_komori,
    markers_from_elements,
    maximal_ideals,
    polar,
    product,
    radical,
    radical_conegation_disjoint,
    random_block_algebra,
    riesz_split,
    terminal_algebra,
    to_finite,
    validate_ideal,
    zero_ideal,
)
from mvtk.core import Chain, Komori, block, element, parts, sample_tuples
from mvtk.ideals import marker_coords, sub_marker
from mvtk.morphisms import image_ideal, quotient
from oracles import infinitesimals

CHANG = make_komori(1, 1)
PROD = product([make_chain(1), make_chain(2)])


class TestMembershipAndLattice:
    def test_downward_closure_is_required(self):
        c3 = to_finite(make_chain(3))
        assert is_ideal(c3, {0})
        assert is_ideal(c3, {0, 1, 2, 3})
        assert not is_ideal(c3, {0, 2})
        # {0, 1} is downward closed but 1 + 1 = 2 escapes it
        assert not is_ideal(c3, {0, 1})
        assert not is_ideal(c3, {0, 1, 2})

    def test_all_ideals_of_a_product_of_chains(self):
        found = all_ideals(PROD)
        assert len(found) == 4
        markers = sorted(i.markers for i in found)
        assert markers == [("full", "full"), ("full", "zero"),
                           ("zero", "full"), ("zero", "zero")]

    def test_one_rank_14_block_is_listed(self):
        assert len(all_ideals(make_komori(1, 14))) == 2 ** 14 + 1

    def test_total_ideal_count_is_capped(self):
        # each block alone is listable; together they have 257**2 ideals
        with pytest.raises(ValueError, match="more than 16385 ideals"):
            all_ideals(product([make_komori(1, 8), make_komori(1, 8)]))

    def test_huge_rank_is_refused_before_its_subsets_are_counted(self):
        with pytest.raises(ValueError, match="more than 16385 ideals"):
            all_ideals(make_komori(1, 10 ** 9))

    def test_chains_count_two_ideals_each(self):
        assert len(all_ideals(product([make_chain(1)] * 14))) == 2 ** 14
        with pytest.raises(ValueError, match="more than 16385 ideals"):
            all_ideals(product([make_chain(1)] * 15))

    def test_all_ideals_of_chang(self):
        found = all_ideals(CHANG)
        assert len(found) == 3
        assert zero_ideal(CHANG) in found
        assert full_ideal(CHANG) in found
        assert radical(CHANG) in found

    def test_generated_ideal_climbs_the_chain(self):
        c3 = to_finite(make_chain(3))
        g = generated_ideal(c3, [1])
        assert is_full_ideal(c3, g)

    def test_generated_ideal_in_a_product(self):
        g = generated_ideal(PROD, [(0, 1)])
        assert g.markers == ("zero", "full")

    def test_generated_is_least_containing(self):
        for algebra in chain_product_catalog(8):
            fin = to_finite(algebra)
            lattice = all_ideals(fin)
            for x in range(fin.size):
                g = generated_ideal(fin, [x])
                assert ideal_contains(fin, g, x)
                for other in lattice:
                    if ideal_contains(fin, other, x):
                        assert ideal_leq(fin, g, other)

    def test_meet_join_bounds(self):
        lattice = all_ideals(PROD)
        for i, j in itertools.product(lattice, repeat=2):
            lo = ideal_meet(PROD, i, j)
            hi = ideal_join(PROD, i, j)
            assert ideal_leq(PROD, lo, i) and ideal_leq(PROD, lo, j)
            assert ideal_leq(PROD, i, hi) and ideal_leq(PROD, j, hi)
            assert ideal_leq(PROD, lo, hi)

    def test_validate_rejects_malformed_markers(self):
        with pytest.raises(ValueError):
            validate_ideal(PROD, MarkerIdeal(("zero",)))
        with pytest.raises(ValueError):
            validate_ideal(CHANG, MarkerIdeal((("sub", frozenset({3})),)))

    def test_proper_means_not_full(self):
        assert is_proper_ideal(PROD, zero_ideal(PROD))
        assert not is_proper_ideal(PROD, full_ideal(PROD))
        assert is_zero_ideal(PROD, zero_ideal(PROD))

    def test_finite_marker_round_trip(self):
        for ideal in all_ideals(PROD):
            members = ideal_elements(PROD, ideal)
            assert markers_from_elements(PROD, members) == ideal


def test_zero_and_full_ideals_refuse_a_table_that_is_not_an_mv_algebra():
    chain = to_finite(make_chain(2))
    rows = [list(r) for r in chain.plus_rows]
    rows[0][1] = 0
    table = make_finite(chain.neg_row, rows, chain.zero)
    for ideal in (zero_ideal, full_ideal):
        with pytest.raises(ValueError, match=r"^not an MV-algebra: plus\(0, 1\) = 0 is not "
                                             r"the levelwise truncated sum$"):
            ideal(table)


class TestRadical:
    def test_three_characterizations_agree_on_catalog(self):
        for algebra in chain_product_catalog(10):
            fin = to_finite(algebra)
            scan = FiniteIdeal(infinitesimals(fin))
            for method in ("inf", "maximal", "nilpotent"):
                assert radical(fin, method=method) == scan

    @pytest.mark.parametrize("seed", range(8))
    def test_three_characterizations_agree_on_blocks(self, seed):
        algebra = random_block_algebra(random.Random(seed))
        by_inf = radical(algebra, method="inf")
        assert by_inf == radical(algebra, method="maximal")
        assert by_inf == radical(algebra, method="nilpotent")

    def test_finite_radical_vanishes(self):
        for algebra in chain_product_catalog(10):
            assert is_zero_ideal(algebra, radical(algebra))

    def test_chang_radical_is_the_infinitesimals(self):
        rad = radical(CHANG)
        assert rad.markers == (("sub", frozenset({0})),)
        assert ideal_contains(CHANG, rad, ((0, (7,)),))
        assert not ideal_contains(CHANG, rad, ((1, (-7,)),))

    def test_terminal_radical_is_full(self):
        top = terminal_algebra()
        assert is_full_ideal(top, radical(top))

    def test_radical_ideals_are_nilpotent(self):
        k = make_komori(2, 3)
        assert is_nilpotent_ideal(k, radical(k))
        assert not is_nilpotent_ideal(k, full_ideal(k))

    def test_maximal_ideal_counts(self):
        assert len(maximal_ideals(PROD)) == 2
        assert len(maximal_ideals(CHANG)) == 1
        assert len(maximal_ideals(make_komori(2, 1))) == 1
        three = product([make_chain(1)] * 3)
        assert len(maximal_ideals(three)) == 3

    def test_radical_meets_its_conegation_trivially(self):
        for algebra in [CHANG, make_komori(3, 2), PROD]:
            assert radical_conegation_disjoint(algebra, radical(algebra))


class TestPolar:
    def test_polar_of_radical_on_chang(self):
        assert is_zero_ideal(CHANG, polar(CHANG, radical(CHANG)))

    def test_polar_of_zero_is_full(self):
        assert is_full_ideal(CHANG, polar(CHANG, zero_ideal(CHANG)))
        assert is_full_ideal(PROD, polar(PROD, zero_ideal(PROD)))

    def test_polar_flips_product_factors(self):
        left = MarkerIdeal(("full", "zero"))
        assert polar(PROD, left).markers == ("zero", "full")

    def test_polar_is_antitone(self):
        lattice = all_ideals(PROD)
        for i, j in itertools.product(lattice, repeat=2):
            if ideal_leq(PROD, i, j):
                assert ideal_leq(PROD, polar(PROD, j), polar(PROD, i))

    def test_double_polar_inflates(self):
        for ideal in all_ideals(PROD):
            again = polar(PROD, polar(PROD, ideal))
            assert ideal_leq(PROD, ideal, again)


class TestRieszSplit:
    def test_chain_split(self):
        c3 = to_finite(make_chain(3))
        assert riesz_split(c3, 2, 1, 2) == (1, 1)

    @pytest.mark.parametrize("algebra, x, y, z, bad", [
        (make_chain(2), (1,), (9,), (0,), (9,)),
        (to_finite(make_chain(2)), 1, 2, 7, 7),
        (make_chain(2), "x", (2,), (0,), "x"),
    ], ids=["height-out-of-range", "table-index", "not-a-tuple"])
    def test_a_non_element_is_refused(self, algebra, x, y, z, bad):
        with pytest.raises(ValueError) as err:
            riesz_split(algebra, x, y, z)
        assert str(err.value) == f"not an element: {bad!r}"

    def test_chang_split(self):
        b, c = riesz_split(CHANG, ((0, (3,)),), ((0, (2,)),), ((0, (2,)),))
        assert (b, c) == (((0, (2,)),), ((0, (1,)),))

    def test_split_exhaustive_on_small_chains(self):
        from mvtk import leq, oplus
        for algebra in chain_product_catalog(6):
            fin = to_finite(algebra)
            for x, y, z in itertools.product(range(fin.size), repeat=3):
                if not leq(fin, x, oplus(fin, y, z)):
                    continue
                b, c = riesz_split(fin, x, y, z)
                assert leq(fin, b, y) and leq(fin, c, z)
                assert oplus(fin, b, c) == x

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_split_on_chang_infinitesimals(self, a, y, z):
        from mvtk import leq, oplus
        x = min(a, y + z)
        xe, ye, ze = ((0, (x,)),), ((0, (y,)),), ((0, (z,)),)
        b, c = riesz_split(CHANG, xe, ye, ze)
        assert leq(CHANG, b, ye) and leq(CHANG, c, ze)
        assert oplus(CHANG, b, c) == xe


@pytest.mark.parametrize("algebra", chain_product_catalog(30), ids=describe)
def test_generated_ideals_of_the_table_match_the_markers(algebra):
    """The table's order relation and the block markers give the same
    principal ideals."""
    table = to_finite(algebra)
    elems = elements(algebra)
    index = {x: i for i, x in enumerate(elems)}
    for i, x in enumerate(elems):
        symbolic = generated_ideal(algebra, [x])
        assert generated_ideal(table, [i]).elements \
            == {index[y] for y in ideal_elements(algebra, symbolic)}


def _assert_canonical(algebra, ideal):
    assert validate_ideal(algebra, ideal) == ideal
    for b, m in zip(algebra.blocks, ideal.markers):
        if not b.r:
            assert m in ("zero", "full")


class TestCanonicalMarkers:
    """Every marker ideal the library returns is already canonical, so two
    ideals compare with == without validating them first."""

    @pytest.mark.parametrize("seed", range(24))
    def test_returned_ideals_are_canonical(self, seed):
        rng = random.Random(seed)
        # chains and Komori blocks of rank at most 3; odd seeds may draw
        # chains only
        algebra = random_block_algebra(rng, max_r=3, require_komori=seed % 2 == 0)
        ideals = all_ideals(algebra)
        found = [zero_ideal(algebra), full_ideal(algebra),
                 *(radical(algebra, method=m)
                   for m in ("inf", "maximal", "nilpotent")),
                 *maximal_ideals(algebra), *ideals]
        picked = rng.sample(ideals, min(len(ideals), 12))
        for i, j in itertools.product(picked[:6], repeat=2):
            found += [ideal_meet(algebra, i, j), ideal_join(algebra, i, j)]
        found += [polar(algebra, i) for i in picked]
        draws = list(sample_tuples(algebra, 2, 30, rng, 3))
        for x, y in draws:
            found += [generated_ideal(algebra, [x]),
                      generated_ideal(algebra, [x, y]),
                      polar(algebra, [x])]
            for v in x + y:
                assert element(*parts(v)) == v
        for ideal in found:
            _assert_canonical(algebra, ideal)
        for i in picked:
            q = quotient(algebra, i)
            _assert_canonical(algebra, q.projection.kernel())
            for j in picked:
                _assert_canonical(algebra, q.projection.preimage_ideal(
                    image_ideal(q.projection, j)))
                _assert_canonical(q.algebra, image_ideal(q.projection, j))
            for j in all_ideals(q.algebra)[:12]:
                _assert_canonical(algebra, q.projection.preimage_ideal(j))

    def test_the_encoders_of_a_chain_are_its_rank_0_case(self):
        assert block(2, 0) == Chain(2) and block(2, 3) == Komori(2, 3)
        assert parts(3) == (3, ()) and parts((1, (2, -1))) == (1, (2, -1))
        assert element(3, ()) == 3 and element(1, [2, -1]) == (1, (2, -1))
        assert sub_marker(0) == "zero"
        assert sub_marker(2, [1]) == ("sub", frozenset({1}))
        assert marker_coords("zero") == frozenset()
        assert marker_coords(("sub", frozenset({0}))) == frozenset({0})
