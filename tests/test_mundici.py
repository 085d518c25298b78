"""Lattice-ordered groups with lexicographic blocks and the unit interval.

The unit interval of a lex block with a good unit carries exactly the
truncated arithmetic of the corresponding block algebra, so every block
construction can be cross-checked against plain group arithmetic.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mvtk import (
    describe,
    from_algebra_element,
    gamma_ops_agree,
    group_abs,
    group_add,
    group_join,
    group_laws_check,
    group_leq,
    group_meet,
    group_neg,
    group_sub,
    group_unit,
    group_zero,
    interval_algebra,
    interval_neg,
    interval_sum,
    make_chain,
    make_group,
    make_komori,
    neg,
    oplus,
    order_unit_check,
    random_group_element,
    semidirect_join,
    semidirect_sum,
    to_algebra_element,
)

RANK1 = make_group([(1, (3,))])
RANK2 = make_group([(2, (1, 0))])
MIXED = make_group([(2, (2, 0)), (1, (2,))])


class TestGroupArithmetic:
    def test_zero_and_unit(self):
        assert group_zero(RANK2) == ((0, 0),)
        assert group_unit(RANK2) == ((1, 0),)
        assert group_unit(MIXED) == ((2, 0), (2,))

    def test_add_and_neg(self):
        x, y = ((1, 4),), ((2, -7),)
        assert group_add(RANK2, x, y) == ((3, -3),)
        assert group_neg(RANK2, x) == ((-1, -4),)
        assert group_sub(RANK2, x, y) == ((-1, 11),)

    def test_lex_order_first_coordinate_dominates(self):
        assert group_leq(RANK2, ((0, 100),), ((1, -100),))
        assert not group_leq(RANK2, ((1, -100),), ((0, 100),))
        assert group_leq(RANK2, ((1, 3),), ((1, 5),))

    def test_join_and_meet(self):
        assert group_join(RANK2, ((0, 9),), ((1, -9),)) == ((1, -9),)
        assert group_meet(RANK2, ((0, 9),), ((1, -9),)) == ((0, 9),)
        assert group_join(RANK2, ((1, 2),), ((1, 7),)) == ((1, 7),)

    def test_abs(self):
        assert group_abs(RANK2, ((-1, 5),)) == ((1, -5),)
        assert group_abs(RANK2, ((0, -4),)) == ((0, 4),)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            group_add(RANK2, ((1,),), ((1, 0),))
        with pytest.raises(ValueError):
            group_leq(MIXED, ((1, 0),), ((1, 0), (2,)))

    def test_laws_hold_on_samples(self):
        for g in [RANK1, RANK2, MIXED]:
            report = group_laws_check(g, count=300)
            assert report.ok, report.failures()
            assert len(report.results) == 10

    def test_negative_unit_is_reported_and_unusable(self):
        g = make_group([(1, (-2,))])
        report = order_unit_check(g)
        assert not report.ok and "positive" in report.reason
        with pytest.raises(ValueError):
            interval_algebra(g)

    def test_unit_shape_is_rejected(self):
        with pytest.raises(ValueError):
            make_group([(2, (1, 2, 3))])
        with pytest.raises(ValueError):
            make_group([(0, ())])


class TestOrderUnits:
    def test_good_units(self):
        assert order_unit_check(RANK1).ok
        assert order_unit_check(RANK2).ok
        assert order_unit_check(MIXED).ok

    def test_infinitesimal_unit_fails(self):
        g = make_group([(2, (0, 1))])
        report = order_unit_check(g)
        assert not report.ok
        assert report.witness == ((1, 0),)
        assert "multiple" in report.reason


class TestIntervalAlgebra:
    def test_rank_one_interval_is_a_chain(self):
        for m in range(1, 11):
            g = make_group([(1, (m,))])
            assert interval_algebra(g) == make_chain(m)

    def test_rank_two_interval_is_a_block(self):
        assert interval_algebra(RANK2) == make_komori(1, 1)
        assert interval_algebra(make_group([(3, (2, 0, 0))])) \
            == make_komori(2, 2)

    def test_product_of_blocks(self):
        g = make_group([(2, (2, 0)), (1, (2,))])
        assert describe(interval_algebra(g)) == "Komori(2,1) x Chain(2)"

    def test_unit_off_axis_is_rejected(self):
        g = make_group([(2, (1, 1))])
        with pytest.raises(ValueError):
            interval_algebra(g)

    def test_element_round_trip(self):
        a = to_algebra_element(MIXED, ((0, 5), (1,)))
        assert a == ((0, (5,)), 1)
        assert from_algebra_element(MIXED, a) == ((0, 5), (1,))

    def test_interval_ops_match_algebra_ops(self):
        alg = interval_algebra(MIXED)
        x, y = ((0, 3), (1,)), ((2, -1), (2,))
        s = interval_sum(MIXED, x, y)
        assert to_algebra_element(MIXED, s) \
            == oplus(alg, to_algebra_element(MIXED, x),
                     to_algebra_element(MIXED, y))
        assert to_algebra_element(MIXED, interval_neg(MIXED, x)) \
            == neg(alg, to_algebra_element(MIXED, x))

    @pytest.mark.parametrize("blocks", [
        [(1, (4,))],
        [(2, (1, 0))],
        [(2, (3, 0)), (1, (1,))],
        [(4, (2, 0, 0, 0))],
    ])
    def test_truncation_agrees_on_samples(self, blocks):
        report = gamma_ops_agree(make_group(blocks), count=300)
        assert report.ok, report.failures()


class TestSemidirect:
    def test_componentwise_sum(self):
        g = RANK1
        left = (((1,),), ((2,),))
        right = (((3,),), ((4,),))
        assert semidirect_sum(g, left, right) == (((4,),), ((6,),))

    def test_join_uses_the_ambient_group(self):
        g = RANK1
        left = (((1,),), ((0,),))
        right = (((0,),), ((2,),))
        assert semidirect_join(g, left, right) == (((0,),), ((2,),))

    def test_join_against_direct_computation(self):
        g = RANK2
        rng = random.Random(3)
        for _ in range(200):
            k1, k2 = (random_group_element(g, rng) for _ in range(2))
            b1, b2 = (random_group_element(g, rng) for _ in range(2))
            k, b = semidirect_join(g, (k1, b1), (k2, b2))
            assert b == group_join(g, b1, b2)
            assert group_add(g, k, b) == group_join(
                g, group_add(g, k1, b1), group_add(g, k2, b2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            semidirect_sum(RANK1, (((1,),), ((2,),)), (((1, 2),), ((0,),)))


@st.composite
def rank2_elements(draw):
    return ((draw(st.integers(-8, 8)), draw(st.integers(-8, 8))),)


class TestGroupProperties:
    @given(rank2_elements(), rank2_elements(), rank2_elements())
    @settings(max_examples=150, deadline=None)
    def test_translation_invariance(self, x, y, t):
        if group_leq(RANK2, x, y):
            assert group_leq(RANK2, group_add(RANK2, x, t),
                             group_add(RANK2, y, t))

    @given(rank2_elements(), rank2_elements())
    @settings(max_examples=150, deadline=None)
    def test_join_plus_meet_is_sum(self, x, y):
        lhs = group_add(RANK2, group_join(RANK2, x, y),
                        group_meet(RANK2, x, y))
        assert lhs == group_add(RANK2, x, y)

    @given(rank2_elements())
    @settings(max_examples=100, deadline=None)
    def test_abs_is_positive(self, x):
        assert group_leq(RANK2, group_zero(RANK2), group_abs(RANK2, x))


class TestSamplingArguments:
    """A negative sample count or bound is refused before anything is
    drawn, with the message of the identity engine's sampler."""

    @pytest.mark.parametrize("check", [group_laws_check, gamma_ops_agree])
    @pytest.mark.parametrize("kwargs, message", [
        ({"count": -3}, "count must be >= 0, got -3"),
        ({"bound": -1}, "bound must be >= 0, got -1"),
    ], ids=["count", "bound"])
    def test_negative_value_is_refused(self, check, kwargs, message):
        with pytest.raises(ValueError) as exc:
            check(MIXED, **kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("check", [group_laws_check, gamma_ops_agree])
    def test_zero_count_and_bound_are_accepted(self, check):
        assert check(MIXED, count=0).ok
        assert check(MIXED, count=20, bound=0).ok
