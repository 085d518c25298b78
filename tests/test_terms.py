"""Mal'tsev style term identities and the kernel-restriction harness.

Two families of identities are checked on every algebra: the recovery
identity (x - y) + ((x + -y) . y) = x witnessing protomodularity, and a
Pixley term r(x, y, z) built from residuation and the lattice order.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mvtk import (
    all_ideals,
    arrow,
    chain_product_catalog,
    compose,
    describe,
    enumerate_homs,
    factor_through_quotient,
    ideal_elements,
    ideal_leq,
    join,
    kernel_restriction_harness,
    make_chain,
    make_finite,
    make_komori,
    meet,
    neg,
    ominus,
    oplus,
    otimes,
    product,
    quotient,
    random_block_algebra,
    to_finite,
    verify_pixley,
    verify_protomodularity,
)
from oracles import literal_comparison

CHANG = make_komori(1, 1)


class TestRecoveryIdentity:
    def test_small_chain_exhaustive(self):
        report = verify_protomodularity(to_finite(make_chain(3)))
        assert report.ok
        assert [(r.name, r.checked) for r in report.results] \
            == [("recovery_identity", 16)]

    @pytest.mark.parametrize("algebra", chain_product_catalog(12),
                             ids=describe)
    def test_catalog_exhaustive(self, algebra):
        assert verify_protomodularity(to_finite(algebra)).ok

    @pytest.mark.parametrize("seed", range(5))
    def test_symbolic_sampled(self, seed):
        algebra = random_block_algebra(random.Random(seed))
        assert verify_protomodularity(algebra, mode="sample", count=500,
                                      seed=seed).ok

    def test_mixed_block_sampled(self):
        algebra = product([make_komori(2, 2), make_chain(3)])
        assert verify_protomodularity(algebra, mode="sample", count=800).ok

    def test_corrupted_table_is_caught(self):
        c3 = to_finite(make_chain(3))
        rows = [list(r) for r in c3.plus_rows]
        rows[1][2] = 0
        bad = make_finite(c3.neg_row, tuple(tuple(r) for r in rows))
        report = verify_protomodularity(bad)
        assert not report.ok
        assert report.results[0].witness == (0, 1)

    @given(st.tuples(st.integers(0, 1), st.integers(0, 25)),
           st.tuples(st.integers(0, 1), st.integers(0, 25)))
    @settings(max_examples=150, deadline=None)
    def test_pointwise_on_chang(self, p, q):
        x = ((p[0], (p[1] if p[0] == 0 else -p[1],)),)
        y = ((q[0], (q[1] if q[0] == 0 else -q[1],)),)
        head = ominus(CHANG, x, y)
        tail = otimes(CHANG, oplus(CHANG, x, neg(CHANG, y)), y)
        assert oplus(CHANG, head, tail) == x


class TestPixleyTerm:
    def test_chain_four_exhaustive(self):
        report = verify_pixley(to_finite(make_chain(4)))
        assert report.ok
        assert [(r.name, r.checked) for r in report.results] == [
            ("pixley_xxz", 125), ("pixley_xyy", 125), ("pixley_xyx", 125)]

    @pytest.mark.parametrize("algebra", chain_product_catalog(10),
                             ids=describe)
    def test_catalog_exhaustive(self, algebra):
        assert verify_pixley(to_finite(algebra)).ok

    @pytest.mark.parametrize("seed", range(5))
    def test_symbolic_sampled(self, seed):
        algebra = random_block_algebra(random.Random(seed))
        assert verify_pixley(algebra, mode="sample", count=400,
                             seed=seed).ok

    def test_corrupted_table_is_caught(self):
        c3 = to_finite(make_chain(3))
        rows = [list(r) for r in c3.plus_rows]
        rows[1][2] = 0
        bad = make_finite(c3.neg_row, tuple(tuple(r) for r in rows))
        report = verify_pixley(bad)
        assert not report.ok
        failing = [r for r in report.results if not r.ok]
        assert failing and failing[0].witness == (0, 2)

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=120, deadline=None)
    def test_pointwise_on_a_chain(self, a, b, c):
        alg = make_chain(4)
        x, y, z = (a,), (b,), (c,)
        p = meet(alg, arrow(alg, arrow(alg, x, y), z),
                 arrow(alg, arrow(alg, z, y), x))
        t = meet(alg, arrow(alg, y, meet(alg, x, z)), join(alg, x, z))
        r = meet(alg, p, t)
        if a == b:
            assert r == z
        if b == c:
            assert r == x
        if a == c:
            assert r == x


class TestKernelRestrictionHarness:
    def test_frozen_counts_at_the_default_size(self):
        report = kernel_restriction_harness(max_size=6)
        assert report.squares == 266
        assert report.negatives == 198
        assert report.violations == ()
        assert report.injective_mismatches == 0
        assert report.surjective_mismatches == 0

    def test_squares_agree_with_the_literal_pullbacks(self):
        """Each square of the default sweep through the literal pullback:
        its mediator is injective (onto) exactly when the restriction
        between the kernels is.  The harness finds the same of its
        comparison on the chain views, square by square, so the two
        routes give every square the same verdicts."""
        algebras = [to_finite(a) for a in chain_product_catalog(6)]
        squares = 0
        for A in algebras:
            for B in algebras:
                homs = enumerate_homs(A, B)
                for I in all_ideals(A) if homs else ():
                    f = quotient(A, I).projection
                    kerf = ideal_elements(A, I)
                    for J in all_ideals(B):
                        g = quotient(B, J).projection
                        kerg = set(ideal_elements(B, J))
                        for h in homs:
                            if not ideal_leq(A, I, compose(h, g).kernel()):
                                continue
                            k = factor_through_quotient(f, compose(h, g))
                            image = set(map(h, kerf))
                            assert literal_comparison(g, k, h, f) == (
                                len(image) == len(kerf), kerg <= image)
                            squares += 1
        report = kernel_restriction_harness(max_size=6)
        assert (report.squares, report.violations) == (squares, ())

    def test_smaller_sweep_agrees(self):
        report = kernel_restriction_harness(max_size=5)
        assert report.squares == 128
        assert report.negatives == 89
        assert report.violations == ()
