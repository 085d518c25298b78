"""Element arithmetic, sampling, axiom checking, and hom enumeration."""

import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mvtk import (
    AXIOM_NAMES,
    Chain,
    are_isomorphic,
    canonical_blocks,
    carrier_size,
    catalog_signature,
    chain_product_catalog,
    check_axioms,
    check_derived_identities,
    check_lattice_identities,
    describe,
    dist,
    enumerate_homs,
    forced_elements,
    initial_algebra,
    is_terminal_object,
    join,
    kernel_pair,
    leq,
    make_chain,
    make_finite,
    make_komori,
    meet,
    neg,
    oplus,
    otimes,
    product,
    pullback,
    random_block_algebra,
    terminal_algebra,
    to_finite,
    to_terminal,
)
from mvtk.core import _CHUNK, _GRID_CAP, _uniform, sample_columns, sample_tuples
from mvtk.terms import verify_pixley, verify_protomodularity

import random

CHANG = make_komori(1, 1)


def ch(z, b):
    """Element of a single Komori(1, 1) block algebra."""
    return ((z, (b,)),)


class TestBlockArithmetic:
    def test_chain_addition_truncates(self):
        c2 = make_chain(2)
        assert oplus(c2, (1,), (1,)) == (2,)
        assert oplus(c2, (2,), (2,)) == (2,)

    def test_chang_infinitesimals_add(self):
        assert oplus(CHANG, ch(0, 2), ch(0, 3)) == ch(0, 5)

    def test_chang_crossing_the_unit(self):
        # an infinitesimal plus a co-infinitesimal saturates at the top
        assert oplus(CHANG, ch(0, 2), ch(1, -1)) == CHANG.one
        assert CHANG.one == ch(1, 0)

    def test_komori_negation_mirrors(self):
        k = make_komori(2, 1)
        assert neg(k, ((0, (4,)),)) == ((2, (-4,)),)

    def test_product_carrier_size(self):
        assert carrier_size(product([make_chain(1), make_chain(2)])) == 6
        assert carrier_size(CHANG) is None
        assert carrier_size(terminal_algebra()) == 1

    def test_distance_separates(self):
        c3 = make_chain(3)
        assert dist(c3, (1,), (1,)) == (0,)
        assert dist(c3, (1,), (2,)) != (0,)

    def test_chain_lattice(self):
        c3 = make_chain(3)
        assert join(c3, (1,), (2,)) == (2,)
        assert meet(c3, (1,), (2,)) == (1,)

    def test_chang_lattice_order(self):
        # every infinitesimal is below every co-infinitesimal
        assert meet(CHANG, ch(0, 5), ch(1, -7)) == ch(0, 5)
        assert leq(CHANG, ch(0, 100), ch(1, -100))
        assert not leq(CHANG, ch(1, -100), ch(0, 100))

    def test_times_is_de_morgan_dual(self):
        k = make_komori(2, 2)
        x, y = ((1, (3, -4)),), ((1, (0, 5)),)
        assert otimes(k, x, y) == neg(k, oplus(k, neg(k, x), neg(k, y)))

    def test_to_finite_chain_table(self):
        f = to_finite(make_chain(2))
        assert f.plus_rows[1][1] == 2
        assert f.neg_row == (2, 1, 0)


class TestAxiomChecks:
    @pytest.mark.parametrize("algebra", chain_product_catalog(30),
                             ids=describe)
    def test_catalog_exhaustive(self, algebra):
        fin = to_finite(algebra)
        assert check_axioms(fin, mode="exhaustive").ok
        assert check_derived_identities(to_finite(algebra),
                                        mode="exhaustive").ok

    @pytest.mark.parametrize("seed", range(6))
    def test_symbolic_sampled(self, seed):
        rng = random.Random(seed)
        algebra = random_block_algebra(rng)
        assert check_axioms(algebra, mode="sample", count=400,
                            seed=seed).ok
        assert check_derived_identities(algebra, mode="sample", count=300,
                                        seed=seed).ok
        assert check_lattice_identities(algebra, mode="sample", count=200,
                                        seed=seed).ok

    def test_corrupted_negation_is_caught(self):
        f3 = to_finite(make_chain(3))
        bad_neg = (0,) + f3.neg_row[1:]
        bad = make_finite(bad_neg, f3.plus_rows)
        report = check_axioms(bad, mode="exhaustive")
        assert not report.ok
        failing = {r.name for r in report.results if not r.ok}
        assert failing <= {"neg_involution", "one_absorbing", "lukasiewicz"}
        assert all(r.witness is not None for r in report.results if not r.ok)

    def test_corrupted_plus_is_caught(self):
        f3 = to_finite(make_chain(3))
        rows = [list(r) for r in f3.plus_rows]
        rows[1][2] = 0
        bad = make_finite(f3.neg_row, tuple(tuple(r) for r in rows))
        assert not check_axioms(bad, mode="exhaustive").ok

    def test_exhaustive_grid_over_the_budget_is_refused(self):
        big = make_chain(_GRID_CAP)
        message = (f"exhaustive mode on {_GRID_CAP + 1} elements exceeds "
                   f"the budget of {_GRID_CAP}")
        for check in (check_axioms, check_derived_identities,
                      verify_protomodularity, verify_pixley):
            for mode in ("exhaustive", "auto"):
                with pytest.raises(ValueError) as caught:
                    check(big, mode=mode)
                assert str(caught.value) == message
        assert check_axioms(big, mode="sample", count=50).ok

    def test_axiom_names_are_stable(self):
        assert AXIOM_NAMES == ("add_assoc", "add_comm", "zero_unit",
                               "neg_involution", "one_absorbing",
                               "lukasiewicz")


class TestCatalog:
    def test_counts_match_partition_formula(self):
        # iso classes of size n are multisets of chain heights m_i >= 1
        # with prod (m_i + 1) = n; count them independently
        def multisets(n, max_factor):
            if n == 1:
                return 1
            total = 0
            f = min(n, max_factor)
            while f >= 2:
                if n % f == 0:
                    total += multisets(n // f, f)
                f -= 1
            return total

        per_size = {}
        for a in chain_product_catalog(12):
            per_size[carrier_size(a)] = per_size.get(carrier_size(a), 0) + 1
        for n in range(1, 13):
            assert per_size.get(n, 0) == multisets(n, n), n

    def test_members_pairwise_non_isomorphic(self):
        cat = chain_product_catalog(12)
        for a, b in itertools.combinations(cat, 2):
            assert not are_isomorphic(a, b), (describe(a), describe(b))

    def test_signature_identifies(self):
        assert catalog_signature(product([make_chain(1), make_chain(3)])) \
            == (3, 1)

    def test_a_table_has_the_signature_and_blocks_of_its_chains(self):
        """Found by the regime contract: both read the blocks of a block
        product and raised AttributeError on a table."""
        algebra = product([make_chain(3), make_chain(1), make_komori(2, 1)])
        chains = product([make_chain(1), make_chain(3)])
        assert catalog_signature(algebra) == (3, 2, 1)
        assert catalog_signature(to_finite(chains)) == (3, 1)
        assert canonical_blocks(to_finite(chains)) == canonical_blocks(chains) \
            == (Chain(1), Chain(3))

    def test_deterministic(self):
        first = [describe(a) for a in chain_product_catalog(9)]
        second = [describe(a) for a in chain_product_catalog(9)]
        assert first == second

    def test_product_of_tables_is_the_table_of_the_product(self):
        cat = [a for a in chain_product_catalog(12) if carrier_size(a) > 1]
        pairs = [(a, b) for a, b in itertools.product(cat, repeat=2)
                 if carrier_size(a) * carrier_size(b) <= 48]
        assert len(pairs) == 181
        for a, b in pairs:
            assert product([to_finite(a), to_finite(b)]) \
                == to_finite(product([a, b])), (describe(a), describe(b))


class TestHomsAndLimits:
    def test_chain_homs_follow_divisibility(self):
        c1, c2 = to_finite(make_chain(1)), to_finite(make_chain(2))
        up = enumerate_homs(c1, c2)
        assert [(h(0), h(1)) for h in up] == [(0, 2)]
        assert enumerate_homs(c2, c1) == []

    def test_terminal_absorbs(self):
        top = terminal_algebra()
        for a in chain_product_catalog(6):
            assert len(enumerate_homs(a, top)) == 1
        assert is_terminal_object(top)

    def test_initial_is_two_element(self):
        assert carrier_size(initial_algebra()) == 2

    def test_kernel_pair_of_collapse(self):
        c2 = to_finite(make_chain(2))
        kp, p1, p2 = kernel_pair(to_terminal(c2))
        assert carrier_size(kp) == 9
        assert p1.is_surjective() and p2.is_surjective()

    def test_pullback_over_terminal_is_product(self):
        c1 = to_finite(make_chain(1))
        pb = pullback(to_terminal(c1), to_terminal(c1))
        assert carrier_size(pb.algebra) == 4

    def test_chain3_is_not_a_square(self):
        assert not are_isomorphic(make_chain(3),
                                  product([make_chain(1), make_chain(1)]))

    def test_forced_elements_cover_landmarks(self):
        a = product([make_komori(1, 1), make_chain(2)])
        forced = list(forced_elements(a))
        assert a.zero in forced and a.one in forced
        assert any(x[0] == (0, (1,)) for x in forced)


def chang_elements():
    return st.tuples(st.integers(0, 1), st.integers(0, 30)).map(
        lambda p: ch(p[0], p[1] if p[0] == 0 else -p[1]))


class TestPropertyLaws:
    @given(chang_elements(), chang_elements())
    @settings(max_examples=150, deadline=None)
    def test_addition_commutes(self, x, y):
        assert oplus(CHANG, x, y) == oplus(CHANG, y, x)

    @given(chang_elements(), chang_elements(), chang_elements())
    @settings(max_examples=150, deadline=None)
    def test_addition_associates(self, x, y, z):
        assert oplus(CHANG, oplus(CHANG, x, y), z) \
            == oplus(CHANG, x, oplus(CHANG, y, z))

    @given(chang_elements())
    @settings(max_examples=100, deadline=None)
    def test_involution(self, x):
        assert neg(CHANG, neg(CHANG, x)) == x
        assert CHANG.contains(x)

    @given(chang_elements(), chang_elements())
    @settings(max_examples=150, deadline=None)
    def test_join_is_least_upper_bound(self, x, y):
        j = join(CHANG, x, y)
        assert leq(CHANG, x, j) and leq(CHANG, y, j)
        if leq(CHANG, x, y):
            assert j == y

    @given(chang_elements(), chang_elements())
    @settings(max_examples=100, deadline=None)
    def test_order_antisymmetric(self, x, y):
        if leq(CHANG, x, y) and leq(CHANG, y, x):
            assert x == y


class TestSampler:
    ALGEBRAS = [product([make_komori(1, 1), make_chain(2), make_komori(2, 2)]),
                make_komori(3, 3), make_chain(4), to_finite(make_chain(5)),
                terminal_algebra()]

    @pytest.mark.parametrize("algebra", ALGEBRAS, ids=describe)
    def test_every_draw_is_an_element(self, algebra):
        for arity in (1, 3):
            for row in sample_tuples(algebra, arity, 300, random.Random(1),
                                     bound=3):
                assert len(row) == arity
                assert all(algebra.contains(x) for x in row)

    @pytest.mark.parametrize("algebra", ALGEBRAS, ids=describe)
    def test_forced_combinations_come_first(self, algebra):
        forced = forced_elements(algebra)
        for arity, count in ((2, 100), (3, 20)):
            rows = list(sample_tuples(algebra, arity, count, random.Random(2)))
            combos = list(itertools.islice(
                itertools.product(forced, repeat=arity), count))
            assert len(rows) == count
            assert rows[:len(combos)] == combos

    def test_same_seed_same_columns(self):
        algebra = self.ALGEBRAS[0]
        first, second = (list(sample_columns(algebra, 3, 2 * _CHUNK + 7,
                                             random.Random("s:x")))
                         for _ in range(2))
        assert [rows for rows, _ in first] == [_CHUNK, _CHUNK, 7]
        for (_, left), (_, right) in zip(first, second):
            assert all((a.a == b.a).all() for a, b in zip(left, right))
        other = list(sample_columns(algebra, 3, 2 * _CHUNK + 7,
                                    random.Random("s:y")))
        assert any((a.a != b.a).any() for a, b in zip(first[0][1], other[0][1]))

    def test_every_value_of_a_small_range_is_hit(self):
        algebra = product([make_komori(2, 1), make_chain(3)])
        seen = {}
        for ((a, (t,)), c), in sample_tuples(algebra, 1, 3000,
                                             random.Random(3), bound=2):
            seen.setdefault(a, set()).add(t)
            seen.setdefault("chain", set()).add(c)
        assert seen == {0: {0, 1, 2}, 1: {-2, -1, 0, 1, 2}, 2: {-2, -1, 0},
                        "chain": {0, 1, 2, 3}}
        table = to_finite(make_chain(6))
        drawn = {x for (x,) in sample_tuples(table, 1, 500, random.Random(4))}
        assert drawn == set(range(7))

    def test_rejected_words_are_drawn_again(self):
        class Words:
            def __init__(self, words):
                self.words = list(words)

            def randbytes(self, n):
                out, self.words = self.words[:n // 4], self.words[n // 4:]
                return b"".join(w.to_bytes(4, "little") for w in out)

        # 2**32 % 3 == 1, so the top word would favour 0: it is redrawn
        rng = Words([2 ** 32 - 1, 7, 2 ** 32 - 2])
        assert _uniform(rng, [3, 3]).tolist() == [(2 ** 32 - 2) % 3, 7 % 3]
        assert rng.words == []

    def test_refused_arguments(self):
        for count, bound, algebra in ((-1, 8, CHANG), (10, -1, CHANG),
                                      (10, 2 ** 31, CHANG),
                                      (10, 8, make_chain(2 ** 32))):
            with pytest.raises(ValueError):
                sample_columns(algebra, 2, count, random.Random(0), bound)

    def test_sampled_checks_never_import_numpy_random(self):
        code = ("import sys\n"
                "from mvtk import check_axioms, make_chain, make_komori, "
                "product, verify_pixley\n"
                "a = product([make_komori(2, 2), make_chain(3)])\n"
                "assert check_axioms(a, mode='sample', count=500).ok\n"
                "assert verify_pixley(a, mode='sample', count=500).ok\n"
                "print('numpy.random' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
