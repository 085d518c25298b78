"""Radical quotients, perfect parts, and the torsion-style machinery.

The torsion-free side is the semisimple algebras, the torsion side the
perfect ones; every algebra sits in a short pre-exact sequence between
its perfect part and its semisimple quotient.
"""

import itertools
import random

import pytest

import mvtk.core as core_module
import mvtk.morphisms as morphisms_module
from mvtk import (
    CoordMap,
    FiniteMapBody,
    Morphism,
    ProbeReport,
    all_ideals,
    carrier_size,
    chain_product_catalog,
    compose,
    corestrict,
    counit_factorization,
    describe,
    elements,
    enumerate_homs,
    factor_through_quotient,
    from_initial,
    ideal_subalgebra,
    identity,
    initial_algebra,
    is_morphism,
    is_perfect,
    is_precokernel,
    is_prekernel,
    is_semisimple,
    is_trivial_morphism,
    make_chain,
    make_komori,
    perfect_inclusion,
    perfect_map,
    perfect_part,
    pre_exact,
    product,
    protoadditivity_check,
    quotient,
    radical,
    radical_indicator,
    radical_projection,
    random_block_algebra,
    same_morphism,
    semisimple_map,
    semisimple_quotient,
    terminal_algebra,
    to_finite,
    unit_factorization,
    zero_ideal,
)

CHANG = make_komori(1, 1)
MIXED = product([make_komori(2, 1), make_chain(2)])


class TestTheTwoClasses:
    def test_finite_algebras_are_semisimple(self):
        for algebra in chain_product_catalog(12):
            assert is_semisimple(algebra)
            assert is_semisimple(to_finite(algebra))

    def test_komori_blocks_are_not_semisimple(self):
        assert not is_semisimple(CHANG)
        assert not is_semisimple(MIXED)

    def test_perfect_membership(self):
        assert is_perfect(terminal_algebra())
        assert is_perfect(make_chain(1))
        assert is_perfect(CHANG)
        assert is_perfect(make_komori(1, 3))
        assert not is_perfect(make_chain(2))
        assert not is_perfect(make_komori(2, 1))
        assert not is_perfect(MIXED)

    def test_finite_perfect_matches_symbolic(self):
        for algebra in chain_product_catalog(10):
            assert is_perfect(to_finite(algebra)) == is_perfect(algebra)

    def test_only_overlap_is_trivial(self):
        # an algebra that is both perfect and semisimple is 1 or 2 points
        for algebra in [terminal_algebra(), make_chain(1)]:
            assert is_perfect(algebra) and is_semisimple(algebra)
        for n in range(2, 7):
            assert not (is_perfect(make_chain(n))
                        and is_semisimple(make_chain(n)))


class TestReflections:
    def test_semisimple_quotient_of_a_mixed_product(self):
        s = semisimple_quotient(MIXED)
        assert describe(s.algebra) == "Chain(2) x Chain(2)"
        assert is_semisimple(s.algebra)
        assert s.projection.kernel() == radical(MIXED)
        assert s.projection.label == "radical_projection"

    def test_perfect_part_of_a_mixed_product(self):
        p = perfect_part(MIXED)
        assert describe(p.algebra) == "Komori(1,1)"
        assert is_perfect(p.algebra)
        assert p.inclusion.label == "perfect_inclusion"
        assert p.inclusion.is_injective()

    def test_perfect_part_of_a_finite_chain(self):
        c2 = to_finite(make_chain(2))
        p = perfect_part(c2)
        assert carrier_size(p.algebra) == 2
        assert [p.inclusion(x) for x in range(2)] == [0, 2]

    def test_reflections_are_idempotent(self):
        s = semisimple_quotient(MIXED).algebra
        assert describe(semisimple_quotient(s).algebra) == describe(s)
        p = perfect_part(MIXED).algebra
        assert describe(perfect_part(p).algebra) == describe(p)

    def test_fixed_points(self):
        assert same_morphism(radical_projection(make_chain(3)),
                             quotient(make_chain(3),
                                      zero_ideal(make_chain(3))).projection)
        assert same_morphism(perfect_inclusion(CHANG), identity(CHANG))


class TestFunctoriality:
    def proj_to_chain(self):
        body = CoordMap(((1, 1, ()),))
        return Morphism(MIXED, make_chain(2), body, "second_factor")

    def test_semisimple_map_commutes_with_units(self):
        f = self.proj_to_chain()
        sf = semisimple_map(f)
        eta_a = radical_projection(MIXED)
        eta_b = radical_projection(f.cod)
        assert same_morphism(compose(eta_a, sf), compose(f, eta_b))
        assert is_morphism(sf, mode="exhaustive").ok

    def test_perfect_map_commutes_with_counits(self):
        f = self.proj_to_chain()
        pf = perfect_map(f)
        eps_a = perfect_inclusion(MIXED)
        eps_b = perfect_inclusion(f.cod)
        assert same_morphism(compose(pf, eps_b), compose(eps_a, f))

    def test_functors_preserve_identities(self):
        assert same_morphism(semisimple_map(identity(CHANG)),
                             identity(semisimple_quotient(CHANG).algebra))
        assert same_morphism(perfect_map(identity(make_chain(2))),
                             identity(perfect_part(make_chain(2)).algebra))

    def test_functors_preserve_composites(self):
        k = make_komori(1, 2)
        q = quotient(k, radical(k).__class__((("sub", frozenset({1})),)))
        f = q.projection
        g = radical_projection(f.cod)
        gf = compose(f, g)
        assert same_morphism(semisimple_map(gf),
                             compose(semisimple_map(f), semisimple_map(g)))
        assert same_morphism(perfect_map(gf),
                             compose(perfect_map(f), perfect_map(g)))


class TestRadicalIndicator:
    def test_chang_indicator_reads_the_integer_part(self):
        chi = radical_indicator(CHANG)
        assert chi(((0, (5,)),)) == (0,)
        assert chi(((1, (-3,)),)) == (1,)
        assert carrier_size(chi.cod) == 2

    def test_indicator_refuses_terminal(self):
        with pytest.raises(ValueError):
            radical_indicator(terminal_algebra())

    def test_indicator_refuses_imperfect_algebras(self):
        with pytest.raises(ValueError):
            radical_indicator(make_komori(2, 1))
        with pytest.raises(ValueError):
            radical_indicator(MIXED)


class TestTrivialMorphisms:
    def test_radical_projection_of_chang_is_trivial(self):
        w = is_trivial_morphism(radical_projection(CHANG))
        assert w.trivial and w.via == "initial"

    def test_counit_then_unit_is_trivial(self):
        f = compose(perfect_inclusion(MIXED), radical_projection(MIXED))
        w = is_trivial_morphism(f)
        assert w.trivial

    def test_perfect_inclusion_of_mixed_is_not_trivial(self):
        w = is_trivial_morphism(perfect_inclusion(MIXED))
        assert not w.trivial
        assert w.witness == ((0, (1,)),)

    def test_finite_upward_hom_is_trivial(self):
        c1, c2 = to_finite(make_chain(1)), to_finite(make_chain(2))
        h = enumerate_homs(c1, c2)[0]
        assert is_trivial_morphism(h).trivial

    def test_every_perfect_to_semisimple_hom_is_trivial(self):
        for a in [make_chain(1), CHANG, make_komori(1, 2)]:
            for b in chain_product_catalog(6):
                homs = enumerate_homs(to_finite(a) if carrier_size(a)
                                      else a, to_finite(b)) \
                    if carrier_size(a) else []
                for h in homs:
                    assert is_trivial_morphism(h).trivial


class TestPreExactness:
    @pytest.mark.parametrize("algebra", [CHANG, make_komori(2, 1), MIXED],
                             ids=describe)
    def test_symbolic_sequences(self, algebra):
        seq = pre_exact(algebra)
        comp = compose(seq.inclusion, seq.projection)
        assert is_trivial_morphism(comp).trivial
        pk = is_prekernel(seq.inclusion, seq.projection)
        assert pk.ok, pk.failures
        ck = is_precokernel(seq.projection, seq.inclusion)
        assert ck.ok, ck.failures

    def test_probe_accounting_on_a_block(self):
        k = make_komori(2, 1)
        seq = pre_exact(k)
        pk = is_prekernel(seq.inclusion, seq.projection)
        assert (pk.checked, pk.skipped) == (3, 2)
        ck = is_precokernel(seq.projection, seq.inclusion)
        assert (ck.checked, ck.skipped) == (2, 1)

    def test_finite_sequence(self):
        c2 = to_finite(make_chain(2))
        seq = pre_exact(c2)
        assert is_prekernel(seq.inclusion, seq.projection).ok
        assert is_precokernel(seq.projection, seq.inclusion).ok

    def test_prekernel_rejects_non_trivial_composite(self):
        k = make_komori(2, 1)
        report = is_prekernel(identity(k), identity(k))
        assert not report.ok
        assert "not trivial" in report.reason


class TestFactorizations:
    def test_unit_factorization_exists_and_is_unique(self):
        g = semisimple_map(radical_projection(MIXED))
        target = semisimple_quotient(MIXED).algebra
        u = unit_factorization(compose(radical_projection(MIXED),
                                       identity(target)))
        assert u.exists and u.unique
        assert same_morphism(
            compose(radical_projection(MIXED), u.mediator),
            radical_projection(MIXED))

    def test_unit_factorization_needs_semisimple_codomain(self):
        with pytest.raises(ValueError):
            unit_factorization(identity(CHANG))

    def test_counit_factorization(self):
        h = perfect_inclusion(MIXED)
        c = counit_factorization(h)
        assert c.exists and c.unique
        assert same_morphism(compose(c.mediator, perfect_inclusion(MIXED)),
                             h)

    def test_counit_factorization_needs_perfect_domain(self):
        with pytest.raises(ValueError):
            counit_factorization(identity(make_chain(2)))


class TestProtoadditivity:
    def test_symbolic_split_projection(self):
        prod = product([CHANG, make_chain(2)])
        p = Morphism(prod, CHANG, CoordMap(((0, 1, ((0, 1),)),)), "first")
        eta = radical_projection(CHANG)
        double = Morphism(eta.cod, make_chain(2),
                          FiniteMapBody(((0,), (2,))), "double")
        s = Morphism(CHANG, prod,
                     CoordMap(identity(CHANG).body.rows
                              + compose(eta, double).body.rows), "section")
        assert same_morphism(compose(s, p), identity(CHANG))
        for g in [from_initial(CHANG), identity(CHANG)]:
            report = protoadditivity_check(p, s, g)
            assert report.ok, report
            assert report.compared >= 6

    def test_split_projection_that_drops_a_coordinate(self):
        k12, k11 = make_komori(1, 2), make_komori(1, 1)
        p = Morphism(k12, k11, CoordMap(((0, 1, ((0, 1),)),)), "drop")
        s = Morphism(k11, k12, CoordMap(((0, 1, ((0, 1), None)),)), "section")
        report = protoadditivity_check(p, s, from_initial(k11))
        assert report.ok, report
        assert report.compared == 2

    def test_pullbacks_along_table_maps_are_not_implemented(self):
        # p or g is a table map, so the pullback has no symbolic presentation
        prod, c1 = product([CHANG, make_chain(2)]), make_chain(1)
        cases = [
            (Morphism(prod, CHANG, CoordMap(((0, 1, ((0, 1),)),)), "first"),
             Morphism(CHANG, prod, CoordMap(((0, 1, ((0, 1),)), (0, 2, ())))),
             Morphism(to_finite(c1), CHANG,
                      FiniteMapBody((CHANG.zero, CHANG.one)))),
            (Morphism(to_finite(c1), c1, FiniteMapBody(tuple(elements(c1)))),
             Morphism(c1, to_finite(c1), FiniteMapBody((0, 1))),
             radical_projection(CHANG)),
        ]
        for p, s, g in cases:
            with pytest.raises(NotImplementedError):
                protoadditivity_check(p, s, g)

    def test_finite_diagonal_section(self):
        c2 = to_finite(make_chain(2))
        sq = to_finite(product([make_chain(2), make_chain(2)]))
        pairs = list(itertools.product(range(3), repeat=2))
        proj = Morphism(sq, c2,
                        FiniteMapBody(tuple(pairs[i][0] for i in range(9))),
                        "first")
        diag = Morphism(c2, sq,
                        FiniteMapBody(tuple(pairs.index((x, x))
                                            for x in range(3))), "diagonal")
        assert same_morphism(compose(diag, proj), identity(c2))
        report = protoadditivity_check(proj, diag, identity(c2))
        assert report.ok and report.compared >= 6


# ---------------------------------------------------------------------------
# the per-probe Morphism loops, kept as the oracle of the body probes


def _generators(algebra):
    """Elements of a block product whose images decide whether a map
    lands in a subalgebra: all of a finite carrier, else per block the
    height-1 element and each unit infinitesimal."""
    if carrier_size(algebra) is not None:
        return elements(algebra)
    out = []
    for i, b in enumerate(algebra.blocks):
        units = [(0, tuple(int(t == c) for t in range(b.r))) for c in range(b.r)]
        for v in [(1, (0,) * b.r) if b.r else 1] + units:
            out.append(algebra.zero[:i] + (v,) + algebra.zero[i + 1:])
    return out


def _oracle_trivial(f):
    """Image within {0, 1}, by evaluation on the domain's generators."""
    return carrier_size(f.cod) == 1 or all(
        f(x) in (f.cod.zero, f.cod.one) for x in _generators(f.dom))


def _oracle_probes_into(algebra):
    out = [identity(algebra), from_initial(algebra)]
    for ideal in all_ideals(algebra):
        out.append(ideal_subalgebra(algebra, ideal).inclusion)
    return out


def _oracle_probes_out_of(algebra):
    return [quotient(algebra, ideal).projection for ideal in all_ideals(algebra)]


_NOT_TRIVIAL = (False, 0, 0, (), "composite g o k is not trivial")


def _oracle_prekernel(k, g):
    """(ok, checked, skipped, failures, reason) of the probes alone."""
    if not _oracle_trivial(compose(k, g)):
        return _NOT_TRIVIAL
    failures = []
    checked = skipped = 0
    for idx, e in enumerate(_oracle_probes_into(g.dom)):
        if not _oracle_trivial(compose(e, g)):
            skipped += 1
            continue
        checked += 1
        try:
            corestrict(e, k)
        except (ValueError, TypeError) as exc:
            failures.append((idx, f"no factorization: {exc}"))
    return (not failures, checked, skipped, tuple(failures), "")


def _oracle_precokernel(g, k):
    if not _oracle_trivial(compose(k, g)):
        return _NOT_TRIVIAL
    failures = []
    checked = skipped = 0
    surjective = g.is_surjective()
    for idx, t in enumerate(_oracle_probes_out_of(g.dom)):
        if not _oracle_trivial(compose(k, t)):
            skipped += 1
            continue
        checked += 1
        try:
            psi = factor_through_quotient(g, t)
        except (ValueError, TypeError) as exc:
            failures.append((idx, f"no mediator: {exc}"))
            continue
        if not same_morphism(compose(g, psi), t):
            failures.append((idx, "mediator does not recover the probe"))
            continue
        if not surjective:
            failures.append((idx, "uniqueness undecidable: g not surjective"))
    return (not failures, checked, skipped, tuple(failures), "")


def _agrees_with_oracle(k, g):
    """Both reports match the oracle's counts, probe failures and reason;
    ok differs only by an exact-decision failure (index None)."""
    reports = is_prekernel(k, g), is_precokernel(g, k)
    for report, oracle in zip(reports, (_oracle_prekernel(k, g),
                                        _oracle_precokernel(g, k))):
        probe_failures = tuple(f for f in report.failures if f[0] is not None)
        exact = tuple(f for f in report.failures if f[0] is None)
        assert (report.checked, report.skipped, probe_failures,
                report.reason) == oracle[1:]
        assert report.ok == (oracle[0] and not exact)
    return reports


def _random_algebras(seed, count):
    rng = random.Random(seed)
    return [random_block_algebra(rng, max_r=2) for _ in range(count)]


class TestProbesAgreeWithTheMorphismOracle:
    def test_pre_exact_sequences_of_random_block_algebras(self):
        for algebra in _random_algebras(11, 40):
            seq = pre_exact(algebra)
            _agrees_with_oracle(seq.inclusion, seq.projection)
            assert is_prekernel(seq.inclusion, seq.projection).ok

    @pytest.mark.parametrize("finite", [False, True], ids=["blocks", "tables"])
    def test_pre_exact_sequences_of_the_small_catalog(self, finite):
        for algebra in chain_product_catalog(8):
            seq = pre_exact(to_finite(algebra) if finite else algebra)
            _agrees_with_oracle(seq.inclusion, seq.projection)
            assert is_prekernel(seq.inclusion, seq.projection).ok
            assert is_precokernel(seq.projection, seq.inclusion).ok

    def test_ideal_pairs_that_are_not_pre_exact(self):
        rng = random.Random(12)
        for algebra in _random_algebras(13, 25):
            ideals = all_ideals(algebra)
            for _ in range(3):
                i, j = rng.choice(ideals), rng.choice(ideals)
                _agrees_with_oracle(ideal_subalgebra(algebra, i).inclusion,
                                    quotient(algebra, j).projection)
            _agrees_with_oracle(identity(algebra), identity(algebra))

    def test_non_injective_k_and_non_surjective_g(self):
        chang, k12 = make_komori(1, 1), make_komori(1, 2)
        pair, c1 = product([chang, chang]), to_finite(make_chain(1))
        # k drops a coordinate, forgets a block, or projects a table:
        # every checked probe factors through k, and the exact decision
        # fails it once, at a nonzero point y that k sends to 0
        for k, g, y in [
                (Morphism(k12, chang, CoordMap(((0, 1, ((0, 1),)),))),
                 radical_projection(chang), ((0, (0, 1)),)),
                (Morphism(pair, chang, CoordMap(((0, 1, ((0, 1),)),))),
                 radical_projection(chang), ((0, (0,)), (1, (0,)))),
                (enumerate_homs(to_finite(product([make_chain(1)] * 2)), c1)[0],
                 identity(c1), 1)]:
            prekernel, _ = _agrees_with_oracle(k, g)
            assert prekernel.failures == (
                (None, f"{y} is sent to 0: k is not injective"),)
            assert k.dom.contains(y) and y != k.dom.zero and k(y) == k.cod.zero
        # g doubles the infinitesimal: one probe has no mediator, the
        # others cannot be shown unique
        g = Morphism(chang, chang, CoordMap(((0, 1, ((0, 2),)),)))
        _, precokernel = _agrees_with_oracle(from_initial(chang), g)
        assert precokernel.failures[0] == (
            0, "no mediator: f reads a coordinate the quotient kills")
        assert precokernel.failures[1][1] == \
            "uniqueness undecidable: g not surjective"

    def test_from_initial_is_the_decoded_table(self):
        for algebra in _random_algebras(14, 20) + chain_product_catalog(8):
            decoded = Morphism(initial_algebra(), algebra,
                               FiniteMapBody((algebra.zero, algebra.one)))
            assert from_initial(algebra).body == decoded.body


class TestExactPrekernel:
    A = product([make_chain(5), make_chain(2)])
    G = Morphism(A, make_chain(2), CoordMap(((1, 1, ()),)), "second")

    def test_missing_element_of_the_kernel_subalgebra(self):
        # the four Boolean elements miss (1, 0), with g(1, 0) = 0: the
        # probe on ker g's own subalgebra (probe 4) does not factor
        booleans = product([make_chain(1), make_chain(1)])
        k = Morphism(booleans, self.A, CoordMap(((0, 5, ()), (1, 2, ()))))
        report, _ = _agrees_with_oracle(k, self.G)
        assert (report.ok, report.checked, report.skipped) == (False, 3, 3)
        assert report.failures == (
            (4, "no factorization: image of e escapes the subobject"),)

    def test_kernel_subalgebra_is_the_prekernel(self):
        sub = ideal_subalgebra(self.A, self.G.kernel())
        assert carrier_size(sub.algebra) == 12
        report, _ = _agrees_with_oracle(sub.inclusion, self.G)
        assert report.ok and (report.checked, report.skipped) == (3, 3)


class TestExactPrecokernel:
    """For an onto g the quotient probes decide the universal property,
    here checked against every hom out of A into a catalog algebra of at
    most |A| elements: each t: A -> C factors as A -> A/ker t and an
    embedding, and A/ker t is isomorphic to one of them."""

    @pytest.mark.parametrize("finite", [False, True], ids=["blocks", "tables"])
    def test_quotient_projections_against_every_small_hom(self, finite):
        # the catalog's algebras, each g a quotient projection and each k
        # a probe into A: the verdict is "every t with k then t trivial
        # kills ker g"; probes that miss the quotients of more than 4
        # elements get 14 of these wrong per representation
        catalog = chain_product_catalog(24)
        pairs = 0
        for algebra in catalog:
            A = to_finite(algebra) if finite else algebra
            homs = [t for c in catalog if carrier_size(c) <= carrier_size(A)
                    for t in enumerate_homs(A, c)]
            kernels = [{x for x in elements(A) if t(x) == t.cod.zero} for t in homs]
            ideals = all_ideals(A)
            for k in [identity(A), from_initial(A)] + [
                    ideal_subalgebra(A, i).inclusion for i in ideals]:
                seen = [kernel for t, kernel in zip(homs, kernels) if all(
                    t(k(x)) in (t.cod.zero, t.cod.one) for x in elements(k.dom))]
                for i in ideals:
                    g = quotient(A, i).projection
                    report = is_precokernel(g, k)
                    if report.reason:
                        continue
                    ker_g = {x for x in elements(A) if g(x) == g.cod.zero}
                    assert report.ok == all(ker_g <= kernel for kernel in seen), \
                        (describe(A), k.label, i)
                    pairs += 1
        assert pairs == 1035

    def test_a_quotient_of_more_than_four_elements(self):
        # on Chain(4) x Chain(1), the projection onto Chain(4) sends im k
        # into {0, 4} without factoring through g
        A = product([make_chain(4), make_chain(1)])
        zero_first, zero_second = all_ideals(A)[1:3]
        k = ideal_subalgebra(A, zero_first).inclusion
        g = quotient(A, zero_second).projection
        assert describe(g.cod) == "Chain(1)"
        report = is_precokernel(g, k)
        assert (report.ok, report.checked, report.skipped) == (False, 3, 1)
        assert report.failures == (
            (1, "no mediator: f reads a block the quotient kills"),)


def _morphisms_built(monkeypatch, run):
    """Morphisms constructed while ``run`` runs, through __init__ and the
    private constructor both."""
    built = []
    init, of_coords = Morphism.__init__, Morphism._of_coords.__func__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_of_coords(cls, *args, **kwargs):
        built.append(1)
        return of_coords(cls, *args, **kwargs)

    monkeypatch.setattr(Morphism, "__init__", counted_init)
    monkeypatch.setattr(Morphism, "_of_coords", classmethod(counted_of_coords))
    run()
    monkeypatch.undo()
    return len(built)


def test_probe_cost_does_not_grow_with_the_ideal_count(monkeypatch):
    counts = {}
    for algebra in [make_komori(1, 2),
                    product([make_komori(2, 2), make_komori(1, 2), make_chain(1)]),
                    product([make_komori(2, 2), make_komori(1, 2), make_komori(1, 1)])]:
        seq = pre_exact(algebra)

        def run():
            assert is_prekernel(seq.inclusion, seq.projection).ok
            assert is_precokernel(seq.projection, seq.inclusion).ok
        counts[len(all_ideals(algebra))] = _morphisms_built(monkeypatch, run)
    assert set(counts) == {5, 50, 75}
    assert len(set(counts.values())) == 1, counts


class TestTrivialWitnessRule:
    def test_witness_is_the_first_point_sent_outside_zero_one(self):
        """The witness is a domain element on tables too, never a value
        of the codomain."""
        tables = [to_finite(a) for a in chain_product_catalog(8)]
        negative = [(h, w) for a in tables for b in tables
                    for h in enumerate_homs(a, b)
                    if not (w := is_trivial_morphism(h)).trivial]
        assert len(negative) == 70
        for h, w in negative:
            zero_one = (h.cod.zero, h.cod.one)
            assert h(w.witness) not in zero_one
            assert w.witness == next(x for x in elements(h.dom)
                                     if h(x) not in zero_one)


def test_table_probes_build_no_value_table(monkeypatch):
    """The probes of a table run on its chain view, so no value table is
    read off a CoordMap and no table is certified per call."""
    seq = pre_exact(to_finite(product([make_chain(2), make_chain(1)])))
    built = []
    for module, name in ((core_module, "_certify"), (morphisms_module, "_table_of")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, original=original:
                            built.append(name) or original(*args))
    for _ in range(3):
        pk = is_prekernel(seq.inclusion, seq.projection)
        pc = is_precokernel(seq.projection, seq.inclusion)
        assert (pk.ok, pk.checked, pk.skipped) == (True, 2, 4)
        assert (pc.ok, pc.checked, pc.skipped) == (True, 4, 0)
    assert built == []


def test_a_non_injective_prekernel_names_the_point_sent_to_zero():
    """Every probe factors, so the exact decision gives the verdict: k
    collapses the second chain of Chain(1) x Chain(1) onto 0."""
    chang = make_komori(1, 1)
    k = Morphism(product([make_chain(1), make_chain(1)]), chang,
                 CoordMap(((0, 1, (None,)),)))
    assert is_prekernel(k, identity(chang)) == ProbeReport(
        False, 2, 3, ((None, "(0, 1) is sent to 0: k is not injective"),))
