"""The chain decomposition of finite tables and what is read off it.

Every finite MV-algebra is a product of finite chains.  ``decompose``
finds the chains of a table and certifies the result; hom enumeration,
isomorphism, ideals and quotients are then read off the decomposition.
These tests hold each of them to the literal algorithm it replaced, kept
here as an oracle: exhaustive ``check_axioms`` for the certificate,
``hom_tables`` for the homs, the closure, ideal-join and distance loops
for ideals and quotients, and the literal scans of ``oracles`` for
radicals, nilpotence, polars and ``is_ideal``.
"""

import itertools
import random
import time

import pytest

from mvtk import (
    FiniteIdeal,
    all_ideals,
    are_isomorphic,
    chain_product_catalog,
    check_axioms,
    classify_extension,
    describe,
    elements,
    em_factorize,
    enumerate_homs,
    fill_diagonal,
    find_isomorphism,
    generated_ideal,
    ideal_join,
    ideal_subalgebra,
    ideal_leq,
    image_set,
    is_ideal,
    is_nilpotent_ideal,
    is_precokernel,
    is_prekernel,
    leq,
    make_chain,
    make_finite,
    make_komori,
    maximal_ideals,
    polar,
    pre_exact,
    product,
    quotient,
    radical,
    radical_conegation_disjoint,
    radical_projection,
    random_block_algebra,
    square_from_ideals,
    stability_check,
    to_finite,
    trivial_via_pullback,
    validate_ideal,
)
from mvtk import core, galois, galois2, morphisms, pretorsion, terms
from mvtk.core import decompose, dist
import oracles
from oracles import hom_tables
from mvtk.galois2 import central_reflection, commutator_pair
from mvtk.morphisms import CoordMap, _check_coords


def relabel(table, perm):
    """The table with element x renamed perm[x]: an isomorphic copy whose
    element order is no longer that of ``to_finite``."""
    n = table.size
    neg = [0] * n
    plus = [[0] * n for _ in range(n)]
    for x in range(n):
        neg[perm[x]] = perm[table.neg(x)]
        for y in range(n):
            plus[perm[x]][perm[y]] = perm[table.plus(x, y)]
    return make_finite(neg, plus, perm[table.zero])


def batched_table(algebra, elems):
    """The table of a block product of chains whose element i is
    ``elems[i]``, as ``core.table_on`` builds it, from the batched block
    operations of the sampling engine over all pairs at once.  Each value
    is indexed back by looking its row up among the rows of ``elems``,
    packed in a base above every level, so no element order is assumed."""
    import numpy as np

    n = len(elems)
    form = core._BlockColumns(algebra)
    view = form.view()
    # levels fit in int32, which halves the memory traffic of the n**2 pairs
    rows = form.encode(elems).astype(np.int32)
    # pair (x, y) is row x * n + y
    negs = view.neg(core._Rows(rows)).a
    sums = view.plus(core._Rows(np.repeat(rows, n, axis=0)), core._Rows(np.tile(rows, (n, 1)))).a
    base = int(form.cap.max(initial=0)) + 1
    packing = base ** np.arange(rows.shape[1])
    index = np.full(base ** rows.shape[1], -1)
    index[rows @ packing] = np.arange(n)
    neg_row, plus_rows = index[negs @ packing], index[sums @ packing].reshape(n, n)
    assert (neg_row >= 0).all() and (plus_rows >= 0).all(), describe(algebra)
    return core.FiniteAlgebra._of_rows(neg_row.tolist(), plus_rows.tolist(),
                                       elems.index(algebra.zero))


def shuffled(table, seed):
    perm = list(range(table.size))
    random.Random(seed).shuffle(perm)
    return relabel(table, perm)


def corruptions(table, seed):
    """Four seeded corruptions: one plus entry, a symmetric pair of plus
    entries (commutativity survives), one neg entry, and zero moved."""
    rng = random.Random(seed)
    n = table.size
    neg = list(table.neg_row)
    plus = [list(r) for r in table.plus_rows]
    out = []
    x, y = rng.randrange(n), rng.randrange(n)
    rows = [list(r) for r in plus]
    rows[x][y] = rng.choice([v for v in range(n) if v != rows[x][y]])
    out.append(make_finite(neg, rows, table.zero))
    x, y = rng.sample(range(n), 2)
    rows = [list(r) for r in plus]
    rows[x][y] = rows[y][x] = rng.choice([v for v in range(n) if v != rows[x][y]])
    out.append(make_finite(neg, rows, table.zero))
    negs = list(neg)
    x = rng.randrange(n)
    negs[x] = rng.choice([v for v in range(n) if v != negs[x]])
    out.append(make_finite(negs, plus, table.zero))
    out.append(make_finite(neg, plus, rng.choice(
        [v for v in range(n) if v != table.zero])))
    return out


def corrupted_plus(heights, cells):
    """neg and plus of the table of the product of the chains Chain(m),
    m in ``heights``, with the plus cells (x, y) set to ``cells[x, y]``."""
    table = to_finite(product([make_chain(m) for m in heights]))
    plus = [list(r) for r in table.plus_rows]
    for (x, y), v in cells.items():
        plus[x][y] = v
    return list(table.neg_row), plus


def certified(table) -> bool:
    try:
        decompose(table)
    except ValueError as exc:
        text = str(exc)
        assert text.startswith("not an MV-algebra: ") and "\n" not in text
        return False
    return True


CATALOG_30 = [to_finite(a) for a in chain_product_catalog(30) if a.blocks]
CATALOG_24 = [to_finite(a) for a in chain_product_catalog(24)]


class TestCertificate:
    def test_accepts_exactly_what_the_axioms_accept(self):
        assert len(CATALOG_30) == 69
        accepted = rejected = 0
        for k, table in enumerate(CATALOG_30):
            for candidate in [table, shuffled(table, f"perm:{k}")] \
                    + corruptions(table, f"corrupt:{k}"):
                ok = check_axioms(candidate, mode="exhaustive").ok
                assert certified(candidate) == ok, describe(table)
                accepted += ok
                rejected += not ok
        assert accepted >= 2 * len(CATALOG_30) and rejected > 200

    def test_the_one_element_table_is_the_empty_product(self):
        dec = decompose(make_finite([0], [[0]]))
        assert dec.heights == () and dec.coords == ((),) and dec.at == [0]

    def test_levels_of_a_chain_product_table_are_its_elements(self):
        for algebra in chain_product_catalog(24):
            table = to_finite(algebra)
            dec = decompose(table)
            assert dec.heights == tuple(b.m for b in algebra.blocks)
            assert list(dec.coords) == elements(algebra)
            assert dec.at == list(range(table.size))
            assert decompose(table) is dec

    @pytest.mark.parametrize("neg, plus, witness", [
        ([1, 0], [[0, 0], [0, 0]], "elements 0 and 1 both have levels []"),
        ([1, 0], [[0, 0], [0, 1]],
         "0 meets the atom 1 outside the chain below it"),
        ([1, 2, 0], [[2, 1, 2], [1, 1, 1], [2, 1, 0]], "zero 0 has levels [1]"),
        ([2, 1, 0], [[1, 0, 2], [0, 0, 2], [2, 2, 2]],
         "neg(0) = 2 is not the levelwise negation"),
        ([2, 1, 0], [[0, 1, 2], [1, 0, 2], [2, 2, 2]],
         "plus(1, 1) = 0 is not the levelwise truncated sum"),
        ([3, 2, 1, 0], [[3, 1, 2, 3], [1, 1, 3, 3], [2, 3, 0, 0], [3, 3, 0, 3]],
         "no element has levels [0, 1]"),
        # two bad plus cells: the row-major first is named
        (*corrupted_plus((2, 1), {(0, 0): 1, (1, 2): 4}),
         "plus(0, 0) = 1 is not the levelwise truncated sum"),
        (*corrupted_plus((2, 1), {(2, 3): 0, (4, 5): 0}),
         "plus(2, 3) = 0 is not the levelwise truncated sum"),
        (*corrupted_plus((1, 1, 1), {(3, 5): 6, (5, 3): 0}),
         "plus(3, 5) = 6 is not the levelwise truncated sum"),
    ])
    def test_each_refusal_names_its_witness(self, neg, plus, witness):
        table = make_finite(neg, plus)
        with pytest.raises(ValueError) as exc:
            decompose(table)
        assert str(exc.value) == f"not an MV-algebra: {witness}"
        assert not check_axioms(table, mode="exhaustive").ok


class TestBlockProductDecomposition:
    def test_a_block_product_is_decomposed_without_enumerating(self, monkeypatch):
        def refuse(algebra):
            raise AssertionError(f"enumerated the carrier of {algebra!r}")

        monkeypatch.setattr(core, "elements", refuse)
        big = make_chain(10 ** 6)
        dec = decompose(big)
        assert dec.heights == (10 ** 6,) and dec.weights == (1,)
        assert dec.codes == dec.at == range(10 ** 6 + 1)
        up = enumerate_homs(make_chain(1), big)
        assert len(up) == 1 and up[0]((1,)) == (10 ** 6,)
        assert enumerate_homs(big, make_chain(1)) == []

    def test_it_agrees_with_the_certificate_of_its_table(self):
        algebras = chain_product_catalog(128)
        assert len(algebras) == 497
        for algebra in algebras:
            dec = decompose(algebra)
            table = decompose(to_finite(algebra))
            assert (dec.heights, dec.weights) == (table.heights, table.weights)
            n = list(range(len(table.codes)))
            assert list(dec.coords) == elements(algebra)
            assert list(dec.codes) == list(dec.at) == n

    def test_a_chain_product_is_tabled_by_formula(self, monkeypatch):
        """``to_finite`` of every catalog algebra, the terminal one
        included, is its pointwise table, and the decomposition it adopts
        is the certificate of that pointwise copy; decomposing it
        certifies nothing.  A relabelled copy of each algebra of at most 64
        elements is certified through the renumbering of ``_chain_table``."""
        certify = core._certify

        def refuse(table):
            raise AssertionError("certified a table built by formula")

        monkeypatch.setattr(core, "_certify", refuse)
        algebras = chain_product_catalog(256)
        assert len(algebras) == 1244 and not algebras[0].blocks
        for algebra in algebras:
            table = to_finite(algebra)
            dec = decompose(table)
            elems = elements(algebra)
            pointwise = batched_table(algebra, elems)
            assert (table.neg_row, table.plus_rows, table.zero) == (
                pointwise.neg_row, pointwise.plus_rows, pointwise.zero), \
                describe(algebra)
            fresh = certify(pointwise)
            assert (dec.heights, dec.codes, dec.at, dec.coords) == (
                fresh.heights, fresh.codes, fresh.at, fresh.coords), \
                describe(algebra)
            if len(elems) <= 64:
                random.Random(describe(algebra)).shuffle(elems)
                levels = certify(batched_table(algebra, elems)).coords
                assert sorted(zip(*levels)) == sorted(zip(*elems)), describe(algebra)

    def test_an_infinite_carrier_is_refused(self):
        with pytest.raises(ValueError, match=r"^cannot enumerate infinite "
                                             r"carrier of Komori\(1,1\)$"):
            decompose(product([make_chain(2), make_komori(1, 1)]))


class TestHoms:
    def test_enumerate_homs_is_hom_tables_in_order(self):
        assert len(CATALOG_24) == 53
        total = 0
        for dom, cod in itertools.product(CATALOG_24, repeat=2):
            homs = enumerate_homs(dom, cod)
            assert [h.body.table for h in homs] == hom_tables(dom, cod)
            total += len(homs)
        assert total == 5117

    def test_relabelled_tables(self):
        for k, table in enumerate(CATALOG_24[:32]):
            other = shuffled(table, f"hom:{k}")
            for dom, cod in ((table, other), (other, table), (other, other)):
                homs = enumerate_homs(dom, cod)
                assert [h.body.table for h in homs] == hom_tables(dom, cod)

    def test_block_products_get_coordinate_maps(self):
        algebras = chain_product_catalog(12)
        for dom, cod in itertools.product(algebras, repeat=2):
            index = {y: k for k, y in enumerate(elements(cod))}
            homs = enumerate_homs(dom, cod)
            assert all(isinstance(h.body, CoordMap) for h in homs)
            assert [tuple(index[h(x)] for x in elements(dom)) for h in homs] \
                == hom_tables(to_finite(dom), to_finite(cod))


def first_bijection(dom, cod):
    return next((t for t in hom_tables(dom, cod) if len(set(t)) == cod.size),
                None)


class TestIsomorphism:
    def test_first_isomorphism_is_the_first_bijective_hom_table(self):
        tables = [to_finite(a) for a in chain_product_catalog(16)]
        for k, table in enumerate(tables):
            copies = [table, shuffled(table, f"iso:{k}:0"),
                      shuffled(table, f"iso:{k}:1")]
            others = [t for t in tables if t.size == table.size]
            for dom, cod in itertools.product(copies, copies + others):
                found = find_isomorphism(dom, cod)
                want = first_bijection(dom, cod)
                assert (None if found is None else found.body.table) == want
                assert are_isomorphic(dom, cod) == (want is not None)

    def test_distinct_heights_need_no_levels(self, monkeypatch):
        def refuse(self):
            raise AssertionError("levels read")

        monkeypatch.setattr(core.Decomposition, "coords", property(refuse))
        chain = make_chain(10 ** 6)
        iso = find_isomorphism(chain, chain)
        assert iso.body.rows == ((0, 1, ()),)

    def test_mixed_pairs(self):
        a = product([make_chain(1), make_chain(2)])
        b = shuffled(to_finite(product([make_chain(2), make_chain(1)])), "mixed")
        there, back = find_isomorphism(a, b), find_isomorphism(b, a)
        assert len(set(there.body.table)) == 6
        assert all(back(there(x)) == x for x in elements(a))
        assert there.body.table == first_bijection(to_finite(a), b)

    def test_the_256_element_boolean_table_is_fast(self):
        boolean = to_finite(product([make_chain(1)] * 8))
        copy = shuffled(boolean, "boolean")
        start = time.perf_counter()
        iso = find_isomorphism(boolean, copy)
        assert are_isomorphic(boolean, copy)
        elapsed = time.perf_counter() - start
        t = iso.body.table
        assert sorted(t) == list(range(256))
        assert all(t[boolean.neg(x)] == copy.neg(t[x]) for x in range(256))
        assert all(t[boolean.plus(x, y)] == copy.plus(t[x], t[y])
                   for x in range(256) for y in range(256))
        assert elapsed < 5


def closure(table, generators):
    """The least ideal containing ``generators``, by closing under (+) and
    under going down, as ``generated_ideal`` once did on tables."""
    member = {table.zero, *generators}
    while True:
        grown = member | {table.plus(x, y) for x in member for y in member} \
            | {z for z in range(table.size) for x in member if leq(table, z, x)}
        if grown == member:
            return frozenset(member)
        member = grown


def ideals_by_joins(table):
    """All ideals: the joins of principal ideals, grown breadth first."""
    principals = {closure(table, [x]) for x in range(table.size)}
    found = {frozenset({table.zero})}
    frontier = list(found)
    while frontier:
        grown = []
        for ideal in frontier:
            for p in principals:
                joined = frozenset(table.plus(x, y) for x in ideal for y in p)
                if joined not in found:
                    found.add(joined)
                    grown.append(joined)
        frontier = grown
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def quotient_by_distance(table, ideal):
    """(neg, plus, zero, classes): classes joined by the distance term
    landing in the ideal, numbered by first element."""
    n = table.size
    class_of = [None] * n
    reps = []
    for x in range(n):
        if class_of[x] is not None:
            continue
        reps.append(x)
        for y in range(x, n):
            if class_of[y] is None and dist(table, x, y) in ideal:
                class_of[y] = len(reps) - 1
    neg_row = tuple(class_of[table.neg(r)] for r in reps)
    plus_rows = tuple(tuple(class_of[table.plus(r, s)] for s in reps)
                      for r in reps)
    return neg_row, plus_rows, class_of[table.zero], tuple(class_of)


SMALL_TABLES = [to_finite(a) for a in chain_product_catalog(12)]
SMALL_TABLES += [shuffled(t, f"ideals:{k}") for k, t in enumerate(SMALL_TABLES)]


class TestIdealsAndQuotients:
    def test_all_ideals_are_the_joins_of_principal_ideals(self):
        for table in SMALL_TABLES:
            assert [i.elements for i in all_ideals(table)] == \
                ideals_by_joins(table)

    def test_quotient_data_is_the_distance_quotient(self):
        for table in SMALL_TABLES:
            for ideal in all_ideals(table):
                result = quotient(table, ideal)
                q, class_of = result.algebra, result.projection.body.table
                assert (q.neg_row, q.plus_rows, q.zero, class_of) == \
                    quotient_by_distance(table, ideal.elements)
                assert certified(q)

    def test_a_quotient_keeps_the_surviving_chains(self):
        # the decompositions that quotients and ideal subalgebras adopt are
        # the ones a fresh copy of their tables certifies
        tables = SMALL_TABLES + [
            shuffled(to_finite(product([make_chain(2), make_chain(3)])), "q")]
        for table in tables:
            for ideal in all_ideals(table):
                for built in (quotient(table, ideal).algebra,
                              ideal_subalgebra(table, ideal).algebra):
                    kept = decompose(built)
                    fresh = decompose(make_finite(built.neg_row, built.plus_rows,
                                                  built.zero))
                    assert (kept.heights, kept.coords) \
                        == (fresh.heights, fresh.coords)

    def test_generated_ideal_is_the_closure(self):
        for table in SMALL_TABLES:
            for x, y in itertools.combinations(range(table.size), 2):
                assert generated_ideal(table, [x, y]).elements == \
                    closure(table, [x, y])

    def test_validate_ideal_accepts_exactly_the_ideals(self):
        for table in [t for t in SMALL_TABLES if t.size <= 8]:
            others = [x for x in range(table.size) if x != table.zero]
            for k in range(len(others) + 1):
                for rest in itertools.combinations(others, k):
                    subset = frozenset((table.zero, *rest))
                    try:
                        validate_ideal(table, FiniteIdeal(subset))
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == is_ideal(table, subset) \
                        == oracles.is_ideal(table, subset)

    def test_a_subset_that_is_not_an_ideal_has_no_quotient(self):
        with pytest.raises(ValueError, match="not an ideal: the ideal it "
                                             "generates also holds 2"):
            quotient(to_finite(make_chain(3)), FiniteIdeal(frozenset({0, 1})))

    def test_conegation_disjointness_is_the_literal_intersection(self):
        for table in SMALL_TABLES:
            rad = radical(table).elements
            for ideal in all_ideals(table):
                conegs = {table.neg(x) for x in ideal.elements}
                assert radical_conegation_disjoint(table, ideal) == \
                    (not rad & conegs)

    def test_structural_tools_refuse_a_table_that_is_not_an_mv_algebra(self):
        bad = make_finite([1, 0], [[0, 0], [0, 0]])
        for tool in (all_ideals, radical, radical_projection,
                     lambda a: enumerate_homs(a, a)):
            with pytest.raises(ValueError, match="^not an MV-algebra"):
                tool(bad)
        assert not check_axioms(bad, mode="exhaustive").ok


class TestLiteralScans:
    def test_radicals_nilpotence_polars_and_ideals_are_the_literal_scans(self):
        tables = [to_finite(a) for a in chain_product_catalog(30)]
        assert len(tables) == 70
        for k, table in enumerate(tables):
            for t in (table, shuffled(table, f"scans:{k}")):
                scan = FiniteIdeal(oracles.infinitesimals(t))
                for method in ("inf", "maximal", "nilpotent"):
                    assert radical(t, method) == scan, (describe(table), method)
                assert radical(t, "nilpotent") == oracles.nilpotent_radical(t)
                for ideal in all_ideals(t):
                    assert is_nilpotent_ideal(t, ideal) == oracles.is_nilpotent(t, ideal)
                    assert polar(t, ideal) == oracles.polar(t, ideal)
                    inside = sorted(ideal.elements - {t.zero})
                    outside = sorted(set(range(t.size)) - ideal.elements)
                    subsets = [ideal.elements, ideal.elements - set(inside[-1:]),
                               ideal.elements | set(outside[:1])]
                    for subset in subsets:
                        assert is_ideal(t, subset) == oracles.is_ideal(t, subset)
            if table.size == 1:
                continue
            for bad in corruptions(table, f"scans:{k}"):
                zero = FiniteIdeal(frozenset({bad.zero}))
                for call in (lambda: radical(bad, "inf"),
                             lambda: radical(bad, "maximal"),
                             lambda: radical(bad, "nilpotent"),
                             lambda: is_nilpotent_ideal(bad, zero),
                             lambda: polar(bad, zero),
                             lambda: is_ideal(bad, zero.elements)):
                    with pytest.raises(ValueError, match="^not an MV-algebra"):
                        call()


TABLES_24 = CATALOG_24 + [shuffled(t, f"view:{k}") for k, t in enumerate(CATALOG_24)]


class TestIdealRulesOnTheChainView:
    """On tables, generated ideals, joins and maximal ideals run the
    marker rule on the chain view; these are their literal definitions."""

    def test_generated_ideal_is_the_closure(self):
        rng = random.Random("generated")
        for table in TABLES_24:
            sets = [[x] for x in range(table.size)] + [
                rng.sample(range(table.size), min(k, table.size))
                for k in (2, 3, 4) for _ in range(3)]
            for gens in sets:
                assert generated_ideal(table, gens).elements == closure(table, gens)

    def test_ideal_join_is_the_sumset(self):
        for table in TABLES_24:
            ideals = all_ideals(table)
            for i, j in itertools.product(ideals, repeat=2):
                assert ideal_join(table, i, j).elements == frozenset(
                    table.plus(x, y) for x in i.elements for y in j.elements)

    def test_maximal_ideals_are_the_maximal_proper_ideals(self):
        for table in TABLES_24:
            proper = [i.elements for i in all_ideals(table)
                      if len(i.elements) < table.size]
            literal = {i for i in proper if not any(i < j for j in proper)}
            found = [i.elements for i in maximal_ideals(table)]
            assert len(found) == len(set(found)) and set(found) == literal


def symbolic_pool(tag, count):
    out = []
    for seed in range(count):
        rng = random.Random(f"{tag}:{seed}")
        algebra = random_block_algebra(rng)
        ideals = all_ideals(algebra)
        out.append((algebra, ideals[rng.randrange(len(ideals))],
                    ideals[rng.randrange(len(ideals))]))
    return out


class TestBodyOperationsNeedNoRecheck:
    """``CoordMap.factor`` and ``CoordMap.corestrict`` return the CoordMap
    their formulas build without running ``_check_coords`` on it again; on
    the gates' symbolic pools that check accepts every result, read at
    each call site's ends: ``factor_through_quotient``, the reflections
    ``_reflected`` and the precokernel probes for ``factor``."""

    def test_every_coordinate_result_passes_the_check(self, monkeypatch):
        checked = []
        factor, corestrict = CoordMap.factor, CoordMap.corestrict
        through_quotient = morphisms.factor_through_quotient
        reflected = pretorsion._reflected
        precokernel_outcomes = pretorsion._precokernel_outcomes
        quotient_parts = pretorsion._quotient_parts
        # id of a precokernel probe t, as _precokernel_outcomes builds it
        # with _quotient_parts -> (g.cod's view, t's codomain, t);
        # holding t keeps its id from being reused while it is looked up
        probe_ends = {}

        def checked_factor(q, f):
            g = factor(q, f)
            assert q.then(g) == f
            if id(f) in probe_ends:
                B, C, _ = probe_ends[id(f)]
                _check_coords(B, C, g)
                checked.append("probe")
            checked.append("factor")
            return g

        def checked_reflected(h, source, target):
            r = reflected(h, source, target)
            _check_coords(source[1], target[1], r)
            checked.append("reflected")
            return r

        def checked_precokernel_outcomes(g, k):
            B = core._view(g.cod)

            def probe(algebra, markers):
                C, t = quotient_parts(algebra, markers)
                probe_ends[id(t)] = (B, C, t)
                return C, t
            monkeypatch.setattr(pretorsion, "_quotient_parts", probe)
            try:
                return precokernel_outcomes(g, k)
            finally:
                monkeypatch.setattr(pretorsion, "_quotient_parts", quotient_parts)
                probe_ends.clear()

        def checked_corestrict(e, through, E, sub):
            phi = corestrict(e, through, E, sub)
            _check_coords(E, sub, phi)
            checked.append("corestrict")
            return phi

        def checked_through_quotient(*args):
            g = through_quotient(*args)
            if isinstance(g.body, CoordMap):
                _check_coords(g.dom, g.cod, g.body)
                checked.append("factor_through_quotient")
            return g

        monkeypatch.setattr(CoordMap, "factor", checked_factor)
        monkeypatch.setattr(CoordMap, "corestrict", checked_corestrict)
        for module in (morphisms, pretorsion, galois, galois2, terms):
            monkeypatch.setattr(module, "factor_through_quotient", checked_through_quotient)
        for module in (pretorsion, galois):
            monkeypatch.setattr(module, "_reflected", checked_reflected)
        monkeypatch.setattr(pretorsion, "_precokernel_outcomes", checked_precokernel_outcomes)

        for algebra, i, _ in symbolic_pool("em", 100):
            f = quotient(algebra, i).projection
            fac = em_factorize(f)
            fill_diagonal(fac.e, fac.m, fac.e, fac.m)
        for algebra, i, j in symbolic_pool("dbl", 80):
            square_from_ideals(algebra, i, j)
            commutator_pair(algebra, i, j)
        for algebra, i, _ in symbolic_pool("refl", 30):
            f = quotient(algebra, i).projection
            central_reflection(f)
            trivial_via_pullback(f)
        for algebra, _, j in symbolic_pool("seq", 20):
            seq = pre_exact(algebra)
            is_prekernel(seq.inclusion, seq.projection)
            is_precokernel(seq.projection, seq.inclusion)
            # a pre-exact pair builds one probe of each kind; ideal pairs
            # that are not pre-exact build a probe to word each failure
            g = quotient(algebra, j).projection
            for ideal in all_ideals(algebra):
                k = ideal_subalgebra(algebra, ideal).inclusion
                is_prekernel(k, g)
                is_precokernel(g, k)
        for algebra, _, _ in symbolic_pool("stab", 20):
            eta = radical_projection(algebra)
            stability_check(eta, eta)
        assert checked.count("factor") == (checked.count("factor_through_quotient")
                                           + checked.count("reflected")
                                           + checked.count("probe"))
        assert checked.count("factor") > 300
        assert checked.count("corestrict") > 300
        assert checked.count("factor_through_quotient") > 300
        assert checked.count("reflected") >= 30
        assert checked.count("probe") > 50


class TestKernelInRadicalPolar:
    def test_the_meet_test_is_the_polar_containment(self):
        maps = [quotient(a, i).projection for a, i, _ in symbolic_pool("cls", 100)]
        tables = [to_finite(a) for a in chain_product_catalog(6)]
        maps += [h for dom, cod in itertools.product(tables, repeat=2)
                 for h in enumerate_homs(dom, cod)
                 if len(image_set(h)) == cod.size]
        for f in maps:
            rep = classify_extension(f)
            rad = radical(f.dom)
            assert rep.kernel_in_radical_polar == \
                ideal_leq(f.dom, rep.kernel, polar(f.dom, rad))
