"""The array evaluators against the tuple-streaming runner.

Exhaustive identity checks evaluate each identity once on index grids of
the table, and sampled checks once per chunk of sample columns.  The
runner feeds the same identity definitions one element tuple at a time,
in the lexicographic order of ``elements`` or in the order of the decoded
sample stream, and is the reference: both must report the same ``ok``,
``witness`` and ``checked`` on catalog tables, on corrupted copies of
them, on random block algebras, and on a block algebra whose addition is
broken.  Batched block addition and negation are held to the scalar
block operations.
"""

import collections
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from mvtk import (
    Chain,
    Komori,
    SymbolicAlgebra,
    all_ideals,
    are_isomorphic,
    chain_product_catalog,
    check_axioms,
    check_derived_identities,
    check_lattice_identities,
    compose,
    decompose,
    describe,
    elements,
    enumerate_homs,
    ideal_contains,
    ideal_elements,
    ideal_subalgebra,
    identity,
    image_set,
    is_morphism,
    is_precokernel,
    is_prekernel,
    is_regular_pushout,
    make_chain,
    make_finite,
    make_komori,
    maximal_ideals,
    pre_exact,
    product,
    protoadditivity_check,
    pullback,
    quotient,
    radical,
    random_block_algebra,
    sample_tuples,
    square_from_ideals,
    to_finite,
    trivial_via_pullback,
    verify_pixley,
    verify_protomodularity,
)
from mvtk import core, morphisms
from mvtk.core import (
    _axiom_checks,
    _BlockColumns,
    _block_neg,
    _block_plus,
    _derived_checks,
    _lattice_checks,
    _Rows,
    _SAMPLE_BOUND,
    run_checks,
)
from mvtk.terms import _pixley_checks, _recovery_checks

CATALOG = chain_product_catalog(30)


def corruptions(table, seed):
    """Four copies of ``table``, each with one entry changed: three in
    ``plus`` and one in ``neg``."""
    rng = random.Random(seed)
    n = table.size
    out = []
    for kind in ("plus", "plus", "plus", "neg"):
        rows = [list(r) for r in table.plus_rows]
        neg = list(table.neg_row)
        x, y = rng.randrange(n), rng.randrange(n)
        if kind == "plus":
            rows[x][y] = rng.choice([v for v in range(n) if v != rows[x][y]])
        else:
            neg[x] = rng.choice([v for v in range(n) if v != neg[x]])
        out.append(make_finite(neg, rows, table.zero))
    return out


def fields(report):
    return [(r.name, r.ok, r.witness, r.checked) for r in report.results]


def runner_report(algebra, checks):
    def tuples(name, arity):
        return itertools.product(elements(algebra), repeat=arity)
    return run_checks(checks(algebra), tuples, "reference", "exhaustive")


def assert_backends_agree(algebra):
    table = to_finite(algebra)
    banks = [(check_axioms(algebra, mode="exhaustive"), _axiom_checks,
              algebra),
             (check_derived_identities(algebra, mode="exhaustive"),
              _derived_checks, algebra),
             # term reports are about the table form
             (verify_protomodularity(algebra, mode="exhaustive"),
              _recovery_checks, table)]
    if table.size <= 12:
        banks.append((check_lattice_identities(algebra, mode="exhaustive"),
                      _lattice_checks, algebra))
    for grid, checks, carrier in banks:
        assert grid.mode == "exhaustive"
        assert fields(grid) == fields(runner_report(carrier, checks))


@pytest.mark.parametrize("algebra", [a for a in CATALOG
                                     if len(elements(a)) > 1], ids=describe)
def test_catalog_table_and_its_corruptions(algebra):
    table = to_finite(algebra)
    assert_backends_agree(table)
    for bad in corruptions(table, f"engine:{describe(algebra)}"):
        assert_backends_agree(bad)


class BrokenSum(SymbolicAlgebra):
    """Chain(2) x Chain(1) whose addition is wrong at one ordered pair."""

    def plus(self, x, y):
        if (x, y) == ((1, 0), (0, 1)):
            return self.zero
        return super().plus(x, y)


def test_witnesses_of_a_block_algebra_are_its_elements():
    broken = BrokenSum(product([make_chain(2), make_chain(1)]).blocks)
    report = check_axioms(broken, mode="exhaustive")
    assert not report.ok
    assert all(isinstance(v, tuple) for r in report.failures()
               for v in r.witness)
    assert_backends_agree(broken)


class PassedSum(SymbolicAlgebra):
    """Chain(2) x Chain(1) whose addition is overridden by its blocks'."""

    def plus(self, x, y):
        return super().plus(x, y)


BLOCKS_2_1 = product([make_chain(2), make_chain(1)])


def test_an_overridden_sum_is_refused_not_read_off_its_blocks():
    broken = BrokenSum(BLOCKS_2_1.blocks)
    with pytest.raises(ValueError, match=r"^not an MV-algebra: "):
        are_isomorphic(broken, BLOCKS_2_1)
    with pytest.raises(ValueError, match=r"^not an MV-algebra: "):
        decompose(broken)


def test_a_correct_override_still_decomposes():
    passed = PassedSum(BLOCKS_2_1.blocks)
    assert are_isomorphic(passed, BLOCKS_2_1)
    dec, blocks = decompose(passed), decompose(BLOCKS_2_1)
    assert (dec.heights, list(dec.codes), list(dec.at)) \
        == (blocks.heights, list(blocks.codes), list(blocks.at))
    assert to_finite(passed) == to_finite(BLOCKS_2_1)
    assert check_axioms(passed, mode="sample", count=200).ok


class OrSum(SymbolicAlgebra):
    """Chain(3) whose addition is overridden by bitwise or: with ``neg``
    x -> 3 - x, the Boolean algebra Chain(1) x Chain(1)."""

    def plus(self, x, y):
        return (x[0] | y[0],)


def test_an_override_is_decomposed_through_its_own_operations():
    boolean = OrSum(make_chain(3).blocks)
    assert check_axioms(boolean, mode="exhaustive").ok
    assert check_axioms(boolean, mode="sample", count=200).ok
    dec = decompose(boolean)
    assert dec.heights == (1, 1)
    assert [core._levels(boolean)(x) for x in elements(boolean)] \
        == list(dec.coords)
    assert are_isomorphic(boolean, product([make_chain(1), make_chain(1)]))
    assert not are_isomorphic(boolean, make_chain(3))


def test_an_override_is_another_algebra_than_its_blocks():
    boolean, chain = OrSum(make_chain(3).blocks), make_chain(3)
    assert boolean != chain and chain != boolean
    with pytest.raises(ValueError, match=r"^composite needs f.cod == g.dom$"):
        compose(identity(boolean), identity(chain))


def test_an_override_is_certified_once(monkeypatch):
    """It keeps its decomposition as a table does: its ideals, radicals,
    memberships, quotients and ideal subalgebras certify one table."""
    boolean = OrSum(make_chain(3).blocks)
    certified = []
    certify = core._certify
    monkeypatch.setattr(core, "_certify",
                        lambda table: certified.append(table) or certify(table))
    ideals = all_ideals(boolean)
    for method in ("inf", "maximal", "nilpotent"):
        radical(boolean, method)
    for ideal in ideals:
        for x in elements(boolean):
            ideal_contains(boolean, ideal, x)
        quotient(boolean, ideal)
        ideal_subalgebra(boolean, ideal)
    assert len(certified) == 1


def test_an_override_is_not_enumerated_per_membership(monkeypatch):
    """An element of an override is read at its mixed-radix code, so a
    membership does not list the carrier."""
    boolean = OrSum(make_chain(3).blocks)
    ideals, elems = all_ideals(boolean), elements(boolean)
    listed = []
    enumerate_all = core.elements
    monkeypatch.setattr(core, "elements",
                        lambda algebra: listed.append(algebra) or enumerate_all(algebra))
    members = [ideal_contains(boolean, ideal, x) for ideal in ideals for x in elems]
    assert len(members) == 16 and listed == []


def test_an_override_is_not_tabled_per_pullback(monkeypatch):
    """A literal pullback lays out its table from the pair codes, so after
    the one certification it does not table the override again."""
    boolean = OrSum(make_chain(3).blocks)
    f = identity(boolean)
    tabled = []
    table_on = core.table_on
    monkeypatch.setattr(core, "table_on",
                        lambda *args: tabled.append(args) or table_on(*args))
    pbs = [pullback(f, f) for _ in range(5)]
    assert [pb.algebra.size for pb in pbs] == [4] * 5 and tabled == []


def test_pullback_comparisons_build_no_table(monkeypatch):
    """The pullback criterion, the regular-pushout comparison and the
    protoadditivity comparison are decided on the chain views, so over
    table maps they build no literal pullback and no table."""
    tables = [to_finite(a) for a in chain_product_catalog(8)]
    homs = [h for dom in tables for cod in tables for h in enumerate_homs(dom, cod)]
    squares = [square_from_ideals(fin, i, j) for fin in tables
               for i, j in itertools.product(all_ideals(fin), repeat=2)]
    splits = [(p, s, identity(p.cod)) for p in homs if p.is_surjective()
              for s in enumerate_homs(p.cod, p.dom)[:1]]
    built = collections.Counter()
    literal = morphisms._literal_pullback
    of_rows = core.FiniteAlgebra._of_rows
    monkeypatch.setattr(morphisms, "_literal_pullback",
                        lambda *args: built.update(["pullbacks"]) or literal(*args))
    monkeypatch.setattr(core.FiniteAlgebra, "_of_rows", staticmethod(
        lambda *args: built.update(["tables"]) or of_rows(*args)))
    assert all(trivial_via_pullback(h).commutes for h in homs)
    assert all(is_regular_pushout(sq).comparison_surjective for sq in squares)
    assert all(protoadditivity_check(*split).compared for split in splits)
    assert (len(homs), len(squares), len(splits)) == (170, 141, 31)
    assert built == {}


def test_a_certified_override_is_tabled_by_the_chain_formula(monkeypatch):
    """Once certified, an override is tabled from its decomposition, so
    exhaustive checks table it no more; that table is its pointwise one."""
    boolean = OrSum(make_chain(3).blocks)
    decompose(boolean)
    tabled = []
    table_on = core.table_on
    monkeypatch.setattr(core, "table_on",
                        lambda *args: tabled.append(args) or table_on(*args))
    assert all(check_axioms(boolean, mode="exhaustive").ok for _ in range(5))
    assert tabled == []
    pointwise = table_on(elements(boolean), boolean.plus, boolean.neg, boolean.zero)
    assert to_finite(boolean) == pointwise


@pytest.mark.parametrize("algebra, x", [
    (make_chain(2), (5,)), (make_chain(2), "x"),
    (to_finite(make_chain(3)), 9), (OrSum(make_chain(3).blocks), (4,))],
    ids=["chain-level", "chain-string", "table", "override"])
def test_ideal_contains_refuses_a_non_element(algebra, x):
    for ideal in all_ideals(algebra):
        with pytest.raises(ValueError, match=rf"^not an element: {re.escape(repr(x))}$"):
            ideal_contains(algebra, ideal, x)


OVERRIDES = [OrSum(make_chain(3).blocks), PassedSum(BLOCKS_2_1.blocks)]


@pytest.mark.parametrize("override", OVERRIDES, ids=lambda a: type(a).__name__)
def test_an_override_answers_like_its_table(override):
    """Ideals, radicals, quotients, subalgebras, homs and the pre-exact
    sequence of a block product that overrides its operations are those
    of its own table, matched through ``elements``: they are read on its
    certified chains, not on its blocks."""
    table, elems = to_finite(override), elements(override)
    at = {x: i for i, x in enumerate(elems)}

    def members(algebra, ideal):
        found = ideal_elements(algebra, ideal)
        return frozenset(map(at.__getitem__, found) if algebra is override
                         else found)

    def paired(listed):
        # each ideal of the override with the table ideal of its members
        by_members = {members(table, i): i for i in listed(table)}
        return [(i, by_members[members(override, i)]) for i in listed(override)]

    ideals = paired(all_ideals)
    assert len(ideals) == len(all_ideals(table)) == 4 == len(set(
        members(override, i) for i, _ in ideals))
    assert len(paired(maximal_ideals)) == len(maximal_ideals(table))
    for method in ("inf", "maximal", "nilpotent"):
        assert members(override, radical(override, method)) \
            == members(table, radical(table, method))
    assert [identity(override)(x) for x in elems] == elems

    boolean = product([make_chain(1), make_chain(1)])
    assert sorted(tuple(map(h, elems)) for h in enumerate_homs(override, boolean)) \
        == sorted(tuple(map(h, range(len(elems))))
                  for h in enumerate_homs(table, boolean))
    assert sorted(tuple(at[h(y)] for y in elements(boolean))
                  for h in enumerate_homs(boolean, override)) \
        == sorted(tuple(map(h, elements(boolean)))
                  for h in enumerate_homs(boolean, table))

    for mine, its in ideals:
        assert [ideal_contains(override, mine, x) for x in elems] \
            == [ideal_contains(table, its, at[x]) for x in elems]
        q, tq = quotient(override, mine), quotient(table, its)
        assert are_isomorphic(q.algebra, tq.algebra)
        assert is_morphism(q.projection).ok
        assert [[q.projection(x) == q.projection(y) for y in elems] for x in elems] \
            == [[tq.projection(at[x]) == tq.projection(at[y]) for y in elems]
                for x in elems]
        s, ts = ideal_subalgebra(override, mine), ideal_subalgebra(table, its)
        assert are_isomorphic(s.algebra, ts.algebra)
        assert is_morphism(s.inclusion).ok
        assert {at[v] for v in image_set(s.inclusion)} == image_set(ts.inclusion)

    seq, tseq = pre_exact(override), pre_exact(table)
    prekernel = is_prekernel(seq.inclusion, seq.projection)
    precokernel = is_precokernel(seq.projection, seq.inclusion)
    assert prekernel.ok and precokernel.ok
    assert prekernel == is_prekernel(tseq.inclusion, tseq.projection)
    assert precokernel == is_precokernel(tseq.projection, tseq.inclusion)


def test_an_overriding_komori_product_is_refused():
    komori = PassedSum(make_komori(1, 1).blocks)
    for call in (all_ideals, radical, identity, maximal_ideals, decompose):
        with pytest.raises(ValueError, match=r"^cannot enumerate infinite "
                                             r"carrier of Komori\(1,1\)$"):
            call(komori)
    assert getattr(komori, "_dec", None) is None


def test_pixley_fails_at_a_pair_and_counts_triples():
    table = to_finite(make_chain(3))
    rows = [list(r) for r in table.plus_rows]
    rows[1][2] = 0
    bad = make_finite(table.neg_row, rows)
    report = verify_pixley(bad, mode="exhaustive")
    first = report.failures()[0]
    assert (first.name, first.witness) == ("pixley_xxz", (0, 2))
    # pairs (0, 0), (0, 1), (0, 2), each settling four values of y
    assert first.checked == 3 * 4
    assert [r.checked for r in report.results if r.ok] \
        == [64] * (len(report.results) - len(report.failures()))


# ---------------------------------------------------------------------------
# batched block operations against the scalar ones

BLOCKS = st.one_of(
    st.integers(1, 6).map(Chain),
    st.tuples(st.integers(1, 4), st.integers(1, 3)).map(lambda p: Komori(*p)))


@st.composite
def block_value(draw, block):
    if isinstance(block, Chain):
        return draw(st.integers(0, block.m))
    a = draw(st.integers(0, block.m))
    low = 0 if a == 0 else -9
    high = 0 if a == block.m else 9
    coefs = draw(st.lists(st.integers(low, high), min_size=block.r,
                          max_size=block.r))
    return (a, tuple(coefs))


@st.composite
def algebra_and_elements(draw):
    algebra = SymbolicAlgebra(draw(st.lists(BLOCKS, min_size=1, max_size=3)))
    value = st.tuples(*[block_value(b) for b in algebra.blocks])
    elems = draw(st.lists(value, min_size=1, max_size=6))
    # sums with the top reach the bound m (from zero) or pass it
    return algebra, elems + [algebra.zero, algebra.one]


@given(algebra_and_elements())
@settings(max_examples=150, deadline=None)
def test_batched_block_operations_match_scalar_ones(case):
    algebra, elems = case
    form = _BlockColumns(algebra)
    view = form.view()
    pairs = list(itertools.product(elems, repeat=2))
    xs = _Rows(form.encode([x for x, _ in pairs]))
    ys = _Rows(form.encode([y for _, y in pairs]))
    sums, negs = view.plus(xs, ys), view.neg(xs)
    assert form.decode(sums) == [
        tuple(_block_plus(b, u, v) for b, u, v in zip(algebra.blocks, x, y))
        for x, y in pairs]
    assert form.decode(negs) == [
        tuple(_block_neg(b, u) for b, u in zip(algebra.blocks, x))
        for x, _ in pairs]
    assert (xs == ys).tolist() == [x == y for x, y in pairs]


# ---------------------------------------------------------------------------
# the sampled evaluator against the runner over decoded samples


def sampled_runner_report(algebra, checks, count, bound, stream_seed):
    def tuples(name, arity):
        return sample_tuples(algebra, arity, count,
                             random.Random(stream_seed(name)), bound)
    return run_checks(checks(algebra), tuples, "reference", "sample")


def assert_sampled_agree(algebra, count, seed, bound=3):
    """Every sampled bank against the runner; Pixley's three identities
    share one stream."""
    options = dict(mode="sample", count=count, bound=bound, seed=seed)
    banks = [(check_axioms(algebra, **options), _axiom_checks,
              lambda name: f"{seed}:{name}"),
             (check_derived_identities(algebra, **options), _derived_checks,
              lambda name: f"{seed}:{name}"),
             (check_lattice_identities(algebra, **options), _lattice_checks,
              lambda name: f"{seed}:{name}"),
             (verify_protomodularity(algebra, **options), _recovery_checks,
              lambda name: f"{seed}:protomodularity"),
             (verify_pixley(algebra, **options), _pixley_checks,
              lambda name: f"{seed}:pixley")]
    failures = 0
    for batched, checks, stream_seed in banks:
        assert batched.mode == "sample"
        reference = sampled_runner_report(algebra, checks, count, bound,
                                          stream_seed)
        assert fields(batched) == fields(reference)
        failures += len(batched.failures())
    return failures


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 16 rows, so streams and witnesses cross chunk borders."""
    monkeypatch.setattr(core, "_CHUNK", 16)


@pytest.mark.parametrize("seed", range(6))
def test_sampled_block_algebras(seed):
    algebra = random_block_algebra(random.Random(seed))
    assert assert_sampled_agree(algebra, 120, seed) == 0


@pytest.mark.parametrize("seed", range(6))
def test_sampled_block_algebras_in_small_chunks(seed, small_chunks):
    algebra = random_block_algebra(random.Random(seed))
    assert assert_sampled_agree(algebra, 120, seed) == 0


def test_sampled_tables_and_corruptions(small_chunks):
    failures = 0
    for algebra in CATALOG:
        table = to_finite(algebra)
        if not 2 <= table.size <= 8:
            continue
        assert assert_sampled_agree(table, 60, 1) == 0
        for bad in corruptions(table, f"sampled:{describe(algebra)}"):
            failures += assert_sampled_agree(bad, 60, 2)
    # corrupted tables are where witnesses appear
    assert failures >= 100


def test_sampled_banks_run_an_overridden_sum():
    broken = BrokenSum(BLOCKS_2_1.blocks)
    report = check_axioms(broken, mode="sample", count=2000)
    assert not report.ok
    assert fields(report) == fields(sampled_runner_report(
        broken, _axiom_checks, 2000, _SAMPLE_BOUND, lambda name: f"0:{name}"))
    assert assert_sampled_agree(broken, 2000, 0) > 0


def test_sampled_identity_without_variables():
    table = to_finite(make_chain(3))
    neg = list(table.neg_row)
    neg[table.one] = 1
    bad = make_finite(neg, table.plus_rows, table.zero)
    first = check_derived_identities(bad, mode="sample", count=30).results[0]
    assert (first.name, first.ok, first.witness, first.checked) \
        == ("neg_one_is_zero", False, (), 1)
    assert assert_sampled_agree(bad, 30, 0) > 0
