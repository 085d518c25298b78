"""The exhaustive grid streams slabs of the first variable: it reports the
same witnesses and ``checked`` counts as the one-shot grid of
``oracles.grid_checks``, holds small temporaries, and refuses an
infinite carrier before numpy loads.  The five identity banks, decided on
the chain factors of a certified table, report as the whole grid, and a
table that does not certify is certified once."""

import subprocess
import sys
import tracemalloc

import pytest

from mvtk import (
    chain_product_catalog,
    check_axioms,
    check_derived_identities,
    decompose,
    make_chain,
    make_finite,
    otimes,
    product,
    to_finite,
    verify_pixley,
    verify_protomodularity,
)
from mvtk import core
from mvtk.core import (
    _axiom_checks,
    _bank_grid,
    _derived_checks,
    _grid,
    _grid_table,
    _lattice_checks,
    elements,
    table_view,
)
from mvtk.terms import _pixley_checks, _recovery_checks
from oracles import grid_checks as one_shot_grid_checks
from contract import shuffled

BANKS = (_axiom_checks, _derived_checks, _lattice_checks, _pixley_checks,
         _recovery_checks)
CHAIN128 = to_finite(make_chain(127))
# 2**7 elements: element i is the bit vector of i, so plus is bitwise or
CUBE128 = to_finite(product([make_chain(1)] * 7))


def slab_grid_checks(algebra, checks, subject):
    """The whole grid of ``checks`` on ``to_finite(algebra)``, streamed in
    slabs by ``core._grid`` with no chain factor read: the reference that
    ``core._bank_grid`` is held to."""
    table = _grid_table(algebra)
    return _grid(table, elements(algebra), checks(table_view(table)), subject)


def _changed(table, x, y, value):
    rows = [list(r) for r in table.plus_rows]
    rows[x][y] = value
    return make_finite(table.neg_row, rows, table.zero)


def _purpose_checks(A):
    """Identities that hold on a chain's table, whose element i has level
    i: the first reads ``plus`` at (x, w) with x first, the second leaves z
    unread, the third leaves x unread and the fourth reads x alone."""
    return [
        ("plus_above_first", 3, lambda x, y, z: A.plus(x, A.plus(y, z)) >= x),
        ("plus_above_left", 3, lambda x, y, z: A.plus(x, y) >= x),
        ("comm_unread_first", 3, lambda x, y, z: A.plus(y, z) == A.plus(z, y)),
        ("unit_first_only", 3, lambda x, y, z: A.plus(x, A.zero) == x),
    ]


def _same_reports(algebra, banks=BANKS):
    for bank in banks:
        got = slab_grid_checks(algebra, bank, "subject")
        assert got == one_shot_grid_checks(algebra, bank, "subject"), bank
    return got


@pytest.mark.parametrize("table", [
    _changed(CHAIN128, 0, 5, 0),
    _changed(CHAIN128, 127, 5, 0),
    _changed(CHAIN128, 127, 0, 126),
    _changed(CUBE128, 0, 5, 0),
    _changed(CUBE128, 127, 5, 3),
], ids=["chain_row0", "chain_row127", "chain_row127_unit", "cube_row0",
        "cube_row127"])
def test_a_corrupted_128_element_table_reports_as_the_one_shot_grid(table):
    _same_reports(table)
    _same_reports(table, (_purpose_checks,))


def test_a_failure_in_the_last_slab_names_its_tuple():
    table = _changed(CHAIN128, 127, 5, 0)
    report = _same_reports(table, (_purpose_checks,))
    first, left = report.results[:2]
    # the only tuples reading plus(127, 5) have x = 127, in the last slab
    assert first.witness == (127, 0, 5)
    assert first.checked == 127 * 128 ** 2 + 5 + 1
    # z is unread: the pair (127, 5) settles 128 triples
    assert left.witness == (127, 5)
    assert left.checked == (127 * 128 + 5 + 1) * 128


def test_an_unread_first_variable_is_decided_by_one_slab():
    table = _changed(CHAIN128, 3, 9, 0)
    calls = []

    def counted(A):
        return [(name, arity,
                 lambda *v, name=name, pred=pred: calls.append(name) or pred(*v))
                for name, arity, pred in _purpose_checks(A)]

    assert slab_grid_checks(CHAIN128, counted, "chain").ok
    # eight slabs of 16 rows, but one slab when x is unread
    assert [calls.count(name) for name in (
        "plus_above_first", "plus_above_left", "comm_unread_first",
        "unit_first_only")] == [8, 8, 1, 8]
    report = _same_reports(table, (_purpose_checks,))
    comm = report.results[2]
    assert (comm.ok, comm.witness, comm.checked) == (
        False, (3, 9), (3 * 128 + 9 + 1) * 128)


def test_pixley_on_a_corrupted_chain_reports_as_the_one_shot_grid():
    table = _changed(to_finite(make_chain(3)), 1, 2, 0)
    report = verify_pixley(table, mode="exhaustive")
    assert not report.ok
    assert report == one_shot_grid_checks(table, _pixley_checks,
                                          report.subject)


def test_a_failing_arity_0_identity_is_evaluated_once():
    chain = to_finite(make_chain(3))
    # neg(1) = 1: the negation of one is not zero
    table = make_finite((3, 2, 1, 1), chain.plus_rows, chain.zero)
    _same_reports(table)
    neg_one = _same_reports(table, (_derived_checks,)).results[0]
    assert (neg_one.name, neg_one.ok, neg_one.witness, neg_one.checked) == (
        "neg_one_is_zero", False, (), 1)


@pytest.mark.parametrize("algebra", [
    to_finite(make_chain(0)),
    to_finite(make_chain(1)),
    make_chain(0),
    make_chain(1),
    make_finite((1, 0), ((0, 1), (1, 0))),
], ids=["one_table", "two_table", "terminal", "chain1", "two_changed"])
def test_the_smallest_algebras_report_as_the_one_shot_grid(algebra):
    _same_reports(algebra)


def test_exhaustive_checks_on_a_128_element_chain_stay_small():
    table = to_finite(make_chain(127))
    table.tables()
    tracemalloc.start()
    try:
        assert check_axioms(table, mode="exhaustive").ok
        assert verify_pixley(table, mode="exhaustive").ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_an_infinite_carrier_is_refused_before_numpy_loads():
    code = ("import sys\n"
            "from mvtk import check_axioms, make_komori\n"
            "try:\n"
            "    check_axioms(make_komori(1, 1), mode='exhaustive')\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("cannot enumerate infinite carrier of Komori(1,1)\n"
                           "False\n")


def _factor_pool():
    """Every catalog table of at most 32 elements and the fifteen of 128,
    each with a relabelled copy whose element order is not the formula's."""
    tables = [t for t in map(to_finite, chain_product_catalog(128))
              if t.size <= 32 or t.size == 128]
    assert len(tables) == 93 and sum(t.size == 128 for t in tables) == 15
    return [t for k, table in enumerate(tables)
            for t in (table, shuffled(table, f"bank:{k}"))]


def test_the_banks_on_chain_factors_report_as_the_whole_grid():
    for table in _factor_pool():
        for bank in BANKS:
            if bank is _lattice_checks and table.size > 32:
                continue
            got = _bank_grid(table, bank, "subject")
            assert got == slab_grid_checks(table, bank, "subject"), (table, bank)


def _idempotence(A):
    return [("plus_idempotent", 1, lambda x: A.plus(x, x) == x)]


def _triple_is_double(A):
    # holds in Chain(2), fails at level 1 of Chain(3)
    return [("triple_is_double", 1,
             lambda x: A.plus(x, A.plus(x, x)) == A.plus(x, x))]


def _no_half(A):
    # u = 2x times 2(not x) is at most 2/3 on Chain(3), so u cubed is 0;
    # on Chain(2) it is 1 at 1/2
    def u(x):
        return otimes(A, A.plus(x, x), A.plus(A.neg(x), A.neg(x)))
    return [("no_half", 1,
             lambda x: otimes(A, u(x), otimes(A, u(x), u(x))) == A.zero)]


@pytest.mark.parametrize("heights, bank", [
    ((1, 2), _idempotence),
    ((2, 3), _triple_is_double),
    ((2, 3), _no_half),
], ids=["idempotence", "fails_on_the_larger", "fails_on_the_smaller"])
def test_a_bank_that_fails_in_one_factor_fails_with_the_whole_grids_witness(
        heights, bank):
    """Each bank holds in one factor and fails in the other: the whole
    grid runs and names the witness."""
    table = to_finite(product([make_chain(m) for m in heights]))
    got = _bank_grid(table, bank, "subject")
    assert not got.ok
    assert got == slab_grid_checks(table, bank, "subject")


def test_the_generic_grid_does_not_read_the_factors():
    """A disjunction of equations is not a Horn sentence: every element of
    Chain(1) is 0 or 1, but (0, 1) of Chain(1)**2 is neither."""
    table = to_finite(product([make_chain(1)] * 2))

    def zero_or_one(A):
        return [("zero_or_one", 1, lambda x: (x == A.zero) | (x == A.one))]

    result, = slab_grid_checks(table, zero_or_one, "subject").results
    assert (result.ok, result.witness, result.checked) == (False, (1,), 2)


def test_a_corrupted_table_is_certified_once(monkeypatch):
    """The four exhaustive banks of a table that is not an MV-algebra try
    its decomposition once: the table keeps the refusal, and a later
    ``decompose`` raises the same text without certifying again."""
    certify = core._certify
    certified = []
    monkeypatch.setattr(core, "_certify",
                        lambda table: certified.append(table) or certify(table))
    base = to_finite(product([make_chain(2), make_chain(3), make_chain(4)]))
    table = _changed(base, 1, 2, 0)
    assert table.size == 60
    for check in (check_axioms, check_derived_identities,
                  verify_protomodularity, verify_pixley):
        assert not check(table, mode="exhaustive").ok, check
    assert certified == [table]
    with pytest.raises(ValueError) as refused:
        decompose(table)
    assert certified == [table]
    with pytest.raises(ValueError) as fresh:
        certify(_changed(base, 1, 2, 0))
    assert str(refused.value) == str(fresh.value)
    assert str(fresh.value).startswith("not an MV-algebra: ")
    assert to_finite(table) is table and table._dec is None
