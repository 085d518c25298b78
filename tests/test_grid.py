"""The exhaustive grid streams slabs of the first variable: it reports the
same witnesses and ``checked`` counts as the one-shot grid of
``oracles.grid_checks``, holds small temporaries, and refuses an
infinite carrier before numpy loads."""

import subprocess
import sys
import tracemalloc

import pytest

from mvtk import (
    check_axioms,
    make_chain,
    make_finite,
    product,
    to_finite,
    verify_pixley,
)
from mvtk.core import (
    _axiom_checks,
    _derived_checks,
    _lattice_checks,
    grid_checks,
)
from mvtk.terms import _pixley_checks, _recovery_checks
from oracles import grid_checks as one_shot_grid_checks

BANKS = (_axiom_checks, _derived_checks, _lattice_checks, _pixley_checks,
         _recovery_checks)
CHAIN128 = to_finite(make_chain(127))
# 2**7 elements: element i is the bit vector of i, so plus is bitwise or
CUBE128 = to_finite(product([make_chain(1)] * 7))


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
        got = grid_checks(algebra, bank, "subject")
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

    assert grid_checks(CHAIN128, counted, "chain").ok
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
