"""The grid evaluator against the tuple-streaming runner.

Exhaustive identity checks evaluate each identity once on index grids of
the table.  The runner feeds the same identity definitions one element
tuple at a time, in the lexicographic order of ``elements``, and is the
reference: both must report the same ``ok``, ``witness`` and ``checked``
on every catalog table, on corrupted copies of it, and on a block algebra
whose addition is broken.
"""

import itertools
import random

import pytest

from mvtk import (
    SymbolicAlgebra,
    chain_product_catalog,
    check_axioms,
    check_derived_identities,
    check_lattice_identities,
    describe,
    elements,
    make_chain,
    make_finite,
    product,
    to_finite,
    verify_pixley,
    verify_protomodularity,
)
from mvtk.core import (
    _axiom_checks,
    _derived_checks,
    _lattice_checks,
    run_checks,
)
from mvtk.terms import _recovery_checks

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
