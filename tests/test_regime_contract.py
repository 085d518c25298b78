"""Every public function answers a table as it answers its block product.

Each public name that takes an algebra, an ideal, an element or a map is
run on every algebra of ``chain_product_catalog(24)`` in three forms: the
block product, its ``to_finite`` table and a shuffled copy of that table.
Its arguments are built on the block form and carried to the tables
through ``find_isomorphism``, and its results are compared through the
same isomorphisms (``tests/contract.py`` has the registry and the rules).
Every other public name is listed as exempt with its reason.
"""

import pytest

import mvtk
from mvtk import chain_product_catalog
from contract import CASES, EXEMPT, Reading, Side

CATALOG = chain_product_catalog(24)
FORMS = ("table", "shuffled")


def _outcome(fn, args):
    """(True, result), or (False, (exception type, text)) for a refusal."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, (type(exc).__name__, str(exc))


def divergences(name):
    """Each run of ``name`` in which a table form answers otherwise than
    the block product, described in one line."""
    found = []
    for fn, build, kind in CASES[name]:
        for algebra in CATALOG:
            for args in build(algebra):
                block_args = Side(None)(args)
                block = _outcome(fn, block_args)
                for form in FORMS:
                    side = Side(form)
                    form_args = side(args)
                    table = _outcome(fn, form_args)
                    if not block[0] or not table[0]:
                        diff = None if block == table else f"{block[1]!r} against {table[1]!r}"
                    else:
                        reading = Reading(block_args, form_args, side.carried)
                        reading.read(kind, block[1], table[1])
                        diff = reading.disagreement()
                    if diff is not None:
                        found.append(f"{getattr(fn, '__qualname__', fn)} on the {form} form of"
                                     f" {mvtk.describe(algebra)}, args {block_args!r}: {diff}")
    return found


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_table_answers_as_its_block_product(name):
    found = divergences(name)
    assert not found, f"{len(found)} divergences, first: {found[0]}"


def test_every_public_name_is_covered_or_exempt_with_a_reason():
    assert not set(CASES) & set(EXEMPT)
    assert set(CASES) | set(EXEMPT) <= set(mvtk.__all__)
    missing = [name for name in mvtk.__all__ if name not in CASES and name not in EXEMPT]
    assert not missing, f"neither run by the contract nor exempt: {missing}"
    for name, reason in EXEMPT.items():
        assert reason.strip() and "\n" not in reason, name
