"""One finite-carrier gate: ``elements`` and ``decompose`` refuse an
infinite carrier and a table that is not an MV-algebra, and every finite
tool reads through them before it gives a verdict."""

import re

import pytest

import mvtk.morphisms as morphisms_module
from mvtk import (
    are_isomorphic,
    check_axioms,
    enumerate_homs,
    find_isomorphism,
    identity,
    image_set,
    is_ideal,
    is_morphism,
    make_chain,
    make_finite,
    make_komori,
    product,
    to_finite,
    verify_pixley,
)

CHANG = make_komori(1, 1)
INFINITE = r"^cannot enumerate infinite carrier of Komori\(1,1\)"
# x (+) x = 0 for the middle element: a 3-element table that is not an MV-algebra
BAD = make_finite((2, 1, 0), ((0, 1, 2), (1, 0, 2), (2, 2, 2)))
TWO = to_finite(make_chain(1))
BLOCKS = product([make_chain(1), make_chain(2)])


@pytest.mark.parametrize("call", [
    lambda: enumerate_homs(CHANG, CHANG),
    lambda: find_isomorphism(CHANG, CHANG),
    lambda: image_set(identity(CHANG)),
    lambda: check_axioms(CHANG, mode="exhaustive"),
    lambda: verify_pixley(CHANG, mode="exhaustive"),
    lambda: is_morphism(identity(CHANG), mode="exhaustive"),
    lambda: is_ideal(CHANG, {((1, (7,)),)}),
], ids=["enumerate_homs", "find_isomorphism", "image_set", "check_axioms",
        "verify_pixley", "is_morphism", "is_ideal"])
def test_an_infinite_carrier_is_refused_by_the_gate(call):
    with pytest.raises(ValueError, match=INFINITE):
        call()


@pytest.mark.parametrize("call", [
    lambda: are_isomorphic(BAD, TWO),
    lambda: are_isomorphic(BAD, CHANG),
    lambda: are_isomorphic(CHANG, BAD),
    lambda: find_isomorphism(BAD, TWO),
    lambda: find_isomorphism(TWO, BAD),
    lambda: is_ideal(BAD, {0}),
    # no zero and an element of no algebra: still the gate's refusal
    lambda: is_ideal(BAD, {1, 7}),
], ids=["are_isomorphic", "are_isomorphic_infinite",
        "are_isomorphic_from_infinite", "find_isomorphism",
        "find_isomorphism_into", "is_ideal", "is_ideal_before_zero_and_elements"])
def test_a_non_mv_table_of_another_size_gets_no_verdict(call):
    with pytest.raises(ValueError, match="not an MV-algebra"):
        call()


@pytest.mark.parametrize("algebra, one, foreign", [
    (TWO, 1, 2),
    (BLOCKS, (1, 2), (2, 0)),
], ids=["table", "block_product"])
def test_is_ideal_tests_zero_before_elements(algebra, one, foreign):
    assert not is_ideal(algebra, {one, foreign})
    with pytest.raises(ValueError, match=f"^not an element: {re.escape(repr(foreign))}$"):
        is_ideal(algebra, {algebra.zero, foreign})


def test_an_isomorphism_of_block_products_builds_no_value_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("value table built")

    monkeypatch.setattr(morphisms_module, "_values", refuse)
    chain = make_chain(10 ** 6)
    assert find_isomorphism(chain, chain).body.rows == ((0, 1, ()),)
