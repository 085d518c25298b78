"""Ideals and radicals.

Finite-table algebras use explicit element sets (:class:`FiniteIdeal`).
Every other algebra uses one marker per block of its chain view
(:class:`MarkerIdeal`): a chain block carries ``"zero"`` or ``"full"``, a
Komori block carries ``"full"`` or ``("sub", S)`` with ``S`` a set of
infinitesimal coordinates.  These markers exhaust the ideals of a block
product, because an ideal of a finite direct product splits as a product
of block ideals and the proper ideals of a Komori block consist of
infinitesimals supported on a fixed coordinate set.  This module owns the
marker encoding: a non-full marker is built with :func:`sub_marker` and
read with :func:`marker_coords`, so a chain's ``"zero"`` is the rank-0
case of ``("sub", S)`` and no caller tests a block's type.

The chain view (``core._view``) of a block product is itself; a table, or
a block product that overrides its operations, is read as the product of
its certified chains, where a table ideal is full on the chains it
reaches and zero elsewhere.  Generated ideals, joins, maximal ideals,
polars, radicals, the nilpotence test and element lists run the marker
rule there and cross back with ``_from_view``; a subset is an ideal when
it is the ideal it generates.  Meets of table ideals stay set
intersections.  Quotients and subalgebras are built in ``morphisms``.

Public functions validate each ideal argument once; the private helper
named after one (``_ideal_meet``) takes canonical ideals, such as the
kernels, radicals and meets the library builds, and checks nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    Algebra,
    FiniteAlgebra,
    SymbolicAlgebra,
    _levels,
    _view,
    decompose,
    elements,
    leq,
    meet,
    ominus,
    parts,
)

__all__ = [
    "FiniteIdeal",
    "MarkerIdeal",
    "Ideal",
    "sub_marker",
    "marker_coords",
    "validate_ideal",
    "zero_ideal",
    "full_ideal",
    "is_zero_ideal",
    "is_full_ideal",
    "is_proper_ideal",
    "ideal_contains",
    "ideal_elements",
    "markers_from_elements",
    "is_ideal",
    "generated_ideal",
    "all_ideals",
    "ideal_meet",
    "ideal_join",
    "ideal_leq",
    "radical",
    "maximal_ideals",
    "is_nilpotent_ideal",
    "polar",
    "riesz_split",
    "radical_conegation_disjoint",
]


@dataclass(frozen=True)
class FiniteIdeal:
    elements: frozenset

    def __repr__(self) -> str:
        return f"FiniteIdeal({sorted(self.elements)})"


@dataclass(frozen=True)
class MarkerIdeal:
    markers: tuple

    def __repr__(self) -> str:
        return f"MarkerIdeal({list(self.markers)})"


Ideal = FiniteIdeal | MarkerIdeal


def sub_marker(r: int, coords=()):
    """The marker of the ideal of a rank-r block whose elements are the
    infinitesimals supported on ``coords``: ``"zero"`` on a chain (r = 0),
    ``("sub", S)`` otherwise."""
    return ("sub", frozenset(coords)) if r else "zero"


def marker_coords(marker) -> frozenset:
    """The coordinates of a marker that is not ``"full"``: the S of
    ``("sub", S)``, none for ``"zero"``."""
    return frozenset() if marker == "zero" else marker[1]


def _canon_marker(b, marker):
    if marker == "full":
        return "full"
    if marker == "zero":
        return sub_marker(b.r)
    if b.r and isinstance(marker, tuple) and len(marker) == 2 and marker[0] == "sub":
        coords = frozenset(marker[1])
        if not all(isinstance(i, int) and 0 <= i < b.r for i in coords):
            raise ValueError(f"sub coordinates out of range for {b!r}")
        return sub_marker(b.r, coords)
    raise ValueError(f"bad {'komori' if b.r else 'chain'} marker {marker!r}")


def validate_ideal(algebra: Algebra, ideal: Ideal) -> Ideal:
    """Canonicalize and type-check an ideal against its algebra: the one
    check an ideal gets, where it enters the library.  The ideals of a
    table are the sets of elements that vanish outside some of its chains
    (``decompose``), so an element set is one exactly when it has as many
    elements as the chains it reaches allow, an O(n) test."""
    if isinstance(algebra, FiniteAlgebra):
        if not isinstance(ideal, FiniteIdeal):
            raise TypeError("finite algebra needs a FiniteIdeal")
        if not all(isinstance(x, int) and 0 <= x < algebra.size for x in ideal.elements):
            raise ValueError("ideal element out of range")
        if algebra.zero not in ideal.elements:
            raise ValueError("ideal must contain zero")
        dec = decompose(algebra)
        reach = _reach(dec, ideal)
        if len(ideal.elements) != math.prod(
                m + 1 for i, m in enumerate(dec.heights) if reach >> i & 1):
            missing = next(x for x in _vanishing(dec, reach)
                           if x not in ideal.elements)
            raise ValueError(f"not an ideal: the ideal it generates also "
                             f"holds {missing}")
        return ideal
    if not isinstance(ideal, MarkerIdeal):
        raise TypeError("symbolic algebra needs a MarkerIdeal")
    blocks = _view(algebra).blocks
    if len(ideal.markers) != len(blocks):
        raise ValueError("marker count does not match block count")
    return MarkerIdeal(tuple(
        _canon_marker(b, m) for b, m in zip(blocks, ideal.markers)))


def _reach(dec, ideal: FiniteIdeal) -> int:
    """The chains on which some element of the ideal is not 0, as bits."""
    reach = 0
    for x in ideal.elements:
        reach |= dec.support[x]
    return reach


def _vanishing(dec, reach: int) -> list:
    """The elements that are 0 on every chain outside ``reach``, in order:
    the ideal of a table that reaches those chains."""
    return [x for x, s in enumerate(dec.support) if not s & ~reach]


def _view_markers(algebra: Algebra, ideal: Ideal) -> tuple:
    """The markers of a validated ideal on the chain view of its algebra
    (``decompose``): a table ideal is full on the chains it reaches and
    zero on the others; a marker ideal names the blocks of the view
    already."""
    if isinstance(algebra, FiniteAlgebra):
        dec = decompose(algebra)
        reach = _reach(dec, ideal)
        return tuple(["full" if reach >> i & 1 else "zero"
                      for i in range(len(dec.heights))])
    return ideal.markers


def _from_view(algebra: Algebra, ideal: MarkerIdeal) -> Ideal:
    """The ideal of ``algebra`` that is ``ideal`` on its chain view: on a
    table, the elements that vanish outside the chains marked full."""
    if isinstance(algebra, FiniteAlgebra):
        return FiniteIdeal(frozenset(_vanishing(decompose(algebra), sum(
            [1 << i for i, mk in enumerate(ideal.markers) if mk == "full"]))))
    return ideal


def zero_ideal(algebra: Algebra) -> Ideal:
    """The zero ideal.  A table that is not an MV-algebra is refused by
    ``decompose`` (cached), as by the other ideals; a table's zero ideal
    is then read off its zero, not its chain view."""
    if isinstance(algebra, FiniteAlgebra):
        decompose(algebra)
        return FiniteIdeal(frozenset({algebra.zero}))
    return MarkerIdeal(tuple(sub_marker(b.r) for b in _view(algebra).blocks))


def full_ideal(algebra: Algebra) -> Ideal:
    return _from_view(algebra, MarkerIdeal(("full",) * len(_view(algebra).blocks)))


def is_zero_ideal(algebra: Algebra, ideal: Ideal) -> bool:
    return validate_ideal(algebra, ideal) == zero_ideal(algebra)


def is_full_ideal(algebra: Algebra, ideal: Ideal) -> bool:
    return validate_ideal(algebra, ideal) == full_ideal(algebra)


def is_proper_ideal(algebra: Algebra, ideal: Ideal) -> bool:
    return not is_full_ideal(algebra, ideal)


def _require_element(algebra: Algebra, *xs) -> None:
    """Refuse the first of xs that is not an element of the algebra."""
    for x in xs:
        if not algebra.contains(x):
            raise ValueError(f"not an element: {x!r}")


def ideal_contains(algebra: Algebra, ideal: Ideal, x) -> bool:
    _require_element(algebra, x)
    return _ideal_contains(MarkerIdeal(_view_markers(algebra, validate_ideal(algebra, ideal))),
                           _levels(algebra)(x))


def _ideal_contains(ideal: MarkerIdeal, x) -> bool:
    """Whether the element ``x`` of the chain view lies in the ideal."""
    for m, v in zip(ideal.markers, x):
        if m == "full":
            continue
        a, coefs = parts(v)
        coords = marker_coords(m)
        if a != 0 or any(t != 0 for i, t in enumerate(coefs) if i not in coords):
            return False
    return True


def ideal_elements(algebra: Algebra, ideal: Ideal) -> list:
    """Element list of an ideal, in ``elements`` order; finite carriers."""
    view_ideal = MarkerIdeal(_view_markers(algebra, validate_ideal(algebra, ideal)))
    levels = _levels(algebra)
    return [x for x in elements(algebra) if _ideal_contains(view_ideal, levels(x))]


def markers_from_elements(algebra: SymbolicAlgebra, subset) -> MarkerIdeal:
    """Marker form of an ideal handed over as an element set: the ideal
    the set generates, which must be the set itself (finite carrier)."""
    subset = set(subset)
    out = generated_ideal(algebra, subset)
    if set(ideal_elements(algebra, out)) != subset:
        raise ValueError("subset is not a product of block ideals")
    return out


def is_ideal(algebra: Algebra, subset) -> bool:
    """Whether ``subset``, given as explicit elements, is an ideal: it
    holds zero and is the ideal it generates.  Works on any finite-carrier
    algebra; a table that is not an MV-algebra, or an infinite carrier, is
    refused by ``decompose`` first."""
    decompose(algebra)
    subset = set(subset)
    if algebra.zero not in subset:
        return False
    return set(ideal_elements(algebra, generated_ideal(algebra, subset))) == subset


def generated_ideal(algebra: Algebra, generators) -> Ideal:
    """Least ideal containing the generators: per block of the chain view,
    full where some generator has a nonzero height, otherwise the
    infinitesimal coordinates they use."""
    generators = list(generators)
    _require_element(algebra, *generators)
    levels = list(map(_levels(algebra), generators))
    markers = []
    for i, b in enumerate(_view(algebra).blocks):
        entries = [parts(g[i]) for g in levels]
        if any(a != 0 for a, _ in entries):
            markers.append("full")
        else:
            markers.append(sub_marker(b.r, (
                j for _, coefs in entries for j, t in enumerate(coefs) if t != 0)))
    return _from_view(algebra, MarkerIdeal(tuple(markers)))


# the ideals of one Komori(m, 14) block, 2**14 + 1, are still listed
_ALL_IDEALS_CAP = 2 ** 14 + 1


def all_ideals(algebra: Algebra) -> list[Ideal]:
    """Every ideal, in a deterministic order.  A table with k chains
    (``decompose``) has 2**k, one per set of chains, listed by size and
    then by their sorted elements.  Any other algebra lists the markers on
    its chain view; more than ``_ALL_IDEALS_CAP`` ideals, prod(2**r + 1)
    over the blocks of the view, is a ValueError raised before any is
    built."""
    if isinstance(algebra, FiniteAlgebra):
        dec = decompose(algebra)
        found = [_vanishing(dec, reach) for reach in range(1 << len(dec.heights))]
        return [FiniteIdeal(frozenset(s)) for s in sorted(found, key=lambda s: (len(s), s))]
    blocks = _view(algebra).blocks
    total = 1
    for b in blocks:
        # 2**bit_length exceeds the cap, so no larger power is formed
        total *= 2 ** min(b.r, _ALL_IDEALS_CAP.bit_length()) + 1
        if total > _ALL_IDEALS_CAP:
            raise ValueError(f"more than {_ALL_IDEALS_CAP} ideals to list")
    per_block = [[sub_marker(b.r, s) for k in range(b.r + 1)
                  for s in itertools.combinations(range(b.r), k)] + ["full"]
                 for b in blocks]
    return [MarkerIdeal(m) for m in itertools.product(*per_block)]


def ideal_meet(algebra: Algebra, i: Ideal, j: Ideal) -> Ideal:
    return _ideal_meet(algebra, validate_ideal(algebra, i), validate_ideal(algebra, j))


def _ideal_meet(algebra: Algebra, i: Ideal, j: Ideal) -> Ideal:
    if isinstance(i, FiniteIdeal):
        return FiniteIdeal(i.elements & j.elements)
    return MarkerIdeal(tuple(
        c if a == "full" else a if c == "full"
        else sub_marker(b.r, marker_coords(a) & marker_coords(c))
        for b, a, c in zip(_view(algebra).blocks, i.markers, j.markers)))


def ideal_join(algebra: Algebra, i: Ideal, j: Ideal) -> Ideal:
    """Join of ideals; by the Riesz decomposition this is the sumset."""
    return _ideal_join(algebra, validate_ideal(algebra, i), validate_ideal(algebra, j))


def _ideal_join(algebra: Algebra, i: Ideal, j: Ideal) -> Ideal:
    return _from_view(algebra, MarkerIdeal(tuple(
        "full" if "full" in (a, c)
        else sub_marker(b.r, marker_coords(a) | marker_coords(c))
        for b, a, c in zip(_view(algebra).blocks, _view_markers(algebra, i),
                           _view_markers(algebra, j)))))


def ideal_leq(algebra: Algebra, i: Ideal, j: Ideal) -> bool:
    return _ideal_leq(algebra, validate_ideal(algebra, i), validate_ideal(algebra, j))


def _ideal_leq(algebra: Algebra, i: Ideal, j: Ideal) -> bool:
    if isinstance(i, FiniteIdeal):
        return i.elements <= j.elements
    return _markers_leq(i.markers, j.markers)


def _markers_leq(i, j) -> bool:
    """The ideal order on canonical markers of one chain view: on each
    block j is full, or i is not full and its coordinates lie within
    j's.  No ideal is built."""
    return all(b == "full" or (a != "full" and marker_coords(a) <= marker_coords(b))
               for a, b in zip(i, j))


# ---------------------------------------------------------------------------
# radical


def _radical(algebra: Algebra) -> Ideal:
    """The radical, read off the structure.  A table is a product of
    chains (``decompose``, which refuses one that is not an MV-algebra),
    a product's infinitesimals are those of its factors, and Chain(m) has
    none but 0: for x > 0, m.x = 1 is not below neg x.  So the radical
    is the height-zero part of the Komori blocks of the chain view, and a
    table's radical is zero: its semisimple reflection is the identity."""
    if isinstance(algebra, FiniteAlgebra):
        return zero_ideal(algebra)
    return MarkerIdeal(tuple(sub_marker(b.r, range(b.r)) for b in _view(algebra).blocks))


def radical(algebra: Algebra, method: str = "inf") -> Ideal:
    """Radical ideal, by one of three characterizations, each read on the
    chain view.

    ``"inf"``: infinitesimals (every multiple n.a stays below neg a) plus
    zero, which is :func:`_radical`.  ``"maximal"``: intersection of all
    maximal ideals; on the terminal algebra the empty intersection gives
    the full (= zero) ideal.  ``"nilpotent"``: join of all ideals J with
    x (*) y = 0 on J; a nilpotent ideal is full on no block, so it is the
    join of the nilpotent ideals confined to one block.  A table is
    decomposed first (``decompose``), so every method refuses one that is
    not an MV-algebra.  Its chains have no infinitesimals, so each method
    gives the zero ideal; the radical gate holds all three to the literal
    infinitesimal scan of ``tests/oracles.py``.
    """
    if method not in ("inf", "maximal", "nilpotent"):
        raise ValueError(f"unknown radical method {method!r}")
    if method == "inf":
        return _radical(algebra)
    if method == "maximal":
        acc = full_ideal(algebra)
        for m in maximal_ideals(algebra):
            acc = _ideal_meet(algebra, acc, m)
        return acc
    view = _view(algebra)
    acc = zero_ideal(view)
    for i, b in enumerate(view.blocks):
        if b.r:
            one_block = list(zero_ideal(view).markers)
            one_block[i] = sub_marker(b.r, range(b.r))
            cand = MarkerIdeal(tuple(one_block))
            if is_nilpotent_ideal(view, cand):
                acc = _ideal_join(view, acc, cand)
    return _from_view(algebra, acc)


def maximal_ideals(algebra: Algebra) -> list[Ideal]:
    """All maximal ideals, one per block of the chain view in block order:
    full elsewhere, the infinitesimals on its block.  The terminal algebra
    has none."""
    view = _view(algebra)
    out = []
    for i, b in enumerate(view.blocks):
        markers = ["full"] * len(view.blocks)
        markers[i] = sub_marker(b.r, range(b.r))
        out.append(_from_view(algebra, MarkerIdeal(tuple(markers))))
    return out


def is_nilpotent_ideal(algebra: Algebra, ideal: Ideal) -> bool:
    """x (*) y = 0 for all x, y in the ideal: on the chain view, two
    infinitesimals multiply to zero, and a full marker on a block with
    m >= 1 contains the block unit, which is (*)-idempotent."""
    return "full" not in _view_markers(algebra, validate_ideal(algebra, ideal))


# ---------------------------------------------------------------------------
# polars and Riesz splits


def polar(algebra: Algebra, subset) -> Ideal:
    """Polar: all a with a /\\ s = 0 for every s in the subset.  Accepts an
    ideal or a plain element set (the polar only depends on the generated
    ideal)."""
    if isinstance(subset, (FiniteIdeal, MarkerIdeal)):
        return _polar(algebra, validate_ideal(algebra, subset))
    return _polar(algebra, generated_ideal(algebra, subset))


def _polar(algebra: Algebra, ideal: Ideal) -> Ideal:
    """Per block of the chain view: zero under a full marker, the other
    infinitesimal coordinates under ("sub", S), full under zero."""
    markers = []
    for b, m in zip(_view(algebra).blocks, _view_markers(algebra, ideal)):
        if m == "full":
            markers.append(sub_marker(b.r))
        elif marker_coords(m):
            markers.append(sub_marker(b.r, frozenset(range(b.r)) - marker_coords(m)))
        else:
            markers.append("full")
    return _from_view(algebra, MarkerIdeal(tuple(markers)))


def riesz_split(algebra: Algebra, x, y, z) -> tuple:
    """Split x <= y (+) z as x = y1 (+) z1 with y1 <= y, z1 <= z."""
    _require_element(algebra, x, y, z)
    if not leq(algebra, x, algebra.plus(y, z)):
        raise ValueError("riesz_split needs x <= y (+) z")
    y1 = meet(algebra, x, y)
    z1 = ominus(algebra, x, y)
    return (y1, z1)


def radical_conegation_disjoint(algebra: Algebra, ideal: Ideal) -> bool:
    """Whether Rad(A) misses the negations of a proper ideal.

    An element of Rad whose negation lies in the ideal forces a full
    marker on every block of a block product, and on a table, whose
    radical is zero (a finite MV-algebra is a product of chains), it puts
    1 in the ideal.  So disjointness holds exactly when the ideal is
    proper.
    """
    return validate_ideal(algebra, ideal) != full_ideal(algebra)

