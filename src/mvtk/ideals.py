"""Ideals, radicals and quotient data.

Finite-table algebras use explicit element sets (:class:`FiniteIdeal`).
Symbolic algebras use one marker per block (:class:`MarkerIdeal`): a chain
block carries ``"zero"`` or ``"full"``, a Komori block carries ``"full"``
or ``("sub", S)`` with ``S`` a set of infinitesimal coordinates.  These
markers exhaust the ideals of a block product, because an ideal of a
finite direct product splits as a product of block ideals and the proper
ideals of a Komori block consist of infinitesimals supported on a fixed
coordinate set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Algebra,
    Chain,
    FiniteAlgebra,
    Komori,
    SymbolicAlgebra,
    dist,
    elements,
    leq,
    meet,
    neg,
    ominus,
    oplus,
    otimes,
    table_view,
)

__all__ = [
    "FiniteIdeal",
    "MarkerIdeal",
    "Ideal",
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
    "marker_quotient_data",
    "finite_quotient_data",
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


def _canon_marker(block, marker):
    if isinstance(block, Chain):
        if marker in ("zero", "full"):
            return marker
        raise ValueError(f"bad chain marker {marker!r}")
    if marker == "full":
        return "full"
    if marker == "zero":
        return ("sub", frozenset())
    if isinstance(marker, tuple) and len(marker) == 2 and marker[0] == "sub":
        coords = frozenset(marker[1])
        if not all(isinstance(i, int) and 0 <= i < block.r for i in coords):
            raise ValueError(f"sub coordinates out of range for {block!r}")
        return ("sub", coords)
    raise ValueError(f"bad komori marker {marker!r}")


def validate_ideal(algebra: Algebra, ideal: Ideal) -> Ideal:
    """Canonicalize and type-check an ideal against its algebra."""
    if isinstance(algebra, FiniteAlgebra):
        if not isinstance(ideal, FiniteIdeal):
            raise TypeError("finite algebra needs a FiniteIdeal")
        if not all(isinstance(x, int) and 0 <= x < algebra.size for x in ideal.elements):
            raise ValueError("ideal element out of range")
        if algebra.zero not in ideal.elements:
            raise ValueError("ideal must contain zero")
        return ideal
    if not isinstance(ideal, MarkerIdeal):
        raise TypeError("symbolic algebra needs a MarkerIdeal")
    if len(ideal.markers) != len(algebra.blocks):
        raise ValueError("marker count does not match block count")
    return MarkerIdeal(tuple(
        _canon_marker(b, m) for b, m in zip(algebra.blocks, ideal.markers)))


def zero_ideal(algebra: Algebra) -> Ideal:
    if isinstance(algebra, FiniteAlgebra):
        return FiniteIdeal(frozenset({algebra.zero}))
    return MarkerIdeal(tuple(
        "zero" if isinstance(b, Chain) else ("sub", frozenset())
        for b in algebra.blocks))


def full_ideal(algebra: Algebra) -> Ideal:
    if isinstance(algebra, FiniteAlgebra):
        return FiniteIdeal(frozenset(range(algebra.size)))
    return MarkerIdeal(("full",) * len(algebra.blocks))


def is_zero_ideal(algebra: Algebra, ideal: Ideal) -> bool:
    return validate_ideal(algebra, ideal) == zero_ideal(algebra)


def is_full_ideal(algebra: Algebra, ideal: Ideal) -> bool:
    return validate_ideal(algebra, ideal) == full_ideal(algebra)


def is_proper_ideal(algebra: Algebra, ideal: Ideal) -> bool:
    return not is_full_ideal(algebra, ideal)


def ideal_contains(algebra: Algebra, ideal: Ideal, x) -> bool:
    ideal = validate_ideal(algebra, ideal)
    if isinstance(ideal, FiniteIdeal):
        return x in ideal.elements
    for b, m, v in zip(algebra.blocks, ideal.markers, x):
        if m == "full":
            continue
        if isinstance(b, Chain):
            if v != 0:
                return False
        else:
            a, bv = v
            if a != 0:
                return False
            if any(t != 0 for i, t in enumerate(bv) if i not in m[1]):
                return False
    return True


def ideal_elements(algebra: Algebra, ideal: Ideal) -> list:
    """Element list of an ideal; requires a finite carrier."""
    ideal = validate_ideal(algebra, ideal)
    if isinstance(ideal, FiniteIdeal):
        return sorted(ideal.elements)
    return [x for x in elements(algebra) if ideal_contains(algebra, ideal, x)]


def markers_from_elements(algebra: SymbolicAlgebra, subset) -> MarkerIdeal:
    """Marker form of an ideal handed over as an element set.  The set must
    be a product of block ideals; chains only (finite carrier)."""
    subset = set(subset)
    markers = []
    for i, b in enumerate(algebra.blocks):
        if isinstance(b, Komori):
            raise ValueError("cannot read markers off an infinite carrier")
        proj = {x[i] for x in subset}
        markers.append("zero" if proj == {0} else "full")
    out = MarkerIdeal(tuple(markers))
    if set(ideal_elements(algebra, out)) != subset:
        raise ValueError("subset is not a product of block ideals")
    return out


def is_ideal(algebra: Algebra, subset) -> bool:
    """Downward-closed, addition-closed, contains zero.  Works on any
    finite-carrier algebra with ``subset`` given as explicit elements."""
    subset = set(subset)
    if algebra.zero not in subset:
        return False
    for x in subset:
        if not algebra.contains(x):
            raise ValueError(f"not an element: {x!r}")
    for x in subset:
        for y in subset:
            if oplus(algebra, x, y) not in subset:
                return False
    for x in subset:
        for z in elements(algebra):
            if leq(algebra, z, x) and z not in subset:
                return False
    return True


def generated_ideal(algebra: Algebra, generators) -> Ideal:
    """Least ideal containing the generators."""
    generators = list(generators)
    for g in generators:
        if not algebra.contains(g):
            raise ValueError(f"not an element: {g!r}")
    if isinstance(algebra, FiniteAlgebra):
        import numpy as np

        _, plust = algebra.tables()
        grid = np.arange(algebra.size)
        below = leq(table_view(algebra), grid[:, None], grid[None, :])
        member = np.zeros(algebra.size, dtype=bool)
        member[algebra.zero] = True
        for g in generators:
            member[g] = True
        while True:
            idx = np.nonzero(member)[0]
            nxt = member.copy()
            nxt[plust[np.ix_(idx, idx)].ravel()] = True
            nxt |= below[:, idx].any(axis=1)
            if (nxt == member).all():
                return FiniteIdeal(frozenset(
                    int(i) for i in np.nonzero(member)[0]))
            member = nxt
    markers = []
    for i, b in enumerate(algebra.blocks):
        if isinstance(b, Chain):
            markers.append("full" if any(g[i] != 0 for g in generators) else "zero")
        else:
            if any(g[i][0] != 0 for g in generators):
                markers.append("full")
            else:
                supp = frozenset(
                    j for g in generators for j, t in enumerate(g[i][1]) if t != 0)
                markers.append(("sub", supp))
    return MarkerIdeal(tuple(markers))


_ALL_IDEALS_RANK_CAP = 14


def all_ideals(algebra: Algebra) -> list[Ideal]:
    """Every ideal, in a deterministic order."""
    if isinstance(algebra, FiniteAlgebra):
        principals = {generated_ideal(algebra, [x]).elements
                      for x in range(algebra.size)}
        found = {frozenset({algebra.zero})}
        frontier = list(found)
        while frontier:
            nxt = []
            for ideal in frontier:
                for p in principals:
                    joined = frozenset(
                        algebra.plus(x, y) for x in ideal for y in p)
                    if joined not in found:
                        found.add(joined)
                        nxt.append(joined)
            frontier = nxt
        return [FiniteIdeal(s) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]
    per_block = []
    for b in algebra.blocks:
        if isinstance(b, Chain):
            per_block.append(["zero", "full"])
        else:
            if b.r > _ALL_IDEALS_RANK_CAP:
                raise ValueError(f"too many coordinate subsets for {b!r}")
            subs = [("sub", frozenset(s))
                    for k in range(b.r + 1)
                    for s in itertools.combinations(range(b.r), k)]
            per_block.append(subs + ["full"])
    return [MarkerIdeal(m) for m in itertools.product(*per_block)]


def _marker_meet(block, m1, m2):
    if m1 == "full":
        return m2
    if m2 == "full":
        return m1
    if isinstance(block, Chain):
        return "zero"
    return ("sub", m1[1] & m2[1])


def _marker_join(block, m1, m2):
    if m1 == "full" or m2 == "full":
        return "full"
    if isinstance(block, Chain):
        return "zero" if m1 == m2 == "zero" else "full"
    return ("sub", m1[1] | m2[1])


def ideal_meet(algebra: Algebra, i: Ideal, j: Ideal) -> Ideal:
    i = validate_ideal(algebra, i)
    j = validate_ideal(algebra, j)
    if isinstance(i, FiniteIdeal):
        return FiniteIdeal(i.elements & j.elements)
    return MarkerIdeal(tuple(
        _marker_meet(b, a, c)
        for b, a, c in zip(algebra.blocks, i.markers, j.markers)))


def ideal_join(algebra: Algebra, i: Ideal, j: Ideal) -> Ideal:
    """Join of ideals; by the Riesz decomposition this is the sumset."""
    i = validate_ideal(algebra, i)
    j = validate_ideal(algebra, j)
    if isinstance(i, FiniteIdeal):
        return FiniteIdeal(frozenset(
            algebra.plus(x, y) for x in i.elements for y in j.elements))
    return MarkerIdeal(tuple(
        _marker_join(b, a, c)
        for b, a, c in zip(algebra.blocks, i.markers, j.markers)))


def ideal_leq(algebra: Algebra, i: Ideal, j: Ideal) -> bool:
    return ideal_meet(algebra, i, j) == validate_ideal(algebra, i)


# ---------------------------------------------------------------------------
# radical


def _finite_infinitesimals(algebra: FiniteAlgebra) -> frozenset:
    out = set()
    for a in range(algebra.size):
        na = a
        ok = True
        seen = set()
        while na not in seen:
            seen.add(na)
            if not leq(algebra, na, algebra.neg(a)):
                ok = False
                break
            na = algebra.plus(na, a)
        if ok:
            out.add(a)
    out.add(algebra.zero)
    return frozenset(out)


def radical(algebra: Algebra, method: str = "inf") -> Ideal:
    """Radical ideal, by one of three characterizations.

    ``"inf"``: infinitesimals (every multiple n.a stays below neg a) plus
    zero.  ``"maximal"``: intersection of all maximal ideals; on the
    terminal algebra the empty intersection gives the full (= zero) ideal.
    ``"nilpotent"``: join of all ideals J with x (*) y = 0 on J.
    """
    if method not in ("inf", "maximal", "nilpotent"):
        raise ValueError(f"unknown radical method {method!r}")
    if isinstance(algebra, FiniteAlgebra):
        if method == "inf":
            return FiniteIdeal(_finite_infinitesimals(algebra))
        if method == "maximal":
            out = frozenset(range(algebra.size))
            for m in maximal_ideals(algebra):
                out &= m.elements
            return FiniteIdeal(out)
        acc = zero_ideal(algebra)
        for j in all_ideals(algebra):
            if is_nilpotent_ideal(algebra, j):
                acc = ideal_join(algebra, acc, j)
        return acc
    if method == "inf":
        # chain blocks have no nonzero infinitesimal; a Komori block's
        # infinitesimals are exactly its height-zero part
        return MarkerIdeal(tuple(
            "zero" if isinstance(b, Chain) else ("sub", frozenset(range(b.r)))
            for b in algebra.blocks))
    if method == "maximal":
        acc = full_ideal(algebra)
        for m in maximal_ideals(algebra):
            acc = ideal_meet(algebra, acc, m)
        return acc
    acc = zero_ideal(algebra)
    for i, b in enumerate(algebra.blocks):
        if isinstance(b, Komori):
            one_block = list(zero_ideal(algebra).markers)
            one_block[i] = ("sub", frozenset(range(b.r)))
            cand = MarkerIdeal(tuple(one_block))
            if is_nilpotent_ideal(algebra, cand):
                acc = ideal_join(algebra, acc, cand)
    return acc


def maximal_ideals(algebra: Algebra) -> list[Ideal]:
    """All maximal ideals.  The terminal algebra has none."""
    if isinstance(algebra, FiniteAlgebra):
        ideals = all_ideals(algebra)
        full = frozenset(range(algebra.size))
        out = []
        for i in ideals:
            if i.elements == full:
                continue
            above = [j for j in ideals
                     if i.elements < j.elements and j.elements != full]
            if not above:
                out.append(i)
        return out
    out = []
    for i, b in enumerate(algebra.blocks):
        markers = ["full"] * len(algebra.blocks)
        if isinstance(b, Chain):
            markers[i] = "zero"
        else:
            markers[i] = ("sub", frozenset(range(b.r)))
        out.append(MarkerIdeal(tuple(markers)))
    return out


def is_nilpotent_ideal(algebra: Algebra, ideal: Ideal) -> bool:
    """x (*) y = 0 for all x, y in the ideal."""
    ideal = validate_ideal(algebra, ideal)
    if isinstance(ideal, FiniteIdeal):
        return all(
            otimes(algebra, x, y) == algebra.zero
            for x in ideal.elements for y in ideal.elements)
    # two infinitesimals multiply to zero; a full marker on a block with
    # m >= 1 contains the block unit, which is (*)-idempotent
    return all(m != "full" for m in ideal.markers)


# ---------------------------------------------------------------------------
# polars and Riesz splits


def polar(algebra: Algebra, subset) -> Ideal:
    """Polar: all a with a /\\ s = 0 for every s in the subset.  Accepts an
    ideal or a plain element set (the polar only depends on the generated
    ideal)."""
    if isinstance(subset, (FiniteIdeal, MarkerIdeal)):
        ideal = validate_ideal(algebra, subset)
    else:
        ideal = generated_ideal(algebra, subset)
    if isinstance(algebra, FiniteAlgebra):
        out = frozenset(
            a for a in range(algebra.size)
            if all(meet(algebra, a, s) == algebra.zero for s in ideal.elements))
        return FiniteIdeal(out)
    markers = []
    for b, m in zip(algebra.blocks, ideal.markers):
        if isinstance(b, Chain):
            markers.append("full" if m == "zero" else "zero")
        elif m == "full":
            markers.append(("sub", frozenset()))
        elif not m[1]:
            markers.append("full")
        else:
            markers.append(("sub", frozenset(range(b.r)) - m[1]))
    return MarkerIdeal(tuple(markers))


def riesz_split(algebra: Algebra, x, y, z) -> tuple:
    """Split x <= y (+) z as x = y1 (+) z1 with y1 <= y, z1 <= z."""
    if not leq(algebra, x, algebra.plus(y, z)):
        raise ValueError("riesz_split needs x <= y (+) z")
    y1 = meet(algebra, x, y)
    z1 = ominus(algebra, x, y)
    return (y1, z1)


def radical_conegation_disjoint(algebra: Algebra, ideal: Ideal) -> bool:
    """Whether Rad(A) misses the negations of a proper ideal.

    Finite algebras are checked by direct intersection.  On a symbolic
    algebra an element of Rad whose negation lies in the ideal forces a
    full marker on every block, so disjointness holds exactly when the
    ideal is proper.
    """
    ideal = validate_ideal(algebra, ideal)
    if isinstance(algebra, FiniteAlgebra):
        rad = radical(algebra)
        conegs = {algebra.neg(x) for x in ideal.elements}
        return not (rad.elements & conegs)
    return is_proper_ideal(algebra, ideal)


# ---------------------------------------------------------------------------
# quotient data


def marker_quotient_data(algebra: SymbolicAlgebra, ideal: MarkerIdeal) -> SymbolicAlgebra:
    """Block structure of A/I: a full marker kills its block, a chain
    block survives, and a Komori block keeps its unmarked coordinates (a
    chain of the same height when none is left)."""
    ideal = validate_ideal(algebra, ideal)
    blocks_out = []
    for b, m in zip(algebra.blocks, ideal.markers):
        if m == "full":
            continue
        if isinstance(b, Chain):
            blocks_out.append(b)
            continue
        kept = b.r - len(m[1])
        blocks_out.append(Komori(b.m, kept) if kept else Chain(b.m))
    return SymbolicAlgebra(blocks_out)


def finite_quotient_data(algebra: FiniteAlgebra, ideal: FiniteIdeal):
    """(quotient table algebra, class index per element, representative per
    class).  Classes are joined by the distance term landing in the ideal."""
    ideal = validate_ideal(algebra, ideal)
    n = algebra.size
    class_of: list[int | None] = [None] * n
    reps: list[int] = []
    for x in range(n):
        if class_of[x] is not None:
            continue
        c = len(reps)
        reps.append(x)
        for y in range(x, n):
            if class_of[y] is None and dist(algebra, x, y) in ideal.elements:
                class_of[y] = c
    neg_row = [class_of[algebra.neg(r)] for r in reps]
    plus_rows = [[class_of[algebra.plus(r, s)] for s in reps] for r in reps]
    q = FiniteAlgebra(neg_row, plus_rows, class_of[algebra.zero])
    return q, tuple(class_of), tuple(reps)
