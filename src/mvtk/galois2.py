"""Squares of surjections, double centrality, and commutators of ideals.

A commuting square of surjections is a regular pushout when the left leg
maps the top kernel onto the bottom kernel; equivalently the comparison
into the pullback is onto.  Double centrality of such a square asks the
two kernels at the initial corner to meet the radical trivially, and the
commutator of two ideals vanishes exactly when a canonical witnessing
square is doubly central.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .core import Algebra, _view, carrier_size
from .galois import em_factorize
from .ideals import (
    Ideal,
    _ideal_join,
    _ideal_meet,
    _radical,
    _view_markers,
    full_ideal,
    validate_ideal,
    zero_ideal,
)
from .morphisms import (
    Morphism,
    SubalgebraResult,
    _comparison,
    _coord_map,
    _ideal_subalgebra,
    _image_ideal,
    _preimage,
    _quotient,
    compose,
    factor_through_quotient,
    identity,
    same_morphism,
)

__all__ = [
    "ExtensionSquare",
    "validate_square",
    "RegularPushoutReport",
    "is_regular_pushout",
    "square_from_ideals",
    "CentralReflection",
    "central_reflection",
    "DoubleClassification",
    "classify_double",
    "restrict_to_ideal_subalgebra",
    "CommutatorReport",
    "commutator_pair",
]


@dataclass(frozen=True)
class ExtensionSquare:
    """top: A -> B, left: A -> C, right: B -> D, bottom: C -> D with
    right o top = bottom o left."""

    top: Morphism
    left: Morphism
    right: Morphism
    bottom: Morphism


def validate_square(sq: ExtensionSquare) -> None:
    if sq.top.dom != sq.left.dom or sq.top.cod != sq.right.dom \
            or sq.left.cod != sq.bottom.dom or sq.right.cod != sq.bottom.cod:
        raise ValueError("square corners do not line up")
    if not same_morphism(compose(sq.top, sq.right), compose(sq.left, sq.bottom)):
        raise ValueError("square does not commute")
    for name in ("top", "left", "right", "bottom"):
        if not getattr(sq, name).is_surjective():
            raise ValueError(f"{name} leg is not surjective")


@dataclass(frozen=True)
class RegularPushoutReport:
    ok: bool
    kernel_image: Ideal
    bottom_kernel: Ideal
    comparison_surjective: bool | None


def is_regular_pushout(sq: ExtensionSquare) -> RegularPushoutReport:
    """Kernel criterion: left(ker top) = ker bottom.  On finite carriers
    the comparison into the pullback is also checked: it is decided on the
    chain views (``morphisms._comparison``), so no literal pullback is
    built for a square of table maps.  Only the top domain is tested:
    ``validate_square`` makes every leg onto, and an onto image of a
    finite carrier is finite, so every corner is."""
    validate_square(sq)
    img = _image_ideal(sq.left, sq.top.kernel())
    ker = sq.bottom.kernel()
    ok = img == ker
    comparison = None
    if carrier_size(sq.top.dom) is not None:
        psi = _comparison(
            _view(sq.top.dom), _view(sq.left.cod), _view(sq.top.cod),
            *(_coord_map(m.body) for m in (sq.left, sq.top, sq.bottom, sq.right)))
        comparison = psi.is_onto()
    return RegularPushoutReport(ok, img, ker, comparison)


def square_from_ideals(algebra: Algebra, i: Ideal, j: Ideal) -> ExtensionSquare:
    """The square of quotients by two ideals, meeting at the quotient by
    their join.  Always a regular pushout."""
    return _square_from_ideals(algebra, *(validate_ideal(algebra, x) for x in (i, j)))


def _square_from_ideals(algebra: Algebra, i: Ideal, j: Ideal) -> ExtensionSquare:
    top = _quotient(algebra, j, "mod_second").projection
    left = _quotient(algebra, i, "mod_first").projection
    corner = _quotient(algebra, _ideal_join(algebra, i, j), "mod_join").projection
    right = factor_through_quotient(top, corner, "mod_second_to_join")
    bottom = factor_through_quotient(left, corner, "mod_first_to_join")
    return ExtensionSquare(top, left, right, bottom)


@dataclass(frozen=True)
class CentralReflection:
    square: ExtensionSquare
    reflected: Morphism
    theta: Ideal
    regular_pushout: bool
    central: bool
    idempotent: bool


def central_reflection(f: Morphism) -> CentralReflection:
    """Reflect a surjection onto its central quotient: the quotient of
    the domain by theta = kernel-meet-radical, through which f factors.
    That is the middle object of the (E, M) factorization, so the left
    leg is ``em_factorize(f).e`` and the reflected map is its ``m``.  The
    factorization asserts that m's kernel meets the radical trivially, so
    the reflected surjection is central and reflecting it again changes
    nothing; the unit square is a regular pushout."""
    if not f.is_surjective():
        raise ValueError("central reflection applies to surjections")
    em = em_factorize(f)
    sq = ExtensionSquare(top=f, left=em.e, right=identity(f.cod), bottom=em.m)
    return CentralReflection(sq, em.m, em.theta, is_regular_pushout(sq).ok,
                             central=True, idempotent=True)


@dataclass(frozen=True)
class DoubleClassification:
    regular_pushout: bool
    central: bool
    meet: Ideal


def classify_double(sq: ExtensionSquare) -> DoubleClassification:
    """A regular pushout of surjections is doubly central when the two
    kernels at the initial corner meet the radical trivially.  Squares
    that are not regular pushouts are refused."""
    rp = is_regular_pushout(sq)
    if not rp.ok:
        raise ValueError("not a regular pushout: no double classification")
    A = sq.top.dom
    meet = _ideal_meet(A, _ideal_meet(A, sq.top.kernel(), sq.left.kernel()),
                       _radical(A))
    return DoubleClassification(True, meet == zero_ideal(A), meet)


def restrict_to_ideal_subalgebra(algebra: Algebra, k: Ideal, w: Ideal) -> Ideal:
    """The ideal w restricted to the subalgebra on k (kernel and
    negations): its preimage along the inclusion.  Every Boolean element
    of w (x (+) x = x) must lie in k.  A Boolean element lies in an ideal
    iff the ideal is full on every block of the chain view where the
    element is 1, so w may not be full on a block where k is not."""
    k = validate_ideal(algebra, k)
    w = validate_ideal(algebra, w)
    if any(mk != "full" and mw == "full"
           for mk, mw in zip(_view_markers(algebra, k), _view_markers(algebra, w))):
        raise ValueError("ideal is full outside the subalgebra blocks")
    sub = _ideal_subalgebra(algebra, k, "subalgebra_inclusion")
    return _preimage(sub.algebra, algebra, sub.inclusion.body, w)


@dataclass(frozen=True)
class CommutatorReport:
    ideal: Ideal
    subalgebra: SubalgebraResult
    in_center: bool
    square: ExtensionSquare
    base: Algebra
    style: str
    double_central: bool
    radical_compatible: bool


def commutator_pair(algebra: Algebra, i: Ideal, j: Ideal) -> CommutatorReport:
    """The commutator of two ideals: the subalgebra on radical-meet-i-
    meet-j.  It vanishes exactly when the canonical witnessing square is
    doubly central: the quotient square on the whole algebra when the
    ideals join to everything, otherwise the quotient square on the
    subalgebra spanned by the join."""
    i = validate_ideal(algebra, i)
    j = validate_ideal(algebra, j)
    com = _ideal_meet(algebra, _ideal_meet(algebra, i, j), _radical(algebra))
    sub = _ideal_subalgebra(algebra, com, "ideal_commutator")
    in_center = com == zero_ideal(algebra)
    k = _ideal_join(algebra, i, j)
    if k == full_ideal(algebra):
        base = algebra
        sq = _square_from_ideals(algebra, i, j)
        if carrier_size(sq.bottom.cod) != 1:
            raise AssertionError("join-full square corner is not terminal")
        style = "join_full"
        radical_ok = True
    else:
        base_sub = _ideal_subalgebra(algebra, k, "join_span")
        base = base_sub.algebra
        restrict = partial(_preimage, base, algebra, base_sub.inclusion.body)
        radical_ok = restrict(_radical(algebra)) == _radical(base)
        sq = _square_from_ideals(base, restrict(i), restrict(j))
        if carrier_size(sq.bottom.cod) != 2:
            raise AssertionError("proper-join square corner is not the "
                                 "two-element algebra")
        style = "proper_join"
    double = classify_double(sq)
    if double.central != in_center:
        raise AssertionError("witnessing square disagrees with the "
                             "commutator")
    return CommutatorReport(com, sub, in_center, sq, base, style,
                            double.central, radical_ok)
