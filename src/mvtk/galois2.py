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

from .core import (
    Algebra,
    SymbolicAlgebra,
    carrier_size,
)
from .ideals import (
    Ideal,
    MarkerIdeal,
    ideal_join,
    ideal_leq,
    ideal_meet,
    is_full_ideal,
    is_zero_ideal,
    radical,
    validate_ideal,
)
from .morphisms import (
    Morphism,
    SubalgebraResult,
    compose,
    factor_through_quotient,
    identity,
    ideal_subalgebra,
    image_ideal,
    mediator_to_pullback,
    pullback,
    quotient,
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


def validate_square(sq: ExtensionSquare, surjective: bool = True) -> None:
    if sq.top.dom != sq.left.dom or sq.top.cod != sq.right.dom \
            or sq.left.cod != sq.bottom.dom or sq.right.cod != sq.bottom.cod:
        raise ValueError("square corners do not line up")
    if not same_morphism(compose(sq.top, sq.right), compose(sq.left, sq.bottom)):
        raise ValueError("square does not commute")
    if surjective:
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
    the comparison into the pullback is also checked literally."""
    validate_square(sq)
    img = image_ideal(sq.left, sq.top.kernel())
    ker = sq.bottom.kernel()
    C = sq.bottom.dom
    ok = ideal_leq(C, img, ker) and ideal_leq(C, ker, img)
    comparison = None
    if carrier_size(sq.left.cod) is not None \
            and carrier_size(sq.right.dom) is not None \
            and carrier_size(sq.top.dom) is not None:
        pb = pullback(sq.bottom, sq.right)
        psi = mediator_to_pullback(pb, sq.left, sq.top)
        comparison = psi.is_surjective()
    return RegularPushoutReport(ok, img, ker, comparison)


def square_from_ideals(algebra: Algebra, i: Ideal, j: Ideal) -> ExtensionSquare:
    """The square of quotients by two ideals, meeting at the quotient by
    their join.  Always a regular pushout."""
    i = validate_ideal(algebra, i)
    j = validate_ideal(algebra, j)
    k = ideal_join(algebra, i, j)
    top = quotient(algebra, j, label="mod_second").projection
    left = quotient(algebra, i, label="mod_first").projection
    corner = quotient(algebra, k, label="mod_join").projection
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
    """Reflect a surjection onto its central quotient: quotient the
    domain by kernel-meet-radical and factor f through it.  The unit
    square is a regular pushout, the reflected map is central, and doing
    it twice changes nothing."""
    if not f.is_surjective():
        raise ValueError("central reflection applies to surjections")
    A = f.dom
    theta = ideal_meet(A, f.kernel(), radical(A))
    q = quotient(A, theta, label="central_reflection")
    reflected = factor_through_quotient(q.projection, f, "reflected")
    sq = ExtensionSquare(top=f, left=q.projection,
                         right=identity(f.cod), bottom=reflected)
    rp = is_regular_pushout(sq)
    B = reflected.dom
    theta2 = ideal_meet(B, reflected.kernel(), radical(B))
    central = is_zero_ideal(B, theta2)
    return CentralReflection(sq, reflected, theta, rp.ok, central,
                             idempotent=central)


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
    meet = ideal_meet(A, ideal_meet(A, sq.top.kernel(), sq.left.kernel()),
                      radical(A))
    return DoubleClassification(True, is_zero_ideal(A, meet), meet)


def restrict_to_ideal_subalgebra(algebra: SymbolicAlgebra, k: Ideal,
                                 w: Ideal) -> MarkerIdeal:
    """Markers of the ideal w restricted to the subalgebra on k (kernel
    and negations): its preimage along the inclusion.  w may not be full
    on any block where k is not."""
    k = validate_ideal(algebra, k)
    w = validate_ideal(algebra, w)
    if any(mk != "full" and mw == "full"
           for mk, mw in zip(k.markers, w.markers)):
        raise ValueError("ideal is full outside the subalgebra blocks")
    return ideal_subalgebra(algebra, k).inclusion.preimage_ideal(w)


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
    com = ideal_meet(algebra, ideal_meet(algebra, i, j), radical(algebra))
    sub = ideal_subalgebra(algebra, com, label="ideal_commutator")
    in_center = is_zero_ideal(algebra, com)
    k = ideal_join(algebra, i, j)
    if is_full_ideal(algebra, k):
        base = algebra
        sq = square_from_ideals(algebra, i, j)
        if carrier_size(sq.bottom.cod) != 1:
            raise AssertionError("join-full square corner is not terminal")
        style = "join_full"
        radical_ok = True
    else:
        base_sub = ideal_subalgebra(algebra, k, label="join_span")
        base = base_sub.algebra
        restrict = base_sub.inclusion.preimage_ideal
        radical_ok = restrict(radical(algebra)) == radical(base)
        sq = square_from_ideals(base, restrict(i), restrict(j))
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
