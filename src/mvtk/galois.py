"""Classification of surjections by their action on radicals.

A surjection is a trivial covering when its restriction to radicals is a
bijection, and a central (equivalently normal) covering when its kernel
meets the radical trivially.  Every finite algebra is semisimple, so every
finite surjection is trivial; the interesting stratification lives on the
block algebras.  On a table the radical is zero (``ideals._radical``)
and A/0 is A itself, so the semisimple reflection is the identity.  The
pair (radical-kernel surjections, radical-disjoint kernels) forms the
factorization system built by ``em_factorize``.

The pullback criterion for trivial coverings is decided on the chain
views: the comparison into the pullback is read off the block pullback
(``morphisms._comparison``), on any carrier, and no literal pullback is
built.  The stability of the left class returns the projection of
``morphisms.pullback``, which is a block product between block products
and still lists the pairs for table maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Algebra
from .ideals import (
    Ideal,
    _ideal_leq,
    _ideal_meet,
    _radical,
    zero_ideal,
)
from .morphisms import (
    Morphism,
    SubalgebraResult,
    _comparison,
    _coord_map,
    _ideal_subalgebra,
    _quotient,
    compose,
    factor_through_quotient,
    pullback,
    same_morphism,
)
from .pretorsion import _reflected, _reflection, radical_projection

__all__ = [
    "ExtensionClassification",
    "classify_extension",
    "rad_restriction_surjective",
    "PullbackSquareReport",
    "trivial_via_pullback",
    "kernel_subalgebra",
    "ExtensionCommutator",
    "extension_commutator",
    "e_member",
    "m_member",
    "EMFactorization",
    "em_factorize",
    "fill_diagonal",
    "StabilityReport",
    "stability_check",
]


def rad_restriction_surjective(f: Morphism) -> bool:
    """Does f map the radical of its domain onto the radical of its
    codomain?  Its CoordMap answers from its placements
    (``CoordMap.covers_radical``); on the chain view of a table, whose
    radical is zero, that holds exactly when the codomain's radical is
    zero too."""
    return _coord_map(f.body).covers_radical()


@dataclass(frozen=True)
class ExtensionClassification:
    surjective: bool
    trivial: bool
    central: bool
    normal: bool
    kernel: Ideal
    radical_meet: Ideal
    kernel_in_radical_polar: bool


def classify_extension(f: Morphism) -> ExtensionClassification:
    """Trivial: restriction to radicals is a bijection.  Central and
    normal coincide: the kernel meets the radical trivially, equivalently
    lies in the radical's polar.

    For ideals, I is within the polar of J exactly when I /\\ J = 0: if
    every a in I has a /\\ b = 0 for every b in J, then an element of both
    has c = c /\\ c = 0; conversely a /\\ b lies in I and in J, as ideals
    are downward closed.  So ``kernel_in_radical_polar`` is the meet test,
    and no polar is built."""
    A = f.dom
    ker = f.kernel()
    rad = _radical(A)
    meet = _ideal_meet(A, ker, rad)
    disjoint = meet == zero_ideal(A)
    surjective = f.is_surjective()
    trivial = surjective and disjoint and rad_restriction_surjective(f)
    central = surjective and disjoint
    return ExtensionClassification(surjective, trivial, central, central,
                                   ker, meet, disjoint)


@dataclass(frozen=True)
class PullbackSquareReport:
    is_pullback: bool
    commutes: bool
    mediator_injective: bool
    mediator_surjective: bool


def trivial_via_pullback(f: Morphism,
                         eta_a: Morphism | None = None) -> PullbackSquareReport:
    """The pullback criterion: f is a trivial covering exactly when the
    naturality square over the semisimple quotients is a pullback.  The
    square is read on the chain views: the semisimple map's CoordMap is
    factored through the reflections there, and the comparison from the
    domain into the pullback (``morphisms._comparison``) is decided on the
    block pullback, so no literal pullback and no value table is built,
    for table maps too.  The domain's unit ``eta_a`` can be overridden to
    exercise corrupted squares; one that does not run from f.dom to
    ``radical_projection(f.dom).cod`` is refused with a ValueError."""
    if eta_a is not None and (eta_a.dom != f.dom
                              or eta_a.cod != radical_projection(f.dom).cod):
        raise ValueError("eta_a must run from f.dom to its semisimple quotient")
    a, b = _reflection(f.dom), _reflection(f.cod)
    view, reflection, projection = a
    fc = _coord_map(f.body)
    sf = _reflected(fc, a, b)
    try:
        unit = projection if eta_a is None else _coord_map(eta_a.body)
        psi = _comparison(view, reflection, b[0], unit, fc, sf, b[2])
    except ValueError:
        return PullbackSquareReport(False, False, False, False)
    inj = psi.is_injective(view)
    sur = psi.is_onto()
    return PullbackSquareReport(inj and sur, True, inj, sur)


def kernel_subalgebra(f: Morphism) -> SubalgebraResult:
    """The subalgebra on the kernel and its negations (the whole domain
    when the codomain is terminal)."""
    return _ideal_subalgebra(f.dom, f.kernel(), "kernel_subalgebra")


@dataclass(frozen=True)
class ExtensionCommutator:
    ideal: Ideal
    subalgebra: SubalgebraResult
    in_center: bool


def extension_commutator(f: Morphism) -> ExtensionCommutator:
    """The commutator of the kernel subalgebra with the whole domain: the
    subalgebra on kernel-meet-radical.  It vanishes exactly when the
    kernel misses the radical."""
    A = f.dom
    theta = _ideal_meet(A, f.kernel(), _radical(A))
    sub = _ideal_subalgebra(A, theta, "extension_commutator")
    return ExtensionCommutator(theta, sub, theta == zero_ideal(A))


def e_member(f: Morphism) -> bool:
    """Surjections whose kernel sits inside the radical."""
    return f.is_surjective() and _ideal_leq(f.dom, f.kernel(), _radical(f.dom))


def m_member(f: Morphism) -> bool:
    """Maps whose kernel meets the radical trivially."""
    A = f.dom
    return _ideal_meet(A, f.kernel(), _radical(A)) == zero_ideal(A)


@dataclass(frozen=True)
class EMFactorization:
    e: Morphism
    m: Morphism
    theta: Ideal
    middle: Algebra


def em_factorize(f: Morphism) -> EMFactorization:
    """Factor f as a radical-kernel surjection followed by a map with
    radical-disjoint kernel, splitting at the quotient by
    kernel-meet-radical."""
    A = f.dom
    theta = _ideal_meet(A, f.kernel(), _radical(A))
    q = _quotient(A, theta, "em_projection")
    i = factor_through_quotient(q.projection, f, "em_embedding")
    if not e_member(q.projection):
        raise AssertionError("projection left the surjection class")
    if not m_member(i):
        raise AssertionError("embedding kernel still meets the radical")
    return EMFactorization(q.projection, i, theta, q.algebra)


def fill_diagonal(e: Morphism, m: Morphism, g: Morphism, h: Morphism) -> Morphism:
    """Unique diagonal for a commuting square m o g = h o e with e a
    radical-kernel surjection and m radical-disjoint."""
    if not e_member(e):
        raise ValueError("left leg must be a radical-kernel surjection")
    if not m_member(m):
        raise ValueError("right leg must have radical-disjoint kernel")
    if e.dom != g.dom or e.cod != h.dom or g.cod != m.dom or m.cod != h.cod:
        raise ValueError("square shape mismatch")
    if not same_morphism(compose(g, m), compose(e, h)):
        raise ValueError("square does not commute")
    d = factor_through_quotient(e, g, "diagonal")
    if not same_morphism(compose(d, m), h):
        raise AssertionError("diagonal fails the lower triangle")
    return d


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    projection: Morphism
    kernel: Ideal


def stability_check(e: Morphism, g: Morphism) -> StabilityReport:
    """Pull a radical-kernel surjection e back along g and test whether
    the projection over g's domain stays in the class.  The pullback is a
    block product when e and g run between block products, and literal
    for table maps on finite carriers."""
    if e.cod != g.cod:
        raise ValueError("maps must share a codomain")
    if not e_member(e):
        raise ValueError("stability is asserted for radical-kernel "
                         "surjections only")
    proj = pullback(e, g).right
    return StabilityReport(e_member(proj), proj, proj.kernel())
