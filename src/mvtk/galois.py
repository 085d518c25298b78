"""Classification of surjections by their action on radicals.

A surjection is a trivial covering when its restriction to radicals is a
bijection, and a central (equivalently normal) covering when its kernel
meets the radical trivially.  Every finite algebra is semisimple, so every
finite surjection is trivial; the interesting stratification lives on the
block algebras.  The pair (radical-kernel surjections, radical-disjoint
kernels) forms the factorization system built by ``em_factorize``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Algebra,
    carrier_size,
    initial_algebra,
)
from .ideals import (
    Ideal,
    ideal_elements,
    ideal_leq,
    ideal_meet,
    is_zero_ideal,
    polar,
    radical,
)
from .morphisms import (
    Morphism,
    SubalgebraResult,
    compose,
    factor_through_quotient,
    identity,
    ideal_subalgebra,
    kernel_pair,
    mediator_to_pullback,
    pullback,
    quotient,
    same_morphism,
)
from .pretorsion import radical_projection, semisimple_map

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


def _rad_elements(algebra: Algebra):
    return ideal_elements(algebra, radical(algebra))


def rad_restriction_surjective(f: Morphism) -> bool:
    """Does f map the radical of its domain onto the radical of its
    codomain?  Read off the coordinate placements when the domain is an
    infinite block product; radicals are listed on finite carriers."""
    if carrier_size(f.dom) is None:
        return f.body.covers_radical()
    if carrier_size(f.cod) is None:
        return False    # a finite image cannot cover an infinite radical
    image = {f(x) for x in _rad_elements(f.dom)}
    return set(_rad_elements(f.cod)) <= image


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
    lies in the radical's polar."""
    A = f.dom
    ker = f.kernel()
    rad = radical(A)
    meet = ideal_meet(A, ker, rad)
    disjoint = is_zero_ideal(A, meet)
    surjective = f.is_surjective()
    trivial = surjective and disjoint and rad_restriction_surjective(f)
    central = surjective and disjoint
    in_polar = ideal_leq(A, ker, polar(A, rad))
    return ExtensionClassification(surjective, trivial, central, central,
                                   ker, meet, in_polar)


@dataclass(frozen=True)
class PullbackSquareReport:
    is_pullback: bool
    commutes: bool
    mediator_injective: bool
    mediator_surjective: bool


def trivial_via_pullback(f: Morphism, eta_a: Morphism | None = None,
                         eta_b: Morphism | None = None,
                         sf: Morphism | None = None) -> PullbackSquareReport:
    """Literal cross-check on finite carriers: f is a trivial covering
    exactly when the naturality square over the semisimple quotients is a
    pullback.  The three derived maps can be overridden to exercise
    corrupted squares."""
    if carrier_size(f.dom) is None or carrier_size(f.cod) is None:
        raise ValueError("the literal pullback check needs finite carriers")
    if eta_a is None:
        eta_a = radical_projection(f.dom)
    if eta_b is None:
        eta_b = radical_projection(f.cod)
    if sf is None:
        sf = semisimple_map(f)
    pb = pullback(sf, eta_b)
    try:
        psi = mediator_to_pullback(pb, eta_a, f)
    except ValueError:
        return PullbackSquareReport(False, False, False, False)
    inj = psi.is_injective()
    sur = psi.is_surjective()
    return PullbackSquareReport(inj and sur, True, inj, sur)


def kernel_subalgebra(f: Morphism, label: str = "kernel_subalgebra") -> SubalgebraResult:
    """The subalgebra on the kernel and its negations (the whole domain
    when the codomain is terminal)."""
    return ideal_subalgebra(f.dom, f.kernel(), label=label)


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
    theta = ideal_meet(A, f.kernel(), radical(A))
    sub = ideal_subalgebra(A, theta, label="extension_commutator")
    return ExtensionCommutator(theta, sub, is_zero_ideal(A, theta))


def e_member(f: Morphism) -> bool:
    """Surjections whose kernel sits inside the radical."""
    return f.is_surjective() and ideal_leq(f.dom, f.kernel(), radical(f.dom))


def m_member(f: Morphism) -> bool:
    """Maps whose kernel meets the radical trivially."""
    A = f.dom
    return is_zero_ideal(A, ideal_meet(A, f.kernel(), radical(A)))


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
    theta = ideal_meet(A, f.kernel(), radical(A))
    q = quotient(A, theta, label="em_projection")
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
    the projection over g's domain stays in the class.  Finite carriers
    use the literal pullback; symbolically the supported cases are g an
    identity, g equal to e (the kernel pair), and g from the initial
    algebra (the kernel subalgebra with its side indicator)."""
    if e.cod != g.cod:
        raise ValueError("maps must share a codomain")
    if not e_member(e):
        raise ValueError("stability is asserted for radical-kernel "
                         "surjections only")
    if carrier_size(e.dom) is not None and carrier_size(g.dom) is not None:
        pb = pullback(e, g)
        proj = pb.right
        return StabilityReport(e_member(proj), proj, proj.kernel())
    if same_morphism(g, identity(g.dom)):
        return StabilityReport(e_member(e), e, e.kernel())
    if same_morphism(g, e):
        _, q1, q2 = kernel_pair(e)
        return StabilityReport(e_member(q1) and e_member(q2), q2, q2.kernel())
    if g.dom == initial_algebra():
        sub = kernel_subalgebra(e)
        if len(sub.algebra.blocks) != 1:
            raise AssertionError("radical-bound kernels have no full blocks")
        proj = quotient(sub.algebra, radical(sub.algebra),
                        label="side_indicator").projection
        if proj.cod != g.dom:
            raise AssertionError("side indicator misses the initial algebra")
        return StabilityReport(e_member(proj), proj, proj.kernel())
    raise NotImplementedError(
        "symbolic stability checks cover identities, kernel pairs, and "
        "initial-algebra pullbacks")
