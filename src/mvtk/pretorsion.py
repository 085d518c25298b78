"""The (perfect, semisimple) pretorsion theory.

Semisimple algebras have zero radical; perfect algebras are covered by
the radical and its negations.  The only algebras that are both are the
one- and two-element ones, and a map is trivial when it factors through
one of those two.  This module builds the reflection onto semisimple
quotients, the coreflection onto perfect parts, and the probe-based
checks for prekernels, precokernels and protoadditivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import chain_product_catalog
from .core import (
    Algebra,
    FiniteAlgebra,
    SymbolicAlgebra,
    carrier_size,
    element,
    elements,
    forced_elements,
    to_finite,
)
from .ideals import (
    all_ideals,
    ideal_leq,
    is_zero_ideal,
    radical,
)
from .morphisms import (
    CoordMap,
    FiniteMapBody,
    Morphism,
    QuotientResult,
    SubalgebraResult,
    compose,
    corestrict,
    enumerate_homs,
    factor_through_quotient,
    identity,
    ideal_subalgebra,
    image_set,
    from_initial,
    mediator_to_pullback,
    product_with_projections,
    pullback,
    quotient,
    same_morphism,
    to_terminal,
)

__all__ = [
    "is_semisimple",
    "is_perfect",
    "semisimple_quotient",
    "radical_projection",
    "perfect_part",
    "perfect_inclusion",
    "semisimple_map",
    "perfect_map",
    "radical_indicator",
    "TrivialWitness",
    "is_trivial_morphism",
    "PreExactSequence",
    "pre_exact",
    "ProbeReport",
    "is_prekernel",
    "is_precokernel",
    "UnitFactorization",
    "unit_factorization",
    "counit_factorization",
    "ProtoadditivityReport",
    "protoadditivity_check",
]


def is_semisimple(algebra: Algebra) -> bool:
    """Zero radical.  Products of chains; includes the terminal algebra."""
    return is_zero_ideal(algebra, radical(algebra))


def is_perfect(algebra: Algebra) -> bool:
    """Radical and its negations cover the carrier, that is, the perfect
    part is everything.  Symbolically this forces a single block of height
    at most one; the only finite perfect algebras are the one- and
    two-element ones."""
    return perfect_inclusion(algebra).is_surjective()


def semisimple_quotient(algebra: Algebra) -> QuotientResult:
    """Reflection onto semisimple algebras: the quotient by the radical.
    Its carrier is finite for every block algebra."""
    return quotient(algebra, radical(algebra), label="radical_projection")


def radical_projection(algebra: Algebra) -> Morphism:
    return semisimple_quotient(algebra).projection


def perfect_part(algebra: Algebra) -> SubalgebraResult:
    """Coreflection onto perfect algebras: the subalgebra on the radical
    and its negations."""
    return ideal_subalgebra(algebra, radical(algebra),
                            label="perfect_inclusion")


def perfect_inclusion(algebra: Algebra) -> Morphism:
    return perfect_part(algebra).inclusion


def semisimple_map(f: Morphism) -> Morphism:
    """Induced map between semisimple quotients: f followed by the
    codomain's projection, factored through the domain's."""
    return factor_through_quotient(radical_projection(f.dom),
                                   compose(f, radical_projection(f.cod)),
                                   "semisimple_map")


def perfect_map(f: Morphism) -> Morphism:
    """Induced map between perfect parts (the restriction of f)."""
    return corestrict(compose(perfect_inclusion(f.dom), f),
                      perfect_inclusion(f.cod), "perfect_map")


def radical_indicator(algebra: Algebra) -> Morphism:
    """For a perfect algebra other than the terminal one, the map to the
    two-element algebra sending the radical to 0 and its negations to 1;
    this coincides with the semisimple projection."""
    if carrier_size(algebra) == 1:
        raise ValueError("the terminal algebra admits no map to the "
                         "two-element algebra")
    if not is_perfect(algebra):
        raise ValueError("radical indicator needs a perfect algebra")
    return quotient(algebra, radical(algebra),
                    label="radical_indicator").projection


# ---------------------------------------------------------------------------
# trivial morphisms


@dataclass(frozen=True)
class TrivialWitness:
    trivial: bool
    via: str | None
    left: Morphism | None
    right: Morphism | None
    witness: object
    reason: str


def _collapsed_block(f: Morphism):
    """For a map between block products: the domain block of height 1
    that every codomain block reads without infinitesimal coordinates,
    the one shape whose image lies in {0, 1}; None otherwise."""
    srcs = {src for src, _, _ in f.body.rows}
    if len(srcs) != 1:
        return None
    (src,) = srcs
    if f.dom.blocks[src].m != 1 or any(
            c is not None for _, _, coords in f.body.rows for c in coords):
        return None
    return src


def _outside_witness(f: Morphism):
    """A domain element whose value is neither 0 nor 1, for a map between
    block products with no collapsed block: the first forced element that
    works, else one built from the rows."""
    zero_one = (f.cod.zero, f.cod.one)
    for x in forced_elements(f.dom):
        if f(x) not in zero_one:
            return x
    rows = f.body.rows
    src = rows[0][0]
    block = f.dom.blocks[src]
    x = list(f.dom.zero)
    if any(s != src for s, _, _ in rows):
        x[src] = f.dom.one[src]             # 1 in one codomain block, 0 in another
    elif block.m > 1:
        x[src] = element(1, (0,) * block.r)
    else:
        c = next(c for _, _, coords in rows for c in coords if c is not None)
        x[src] = (0, tuple(int(i == c[0]) for i in range(block.r)))
    return tuple(x)


def is_trivial_morphism(f: Morphism) -> TrivialWitness:
    """Decide whether f factors through a one- or two-element algebra and
    produce the factorization.  A negative verdict carries a witness: the
    first value outside {0, 1} on a finite carrier, a domain element
    sent outside {0, 1} otherwise."""
    if carrier_size(f.cod) == 1:
        left = to_terminal(f.dom)
        right = Morphism(left.cod, f.cod, FiniteMapBody((f.cod.zero,)),
                         "from_terminal")
        return TrivialWitness(True, "terminal", left, right, None,
                              "codomain is terminal")
    right = from_initial(f.cod)
    reason = "image contains a value other than 0 and 1"
    if carrier_size(f.dom) is not None:
        zero_one = (f.cod.zero, f.cod.one)
        outside = sorted((v for v in image_set(f) if v not in zero_one), key=repr)
        if outside:
            return TrivialWitness(False, None, None, None, outside[0], reason)
        body = FiniteMapBody(tuple(
            right.dom.one if f(x) == f.cod.one else right.dom.zero
            for x in elements(f.dom)))
    else:
        src = _collapsed_block(f)
        if src is None:
            return TrivialWitness(False, None, None, None, _outside_witness(f),
                                  reason)
        body = CoordMap(((src, 1, ()),))
    left = Morphism(f.dom, right.dom, body, "initial_collapse")
    return TrivialWitness(True, "initial", left, right, None,
                          "image lies in {0, 1}")


# ---------------------------------------------------------------------------
# the pre-exact sequence and its universal properties


@dataclass(frozen=True)
class PreExactSequence:
    perfect: SubalgebraResult
    semisimple: QuotientResult

    @property
    def inclusion(self) -> Morphism:
        return self.perfect.inclusion

    @property
    def projection(self) -> Morphism:
        return self.semisimple.projection


def pre_exact(algebra: Algebra) -> PreExactSequence:
    """P(A) -> A -> S(A): the perfect part followed by the semisimple
    quotient."""
    return PreExactSequence(perfect_part(algebra), semisimple_quotient(algebra))


def _catalog_like(algebra: Algebra) -> list:
    """The catalog chain products of size at most 4, as tables when
    ``algebra`` is one."""
    catalog = chain_product_catalog(4)
    if isinstance(algebra, FiniteAlgebra):
        return [to_finite(e) for e in catalog]
    return catalog


def _probes_into(algebra: Algebra) -> list[Morphism]:
    """Maps into the algebra used to exercise prekernel universality:
    every hom from small catalog algebras when the carrier is finite, the
    vocabulary inclusions otherwise."""
    if carrier_size(algebra) is not None:
        out = [identity(algebra)]
        for e in _catalog_like(algebra):
            out.extend(enumerate_homs(e, algebra))
        return out
    out = [identity(algebra), from_initial(algebra)]
    for ideal in all_ideals(algebra):
        out.append(ideal_subalgebra(algebra, ideal).inclusion)
    return out


def _probes_out_of(algebra: Algebra) -> list[Morphism]:
    """Maps out of the algebra for precokernel universality: every hom
    into small catalog algebras in the finite case, all marker quotients
    otherwise."""
    if carrier_size(algebra) is not None:
        out = [identity(algebra)]
        for c in _catalog_like(algebra):
            out.extend(enumerate_homs(algebra, c))
        return out
    return [quotient(algebra, ideal).projection for ideal in all_ideals(algebra)]


@dataclass(frozen=True)
class ProbeReport:
    ok: bool
    checked: int
    skipped: int
    failures: tuple
    reason: str = ""


def is_prekernel(k: Morphism, g: Morphism) -> ProbeReport:
    """Probe the universal property of k as the prekernel of g: the
    composite is trivial, and every probe with trivial composite factors
    through k exactly once."""
    if k.cod != g.dom:
        raise ValueError("prekernel check needs k.cod == g.dom")
    if not is_trivial_morphism(compose(k, g)).trivial:
        return ProbeReport(False, 0, 0, (), "composite g o k is not trivial")
    failures = []
    checked = skipped = 0
    injective = k.is_injective()
    for idx, e in enumerate(_probes_into(g.dom)):
        if not is_trivial_morphism(compose(e, g)).trivial:
            skipped += 1
            continue
        checked += 1
        try:
            phi = corestrict(e, k)
        except (ValueError, TypeError) as exc:
            failures.append((idx, f"no factorization: {exc}"))
            continue
        # corestrict raises unless phi followed by k is e
        if not injective:
            if carrier_size(e.dom) is None or carrier_size(k.dom) is None:
                failures.append((idx, "uniqueness undecidable: k not injective"))
                continue
            cands = [h for h in enumerate_homs(e.dom, k.dom)
                     if same_morphism(compose(h, k), e)]
            if len(cands) != 1:
                failures.append((idx, f"{len(cands)} factorizations"))
    return ProbeReport(not failures, checked, skipped, tuple(failures))


def is_precokernel(g: Morphism, k: Morphism) -> ProbeReport:
    """Probe the universal property of g as the precokernel of k."""
    if k.cod != g.dom:
        raise ValueError("precokernel check needs k.cod == g.dom")
    if not is_trivial_morphism(compose(k, g)).trivial:
        return ProbeReport(False, 0, 0, (), "composite g o k is not trivial")
    failures = []
    checked = skipped = 0
    surjective = g.is_surjective()
    for idx, t in enumerate(_probes_out_of(g.dom)):
        if not is_trivial_morphism(compose(k, t)).trivial:
            skipped += 1
            continue
        checked += 1
        if not ideal_leq(g.dom, g.kernel(), t.kernel()):
            failures.append((idx, "probe does not kill ker g: no mediator"))
            continue
        try:
            psi = factor_through_quotient(g, t)
        except (ValueError, TypeError) as exc:
            failures.append((idx, f"no mediator: {exc}"))
            continue
        if not same_morphism(compose(g, psi), t):
            failures.append((idx, "mediator does not recover the probe"))
            continue
        if not surjective:
            failures.append((idx, "uniqueness undecidable: g not surjective"))
    return ProbeReport(not failures, checked, skipped, tuple(failures))


@dataclass(frozen=True)
class UnitFactorization:
    mediator: Morphism | None
    exists: bool
    unique: bool


def unit_factorization(g: Morphism) -> UnitFactorization:
    """Factor g: A -> B with semisimple B through the semisimple
    projection of A.  Uniqueness holds because the projection is onto."""
    if not is_semisimple(g.cod):
        raise ValueError("unit factorization needs a semisimple codomain")
    qa = semisimple_quotient(g.dom)
    if not ideal_leq(g.dom, qa.ideal, g.kernel()):
        return UnitFactorization(None, False, False)
    psi = factor_through_quotient(qa.projection, g, "unit_mediator")
    return UnitFactorization(psi, True, True)


def counit_factorization(h: Morphism) -> UnitFactorization:
    """Factor h: B -> A with perfect B through the perfect-part inclusion
    of A.  Uniqueness holds because the inclusion is one-to-one."""
    if not is_perfect(h.dom):
        raise ValueError("counit factorization needs a perfect domain")
    pa = perfect_part(h.cod)
    try:
        psi = corestrict(h, pa.inclusion, "counit_mediator")
    except ValueError:
        return UnitFactorization(None, False, False)
    return UnitFactorization(psi, True, True)


# ---------------------------------------------------------------------------
# protoadditivity


@dataclass(frozen=True)
class ProtoadditivityReport:
    ok: bool
    section_valid: bool
    comparison_injective: bool
    comparison_surjective: bool
    compared: int


def _pullback_with_projections(p: Morphism, g: Morphism):
    if carrier_size(p.dom) is not None and carrier_size(g.dom) is not None:
        pb = pullback(p, g)
        return pb.algebra, pb.left, pb.right
    if same_morphism(g, identity(g.dom)):
        return p.dom, identity(p.dom), p
    A, C = p.dom, g.dom
    if isinstance(A, SymbolicAlgebra):
        kept = tuple(src for src, _, _ in p.body.rows)
        copies = identity(A).body.rows
        if len(set(kept)) == len(kept) \
                and p.body.rows == tuple(copies[i] for i in kept):
            others = [i for i in range(len(A.blocks)) if i not in kept]
            rest = SymbolicAlgebra([A.blocks[i] for i in others])
            pb, (pi_c, pi_e) = product_with_projections([C, rest])
            lifted = compose(pi_c, g).body.rows
            rows = tuple(lifted[kept.index(i)] if i in kept
                         else pi_e.body.rows[others.index(i)]
                         for i in range(len(A.blocks)))
            return pb, Morphism(pb, A, CoordMap(rows)), pi_c
    raise NotImplementedError(
        "symbolic pullbacks are available along identities and block "
        "projections only")


def protoadditivity_check(p: Morphism, s: Morphism,
                          g: Morphism) -> ProtoadditivityReport:
    """Check that the semisimple reflection preserves the pullback of the
    split surjection p along g: the comparison from S(pullback) to the
    pullback of the reflected maps must be an isomorphism."""
    if p.cod != g.cod or s.dom != p.cod or s.cod != p.dom:
        raise ValueError("need a split surjection p with section s and a "
                         "map g into its codomain")
    section_valid = same_morphism(compose(s, p), identity(p.cod))
    pb, pi_a, pi_c = _pullback_with_projections(p, g)
    reflected = pullback(semisimple_map(p), semisimple_map(g))
    psi = mediator_to_pullback(reflected, semisimple_map(pi_a),
                               semisimple_map(pi_c))
    inj = psi.is_injective()
    sur = psi.is_surjective()
    return ProtoadditivityReport(section_valid and inj and sur,
                                 section_valid, inj, sur,
                                 carrier_size(psi.dom) or 0)
