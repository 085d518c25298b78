"""The (perfect, semisimple) pretorsion theory.

Semisimple algebras have zero radical; perfect algebras are covered by
the radical and its negations.  Only the one- and two-element algebras
are both, so a map is trivial iff its image lies in {0, 1}.  This module
builds the semisimple reflection and the perfect coreflection, decides
prekernels and precokernels, and checks protoadditivity.

Pre-exactness is decided by one family of probes on every carrier, read
off the ideals: into A, the identity, the map from Chain(1) and the
inclusion of I u neg(I) for each ideal I; out of A, the projection onto
A/I for each ideal I.  Each outcome is read off the ideal markers of the
chain views (``ideals._markers_leq``), and one reference probe is built
per call.  An inclusion probe is checked iff its ideal lies within ker g
(within A when g is trivial); a projection probe iff its ideal contains
the ideal generated by k(M), for M = K or a maximal ideal of K with
quotient Chain(1).  The reference probe, on ker g, is built and decided by
``CoordMap.corestrict`` or ``CoordMap.factor``; when it passes, so does
every checked inclusion probe, and every projection probe whose ideal
contains ker g.  Any other checked probe is built and decided, which
words its failure.  No probe builds a value table.  The prekernel
decision is exact, and so is the precokernel decision for an onto g (see
``is_prekernel`` and ``is_precokernel``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Algebra,
    SymbolicAlgebra,
    _view,
    carrier_size,
    element,
    elements,
)
from .ideals import (
    _markers_leq,
    _radical,
    _view_markers,
    all_ideals,
    maximal_ideals,
    zero_ideal,
)
from .morphisms import (
    FiniteMapBody,
    Morphism,
    QuotientResult,
    SubalgebraResult,
    _comparison,
    _coord_map,
    _ideal_subalgebra,
    _pullback_parts,
    _quotient,
    _quotient_parts,
    _subalgebra_parts,
    compose,
    corestrict,
    factor_through_quotient,
    from_initial,
    identity,
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
    return _radical(algebra) == zero_ideal(algebra)


def is_perfect(algebra: Algebra) -> bool:
    """Radical and its negations cover the carrier, that is, the perfect
    part is everything.  Symbolically this forces a single block of height
    at most one; the only finite perfect algebras are the one- and
    two-element ones."""
    return perfect_inclusion(algebra).is_surjective()


def semisimple_quotient(algebra: Algebra) -> QuotientResult:
    """Reflection onto semisimple algebras: the quotient by the radical.
    Its carrier is finite for every block algebra.  A table's radical is
    zero, and A/0 is A itself: its reflection is its identity map."""
    return _quotient(algebra, _radical(algebra), "radical_projection")


def radical_projection(algebra: Algebra) -> Morphism:
    return semisimple_quotient(algebra).projection


def _reflection(algebra: Algebra):
    """The chain view X of an algebra, its semisimple reflection S(X) and
    the CoordMap of the projection X -> S(X), on the chain view alone."""
    view = _view(algebra)
    return (view, *_quotient_parts(view, _radical(view).markers))


def _reflected(h, source, target):
    """The CoordMap of S(h): S(X) -> S(Y) for a CoordMap h: X -> Y, given
    the :func:`_reflection` of X and of Y: h then Y's projection, factored
    through X's, as ``semisimple_map`` does on the algebras."""
    return source[2].factor(h.then(target[2]))


def perfect_part(algebra: Algebra) -> SubalgebraResult:
    """Coreflection onto perfect algebras: the subalgebra on the radical
    and its negations."""
    return _ideal_subalgebra(algebra, _radical(algebra), "perfect_inclusion")


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
    return _quotient(algebra, _radical(algebra), "radical_indicator").projection


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


def _collapsed_block(dom: SymbolicAlgebra, rows):
    """For the rows of a map between block products: the domain block of
    height 1 that every codomain block reads without infinitesimal
    coordinates, the one shape whose image lies in {0, 1}; else None."""
    srcs = {src for src, _, _ in rows}
    if len(srcs) == 1 and dom.blocks[min(srcs)].m == 1 and all(
            c is None for _, _, coords in rows for c in coords):
        return min(srcs)
    return None


def _is_trivial(dom: Algebra, cod: Algebra, body) -> bool:
    """Whether the map with this body is trivial: its codomain is
    terminal, or its image lies in {0, 1}, that is its CoordMap has a
    collapsed block (on the chain view of a table)."""
    if carrier_size(cod) == 1:
        return True
    return _collapsed_block(_view(dom), _coord_map(body).rows) is not None


def is_trivial_morphism(f: Morphism) -> TrivialWitness:
    """Decide whether f factors through a one- or two-element algebra and
    produce the factorization.  A negative verdict carries a witness on
    every carrier: the first domain element of ``_points`` sent outside
    {0, 1}.  Those points are every element of a finite carrier and
    generate an infinite block product, and the preimage of {0, 1} is a
    subalgebra, so a map that is not trivial sends one of them outside.
    A trivial map into a nonterminal algebra has its image in {0, 1}, the
    image of ``from_initial``, which is one to one; so f corestricts
    through it, whatever its body."""
    if not _is_trivial(f.dom, f.cod, f.body):
        zero_one = (f.cod.zero, f.cod.one)
        witness = next(x for x in _points(f.dom) if f._eval(x) not in zero_one)
        return TrivialWitness(False, None, None, None, witness,
                              "image contains a value other than 0 and 1")
    if carrier_size(f.cod) == 1:
        left = to_terminal(f.dom)
        right = Morphism(left.cod, f.cod, FiniteMapBody((f.cod.zero,)),
                         "from_terminal")
        return TrivialWitness(True, "terminal", left, right, None,
                              "codomain is terminal")
    right = from_initial(f.cod)
    left = corestrict(f, right, "initial_collapse")
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


@dataclass(frozen=True)
class ProbeReport:
    ok: bool
    checked: int
    skipped: int
    failures: tuple
    reason: str = ""


# the outcome of a probe whose composite is not trivial
_SKIPPED = object()


def _report(outcomes: list) -> ProbeReport:
    """Tally per-probe outcomes: None (passed), a failure text or _SKIPPED."""
    skipped = outcomes.count(_SKIPPED)
    failures = tuple((i, o) for i, o in enumerate(outcomes) if isinstance(o, str))
    return ProbeReport(not failures, len(outcomes) - skipped, skipped, failures)


def _points(algebra: Algebra) -> list:
    """Every element of a finite carrier; of an infinite block product,
    the height-1 element and each unit infinitesimal of every block (zero
    elsewhere), which generate it."""
    if carrier_size(algebra) is not None:
        return elements(algebra)
    z = algebra.zero
    return [z[:i] + (element(a, coefs),) + z[i + 1:]
            for i, b in enumerate(algebra.blocks)
            for a, coefs in [(1, (0,) * b.r)] + [
                (0, tuple(int(t == c) for t in range(b.r))) for c in range(b.r)]]


def _prekernel_outcomes(k: Morphism, g: Morphism) -> list:
    """Each probe e into A decided on the chain views, in order: the
    identity, the map from Chain(1), then the inclusion e_I of I u neg(I)
    for each ideal I.  A probe is checked when e then g is trivial, and
    passes when e corestricts through k (as ``corestrict`` does).

    Which probes are checked is read off the markers.  Let T be ker g, or
    all of A when g is trivial.  Then e_I then g is trivial iff I lies
    within T: g sends an I within ker g to 0 and neg(I) to 1, and an x in
    I with g(x) = 1 makes g trivial, for every y is
    (y (*) neg x) (+) (x meet y), where g(y (*) neg x) = 0, so g(y) =
    g(x meet y), which lies in g(I) within {0, 1}.  The identity is the
    probe on the full ideal, checked iff g is trivial, and the map from
    Chain(1) has the image {0, 1} of the zero ideal's, always checked.

    Which pass is read off one reference probe, e_T, built and
    corestricted through k.  Every checked e factors through e_T, since
    its image lies within T u neg(T): e = e' then e_T.  So when
    e_T = phi then k, e = (e' then phi) then k has a corestriction, and
    ``CoordMap.corestrict`` finds one whenever one exists: it reads each
    entry off the first row of k that sees it, which every corestriction
    matches, and what k does not see does not change phi then k.  So
    every checked probe passes when e_T does.  Otherwise each checked
    probe is built and corestricted, which words each failure."""
    A, K = _view(g.dom), _view(k.dom)
    kc, gc = _coord_map(k.body), _coord_map(g.body)
    full = ("full",) * len(A.blocks)
    top = full if _is_trivial(g.dom, g.cod, gc) else gc.kernel(A).markers
    ideals = [_view_markers(g.dom, i) for i in all_ideals(g.dom)]
    checked = [top == full, True] + [_markers_leq(i, top) for i in ideals]

    def outcome(dom, e):
        try:
            e.corestrict(kc, dom, K)
        except ValueError as exc:
            return f"no factorization: {exc}"
        return None
    if outcome(*_subalgebra_parts(A, top)) is None:
        return [None if c else _SKIPPED for c in checked]

    def probe(n):
        if n > 1:
            return _subalgebra_parts(A, ideals[n - 2])
        e = (identity, from_initial)[n](A)
        return e.dom, e.body
    return [outcome(*probe(n)) if c else _SKIPPED for n, c in enumerate(checked)]


def is_prekernel(k: Morphism, g: Morphism) -> ProbeReport:
    """Decide whether k is a prekernel of g: the composite is trivial, and
    every e with e then g trivial factors through k exactly once.  The
    probes are the identity, the map from Chain(1) and the inclusion of
    I u neg(I) for each ideal I; then the injectivity of k.  Each probe's
    outcome is read off the ideal markers and one reference probe: e_I is
    checked iff I lies within ker g (within A when g is trivial), and
    every checked probe passes when the one on ker g does (the arguments
    are in ``_prekernel_outcomes``).

    A map is trivial iff its image lies in {0, 1}, and g(x) = 1 iff neg x
    is in ker g, so g^-1{0, 1} = ker g u neg(ker g), the carrier of
    ``ideal_subalgebra(A, ker g)``.  So k is a prekernel of g iff k is
    injective with im k = ker g u neg(ker g): then every probe with
    trivial composite factors once.  Conversely im k lies in g^-1{0, 1},
    and the probe on ker g's own subalgebra has a trivial composite, so it
    fails exactly when that subalgebra is not within im k.  And a != b
    with k(a) = k(b) give two factorizations of the map sending the
    generator of the free one-generated algebra to k(a), so a
    non-injective k is never a prekernel.  No probe counts its
    factorizations: when no probe fails, a nonzero y with k(y) = 0 is the
    one failure (None, text)."""
    if k.cod != g.dom:
        raise ValueError("prekernel check needs k.cod == g.dom")
    if not _is_trivial(k.dom, g.cod, _coord_map(k.body).then(_coord_map(g.body))):
        return ProbeReport(False, 0, 0, (), "composite g o k is not trivial")
    report = _report(_prekernel_outcomes(k, g))
    if report.ok and not k.is_injective():
        y = next(y for y in _points(k.dom) if y != k.dom.zero and k._eval(y) == k.cod.zero)
        return ProbeReport(False, report.checked, report.skipped,
                           ((None, f"{y} is sent to 0: k is not injective"),))
    return report


def _precokernel_outcomes(g: Morphism, k: Morphism) -> list:
    """Each probe t_J: A -> A/J, one per ideal J in order, decided on the
    chain views.  It is checked when k then t_J is trivial, and passes
    when g factors it (as ``factor_through_quotient`` builds the
    mediator; g then it is t_J) and g is onto, which makes the mediator
    unique.

    Which probes are checked is read off the markers.  The image of
    k then t_J is K / k^-1(J), and a map is trivial iff its image has at
    most two elements, so iff k^-1(J) contains K or a maximal ideal M of
    K with K / M = Chain(1), that is iff J contains the ideal that k(M)
    generates (``CoordMap.image``).  Those M are full on every block of
    K's chain view but at most one block of height 1, which carries its
    infinitesimals.

    Which pass is read off one reference probe: t_Q, for Q = ker g, built
    and factored through g; it passes only when g is onto.  Every J
    containing Q has t_J = t_Q then the projection p: A/Q -> A/J, so
    when t_Q = g then h, t_J = g then (h then p) has a mediator.  For an
    onto g ``CoordMap.factor`` finds it: g's rows read distinct blocks
    and each coordinate plainly, so each row of the mediator is forced.
    Any other checked probe, and every checked probe of a g that is not
    onto, is built and factored, which words each failure."""
    A, K = _view(g.dom), _view(k.dom)
    kc, gc = _coord_map(k.body), _coord_map(g.body)
    lows = [kc.image(m).markers for m in [("full",) * len(K.blocks)] + [
        m.markers for m, b in zip(maximal_ideals(K), K.blocks) if b.m == 1]]
    onto = gc.is_onto()

    def outcome(cod, t):
        try:
            gc.factor(t)
        except ValueError as exc:
            return f"no mediator: {exc}"
        return None if onto else "uniqueness undecidable: g not surjective"
    kernel = gc.kernel(A).markers
    passed = outcome(*_quotient_parts(A, kernel)) is None
    return [_SKIPPED if not any(_markers_leq(low, j) for low in lows)
            else None if passed and _markers_leq(kernel, j)
            else outcome(*_quotient_parts(A, j))
            for j in (_view_markers(g.dom, i) for i in all_ideals(g.dom))]


def is_precokernel(g: Morphism, k: Morphism) -> ProbeReport:
    """Probe the universal property of g as the precokernel of k: the
    composite is trivial, and every t with k then t trivial factors
    through g exactly once.  The probes are the projections onto A/I, one
    for each ideal I.  Each probe's outcome is read off the ideal markers
    and one reference probe: t_J is checked iff J contains the ideal k(M)
    generates, for M = K or a maximal ideal of K with quotient Chain(1),
    and for an onto g every J containing ker g passes when the probe on
    ker g does (the arguments are in ``_precokernel_outcomes``).

    They decide an onto g exactly.  Every t: A -> C factors as the
    projection A -> A/ker t followed by an embedding, and an embedding
    meets {0, 1} only in {0, 1}; so k then t is trivial exactly when k
    then that projection is.  For an onto g, t factors through g iff
    ker g lies within ker t, that is iff that projection factors through
    g, and then once.  No kernels are compared: a t = g then h has ker g
    within ker t, and a mediator read off g and t row by row always has g
    then it equal to t, so a probe that does not kill ker g fails with no
    mediator.  For a g that is not onto, each probe that factors reports
    its uniqueness undecidable."""
    if k.cod != g.dom:
        raise ValueError("precokernel check needs k.cod == g.dom")
    if not _is_trivial(k.dom, g.cod, _coord_map(k.body).then(_coord_map(g.body))):
        return ProbeReport(False, 0, 0, (), "composite g o k is not trivial")
    return _report(_precokernel_outcomes(g, k))


@dataclass(frozen=True)
class UnitFactorization:
    mediator: Morphism | None
    exists: bool
    unique: bool


def unit_factorization(g: Morphism) -> UnitFactorization:
    """Factor g: A -> B with semisimple B through the semisimple
    projection of A.  Uniqueness holds because the projection is onto.
    ``factor_through_quotient`` refuses g exactly when Rad A is not
    within ker g, so its ValueError is the negative answer."""
    if not is_semisimple(g.cod):
        raise ValueError("unit factorization needs a semisimple codomain")
    try:
        psi = factor_through_quotient(radical_projection(g.dom), g, "unit_mediator")
    except ValueError:
        return UnitFactorization(None, False, False)
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


def protoadditivity_check(p: Morphism, s: Morphism,
                          g: Morphism) -> ProtoadditivityReport:
    """Check that the semisimple reflection preserves the pullback of the
    split surjection p along g: the comparison from S(pullback) to the
    pullback of the reflected maps must be an isomorphism.  The pullbacks,
    the reflections and the comparison are read on the chain views
    (``morphisms._comparison``), so no literal pullback is built, and a
    table map with an infinite end answers like its block map."""
    if p.cod != g.cod or s.dom != p.cod or s.cod != p.dom:
        raise ValueError("need a split surjection p with section s and a "
                         "map g into its codomain")
    section_valid = same_morphism(compose(s, p), identity(p.cod))
    a, c, d = map(_reflection, (p.dom, g.dom, p.cod))
    pc, gc = _coord_map(p.body), _coord_map(g.body)
    P, left, right = _pullback_parts(a[0], c[0], pc, gc)
    pb = _reflection(P)
    reflection = pb[1]
    psi = _comparison(reflection, a[1], c[1], _reflected(left, pb, a),
                      _reflected(right, pb, c), _reflected(pc, a, d),
                      _reflected(gc, c, d))
    inj = psi.is_injective(reflection)
    sur = psi.is_onto()
    return ProtoadditivityReport(section_valid and inj and sur,
                                 section_valid, inj, sur,
                                 carrier_size(reflection) or 0)
