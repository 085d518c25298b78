"""Morphisms with computable kernels, preimages and surjectivity.

A morphism pairs a domain, a codomain and a body.  There are two bodies.
A map whose domain or codomain is a table algebra is a
:class:`FiniteMapBody`, its value table.  A map between two block
products is a :class:`CoordMap`, which stores, per codomain block, the
domain block it reads, the integer height scale, and where each
infinitesimal coordinate comes from.

Why every homomorphism h: A_1 x ... x A_n -> B_1 x ... x B_k of block
products is a CoordMap.  A map into a product is a tuple of maps into its
blocks.  Every block B_j is nontrivial and its only Boolean elements are 0
and 1.  The tops e_i of the domain blocks (the top of block i, zero
elsewhere) are Boolean, pairwise disjoint and join to 1, so block j of h
sends exactly one e_i to 1 and every other to 0: it factors through the
projection onto A_i.  By Mundici's Gamma equivalence, a homomorphism
A_i -> B_j is the restriction of a unital l-group homomorphism
phi: Z x_lex Z^s -> Z x_lex Z^r (s = 0 for a chain, r = 0 into a chain)
with phi(m_i, 0) = (m_j, 0).  phi sends infinitesimals to infinitesimals,
so phi(a, b) = (a * m_j / m_i, W b) for a nonnegative integer matrix W,
and phi keeps (0, e_c) meet (0, e_d) = 0 for c != d only if no row of W
has two nonzero entries.  Block j of h(x) is therefore

    (a * scale, (k_1 * b[c_1], ..., k_r * b[c_r]))

with scale = m_j / m_i, and each codomain coordinate t is either 0 (None)
or k_t >= 1 times one source coordinate c_t.  Conversely every such
formula is a homomorphism.  The source block, the scale and the
placements are determined by h, so two CoordMaps with the same domain and
codomain are equal exactly when they are the same map.  Composition,
kernels, preimages, images, surjectivity, corestriction and factoring
through quotients are closed formulas on this data.

A FiniteMapBody lists the value of ``elements(dom)[i]`` at position i.
Given between two block products it is decoded into its CoordMap, and so
are the construction specs :class:`ElemTableBody`,
:class:`BlockProjectionBody` and :class:`TuplingBody`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import (
    Algebra,
    Chain,
    FiniteAlgebra,
    Komori,
    SymbolicAlgebra,
    carrier_size,
    elements,
    hom_tables,
    initial_algebra,
    resolve_mode,
    run_checks,
    sample_tuples,
    table_on,
    terminal_algebra,
    to_finite,
)
from .ideals import (
    FiniteIdeal,
    Ideal,
    MarkerIdeal,
    finite_quotient_data,
    ideal_contains,
    ideal_elements,
    ideal_leq,
    markers_from_elements,
    marker_quotient_data,
    validate_ideal,
    zero_ideal,
)

__all__ = [
    "Morphism",
    "CoordMap",
    "FiniteMapBody",
    "ElemTableBody",
    "BlockProjectionBody",
    "TuplingBody",
    "identity",
    "to_terminal",
    "from_initial",
    "compose",
    "is_morphism",
    "same_morphism",
    "image_set",
    "QuotientResult",
    "quotient",
    "factor_through_quotient",
    "image_ideal",
    "SubalgebraResult",
    "ideal_subalgebra",
    "subalgebra_decode",
    "corestrict",
    "enumerate_homs",
    "find_isomorphism",
    "PullbackResult",
    "pullback",
    "mediator_to_pullback",
    "kernel_pair",
    "product_with_projections",
]


# ---------------------------------------------------------------------------
# bodies


@dataclass(frozen=True)
class FiniteMapBody:
    """Value table of a map out of a finite carrier: entry i is the value
    at ``elements(dom)[i]`` (at i itself for a table algebra)."""

    table: tuple


@dataclass(frozen=True)
class CoordMap:
    """Normal form of a homomorphism between block products.

    ``rows`` has one ``(src, scale, coords)`` per codomain block: the block
    reads domain block ``src`` with its height multiplied by ``scale``.
    ``coords`` is ``()`` for a chain codomain block and, for a Komori
    block, one entry per infinitesimal coordinate: None (always 0) or
    ``(c, k)``, k >= 1 times source coordinate c.
    """

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(
            (src, scale, tuple(None if c is None else (c[0], c[1])
                               for c in coords))
            for src, scale, coords in self.rows))

    def __call__(self, x):
        out = []
        for src, scale, coords in self.rows:
            v = x[src]
            if not coords:
                out.append((v if isinstance(v, int) else v[0]) * scale)
            elif isinstance(v, int):
                out.append((v * scale, (0,) * len(coords)))
            else:
                a, b = v
                out.append((a * scale, tuple(
                    0 if c is None else b[c[0]] * c[1] for c in coords)))
        return tuple(out)

    def then(self, other: "CoordMap") -> "CoordMap":
        """Substitution: self followed by other."""
        rows = []
        for src, scale, coords in other.rows:
            s0, k0, c0 = self.rows[src]
            rows.append((s0, k0 * scale, tuple(
                None if c is None or c0[c[0]] is None
                else (c0[c[0]][0], c0[c[0]][1] * c[1]) for c in coords)))
        return CoordMap(tuple(rows))

    def preimage(self, dom: SymbolicAlgebra, markers) -> MarkerIdeal:
        """Markers of the preimage of a (validated) codomain ideal."""
        out = ["full"] * len(dom.blocks)
        for (src, _, coords), mk in zip(self.rows, markers):
            if mk == "full":
                continue
            block = dom.blocks[src]
            if isinstance(block, Chain):
                out[src] = "zero"
                continue
            allowed = frozenset(range(block.r)) if out[src] == "full" else out[src][1]
            kept = mk[1] if coords else ()
            out[src] = ("sub", allowed - {c[0] for t, c in enumerate(coords)
                                          if c is not None and t not in kept})
        return MarkerIdeal(tuple(out))

    def image(self, markers) -> MarkerIdeal:
        """Markers of the ideal generated by the image of a (validated)
        domain ideal; it is the image itself when the map is onto."""
        out = []
        for src, _, coords in self.rows:
            mk = markers[src]
            if mk == "full":
                out.append("full")
            elif not coords:
                out.append("zero")
            else:
                out.append(("sub", frozenset(
                    t for t, c in enumerate(coords)
                    if c is not None and c[0] in mk[1])))
        return MarkerIdeal(tuple(out))

    def is_onto(self) -> bool:
        """Distinct source blocks, unit scales, and every codomain
        coordinate a distinct source coordinate with multiplier 1."""
        srcs = [src for src, _, _ in self.rows]
        return len(set(srcs)) == len(srcs) and all(
            scale == 1 and _is_plain(coords) for _, scale, coords in self.rows)

    def covers_radical(self) -> bool:
        """Whether the radical of the domain maps onto the radical of the
        codomain: every codomain coordinate must read a source coordinate
        with multiplier 1, and no source coordinate twice."""
        read = [(src, c) for src, _, coords in self.rows for c in coords]
        return all(c is not None and c[1] == 1 for _, c in read) \
            and len({(src, c[0]) for src, c in read}) == len(read)

    def solve(self, dom: SymbolicAlgebra, y):
        """An x with self(x) == y, read off the first row (and coordinate)
        that sees each part of x; None when y is not in the image."""
        heights = {}
        vecs = [[0] * b.r for b in dom.blocks]
        fixed = set()
        for (src, scale, coords), v in zip(self.rows, y):
            a, b = v if coords else (v, ())
            if src not in heights:
                if a % scale:
                    return None
                heights[src] = a // scale
            for c, w in zip(coords, b):
                if c is None or (src, c[0]) in fixed:
                    continue
                if w % c[1]:
                    return None
                vecs[src][c[0]] = w // c[1]
                fixed.add((src, c[0]))
        x = tuple(heights.get(i, 0) if isinstance(b, Chain)
                  else (heights.get(i, 0), tuple(vecs[i]))
                  for i, b in enumerate(dom.blocks))
        return x if dom.contains(x) and self(x) == y else None


def _is_plain(coords) -> bool:
    hit = [c[0] for c in coords if c is not None and c[1] == 1]
    return len(hit) == len(coords) == len(set(hit))


def _plain(block) -> tuple:
    return tuple((c, 1) for c in range(block.r))


def _copies(dom: SymbolicAlgebra, kept) -> CoordMap:
    return CoordMap(tuple((i, 1, _plain(dom.blocks[i])) for i in kept))


def _check_coords(dom: SymbolicAlgebra, cod: SymbolicAlgebra, body: CoordMap) -> None:
    if len(body.rows) != len(cod.blocks):
        raise ValueError("a coordinate map needs one row per codomain block")
    for (src, scale, coords), blk in zip(body.rows, cod.blocks):
        if not (isinstance(src, int) and 0 <= src < len(dom.blocks)):
            raise ValueError(f"source block {src!r} out of range")
        source = dom.blocks[src]
        if scale * source.m != blk.m:
            raise ValueError(f"scale {scale} does not carry {source!r} onto {blk!r}")
        if len(coords) != blk.r:
            raise ValueError(f"{blk!r} needs one placement per coordinate")
        for c in coords:
            if c is not None and not (0 <= c[0] < source.r and c[1] >= 1):
                raise ValueError(f"bad coordinate placement {c!r} from {source!r}")


# Construction specs: each is lowered to a CoordMap or a FiniteMapBody as
# soon as a Morphism is built from it.


@dataclass(frozen=True)
class ElemTableBody:
    """Explicit element dictionary; the domain must have a finite carrier."""

    mapping: dict

    def __hash__(self):
        return hash(tuple(sorted(self.mapping.items(), key=repr)))


@dataclass(frozen=True)
class BlockProjectionBody:
    """Projection of a block product onto some of its blocks."""

    kept: tuple


@dataclass(frozen=True)
class TuplingBody:
    """Pairing into a block product.  ``placement`` lists, per codomain
    block, which part and which of its blocks supplies the value."""

    parts: tuple
    placement: tuple


def _lower(dom: Algebra, cod: Algebra, body):
    if isinstance(body, ElemTableBody):
        body = FiniteMapBody(tuple(body.mapping[x] for x in elements(dom)))
    elif isinstance(body, BlockProjectionBody):
        body = _copies(dom, body.kept)
    elif isinstance(body, TuplingBody):
        body = _tupled(dom, body)
    if isinstance(body, FiniteMapBody):
        if isinstance(dom, SymbolicAlgebra) and isinstance(cod, SymbolicAlgebra):
            return _decode_table(dom, cod, body.table)
        return body
    if isinstance(body, CoordMap):
        if not (isinstance(dom, SymbolicAlgebra) and isinstance(cod, SymbolicAlgebra)):
            raise TypeError("coordinate maps run between block products")
        _check_coords(dom, cod, body)
        return body
    raise TypeError(f"unknown body {body!r}")


def _tupled(dom: Algebra, body: TuplingBody) -> CoordMap:
    """The rows of a tupling, each read off the part that supplies it."""
    for part in body.parts:
        if part.dom != dom:
            raise ValueError("every part of a tupling must start at its domain")
        if not isinstance(part.body, CoordMap):
            raise TypeError("tupling parts must be maps between block products")
    rows = []
    for p, b in body.placement:
        if not (0 <= p < len(body.parts) and 0 <= b < len(body.parts[p].body.rows)):
            raise ValueError(f"tupling placement {(p, b)!r} out of range")
        rows.append(body.parts[p].body.rows[b])
    return CoordMap(tuple(rows))


def _decode_table(dom: SymbolicAlgebra, cod: SymbolicAlgebra, values) -> CoordMap:
    """The CoordMap sending elements(dom)[i] to values[i]; codomain block j
    reads the one domain block whose top goes to the top of block j."""
    elems = elements(dom)
    if len(values) != len(elems):
        raise ValueError("value table does not cover the domain")
    tops = [values[_index(dom, dom.zero[:i] + (b.m,) + dom.zero[i + 1:])]
            for i, b in enumerate(dom.blocks)]
    rows = []
    for j, blk in enumerate(cod.blocks):
        srcs = [i for i, top in enumerate(tops) if top[j] == cod.one[j]]
        if len(srcs) != 1 or blk.m % dom.blocks[srcs[0]].m:
            raise ValueError("values do not form a homomorphism of block products")
        i = srcs[0]
        rows.append((i, blk.m // dom.blocks[i].m, (None,) * len(_plain(blk))))
    body = CoordMap(tuple(rows))
    if any(body(x) != v for x, v in zip(elems, values)):
        raise ValueError("values do not form a homomorphism of block products")
    return body


def _index(dom: SymbolicAlgebra, x) -> int:
    """Position of x in elements(dom) for a product of chains."""
    k = 0
    for b, v in zip(dom.blocks, x):
        k = k * (b.m + 1) + v
    return k


# ---------------------------------------------------------------------------
# morphism


_INITIAL = initial_algebra()
_TERMINAL = terminal_algebra()


class Morphism:
    __slots__ = ("dom", "cod", "body", "label", "_eval")

    def __init__(self, dom: Algebra, cod: Algebra, body, label: str = ""):
        body = _lower(dom, cod, body)
        if isinstance(body, CoordMap):
            ev = body
        elif isinstance(dom, FiniteAlgebra):
            ev = body.table.__getitem__
        else:
            table = body.table
            def ev(x):
                return table[_index(dom, x)]
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_eval", ev)

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"Morphism({type(self.body).__name__}{tag})"

    def __call__(self, x):
        return self._eval(x)

    def then(self, g: "Morphism") -> "Morphism":
        return compose(self, g)

    def kernel(self) -> Ideal:
        return _preimage(self, zero_ideal(self.cod))

    def preimage_ideal(self, ideal: Ideal) -> Ideal:
        return _preimage(self, validate_ideal(self.cod, ideal))

    def is_surjective(self) -> bool:
        if isinstance(self.body, CoordMap):
            return self.body.is_onto()
        size = carrier_size(self.cod)
        return size is not None and len(set(self.body.table)) == size

    def is_injective(self) -> bool:
        return self.kernel() == zero_ideal(self.dom)


def _preimage(m: Morphism, ideal: Ideal) -> Ideal:
    if isinstance(m.body, CoordMap):
        return m.body.preimage(m.dom, ideal.markers)
    if isinstance(ideal, FiniteIdeal):
        hit = ideal.elements.__contains__
    else:
        def hit(v):
            return ideal_contains(m.cod, ideal, v)
    pre = [x for x, v in zip(elements(m.dom), m.body.table) if hit(v)]
    if isinstance(m.dom, FiniteAlgebra):
        return FiniteIdeal(frozenset(pre))
    return markers_from_elements(m.dom, pre)


def identity(algebra: Algebra) -> Morphism:
    if isinstance(algebra, FiniteAlgebra):
        body = FiniteMapBody(tuple(range(algebra.size)))
    else:
        body = _copies(algebra, range(len(algebra.blocks)))
    return Morphism(algebra, algebra, body, "identity")


def to_terminal(algebra: Algebra) -> Morphism:
    if isinstance(algebra, SymbolicAlgebra):
        return Morphism(algebra, _TERMINAL, CoordMap(()), "to_terminal")
    return Morphism(algebra, to_finite(_TERMINAL),
                    FiniteMapBody((0,) * algebra.size), "to_terminal")


def from_initial(algebra: Algebra) -> Morphism:
    dom = _INITIAL if isinstance(algebra, SymbolicAlgebra) else to_finite(_INITIAL)
    return Morphism(dom, algebra, FiniteMapBody((algebra.zero, algebra.one)),
                    "from_initial")


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f then g.  Two coordinate maps compose by substitution; any other
    composite is tabulated on the elements of f's domain, so a block
    product with an infinite carrier cannot be composed into a table
    algebra (ValueError)."""
    if f.cod != g.dom:
        raise ValueError("composite needs f.cod == g.dom")
    if isinstance(f.body, CoordMap) and isinstance(g.body, CoordMap):
        body = f.body.then(g.body)
    else:
        body = _tabulate(f.dom, lambda x: g(f(x)))
    return Morphism(f.dom, g.cod, body)


def _tabulate(dom: Algebra, fn) -> FiniteMapBody:
    if carrier_size(dom) is None:
        raise ValueError("a map out of an infinite block product into a "
                         "table algebra has no representation")
    return FiniteMapBody(tuple(fn(x) for x in elements(dom)))


# ---------------------------------------------------------------------------
# pointwise checks


def is_morphism(m: Morphism, mode: str = "auto", count: int = 400,
                seed: int = 0, bound: int = 8):
    """Verify preservation of zero, addition and negation pointwise, and
    that values land in the codomain.  Returns a CheckReport."""
    A, B = m.dom, m.cod
    mode = resolve_mode(A, mode)
    checks = [
        ("preserves_zero", 0, lambda: m(A.zero) == B.zero),
        ("lands_in_codomain", 1, lambda x: B.contains(m(x))),
        ("preserves_plus", 2,
         lambda x, y: m(A.plus(x, y)) == B.plus(m(x), m(y))),
        ("preserves_neg", 1, lambda x: m(A.neg(x)) == B.neg(m(x))),
    ]
    if mode == "exhaustive":
        def tuples(name, arity):
            return itertools.product(elements(A), repeat=arity)
    else:
        def tuples(name, arity):
            return sample_tuples(A, arity, count,
                                 random.Random(f"{seed}:{name}"), bound)
    return run_checks(checks, tuples, "morphism", mode)


def same_morphism(f: Morphism, g: Morphism) -> bool:
    """Equality of maps, decided exactly: bodies are normal forms, so two
    maps with the same domain and codomain agree everywhere exactly when
    their bodies are equal."""
    return f.dom == g.dom and f.cod == g.cod and f.body == g.body


def image_set(m: Morphism) -> set:
    if carrier_size(m.dom) is None:
        raise ValueError("image_set needs a finite carrier")
    return {m(x) for x in elements(m.dom)}


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class QuotientResult:
    algebra: Algebra
    projection: Morphism
    ideal: Ideal
    reps: tuple | None = None


def quotient(algebra: Algebra, ideal: Ideal, label: str = "quotient") -> QuotientResult:
    ideal = validate_ideal(algebra, ideal)
    if isinstance(algebra, FiniteAlgebra):
        q, class_of, reps = finite_quotient_data(algebra, ideal)
        proj = Morphism(algebra, q, FiniteMapBody(class_of), label)
        return QuotientResult(q, proj, ideal, reps)
    rows = []
    for i, (b, mk) in enumerate(zip(algebra.blocks, ideal.markers)):
        if mk == "full":
            continue
        rows.append((i, 1, tuple((c, 1) for c in range(b.r) if c not in mk[1])))
    q = marker_quotient_data(algebra, ideal)
    proj = Morphism(algebra, q, CoordMap(tuple(rows)), label)
    return QuotientResult(q, proj, ideal, None)


def factor_through_quotient(q: Morphism, f: Morphism, label: str = "") -> Morphism:
    """The unique g with g o q = f; needs ker q within ker f and q onto."""
    if q.dom != f.dom:
        raise ValueError("factorization needs a shared domain")
    if not ideal_leq(q.dom, q.kernel(), f.kernel()):
        raise ValueError("kernel of the quotient must sit inside ker f")
    if isinstance(q.body, CoordMap) and isinstance(f.body, CoordMap):
        body = _factor_coords(q.body, f.body)
    else:
        lifted = {}
        for x in elements(q.dom):
            lifted.setdefault(q(x), f(x))
        try:
            body = FiniteMapBody(tuple(lifted[y] for y in elements(q.cod)))
        except KeyError:
            raise ValueError("the quotient misses part of its codomain") from None
    return Morphism(q.cod, f.cod, body, label)


def _factor_coords(q: CoordMap, f: CoordMap) -> CoordMap:
    """g with q.then(g) == f: each row of f is re-read from the row of q
    that carries the same source block."""
    first = {}
    for j, (src, _, _) in enumerate(q.rows):
        first.setdefault(src, j)
    rows = []
    for src, scale, coords in f.rows:
        if src not in first:
            raise ValueError("f reads a block the quotient kills")
        j = first[src]
        _, qscale, qcoords = q.rows[j]
        where = {}
        for p, c in enumerate(qcoords):
            if c is not None:
                where.setdefault(c[0], (p, c[1]))
        placed = []
        for c in coords:
            if c is None:
                placed.append(None)
                continue
            if c[0] not in where or c[1] % where[c[0]][1]:
                raise ValueError("f reads a coordinate the quotient kills")
            p, k = where[c[0]]
            placed.append((p, c[1] // k))
        if scale % qscale:
            raise ValueError("f does not factor through the quotient")
        rows.append((j, scale // qscale, tuple(placed)))
    g = CoordMap(tuple(rows))
    if q.then(g) != f:
        raise ValueError("f does not factor through the quotient")
    return g


def image_ideal(q: Morphism, ideal: Ideal) -> Ideal:
    """Forward image of an ideal along a surjective map."""
    ideal = validate_ideal(q.dom, ideal)
    if isinstance(q.body, CoordMap):
        return q.body.image(ideal.markers)
    img = {q(x) for x in ideal_elements(q.dom, ideal)}
    if isinstance(q.cod, FiniteAlgebra):
        return FiniteIdeal(frozenset(img))
    return markers_from_elements(q.cod, img)


# ---------------------------------------------------------------------------
# ideal subalgebras


@dataclass(frozen=True)
class SubalgebraResult:
    algebra: Algebra
    inclusion: Morphism
    ideal: Ideal


def ideal_subalgebra(algebra: Algebra, ideal: Ideal,
                     label: str = "subalgebra_inclusion") -> SubalgebraResult:
    """The subalgebra on I u neg(I), with its inclusion.

    On a block product the blocks where I is full survive; the others
    meet I u neg(I) in elements of height 0 or top, which form one joint
    block: a Komori block of height 1 over the marked coordinates (or a
    two-element chain when none is marked) read by each of them.
    """
    ideal = validate_ideal(algebra, ideal)
    if isinstance(algebra, FiniteAlgebra):
        members = sorted(ideal.elements | {algebra.neg(x) for x in ideal.elements})
        sub = table_on(members, algebra.plus, algebra.neg, algebra.zero)
        incl = Morphism(sub, algebra, FiniteMapBody(tuple(members)), label)
        return SubalgebraResult(sub, incl, ideal)
    pairs = list(zip(algebra.blocks, ideal.markers))
    full = [i for i, (_, mk) in enumerate(pairs) if mk == "full"]
    joint = [(i, c) for i, (b, mk) in enumerate(pairs)
             if mk != "full" for c in range(b.r) if c in mk[1]]
    blocks = [algebra.blocks[i] for i in full]
    if len(full) < len(pairs):
        blocks.append(Komori(1, len(joint)) if joint else Chain(1))
    rows = []
    for i, (b, mk) in enumerate(pairs):
        if mk == "full":
            rows.append((full.index(i), 1, _plain(b)))
        else:
            rows.append((len(full), b.m, tuple(
                (joint.index((i, c)), 1) if (i, c) in joint else None
                for c in range(len(_plain(b))))))
    sub = SymbolicAlgebra(blocks)
    return SubalgebraResult(sub, Morphism(sub, algebra, CoordMap(tuple(rows)), label),
                            ideal)


def _point_decoder(through: Morphism):
    """y -> an x with through(x) == y, or None off the image."""
    if isinstance(through.body, CoordMap):
        return lambda y: through.body.solve(through.dom, y)
    inverse = {}
    for x, v in zip(elements(through.dom), through.body.table):
        inverse.setdefault(v, x)
    return inverse.get


def subalgebra_decode(incl: Morphism, a):
    """Inverse of an injective map (such as a subalgebra inclusion) on its
    image, None off it."""
    return _point_decoder(incl)(a)


def corestrict(e: Morphism, through: Morphism, label: str = "") -> Morphism:
    """phi with through o phi = e, for injective ``through`` whose image
    contains im(e)."""
    if e.cod != through.cod:
        raise ValueError("corestriction needs matching codomains")
    if isinstance(e.body, CoordMap) and isinstance(through.body, CoordMap):
        body = _corestrict_coords(e.body, through.body, through.dom)
    else:
        decode = _point_decoder(through)
        body = _tabulate(e.dom, lambda x: decode(e(x)))
        if None in body.table:
            raise ValueError("image of e escapes the subobject")
    return Morphism(e.dom, through.dom, body, label)


def _corestrict_coords(e: CoordMap, through: CoordMap, sub: SymbolicAlgebra) -> CoordMap:
    """phi with phi.then(through) == e: each block and coordinate of the
    subobject is read off the first row of ``through`` that sees it."""
    heads = {}
    placed = {}
    for (s, k, tcoords), (src, scale, ecoords) in zip(through.rows, e.rows):
        if s not in heads:
            if scale % k:
                raise ValueError("image of e escapes the subobject")
            heads[s] = (src, scale // k)
        for tc, ec in zip(tcoords, ecoords):
            if tc is None or (s, tc[0]) in placed:
                continue
            if ec is not None and ec[1] % tc[1]:
                raise ValueError("image of e escapes the subobject")
            placed[(s, tc[0])] = None if ec is None else (ec[0], ec[1] // tc[1])
    if len(heads) != len(sub.blocks):
        raise ValueError("corestriction needs an injective map")
    phi = CoordMap(tuple(
        heads[s] + (tuple(placed.get((s, c)) for c in range(len(_plain(b)))),)
        for s, b in enumerate(sub.blocks)))
    if phi.then(through) != e:
        raise ValueError("image of e escapes the subobject")
    return phi


# ---------------------------------------------------------------------------
# hom enumeration


def enumerate_homs(dom: Algebra, cod: Algebra) -> list[Morphism]:
    """All morphisms between finite-carrier algebras, deterministically
    ordered."""
    if carrier_size(dom) is None or carrier_size(cod) is None:
        raise ValueError("hom enumeration needs finite carriers")
    tables = hom_tables(to_finite(dom), to_finite(cod))
    if isinstance(cod, SymbolicAlgebra):
        ce = elements(cod)
        tables = [tuple(ce[v] for v in t) for t in tables]
    return [Morphism(dom, cod, FiniteMapBody(t)) for t in tables]


def find_isomorphism(dom: Algebra, cod: Algebra) -> Morphism | None:
    if carrier_size(dom) is None or carrier_size(cod) is None:
        raise ValueError("isomorphism search needs finite carriers")
    found = hom_tables(to_finite(dom), to_finite(cod), bijective=True, limit=1)
    if not found:
        return None
    ce = elements(cod)
    return Morphism(dom, cod, FiniteMapBody(tuple(ce[v] for v in found[0])),
                    "isomorphism")


# ---------------------------------------------------------------------------
# pullbacks


@dataclass(frozen=True)
class PullbackResult:
    algebra: FiniteAlgebra
    pairs: tuple
    left: Morphism
    right: Morphism


def pullback(f: Morphism, g: Morphism) -> PullbackResult:
    """Literal pullback of f: A -> D against g: C -> D over finite
    carriers, with its two projections."""
    if f.cod != g.cod:
        raise ValueError("pullback needs a shared codomain")
    if carrier_size(f.dom) is None or carrier_size(g.dom) is None:
        raise ValueError("literal pullback needs finite carriers")
    ea, ec = elements(f.dom), elements(g.dom)
    pairs = [(a, c) for a in ea for c in ec if f(a) == g(c)]
    pb = table_on(pairs,
                  lambda p, q: (f.dom.plus(p[0], q[0]), g.dom.plus(p[1], q[1])),
                  lambda p: (f.dom.neg(p[0]), g.dom.neg(p[1])),
                  (f.dom.zero, g.dom.zero))
    def leg(side, cod):
        return Morphism(pb, cod, FiniteMapBody(tuple(p[side] for p in pairs)))
    return PullbackResult(pb, tuple(pairs), leg(0, f.dom), leg(1, g.dom))


def mediator_to_pullback(pb: PullbackResult, u: Morphism, v: Morphism) -> Morphism:
    """x -> (u(x), v(x)) as a map into the pullback carrier."""
    if u.dom != v.dom:
        raise ValueError("mediator needs a shared domain")
    if carrier_size(u.dom) is None:
        raise ValueError("mediator needs a finite carrier")
    index = {p: i for i, p in enumerate(pb.pairs)}
    values = []
    for x in elements(u.dom):
        key = (u(x), v(x))
        if key not in index:
            raise ValueError("square does not commute into the pullback")
        values.append(index[key])
    return Morphism(u.dom, pb.algebra, FiniteMapBody(tuple(values)))


def kernel_pair(e: Morphism):
    """Kernel pair of e: the pullback of e against itself, with both
    projections.  Maps between block products get a symbolic
    presentation built from the kernel; other maps fall back to the
    literal pullback.

    For a Komori block with marked coordinates S the pair algebra keeps one
    copy of the full vector plus a primed copy of the S entries; the first
    projection drops the primed tail, the second reads the primed entries
    in place of the unprimed S entries.
    """
    if not isinstance(e.body, CoordMap):
        pb = pullback(e, e)
        return pb.algebra, pb.left, pb.right
    A = e.dom
    blocks, first, second = [], [], []
    for b, mk in zip(A.blocks, e.kernel().markers):
        pos = len(blocks)
        if mk == "full":
            blocks.extend([b, b])
            first.append((pos, 1, _plain(b)))
            second.append((pos + 1, 1, _plain(b)))
        elif isinstance(b, Chain):
            blocks.append(b)
            first.append((pos, 1, ()))
            second.append((pos, 1, ()))
        else:
            s = sorted(mk[1])
            blocks.append(Komori(b.m, b.r + len(s)))
            first.append((pos, 1, _plain(b)))
            second.append((pos, 1, tuple((b.r + s.index(c) if c in mk[1] else c, 1)
                                         for c in range(b.r))))
    kp = SymbolicAlgebra(blocks)
    return (kp, Morphism(kp, A, CoordMap(tuple(first))),
            Morphism(kp, A, CoordMap(tuple(second))))


def product_with_projections(algebras):
    """Product together with its projections."""
    algebras = list(algebras)
    if all(isinstance(a, SymbolicAlgebra) for a in algebras):
        blocks = []
        offsets = []
        for a in algebras:
            offsets.append(len(blocks))
            blocks.extend(a.blocks)
        prod = SymbolicAlgebra(blocks)
        projs = [Morphism(prod, a, _copies(prod, range(off, off + len(a.blocks))))
                 for a, off in zip(algebras, offsets)]
        return prod, projs
    from .core import product as _product
    prod = _product(algebras)
    elems = list(itertools.product(*(elements(a) for a in algebras)))
    projs = [Morphism(prod, a, FiniteMapBody(tuple(e[k] for e in elems)))
             for k, a in enumerate(algebras)]
    return prod, projs
