"""Morphisms with computable kernels, preimages and surjectivity.

A morphism pairs a domain, a codomain and a body, and every operation on
it runs one formula, a method of its :class:`CoordMap`.  A CoordMap runs
between block products: it stores, per codomain block, the domain block
it reads, the integer height scale, and where each infinitesimal
coordinate comes from.  Rows index chain views (``core._view``): a block
product is its own, and a ``_tabled`` algebra (a table, or a block
product that overrides its operations) is the product of the chains
Chain(m_i) that ``decompose`` certifies, whose element x has the levels
``coords[x]``.  A map with a ``_tabled`` side has a :class:`FiniteMapBody`,
which keeps the value table for evaluation beside that CoordMap.

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
through quotients are closed formulas on this data, and so is the
pullback of any CoordMap along an onto one: a block product.

A value table lists the value of ``elements(dom)[i]`` at position i.  It
is decoded once, where it enters the library: block j reads the domain
chain whose top goes to the top of block j, and the rows are checked
against every value.  A table that does not decode is not a
homomorphism; it stays a rowless FiniteMapBody, which evaluates, and which
``is_morphism`` and ``same_morphism`` read, while every other operation
refuses it with a ValueError.  A result with a table side reads its value
table off its rows, and table ideals cross to the chain view as the set
of chains they reach.  Quotients, ideal subalgebras and pullbacks are
built here, on the chain view.  As tables, ``core._chain_table`` lays out
a quotient from the codes of its classes, and an ideal subalgebra or a
literal pullback from its block construction, ordered by its images.  A
check that asks only whether the comparison into a pullback is injective
or onto reads it off the block pullback (:func:`_comparison`) and builds
no table.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field

from .core import (
    Algebra,
    FiniteAlgebra,
    SymbolicAlgebra,
    _chain_table,
    _levels,
    _view,
    _weights,
    block,
    carrier_size,
    decompose,
    element,
    elements,
    initial_algebra,
    parts,
    resolve_mode,
    run_checks,
    sample_tuples,
    terminal_algebra,
    to_finite,
)
from .ideals import (
    Ideal,
    MarkerIdeal,
    _from_view,
    _require_element,
    _view_markers,
    marker_coords,
    sub_marker,
    validate_ideal,
    zero_ideal,
)

__all__ = [
    "Morphism",
    "CoordMap",
    "FiniteMapBody",
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


@dataclass(frozen=True, slots=True)
class FiniteMapBody:
    """Value table of a map with a table side: entry i is the value at
    ``elements(dom)[i]`` (at i itself for a table algebra).  ``coords`` is
    the CoordMap between the chain views that has these values, or None
    when they are not a homomorphism (a rowless table).  Two bodies are
    equal when their values are."""

    table: tuple
    coords: CoordMap | None = field(default=None, compare=False, repr=False)


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

    @classmethod
    def _normal(cls, rows: tuple) -> "CoordMap":
        """A CoordMap on rows already in normal form: no copy."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __call__(self, x):
        out = []
        for src, scale, coords in self.rows:
            a, b = parts(x[src])
            out.append((a * scale, tuple(0 if c is None else b[c[0]] * c[1]
                                         for c in coords))
                       if coords else a * scale)
        return tuple(out)

    def then(self, other: "CoordMap") -> "CoordMap":
        """Substitution: self followed by other."""
        rows = []
        for src, scale, coords in other.rows:
            s0, k0, c0 = self.rows[src]
            rows.append((s0, k0 * scale, tuple(
                None if c is None or c0[c[0]] is None
                else (c0[c[0]][0], c0[c[0]][1] * c[1]) for c in coords) if coords else ()))
        return CoordMap._normal(tuple(rows))

    def factor(self, f: "CoordMap") -> "CoordMap":
        """g with self.then(g) == f: each row of f is re-read from the
        first row of self that carries the same source block and from
        which it can be read, each coordinate from the first coordinate of
        that row that reads the same source coordinate with a multiplier
        dividing f's.  The rows of f are independent, and an onto self
        carries each block once.  Nothing is composed back: each
        placement divides f's multiplier by self's and the scale divides
        f's scale by self's, exactly, so self.then(g) rebuilds f term by
        term.  A row of f that no row of self can carry raises the
        failure of the first row that carries its block."""
        carriers = {}
        for j, (src, _, _) in enumerate(self.rows):
            carriers.setdefault(src, []).append(j)
        rows = []
        for src, scale, coords in f.rows:
            if src not in carriers:
                raise ValueError("f reads a block the quotient kills")
            failures = []
            for j in carriers[src]:
                try:
                    rows.append((j, *self._reread(j, scale, coords)))
                    break
                except ValueError as exc:
                    failures.append(exc)
            else:
                raise failures[0]
        return CoordMap._normal(tuple(rows))

    def _reread(self, j: int, scale: int, coords: tuple) -> tuple:
        """(scale, placed): a row of f with ``scale`` and ``coords`` read
        off row j of self, or a ValueError."""
        _, qscale, qcoords = self.rows[j]
        placed = []
        for c in coords:
            if c is None:
                placed.append(None)
                continue
            p = next((p for p, q in enumerate(qcoords)
                      if q is not None and q[0] == c[0] and c[1] % q[1] == 0), None)
            if p is None:
                raise ValueError("f reads a coordinate the quotient kills")
            placed.append((p, c[1] // qcoords[p][1]))
        if scale % qscale:
            raise ValueError("f does not factor through the quotient")
        return scale // qscale, tuple(placed)

    def corestrict(self, through: "CoordMap", E: SymbolicAlgebra,
                   sub: SymbolicAlgebra) -> "CoordMap":
        """phi: E -> sub with phi.then(through) == self: each block and
        coordinate of the subobject is read off the first row of
        ``through`` that sees it.  What ``through`` does not see is free:
        an unseen coordinate is 0, and an unseen block reads the first
        block of E whose height divides its own, for every map into it
        reads such a block."""
        heads = {}
        placed = {}
        for (s, k, tcoords), (src, scale, ecoords) in zip(through.rows, self.rows):
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
        for s, b in enumerate(sub.blocks):
            if s not in heads:
                src = next((i for i, a in enumerate(E.blocks) if b.m % a.m == 0), None)
                if src is None:
                    raise ValueError(f"no map into {b!r}, which the corestriction does not see")
                heads[s] = (src, b.m // E.blocks[src].m)
        phi = CoordMap._normal(tuple(
            heads[s] + (tuple(placed.get((s, c)) for c in range(b.r)),)
            for s, b in enumerate(sub.blocks)))
        if phi.then(through) != self:
            raise ValueError("image of e escapes the subobject")
        return phi

    def preimage(self, dom: SymbolicAlgebra, markers) -> MarkerIdeal:
        """Markers of the preimage of a (validated) codomain ideal."""
        out = ["full"] * len(dom.blocks)
        for (src, _, coords), mk in zip(self.rows, markers):
            if mk == "full":
                continue
            r = dom.blocks[src].r
            if not r:
                out[src] = sub_marker(0)
                continue
            allowed = frozenset(range(r)) if out[src] == "full" \
                else marker_coords(out[src])
            kept = marker_coords(mk)
            out[src] = sub_marker(r, allowed - {c[0] for t, c in enumerate(coords)
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
            else:
                support = marker_coords(mk)
                out.append(sub_marker(len(coords), (
                    t for t, c in enumerate(coords)
                    if c is not None and c[0] in support)))
        return MarkerIdeal(tuple(out))

    def is_onto(self) -> bool:
        """Distinct source blocks, unit scales, and every codomain
        coordinate a distinct source coordinate with multiplier 1."""
        srcs = [src for src, _, _ in self.rows]
        return len(set(srcs)) == len(srcs) and all(
            scale == 1 and _is_plain(coords) for _, scale, coords in self.rows)

    def is_injective(self, dom: SymbolicAlgebra) -> bool:
        """Whether the preimage of the codomain's zero ideal is zero."""
        return self.preimage(dom, [sub_marker(len(coords)) for _, _, coords in self.rows]) \
            == zero_ideal(dom)

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
            a, b = parts(v)
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
        x = tuple(element(heights.get(i, 0), vecs[i])
                  for i in range(len(dom.blocks)))
        return x if dom.contains(x) and self(x) == y else None


def _is_plain(coords) -> bool:
    hit = [c[0] for c in coords if c is not None and c[1] == 1]
    return len(hit) == len(coords) == len(set(hit))


def _plain(b) -> tuple:
    return tuple((c, 1) for c in range(b.r))


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


# ---------------------------------------------------------------------------
# the chain view of a table, and the decode boundary


def _has_table(dom: Algebra, cod: Algebra) -> bool:
    """Whether a map between these algebras carries a value table."""
    return dom._tabled or cod._tabled


def _coord_map(body, refusal: str = "the value table is not a homomorphism") -> CoordMap:
    """The CoordMap a body's operations run on: the body itself, or a
    value table's decoded rows.  A rowless table is refused."""
    if isinstance(body, CoordMap):
        return body
    if body.coords is None:
        raise ValueError(refusal)
    return body.coords


def _lower(dom: Algebra, cod: Algebra, body):
    """A body where it enters the library: a value table is decoded once
    (between two block products it becomes its CoordMap), and a CoordMap
    is checked against the blocks."""
    if isinstance(body, FiniteMapBody):
        coords = _decode(dom, cod, body.table)
        if _has_table(dom, cod):
            return FiniteMapBody(body.table, coords)
        if coords is None:
            raise ValueError("values do not form a homomorphism of block products")
        return coords
    if isinstance(body, CoordMap):
        if _has_table(dom, cod):
            raise TypeError("coordinate maps run between block products")
        _check_coords(dom, cod, body)
        return body
    raise TypeError(f"unknown body {body!r}")


def _decode(dom: Algebra, cod: Algebra, values) -> CoordMap | None:
    """The CoordMap between the chain views whose value at
    ``elements(dom)[i]`` is values[i]; None when the values are not a
    homomorphism.  Block j of the codomain view reads the one domain chain
    whose top goes to the top of block j, scaled up to its height, and the
    rows are checked against every value: O(n k) for n elements and k
    chains."""
    values = tuple(values)
    da, view = decompose(dom), _view(cod)
    if len(values) != len(da.codes):
        raise ValueError("value table does not cover the domain")
    if not all(map(cod.contains, values)):
        return None
    tops = list(map(_levels(cod), (values[da.at[m * w]]
                                   for m, w in zip(da.heights, da.weights))))
    rows = []
    for j, (b, one) in enumerate(zip(view.blocks, view.one)):
        srcs = [i for i, top in enumerate(tops) if top[j] == one]
        if len(srcs) != 1 or b.m % da.heights[srcs[0]]:
            return None
        rows.append((srcs[0], b.m // da.heights[srcs[0]], (None,) * b.r))
    coords = CoordMap._normal(tuple(rows))
    return coords if _table_of(dom, cod, coords) == values else None


def _renumbered(coords: CoordMap, order) -> CoordMap:
    """``coords`` out of a table whose chains ``core._chain_table`` put
    in this order."""
    if order == list(range(len(order))):
        return coords
    new = {p: t for t, p in enumerate(order)}
    return CoordMap._normal(tuple((new[src], scale, c) for src, scale, c in coords.rows))


def _table_of(dom: Algebra, cod: Algebra, coords: CoordMap) -> tuple:
    """The value table of the map with this CoordMap out of a finite
    domain; into a ``_tabled`` codomain, read off its ``_values``."""
    da = decompose(dom)
    if not cod._tabled:
        return tuple(map(coords, da.coords))
    values = _values(da, decompose(cod), coords.rows)
    return values if isinstance(cod, FiniteAlgebra) else tuple(
        map(elements(cod).__getitem__, values))


def _body(dom: Algebra, cod: Algebra, coords: CoordMap):
    """The body of a result: its CoordMap between block products; with a
    table side, the value table read off it, which needs a finite
    domain."""
    if not _has_table(dom, cod):
        return coords
    if carrier_size(dom) is None:
        raise ValueError("a map out of an infinite block product into a "
                         "table algebra has no representation")
    return FiniteMapBody(_table_of(dom, cod, coords), coords)


# ---------------------------------------------------------------------------
# morphism


_INITIAL = initial_algebra()
_TERMINAL = terminal_algebra()
# their table forms, decomposed once, for maps out of and into tables
_INITIAL_TABLE = to_finite(_INITIAL)
_TERMINAL_TABLE = to_finite(_TERMINAL)
decompose(_INITIAL_TABLE)
decompose(_TERMINAL_TABLE)


class Morphism:
    __slots__ = ("dom", "cod", "body", "label", "_eval")

    def __init__(self, dom: Algebra, cod: Algebra, body, label: str = ""):
        self._fill(dom, cod, _lower(dom, cod, body), label)

    @classmethod
    def _of_coords(cls, dom, cod, body, label: str = "") -> "Morphism":
        """A morphism on a body valid by construction, such as ``_body``
        builds from a CoordMap method's result: no checks."""
        m = object.__new__(cls)
        m._fill(dom, cod, body, label)
        return m

    def _fill(self, dom, cod, body, label) -> None:
        for name, value in zip(self.__slots__,
                               (dom, cod, body, label, _evaluator(dom, body))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"Morphism({type(self.body).__name__}{tag})"

    def __call__(self, x):
        _require_element(self.dom, x)
        return self._eval(x)

    def kernel(self) -> Ideal:
        """Preimage of the zero ideal of the codomain's chain view."""
        return _from_view(self.dom, _coord_map(self.body).preimage(
            _view(self.dom), zero_ideal(_view(self.cod)).markers))

    def preimage_ideal(self, ideal: Ideal) -> Ideal:
        return _preimage(self.dom, self.cod, self.body, validate_ideal(self.cod, ideal))

    def is_surjective(self) -> bool:
        return _coord_map(self.body).is_onto()

    def is_injective(self) -> bool:
        return _coord_map(self.body).is_injective(_view(self.dom))


def _evaluator(dom: Algebra, body):
    """x -> the value at x of the map out of ``dom`` with this body."""
    if isinstance(body, CoordMap):
        return body
    if isinstance(dom, FiniteAlgebra):
        return body.table.__getitem__
    return dict(zip(elements(dom), body.table)).__getitem__


def _preimage(dom: Algebra, cod: Algebra, body, ideal: Ideal) -> Ideal:
    """Preimage of a validated codomain ideal."""
    return _from_view(dom, _coord_map(body).preimage(
        _view(dom), _view_markers(cod, ideal)))


def identity(algebra: Algebra) -> Morphism:
    view = _view(algebra)
    return Morphism._of_coords(algebra, algebra, _body(
        algebra, algebra, _copies(view, range(len(view.blocks)))), "identity")


def to_terminal(algebra: Algebra) -> Morphism:
    cod = _TERMINAL_TABLE if algebra._tabled else _TERMINAL
    return Morphism._of_coords(algebra, cod, _body(algebra, cod, CoordMap(())),
                               "to_terminal")


def from_initial(algebra: Algebra) -> Morphism:
    dom = _INITIAL_TABLE if algebra._tabled else _INITIAL
    coords = CoordMap._normal(tuple((0, b.m, (None,) * b.r)
                                    for b in _view(algebra).blocks))
    return Morphism._of_coords(dom, algebra, _body(dom, algebra, coords),
                               "from_initial")


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f then g: their CoordMaps compose by substitution, on any bodies.
    A composite out of an infinite block product into a table algebra has
    no value table (ValueError)."""
    if f.cod != g.dom:
        raise ValueError("composite needs f.cod == g.dom")
    return Morphism._of_coords(f.dom, g.cod, _body(
        f.dom, g.cod, _coord_map(f.body).then(_coord_map(g.body))))


# ---------------------------------------------------------------------------
# pointwise checks


def is_morphism(m: Morphism, mode: str = "auto", count: int = 400,
                seed: int = 0):
    """Verify preservation of zero, addition and negation pointwise, and
    that values land in the codomain.  Returns a CheckReport."""
    A, B, h = m.dom, m.cod, m._eval
    mode = resolve_mode(A, mode)
    checks = [
        ("preserves_zero", 0, lambda: h(A.zero) == B.zero),
        ("lands_in_codomain", 1, lambda x: B.contains(h(x))),
        ("preserves_plus", 2,
         lambda x, y: h(A.plus(x, y)) == B.plus(h(x), h(y))),
        ("preserves_neg", 1, lambda x: h(A.neg(x)) == B.neg(h(x))),
    ]
    if mode == "exhaustive":
        def tuples(name, arity):
            return itertools.product(elements(A), repeat=arity)
    else:
        def tuples(name, arity):
            return sample_tuples(A, arity, count,
                                 random.Random(f"{seed}:{name}"))
    return run_checks(checks, tuples, "morphism", mode)


def same_morphism(f: Morphism, g: Morphism) -> bool:
    """Equality of maps, decided exactly: bodies are normal forms, so two
    maps with the same domain and codomain agree everywhere exactly when
    their bodies are equal."""
    return f.dom == g.dom and f.cod == g.cod and f.body == g.body


def image_set(m: Morphism) -> set:
    return set(map(m._eval, elements(m.dom)))


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class QuotientResult:
    algebra: Algebra
    projection: Morphism
    ideal: Ideal


def quotient(algebra: Algebra, ideal: Ideal, label: str = "quotient") -> QuotientResult:
    return _quotient(algebra, validate_ideal(algebra, ideal), label)


def _quotient(algebra: Algebra, ideal: Ideal, label: str) -> QuotientResult:
    """A/I and its projection, by :func:`_quotient_parts` on the chain view.
    On a table, a class is the elements with equal levels on the chains the
    rows keep, numbered by first element and coded by those levels, and
    ``core._chain_table`` lays out A/I on those chains; A/0 is A itself."""
    if not isinstance(algebra, FiniteAlgebra):
        q, coords = _quotient_parts(_view(algebra), ideal.markers)
        body = _body(algebra, q, coords)
    elif len(ideal.elements) == 1:
        q, body = algebra, FiniteMapBody(tuple(range(algebra.size)), CoordMap._normal(
            tuple([(i, 1, ()) for i in range(len(decompose(algebra).heights))])))
    else:
        chains, coords = _quotient_parts(_view(algebra), _view_markers(algebra, ideal))
        heights = tuple([b.m for b in chains.blocks])
        keys = list(_codes(decompose(algebra), _weights(heights), coords.rows))
        classes = {key: c for c, key in enumerate(dict.fromkeys(keys))}
        q, order = _chain_table(heights, list(classes))
        body = FiniteMapBody(tuple(map(classes.__getitem__, keys)),
                             CoordMap._normal(tuple(map(coords.rows.__getitem__, order))))
    return QuotientResult(q, Morphism._of_coords(algebra, q, body, label), ideal)


def _quotient_parts(algebra: SymbolicAlgebra, markers):
    """A/I and its projection's rows, for the canonical markers of I: a
    full marker drops its block, and any other keeps the block's height
    and its unmarked coordinates (a chain when none is left)."""
    blocks, rows = [], []
    for i, (b, mk) in enumerate(zip(algebra.blocks, markers)):
        if mk != "full":
            killed = marker_coords(mk)
            kept = tuple([(c, 1) for c in range(b.r) if c not in killed])
            blocks.append(block(b.m, len(kept)) if killed else b)
            rows.append((i, 1, kept))
    return SymbolicAlgebra._of_blocks(blocks), CoordMap._normal(tuple(rows))


def factor_through_quotient(q: Morphism, f: Morphism, label: str = "") -> Morphism:
    """The unique g with g o q = f; needs ker q within ker f and q onto.

    No kernel is compared: ``CoordMap.factor`` decides.  The CoordMap of
    g is read off those of q and f, row by row, and refused where f reads
    what q kills or a height or multiplier that q's does not divide;
    otherwise q then g is f.  A rowless table is not constant on the
    classes of q, as a homomorphism with ker q within ker f would be."""
    if q.dom != f.dom:
        raise ValueError("factorization needs a shared domain")
    refusal = "kernel of the quotient must sit inside ker f"
    g = _coord_map(q.body, refusal).factor(_coord_map(f.body, refusal))
    return Morphism._of_coords(q.cod, f.cod, _body(q.cod, f.cod, g), label)


def image_ideal(q: Morphism, ideal: Ideal) -> Ideal:
    """Forward image of an ideal along a surjective map."""
    return _image_ideal(q, validate_ideal(q.dom, ideal))


def _image_ideal(q: Morphism, ideal: Ideal) -> Ideal:
    return _from_view(q.cod, _coord_map(q.body).image(_view_markers(q.dom, ideal)))


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
    return _ideal_subalgebra(algebra, validate_ideal(algebra, ideal), label)


def _ideal_subalgebra(algebra: Algebra, ideal: Ideal, label: str) -> SubalgebraResult:
    """The block formula on the chain view, tabled on a table by the
    images of its elements (:func:`_image_table`): the members in order."""
    view, incl = _subalgebra_parts(_view(algebra), _view_markers(algebra, ideal))
    if not isinstance(algebra, FiniteAlgebra):
        sub, body = view, _body(view, algebra, incl)
    else:
        sub, (body,) = _image_table(view, (algebra,), (incl,))
    return SubalgebraResult(sub, Morphism._of_coords(sub, algebra, body, label), ideal)


def _subalgebra_parts(algebra: SymbolicAlgebra, markers):
    """The subalgebra on I u neg(I) and the rows of its inclusion, for the
    canonical markers of I: the full blocks, then the joint block."""
    full = markers.count("full")
    blocks, rows, joint = [], [], 0
    for b, mk in zip(algebra.blocks, markers):
        if mk == "full":
            rows.append((len(blocks), 1, _plain(b)))
            blocks.append(b)
        else:
            place = {c: joint + k for k, c in enumerate(sorted(marker_coords(mk)))}
            rows.append((full, b.m, tuple((place[c], 1) if c in place else None
                                          for c in range(b.r))))
            joint += len(place)
    if full < len(markers):
        blocks.append(block(1, joint))
    return SymbolicAlgebra._of_blocks(blocks), CoordMap._normal(tuple(rows))


def subalgebra_decode(incl: Morphism, a):
    """Inverse of an injective map (such as a subalgebra inclusion) on its
    image, None off it."""
    if not incl.cod.contains(a):
        return None
    x = _coord_map(incl.body).solve(_view(incl.dom), _levels(incl.cod)(a))
    if x is None or not incl.dom._tabled:
        return x
    dec = decompose(incl.dom)
    x = dec.at[sum(map(operator.mul, x, dec.weights))]
    return x if isinstance(incl.dom, FiniteAlgebra) else elements(incl.dom)[x]


def corestrict(e: Morphism, through: Morphism, label: str = "") -> Morphism:
    """phi with through o phi = e, for injective ``through`` whose image
    contains im(e)."""
    if e.cod != through.cod:
        raise ValueError("corestriction needs matching codomains")
    phi = _coord_map(e.body).corestrict(_coord_map(through.body), _view(e.dom),
                                        _view(through.dom))
    return Morphism._of_coords(e.dom, through.dom, _body(e.dom, through.dom, phi), label)


# ---------------------------------------------------------------------------
# hom enumeration

# the tests list at most 256 homs; Chain(1)^9 on both sides would list 9**9
_HOMS_CAP = 2 ** 16


def enumerate_homs(dom: Algebra, cod: Algebra) -> list[Morphism]:
    """All morphisms between finite-carrier algebras, in lexicographic
    order of their value tables.  More than ``_HOMS_CAP`` of them, the
    product of the choices per codomain chain, is a ValueError raised
    before any is built.

    Both sides are read as products of chains (``decompose``, which
    refuses a table that is not an MV-algebra).  A map into Chain(n) reads
    one chain Chain(m) of the domain with m dividing n, scaling its level
    by n / m, and each codomain chain picks its own: every choice is a
    morphism, and these are all.  A map with a table side keeps the value
    table it was sorted by."""
    da, db = decompose(dom), decompose(cod)
    per_block = [[(i, n // m, ()) for i, m in enumerate(da.heights) if n % m == 0]
                 for n in db.heights]
    if math.prod(map(len, per_block)) > _HOMS_CAP:
        raise ValueError(f"more than {_HOMS_CAP} homs to list")
    found = sorted((_values(da, db, rows), rows) for rows in itertools.product(*per_block))
    if not _has_table(dom, cod):
        return [Morphism._of_coords(dom, cod, CoordMap._normal(rows)) for _, rows in found]
    ce = elements(cod)
    return [Morphism._of_coords(dom, cod, FiniteMapBody(
        tuple(map(ce.__getitem__, values)), CoordMap._normal(rows)))
        for values, rows in found]


def _values(da, db, rows) -> tuple:
    """The value table, as codomain positions, of the chain-product map
    with these CoordMap rows: its codes read back through ``at``."""
    return tuple(map(db.at.__getitem__, _codes(da, db.weights, rows)))


def _codes(da, weights, rows):
    """The codes over ``weights`` of the values of the chain-product map
    with these CoordMap rows, in domain order.  A value's code is linear
    in the domain levels, level i weighing the weights of the blocks that
    read chain i, so the codes are listed one chain at a time from the
    last, in domain-code order, and read through ``codes``."""
    weight = [0] * len(da.heights)
    for (src, scale, _), w in zip(rows, weights):
        weight[src] += scale * w
    out = [0]
    for m, k in zip(reversed(da.heights), reversed(weight)):
        out = [v + s for s in range(0, (m + 1) * k, k) for v in out] if k else out * (m + 1)
    return map(out.__getitem__, da.codes)


def find_isomorphism(dom: Algebra, cod: Algebra) -> Morphism | None:
    """The isomorphism whose value table comes first in lexicographic
    order, or None when there is none.

    An isomorphism of products of chains sends each codomain chain to a
    domain chain of the same height, one to one.  The isomorphisms that
    agree with the first values so far are those sending each group of
    codomain chains onto a matching group of domain chains, in any order.
    Element by element, the first value over every such arrangement is
    kept and the groups split by level, so at most one value per element
    of the codomain is tried, never every permutation."""
    da, db = decompose(dom), decompose(cod)
    if sorted(da.heights) != sorted(db.heights):
        return None
    groups = [([j for j, n in enumerate(db.heights) if n == h],
               [i for i, m in enumerate(da.heights) if m == h])
              for h in sorted(set(db.heights))]

    def value(choice):
        levels = [0] * len(db.heights)
        for (targets, _), order in zip(groups, choice):
            for j, v in zip(targets, order):
                levels[j] = v
        return db.at[sum(map(operator.mul, levels, db.weights))]

    for x in range(len(da.codes)):
        if all(len(targets) == 1 for targets, _ in groups):
            break
        c = da.coords[x]  # levels are read only while a group can still split
        best = min(itertools.product(*(
            list(_arrangements(sorted(c[i] for i in sources)))
            for _, sources in groups)), key=value)
        groups = [([j for j, v in zip(targets, order) if v == level],
                   [i for i in sources if c[i] == level])
                  for (targets, sources), order in zip(groups, best)
                  for level in sorted(set(order))]
    rows = [None] * len(db.heights)
    for targets, sources in groups:
        rows[targets[0]] = (sources[0], 1, ())
    coords = CoordMap._normal(tuple(rows))
    return Morphism._of_coords(dom, cod, _body(dom, cod, coords), "isomorphism")


def _arrangements(values: list):
    """Each distinct ordering of the sorted multiset ``values`` once, in
    lexicographic order."""
    if not values:
        yield ()
        return
    for k, v in enumerate(values):
        if k == 0 or v != values[k - 1]:
            for tail in _arrangements(values[:k] + values[k + 1:]):
                yield (v,) + tail


# ---------------------------------------------------------------------------
# pullbacks


@dataclass(frozen=True)
class PullbackResult:
    """A pullback with its projections ``left`` and ``right`` onto the
    domains of the two maps.  ``pairs`` lists the carrier of a literal
    pullback and is None for a block product."""

    algebra: Algebra
    pairs: tuple | None
    left: Morphism
    right: Morphism


def pullback(f: Morphism, g: Morphism) -> PullbackResult:
    """Pullback of f: A -> D against g: C -> D, with its two projections.

    One of f and g must be onto (NotImplementedError otherwise), and the
    pullback of their CoordMaps is then a block product, on any carrier.
    When a side of f or g is a table algebra, the pullback is the literal
    set of pairs instead: the pairs (a, c) with f(a) = g(c), a-major,
    which ``elements`` lists, so an infinite domain is refused there with
    a ValueError.  Its chains are those of the block product: A's chains
    and the chains of C that an onto g drops, or C's chains and the chains
    of A that an onto f drops, and ``core._chain_table`` lays out its
    table."""
    if f.cod != g.cod:
        raise ValueError("pullback needs a shared codomain")
    P, left, right = _pullback_parts(_view(f.dom), _view(g.dom),
                                     _coord_map(f.body), _coord_map(g.body))
    if _has_table(f.dom, f.cod) or _has_table(g.dom, g.cod):
        return _literal_pullback(f.dom, g.dom, P, left, right)
    return PullbackResult(P, None, Morphism._of_coords(P, f.dom, left),
                          Morphism._of_coords(P, g.dom, right))


def _pullback_parts(A: SymbolicAlgebra, C: SymbolicAlgebra, f: CoordMap, g: CoordMap):
    """The block pullback of f out of A against g out of C, with the
    CoordMaps of its projections onto A and C; one of f and g must be
    onto (NotImplementedError otherwise)."""
    if g.is_onto():
        return _block_pullback(A, C, f, g)
    if f.is_onto():
        P, right, left = _block_pullback(C, A, g, f)
        return P, left, right
    raise NotImplementedError("a pullback needs two maps, one of them onto")


def _literal_pullback(A: Algebra, C: Algebra, P: SymbolicAlgebra,
                      left: CoordMap, right: CoordMap) -> PullbackResult:
    """The table of the pairs: the block pullback P with projections
    ``left`` and ``right``, tabled by its images (:func:`_image_table`)."""
    pb, bodies = _image_table(P, (A, C), (left, right))
    return PullbackResult(pb, tuple(zip(*(body.table for body in bodies))), *(
        Morphism._of_coords(pb, end, body) for end, body in zip((A, C), bodies)))


def _image_table(P: SymbolicAlgebra, ends, legs) -> tuple:
    """The table of the block product of chains P that the CoordMaps
    ``legs`` into the chain views of ``ends`` embed jointly, and the legs'
    bodies: P's elements in the order of their images' positions
    (:func:`_values`, first leg major), laid out by ``core._chain_table``.
    The ends are decomposed first, so an infinite one is refused by name."""
    dbs = [decompose(end) for end in ends]
    dp = decompose(P)
    images = [_values(dp, db, leg.rows) for db, leg in zip(dbs, legs)]
    keys = images[0]
    for db, image in zip(dbs[1:], images[1:]):
        n = len(db.codes)
        keys = [k * n + v for k, v in zip(keys, image)]
    codes = sorted(range(len(keys)), key=keys.__getitem__)
    table, order = _chain_table(dp.heights, codes)
    return table, [FiniteMapBody(tuple(map(elements(end).__getitem__, map(
        image.__getitem__, codes))), _renumbered(leg, order))
        for end, image, leg in zip(ends, images, legs)]


def _block_pullback(A: SymbolicAlgebra, B: SymbolicAlgebra, f: CoordMap, e: CoordMap):
    """Pullback of a CoordMap f out of A against an onto CoordMap e out of
    B, with the CoordMaps of its projections onto A and B.

    Block j of the pullback is block j of A followed, for each D-block d
    that f reads from block j, by the coordinates of e's source block for
    d that e does not read; the B-blocks e drops come last.  The left
    projection reads A plainly.  The right one reads each B-block through
    f's row, its unread coordinates from the tail and a dropped block
    plainly.  Pairs ask the same signs at height 0 and at the top on both
    sides, so the carrier is exactly the set of pairs."""
    ranks = [a.r for a in A.blocks]
    right = [None] * len(B.blocks)
    for (src, scale, coords), (b, _, ecoords) in zip(f.rows, e.rows):
        read = {c[0]: t for t, c in enumerate(ecoords)} if ecoords else {}
        placed = []
        for u in range(B.blocks[b].r):
            if u in read:
                placed.append(coords[read[u]])
            else:
                placed.append((ranks[src], 1))
                ranks[src] += 1
        right[b] = (src, scale, tuple(placed))
    dropped = [i for i, row in enumerate(right) if row is None]
    for k, i in enumerate(dropped):
        right[i] = (len(A.blocks) + k, 1, _plain(B.blocks[i]))
    P = SymbolicAlgebra._of_blocks([a if r == a.r else block(a.m, r)
                                    for a, r in zip(A.blocks, ranks)]
                                   + [B.blocks[i] for i in dropped])
    left = CoordMap._normal(tuple((j, 1, _plain(a)) for j, a in enumerate(A.blocks)))
    return P, left, CoordMap._normal(tuple(right))


def mediator_to_pullback(pb: PullbackResult, u: Morphism, v: Morphism) -> Morphism:
    """x -> (u(x), v(x)) as a map into the pullback: the CoordMap of the
    pair corestricted through the projections' CoordMaps, on a literal
    pullback too.  A rowless u or v is refused, and so are legs that do
    not end where the projections do."""
    if u.dom != v.dom:
        raise ValueError("mediator needs a shared domain")
    if u.cod != pb.left.cod or v.cod != pb.right.cod:
        raise ValueError("mediator needs u.cod == pb.left.cod and v.cod == pb.right.cod")
    coords = _mediator(_view(u.dom), _view(pb.algebra), _coord_map(pb.left.body),
                       _coord_map(pb.right.body), _coord_map(u.body), _coord_map(v.body))
    return Morphism._of_coords(u.dom, pb.algebra, _body(u.dom, pb.algebra, coords))


def _mediator(X: SymbolicAlgebra, P: SymbolicAlgebra, left: CoordMap, right: CoordMap,
              u: CoordMap, v: CoordMap) -> CoordMap:
    """x -> (u(x), v(x)) out of X into P, whose projections are ``left``
    and ``right``: the pair corestricted through the legs."""
    legs = CoordMap._normal(left.rows + right.rows)
    pair = CoordMap._normal(u.rows + v.rows)
    try:
        return pair.corestrict(legs, X, P)
    except ValueError:
        raise ValueError("square does not commute into the pullback") from None


def _comparison(X: SymbolicAlgebra, A: SymbolicAlgebra, C: SymbolicAlgebra,
                u: CoordMap, v: CoordMap, f: CoordMap, g: CoordMap) -> CoordMap:
    """The CoordMap of the comparison x -> (u(x), v(x)) from X into the
    block pullback of f out of A against g out of C, all chain views;
    ValueError when f after u is not g after v.  No literal pullback and
    no value table is built, so a check that reports only whether the
    comparison is injective (``CoordMap.is_injective``) or onto
    (``CoordMap.is_onto``) reads it here; ``pullback`` still lists the
    pairs of a table pullback."""
    P, left, right = _pullback_parts(A, C, f, g)
    return _mediator(X, P, left, right, u, v)


def kernel_pair(e: Morphism):
    """Kernel pair of e: the pullback against itself of the quotient by
    ker e, which has the same pairs as e.  For a Komori block with kernel
    coordinates S the pair algebra keeps the full vector plus a primed
    copy of the S entries; the first projection drops the primed tail, the
    second reads the primed entries in place of the unprimed S entries.
    A block e kills has its second copy after all the others."""
    q = _quotient(e.dom, e.kernel(), "quotient").projection
    pb = pullback(q, q)
    return pb.algebra, pb.left, pb.right


def product_with_projections(algebras):
    """Product of block products together with its projections."""
    algebras = list(algebras)
    if any(a._tabled for a in algebras):
        raise ValueError("product_with_projections needs block products")
    prod = SymbolicAlgebra([b for a in algebras for b in a.blocks])
    ends = itertools.accumulate(len(a.blocks) for a in algebras)
    return prod, [Morphism(prod, a, _copies(prod, range(end - len(a.blocks), end)))
                  for a, end in zip(algebras, ends)]
