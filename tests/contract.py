"""The argument registry of the regime contract.

A finite MV-algebra is the product of its chains (Cignoli, D'Ottaviano and
Mundici, *Algebraic Foundations of Many-valued Reasoning*, 2000, section
3.6), so every public function must answer a table as it answers that
block product.  ``CASES`` says, for each public name that takes an
algebra, an ideal, an element or a map, how to build its arguments on a
block product and how to read its result; ``EXEMPT`` lists every other
public name with its reason.  ``tests/test_regime_contract.py`` runs each
case on every algebra of ``chain_product_catalog(24)`` in three forms:
the block product, its ``to_finite`` table and a ``shuffled`` copy of
that table.

Arguments are built on the block form and carried to a table form through
``find_isomorphism(block, form)``: an algebra X to its table form, an
element to its image, an ideal by ``image_ideal``, and a map f: X -> Y to
the map that sends iso_X(x) to iso_Y(f(x)), written out value by value.
A result is read through the same isomorphisms: elements by applying
them, ideals by ``image_ideal``, maps by conjugating with the domain and
codomain isomorphisms and ``same_morphism``, and verdicts, counts and
texts as they are.  An algebra that a result builds (a quotient, a
subalgebra, a pullback) is defined only up to isomorphism, so it is
matched by an isomorphism under which every map and ideal of the result
agrees: the one that the result's maps to and from carried algebras
force value by value, or else one found among all its isomorphisms.  A
refusal agrees when both forms raise the same exception type with the
same text.  Results that differ by design, such as a witness that is
the first in element order, are read by what they must satisfy
(``FIELDS``).

``relabel`` and ``shuffled`` give isomorphic copies of a table whose
element order is not that of ``to_finite``.
"""

import dataclasses
import functools
import random
import re

import mvtk
from mvtk import (
    FiniteMapBody,
    Morphism,
    SymbolicAlgebra,
    all_ideals,
    carrier_size,
    compose,
    describe,
    elements,
    em_factorize,
    enumerate_homs,
    find_isomorphism,
    from_initial,
    ideal_elements,
    ideal_subalgebra,
    identity,
    image_ideal,
    image_set,
    make_chain,
    make_finite,
    meet,
    oplus,
    pre_exact,
    pullback,
    quotient,
    radical_projection,
    same_morphism,
    square_from_ideals,
    to_finite,
    to_terminal,
)


def relabel(table, perm):
    """The table with element x renamed perm[x]: an isomorphic copy whose
    element order is no longer that of ``to_finite``."""
    n = table.size
    neg = [0] * n
    plus = [[0] * n for _ in range(n)]
    for x in range(n):
        neg[perm[x]] = perm[table.neg(x)]
        for y in range(n):
            plus[perm[x]][perm[y]] = perm[table.plus(x, y)]
    return make_finite(neg, plus, perm[table.zero])


def shuffled(table, seed):
    perm = list(range(table.size))
    random.Random(seed).shuffle(perm)
    return relabel(table, perm)


# ---------------------------------------------------------------------------
# the forms, and arguments carried to them


@functools.cache
def table_form(algebra, form: str):
    """The table form of a block product, "table" or "shuffled", with the
    isomorphism from the block product and its values as dicts both ways."""
    table = to_finite(algebra)
    if form == "shuffled":
        table = shuffled(table, f"contract:{describe(algebra)}")
    iso = find_isomorphism(algebra, table)
    ahead = {x: iso(x) for x in elements(algebra)}
    return table, iso, ahead, {t: x for x, t in ahead.items()}


@functools.cache
def carried_map(f, form: str):
    """The map of the table forms that sends iso(x) to iso(f(x))."""
    dom, _, _, back = table_form(f.dom, form)
    cod, _, ahead, _ = table_form(f.cod, form)
    return Morphism(dom, cod, FiniteMapBody(tuple(
        ahead[f._eval(back[t])] for t in range(dom.size))), f.label)


@dataclasses.dataclass(frozen=True)
class El:
    """An element of a block product, in an argument list."""
    algebra: SymbolicAlgebra
    value: object


@dataclasses.dataclass(frozen=True)
class Els:
    """A list of elements of a block product, in an argument list."""
    algebra: SymbolicAlgebra
    values: tuple


@dataclasses.dataclass(frozen=True)
class Id:
    """An ideal of a block product, in an argument list."""
    algebra: SymbolicAlgebra
    ideal: object


class Side:
    """The arguments of one run: as built on the block form (``form`` is
    None), or carried to a table form, keeping the isomorphism of each
    algebra carried."""

    def __init__(self, form):
        self.form = form
        self.carried = {}

    def algebra(self, algebra):
        if self.form is None:
            return algebra
        table, iso, _, _ = table_form(algebra, self.form)
        self.carried[id(algebra)] = (algebra, table, iso)
        return table

    def __call__(self, value):
        if isinstance(value, SymbolicAlgebra):
            return self.algebra(value)
        if isinstance(value, El):
            return self._ahead(value.algebra)(value.value)
        if isinstance(value, Els):
            return list(map(self._ahead(value.algebra), value.values))
        if isinstance(value, Id):
            if self.form is None:
                return value.ideal
            self.algebra(value.algebra)
            return image_ideal(self.carried[id(value.algebra)][2], value.ideal)
        if isinstance(value, Morphism):
            if self.form is None:
                return value
            self.algebra(value.dom)
            self.algebra(value.cod)
            return carried_map(value, self.form)
        if dataclasses.is_dataclass(value):
            return dataclasses.replace(value, **{
                f.name: self(getattr(value, f.name)) for f in dataclasses.fields(value)})
        if isinstance(value, (list, tuple)):
            return type(value)(map(self, value))
        return value

    def _ahead(self, algebra):
        if self.form is None:
            return lambda x: x
        self.algebra(algebra)
        return table_form(algebra, self.form)[2].__getitem__


# ---------------------------------------------------------------------------
# reading results through the isomorphisms


@functools.cache
def isomorphisms(a, b) -> tuple:
    """Every isomorphism from a onto b."""
    n = carrier_size(a)
    return tuple(h for h in enumerate_homs(a, b) if len(image_set(h)) == n)


class Reading:
    """The block-form result and a table-form result of one run, read as
    constraints on the isomorphisms between their algebras.  A pair of
    algebra objects that the arguments carried has the carried
    isomorphism; any other pair, even one equal to an argument's, is
    matched by a search over its isomorphisms: an ideal subalgebra can
    equal its algebra and still sit in it otherwise."""

    def __init__(self, block_args, form_args, carried):
        self.args = (block_args, form_args)
        self.carried = carried
        self.algebras = {}
        self.pairs = {}
        self.constraints = []
        self.arrows = []

    def pair(self, a, b):
        key = (id(a), id(b))
        if key not in self.pairs:
            self.algebras[key] = (a, b)
            _, table, iso = self.carried.get(id(a), (None, None, None))
            self.pairs[key] = (iso,) if table is b else None
        return key

    def need(self, keys, holds, what):
        self.constraints.append((tuple(keys), holds, what))

    def owned(self, owner, rb, rt):
        return self.pair(owner(self.args[0], rb), owner(self.args[1], rt))

    def read(self, kind, b, t, rb=None, rt=None):
        """Constrain the block-form value b and the table-form value t,
        read as ``kind``; rb and rt are the values that hold them, which
        an owner reads."""
        if kind == "auto":
            self.auto(b, t)
        elif kind == "maps":
            self.maps(b, t)
        elif kind == "iso":
            self.iso(b, t)
        elif kind[0] == "key":
            key_b, key_t = kind[1](self.args[0], b), kind[1](self.args[1], t)
            self.need((), lambda h: key_b == key_t, f"{key_b!r} != {key_t!r}")
        elif kind[0] == "holds":
            self.need((), lambda h: kind[1](self.args[0], rb, b) and kind[1](self.args[1], rt, t),
                      f"{b!r} or {t!r} fails {kind[1].__doc__}")
        elif kind[0] == "via":
            self.read(kind[2], kind[1](self.args[0], b), kind[1](self.args[1], t), b, t)
        elif b is None or t is None:
            self.need((), lambda h: b is t, f"{b!r} != {t!r}")
        else:
            key = self.owned(kind[1], rb, rt)
            self.need((key,), {
                "el": lambda h: h[key](b) == t,
                "seq": lambda h: [h[key](x) for x in b] == list(t),
                "els": lambda h: sorted(map(h[key], b)) == sorted(t),
                "ideal": lambda h: image_ideal(h[key], b) == t,
                "ideals": lambda h: {image_ideal(h[key], i) for i in b} == set(t)
                and len(b) == len(t),
            }[kind[0]], f"{kind[0]} {b!r} against {t!r}")

    def auto(self, b, t):
        if isinstance(b, Morphism) and isinstance(t, Morphism):
            dom, cod = self.pair(b.dom, t.dom), self.pair(b.cod, t.cod)
            self.arrows.append((dom, cod, b, t))
            self.need((dom, cod), lambda h: same_morphism(compose(b, h[cod]), compose(h[dom], t)),
                      f"map {b!r} against {t!r}")
        elif isinstance(b, mvtk.Algebra) and isinstance(t, mvtk.Algebra):
            self.pair(b, t)
        elif dataclasses.is_dataclass(b) and type(b) is type(t):
            for f in dataclasses.fields(b):
                kind = FIELDS.get((type(b).__name__, f.name), "auto")
                if kind is not None:
                    self.read(kind, getattr(b, f.name), getattr(t, f.name), b, t)
        elif isinstance(b, (list, tuple)) and isinstance(t, (list, tuple)) \
                and len(b) == len(t):
            for u, v in zip(b, t):
                self.auto(u, v)
        else:
            self.need((), lambda h: b == t, f"{b!r} != {t!r}")

    def maps(self, b, t):
        """Lists of maps between the same two algebras, as sets: each map
        into a table has a value table, which its body compares."""
        if not b or not t:
            self.need((), lambda h: len(b) == len(t), f"{len(b)} maps against {len(t)}")
            return
        dom, cod = self.pair(b[0].dom, t[0].dom), self.pair(b[0].cod, t[0].cod)
        self.need((dom, cod), lambda h: len(b) == len(t) and (
            {compose(f, h[cod]).body for f in b}
            == {compose(h[dom], g).body for g in t}), f"{len(b)} maps against {len(t)}")

    def iso(self, b, t):
        """An isomorphism, or None: which one comes first depends on the
        element order, so each side is held to being one."""
        def bijective(m):
            return m is None or m.is_injective() and m.is_surjective()

        self.need((), lambda h: (b is None) == (t is None) and bijective(b) and bijective(t),
                  f"isomorphism {b!r} against {t!r}")

    def derived(self, key, known):
        """The isomorphism of the pair ``key`` that the maps tying it to
        pairs in ``known`` force, value by value: a map into it fixes the
        value of each image, and the maps out of it fix the value of each
        element they tell apart.  None when they do not fix a bijection."""
        a, b = self.algebras[key]
        ahead = {}
        for dom, cod, fb, ft in self.arrows:
            if cod == key and dom in known:
                for x in elements(fb.dom):
                    y = ft._eval(known[dom]._eval(x))
                    if ahead.setdefault(fb._eval(x), y) != y:
                        return None
        outs = [(fb._eval, ft._eval, known[cod]._eval) for dom, cod, fb, ft in self.arrows
                if dom == key and cod in known]
        if outs:
            seen = {}
            for y in elements(b):
                seen.setdefault(tuple(ft(y) for _, ft, _ in outs), []).append(y)
            for x in elements(a):
                found = seen.get(tuple(h(fb(x)) for fb, _, h in outs), [])
                if len(found) == 1 and ahead.setdefault(x, found[0]) != found[0]:
                    return None
        if len(ahead) != carrier_size(a) or len(set(ahead.values())) != len(ahead):
            return None
        return Morphism(a, b, FiniteMapBody(tuple(map(ahead.__getitem__, elements(a)))))

    def disagreement(self):
        """None when some assignment of isomorphisms meets every
        constraint, else the last constraint the search failed.  A pair
        that no constraint reads needs only to be isomorphic; a pair that
        maps tie to known ones takes the isomorphism they force; any
        other is searched over all its isomorphisms."""
        read = {key for keys, _, _ in self.constraints for key in keys}
        known = {key: found[0] for key, found in self.pairs.items() if found is not None}
        while True:
            forced = {key: self.derived(key, known) for key in read - set(known)}
            forced = {key: h for key, h in forced.items() if h is not None}
            if not forced:
                break
            known.update(forced)
        for key, found in self.pairs.items():
            a, b = self.algebras[key]
            if key in known:
                self.pairs[key] = (known[key],)
            elif key not in read:
                self.pairs[key] = (None,) if mvtk.are_isomorphic(a, b) else ()
            else:
                self.pairs[key] = isomorphisms(a, b)
            if not self.pairs[key]:
                return f"{a!r} and {b!r} are not isomorphic"
        keys = sorted(read, key=lambda key: len(self.pairs[key]))
        ready = [[] for _ in range(len(keys) + 1)]
        for held in self.constraints:
            ready[max((keys.index(key) + 1 for key in held[0]), default=0)].append(held)
        failed = []

        def holds(test, h):
            try:
                return test(h)
            except ValueError:
                return False

        def search(h, at):
            for _, test, what in ready[at]:
                if not holds(test, h):
                    failed.append(what)
                    return False
            return at == len(keys) or any(search({**h, keys[at]: iso}, at + 1)
                                          for iso in self.pairs[keys[at]])

        return None if search({}, 0) else failed[-1]


def owner(path: str):
    """The algebra at ``path``: "0" is the first argument, "0.dom" its
    domain, and "r.projection.dom" reads the record that holds the
    value read."""
    def read(args, value):
        first, *rest = path.split(".")
        at = args[int(first)] if first.isdigit() else value
        for name in rest:
            at = getattr(at, name)
        return at
    return read


def _maps_out_of_zero_one(args, r, witness):
    """a witness sent outside {0, 1}"""
    f = args[0]
    return witness is None if r.trivial else f(witness) not in (f.cod.zero, f.cod.one)


_NOT_INJECTIVE = re.compile(r"^.* is sent to 0(?=: k is not injective$)")

# how a field of a result type is read: ideals by their owner, and
# values that differ by design by what they must satisfy; None skips
FIELDS = {
    ("QuotientResult", "ideal"): ("ideal", owner("r.projection.dom")),
    ("SubalgebraResult", "ideal"): ("ideal", owner("r.inclusion.cod")),
    ("ExtensionClassification", "kernel"): ("ideal", owner("0.dom")),
    ("ExtensionClassification", "radical_meet"): ("ideal", owner("0.dom")),
    ("ExtensionCommutator", "ideal"): ("ideal", owner("0.dom")),
    ("EMFactorization", "theta"): ("ideal", owner("0.dom")),
    ("StabilityReport", "kernel"): ("ideal", owner("r.projection.dom")),
    ("RegularPushoutReport", "kernel_image"): ("ideal", owner("0.left.cod")),
    ("RegularPushoutReport", "bottom_kernel"): ("ideal", owner("0.left.cod")),
    ("CentralReflection", "theta"): ("ideal", owner("0.dom")),
    ("DoubleClassification", "meet"): ("ideal", owner("0.top.dom")),
    ("CommutatorReport", "ideal"): ("ideal", owner("0")),
    # a literal pullback lists its pairs, a block pullback has none
    ("PullbackResult", "pairs"): None,
    # failures are numbered by position in all_ideals, and a k that is
    # not injective is shown by the first nonzero element it sends to 0,
    # both in the order of the form's elements
    ("ProbeReport", "failures"): ("key", lambda args, failures: sorted(
        _NOT_INJECTIVE.sub("y is sent to 0", text) for _, text in failures)),
    # the terms verifiers name the algebra they check by ``describe``,
    # which names the regime: the table in exhaustive mode, the algebra
    # when sampled
    ("CheckReport", "subject"): ("key", lambda args, subject: "describe" if isinstance(
        args[0], mvtk.Algebra) and subject in (
            describe(args[0]), f"finite[{carrier_size(args[0])}]") else subject),
    # the first element of ``elements`` order sent outside {0, 1}
    ("TrivialWitness", "witness"): ("holds", _maps_out_of_zero_one),
}


# ---------------------------------------------------------------------------
# argument pools on a block product


@functools.cache
def points(A) -> list:
    """Up to six elements: the first two, two between and the last two in
    ``elements`` order, which starts at 0 and ends at 1."""
    elems = elements(A)
    n = len(elems)
    return [elems[i] for i in sorted({0, 1 % n, n // 3, n // 2, n - 2 if n > 1 else 0, n - 1})]


@functools.cache
def some_ideals(A) -> list:
    """At most three ideals: the second, the middle and the last of
    ``all_ideals``."""
    found = all_ideals(A)
    return [found[i] for i in sorted({len(found) // 2, 1 % len(found), len(found) - 1})]


@functools.cache
def maps_out(A) -> list:
    """Maps out of A: its identity, the map to the terminal algebra, the
    projections onto quotients and the first homs into Chain(1) and
    Chain(2)."""
    return ([identity(A), to_terminal(A)]
            + [quotient(A, i).projection for i in some_ideals(A)]
            + [h for m in (1, 2) for h in enumerate_homs(A, make_chain(m))[:1]])


@functools.cache
def inclusions(A) -> list:
    """The inclusions of the ideal subalgebras of ``some_ideals``."""
    return [ideal_subalgebra(A, i).inclusion for i in some_ideals(A)]


@functools.cache
def maps_into(A) -> list:
    """Maps into A: from Chain(1), the inclusions and the first homs out
    of Chain(1) x Chain(1) and Chain(2)."""
    pair = mvtk.product([make_chain(1), make_chain(1)])
    return ([from_initial(A)] + inclusions(A)
            + [h for d in (pair, make_chain(2)) for h in enumerate_homs(d, A)[:1]])


def small_kernels(A) -> list:
    """The maps of ``maps_out`` whose kernel has at most 4 elements: the
    literal kernel pair of a table map with kernel K has |A| |K| elements,
    576 for the map of a 24-element table to the terminal algebra."""
    return [f for f in maps_out(A) if len(ideal_elements(A, f.kernel())) <= 4]


def onto_maps(A) -> list:
    return [f for f in maps_out(A) if f.is_surjective()]


@functools.cache
def squares(A) -> list:
    """The squares of quotients by two of A's ideals."""
    found = some_ideals(A)
    return [square_from_ideals(A, i, j) for i, j in zip(found, found[1:] + found[:1])]


def split(A) -> list:
    """(p, s, g): a projection p of A onto a two-element quotient, its
    section s out of that quotient, and g into the quotient."""
    out = []
    for i in all_ideals(A):
        q = quotient(A, i)
        if carrier_size(q.algebra) == 2:
            s = compose(find_isomorphism(q.algebra, make_chain(1)), from_initial(A))
            out += [(q.projection, s, g) for g in (q.projection, identity(q.algebra))]
            break
    return out


def _el(A, *xs):
    return tuple(El(A, x) for x in xs)


# ---------------------------------------------------------------------------
# the registry: public name -> [(function, arguments on A, result kind)]


def case(fn, build, kind="auto"):
    return (fn, build, kind)


EL = ("el", owner("0"))
IDEAL = ("ideal", owner("0"))
SAME = "auto"


def _binary(fn):
    return [case(fn, lambda A: [(A, *_el(A, x, y)) for x in points(A) for y in points(A)], EL)]


def _on_ideals(fn, kind=SAME):
    return [case(fn, lambda A: [(A, Id(A, i)) for i in all_ideals(A)], kind)]


def _on_ideal_pairs(fn, kind=SAME):
    return [case(fn, lambda A: [(A, Id(A, i), Id(A, j)) for i in some_ideals(A)
                                for j in some_ideals(A)], kind)]


def _on_algebra(fn, kind=SAME):
    return [case(fn, lambda A: [(A,)], kind)]


def _on_maps(fn, pool=maps_out, kind=SAME):
    return [case(fn, lambda A: [(f,) for f in pool(A)], kind)]


def _on_squares(fn, kind=SAME):
    return [case(fn, lambda A: [(sq,) for sq in squares(A)], kind)]


def _riesz(A):
    return [(A, El(A, meet(A, x, oplus(A, y, z))), *_el(A, y, z))
            for x in points(A)[-2:] for y in points(A)[:3] for z in points(A)[2:4]] \
        + [(A, *_el(A, A.one, A.zero, A.zero))]


def _pullbacks(A):
    return [(sq.right, sq.bottom) for sq in squares(A)] \
        + [(identity(q.cod), q) for q in onto_maps(A)[2:4]]


def _mediators(A):
    return [(pullback(sq.right, sq.bottom), sq.top, sq.left) for sq in squares(A)]


def _factorizations(A):
    return [(q, f) for q in onto_maps(A)[2:] for f in maps_out(A)]


def _corestrictions(A):
    return [(e, through) for through in inclusions(A) for e in maps_into(A)]


def _fill(A):
    return [(em.e, em.m, em.e, em.m) for em in map(em_factorize, maps_out(A))]


def _stability(A):
    e = radical_projection(A)
    return [(e, g) for d in (make_chain(1), make_chain(2))
            for g in enumerate_homs(d, e.cod)[:2]]


def _homs(A):
    ends = [make_chain(1), make_chain(2), A]
    return [(A, b) for b in ends] + [(b, A) for b in ends[:2]]


# Morphism's methods, each as a function of the map
MORPHISM_METHODS = [
    case(Morphism.kernel, lambda A: [(f,) for f in maps_out(A)], ("ideal", owner("0.dom"))),
    case(Morphism.preimage_ideal, lambda A: [
        (f, Id(f.cod, j)) for f in maps_out(A) for j in all_ideals(f.cod)[-2:]],
        ("ideal", owner("0.dom"))),
    case(Morphism.is_surjective, lambda A: [(f,) for f in maps_out(A) + maps_into(A)]),
    case(Morphism.is_injective, lambda A: [(f,) for f in maps_out(A) + maps_into(A)]),
    case(Morphism.__call__, lambda A: [(f, El(A, x)) for f in maps_out(A)
                                       for x in points(A)], ("el", owner("0.cod"))),
]


CASES = {
    # core
    "product": [case(lambda *algebras: mvtk.product(algebras),
                     lambda A: [(A, make_chain(1)), (make_chain(2), A)])],
    "to_finite": _on_algebra(to_finite),
    "carrier_size": _on_algebra(carrier_size),
    "elements": _on_algebra(elements, ("els", owner("0"))),
    "oplus": _binary(mvtk.oplus),
    "otimes": _binary(mvtk.otimes),
    "ominus": _binary(mvtk.ominus),
    "arrow": _binary(mvtk.arrow),
    "dist": _binary(mvtk.dist),
    "join": _binary(mvtk.join),
    "meet": _binary(mvtk.meet),
    "leq": [case(mvtk.leq, lambda A: [(A, *_el(A, x, y)) for x in points(A) for y in points(A)])],
    "neg": [case(mvtk.neg, lambda A: [(A, El(A, x)) for x in points(A)], EL)],
    "forced_elements": _on_algebra(mvtk.forced_elements, ("els", owner("0"))),
    "check_axioms": [case(mvtk.check_axioms, lambda A: [(A,), (A, "sample", 200)])],
    "check_derived_identities": [case(mvtk.check_derived_identities,
                                      lambda A: [(A,), (A, "sample", 200)])],
    "check_lattice_identities": [case(mvtk.check_lattice_identities,
                                      lambda A: [(A,), (A, "exhaustive")])],
    "is_terminal_object": _on_algebra(mvtk.is_terminal_object),
    "canonical_blocks": _on_algebra(mvtk.canonical_blocks),
    "are_isomorphic": [case(mvtk.are_isomorphic, lambda A: [
        (A, b) for b in (A, make_chain(1), mvtk.product([make_chain(1), make_chain(1)]))])],
    "catalog_signature": _on_algebra(mvtk.catalog_signature),
    "decompose": _on_algebra(mvtk.decompose, ("key", lambda args, d: (
        sorted(d.heights), len(d.codes)))),
    # ideals
    "validate_ideal": _on_ideals(mvtk.validate_ideal, IDEAL),
    "zero_ideal": _on_algebra(mvtk.zero_ideal, IDEAL),
    "full_ideal": _on_algebra(mvtk.full_ideal, IDEAL),
    "is_zero_ideal": _on_ideals(mvtk.is_zero_ideal),
    "is_full_ideal": _on_ideals(mvtk.is_full_ideal),
    "is_proper_ideal": _on_ideals(mvtk.is_proper_ideal),
    "ideal_contains": [case(mvtk.ideal_contains, lambda A: [
        (A, Id(A, i), El(A, x)) for i in some_ideals(A) for x in points(A)])],
    "ideal_elements": _on_ideals(mvtk.ideal_elements, ("els", owner("0"))),
    "markers_from_elements": [case(mvtk.markers_from_elements, lambda A: [
        (A, Els(A, tuple(ideal_elements(A, i)))) for i in some_ideals(A)]
        + [(A, Els(A, tuple(points(A)[-2:])))], IDEAL)],
    "is_ideal": [case(mvtk.is_ideal, lambda A: [
        (A, Els(A, tuple(ideal_elements(A, i)))) for i in some_ideals(A)]
        + [(A, Els(A, tuple(points(A)[:k]))) for k in (1, 2, 3)])],
    "generated_ideal": [case(mvtk.generated_ideal, lambda A: [
        (A, Els(A, (x,))) for x in points(A)] + [(A, Els(A, ()))], IDEAL)],
    "all_ideals": _on_algebra(all_ideals, ("ideals", owner("0"))),
    "ideal_meet": _on_ideal_pairs(mvtk.ideal_meet, IDEAL),
    "ideal_join": _on_ideal_pairs(mvtk.ideal_join, IDEAL),
    "ideal_leq": _on_ideal_pairs(mvtk.ideal_leq),
    "radical": [case(mvtk.radical, lambda A: [(A, m) for m in ("inf", "maximal", "nilpotent")],
                     IDEAL)],
    "maximal_ideals": _on_algebra(mvtk.maximal_ideals, ("ideals", owner("0"))),
    "is_nilpotent_ideal": _on_ideals(mvtk.is_nilpotent_ideal),
    "polar": [case(mvtk.polar, lambda A: [(A, Id(A, i)) for i in all_ideals(A)]
                   + [(A, Els(A, (x,))) for x in points(A)], IDEAL)],
    "riesz_split": [case(mvtk.riesz_split, _riesz, ("seq", owner("0")))],
    "radical_conegation_disjoint": _on_ideals(mvtk.radical_conegation_disjoint),
    # morphisms
    "Morphism": MORPHISM_METHODS,
    "identity": _on_algebra(identity),
    "to_terminal": _on_algebra(to_terminal),
    "from_initial": _on_algebra(from_initial),
    "compose": [case(compose, lambda A: [(f, g) for f in maps_out(A)
                                         for g in maps_out(f.cod)[:3]])],
    "is_morphism": _on_maps(mvtk.is_morphism),
    "same_morphism": [case(same_morphism, lambda A: [
        (f, g) for f in maps_out(A) for g in maps_out(A) if f.cod == g.cod])],
    "image_set": _on_maps(image_set, kind=("els", owner("0.cod"))),
    "quotient": _on_ideals(quotient),
    "factor_through_quotient": [case(mvtk.factor_through_quotient, _factorizations)],
    "image_ideal": [case(image_ideal, lambda A: [
        (f, Id(A, i)) for f in maps_out(A) for i in some_ideals(A)],
        ("ideal", owner("0.cod")))],
    "ideal_subalgebra": _on_ideals(ideal_subalgebra),
    "subalgebra_decode": [case(mvtk.subalgebra_decode, lambda A: [
        (incl, El(A, x)) for incl in inclusions(A) for x in points(A)],
        ("el", owner("0.dom")))],
    "corestrict": [case(mvtk.corestrict, _corestrictions)],
    "enumerate_homs": [case(enumerate_homs, _homs, "maps")],
    "find_isomorphism": [case(find_isomorphism, _homs, "iso")],
    "pullback": [case(pullback, _pullbacks)],
    "mediator_to_pullback": [case(mvtk.mediator_to_pullback, _mediators)],
    "kernel_pair": _on_maps(mvtk.kernel_pair, small_kernels),
    # pretorsion
    "is_semisimple": _on_algebra(mvtk.is_semisimple),
    "is_perfect": _on_algebra(mvtk.is_perfect),
    "semisimple_quotient": _on_algebra(mvtk.semisimple_quotient),
    "radical_projection": _on_algebra(radical_projection),
    "perfect_part": _on_algebra(mvtk.perfect_part),
    "perfect_inclusion": _on_algebra(mvtk.perfect_inclusion),
    "semisimple_map": _on_maps(mvtk.semisimple_map),
    "perfect_map": _on_maps(mvtk.perfect_map, maps_into),
    "radical_indicator": _on_algebra(mvtk.radical_indicator),
    "is_trivial_morphism": _on_maps(mvtk.is_trivial_morphism),
    "pre_exact": _on_algebra(pre_exact),
    "is_prekernel": [case(mvtk.is_prekernel, lambda A: [
        (pre_exact(A).inclusion, pre_exact(A).projection)]
        + [(incl, q) for incl in maps_into(A)[:3] for q in maps_out(A)[1:4]])],
    "is_precokernel": [case(mvtk.is_precokernel, lambda A: [
        (pre_exact(A).projection, pre_exact(A).inclusion)]
        + [(q, incl) for incl in maps_into(A)[:3] for q in maps_out(A)[1:4]])],
    "unit_factorization": _on_maps(mvtk.unit_factorization),
    "counit_factorization": _on_maps(mvtk.counit_factorization, maps_into),
    "protoadditivity_check": [case(mvtk.protoadditivity_check, split)],
    # galois
    "classify_extension": _on_maps(mvtk.classify_extension),
    "rad_restriction_surjective": _on_maps(mvtk.rad_restriction_surjective),
    "trivial_via_pullback": [case(mvtk.trivial_via_pullback, lambda A: [
        (f,) for f in maps_out(A)] + [(f, radical_projection(A)) for f in maps_out(A)[:2]])],
    "kernel_subalgebra": _on_maps(mvtk.kernel_subalgebra),
    "extension_commutator": _on_maps(mvtk.extension_commutator),
    "e_member": _on_maps(mvtk.e_member),
    "m_member": _on_maps(mvtk.m_member),
    "em_factorize": _on_maps(em_factorize),
    "fill_diagonal": [case(mvtk.fill_diagonal, _fill)],
    "stability_check": [case(mvtk.stability_check, _stability)],
    # galois2
    "validate_square": _on_squares(mvtk.validate_square),
    "is_regular_pushout": _on_squares(mvtk.is_regular_pushout),
    "square_from_ideals": _on_ideal_pairs(square_from_ideals),
    "central_reflection": _on_maps(mvtk.central_reflection),
    "classify_double": _on_squares(mvtk.classify_double),
    "restrict_to_ideal_subalgebra": [case(
        mvtk.restrict_to_ideal_subalgebra,
        lambda A: [(A, Id(A, k), Id(A, w)) for k in some_ideals(A) for w in some_ideals(A)],
        ("via", lambda args, ideal: image_ideal(ideal_subalgebra(args[0], args[1]).inclusion,
                                                ideal), IDEAL))],
    "commutator_pair": _on_ideal_pairs(mvtk.commutator_pair),
    # terms
    "verify_protomodularity": [case(mvtk.verify_protomodularity,
                                    lambda A: [(A,), (A, "sample", 200)])],
    "verify_pixley": [case(mvtk.verify_pixley, lambda A: [(A,), (A, "sample", 200)])],
}


_TYPE = "a type, built by the forms or compared through the functions that return it"
_GROUP = "takes a lattice-ordered group; its interval algebra is a block product by construction"
_BUILDER = "builds from integers and takes no algebra"

# every public name the contract does not run, with its reason
EXEMPT = {
    **{name: _TYPE for name in (
        "Chain", "Komori", "SymbolicAlgebra", "FiniteAlgebra", "Algebra", "CheckResult",
        "CheckReport", "Decomposition", "FiniteIdeal", "MarkerIdeal", "Ideal",
        "QuotientResult", "SubalgebraResult", "PullbackResult", "TrivialWitness",
        "PreExactSequence", "ProbeReport", "UnitFactorization", "ProtoadditivityReport",
        "ExtensionClassification", "PullbackSquareReport", "ExtensionCommutator",
        "EMFactorization", "StabilityReport", "ExtensionSquare", "RegularPushoutReport",
        "CentralReflection", "DoubleClassification", "CommutatorReport", "HarnessReport",
        "GroupBlock", "LexGroup", "OrderUnitReport")},
    **{name: _BUILDER for name in (
        "block", "parts", "element", "make_chain", "make_komori", "make_finite",
        "terminal_algebra", "initial_algebra", "chain_product_catalog",
        "random_block_algebra", "kernel_restriction_harness")},
    **{name: _GROUP for name in (
        "make_group", "group_zero", "group_unit", "group_add", "group_neg", "group_sub",
        "group_leq", "group_join", "group_meet", "group_abs", "group_laws_check",
        "order_unit_check", "interval_algebra", "to_algebra_element",
        "from_algebra_element", "interval_sum", "interval_neg", "random_group_element",
        "semidirect_sum", "semidirect_join", "gamma_ops_agree")},
    "AXIOM_NAMES": "a constant",
    "CoordMap": "the normal form of a map between chain views, below both regimes",
    "FiniteMapBody": "the value table of a map with a table side, built by the forms",
    "sub_marker": "one marker of the chain view; takes no algebra",
    "marker_coords": "reads one marker of the chain view; takes no algebra",
    "describe": "a text that names the regime by design",
    "sample_columns": "a sample stream whose encoding differs by design: indices or block rows",
    "sample_tuples": "a sample stream whose encoding differs by design: indices or block tuples",
    "product_with_projections": "refuses tables by design",
}
