"""Literal reference algorithms that the library's structured ones are
held to.

``hom_tables`` finds every homomorphism table between two finite
algebras by backtracking with closure propagation.  ``enumerate_homs``
reads the same maps off the chain decompositions and must list them in
this order.

``grid_checks`` evaluates each identity on the whole index grid at once.
``core._grid`` streams the grid in slabs of the first variable and must
report the same witnesses and ``checked`` counts.

``infinitesimals``, ``nilpotent_radical``, ``is_nilpotent``, ``polar`` and
``is_ideal`` compute the radical, the nilpotence test, the polar and the
ideal test of a table from its operations alone, element by element.
``ideals`` answers each on the chain view and must give the same ideals
and verdicts.

``literal_comparison`` decides whether the mediator into a pullback is
injective and onto the literal way: ``pullback`` (the table of pairs for
table maps), ``mediator_to_pullback``, then the mediator's kernel and
``is_surjective``.  ``trivial_via_literal_pullback`` and
``literal_protoadditivity`` run ``trivial_via_pullback`` and
``protoadditivity_check`` on that route.  The library decides the same
comparisons on the chain views (``morphisms._comparison``) and must give
the same reports.
"""

from __future__ import annotations

from mvtk import (
    Algebra,
    CheckReport,
    CheckResult,
    FiniteAlgebra,
    FiniteIdeal,
    Morphism,
    ProtoadditivityReport,
    PullbackSquareReport,
    all_ideals,
    carrier_size,
    compose,
    ideal_join,
    identity,
    leq,
    mediator_to_pullback,
    meet,
    oplus,
    otimes,
    pullback,
    radical_projection,
    same_morphism,
    semisimple_map,
    zero_ideal,
)
from mvtk.core import _grid_table, elements, table_view


def _propagate(A: FiniteAlgebra, B: FiniteAlgebra, table, x, v):
    """Assign table[x] = v and close under neg and plus against everything
    already assigned.  Mutates table; returns the list of newly assigned
    points or None on contradiction."""
    stack = [(x, v)]
    added = []
    while stack:
        x, v = stack.pop()
        cur = table[x]
        if cur is not None:
            if cur != v:
                _undo(table, added)
                return None
            continue
        table[x] = v
        added.append(x)
        nx = A.neg_row[x]
        stack.append((nx, B.neg_row[v]))
        for y, w in enumerate(table):
            if w is None:
                continue
            stack.append((A.plus_rows[x][y], B.plus_rows[v][w]))
            stack.append((A.plus_rows[y][x], B.plus_rows[w][v]))
    return added


def _undo(table, added):
    for x in added:
        table[x] = None


def hom_tables(A: FiniteAlgebra, B: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All homomorphism tables A -> B (zero-, plus- and neg-preserving),
    found by backtracking with closure propagation, in lexicographic
    order."""
    out: list[tuple[int, ...]] = []
    table: list[int | None] = [None] * A.size
    if _propagate(A, B, table, A.zero, B.zero) is None:
        return out

    def rec() -> None:
        x = next((i for i, v in enumerate(table) if v is None), None)
        if x is None:
            out.append(tuple(table))  # type: ignore[arg-type]
            return
        for v in range(B.size):
            added = _propagate(A, B, table, x, v)
            if added is not None:
                rec()
                _undo(table, added)

    rec()
    return out


def grid_checks(algebra: Algebra, checks, subject: str) -> CheckReport:
    """Decide each identity of ``checks(view)`` on every tuple at once.

    ``view`` is :func:`table_view` of ``to_finite(algebra)``, so each
    predicate is called once, with one broadcast index grid per variable;
    memory is O(n**arity).  The first False in C order is the
    lexicographically first failing tuple; witnesses are elements of
    ``algebra``.
    """
    import numpy as np

    table = _grid_table(algebra)
    n = table.size
    elems = elements(algebra)
    results = []
    for name, arity, pred in checks(table_view(table)):
        held = np.asarray(pred(*np.ix_(*[np.arange(n)] * arity)))
        first = int(held.argmin())
        if held.flat[first]:
            results.append(CheckResult(name, True, None, n ** arity))
            continue
        at = np.unravel_index(first, held.shape)
        read = [k for k in range(arity) if held.shape[k] > 1]
        witness = tuple(elems[at[k]] for k in read)
        settles = n ** (arity - len(read))
        results.append(CheckResult(name, False, witness, (first + 1) * settles))
    return CheckReport(subject, "exhaustive", tuple(results))


def infinitesimals(algebra: FiniteAlgebra) -> frozenset:
    """The radical by its definition: zero and every a whose multiples
    a, 2.a, ... all stay below neg a, scanned until the multiples repeat."""
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


def is_nilpotent(algebra: FiniteAlgebra, ideal: FiniteIdeal) -> bool:
    """x (*) y = 0 for every pair of elements of the ideal."""
    return all(
        otimes(algebra, x, y) == algebra.zero
        for x in ideal.elements for y in ideal.elements)


def nilpotent_radical(algebra: FiniteAlgebra) -> FiniteIdeal:
    """The join of every ideal that ``is_nilpotent`` accepts."""
    acc = zero_ideal(algebra)
    for j in all_ideals(algebra):
        if is_nilpotent(algebra, j):
            acc = ideal_join(algebra, acc, j)
    return acc


def polar(algebra: FiniteAlgebra, ideal: FiniteIdeal) -> FiniteIdeal:
    """Every a with a /\\ s = 0 for each s in the ideal."""
    return FiniteIdeal(frozenset(
        a for a in range(algebra.size)
        if all(meet(algebra, a, s) == algebra.zero for s in ideal.elements)))


def is_ideal(algebra: FiniteAlgebra, subset) -> bool:
    """Contains zero, closed under (+) and downward closed; an element
    outside the carrier is a ValueError."""
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


def _literal_mediator(f: Morphism, g: Morphism, u: Morphism, v: Morphism) -> Morphism:
    """x -> (u(x), v(x)) into the literal pullback of f against g;
    ValueError when the square does not commute."""
    return mediator_to_pullback(pullback(f, g), u, v)


def _verdicts(psi: Morphism) -> tuple[bool, bool]:
    return psi.kernel() == zero_ideal(psi.dom), psi.is_surjective()


def literal_comparison(f: Morphism, g: Morphism, u: Morphism,
                       v: Morphism) -> tuple[bool, bool]:
    """Whether the mediator x -> (u(x), v(x)) into the pullback of f
    against g is injective and whether it is onto."""
    return _verdicts(_literal_mediator(f, g, u, v))


def trivial_via_literal_pullback(f: Morphism,
                                 eta_a: Morphism | None = None) -> PullbackSquareReport:
    """The pullback criterion of ``trivial_via_pullback`` on the literal
    pullback of ``semisimple_map(f)`` against the codomain's unit."""
    if eta_a is None:
        eta_a = radical_projection(f.dom)
    pb = pullback(semisimple_map(f), radical_projection(f.cod))
    try:
        psi = mediator_to_pullback(pb, eta_a, f)
    except ValueError:
        return PullbackSquareReport(False, False, False, False)
    inj, sur = _verdicts(psi)
    return PullbackSquareReport(inj and sur, True, inj, sur)


def literal_protoadditivity(p: Morphism, s: Morphism, g: Morphism) -> ProtoadditivityReport:
    """``protoadditivity_check`` on literal pullbacks: the comparison from
    S(pullback of p and g) into the pullback of the reflected maps."""
    section_valid = same_morphism(compose(s, p), identity(p.cod))
    pb = pullback(p, g)
    psi = _literal_mediator(semisimple_map(p), semisimple_map(g),
                            semisimple_map(pb.left), semisimple_map(pb.right))
    inj, sur = _verdicts(psi)
    return ProtoadditivityReport(section_valid and inj and sur, section_valid,
                                 inj, sur, carrier_size(psi.dom) or 0)
