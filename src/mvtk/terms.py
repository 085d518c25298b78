"""Term identities behind the categorical structure.

Two families of witnesses: a binary-operation recovery identity that
exhibits protomodularity, and a Pixley-style ternary term giving the
arithmetical (Mal'tsev plus distributive) behaviour.  Each identity is
written once over the algebra operations and runs on the core check
engine: exhaustively on the table form of a finite carrier by the grid
evaluator, on its chain factors when it certifies (its reports name the
table), and by sampling on block algebras.  The kernel-restriction
harness then checks, square by square, that comparison maps into
pullbacks are injective, surjective or bijective exactly when the
induced restriction between kernels is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import chain_product_catalog
from .core import (
    Algebra,
    CheckReport,
    _bank_grid,
    _grid_table,
    _view,
    arrow,
    describe,
    join,
    meet,
    neg,
    ominus,
    oplus,
    otimes,
    resolve_mode,
    sample_checks,
    to_finite,
)
from .ideals import all_ideals, ideal_elements, ideal_leq
from .morphisms import (
    _comparison,
    _coord_map,
    compose,
    enumerate_homs,
    factor_through_quotient,
    quotient,
)

__all__ = [
    "verify_protomodularity",
    "verify_pixley",
    "HarnessReport",
    "kernel_restriction_harness",
]


def _recover(algebra: Algebra, x, y):
    t1 = ominus(algebra, x, y)
    t2 = oplus(algebra, x, neg(algebra, y))
    return oplus(algebra, t1, otimes(algebra, t2, y))


def _recovery_checks(algebra: Algebra):
    return [("recovery_identity", 2, lambda x, y: _recover(algebra, x, y) == x)]


def verify_protomodularity(algebra: Algebra, mode: str = "auto",
                           count: int = 2000, bound: int = 8,
                           seed: int = 0) -> CheckReport:
    """The identity (x - y) + ((x + not y) . y) = x, which rebuilds the
    first argument from two binary terms and the second argument."""
    if resolve_mode(algebra, mode) == "exhaustive":
        table = _grid_table(algebra)
        return _bank_grid(table, _recovery_checks, describe(table))
    return sample_checks(algebra, _recovery_checks, describe(algebra), count,
                         bound, lambda name: f"{seed}:protomodularity")


def _pixley(algebra: Algebra, x, y, z):
    p = meet(algebra,
             arrow(algebra, arrow(algebra, x, y), z),
             arrow(algebra, arrow(algebra, z, y), x))
    t = meet(algebra,
             arrow(algebra, y, meet(algebra, x, z)),
             join(algebra, x, z))
    return meet(algebra, p, t)


def _pixley_checks(algebra: Algebra):
    # each identity leaves one variable of the triple unread
    return [
        ("pixley_xxz", 3, lambda x, y, z: _pixley(algebra, x, x, z) == z),
        ("pixley_xyy", 3, lambda x, y, z: _pixley(algebra, x, y, y) == x),
        ("pixley_xyx", 3, lambda x, y, z: _pixley(algebra, x, y, x) == x),
    ]


def verify_pixley(algebra: Algebra, mode: str = "auto", count: int = 2000,
                  bound: int = 8, seed: int = 0) -> CheckReport:
    """A Pixley term from arrow, meet and join: r(x, x, z) = z,
    r(x, y, y) = x and r(x, y, x) = x.  Sampling draws one stream of
    triples shared by the three identities."""
    if resolve_mode(algebra, mode) == "exhaustive":
        table = _grid_table(algebra)
        return _bank_grid(table, _pixley_checks, describe(table))
    return sample_checks(algebra, _pixley_checks, describe(algebra), count,
                         bound, lambda name: f"{seed}:pixley")


@dataclass(frozen=True)
class HarnessReport:
    squares: int
    negatives: int
    violations: tuple
    injective_mismatches: int
    surjective_mismatches: int


def kernel_restriction_harness(max_size: int = 6) -> HarnessReport:
    """For every square of finite quotients with a compatible horizontal
    map, compare the comparison into the pullback, decided on the chain
    views (``morphisms._comparison``), against the restriction between
    the vertical kernels: injectivity, surjectivity and bijectivity must
    transfer both ways.  Squares where the restriction fails a property
    are counted as negatives and must still satisfy the equivalence."""
    algebras = [to_finite(a) for a in chain_product_catalog(max_size)]
    squares = negatives = 0
    inj_bad = sur_bad = 0
    violations = []
    for A in algebras:
        view = _view(A)
        ideals_a = all_ideals(A)
        for B in algebras:
            homs = enumerate_homs(A, B)
            if not homs:
                continue
            ideals_b = all_ideals(B)
            for I in ideals_a:
                f = quotient(A, I).projection
                kerf = ideal_elements(A, I)
                for J in ideals_b:
                    g = quotient(B, J).projection
                    kerg = set(ideal_elements(B, J))
                    for h in homs:
                        if not ideal_leq(A, I, compose(h, g).kernel()):
                            continue
                        k = factor_through_quotient(f, compose(h, g))
                        squares += 1
                        image = list(map(h._eval, kerf))
                        r_inj = len(set(image)) == len(kerf)
                        r_sur = kerg <= set(image)
                        psi = _comparison(view, _view(B), _view(f.cod), *(
                            _coord_map(m.body) for m in (h, f, g, k)))
                        c_inj = psi.is_injective(view)
                        c_sur = psi.is_onto()
                        if not (r_inj and r_sur):
                            negatives += 1
                        if c_inj != r_inj:
                            inj_bad += 1
                            violations.append(
                                (describe(A), describe(B), I, J, "injective"))
                        if c_sur != r_sur:
                            sur_bad += 1
                            violations.append(
                                (describe(A), describe(B), I, J, "surjective"))
    return HarnessReport(squares, negatives, tuple(violations),
                         inj_bad, sur_bad)
