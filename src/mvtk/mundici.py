"""Lattice-ordered abelian groups with order unit, and unit intervals.

Groups are finite products of lexicographic blocks Z or Z lex Z^(r-1):
the first coordinate dominates, ties are resolved coordinatewise.  The
unit interval [0, u] with truncated addition and reflected negation
recovers the chain and Komori blocks, and the semidirect presentation of
a split extension carries the explicit join formula checked here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    CheckReport,
    SymbolicAlgebra,
    block,
    check_sample_args,
    element,
    join as alg_join,
    leq as alg_leq,
    parts,
    run_checks,
)

__all__ = [
    "GroupBlock",
    "LexGroup",
    "make_group",
    "group_zero",
    "group_unit",
    "group_add",
    "group_neg",
    "group_sub",
    "group_leq",
    "group_join",
    "group_meet",
    "group_abs",
    "group_laws_check",
    "OrderUnitReport",
    "order_unit_check",
    "interval_algebra",
    "to_algebra_element",
    "from_algebra_element",
    "interval_sum",
    "interval_neg",
    "random_group_element",
    "semidirect_sum",
    "semidirect_join",
    "gamma_ops_agree",
]


@dataclass(frozen=True)
class GroupBlock:
    rank: int
    unit: tuple

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("block rank must be at least 1")
        if len(self.unit) != self.rank:
            raise ValueError("unit length must equal the rank")


@dataclass(frozen=True)
class LexGroup:
    blocks: tuple[GroupBlock, ...]


def make_group(blocks) -> LexGroup:
    """blocks: iterable of (rank, unit-tuple) pairs."""
    return LexGroup(tuple(GroupBlock(r, tuple(u)) for r, u in blocks))


def _check_shape(group: LexGroup, x):
    if len(x) != len(group.blocks):
        raise ValueError("dimension mismatch")
    for b, v in zip(group.blocks, x):
        if len(v) != b.rank:
            raise ValueError("dimension mismatch")


def group_zero(group: LexGroup) -> tuple:
    return tuple((0,) * b.rank for b in group.blocks)


def group_unit(group: LexGroup) -> tuple:
    return tuple(b.unit for b in group.blocks)


def group_add(group: LexGroup, x, y) -> tuple:
    _check_shape(group, x)
    _check_shape(group, y)
    return tuple(tuple(a + b for a, b in zip(v, w)) for v, w in zip(x, y))


def group_neg(group: LexGroup, x) -> tuple:
    _check_shape(group, x)
    return tuple(tuple(-a for a in v) for v in x)


def group_sub(group: LexGroup, x, y) -> tuple:
    return group_add(group, x, group_neg(group, y))


def _block_leq(v, w) -> bool:
    if v[0] != w[0]:
        return v[0] < w[0]
    return all(a <= b for a, b in zip(v[1:], w[1:]))


def group_leq(group: LexGroup, x, y) -> bool:
    _check_shape(group, x)
    _check_shape(group, y)
    return all(_block_leq(v, w) for v, w in zip(x, y))


def _block_join(v, w) -> tuple:
    if v[0] < w[0]:
        return w
    if v[0] > w[0]:
        return v
    return (v[0],) + tuple(max(a, b) for a, b in zip(v[1:], w[1:]))


def group_join(group: LexGroup, x, y) -> tuple:
    _check_shape(group, x)
    _check_shape(group, y)
    return tuple(_block_join(v, w) for v, w in zip(x, y))


def group_meet(group: LexGroup, x, y) -> tuple:
    return group_neg(group, group_join(group, group_neg(group, x),
                                       group_neg(group, y)))


def group_abs(group: LexGroup, x) -> tuple:
    return group_join(group, x, group_neg(group, x))


def random_group_element(group: LexGroup, rng: random.Random,
                         bound: int = 8) -> tuple:
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(b.rank))
                 for b in group.blocks)


def group_laws_check(group: LexGroup, count: int = 400, bound: int = 8,
                     seed: int = 0) -> CheckReport:
    """Sampled abelian-group and lattice laws, plus their compatibility
    (translation invariance) and positivity of absolute values.  A
    negative ``count`` or ``bound`` is a ValueError."""
    check_sample_args(count, bound)
    rng = random.Random(f"{seed}:group_laws")
    zero = group_zero(group)
    laws = (
        ("add_assoc", 3, lambda x, y, z: group_add(group, group_add(group, x, y), z)
         == group_add(group, x, group_add(group, y, z))),
        ("add_comm", 3, lambda x, y, z: group_add(group, x, y)
         == group_add(group, y, x)),
        ("add_zero", 3, lambda x, y, z: group_add(group, x, zero) == x),
        ("add_neg", 3, lambda x, y, z: group_add(group, x, group_neg(group, x))
         == zero),
        ("join_comm", 3, lambda x, y, z: group_join(group, x, y)
         == group_join(group, y, x)),
        ("join_assoc", 3, lambda x, y, z: group_join(
            group, group_join(group, x, y), z)
         == group_join(group, x, group_join(group, y, z))),
        ("absorption", 3, lambda x, y, z: group_meet(
            group, x, group_join(group, x, y)) == x),
        ("join_is_bound", 3, lambda x, y, z: group_leq(
            group, x, group_join(group, x, y))
         and group_leq(group, y, group_join(group, x, y))),
        ("translation", 3, lambda x, y, z: group_add(
            group, z, group_join(group, x, y))
         == group_join(group, group_add(group, z, x), group_add(group, z, y))),
        ("abs_positive", 3, lambda x, y, z: group_leq(
            group, zero, group_abs(group, x))),
    )
    samples = [tuple(random_group_element(group, rng, bound) for _ in range(3))
               for _ in range(count)]
    return run_checks(laws, lambda name, arity: samples, repr(group), "sample")


@dataclass(frozen=True)
class OrderUnitReport:
    ok: bool
    witness: tuple | None
    reason: str


def order_unit_check(group: LexGroup, unit=None) -> OrderUnitReport:
    """Is the unit an order unit: positive, with every element below some
    multiple of it?  In the lexicographic order that holds exactly when
    the unit's leading coordinate is strictly positive in every block.
    A block whose unit leads with 0, a rank-one zero unit included, fails
    with the witness that is 1 in that block's leading coordinate and 0
    elsewhere: it exceeds every multiple of the unit."""
    if unit is None:
        unit = group_unit(group)
    _check_shape(group, unit)
    zero = group_zero(group)
    if not group_leq(group, zero, unit):
        return OrderUnitReport(False, unit, "unit is not positive")
    for i, (b, u) in enumerate(zip(group.blocks, unit)):
        if u[0] <= 0:
            witness = list(zero)
            witness[i] = (1,) + (0,) * (b.rank - 1)
            return OrderUnitReport(
                False, tuple(witness),
                "witness exceeds every multiple of the unit")
    return OrderUnitReport(True, None, "")


def interval_algebra(group: LexGroup) -> SymbolicAlgebra:
    """The unit interval as a block algebra: a rank-one block with unit
    (m,) gives Chain(m) (m = 0 collapses into the terminal factor), and a
    higher-rank block with unit (m, 0, ..., 0), m >= 1, gives
    Komori(m, rank - 1).  Other units are out of scope."""
    blocks = []
    for b in group.blocks:
        u = b.unit
        if b.rank == 1:
            if u[0] < 0:
                raise ValueError("unit must be nonnegative")
        elif u[0] < 1 or any(c != 0 for c in u[1:]):
            raise ValueError("higher-rank units must be (m, 0, ..., 0) "
                             "with m >= 1")
        blocks.append(block(u[0], b.rank - 1))
    return SymbolicAlgebra(blocks)


def to_algebra_element(group: LexGroup, x) -> tuple:
    """Convert a group element inside [0, unit] to its block-algebra
    form; raises when the element leaves the interval."""
    unit = group_unit(group)
    _check_shape(group, x)
    zero = group_zero(group)
    if not (group_leq(group, zero, x) and group_leq(group, x, unit)):
        raise ValueError("element is outside the unit interval")
    return tuple(element(v[0], v[1:]) for b, u, v in zip(group.blocks, unit, x)
                 if b.rank > 1 or u[0] != 0)


def from_algebra_element(group: LexGroup, a) -> tuple:
    """The group element of a block-algebra element: the inverse of
    ``to_algebra_element``."""
    out = []
    it = iter(a)
    for b, u in zip(group.blocks, group_unit(group)):
        if b.rank == 1 and u[0] == 0:
            out.append((0,))
        else:
            z, coefs = parts(next(it))
            out.append((z,) + tuple(coefs))
    return tuple(out)


def interval_sum(group: LexGroup, x, y) -> tuple:
    """Truncated addition (x + y) meet unit."""
    return group_meet(group, group_add(group, x, y), group_unit(group))


def interval_neg(group: LexGroup, x) -> tuple:
    return group_sub(group, group_unit(group), x)


def semidirect_sum(group: LexGroup, pair1, pair2) -> tuple:
    """Componentwise sum in the semidirect presentation: pairs of group
    elements (kernel part, base part)."""
    (k1, b1), (k2, b2) = pair1, pair2
    return group_add(group, k1, k2), group_add(group, b1, b2)


def semidirect_join(group: LexGroup, pair1, pair2) -> tuple:
    """Join of the semidirect presentation, computed in the ambient
    group: (((k1+b1) v (k2+b2)) - (b1 v b2), b1 v b2)."""
    (k1, b1), (k2, b2) = pair1, pair2
    total = group_join(group, group_add(group, k1, b1),
                       group_add(group, k2, b2))
    base = group_join(group, b1, b2)
    return group_sub(group, total, base), base


def _random_interval_element(group: LexGroup, unit, rng: random.Random,
                             bound: int = 6) -> tuple:
    out = []
    for b, u in zip(group.blocks, unit):
        m = u[0]
        a = rng.randint(0, m)
        if b.rank == 1:
            out.append((a,))
            continue
        if a == 0:
            tail = tuple(rng.randint(0, bound) for _ in range(b.rank - 1))
        elif a == m:
            tail = tuple(rng.randint(-bound, 0) for _ in range(b.rank - 1))
        else:
            tail = tuple(rng.randint(-bound, bound) for _ in range(b.rank - 1))
        out.append((a,) + tail)
    return tuple(out)


def gamma_ops_agree(group: LexGroup, count: int = 400, bound: int = 6,
                    seed: int = 0) -> CheckReport:
    """Sampled agreement between interval arithmetic in the group and the
    block-algebra operations: truncated sum, reflection, order, join.
    A negative ``count`` or ``bound`` is a ValueError."""
    check_sample_args(count, bound)
    unit = group_unit(group)
    algebra = interval_algebra(group)
    rng = random.Random(f"{seed}:gamma")
    samples = [( _random_interval_element(group, unit, rng, bound),
                 _random_interval_element(group, unit, rng, bound))
               for _ in range(count)]
    checks = (
        ("truncated_sum", 2, lambda x, y:
         to_algebra_element(group, interval_sum(group, x, y))
         == algebra.plus(to_algebra_element(group, x),
                         to_algebra_element(group, y))),
        ("reflection", 2, lambda x, y:
         to_algebra_element(group, interval_neg(group, x))
         == algebra.neg(to_algebra_element(group, x))),
        ("order", 2, lambda x, y:
         group_leq(group, x, y)
         == alg_leq(algebra, to_algebra_element(group, x),
                    to_algebra_element(group, y))),
        ("join", 2, lambda x, y:
         to_algebra_element(group, group_join(group, x, y))
         == alg_join(algebra, to_algebra_element(group, x),
                     to_algebra_element(group, y))),
        ("roundtrip", 2, lambda x, y:
         from_algebra_element(group, to_algebra_element(group, x)) == x),
    )
    return run_checks(checks, lambda name, arity: samples, repr(group),
                      "sample")
