"""Enumeration of finite test algebras and random symbolic algebras.

Every finite MV-algebra is a product of finite chains, so the catalog of
algebras up to a carrier bound is the set of multisets {m_1, ..., m_k}
with prod(m_i + 1) bounded, plus the one-element algebra.
"""

from __future__ import annotations

import random

from .core import Algebra, Chain, Komori, SymbolicAlgebra, _view, terminal_algebra

__all__ = [
    "chain_product_catalog",
    "catalog_signature",
    "random_block_algebra",
]


# listing takes about 1 s at 4,096 elements and 12 s at 16,384 (2-core host)
_CATALOG_CAP = 4096


def chain_product_catalog(max_size: int) -> list[SymbolicAlgebra]:
    """All finite algebras with at most ``max_size`` elements, one per
    isomorphism class, deterministically ordered by size then signature.
    A bound above ``_CATALOG_CAP`` is a ValueError."""
    if max_size > _CATALOG_CAP:
        raise ValueError(f"a catalog up to {max_size} elements exceeds the "
                         f"budget of {_CATALOG_CAP}")
    if max_size < 1:
        return []
    found: list[tuple[int, tuple[int, ...]]] = [(1, ())]

    def extend(prefix: tuple[int, ...], size: int, cap: int) -> None:
        for m in range(cap, 0, -1):
            nxt = size * (m + 1)
            if nxt > max_size:
                continue
            found.append((nxt, prefix + (m,)))
            extend(prefix + (m,), nxt, m)

    extend((), 1, max_size - 1)
    found.sort(key=lambda t: (t[0], len(t[1]), t[1]))
    out = []
    for _, ms in found:
        if not ms:
            out.append(terminal_algebra())
        else:
            out.append(SymbolicAlgebra([Chain(m) for m in ms]))
    return out


def catalog_signature(algebra: Algebra) -> tuple[int, ...]:
    """Chain bounds of the chain view (``core._view``) in the catalog's
    canonical (non-increasing) order."""
    return tuple(sorted((b.m for b in _view(algebra).blocks), reverse=True))


def random_block_algebra(rng: random.Random, max_r: int = 3,
                         require_komori: bool = True) -> SymbolicAlgebra:
    """Random block product for sampled checks: one to three blocks of
    height one to three.  With ``require_komori`` at least one block is a
    Komori block, so the radical is nontrivial."""
    k = rng.randint(1, 3)
    blocks = []
    for _ in range(k):
        if rng.random() < 0.5:
            blocks.append(Chain(rng.randint(1, 3)))
        else:
            blocks.append(Komori(rng.randint(1, 3), rng.randint(1, max_r)))
    if require_komori and not any(b.r for b in blocks):
        blocks[rng.randrange(len(blocks))] = Komori(
            rng.randint(1, 3), rng.randint(1, max_r))
    return SymbolicAlgebra(blocks)
