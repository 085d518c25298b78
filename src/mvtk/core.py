"""Carriers and operations for MV-algebras in two regimes.

A finite algebra stores its operation tables outright.  A symbolic algebra
is a product of blocks, each either a finite chain [0, m] or a Komori block
built from the lexicographic product Z x_lex Z^r truncated at (m, 0); the
latter has an infinite carrier, so all exhaustive questions about it go
through markers or sampling rather than enumeration.

Elements of a symbolic algebra are tuples with one entry per block: an int
for a chain block, an ``(a, bvec)`` pair for a Komori block.  The terminal
algebra is the empty product; its only element is ``()``.  This module owns
the element and block encodings: elsewhere a block is built with
:func:`block`, an entry is read with :func:`parts` and written with
:func:`element`, so only the block operations here test a block's type.

numpy is imported inside the functions that build a table's arrays, an
exhaustive grid or a sampled stream, so work on symbolic algebras never
loads it.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

__all__ = [
    "Chain",
    "Komori",
    "SymbolicAlgebra",
    "FiniteAlgebra",
    "Algebra",
    "block",
    "parts",
    "element",
    "make_chain",
    "make_komori",
    "make_finite",
    "terminal_algebra",
    "initial_algebra",
    "product",
    "to_finite",
    "carrier_size",
    "elements",
    "describe",
    "oplus",
    "otimes",
    "neg",
    "ominus",
    "arrow",
    "dist",
    "leq",
    "join",
    "meet",
    "forced_elements",
    "sample_columns",
    "sample_tuples",
    "CheckResult",
    "CheckReport",
    "check_axioms",
    "check_derived_identities",
    "check_lattice_identities",
    "is_terminal_object",
    "canonical_blocks",
    "are_isomorphic",
    "Decomposition",
    "decompose",
    "AXIOM_NAMES",
]


# ---------------------------------------------------------------------------
# carriers


@dataclass(frozen=True)
class Chain:
    """Chain block: the interval {0, ..., m} with truncated addition.

    In Mundici's Gamma picture a chain is Gamma(Z, m) and a Komori block is
    Gamma(Z x_lex Z^r, (m, 0)), so a chain is the case with no
    infinitesimal coordinates: ``r`` is the class constant 0.  It is not a
    dataclass field, so repr, equality, hashing and JSON are those of the
    height alone.  Its elements are plain ints, not ``(a, ())`` pairs.
    """

    m: int
    r = 0

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"chain bound must be >= 0, got {self.m}")

    def __repr__(self) -> str:
        return f"Chain({self.m})"


@dataclass(frozen=True)
class Komori:
    """Komori block: unit interval of Z x_lex Z^r with unit (m, 0).

    Carrier: pairs (a, b) with 0 <= a <= m, b in Z^r, where b >= 0 when
    a = 0 and b <= 0 when a = m.  For m = 1, r = 1 this is the Chang
    algebra.
    """

    m: int
    r: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"komori bound must be >= 1, got {self.m}")
        if self.r < 1:
            raise ValueError(f"komori rank must be >= 1, got {self.r}")

    def __repr__(self) -> str:
        return f"Komori({self.m},{self.r})"


Block = Chain | Komori


def block(m: int, r: int = 0) -> Block:
    """The block of height m with r infinitesimal coordinates: a chain
    when r is 0."""
    return Komori(m, r) if r else Chain(m)


def parts(x) -> tuple:
    """A block entry as its height and its coefficients, ``()`` for a
    chain entry."""
    return (x, ()) if isinstance(x, int) else x


def element(a: int, coefs=()):
    """The block entry of height a with coefficients ``coefs``: a plain
    int when there are none."""
    coefs = tuple(coefs)
    return (a, coefs) if coefs else a


def _block_contains(b: Block, x) -> bool:
    if isinstance(b, Chain):
        return isinstance(x, int) and 0 <= x <= b.m
    if not (isinstance(x, tuple) and len(x) == 2):
        return False
    a, bv = x
    if not (isinstance(a, int) and isinstance(bv, tuple) and len(bv) == b.r):
        return False
    if not all(isinstance(t, int) for t in bv):
        return False
    if not 0 <= a <= b.m:
        return False
    if a == 0 and any(t < 0 for t in bv):
        return False
    if a == b.m and any(t > 0 for t in bv):
        return False
    return True


def _block_plus(b: Block, x, y):
    if isinstance(b, Chain):
        s = x + y
        return s if s < b.m else b.m
    a = x[0] + y[0]
    if a < b.m:
        return (a, tuple(p + q for p, q in zip(x[1], y[1])))
    if a > b.m:
        return (b.m, (0,) * b.r)
    return (b.m, tuple(min(p + q, 0) for p, q in zip(x[1], y[1])))


def _block_neg(b: Block, x):
    if isinstance(b, Chain):
        return b.m - x
    return (b.m - x[0], tuple(-t for t in x[1]))


class SymbolicAlgebra:
    """Product of chain and Komori blocks, kept in construction order.

    ``Chain(0)`` factors are dropped on construction, so the terminal
    algebra (empty block tuple) has exactly one representation.  ``zero``,
    ``one`` and the chain decomposition are built on first use and kept.

    Tables, samples and chain decompositions are read off the blocks by
    formula.  A subclass that overrides ``plus`` or ``neg`` is ``_tabled``
    instead, like a table: tabled, sampled and certified through its own
    operations (:func:`to_finite`, :func:`sample_checks`, :func:`decompose`),
    so an override that breaks an axiom is refused as not an MV-algebra,
    and its ideals and maps read its certified chains (:func:`_view`).
    """

    __slots__ = ("blocks", "_zero", "_one", "_dec", "_refusal")
    # whether the algebra is read through a table and its certified chains
    _tabled = False

    def __init_subclass__(cls):
        cls._tabled = (cls.plus is not SymbolicAlgebra.plus
                       or cls.neg is not SymbolicAlgebra.neg)

    def __init__(self, blocks):
        blocks = tuple(blocks)
        for b in blocks:
            if not isinstance(b, (Chain, Komori)):
                raise TypeError(f"not a block: {b!r}")
        object.__setattr__(self, "blocks", tuple(b for b in blocks if b.m))

    @classmethod
    def _of_blocks(cls, blocks) -> "SymbolicAlgebra":
        """Trusted constructor: blocks valid by construction, no ``Chain(0)``."""
        a = object.__new__(cls)
        object.__setattr__(a, "blocks", tuple(blocks))
        return a

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicAlgebra is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(("sym", self.blocks))

    def __repr__(self) -> str:
        if not self.blocks:
            return "SymbolicAlgebra(terminal)"
        return "SymbolicAlgebra(%s)" % " x ".join(repr(b) for b in self.blocks)

    @property
    def zero(self):
        if getattr(self, "_zero", None) is None:
            object.__setattr__(self, "_zero", tuple(
                element(0, (0,) * b.r) for b in self.blocks))
        return self._zero

    @property
    def one(self):
        if getattr(self, "_one", None) is None:
            object.__setattr__(self, "_one", tuple(
                element(b.m, (0,) * b.r) for b in self.blocks))
        return self._one

    def contains(self, x) -> bool:
        if not isinstance(x, tuple) or len(x) != len(self.blocks):
            return False
        return all(_block_contains(b, v) for b, v in zip(self.blocks, x))

    def plus(self, x, y):
        return tuple(map(_block_plus, self.blocks, x, y))

    def neg(self, x):
        return tuple(map(_block_neg, self.blocks, x))


class FiniteAlgebra:
    """Algebra given by explicit tables over {0, ..., n-1}.

    Tables are stored as nested tuples so instances hash and compare by
    value.  Constructing one assumes nothing about the axioms: the
    identity checks (``check_axioms``, the derived and lattice banks,
    ``terms``' verifiers, ``is_morphism``) report on corrupted tables.
    Every tool that reads a table's structure, namely ideals, radicals,
    quotients, hom enumeration and isomorphism, first decomposes it into a
    product of chains (:func:`decompose`, cached), whose certificate
    refuses a table that is not an MV-algebra with a ValueError naming a
    witness.
    """

    __slots__ = ("size", "zero", "neg_row", "plus_rows", "_np", "_dec", "_refusal")
    _tabled = True

    def __init__(self, neg_row, plus_rows, zero: int = 0):
        neg_row = tuple(neg_row)
        plus_rows = tuple(tuple(r) for r in plus_rows)
        n = len(neg_row)
        if len(plus_rows) != n or any(len(r) != n for r in plus_rows):
            raise ValueError("plus table must be n x n for n = len(neg)")
        rng = range(n)
        if any(v not in rng for v in neg_row):
            raise ValueError("neg table entry out of range")
        if any(v not in rng for r in plus_rows for v in r):
            raise ValueError("plus table entry out of range")
        if zero not in rng:
            raise ValueError("zero out of range")
        self._fill(neg_row, plus_rows, zero)

    @classmethod
    def _of_rows(cls, neg_row, plus_rows, zero: int) -> "FiniteAlgebra":
        """Trusted constructor: n x n tables whose entries are elements by
        construction."""
        a = object.__new__(cls)
        a._fill(tuple(neg_row), tuple(map(tuple, plus_rows)), zero)
        return a

    def _fill(self, neg_row: tuple, plus_rows: tuple, zero: int) -> None:
        for name, value in zip(self.__slots__, (len(neg_row), zero, neg_row,
                                                plus_rows, None, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteAlgebra is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteAlgebra)
            and self.zero == other.zero
            and self.neg_row == other.neg_row
            and self.plus_rows == other.plus_rows
        )

    def __hash__(self) -> int:
        return hash(("fin", self.zero, self.neg_row, self.plus_rows))

    def __repr__(self) -> str:
        return f"FiniteAlgebra(size={self.size})"

    @property
    def one(self) -> int:
        return self.neg_row[self.zero]

    def contains(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.size

    def plus(self, x, y):
        return self.plus_rows[x][y]

    def neg(self, x):
        return self.neg_row[x]

    def tables(self):
        """(neg, plus) as numpy arrays, cached."""
        if self._np is None:
            import numpy as np

            object.__setattr__(
                self,
                "_np",
                (
                    np.array(self.neg_row, dtype=np.int64),
                    np.array(self.plus_rows, dtype=np.int64),
                ),
            )
        return self._np


Algebra = SymbolicAlgebra | FiniteAlgebra


# ---------------------------------------------------------------------------
# constructors


def make_chain(m: int) -> SymbolicAlgebra:
    """Chain algebra on {0, ..., m}; m = 0 gives the terminal algebra."""
    if m < 0:
        raise ValueError("chain bound must be >= 0")
    return SymbolicAlgebra((Chain(m),))


def make_komori(m: int, r: int) -> SymbolicAlgebra:
    return SymbolicAlgebra((Komori(m, r),))


def make_finite(neg_row, plus_rows, zero: int = 0) -> FiniteAlgebra:
    return FiniteAlgebra(neg_row, plus_rows, zero)


def terminal_algebra() -> SymbolicAlgebra:
    return SymbolicAlgebra(())


def initial_algebra() -> SymbolicAlgebra:
    """Two-element chain, the initial object."""
    return make_chain(1)


def product(algebras) -> Algebra:
    """Direct product.  Block products that are not ``_tabled`` give a
    block product; otherwise every factor must have a finite carrier, and
    the result is the table algebra of their tables."""
    algebras = list(algebras)
    if not any(a._tabled for a in algebras):
        blocks = []
        for a in algebras:
            blocks.extend(a.blocks)
        return SymbolicAlgebra(blocks)
    finite = [to_finite(a) for a in algebras]
    return table_on(
        list(itertools.product(*(range(a.size) for a in finite))),
        lambda e, f: tuple(a.plus(u, v) for a, u, v in zip(finite, e, f)),
        lambda e: tuple(a.neg(v) for a, v in zip(finite, e)),
        tuple(a.zero for a in finite))


def carrier_size(algebra: Algebra) -> int | None:
    """Number of elements, or None when some block is a Komori block."""
    if isinstance(algebra, FiniteAlgebra):
        return algebra.size
    n = 1
    for b in algebra.blocks:
        if b.r:
            return None
        n *= b.m + 1
    return n


def _chain_heights(algebra: SymbolicAlgebra) -> tuple:
    """The heights of a block product of chains: the one refusal of an
    infinite carrier, which ``elements`` and ``decompose`` read through."""
    for b in algebra.blocks:
        if b.r:
            raise ValueError(f"cannot enumerate infinite carrier of {b!r}")
    return tuple(b.m for b in algebra.blocks)


def elements(algebra: Algebra):
    """All elements, in a fixed order.  Raises on infinite carriers."""
    if isinstance(algebra, FiniteAlgebra):
        return list(range(algebra.size))
    return list(itertools.product(*(range(m + 1) for m in _chain_heights(algebra))))


def to_finite(algebra: Algebra) -> FiniteAlgebra:
    """Table form of a finite-carrier algebra.  Element i of the result is
    ``elements(algebra)[i]``.

    A block product is tabled by :func:`_chain_table` through its
    decomposition: for a block product of chains its own, element x with
    the mixed-radix code x of its levels (the order of ``elements``), so
    :func:`decompose` certifies nothing.  A block product that overrides
    ``plus`` or ``neg`` is tabled pointwise through its own operations, as
    :func:`table_on`, until :func:`decompose` has certified it."""
    if isinstance(algebra, FiniteAlgebra):
        return algebra
    if algebra._tabled and getattr(algebra, "_dec", None) is None:
        return table_on(elements(algebra), algebra.plus, algebra.neg,
                        algebra.zero)
    dec = decompose(algebra)
    return _chain_table(dec.heights, dec.codes)[0]


def table_on(elems, plus, neg, zero) -> FiniteAlgebra:
    """The table algebra whose element i is ``elems[i]``, under ``plus``
    and ``neg``, which must map ``elems`` into itself."""
    index = {e: i for i, e in enumerate(elems)}
    return FiniteAlgebra._of_rows([index[neg(e)] for e in elems],
                                  [[index[plus(e, f)] for f in elems] for e in elems],
                                  index[zero])


def describe(algebra: Algebra) -> str:
    if isinstance(algebra, FiniteAlgebra):
        return f"finite[{algebra.size}]"
    if not algebra.blocks:
        return "terminal"
    return " x ".join(map(repr, algebra.blocks))


# ---------------------------------------------------------------------------
# derived operations


def oplus(algebra: Algebra, x, y):
    return algebra.plus(x, y)


def neg(algebra: Algebra, x):
    return algebra.neg(x)


def otimes(algebra: Algebra, x, y):
    """x (*) y = neg(neg x (+) neg y), the monoidal product."""
    return algebra.neg(algebra.plus(algebra.neg(x), algebra.neg(y)))


def arrow(algebra: Algebra, x, y):
    return algebra.plus(algebra.neg(x), y)


def ominus(algebra: Algebra, x, y):
    """Truncated difference x (-) y = x (*) neg y."""
    return otimes(algebra, x, algebra.neg(y))


def dist(algebra: Algebra, x, y):
    """Chang distance d(x, y) = (x (-) y) (+) (y (-) x); zero iff x = y."""
    return algebra.plus(ominus(algebra, x, y), ominus(algebra, y, x))


def leq(algebra: Algebra, x, y) -> bool:
    return arrow(algebra, x, y) == algebra.one


def join(algebra: Algebra, x, y):
    return algebra.plus(ominus(algebra, x, y), y)


def meet(algebra: Algebra, x, y):
    return otimes(algebra, x, algebra.plus(algebra.neg(x), y))


# ---------------------------------------------------------------------------
# element sampling: a stream of ``count`` tuples is held as one column per
# variable, in chunks of at most ``_CHUNK`` rows.  A column of a table
# algebra is an int64 index array; a column of a block product is a
# :class:`_Rows` matrix with one row per element.

_SAMPLE_BOUND = 8
# rows per chunk: bounds the memory of a sampled check for any count
_CHUNK = 4096
_WORD = 1 << 32


def forced_elements(algebra: Algebra):
    """Elements every sampler must hit: 0, 1, and one pure infinitesimal
    plus its negation per Komori block."""
    if isinstance(algebra, FiniteAlgebra):
        out = [algebra.zero, algebra.one]
        return list(dict.fromkeys(out))
    out = [algebra.zero, algebra.one]
    for i, b in enumerate(algebra.blocks):
        if b.r:
            eps = list(algebra.zero)
            eps[i] = (0, (1,) + (0,) * (b.r - 1))
            out.append(tuple(eps))
            out.append(algebra.neg(tuple(eps)))
    return list(dict.fromkeys(out))


class _Rows:
    """Elements of a block product as the rows of an int64 matrix, block
    by block: the height of a chain block, the height and then the r
    coefficients of a Komori block.  ``==`` compares whole rows."""

    __slots__ = ("a",)
    __hash__ = None

    def __init__(self, a):
        self.a = a

    def __eq__(self, other):
        return (self.a == other.a).all(axis=-1)

    def __getitem__(self, rows):
        return _Rows(self.a[rows])


def _words(rng: random.Random, n: int):
    import numpy as np

    return np.frombuffer(rng.randbytes(4 * n), "<u4").astype(np.int64)


def _uniform(rng: random.Random, widths):
    """One uniform draw from ``range(w)`` for each entry w (1 <= w <= 2**32)
    of ``widths``: exact rejection sampling on 32-bit words of
    ``rng.randbytes``, redrawing the rejected entries in order."""
    import numpy as np

    widths = np.asarray(widths, np.int64)
    words = _words(rng, widths.size).reshape(widths.shape)
    limit = _WORD - _WORD % widths
    rejected = words >= limit
    while rejected.any():
        words[rejected] = _words(rng, int(rejected.sum()))
        rejected = words >= limit
    return words % widths


class _TableColumns:
    """Columns of a table algebra: int64 arrays of element indices."""

    def __init__(self, table: FiniteAlgebra):
        import numpy as np

        self.table = table
        self.forced = np.array(forced_elements(table), np.int64)

    def view(self):
        return table_view(self.table)

    def column(self, raw):
        return raw

    def draw(self, n: int, rng: random.Random, bound: int):
        import numpy as np

        return _uniform(rng, np.full(n, self.table.size))

    def decode(self, column):
        """The elements of ``column``, as Python ints."""
        return column.tolist()


class _BlockColumns:
    """Columns of a block product: :class:`_Rows`.  Per matrix column it
    keeps the bound m of its block (``cap``) and the column of that
    block's height (``head``)."""

    def __init__(self, algebra: SymbolicAlgebra):
        import numpy as np

        self.blocks = algebra.blocks
        cap, head, is_height = [], [], []
        for b in self.blocks:
            width = 1 + b.r
            cap += [b.m] * width
            head += [len(head)] * width
            is_height += [True] + [False] * (width - 1)
        self.cap = np.array(cap, np.int64)
        self.head = np.array(head, np.intp)
        self.is_height = np.array(is_height, bool)
        self.heights = np.flatnonzero(self.is_height)
        self.coefs = np.flatnonzero(~self.is_height)
        self.forced = self.encode(forced_elements(algebra))

    def view(self):
        """``plus`` and ``neg`` of every block at once, truncating like
        :func:`_block_plus` column by column."""
        import numpy as np

        cap, head, is_height = self.cap, self.head, self.is_height
        top = np.where(is_height, cap, 0)

        def plus(x, y):
            s = x.a + y.a
            a = s[:, head]
            low = np.where(is_height, cap, np.minimum(s, 0) * (a == cap))
            return _Rows(np.where(a < cap, s, low))

        def neg(x):
            return _Rows(top - x.a)

        zero = _Rows(self.forced[:1])
        return SimpleNamespace(zero=zero, one=neg(zero), plus=plus, neg=neg)

    def column(self, raw):
        return _Rows(raw)

    def draw(self, n: int, rng: random.Random, bound: int):
        """All heights first, each uniform in [0, m], then all
        coefficients, each uniform in [0, bound] at height 0, in
        [-bound, 0] at height m and in [-bound, bound] in between."""
        import numpy as np

        out = np.empty((n, self.cap.size), np.int64)
        out[:, self.heights] = _uniform(rng, np.broadcast_to(
            self.cap[self.heights] + 1, (n, self.heights.size)))
        if self.coefs.size:
            a = out[:, self.head[self.coefs]]
            m = self.cap[self.coefs]
            width = np.where((a > 0) & (a < m), 2 * bound + 1, bound + 1)
            out[:, self.coefs] = (_uniform(rng, width)
                                  + np.where(a == 0, 0, -bound))
        return out

    def encode(self, elems):
        import numpy as np

        rows = [[v for x in e for a, coefs in (parts(x),) for v in (a, *coefs)]
                for e in elems]
        return np.array(rows, np.int64).reshape(len(elems), self.cap.size)

    def decode(self, column):
        """The elements of ``column``, as tuples of Python ints."""
        parts, at = [], 0
        for b in self.blocks:
            # a chain height decodes to an int, a Komori row to a pair
            parts.append((at, at + 1 + b.r if b.r else None))
            at += 1 + b.r
        return [tuple(row[i] if end is None else (row[i], tuple(row[i + 1:end]))
                      for i, end in parts)
                for row in column.a.tolist()]


def check_sample_args(count: int, bound: int) -> None:
    """Refuse a negative sample ``count`` or coefficient ``bound`` with a
    ValueError naming it."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")


def _columns_of(algebra: Algebra, count: int, bound: int):
    """The column form of ``algebra``, once ``count`` and ``bound`` are
    known to give a stream."""
    check_sample_args(count, bound)
    if isinstance(algebra, FiniteAlgebra):
        return _TableColumns(algebra)
    if any(b.m + 1 > _WORD or b.r and 2 * bound + 1 > _WORD
           for b in algebra.blocks):
        raise ValueError("sampling draws from at most 2**32 values per "
                         "coordinate")
    return _BlockColumns(algebra)


def _chunks(form, arity: int, count: int, rng: random.Random, bound: int):
    import numpy as np

    forced, f = form.forced, len(form.forced)
    prefix = min(f ** arity, count)
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        cut = max(lo, min(hi, prefix))
        combos = np.arange(lo, cut)
        columns = [forced[combos // f ** (arity - 1 - k) % f]
                   for k in range(arity)]
        drawn = hi - cut
        if drawn:
            # the draws of every variable at once, variable after variable
            fresh = form.draw(drawn * arity, rng, bound)
            columns = [np.concatenate([c, fresh[k * drawn:(k + 1) * drawn]])
                       for k, c in enumerate(columns)]
        yield hi - lo, [form.column(c) for c in columns]


def sample_columns(algebra: Algebra, arity: int, count: int, rng: random.Random,
                   bound: int = _SAMPLE_BOUND):
    """The sample stream of ``count`` tuples of ``algebra``, as chunks
    ``(rows, columns)`` of at most ``_CHUNK`` rows with one column per
    variable: an int64 index array for a table algebra, :class:`_Rows`
    for a block product.

    The first rows are the combinations of :func:`forced_elements` in
    ``itertools.product`` order, at most ``count`` of them.  The other
    rows of a chunk are uniform draws, all variables' at once, variable
    after variable: each height uniform in [0, m], each Komori
    coefficient uniform in [0, bound] at height 0, [-bound, 0] at height
    m and [-bound, bound] in between, by exact rejection sampling on
    32-bit words of ``rng.randbytes``.  A negative ``count`` or ``bound``
    is a ValueError.
    """
    return _chunks(_columns_of(algebra, count, bound), arity, count, rng,
                   bound)


def sample_tuples(algebra: Algebra, arity: int, count: int, rng: random.Random,
                  bound: int = _SAMPLE_BOUND):
    """The stream of :func:`sample_columns` decoded row by row into
    element tuples: all combinations of forced elements first (capped),
    then uniform draws up to ``count``."""
    form = _columns_of(algebra, count, bound)
    for rows, columns in _chunks(form, arity, count, rng, bound):
        decoded = [form.decode(c) for c in columns]
        for i in range(rows):
            yield tuple(d[i] for d in decoded)


# ---------------------------------------------------------------------------
# identity checking: each identity is written once, as (name, arity,
# predicate) over an algebra's plus, neg and zero


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity.

    ``checked`` counts the tuples the verdict covers: every tuple when the
    identity holds (an exhaustive pass on a certified table may be decided
    on its chain factors, see :func:`_bank_grid`), otherwise the tuples up
    to and including ``witness``, in lexicographic order when exhaustive
    and in the order of the :func:`sample_columns` stream when sampled,
    where the witness is the first failing row, decoded to elements.  A
    sampled identity that reads no variable (arity 0) holds on all
    ``count`` rows or fails at the first, with witness ``()``.  An exhaustive identity that does not read one of its variables is
    decided once per tuple of the variables it reads, and that tuple is
    its witness and counts for every value of the others.  So the Pixley
    identities r(x, x, z) = z, r(x, y, y) = x and r(x, y, x) = x, stated
    over triples, count n**3 triples on n elements and fail at a pair.
    """

    name: str
    ok: bool
    witness: tuple | None
    checked: int


@dataclass(frozen=True)
class CheckReport:
    subject: str
    mode: str
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def counterexample(self) -> tuple[str, tuple] | None:
        for r in self.results:
            if not r.ok:
                return (r.name, r.witness)
        return None


# exhaustive checks decide every tuple, n**3 of them for a ternary identity:
# 16.6 million on Chain(255), where check_axioms takes 0.2-0.4 s on a 2-core
# x86_64; slabs keep the memory small, the time still grows with the cube
_GRID_CAP = 256
# cells in one slab of an exhaustive grid: an int64 temporary is 2 MiB
_GRID_CELLS = 1 << 18


def _grid_table(algebra: Algebra) -> FiniteAlgebra:
    """``to_finite``, refused before any table is built above ``_GRID_CAP`` elements."""
    if (n := carrier_size(algebra) or 0) > _GRID_CAP:
        raise ValueError(f"exhaustive mode on {n} elements exceeds the "
                         f"budget of {_GRID_CAP}")
    return to_finite(algebra)


def resolve_mode(algebra: Algebra, mode: str) -> str:
    """The mode a check runs in: ``"auto"`` is exhaustive on a finite
    carrier and sampling otherwise."""
    if mode == "auto":
        mode = "exhaustive" if carrier_size(algebra) is not None else "sample"
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def run_checks(checks, tuples, subject: str, mode: str) -> CheckReport:
    """Feed each (name, arity, predicate) of ``checks`` the stream
    ``tuples(name, arity)`` until the predicate fails."""
    results = []
    for name, arity, pred in checks:
        witness = None
        checked = 0
        for args in tuples(name, arity):
            checked += 1
            if not pred(*args):
                witness = args
                break
        results.append(CheckResult(name, witness is None, witness, checked))
    return CheckReport(subject, mode, tuple(results))


def table_view(table: FiniteAlgebra) -> SimpleNamespace:
    """``table`` with ``plus`` and ``neg`` gathering along numpy index
    arrays, so an identity or derived operation written over an algebra
    evaluates on whole index arrays at once."""
    neg_t, plus_t = table.tables()
    return SimpleNamespace(zero=table.zero, one=int(neg_t[table.zero]),
                           neg=lambda x: neg_t[x],
                           plus=lambda x, y: plus_t[x, y])


def _slabs(n: int, arity: int):
    """``(lo, grids)`` for consecutive slabs of the first variable: the
    broadcast index grids of every tuple whose first entry lies in
    ``lo, lo + 1, ...``, at most ``_GRID_CELLS`` cells and, all but the
    last, at least two rows.  An arity-0 identity has one empty slab."""
    import numpy as np

    if not arity:
        yield 0, ()
        return
    axis = np.arange(n)
    rows = max(2, _GRID_CELLS // n ** (arity - 1))
    for lo in range(0, n, rows):
        yield lo, np.ix_(axis[lo:lo + rows], *[axis] * (arity - 1))


def _grid(table: FiniteAlgebra, elems, bank, subject: str) -> CheckReport:
    """Decide each identity of ``bank`` on every tuple of ``table``.

    ``bank`` is read over :func:`table_view` of the table, and each
    predicate is called with one broadcast index grid per variable on the
    :func:`_slabs` of the first variable in order, until a slab holds a
    False; a temporary holds at most ``_GRID_CELLS`` cells, or two rows of
    the first variable when one row is larger.  A first variable that the
    identity does not read leaves extent 1, so the first slab decides
    every tuple.  The first False in C order is the lexicographically
    first failing tuple; its witness names ``elems[i]`` for index i.
    """
    import numpy as np

    n = table.size
    results = []
    for name, arity, pred in bank:
        witness, checked = None, n ** arity
        for lo, grids in _slabs(n, arity):
            held = np.asarray(pred(*grids))
            first = int(held.argmin())
            if not held.flat[first]:
                # place the slab's entry in the whole grid
                shape = (n,) + held.shape[1:] if lo else held.shape
                first += lo * math.prod(held.shape[1:])
                at = np.unravel_index(first, shape)
                read = [k for k in range(arity) if shape[k] > 1]
                witness = tuple(elems[at[k]] for k in read)
                checked = (first + 1) * n ** (arity - len(read))
                break
            if held.ndim and held.shape[0] == 1:
                break
        results.append(CheckResult(name, witness is None, witness, checked))
    return CheckReport(subject, "exhaustive", tuple(results))


def sample_checks(algebra: Algebra, checks, subject: str, count: int,
                  bound: int, stream_seed) -> CheckReport:
    """Decide each identity of ``checks(view)`` on the :func:`sample_columns`
    stream of ``count`` tuples seeded ``stream_seed(name)``.

    ``view`` is :func:`table_view` of a table algebra and acts on whole
    columns of a block product otherwise, so each predicate is called
    once per chunk of the stream.  The first False in stream order is the
    witness, decoded to elements of ``algebra``, and ``checked`` is its
    position.  Identities that share a seed share their stream.  A block
    product that overrides ``plus`` or ``neg`` is checked through its own
    operations instead, by :func:`run_checks` over the same stream decoded
    by :func:`sample_tuples`, with the same witnesses and counts.
    """
    if algebra._tabled and not isinstance(algebra, FiniteAlgebra):
        return run_checks(checks(algebra), lambda name, arity: sample_tuples(
            algebra, arity, count, random.Random(stream_seed(name)), bound),
            subject, "sample")
    import numpy as np

    form = _columns_of(algebra, count, bound)
    results = []
    for name, arity, pred in checks(form.view()):
        witness, checked = None, 0
        rng = random.Random(stream_seed(name))
        for rows, columns in _chunks(form, arity, count, rng, bound):
            # an identity that reads no variable holds or fails at once
            held = np.asarray(pred(*columns)).ravel()
            first = int(held.argmin())
            if not held[first]:
                witness = tuple(form.decode(c[first:first + 1])[0]
                                for c in columns)
                checked += first + 1
                break
            checked += rows
        results.append(CheckResult(name, witness is None, witness, checked))
    return CheckReport(subject, "sample", tuple(results))


AXIOM_NAMES = (
    "add_assoc",
    "add_comm",
    "zero_unit",
    "neg_involution",
    "one_absorbing",
    "lukasiewicz",
)


def _axiom_checks(A: Algebra):
    one = A.neg(A.zero)
    return [
        ("add_assoc", 3,
         lambda x, y, z: A.plus(A.plus(x, y), z) == A.plus(x, A.plus(y, z))),
        ("add_comm", 2, lambda x, y: A.plus(x, y) == A.plus(y, x)),
        ("zero_unit", 1, lambda x: A.plus(x, A.zero) == x),
        ("neg_involution", 1, lambda x: A.neg(A.neg(x)) == x),
        ("one_absorbing", 1, lambda x: A.plus(x, one) == one),
        ("lukasiewicz", 2,
         lambda x, y: A.plus(A.neg(A.plus(A.neg(x), y)), y)
         == A.plus(A.neg(A.plus(A.neg(y), x)), x)),
    ]


def _derived_checks(A: Algebra):
    one = A.neg(A.zero)
    return [
        ("neg_one_is_zero", 0, lambda: A.neg(one) == A.zero),
        ("plus_from_times", 2,
         lambda x, y: A.plus(x, y) == A.neg(otimes(A, A.neg(x), A.neg(y)))),
        ("one_ceiling", 1, lambda x: A.plus(x, one) == one),
        ("difference_symmetry", 2,
         lambda x, y: A.plus(ominus(A, x, y), y) == A.plus(ominus(A, y, x), x)),
        ("self_arrow_is_one", 1, lambda x: arrow(A, x, x) == one),
        ("dist_separates", 2,
         lambda x, y: (dist(A, x, y) == A.zero) == (x == y)),
    ]


def _lattice_checks(A: Algebra):
    return [
        ("times_over_join", 3,
         lambda x, y, z: otimes(A, x, join(A, y, z))
         == join(A, otimes(A, x, y), otimes(A, x, z))),
        ("times_over_meet", 3,
         lambda x, y, z: otimes(A, x, meet(A, y, z))
         == meet(A, otimes(A, x, y), otimes(A, x, z))),
        ("plus_over_join", 3,
         lambda x, y, z: A.plus(x, join(A, y, z))
         == join(A, A.plus(x, y), A.plus(x, z))),
        ("plus_over_meet", 3,
         lambda x, y, z: A.plus(x, meet(A, y, z))
         == meet(A, A.plus(x, y), A.plus(x, z))),
        ("join_absorption", 2, lambda x, y: join(A, x, meet(A, x, y)) == x),
        ("meet_absorption", 2, lambda x, y: meet(A, x, join(A, x, y)) == x),
    ]


def _bank_grid(algebra: Algebra, checks, subject: str) -> CheckReport:
    """The whole grid (:func:`_grid`) of one of the five identity banks
    (axioms, derived, lattice, recovery and Pixley) on ``to_finite`` of
    the algebra, decided on the chain factors of a table that
    :func:`decompose` certifies.

    Every identity of these banks is a universal Horn sentence: an
    equation, or a quasi-identity such as ``dist_separates``.  A Horn
    sentence that holds in every factor holds in their product, and in
    anything isomorphic to it (Birkhoff; Burris and Sankappanavar, *A
    Course in Universal Algebra*, section II.11).  A certified table is a
    product of the chains Chain(m) for its heights, so when the bank holds
    on the table of each distinct Chain(m), the report is the one the
    whole grid gives on a pass: no witness and ``n**arity`` tuples
    covered per identity.  A table that does not certify (nothing is
    stored on that path), a single chain, the terminal table and a failing
    factor run the whole grid, so every failing report is the whole
    grid's, witnesses and counts included.

    Only these banks are read on the factors: a predicate that is not a
    Horn sentence, such as an order comparison or a disjunction of
    equations, can hold in every factor and fail in the product."""
    table = _grid_table(algebra)
    try:
        heights = decompose(table).heights
    except ValueError:
        heights = ()
    if len(heights) > 1:
        for m in sorted(set(heights)):
            chain = to_finite(make_chain(m))
            bank = checks(table_view(chain))
            if not _grid(chain, range(m + 1), bank, subject).ok:
                break
        else:
            return CheckReport(subject, "exhaustive", tuple(
                CheckResult(name, True, None, table.size ** arity)
                for name, arity, _ in bank))
    return _grid(table, elements(algebra), checks(table_view(table)), subject)


def _check_identities(algebra, checks, subject, mode, count, bound, seed):
    if resolve_mode(algebra, mode) == "exhaustive":
        return _bank_grid(algebra, checks, subject)
    return sample_checks(algebra, checks, subject, count, bound,
                         lambda name: f"{seed}:{name}")


def check_axioms(algebra: Algebra, mode: str = "exhaustive", count: int = 2000,
                 bound: int = _SAMPLE_BOUND, seed: int = 0) -> CheckReport:
    """Verify the six defining identities.

    Exhaustive mode needs a finite carrier.  Sample mode checks each
    identity on the :func:`sample_columns` stream of ``count`` tuples
    seeded ``"{seed}:{name}"``, always including 0, 1 and per-block
    infinitesimals, with coefficients bounded by ``bound``.  ``"auto"``
    picks by :func:`resolve_mode`.
    """
    return _check_identities(algebra, _axiom_checks, "axioms", mode, count,
                             bound, seed)


def check_derived_identities(algebra: Algebra, mode: str = "exhaustive",
                             count: int = 2000, bound: int = _SAMPLE_BOUND,
                             seed: int = 0) -> CheckReport:
    """Consequences of the axioms: de Morgan form of (+), ceiling at one,
    symmetry of truncated differences, separation by the distance term."""
    return _check_identities(algebra, _derived_checks, "derived", mode, count,
                             bound, seed)


def check_lattice_identities(algebra: Algebra, mode: str = "sample",
                             count: int = 500, bound: int = _SAMPLE_BOUND,
                             seed: int = 0) -> CheckReport:
    """Distributivity of (*) and (+) over the derived join and meet, plus
    the absorption laws."""
    return _check_identities(algebra, _lattice_checks, "lattice", mode, count,
                             bound, seed)


# ---------------------------------------------------------------------------
# chain decomposition: every finite MV-algebra is a product of finite
# chains (Cignoli, D'Ottaviano and Mundici, *Algebraic Foundations of
# Many-valued Reasoning*, 2000, section 3.6)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A finite MV-algebra as the product of the chains Chain(m_i).

    ``heights`` holds the m_i.  Element x, its position in
    ``elements(algebra)``, has the levels ``coords[x]``, one per chain,
    and ``support[x]`` has bit i set when its level i is not 0.
    ``codes[x]`` is the mixed-radix code of those levels, the sum of level
    i times ``weights[i]``, so codes run in ``itertools.product`` order of
    the levels, and ``at`` inverts it: ``at[code]`` is the element with
    that code.  ``codes`` and ``at`` are read-only sequences, ranges on a
    block product.  Levels and supports are read off the codes on first
    use."""

    heights: tuple
    weights: tuple
    codes: tuple | range
    at: list | range

    @cached_property
    def coords(self) -> tuple:
        levels = list(itertools.product(*(range(m + 1) for m in self.heights)))
        return tuple(map(levels.__getitem__, self.codes))

    @cached_property
    def support(self) -> tuple:
        return tuple(sum(1 << i for i, v in enumerate(c) if v) for c in self.coords)

    @cached_property
    def view(self) -> SymbolicAlgebra:
        """The product of the chains as a block product, whose elements
        are the level tuples."""
        return SymbolicAlgebra._of_blocks(block(m) for m in self.heights)


def _not_mv(what: str) -> ValueError:
    return ValueError(f"not an MV-algebra: {what}")


def _weights(heights: tuple) -> tuple:
    weights = [1] * len(heights)
    for i in range(len(heights) - 1, 0, -1):
        weights[i - 1] = weights[i] * (heights[i] + 1)
    return tuple(weights)


def _coded(heights: tuple, codes) -> Decomposition:
    """The decomposition in which element x has the code ``codes[x]``, a
    bijection onto the codes: unchecked."""
    codes = tuple(codes)
    return Decomposition(heights, _weights(heights), codes,
                         sorted(range(len(codes)), key=codes.__getitem__))


def _chain_table(heights: tuple, codes) -> tuple:
    """The table of the product of the chains Chain(m_i), m_i in
    ``heights``, whose element x has the mixed-radix code ``codes[x]`` of
    its levels (a bijection onto the codes, unchecked), and the order of
    its chains.  Every table the library derives is laid out here.

    In code order it is the chain formula: with c_i(x) the level i of code
    x and w_i its weight, plus[x][y] = sum w_i min(c_i(x) + c_i(y), m_i)
    and neg[x] = n - 1 - x, built block by block from the last, with zero
    0; the rows are then renumbered through the codes, unless these are
    the code order.  The table keeps its decomposition with the chains in
    the order ``_certify`` finds them, by decreasing atom, so equal tables
    have one decomposition however they were built: chain t of the table
    is chain ``order[t]`` of ``heights``."""
    dec = _coded(heights, codes)
    codes, at = dec.codes, dec.at
    rows, size = [[0]], 1
    for m in reversed(heights):
        chain = [[*range(a, m), *[m] * (a + 1)] for a in range(m + 1)]
        rows = [[u * size + v for u in crow for v in row]
                for crow in chain for row in rows]
        size *= m + 1
    if codes != tuple(range(size)):
        rows = [[at[row[c]] for c in codes] for row in map(rows.__getitem__, codes)]
    table = FiniteAlgebra._of_rows([at[size - 1 - c] for c in codes], rows, at[0])
    order = sorted(range(len(heights)), key=lambda i: -at[heights[i] * dec.weights[i]])
    if order != list(range(len(order))):
        heights = tuple(heights[i] for i in order)
        weights = _weights(heights)
        dec = _coded(heights, [sum(c[i] * w for i, w in zip(order, weights))
                               for c in dec.coords])
    object.__setattr__(table, "_dec", dec)
    return table, order


def _certify(table: FiniteAlgebra) -> Decomposition:
    """Decompose a table into chains and check the result.

    The Boolean elements are the x with x (+) x = x.  Their atoms e_i
    bound the chains [0, e_i], and level i of x is the position of
    x /\\ e_i in its chain.  The levels are checked to be a bijection onto
    the product of the chains, and the table to equal the one
    :func:`_chain_table` lays out through them, in O(n**2) comparisons.  A
    table that passes is a product of chains, hence an MV-algebra; an
    MV-algebra passes, by the structure theorem.  A failure is a ValueError
    naming its first witness: an element or level tuple, then zero, neg(x)
    and plus(x, y) in row-major order."""
    n, neg, plus, zero = table.size, table.neg_row, table.plus_rows, table.zero
    one = neg[zero]
    # atoms in decreasing element order keep the blocks of a to_finite table
    boolean = [x for x in reversed(range(n)) if x != zero and plus[x][x] == x]
    atoms = [e for e in boolean
             if not any(b != e and plus[neg[b]][e] == one for b in boolean)]
    heights, columns = [], []
    for e in atoms:
        chain = [y for y in range(n) if plus[neg[y]][e] == one]
        negs = [neg[z] for z in chain]
        # the level of y counts the other chain elements below it
        level = {y: sum(plus[z][y] == one for z in negs)
                 - (plus[neg[y]][y] == one) for y in chain}
        column = []
        for x in range(n):
            nx = neg[x]
            meet_e = neg[plus[nx][neg[plus[nx][e]]]]
            if meet_e not in level:
                raise _not_mv(f"{x} meets the atom {e} outside the chain below it")
            column.append(level[meet_e])
        heights.append(len(chain) - 1)
        columns.append(column)
    coords = list(zip(*columns)) if columns else [()] * n
    first = {}
    for x, c in enumerate(coords):
        y = first.setdefault(c, x)
        if y != x:
            raise _not_mv(f"elements {y} and {x} both have levels {list(c)}")
    if len(first) != math.prod(m + 1 for m in heights):
        missing = next(c for c in itertools.product(*(range(m + 1) for m in heights))
                       if c not in first)
        raise _not_mv(f"no element has levels {list(missing)}")
    weights = _weights(heights)
    ref, _ = _chain_table(tuple(heights), [sum(map(operator.mul, c, weights)) for c in coords])
    if zero != ref.zero:
        raise _not_mv(f"zero {zero} has levels {list(coords[zero])}")
    if neg != ref.neg_row:
        x = next(x for x in range(n) if neg[x] != ref.neg_row[x])
        raise _not_mv(f"neg({x}) = {neg[x]} is not the levelwise negation")
    if plus != ref.plus_rows:
        x, y = next((x, y) for x in range(n) for y in range(n)
                    if plus[x][y] != ref.plus_rows[x][y])
        raise _not_mv(f"plus({x}, {y}) = {plus[x][y]} is not the levelwise truncated sum")
    dec = ref._dec
    dec.__dict__["coords"] = tuple(coords)
    return dec


def decompose(algebra: Algebra) -> Decomposition:
    """The chain decomposition of a finite-carrier algebra, made on first
    use and kept by the algebra; an infinite carrier is refused first.

    A ``_tabled`` algebra, a table or a block product that overrides
    ``plus`` or ``neg``, is certified as its table; one that is not an
    MV-algebra is a ValueError naming a witness, whose text the algebra
    keeps, so a later call raises it again without certifying again.  A
    block product of chains is its own decomposition, read off its
    blocks: element x of ``elements`` has code x, so nothing is
    enumerated or checked."""
    if getattr(algebra, "_dec", None) is None:
        if algebra._tabled:
            refusal = getattr(algebra, "_refusal", None)
            if refusal is not None:
                raise ValueError(refusal)
            table = to_finite(algebra)
            try:
                dec = _certify(table)
            except ValueError as exc:
                object.__setattr__(algebra, "_refusal", str(exc))
                raise
        else:
            heights = _chain_heights(algebra)
            codes = range(math.prod(m + 1 for m in heights))
            dec = Decomposition(heights, _weights(heights), codes, codes)
        object.__setattr__(algebra, "_dec", dec)
    return algebra._dec


def _view(algebra: Algebra) -> SymbolicAlgebra:
    """The chain view: the block product that marker ideals and CoordMap
    rows index.  A block product is its own; a ``_tabled`` algebra, a
    table or a block product that overrides its operations, is read as the
    product of its certified chains (:func:`decompose`)."""
    return decompose(algebra).view if algebra._tabled else algebra


def _levels(algebra: Algebra):
    """x -> x as an element of the chain view (an override's by its code)."""
    if not algebra._tabled:
        return lambda x: x
    coords = decompose(algebra).coords
    if isinstance(algebra, FiniteAlgebra):
        return coords.__getitem__
    weights = _weights(_chain_heights(algebra))
    return lambda x: coords[sum(map(operator.mul, x, weights))]


# ---------------------------------------------------------------------------
# object classification and isomorphism


def is_terminal_object(algebra: Algebra) -> bool:
    return carrier_size(algebra) == 1


def canonical_blocks(algebra: Algebra) -> tuple:
    """Block multiset of the chain view (:func:`_view`) in a normal form
    independent of construction order."""
    return tuple(sorted(_view(algebra).blocks, key=lambda b: (b.r > 0, b.m, b.r)))


def are_isomorphic(a: Algebra, b: Algebra) -> bool:
    """Isomorphism test: block products compare block multisets (a direct
    product of chain and Komori blocks determines them), and a table is
    read as the product of the chains of its decomposition.  So two
    finite MV-algebras are isomorphic exactly when their chain heights
    agree, a table is not isomorphic to an infinite carrier, and a table
    that is not an MV-algebra is refused whatever the other side."""
    return canonical_blocks(a) == canonical_blocks(b)
