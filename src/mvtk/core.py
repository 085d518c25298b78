"""Carriers and operations for MV-algebras in two regimes.

A finite algebra stores its operation tables outright.  A symbolic algebra
is a product of blocks, each either a finite chain [0, m] or a Komori block
built from the lexicographic product Z x_lex Z^r truncated at (m, 0); the
latter has an infinite carrier, so all exhaustive questions about it go
through markers or sampling rather than enumeration.

Elements of a symbolic algebra are tuples with one entry per block: an int
for a chain block, an ``(a, bvec)`` pair for a Komori block.  The terminal
algebra is the empty product; its only element is ``()``.

numpy is imported inside the functions that build a table's arrays, an
exhaustive grid or a sampled stream, so work on symbolic algebras never
loads it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from types import SimpleNamespace

__all__ = [
    "Chain",
    "Komori",
    "SymbolicAlgebra",
    "FiniteAlgebra",
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
    "hom_tables",
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


def _block_zero(b: Block):
    if isinstance(b, Chain):
        return 0
    return (0, (0,) * b.r)


def _block_one(b: Block):
    if isinstance(b, Chain):
        return b.m
    return (b.m, (0,) * b.r)


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
    algebra (empty block tuple) has exactly one representation.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(blocks)
        for b in blocks:
            if not isinstance(b, (Chain, Komori)):
                raise TypeError(f"not a block: {b!r}")
        object.__setattr__(self, "blocks", tuple(b for b in blocks if b.m))

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicAlgebra is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolicAlgebra) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(("sym", self.blocks))

    def __repr__(self) -> str:
        if not self.blocks:
            return "SymbolicAlgebra(terminal)"
        return "SymbolicAlgebra(%s)" % " x ".join(repr(b) for b in self.blocks)

    @property
    def zero(self):
        return tuple(_block_zero(b) for b in self.blocks)

    @property
    def one(self):
        return tuple(_block_one(b) for b in self.blocks)

    @property
    def is_terminal(self) -> bool:
        return not self.blocks

    def contains(self, x) -> bool:
        if not isinstance(x, tuple) or len(x) != len(self.blocks):
            return False
        return all(_block_contains(b, v) for b, v in zip(self.blocks, x))

    def plus(self, x, y):
        return tuple(_block_plus(b, u, v) for b, u, v in zip(self.blocks, x, y))

    def neg(self, x):
        return tuple(_block_neg(b, v) for b, v in zip(self.blocks, x))

    def finite_carrier_size(self) -> int | None:
        """Number of elements, or None when some block is a Komori block."""
        n = 1
        for b in self.blocks:
            if b.r:
                return None
            n *= b.m + 1
        return n


class FiniteAlgebra:
    """Algebra given by explicit tables over {0, ..., n-1}.

    Tables are stored as nested tuples so instances hash and compare by
    value.  Nothing here assumes the tables satisfy the axioms; corrupted
    tables are legal inputs for the checkers.
    """

    __slots__ = ("size", "zero", "neg_row", "plus_rows", "_np")

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
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "neg_row", neg_row)
        object.__setattr__(self, "plus_rows", plus_rows)
        object.__setattr__(self, "_np", None)

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
    """Direct product.  All symbolic factors give a symbolic product;
    otherwise every factor must have a finite carrier and the result is a
    table algebra (use :func:`to_finite` on symbolic factors first)."""
    algebras = list(algebras)
    if all(isinstance(a, SymbolicAlgebra) for a in algebras):
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
    if isinstance(algebra, FiniteAlgebra):
        return algebra.size
    return algebra.finite_carrier_size()


def elements(algebra: Algebra):
    """All elements, in a fixed order.  Raises on infinite carriers."""
    if isinstance(algebra, FiniteAlgebra):
        return list(range(algebra.size))
    per_block = []
    for b in algebra.blocks:
        if b.r:
            raise ValueError(f"cannot enumerate infinite carrier of {b!r}")
        per_block.append(range(b.m + 1))
    return [tuple(e) for e in itertools.product(*per_block)]


def to_finite(algebra: Algebra) -> FiniteAlgebra:
    """Table form of a finite-carrier algebra.  Element i of the result is
    ``elements(algebra)[i]``."""
    if isinstance(algebra, FiniteAlgebra):
        return algebra
    return table_on(elements(algebra), algebra.plus, algebra.neg, algebra.zero)


def table_on(elems, plus, neg, zero) -> FiniteAlgebra:
    """The table algebra whose element i is ``elems[i]``, under ``plus``
    and ``neg``, which must map ``elems`` into itself."""
    index = {e: i for i, e in enumerate(elems)}
    return FiniteAlgebra([index[neg(e)] for e in elems],
                         [[index[plus(e, f)] for f in elems] for e in elems],
                         index[zero])


def describe(algebra: Algebra) -> str:
    if isinstance(algebra, FiniteAlgebra):
        return f"finite[{algebra.size}]"
    if algebra.is_terminal:
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

        rows = [[v for b, x in zip(self.blocks, e)
                 for v in ((x,) if isinstance(b, Chain) else (x[0], *x[1]))]
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

    ``checked`` counts the tuples decided: every tuple when the identity
    holds, otherwise the tuples up to and including ``witness``, in
    lexicographic order when exhaustive and in the order of the
    :func:`sample_columns` stream when sampled, where the witness is the
    first failing row, decoded to elements.  A sampled identity that
    reads no variable (arity 0) holds on all ``count`` rows or fails at
    the first, with witness ``()``.  An exhaustive identity that does not read one of its variables is
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


def resolve_mode(algebra: Algebra, mode: str) -> str:
    """The mode a check runs in: ``"auto"`` is exhaustive on a finite
    carrier and sampling otherwise."""
    if mode == "auto":
        mode = "exhaustive" if carrier_size(algebra) is not None else "sample"
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive" and carrier_size(algebra) is None:
        raise ValueError("exhaustive mode requires a finite carrier")
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


def grid_checks(algebra: Algebra, checks, subject: str) -> CheckReport:
    """Decide each identity of ``checks(view)`` on every tuple at once.

    ``view`` is :func:`table_view` of ``to_finite(algebra)``, so each
    predicate is called once, with one broadcast index grid per variable;
    memory is O(n**arity).  The first False in C order is the
    lexicographically first failing tuple; witnesses are elements of
    ``algebra``.
    """
    import numpy as np

    table = to_finite(algebra)
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


def sample_checks(algebra: Algebra, checks, subject: str, count: int,
                  bound: int, stream_seed) -> CheckReport:
    """Decide each identity of ``checks(view)`` on the :func:`sample_columns`
    stream of ``count`` tuples seeded ``stream_seed(name)``.

    ``view`` is :func:`table_view` of a table algebra and acts on whole
    columns of a block product otherwise, so each predicate is called
    once per chunk of the stream.  The first False in stream order is the
    witness, decoded to elements of ``algebra``, and ``checked`` is its
    position.  Identities that share a seed share their stream.
    """
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


def _check_identities(algebra, checks, subject, mode, count, bound, seed):
    if resolve_mode(algebra, mode) == "exhaustive":
        return grid_checks(algebra, checks, subject)
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
# object classification and isomorphism


def is_terminal_object(algebra: Algebra) -> bool:
    return carrier_size(algebra) == 1


def canonical_blocks(algebra: SymbolicAlgebra) -> tuple:
    """Block multiset in a normal form independent of construction order."""
    return tuple(sorted(algebra.blocks, key=lambda b: (b.r > 0, b.m, b.r)))


def are_isomorphic(a: Algebra, b: Algebra) -> bool:
    """Isomorphism test.  Symbolic pairs compare block multisets (a direct
    product of chain and Komori blocks determines them); mixed or finite
    pairs search for a bijective table morphism."""
    if isinstance(a, SymbolicAlgebra) and isinstance(b, SymbolicAlgebra):
        return canonical_blocks(a) == canonical_blocks(b)
    na, nb = carrier_size(a), carrier_size(b)
    if na is None or nb is None:
        # one side infinite: finite side can only match if sizes agree
        return False
    if na != nb:
        return False
    return bool(hom_tables(to_finite(a), to_finite(b), bijective=True, limit=1))


# ---------------------------------------------------------------------------
# morphism table search


def _propagate(A: FiniteAlgebra, B: FiniteAlgebra, table, x, v, used):
    """Assign table[x] = v and close under neg and plus against everything
    already assigned.  Mutates table (and used, when injective search);
    returns the list of newly assigned points or None on contradiction."""
    stack = [(x, v)]
    added = []
    while stack:
        x, v = stack.pop()
        cur = table[x]
        if cur is not None:
            if cur != v:
                _undo(table, used, added)
                return None
            continue
        if used is not None:
            if v in used:
                _undo(table, used, added)
                return None
            used.add(v)
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


def _undo(table, used, added):
    for x in added:
        if used is not None:
            used.discard(table[x])
        table[x] = None


def hom_tables(A: FiniteAlgebra, B: FiniteAlgebra, bijective: bool = False,
               limit: int | None = None) -> list[tuple[int, ...]]:
    """All homomorphism tables A -> B (zero-, plus- and neg-preserving),
    found by backtracking with closure propagation.  Deterministic order.
    ``bijective`` restricts to bijections; ``limit`` stops early."""
    if bijective and A.size != B.size:
        return []
    out: list[tuple[int, ...]] = []
    table: list[int | None] = [None] * A.size
    used: set[int] | None = set() if bijective else None
    seed = _propagate(A, B, table, A.zero, B.zero, used)
    if seed is None:
        return out

    def rec() -> bool:
        if limit is not None and len(out) >= limit:
            return True
        x = next((i for i, v in enumerate(table) if v is None), None)
        if x is None:
            out.append(tuple(table))  # type: ignore[arg-type]
            return limit is not None and len(out) >= limit
        for v in range(B.size):
            added = _propagate(A, B, table, x, v, used)
            if added is None:
                continue
            if rec():
                return True
            _undo(table, used, added)
        return False

    rec()
    _undo(table, used, seed)
    return out
