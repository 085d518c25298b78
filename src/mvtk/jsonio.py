"""JSON forms for algebras, ideals, morphisms and groups.

Block algebras are lists of {"chain": m} / {"komori": {"m": ..., "r": ...}}
entries; finite tables carry explicit neg and plus tables.  Infinitesimal
coordinates and block indices are one-based on the wire and zero-based in
memory.  Morphisms are kind-tagged objects; the derived kinds (radical
projection, perfect inclusion, radical indicator) are rebuilt through
their factories rather than stored pointwise.

Algebras and reports need only ``core``: the readers and writers of
ideals, morphisms and groups import ``ideals``, ``morphisms``,
``pretorsion`` or ``mundici`` when they are called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import (
    Algebra,
    Chain,
    FiniteAlgebra,
    Komori,
    SymbolicAlgebra,
    make_finite,
)

if TYPE_CHECKING:
    from .ideals import Ideal
    from .morphisms import Morphism
    from .mundici import LexGroup

__all__ = [
    "jsonable",
    "parse_algebra",
    "algebra_to_json",
    "parse_ideal",
    "ideal_to_json",
    "parse_morphism",
    "parse_square",
    "parse_group",
    "group_to_json",
    "report_to_json",
]


def jsonable(x):
    """Best-effort conversion to JSON-serializable data."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(jsonable(v) for v in x)
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    from .ideals import FiniteIdeal, MarkerIdeal

    if isinstance(x, (FiniteIdeal, MarkerIdeal)):
        return jsonable(x.elements if isinstance(x, FiniteIdeal) else x.markers)
    return repr(x)


def _int(value, what: str) -> int:
    """An integer from the wire; bools and floats are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def parse_algebra(obj) -> Algebra:
    if not isinstance(obj, dict):
        raise ValueError("algebra must be an object")
    if "finite" in obj:
        spec = obj["finite"]
        neg = tuple(_int(v, "neg entry") for v in spec["neg"])
        plus = tuple(tuple(_int(v, "plus entry") for v in row)
                     for row in spec["plus"])
        alg = make_finite(neg, plus, _int(spec.get("zero", 0), "zero"))
        if "size" in spec and _int(spec["size"], "size") != alg.size:
            raise ValueError("declared size does not match the tables")
        return alg
    if "blocks" not in obj:
        raise ValueError("algebra needs 'blocks' or 'finite'")
    blocks = []
    for entry in obj["blocks"]:
        if "chain" in entry:
            blocks.append(Chain(_int(entry["chain"], "chain bound")))
        elif "komori" in entry:
            spec = entry["komori"]
            blocks.append(Komori(_int(spec["m"], "komori bound"),
                                 _int(spec["r"], "komori rank")))
        else:
            raise ValueError(f"unknown block {entry!r}")
    return SymbolicAlgebra(blocks)


def algebra_to_json(algebra: Algebra):
    if isinstance(algebra, FiniteAlgebra):
        return {"finite": {"size": algebra.size, "zero": algebra.zero,
                           "neg": list(algebra.neg_row),
                           "plus": [list(r) for r in algebra.plus_rows]}}
    out = []
    for b in algebra.blocks:
        if isinstance(b, Chain):
            out.append({"chain": b.m})
        else:
            out.append({"komori": {"m": b.m, "r": b.r}})
    return {"blocks": out}


def parse_ideal(algebra: Algebra, obj) -> Ideal:
    from .ideals import FiniteIdeal, MarkerIdeal, validate_ideal

    if "elements" in obj:
        if isinstance(algebra, FiniteAlgebra):
            return validate_ideal(algebra, FiniteIdeal(frozenset(
                _int(e, "ideal element") for e in obj["elements"])))
        raise ValueError("element lists describe ideals of finite tables only")
    if "markers" not in obj:
        raise ValueError("ideal needs 'elements' or 'markers'")
    markers = []
    for mk in obj["markers"]:
        if mk in ("zero", "full"):
            markers.append(mk)
        elif isinstance(mk, dict) and "sub" in mk:
            markers.append(("sub", frozenset(_int(c, "coordinate") - 1
                                             for c in mk["sub"])))
        else:
            raise ValueError(f"unknown marker {mk!r}")
    return validate_ideal(algebra, MarkerIdeal(tuple(markers)))


def ideal_to_json(algebra: Algebra, ideal: Ideal):
    from .ideals import FiniteIdeal, validate_ideal

    ideal = validate_ideal(algebra, ideal)
    if isinstance(ideal, FiniteIdeal):
        return {"elements": sorted(ideal.elements)}
    out = []
    for mk in ideal.markers:
        if isinstance(mk, str):
            out.append(mk)
        else:
            out.append({"sub": sorted(c + 1 for c in mk[1])})
    return {"markers": out}


def parse_morphism(obj) -> Morphism:
    from .morphisms import (
        FiniteMapBody,
        Morphism,
        _copies,
        _quotient,
        compose,
        from_initial,
        identity,
        is_morphism,
        to_terminal,
    )
    from .pretorsion import (
        perfect_inclusion,
        radical_indicator,
        radical_projection,
    )

    if not isinstance(obj, dict):
        raise ValueError(f"morphism must be an object, got {type(obj).__name__}")
    # the morphism kinds built from their algebra alone
    factories = {
        "radical_projection": radical_projection,
        "perfect_inclusion": perfect_inclusion,
        "radical_indicator": radical_indicator,
        "identity": identity,
        "to_terminal": to_terminal,
        "from_initial": from_initial,
    }
    kind = obj.get("kind")
    if isinstance(kind, str) and kind in factories:
        return factories[kind](parse_algebra(obj["algebra"]))
    if kind in ("quotient", "block_projection"):
        algebra = parse_algebra(obj["algebra"])
        if kind == "quotient":
            return _quotient(algebra, parse_ideal(algebra, obj["ideal"]),
                             "quotient").projection
        if not isinstance(algebra, SymbolicAlgebra):
            raise ValueError("block projections need a block algebra")
        n = len(algebra.blocks)
        kept = obj["kept"]
        if not (isinstance(kept, list)
                and all(type(i) is int and 1 <= i <= n for i in kept)
                and len(set(kept)) == len(kept)):
            raise ValueError(f"'kept' must list distinct block numbers "
                             f"between 1 and {n}")
        kept = tuple(i - 1 for i in kept)
        cod = SymbolicAlgebra([algebra.blocks[i] for i in kept])
        return Morphism(algebra, cod, _copies(algebra, kept),
                        "block_projection")
    if kind == "table":
        dom = parse_algebra(obj["dom"])
        cod = parse_algebra(obj["cod"])
        if not isinstance(dom, FiniteAlgebra) or not isinstance(cod, FiniteAlgebra):
            raise ValueError("pointwise tables need finite carriers")
        table = obj["table"]
        if not isinstance(table, list) or len(table) != dom.size:
            raise ValueError(f"table needs one value per domain element "
                             f"({dom.size})")
        if not all(type(v) is int and 0 <= v < cod.size for v in table):
            raise ValueError(f"table values must lie in 0..{cod.size - 1}")
        m = Morphism(dom, cod, FiniteMapBody(tuple(table)), "table")
        if m.body.coords is None:
            # a table that does not decode fails a law; name where
            broken = is_morphism(m, mode="exhaustive").counterexample()
            raise ValueError(f"table is not a homomorphism: {broken[0]} "
                             f"fails at {list(broken[1])}")
        return m
    if kind == "compose":
        parts = obj["parts"]
        if not (isinstance(parts, list) and parts):
            raise ValueError("'parts' must be a non-empty list of morphisms")
        try:
            parts = [parse_morphism(p) for p in parts]
        except RecursionError:
            raise ValueError("input nested too deeply") from None
        out = parts[0]
        for p in parts[1:]:
            out = compose(out, p)
        return out
    raise ValueError(f"unknown morphism kind {kind!r}")


def parse_square(obj):
    from .galois2 import ExtensionSquare, _square_from_ideals

    if "algebra" in obj:
        algebra = parse_algebra(obj["algebra"])
        i = parse_ideal(algebra, obj["ideal_i"])
        j = parse_ideal(algebra, obj["ideal_j"])
        return _square_from_ideals(algebra, i, j)
    return ExtensionSquare(top=parse_morphism(obj["top"]),
                           left=parse_morphism(obj["left"]),
                           right=parse_morphism(obj["right"]),
                           bottom=parse_morphism(obj["bottom"]))


def parse_group(obj) -> LexGroup:
    from .mundici import make_group

    return make_group((_int(b["rank"], "group rank"),
                       tuple(_int(u, "unit entry") for u in b["unit"]))
                      for b in obj["blocks"])


def group_to_json(group: LexGroup):
    return {"blocks": [{"rank": b.rank, "unit": list(b.unit)}
                       for b in group.blocks]}


def report_to_json(report):
    return {
        "subject": report.subject,
        "mode": report.mode,
        "ok": report.ok,
        "results": [
            {"name": r.name, "ok": r.ok, "checked": r.checked,
             "witness": jsonable(r.witness)}
            for r in report.results
        ],
    }
