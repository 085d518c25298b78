"""Command line front end.

Every subcommand reads a JSON description, prints a JSON report (sorted
keys, so byte-identical under a fixed seed), and exits 0 on success, 1
when a check or an ``--expect`` assertion fails, 2 on malformed input.
A reader that closes stdout before the report is written, such as
``mvtk gamma group.json | head -1``, ends the command with exit 1 and no
traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .catalog import chain_product_catalog
from .core import (
    carrier_size,
    check_axioms,
    check_derived_identities,
    check_lattice_identities,
    describe,
    elements,
)
from .galois import classify_extension, em_factorize
from .galois2 import classify_double, commutator_pair, is_regular_pushout
from .ideals import all_ideals, radical
from .jsonio import (
    algebra_to_json,
    ideal_to_json,
    jsonable,
    parse_algebra,
    parse_group,
    parse_ideal,
    parse_morphism,
    parse_square,
    report_to_json,
)
from .morphisms import enumerate_homs
from .mundici import (
    gamma_ops_agree,
    group_laws_check,
    interval_algebra,
    order_unit_check,
)
from .pretorsion import (
    is_perfect,
    is_precokernel,
    is_prekernel,
    is_semisimple,
    pre_exact,
)
from .terms import verify_pixley, verify_protomodularity

__all__ = ["main"]


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("input nested too deeply") from None


def _probe_report(rep):
    return {"ok": rep.ok, "checked": rep.checked, "skipped": rep.skipped,
            "failures": jsonable(rep.failures), "reason": rep.reason}


def _expected(args, payload, ok, holds):
    """The payload and ``ok``; under ``--expect p`` also whether property p
    holds (``not-p``: whether it fails), recorded in the payload."""
    if args.expect:
        payload["expected"] = args.expect
        negated = args.expect.startswith("not-")
        ok = ok and bool(holds[args.expect.removeprefix("not-")]) != negated
    return payload, ok


def cmd_check_axioms(args):
    algebra = parse_algebra(_load(args.file))
    reports = {
        "axioms": check_axioms(algebra, mode=args.mode, count=args.count,
                               bound=args.bound, seed=args.seed),
        "derived": check_derived_identities(algebra, mode=args.mode,
                                            count=args.count,
                                            bound=args.bound, seed=args.seed),
        "lattice": check_lattice_identities(algebra, mode="sample",
                                            count=args.count,
                                            bound=args.bound, seed=args.seed),
    }
    payload = {k: report_to_json(v) for k, v in reports.items()}
    payload["algebra"] = describe(algebra)
    return payload, all(v.ok for v in reports.values())


def cmd_radical(args):
    algebra = parse_algebra(_load(args.file))
    by_method = {m: radical(algebra, method=m)
                 for m in ("inf", "maximal", "nilpotent")}
    agree = all(v == by_method["inf"] for v in by_method.values())
    payload = {
        "algebra": describe(algebra),
        "radical": ideal_to_json(algebra, by_method["inf"]),
        "methods_agree": agree,
        "semisimple": is_semisimple(algebra),
        "perfect": is_perfect(algebra),
    }
    return _expected(args, payload, agree, payload)


def cmd_ideals(args):
    algebra = parse_algebra(_load(args.file))
    ideals = all_ideals(algebra)
    payload = {
        "algebra": describe(algebra),
        "count": len(ideals),
        "ideals": [ideal_to_json(algebra, i) for i in ideals],
    }
    return payload, True


def cmd_homs(args):
    spec = _load(args.file)
    dom = parse_algebra(spec["dom"])
    cod = parse_algebra(spec["cod"])
    homs = enumerate_homs(dom, cod)
    cod_index = {x: i for i, x in enumerate(elements(cod))}
    tables = [[cod_index[h._eval(x)] for x in elements(dom)] for h in homs]
    payload = {
        "dom": describe(dom),
        "cod": describe(cod),
        "count": len(homs),
        "tables": sorted(tables),
    }
    return payload, True


def cmd_classify(args):
    f = parse_morphism(_load(args.file))
    cl = classify_extension(f)
    payload = {
        "surjective": cl.surjective,
        "trivial": cl.trivial,
        "central": cl.central,
        "normal": cl.normal,
        "kernel": ideal_to_json(f.dom, cl.kernel),
        "kernel_meet_radical": ideal_to_json(f.dom, cl.radical_meet),
        "kernel_in_radical_polar": cl.kernel_in_radical_polar,
    }
    return _expected(args, payload, True, {
        "trivial": cl.trivial, "central": cl.central, "normal": cl.normal,
        "surjective": cl.surjective})


def cmd_factorize(args):
    f = parse_morphism(_load(args.file))
    em = em_factorize(f)
    payload = {
        "theta": ideal_to_json(f.dom, em.theta),
        "middle": describe(em.middle),
        "surjection_kernel": ideal_to_json(f.dom, em.e.kernel()),
        "embedding_kernel": ideal_to_json(em.middle, em.m.kernel()),
    }
    return payload, True


def cmd_pretorsion(args):
    algebra = parse_algebra(_load(args.file))
    seq = pre_exact(algebra)
    pk = is_prekernel(seq.inclusion, seq.projection)
    pc = is_precokernel(seq.projection, seq.inclusion)
    payload = {
        "algebra": describe(algebra),
        "perfect_part": describe(seq.perfect.algebra),
        "semisimple_quotient": describe(seq.semisimple.algebra),
        "prekernel": _probe_report(pk),
        "precokernel": _probe_report(pc),
    }
    return payload, pk.ok and pc.ok


def cmd_square_classify(args):
    sq = parse_square(_load(args.file))
    rp = is_regular_pushout(sq)
    payload = {"regular_pushout": rp.ok,
               "comparison_surjective": rp.comparison_surjective}
    holds = {}
    if rp.ok:
        dc = classify_double(sq)
        payload["central"] = dc.central
        payload["kernel_meet"] = jsonable(dc.meet)
        holds["central"] = dc.central
    return _expected(args, payload, rp.ok, holds)


def cmd_commutator(args):
    spec = _load(args.file)
    algebra = parse_algebra(spec["algebra"])
    i = parse_ideal(algebra, spec["ideal_i"])
    j = parse_ideal(algebra, spec["ideal_j"])
    rep = commutator_pair(algebra, i, j)
    payload = {
        "algebra": describe(algebra),
        "commutator": ideal_to_json(algebra, rep.ideal),
        "subalgebra": describe(rep.subalgebra.algebra),
        "in_center": rep.in_center,
        "style": rep.style,
        "base": describe(rep.base),
        "double_central": rep.double_central,
        "radical_compatible": rep.radical_compatible,
    }
    return _expected(args, payload, True, {"central": rep.in_center})


def cmd_terms(args):
    algebra = parse_algebra(_load(args.file))
    proto = verify_protomodularity(algebra, mode=args.mode, count=args.count,
                                   bound=args.bound, seed=args.seed)
    pixley = verify_pixley(algebra, mode=args.mode, count=args.count,
                           bound=args.bound, seed=args.seed)
    payload = {
        "algebra": describe(algebra),
        "protomodularity": report_to_json(proto),
        "pixley": report_to_json(pixley),
    }
    return payload, proto.ok and pixley.ok


def cmd_gamma(args):
    group = parse_group(_load(args.file))
    unit = order_unit_check(group)
    laws = group_laws_check(group, count=args.count, bound=args.bound,
                            seed=args.seed)
    payload = {
        "order_unit": {"ok": unit.ok, "witness": jsonable(unit.witness),
                       "reason": unit.reason},
        "laws": report_to_json(laws),
    }
    ok = unit.ok and laws.ok
    try:
        algebra = interval_algebra(group)
        payload["interval"] = algebra_to_json(algebra)
        payload["interval_describe"] = describe(algebra)
        agree = gamma_ops_agree(group, count=args.count, bound=args.bound,
                                seed=args.seed)
        payload["ops_agree"] = report_to_json(agree)
        ok = ok and agree.ok
    except ValueError as exc:
        payload["interval"] = None
        payload["interval_error"] = str(exc)
        ok = False
    return payload, ok


def cmd_catalog(args):
    algebras = chain_product_catalog(args.max_size)
    payload = {
        "max_size": args.max_size,
        "count": len(algebras),
        "algebras": [{"describe": describe(a), "size": carrier_size(a),
                      "blocks": algebra_to_json(a)["blocks"]}
                     for a in algebras],
    }
    return payload, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvtk",
        description="checks and constructions for chain and Komori block "
                    "algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, handler, file_arg=True, expect=()):
        p = sub.add_parser(name, help=func)
        if file_arg:
            p.add_argument("file", help="input JSON file")
        p.add_argument("-o", "--output", help="write the report here "
                                              "instead of stdout")
        if expect:
            p.add_argument("--expect", choices=expect,
                           help="fail unless this property holds")
        p.set_defaults(func=handler)
        return p

    def sampling(p, mode=True):
        """The options of a subcommand that checks identities on samples."""
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--count", type=int, default=400)
        p.add_argument("--bound", type=int, default=6)
        if mode:
            p.add_argument("--mode", choices=("auto", "exhaustive", "sample"),
                           default="auto")

    centrality = ("central", "not-central")
    sampling(add("check-axioms", "axioms, derived and lattice identities",
                 cmd_check_axioms))
    add("radical", "radical by three methods, semisimplicity, perfection",
        cmd_radical, expect=("semisimple", "perfect"))
    add("ideals", "enumerate all ideals", cmd_ideals)
    add("homs", "enumerate homomorphisms between finite carriers", cmd_homs)
    add("classify", "trivial / central / normal classification of a map",
        cmd_classify, expect=("trivial", "central", "normal", "surjective",
                              "not-trivial", "not-central"))
    add("factorize", "surjection-embedding factorization through the "
        "central quotient", cmd_factorize)
    add("pretorsion", "perfect part, semisimple quotient, and their "
        "universal properties", cmd_pretorsion)
    add("square-classify", "regular pushout and double centrality",
        cmd_square_classify, expect=centrality)
    add("commutator", "commutator of two ideals with witnessing square",
        cmd_commutator, expect=centrality)
    sampling(add("terms", "protomodularity and Pixley term identities",
                 cmd_terms))
    sampling(add("gamma", "order unit, group laws, unit interval agreement",
                 cmd_gamma), mode=False)
    p = add("catalog", "finite algebras up to isomorphism", cmd_catalog,
            file_arg=False)
    p.add_argument("--max-size", type=int, default=8)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, ok = args.func(args)
    except (ValueError, KeyError, TypeError, NotImplementedError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the interpreter flushes stdout again at exit; devnull takes
            # what is left so that flush cannot fail as well
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
