"""End-to-end verification gates.

Eleven gates, each covering one headline guarantee of the toolkit:

  1.  axioms and derived identities on every catalog algebra and on
      seeded samples from every Komori constructor
  2.  agreement of the three radical characterizations with the literal
      infinitesimal scan on tables
  3.  the kernel restriction harness (positive and negative squares)
  4.  triviality of every hom from a perfect algebra to a semisimple
      one, and pre-exactness of the canonical sequence
  5.  existence and uniqueness of unit and counit factorizations,
      cross-checked by literal hom enumeration
  6.  coherence of the extension classification (trivial, central,
      normal, polar containment) and the literal pullback test
  7.  the (surjection with radical kernel, radical-disjoint kernel)
      factorization system: splits, diagonal fill-ins, stability
  8.  protomodularity and Pixley term identities, with a corrupted
      table as negative control
  9.  regular pushout recognition versus comparison surjectivity, and
      double extension centrality versus the commutator
  10. the unit interval functor on lexicographic groups and the
      semidirect decomposition formulas
  11. JSON schema round trips on every shipped fixture and byte
      reproducibility of seeded CLI runs

Each gate prints a single PASS or FAIL line with its counts on the
real terminal, so a full run always shows the scoreboard even under
output capture.  Checks are accumulated into a problem list first;
the printed verdict therefore reflects every sub-check of the gate.
"""

import io
import itertools
import json
import pathlib
import random
import contextlib

import mvtk
from mvtk import (
    ExtensionSquare,
    FiniteIdeal,
    all_ideals,
    carrier_size,
    chain_product_catalog,
    check_axioms,
    check_derived_identities,
    classify_double,
    classify_extension,
    central_reflection,
    commutator_pair,
    compose,
    counit_factorization,
    describe,
    e_member,
    em_factorize,
    enumerate_homs,
    factor_through_quotient,
    fill_diagonal,
    from_initial,
    full_ideal,
    identity,
    ideal_join,
    ideal_leq,
    ideal_meet,
    image_set,
    is_perfect,
    is_precokernel,
    is_prekernel,
    is_regular_pushout,
    is_semisimple,
    is_trivial_morphism,
    is_zero_ideal,
    kernel_restriction_harness,
    m_member,
    make_chain,
    make_komori,
    perfect_part,
    polar,
    pre_exact,
    product,
    quotient,
    radical,
    radical_projection,
    random_block_algebra,
    same_morphism,
    semisimple_quotient,
    square_from_ideals,
    stability_check,
    to_finite,
    trivial_via_pullback,
    unit_factorization,
    verify_pixley,
    verify_protomodularity,
    zero_ideal,
)
from mvtk.mundici import (
    gamma_ops_agree,
    group_add,
    group_join,
    group_laws_check,
    interval_algebra,
    make_group,
    order_unit_check,
    random_group_element,
    semidirect_join,
    semidirect_sum,
)
from mvtk import cli, jsonio
from oracles import infinitesimals

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

CATALOG = chain_product_catalog(60)
FINITE = [to_finite(a) for a in CATALOG]
SMALL = [to_finite(a) for a in chain_product_catalog(6)]


def gate(capsys, line, problems):
    verdict = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"{verdict} {line}", flush=True)
    assert not problems, (line, problems[:5])


def ideals_equal(algebra, left, right):
    return ideal_leq(algebra, left, right) and ideal_leq(algebra, right, left)


def test_axioms_every_algebra(capsys):
    """Axioms and derived identities hold everywhere, without exception."""
    bad = []
    for fin in FINITE:
        for rep in (check_axioms(fin), check_derived_identities(fin)):
            for res in rep.results:
                if not res.ok:
                    bad.append((describe(fin), res.name, res.witness))
    sampled = 0
    for m in range(1, 4):
        for r in range(1, 4):
            alg = make_komori(m, r)
            for rep in (check_axioms(alg, mode="sample", count=10000, seed=m * 10 + r),
                        check_derived_identities(alg, mode="sample", count=10000,
                                                 seed=m * 10 + r)):
                for res in rep.results:
                    sampled += res.checked
                    if not res.ok:
                        bad.append((describe(alg), res.name, res.witness))
    if len(FINITE) != 180:
        bad.append(("catalog size", len(FINITE)))
    gate(capsys, f"axioms: {len(FINITE)} finite algebras exhaustive, "
                 f"9 Komori constructors, {sampled} sampled checks", bad)


def test_radical_methods_agree(capsys):
    """Three radical characterizations agree element by element, on
    tables with the literal infinitesimal scan."""
    bad = []
    for fin in FINITE:
        scan = FiniteIdeal(infinitesimals(fin))
        if not all(ideals_equal(fin, scan, radical(fin, method))
                   for method in ("inf", "maximal", "nilpotent")):
            bad.append(describe(fin))
    symbolic = 0
    for seed in range(50):
        alg = random_block_algebra(random.Random(f"rad3:{seed}"))
        markers = {radical(alg, method).markers
                   for method in ("inf", "maximal", "nilpotent")}
        if len(markers) != 1:
            bad.append((describe(alg), markers))
        symbolic += 1
    gate(capsys, f"radical methods: {len(FINITE)} finite algebras elementwise, "
                 f"{symbolic} symbolic products markerwise", bad)


def test_kernel_restriction_squares(capsys):
    """Restricted kernels inherit injectivity and surjectivity data."""
    bad = []
    rep = kernel_restriction_harness(max_size=6)
    if rep.squares < 200:
        bad.append(("too few squares", rep.squares))
    if rep.negatives < 20:
        bad.append(("too few negatives", rep.negatives))
    if rep.violations:
        bad.append(("violations", rep.violations))
    if rep.injective_mismatches or rep.surjective_mismatches:
        bad.append(("mismatches", rep.injective_mismatches,
                    rep.surjective_mismatches))
    gate(capsys, f"kernel restriction: {rep.squares} squares, "
                 f"{rep.negatives} negatives, 0 violations", bad)


def test_perfect_to_semisimple_and_pre_exactness(capsys):
    """Perfect-to-semisimple homs collapse; canonical sequences are pre-exact."""
    bad = []
    eight = [to_finite(a) for a in chain_product_catalog(8)]
    homs = 0
    for dom in eight:
        if not is_perfect(dom):
            continue
        for cod in eight:
            if not is_semisimple(cod):
                bad.append(("not semisimple", describe(cod)))
            for h in enumerate_homs(dom, cod):
                homs += 1
                if not is_trivial_morphism(h).trivial:
                    bad.append(("nontrivial hom", describe(dom), describe(cod)))
    sequences = 0
    symbolic = [random_block_algebra(random.Random(f"seq:{seed}"))
                for seed in range(20)]
    for alg in FINITE + symbolic:
        seq = pre_exact(alg)
        if not is_trivial_morphism(compose(seq.inclusion, seq.projection)).trivial:
            bad.append(("composite not trivial", describe(alg)))
        if not is_prekernel(seq.inclusion, seq.projection).ok:
            bad.append(("prekernel", describe(alg)))
        if not is_precokernel(seq.projection, seq.inclusion).ok:
            bad.append(("precokernel", describe(alg)))
        sequences += 1
    gate(capsys, f"pre-exactness: {homs} perfect-to-semisimple homs trivial, "
                 f"{sequences} sequences probed", bad)


def test_unit_counit_uniqueness(capsys):
    """Unit and counit mediators exist and are unique, by enumeration."""
    bad = []
    units = counits = 0
    for dom in SMALL:
        sq = semisimple_quotient(dom)
        for cod in SMALL:
            for g in enumerate_homs(dom, cod):
                res = unit_factorization(g)
                mediators = [m for m in enumerate_homs(sq.algebra, cod)
                             if same_morphism(compose(sq.projection, m), g)]
                if not (res.exists and res.unique and len(mediators) == 1
                        and same_morphism(mediators[0], res.mediator)):
                    bad.append(("unit", describe(dom), describe(cod)))
                units += 1
    for cod in SMALL:
        part = perfect_part(cod)
        for dom in SMALL:
            if not is_perfect(dom):
                continue
            for h in enumerate_homs(dom, cod):
                res = counit_factorization(h)
                mediators = [m for m in enumerate_homs(dom, part.algebra)
                             if same_morphism(compose(m, part.inclusion), h)]
                if not (res.exists and res.unique and len(mediators) == 1
                        and same_morphism(mediators[0], res.mediator)):
                    bad.append(("counit", describe(dom), describe(cod)))
                counits += 1
    gate(capsys, f"adjunction units: {units} unit and {counits} counit "
                 f"factorizations unique", bad)


def _symbolic_quotients(tag, count):
    out = []
    for seed in range(count):
        rng = random.Random(f"{tag}:{seed}")
        alg = random_block_algebra(rng)
        ideals = all_ideals(alg)
        ideal = ideals[rng.randrange(len(ideals))]
        out.append((alg, ideal, quotient(alg, ideal).projection))
    return out


def _classification_coherent(f, bad):
    rep = classify_extension(f)
    alg = f.dom
    rad = radical(alg)
    meets_trivially = is_zero_ideal(alg, ideal_meet(alg, rep.kernel, rad))
    in_polar = ideal_leq(alg, rep.kernel, polar(alg, rad))
    if not (rep.surjective and rep.central == rep.normal
            == meets_trivially == in_polar):
        bad.append(("incoherent", describe(alg)))
    if rep.trivial and not rep.central:
        bad.append(("trivial but not central", describe(alg)))
    return rep


def test_extension_classification_coherence(capsys):
    """Trivial, central, normal, and polar views of a surjection agree."""
    bad = []
    finite = 0
    for dom in SMALL:
        for cod in SMALL:
            for h in enumerate_homs(dom, cod):
                if len(image_set(h)) != carrier_size(cod):
                    continue
                rep = _classification_coherent(h, bad)
                if trivial_via_pullback(h).is_pullback != rep.trivial:
                    bad.append(("pullback mismatch", describe(dom)))
                finite += 1
    symbolic = trivial_count = central_count = 0
    for alg, ideal, f in _symbolic_quotients("cls", 100):
        rep = _classification_coherent(f, bad)
        trivial_count += rep.trivial
        central_count += rep.central
        symbolic += 1
    if trivial_count == 0 or central_count == symbolic:
        bad.append(("degenerate sample", trivial_count, central_count))
    gate(capsys, f"classification: {finite} finite surjections with literal "
                 f"pullback test, {symbolic} symbolic quotients "
                 f"({central_count} central)", bad)


def test_factorization_system(capsys):
    """Every map splits as radical-kernel surjection then radical-disjoint map."""
    bad = []
    splits = diagonals = 0
    for alg, ideal, f in _symbolic_quotients("em", 100):
        fac = em_factorize(f)
        if not (e_member(fac.e) and m_member(fac.m)
                and same_morphism(compose(fac.e, fac.m), f)):
            bad.append(("split", describe(alg)))
        d = fill_diagonal(fac.e, fac.m, fac.e, fac.m)
        if not same_morphism(d, identity(fac.middle)):
            bad.append(("diagonal", describe(alg)))
        splits += 1
        diagonals += 1
    for dom in SMALL:
        for cod in SMALL:
            for h in enumerate_homs(dom, cod):
                if len(image_set(h)) != carrier_size(cod):
                    continue
                fac = em_factorize(h)
                if not (e_member(fac.e) and m_member(fac.m)
                        and same_morphism(compose(fac.e, fac.m), h)):
                    bad.append(("finite split", describe(dom)))
                d = fill_diagonal(fac.e, fac.m, fac.e, fac.m)
                mediators = [c for c in enumerate_homs(fac.middle, fac.middle)
                             if same_morphism(compose(fac.e, c), fac.e)
                             and same_morphism(compose(c, fac.m), fac.m)]
                if len(mediators) != 1 or not same_morphism(mediators[0], d):
                    bad.append(("finite diagonal", describe(dom)))
                splits += 1
                diagonals += 1
    stable = 0
    for dom in SMALL:
        e = quotient(dom, zero_ideal(dom)).projection
        for other in SMALL:
            for g in enumerate_homs(other, e.cod):
                rep = stability_check(e, g)
                if not (rep.ok and e_member(rep.projection)):
                    bad.append(("finite stability", describe(dom)))
                stable += 1
    for seed in range(20):
        alg = random_block_algebra(random.Random(f"stab:{seed}"))
        eta = radical_projection(alg)
        for g in (identity(eta.cod), from_initial(eta.cod), eta):
            rep = stability_check(eta, g)
            if not (rep.ok and e_member(rep.projection)):
                bad.append(("symbolic stability", describe(alg)))
            stable += 1
    if splits < 100 or diagonals < 100 or stable < 100:
        bad.append(("too few instances", splits, diagonals, stable))
    gate(capsys, f"factorization system: {splits} splits, {diagonals} unique "
                 f"diagonals, {stable} stable pullbacks", bad)


def test_term_identities(capsys):
    """Protomodularity and Pixley terms hold; corrupted tables are caught."""
    bad = []
    triples = 0
    for fin in FINITE:
        for rep in (verify_protomodularity(fin), verify_pixley(fin)):
            for res in rep.results:
                triples += res.checked
                if not res.ok:
                    bad.append((describe(fin), res.name, res.witness))
    sampled = 0
    big = product([make_komori(2, 2), make_chain(3)])
    for rep in (verify_protomodularity(big, mode="sample", count=10000),
                verify_pixley(big, mode="sample", count=10000)):
        for res in rep.results:
            sampled += res.checked
            if not res.ok:
                bad.append((describe(big), res.name, res.witness))
    chain = to_finite(make_chain(3))
    rows = [list(r) for r in chain.plus_rows]
    rows[1][2] = 0
    corrupt = mvtk.make_finite(chain.neg_row, [tuple(r) for r in rows])
    if verify_protomodularity(corrupt).ok or verify_pixley(corrupt).ok:
        bad.append("corrupted table not caught")
    gate(capsys, f"term identities: {len(FINITE)} finite algebras "
                 f"({triples} checks), {sampled} symbolic samples, "
                 f"negative control caught", bad)


def test_double_extensions_and_pushouts(capsys):
    """Pushout recognition and double centrality match their witnesses."""
    bad = []
    finite_squares = negatives = 0
    for fin in SMALL:
        ideals = all_ideals(fin)
        for i, j, k in itertools.product(ideals, repeat=3):
            join = ideal_join(fin, i, j)
            if not ideal_leq(fin, join, k):
                continue
            top = quotient(fin, i).projection
            left = quotient(fin, j).projection
            qk = quotient(fin, k).projection
            sq = ExtensionSquare(top, left,
                                 factor_through_quotient(top, qk),
                                 factor_through_quotient(left, qk))
            rep = is_regular_pushout(sq)
            expect = ideal_leq(fin, k, join)
            if not (rep.ok == rep.comparison_surjective == expect):
                bad.append(("square", describe(fin)))
            finite_squares += 1
            negatives += not expect
    instances = []
    for seed in range(80):
        rng = random.Random(f"dbl:{seed}")
        alg = random_block_algebra(rng)
        ideals = all_ideals(alg)
        instances.append((alg, ideals[rng.randrange(len(ideals))],
                          ideals[rng.randrange(len(ideals))]))
    for seed in range(10):
        alg = random_block_algebra(random.Random(f"dbl_full:{seed}"))
        instances.append((alg, full_ideal(alg), full_ideal(alg)))
    for seed in range(10):
        alg = random_block_algebra(random.Random(f"dbl_rad:{seed}"))
        instances.append((alg, radical(alg), zero_ideal(alg)))
    styles = set()
    for alg, i, j in instances:
        sq = square_from_ideals(alg, i, j)
        if not is_regular_pushout(sq).ok:
            bad.append(("not a pushout", describe(alg)))
        meet = ideal_meet(alg, ideal_meet(alg, i, j), radical(alg))
        pair = commutator_pair(alg, i, j)
        if not (classify_double(sq).central == is_zero_ideal(alg, meet)
                == pair.in_center):
            bad.append(("centrality mismatch", describe(alg)))
        if not ideals_equal(alg, pair.ideal, meet):
            bad.append(("commutator value", describe(alg)))
        styles.add(pair.style)
    if styles != {"join_full", "proper_join"}:
        bad.append(("styles not both covered", styles))
    reflections = 0
    for seed in range(30):
        rng = random.Random(f"refl:{seed}")
        alg = random_block_algebra(rng)
        ideals = all_ideals(alg)
        f = quotient(alg, ideals[rng.randrange(len(ideals))]).projection
        ref = central_reflection(f)
        if not (ref.central and ref.idempotent and ref.regular_pushout
                and classify_extension(ref.reflected).central):
            bad.append(("reflection", describe(alg)))
        reflections += 1
    gate(capsys, f"double extensions: {finite_squares} finite squares "
                 f"({negatives} negative), {len(instances)} symbolic doubles, "
                 f"{reflections} central reflections", bad)


def test_group_interval_functor(capsys):
    """Unit intervals of lexicographic groups match block algebras."""
    bad = []
    for m in range(1, 11):
        gam = to_finite(interval_algebra(make_group([(1, (m,))])))
        chain = to_finite(make_chain(m))
        if not (gam.plus_rows == chain.plus_rows and gam.neg_row == chain.neg_row
                and gam.zero == chain.zero):
            bad.append(("table mismatch", m))
    zz = make_group([(2, (1, 0))])
    if not order_unit_check(zz, ((1, 0),)).ok:
        bad.append("good unit rejected")
    infinitesimal = order_unit_check(zz, ((0, 1),))
    if infinitesimal.ok or "multiple" not in infinitesimal.reason:
        bad.append("infinitesimal unit accepted")
    groups = [make_group([(1, (3,))]), zz, make_group([(2, (2, 0)), (1, (2,))])]
    samples = 0
    for index, group in enumerate(groups):
        if not group_laws_check(group, count=400).ok:
            bad.append(("group laws", index))
        if not gamma_ops_agree(group, count=200).ok:
            bad.append(("gamma ops", index))
        rng = random.Random(f"semi:{index}")
        for _ in range(3400):
            k1, b1 = (random_group_element(group, rng) for _ in range(2))
            k2, b2 = (random_group_element(group, rng) for _ in range(2))
            total = semidirect_sum(group, (k1, b1), (k2, b2))
            if total != (group_add(group, k1, k2), group_add(group, b1, b2)):
                bad.append(("sum formula", index))
            joined = semidirect_join(group, (k1, b1), (k2, b2))
            ambient = group_join(group, group_add(group, k1, b1),
                                 group_add(group, k2, b2))
            if not (joined[1] == group_join(group, b1, b2)
                    and group_add(group, joined[0], joined[1]) == ambient):
                bad.append(("join formula", index))
            samples += 1
    if samples < 10000:
        bad.append(("too few samples", samples))
    gate(capsys, f"interval functor: chains m<=10 table-identical, "
                 f"{samples} semidirect samples, order unit accept and "
                 f"reject verified", bad)


def _cli_run(args):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(args)
    return code, buffer.getvalue()


def test_cli_round_trip_determinism(capsys):
    """Every fixture survives parse and serialize; seeded runs are stable."""
    bad = []
    algebra_docs = ("chain4", "chang", "product", "terminal", "finite_c2")
    group_docs = ("group", "bad_unit_group")
    paired = ("square", "commutator")
    files = sorted(p.stem for p in FIXTURES.glob("*.json"))
    if len(files) != 12:
        bad.append(("fixture count", files))
    for name in algebra_docs:
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        if jsonio.algebra_to_json(jsonio.parse_algebra(doc)) != doc:
            bad.append(("algebra round trip", name))
    for name in group_docs:
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        if jsonio.group_to_json(jsonio.parse_group(doc)) != doc:
            bad.append(("group round trip", name))
    for name in paired:
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        alg = jsonio.parse_algebra(doc["algebra"])
        ok = jsonio.algebra_to_json(alg) == doc["algebra"]
        for key in ("ideal_i", "ideal_j"):
            parsed = jsonio.parse_ideal(alg, doc[key])
            ok = ok and jsonio.ideal_to_json(alg, parsed) == doc[key]
        if not ok:
            bad.append(("ideal round trip", name))
    doc = json.loads((FIXTURES / "homs_pair.json").read_text())
    for key in ("dom", "cod"):
        if jsonio.algebra_to_json(jsonio.parse_algebra(doc[key])) != doc[key]:
            bad.append(("homs pair round trip", key))
    for name in ("eta_chang", "quotient_map"):
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        morphism = jsonio.parse_morphism(doc)
        if jsonio.algebra_to_json(morphism.dom) != doc["algebra"]:
            bad.append(("morphism round trip", name))
        if "ideal" in doc and jsonio.ideal_to_json(
                morphism.dom, morphism.kernel()) != doc["ideal"]:
            bad.append(("morphism kernel round trip", name))
    commands = (
        ["check-axioms", str(FIXTURES / "chang.json"), "--seed", "9"],
        ["radical", str(FIXTURES / "chang.json")],
        ["pretorsion", str(FIXTURES / "product.json")],
        ["classify", str(FIXTURES / "quotient_map.json")],
        ["square-classify", str(FIXTURES / "square.json")],
        ["commutator", str(FIXTURES / "commutator.json")],
        ["terms", str(FIXTURES / "chain4.json")],
        ["gamma", str(FIXTURES / "group.json")],
    )
    for args in commands:
        first = _cli_run(args)
        second = _cli_run(args)
        if not (first == second and first[0] == 0 and first[1]):
            bad.append(("not reproducible", args[0]))
        json.loads(first[1])
    gate(capsys, f"cli: {len(files)} fixtures round-trip, "
                 f"{len(commands)} seeded commands byte-identical", bad)
