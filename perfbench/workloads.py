"""The four benchmark workloads.

Each workload turns a seed into a list of tasks (``generate``) and runs
one task (``run``), checking its verdict against an answer known
independently of the code under test.  ``run`` returns ``None`` when the
verdict holds and a one-line description of the wrong verdict otherwise.

Every call into mvtk goes through ``tr.call("<module>.<function>", ...)``
so the traced run can attribute time to the module that spent it.
Inputs are stratified into rounds: every round has the same mix of task
kinds and carrier sizes, and the seed picks the algebras inside each
stratum.  Runs of different seeds therefore do comparable work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass

import mvtk
from mvtk import cli, jsonio
from mvtk.mundici import gamma_ops_agree, group_laws_check, make_group

from harness import (KERNEL, NUMPY_CHILD, ROOT, child_env, child_seconds,
                     median_of, startup_seconds)


@dataclass(frozen=True)
class Task:
    kind: str
    key: object        # identifies the task's algebra, for the repeat share
    size: int | None   # see Inputs.size_measure; None when not applicable
    payload: tuple


@dataclass
class Inputs:
    tasks: list        # cycled by the timed loop
    pass_size: int     # the traced run repeats tasks[:pass_size]
    size_measure: str  # what Task.size counts


def _catalog(tr, max_size):
    return tr.call("catalog.chain_product_catalog",
                   mvtk.chain_product_catalog, max_size)


def _ideals_equal(tr, algebra, left, right) -> bool:
    return tr.call("ideals.lattice_ops", lambda: (
        mvtk.ideal_leq(algebra, left, right)
        and mvtk.ideal_leq(algebra, right, left)))


def _meet(tr, algebra, *ideals):
    def go():
        acc = ideals[0]
        for other in ideals[1:]:
            acc = mvtk.ideal_meet(algebra, acc, other)
        return acc
    return tr.call("ideals.lattice_ops", go)


def _is_zero(tr, algebra, ideal) -> bool:
    return tr.call("ideals.lattice_ops", mvtk.is_zero_ideal, algebra, ideal)


def _same(tr, f, g) -> bool:
    """same_morphism, counting the points it compares when it agrees (a
    finite domain is compared everywhere, an infinite one on the default
    400 samples)."""
    same = tr.call("morphisms.same_morphism", mvtk.same_morphism, f, g)
    if same:
        size = mvtk.carrier_size(f.dom)
        tr.count("morphisms.points_compared", 400 if size is None else size)
    return same


def _checks(report) -> int:
    return sum(r.checked for r in report.results)


def _rounds(seed, count, make_round):
    """``count`` rounds, each from its own seeded generator, flattened."""
    tasks = []
    for index in range(count):
        tasks.extend(make_round(random.Random(f"{seed}:round:{index}")))
    return tasks


# ---------------------------------------------------------------------------
# identities: "is this an MV-algebra?", exhaustively and by sampling


class Identities:
    """Per round of 25 tasks: four 128-element and three at most
    60-element catalog algebras checked exhaustively; thirteen Komori
    products (five with one block, four with two, four with three)
    through the sampled identity banks; two lexicographic groups; three
    corrupted tables that must fail.  The cheap kinds sit below the
    sampled ones and the 128-element tables above them, so the median
    falls among the sampled checks and p90 among the large tables."""

    name = "identities"
    reference = KERNEL
    rounds = 4
    sample_count = 300
    # block counts of the sampled Komori products of a round
    sampled_blocks = (1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3)

    def generate(self, seed, tr) -> Inputs:
        catalog = _catalog(tr, 128)
        by_size = {}
        for algebra in catalog:
            by_size.setdefault(mvtk.carrier_size(algebra), []).append(algebra)
        small = [a for n in range(2, 61) for a in by_size.get(n, [])]
        bases = [a for n in range(8, 61) for a in by_size.get(n, [])]

        def make_round(rng):
            out = []
            for pool, k in ((by_size[128], 4), (small, 3)):
                for algebra in rng.sample(pool, k):
                    out.append(Task("exhaustive", mvtk.describe(algebra),
                                    mvtk.carrier_size(algebra), (algebra,)))
            for blocks in self.sampled_blocks:
                algebra = None
                while algebra is None or len(algebra.blocks) != blocks:
                    algebra = tr.call("catalog.random_block_algebra",
                                      mvtk.random_block_algebra, rng)
                out.append(Task("sampled", mvtk.describe(algebra), None,
                                (algebra, rng.randrange(10 ** 6))))
            for _ in range(2):
                group = make_group(self._group_blocks(rng))
                out.append(Task("lex_group", repr(group), None,
                                (group, rng.randrange(10 ** 6))))
            for _ in range(3):
                out.append(self._make_corrupted(tr, rng, rng.choice(bases)))
            rng.shuffle(out)
            return out

        tasks = _rounds(seed, self.rounds, make_round)
        return Inputs(tasks, len(tasks) // self.rounds,
                      "carrier elements of the exhaustively checked tables")

    @staticmethod
    def _group_blocks(rng):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            rank = rng.randint(1, 3)
            blocks.append((rank, (rng.randint(1, 4),) + (0,) * (rank - 1)))
        return blocks

    @staticmethod
    def _make_corrupted(tr, rng, base):
        """``base`` as a table with one off-diagonal ``plus`` entry changed:
        commutativity must fail at that pair."""
        table = tr.call("core.to_finite", mvtk.to_finite, base)
        n = table.size
        x, y = rng.sample(range(n), 2)
        rows = [list(r) for r in table.plus_rows]
        rows[x][y] = rng.choice([v for v in range(n) if v != rows[x][y]])
        corrupt = mvtk.make_finite(table.neg_row, rows, table.zero)
        return Task("corrupted", (mvtk.describe(base), x, y, rows[x][y]), n,
                    (corrupt,))

    def run(self, task, tr):
        return getattr(self, "_" + task.kind)(tr, *task.payload)

    def _exhaustive_bank(self, tr, table):
        reports = []
        for name, fn in (("core.check_axioms", mvtk.check_axioms),
                         ("core.check_derived_identities",
                          mvtk.check_derived_identities)):
            rep = tr.call(name, fn, table, mode="exhaustive")
            tr.count("core.checks_evaluated.exhaustive", _checks(rep))
            reports.append(rep)
        for name, fn in (("terms.verify_protomodularity",
                          mvtk.verify_protomodularity),
                         ("terms.verify_pixley", mvtk.verify_pixley)):
            rep = tr.call(name, fn, table, mode="exhaustive")
            tr.count("terms.checks_evaluated", _checks(rep))
            reports.append(rep)
        return reports

    def _exhaustive(self, tr, algebra):
        table = tr.call("core.to_finite", mvtk.to_finite, algebra)
        tr.count("core.table_cells", table.size * (table.size + 1))
        if table.size != mvtk.carrier_size(algebra):
            return f"table has {table.size} elements"
        for rep in self._exhaustive_bank(tr, table):
            if not rep.ok:
                return f"{rep.subject} failed: {rep.counterexample()}"
        return None

    def _corrupted(self, tr, table):
        axioms, *_ = self._exhaustive_bank(tr, table)
        failed = {r.name for r in axioms.failures()}
        if "add_comm" not in failed:
            return f"corrupted table not caught (failed: {sorted(failed)})"
        return None

    def _sampled(self, tr, algebra, seed):
        count = self.sample_count
        for name, fn, n in (
                ("core.check_axioms", mvtk.check_axioms, count),
                ("core.check_derived_identities",
                 mvtk.check_derived_identities, count),
                ("core.check_lattice_identities",
                 mvtk.check_lattice_identities, count // 4)):
            rep = tr.call(name, fn, algebra, mode="sample", count=n, seed=seed)
            tr.count("core.checks_evaluated.sample", _checks(rep))
            if not rep.ok:
                return f"{name} failed: {rep.counterexample()}"
        return None

    def _lex_group(self, tr, group, seed):
        for name, fn, count in (("mundici.group_laws_check", group_laws_check, 100),
                                ("mundici.gamma_ops_agree", gamma_ops_agree, 50)):
            rep = tr.call(name, fn, group, count=count, seed=seed)
            tr.count("mundici.checks_evaluated", _checks(rep))
            if not rep.ok:
                return f"{name} failed: {rep.counterexample()}"
        return None


# ---------------------------------------------------------------------------
# finite_homs: literal finite category work on catalog tables


def hom_count(dom_sig, cod_sig) -> int:
    """|Hom(A, B)| for products of finite chains, from the structure
    theorem: a map into the chain with n + 1 elements reads one factor
    Chain(m) of the domain with m dividing n, so each codomain block
    chooses a domain block independently.  The one-element algebra has
    exactly one map into it and none out of it into a nontrivial one."""
    if not cod_sig:
        return 1
    total = 1
    for n in cod_sig:
        total *= sum(1 for m in dom_sig if n % m == 0)
    return total


class FiniteHoms:
    """Per round: every catalog table with at most 24 elements once as
    domain, each with ten codomains: itself, its quotient by one seeded
    block, and eight seeded catalog tables.  The eight come from eight
    seeded permutations of the catalog, so within a round every table is
    also a codomain exactly eight times."""

    name = "finite_homs"
    reference = KERNEL
    rounds = 4
    max_size = 24
    random_codomains = 8

    def generate(self, seed, tr) -> Inputs:
        catalog = _catalog(tr, self.max_size)
        tables = {mvtk.catalog_signature(a): tr.call("core.to_finite", mvtk.to_finite, a)
                  for a in catalog}
        sigs = list(tables)

        def make_round(rng):
            shuffles = [rng.sample(sigs, len(sigs))
                        for _ in range(self.random_codomains)]
            out = []
            for index, sig in enumerate(rng.sample(sigs, len(sigs))):
                dropped = rng.randrange(len(sig)) if sig else None
                kept = tuple(m for k, m in enumerate(sig) if k != dropped)
                cods = [sig, kept] + [order[index] for order in shuffles]
                out.append(Task("hom_pairs", sig, tables[sig].size,
                                (tables[sig], sig,
                                 tuple((tables[c], c) for c in cods))))
            return out

        tasks = _rounds(seed, self.rounds, make_round)
        return Inputs(tasks, len(sigs), "carrier elements of the domain")

    def run(self, task, tr):
        dom, dom_sig, cods = task.payload
        for cod, cod_sig in cods:
            homs = tr.call("morphisms.enumerate_homs", mvtk.enumerate_homs,
                           dom, cod)
            tr.count("morphisms.homs_found", len(homs))
            tr.count("morphisms.empty_searches", not homs)
            if len(homs) != hom_count(dom_sig, cod_sig):
                return (f"{len(homs)} homs {dom_sig} -> {cod_sig}, expected "
                        f"{hom_count(dom_sig, cod_sig)}")
            for h in homs:
                image = tr.call("morphisms.image_set", mvtk.image_set, h)
                if len(image) == cod.size:
                    problem = self._surjection(tr, h)
                    if problem:
                        return problem
        return self._domain(tr, dom, len(dom_sig))

    @staticmethod
    def _surjection(tr, h):
        """Every surjection between semisimple tables is a trivial (hence
        central) covering, and the literal pullback test agrees."""
        rep = tr.call("galois.classify_extension", mvtk.classify_extension, h)
        rad = tr.call("ideals.radical", mvtk.radical, h.dom)
        disjoint = _is_zero(tr, h.dom, _meet(tr, h.dom, rep.kernel, rad))
        if not (rep.surjective and rep.trivial and rep.central == disjoint):
            return f"surjection classified {rep}"
        fac = tr.call("galois.em_factorize", mvtk.em_factorize, h)
        composite = tr.call("morphisms.compose", mvtk.compose, fac.e, fac.m)
        if not _same(tr, composite, h):
            return "em factorization does not recompose"
        square = tr.call("galois.trivial_via_pullback", mvtk.trivial_via_pullback, h)
        if square.is_pullback != rep.trivial:
            return "pullback test disagrees with the classification"
        return None

    @staticmethod
    def _domain(tr, dom, blocks):
        """A product of k finite chains has 2^k ideals, a zero radical by
        all three methods, and |A / I| * |I| = |A|."""
        ideals = tr.call("ideals.all_ideals", mvtk.all_ideals, dom)
        tr.count("ideals.ideals_enumerated", len(ideals))
        if len(ideals) != 2 ** blocks:
            return f"{len(ideals)} ideals, expected {2 ** blocks}"
        for method in ("inf", "maximal", "nilpotent"):
            rad = tr.call("ideals.radical", mvtk.radical, dom, method)
            if not _is_zero(tr, dom, rad):
                return f"radical ({method}) is not zero"
        for ideal in ideals:
            q = tr.call("morphisms.quotient", mvtk.quotient, dom, ideal)
            if q.algebra.size * len(ideal.elements) != dom.size:
                return f"quotient of size {q.algebra.size}"
        return None


# ---------------------------------------------------------------------------
# symbolic_extensions: morphisms between infinite block products


class SymbolicExtensions:
    """A seeded pool of 54 Komori products (ranks at most 2) with a fixed
    number of algebras per band of ideal counts, the main cost driver
    (is_prekernel and is_precokernel probe every ideal).  Both rounds
    visit the whole pool in a seeded order with a fresh random ideal
    pair (I, J) per task, so algebras repeat across tasks."""

    name = "symbolic_extensions"
    reference = KERNEL
    rounds = 2
    # (ideal counts, algebras in the pool); the top band alone holds more
    # than a tenth of the pool, so p90 falls inside it
    bands = (((3, 5), 10), ((6, 9, 10), 14), ((12, 15, 18, 20), 14),
             ((25, 27, 30, 45, 50), 8), ((75,), 8))

    def generate(self, seed, tr) -> Inputs:
        rng = random.Random(f"{seed}:pool")
        wanted = dict(self.bands)
        pool, ideals = [], {}
        while any(wanted.values()):
            algebra = tr.call("catalog.random_block_algebra",
                              mvtk.random_block_algebra, rng, max_r=2)
            count = 1
            for block in algebra.blocks:
                count *= 2 if isinstance(block, mvtk.Chain) else 2 ** block.r + 1
            band = next((b for b in wanted if count in b), None)
            if band and wanted[band]:
                wanted[band] -= 1
                pool.append(algebra)
                if algebra not in ideals:
                    ideals[algebra] = tr.call("ideals.all_ideals",
                                              mvtk.all_ideals, algebra)

        def make_round(rng):
            out = []
            for algebra in rng.sample(pool, len(pool)):
                i, j = rng.choice(ideals[algebra]), rng.choice(ideals[algebra])
                out.append(Task("extension", mvtk.describe(algebra),
                                len(ideals[algebra]), (algebra, i, j)))
            return out

        tasks = _rounds(seed, self.rounds, make_round)
        return Inputs(tasks, len(pool), "ideals of the algebra")

    def run(self, task, tr):
        algebra, i, j = task.payload
        rad = tr.call("ideals.radical", mvtk.radical, algebra)
        q = tr.call("morphisms.quotient", mvtk.quotient, algebra, i)
        f = q.projection
        rep = tr.call("galois.classify_extension", mvtk.classify_extension, f)
        if rep.central != _is_zero(tr, algebra, _meet(tr, algebra, rep.kernel, rad)):
            return "central differs from (ker meet rad = 0)"
        fac = tr.call("galois.em_factorize", mvtk.em_factorize, f)
        composite = tr.call("morphisms.compose", mvtk.compose, fac.e, fac.m)
        if not _same(tr, composite, f):
            return "em factorization does not recompose"
        diagonal = tr.call("galois.fill_diagonal", mvtk.fill_diagonal,
                           fac.e, fac.m, fac.e, fac.m)
        if not _same(tr, diagonal, tr.call("morphisms.identity", mvtk.identity,
                                           fac.middle)):
            return "diagonal fill-in is not the identity"

        square = tr.call("galois2.square_from_ideals", mvtk.square_from_ideals,
                         algebra, i, j)
        if not tr.call("galois2.is_regular_pushout", mvtk.is_regular_pushout,
                       square).ok:
            return "quotient square is not a regular pushout"
        double = tr.call("galois2.classify_double", mvtk.classify_double, square)
        pair = tr.call("galois2.commutator_pair", mvtk.commutator_pair,
                       algebra, i, j)
        expected = _meet(tr, algebra, i, j, rad)
        if not (double.central == pair.in_center == _is_zero(tr, algebra, expected)):
            return "double centrality disagrees with I meet J meet rad"
        if not _ideals_equal(tr, algebra, pair.ideal, expected):
            return "commutator differs from I meet J meet rad"
        ref = tr.call("galois2.central_reflection", mvtk.central_reflection, f)
        if not (ref.central and ref.idempotent and ref.regular_pushout):
            return "central reflection is not a central regular pushout"

        seq = tr.call("pretorsion.pre_exact", mvtk.pre_exact, algebra)
        for name, fn, first, second in (
                ("pretorsion.is_prekernel", mvtk.is_prekernel,
                 seq.inclusion, seq.projection),
                ("pretorsion.is_precokernel", mvtk.is_precokernel,
                 seq.projection, seq.inclusion)):
            probe = tr.call(name, fn, first, second)
            tr.count("pretorsion.probes_checked", probe.checked)
            if not probe.ok:
                return f"{name} failed: {probe.failures[:1]}"
        composite = tr.call("morphisms.compose", mvtk.compose,
                            seq.inclusion, seq.projection)
        try:
            trivial = tr.call("pretorsion.is_trivial_morphism",
                              mvtk.is_trivial_morphism, composite)
        except RuntimeError:
            tr.count("pretorsion.is_trivial_morphism.errors")
            raise
        if not trivial.trivial:
            return "perfect part -> semisimple quotient is not trivial"
        return None


# ---------------------------------------------------------------------------
# cli_fixtures: the mvtk command on the shipped fixtures


# (name, arguments, documented exit code).  The expected stdout of each is
# frozen in expected/<name>.out.
COMMANDS = (
    ("check-axioms_chain4", ["check-axioms", "fixtures/chain4.json",
                             "--mode", "exhaustive"], 0),
    ("radical_chang", ["radical", "fixtures/chang.json", "--expect",
                       "perfect"], 0),
    ("ideals_product", ["ideals", "fixtures/product.json"], 0),
    ("homs_pair", ["homs", "fixtures/homs_pair.json"], 0),
    ("classify_eta_chang", ["classify", "fixtures/eta_chang.json",
                            "--expect", "not-central"], 0),
    ("factorize_quotient_map", ["factorize", "fixtures/quotient_map.json"], 0),
    ("pretorsion_product", ["pretorsion", "fixtures/product.json"], 0),
    ("square-classify_square", ["square-classify", "fixtures/square.json"], 0),
    ("commutator_commutator", ["commutator", "fixtures/commutator.json"], 0),
    ("terms_chain4", ["terms", "fixtures/chain4.json"], 0),
    ("gamma_group", ["gamma", "fixtures/group.json"], 0),
    ("catalog_8", ["catalog", "--max-size", "8"], 0),
    ("gamma_bad_unit_group", ["gamma", "fixtures/bad_unit_group.json"], 1),
)

EXPECTED = ROOT / "perfbench" / "expected"
FIXTURES = ROOT / "fixtures"

# fixtures that the in-process jsonio pass parses and serializes back
_ALGEBRA_DOCS = ("chain4", "chang", "product", "terminal", "finite_c2")
_GROUP_DOCS = ("group", "bad_unit_group")


class CliFixtures:
    """Each task runs one fixture command in a fresh interpreter, one child
    at a time, in a seeded order."""

    name = "cli_fixtures"
    reference = NUMPY_CHILD
    rounds = 1

    def generate(self, seed, tr) -> Inputs:
        commands = [(name, args, code, (EXPECTED / f"{name}.out").read_bytes())
                    for name, args, code in COMMANDS]

        def make_round(rng):
            return [Task("command", name, None, (name, args, code, stdout))
                    for name, args, code, stdout in rng.sample(commands,
                                                               len(commands))]

        tasks = _rounds(seed, self.rounds, make_round)
        return Inputs(tasks, len(commands), "none")

    def run(self, task, tr):
        name, args, code, stdout = task.payload
        done = tr.call(f"cli.{args[0]}.process", subprocess.run,
                       [sys.executable, "-m", "mvtk.cli", *args], cwd=ROOT,
                       env=child_env(), capture_output=True, timeout=120)
        if done.returncode != code:
            return (f"exit {done.returncode}, expected {code}: "
                    f"{done.stderr.decode(errors='replace')[-200:]}")
        if done.stdout != stdout:
            return "stdout differs from the frozen expected output"
        return None

    def layer_probe(self, tr) -> tuple[dict, list]:
        """Traced-run extras: interpreter start, the mvtk import, each
        subcommand through an in-process ``cli.main``, and jsonio parse
        and serialize on every fixture."""
        metrics = {
            "python.startup_ms": 1000 * median_of(startup_seconds, 3),
            "mvtk.import_ms": 1000 * median_of(lambda: child_seconds(
                "import time; t = time.perf_counter(); import mvtk; "
                "print(time.perf_counter() - t)"), 3),
        }
        problems = []
        for name, args, code in COMMANDS:
            argv = [str(ROOT / a) if a.startswith("fixtures/") else a
                    for a in args]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                got = tr.call(f"cli.{args[0]}.main", cli.main, argv)
            expected = (EXPECTED / f"{name}.out").read_bytes()
            if got != code or buffer.getvalue().encode() != expected:
                problems.append(f"in-process {name} differs")
        for path in sorted(FIXTURES.glob("*.json")):
            doc = json.loads(path.read_text())
            if path.stem in _ALGEBRA_DOCS:
                parsed = tr.call("jsonio.parse", jsonio.parse_algebra, doc)
                back = tr.call("jsonio.serialize", jsonio.algebra_to_json, parsed)
            elif path.stem in _GROUP_DOCS:
                parsed = tr.call("jsonio.parse", jsonio.parse_group, doc)
                back = tr.call("jsonio.serialize", jsonio.group_to_json, parsed)
            else:
                continue
            if back != doc:
                problems.append(f"jsonio round trip of {path.name} differs")
        return metrics, problems


WORKLOADS = {w.name: w for w in (Identities(), FiniteHoms(),
                                 SymbolicExtensions(), CliFixtures())}
