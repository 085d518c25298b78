"""Command line round trips over the shipped fixture files."""

import json
import pathlib
import resource
import subprocess
import sys
import time

import pytest

from mvtk import describe
from mvtk.cli import main
from mvtk.jsonio import parse_morphism

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCheckAxioms:
    def test_symbolic_block(self, capsys):
        code, doc = run(capsys, "check-axioms", fx("chang.json"))
        assert code == 0
        assert doc["algebra"] == "Komori(1,1)"
        assert doc["axioms"]["ok"] and doc["derived"]["ok"]

    def test_finite_table(self, capsys):
        code, doc = run(capsys, "check-axioms", fx("finite_c2.json"))
        assert code == 0
        assert doc["axioms"]["mode"] == "exhaustive"

    def test_exhaustive_flag(self, capsys):
        code, doc = run(capsys, "check-axioms", fx("chain4.json"),
                        "--mode", "exhaustive")
        assert code == 0
        assert doc["axioms"]["mode"] == "exhaustive"
        by_name = {r["name"]: r["checked"]
                   for r in doc["axioms"]["results"]}
        assert by_name["add_assoc"] == 125
        assert by_name["lukasiewicz"] == 25
        assert by_name["neg_involution"] == 5


class TestRadical:
    def test_finite_chain_is_semisimple(self, capsys):
        code, doc = run(capsys, "radical", fx("chain4.json"),
                        "--expect", "semisimple")
        assert code == 0
        assert doc["semisimple"] and doc["methods_agree"]

    def test_chang_is_perfect_not_semisimple(self, capsys):
        code, doc = run(capsys, "radical", fx("chang.json"),
                        "--expect", "perfect")
        assert code == 0
        assert doc["perfect"] and not doc["semisimple"]
        assert doc["radical"]["markers"] == [{"sub": [1]}]

    def test_failed_expectation_sets_exit_code(self, capsys):
        code, _ = run(capsys, "radical", fx("chang.json"),
                      "--expect", "semisimple")
        assert code == 1


class TestIdealsAndHoms:
    def test_ideal_count_of_the_mixed_product(self, capsys):
        code, doc = run(capsys, "ideals", fx("product.json"))
        assert code == 0
        assert doc["count"] == 6
        assert len(doc["ideals"]) == 6

    def test_hom_tables(self, capsys):
        code, doc = run(capsys, "homs", fx("homs_pair.json"))
        assert code == 0
        assert doc["count"] == 1
        assert doc["tables"] == [[0, 2]]


class TestClassify:
    def test_trivial_covering(self, capsys):
        code, doc = run(capsys, "classify", fx("quotient_map.json"))
        assert code == 0
        assert doc["trivial"] and doc["central"] and doc["surjective"]

    def test_radical_projection_is_not_central(self, capsys):
        code, doc = run(capsys, "classify", fx("eta_chang.json"))
        assert code == 0
        assert not doc["trivial"] and not doc["central"]
        assert doc["kernel"]["markers"] == [{"sub": [1]}]

    def test_expectation_mismatch(self, capsys):
        code, _ = run(capsys, "classify", fx("eta_chang.json"),
                      "--expect", "central")
        assert code == 1
        code2, _ = run(capsys, "classify", fx("eta_chang.json"),
                       "--expect", "not-central")
        assert code2 == 0


class TestFactorizeAndPretorsion:
    def test_split_of_the_drop_chain_quotient(self, capsys):
        code, doc = run(capsys, "factorize", fx("quotient_map.json"))
        assert code == 0
        assert doc["middle"] == "Komori(1,1) x Chain(2)"
        assert doc["theta"]["markers"] == [{"sub": []}, "zero"]

    def test_pretorsion_summary(self, capsys):
        code, doc = run(capsys, "pretorsion", fx("product.json"))
        assert code == 0
        assert doc["perfect_part"] == "Komori(1,1)"
        assert doc["semisimple_quotient"] == "Chain(2) x Chain(2)"
        assert doc["prekernel"]["ok"] and doc["precokernel"]["ok"]
        assert (doc["prekernel"]["checked"],
                doc["prekernel"]["skipped"]) == (3, 5)


class TestSquaresAndCommutators:
    def test_square_is_centrally_classified(self, capsys):
        code, doc = run(capsys, "square-classify", fx("square.json"))
        assert code == 0
        assert doc["regular_pushout"] and doc["central"]
        assert doc["kernel_meet"] == [["sub", []], "zero"]

    def test_square_expectation(self, capsys):
        code, _ = run(capsys, "square-classify", fx("square.json"),
                      "--expect", "not-central")
        assert code == 1

    def test_commutator_of_crossed_radicals(self, capsys):
        code, doc = run(capsys, "commutator", fx("commutator.json"))
        assert code == 0
        assert doc["in_center"] and doc["double_central"]
        assert doc["base"] == "Komori(1,2)"
        assert doc["style"] == "proper_join"


class TestTermsAndGamma:
    def test_term_identities_on_a_chain(self, capsys):
        code, doc = run(capsys, "terms", fx("chain4.json"))
        assert code == 0
        assert doc["protomodularity"]["ok"] and doc["pixley"]["ok"]
        assert doc["pixley"]["results"][0]["checked"] == 125

    def test_gamma_round_trip(self, capsys):
        code, doc = run(capsys, "gamma", fx("group.json"))
        assert code == 0
        assert doc["interval_describe"] == "Komori(1,1)"
        assert doc["laws"]["ok"] and doc["ops_agree"]["ok"]

    def test_bad_order_unit_fails(self, capsys):
        code, doc = run(capsys, "gamma", fx("bad_unit_group.json"))
        assert code == 1
        assert not doc["order_unit"]["ok"]
        assert doc["order_unit"]["witness"] == [[1, 0]]


class TestCatalogAndPlumbing:
    def test_catalog_size_bound(self, capsys):
        code, doc = run(capsys, "catalog", "--max-size", "6")
        assert code == 0
        assert doc["count"] == 8
        assert doc["algebras"][0]["size"] == 1

    def test_catalog_above_its_budget_exits_2(self, capsys):
        code = main(["catalog", "--max-size", "4097"])
        out = capsys.readouterr()
        assert code == 2 and not out.out
        assert out.err == "error: a catalog up to 4097 elements exceeds the " \
                          "budget of 4096\n"

    def test_missing_file_is_a_usage_error(self, capsys):
        code = main(["check-axioms", fx("no_such_file.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_json_is_a_usage_error(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["check-axioms", str(p)]) == 2

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["radical", fx("chain4.json"), "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["semisimple"]

    def test_seeded_runs_are_byte_identical(self, capsys):
        first = main(["check-axioms", fx("chang.json"), "--seed", "5"])
        out1 = capsys.readouterr().out
        second = main(["check-axioms", fx("chang.json"), "--seed", "5"])
        out2 = capsys.readouterr().out
        assert first == second == 0
        assert out1 == out2

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mvtk.cli", "catalog", "--max-size", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 3

    def test_closed_stdout_exits_without_traceback(self):
        # the reader is gone before the interpreter has even imported mvtk
        proc = subprocess.Popen([sys.executable, "-m", "mvtk.cli", "catalog"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) != 0
        assert b"Traceback" not in err


CHAIN2_TABLE = {"finite": {"size": 3, "zero": 0, "neg": [2, 1, 0],
                           "plus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]]}}
CHAIN1_TABLE = {"finite": {"size": 2, "zero": 0, "neg": [1, 0],
                           "plus": [[0, 1], [1, 1]]}}


def classify_spec(tmp_path, capsys, spec):
    p = tmp_path / "map.json"
    p.write_text(json.dumps(spec))
    code = main(["classify", str(p)])
    return code, capsys.readouterr()


class TestMorphismInputChecks:
    def projection(self, kept):
        return {"kind": "block_projection", "kept": kept,
                "algebra": {"blocks": [{"chain": 1}, {"chain": 2}]}}

    def test_projection_block_past_the_end_is_refused(self, tmp_path, capsys):
        code, out = classify_spec(tmp_path, capsys, self.projection([5]))
        assert code == 2 and out.err.startswith("error:") and not out.out

    def test_projection_block_zero_is_refused(self, tmp_path, capsys):
        code, out = classify_spec(tmp_path, capsys, self.projection([0]))
        assert code == 2 and out.err.startswith("error:") and not out.out

    def test_valid_projection_is_classified(self, tmp_path, capsys):
        code, out = classify_spec(tmp_path, capsys, self.projection([2]))
        assert code == 0
        assert json.loads(out.out)["kernel"] == {"markers": ["full", "zero"]}

    def test_table_value_out_of_range_is_refused(self, tmp_path, capsys):
        spec = {"kind": "table", "dom": CHAIN2_TABLE, "cod": CHAIN1_TABLE,
                "table": [0, 7]}
        code, out = classify_spec(tmp_path, capsys, spec)
        assert code == 2 and out.err.startswith("error:")

    def test_table_that_is_not_a_homomorphism_is_refused(self, tmp_path,
                                                          capsys):
        spec = {"kind": "table", "dom": CHAIN2_TABLE, "cod": CHAIN2_TABLE,
                "table": [0, 2, 1]}
        code, out = classify_spec(tmp_path, capsys, spec)
        assert code == 2 and "not a homomorphism" in out.err

    def test_identity_table_is_classified(self, tmp_path, capsys):
        spec = {"kind": "table", "dom": CHAIN2_TABLE, "cod": CHAIN2_TABLE,
                "table": [0, 1, 2]}
        code, out = classify_spec(tmp_path, capsys, spec)
        assert code == 0 and json.loads(out.out)["surjective"]

    @pytest.mark.parametrize("spec", [
        [],
        "full",
        {"kind": "compose", "parts": ["x"]},
        {"kind": "compose", "parts": []},
    ], ids=["list", "string", "compose_part_string", "compose_no_parts"])
    def test_malformed_morphism_exits_2(self, tmp_path, capsys, spec):
        code, out = classify_spec(tmp_path, capsys, spec)
        assert code == 2 and out.err.startswith("error:") and not out.out

    def test_permuted_projection_of_a_komori_product(self, tmp_path, capsys):
        spec = {"kind": "block_projection", "kept": [2, 1],
                "algebra": {"blocks": [{"komori": {"m": 1, "r": 2}},
                                       {"chain": 2}]}}
        m = parse_morphism(spec)
        assert describe(m.cod) == "Chain(2) x Komori(1,2)"
        assert m.body.rows == ((1, 1, ()), (0, 1, ((0, 1), (1, 1))))
        code, out = classify_spec(tmp_path, capsys, spec)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["kernel"] == {"markers": [{"sub": []}, "zero"]}
        assert doc["trivial"]


class TestCompose:
    def test_quotient_then_radical_projection_is_classified(self, tmp_path,
                                                            capsys):
        spec = {"kind": "compose", "parts": [
            {"kind": "quotient",
             "algebra": {"blocks": [{"komori": {"m": 2, "r": 1}},
                                    {"chain": 2}]},
             "ideal": {"markers": [{"sub": [1]}, "zero"]}},
            {"kind": "radical_projection",
             "algebra": {"blocks": [{"chain": 2}, {"chain": 2}]}}]}
        code, out = classify_spec(tmp_path, capsys, spec)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["surjective"]
        assert doc["kernel"] == {"markers": [{"sub": [1]}, "zero"]}

    def test_mismatched_parts_exit_2(self, tmp_path, capsys):
        spec = {"kind": "compose", "parts": [
            {"kind": "identity", "algebra": {"blocks": [{"chain": 1}]}},
            {"kind": "identity", "algebra": {"blocks": [{"chain": 2}]}}]}
        code, out = classify_spec(tmp_path, capsys, spec)
        assert code == 2 and not out.out
        assert "composite needs f.cod == g.dom" in out.err


def refused(tmp_path, capsys, command, doc):
    """Run ``command`` on ``doc``; True when it exits 2 with an error."""
    p = tmp_path / "input.json"
    p.write_text(json.dumps(doc))
    code = main([command, str(p)])
    out = capsys.readouterr()
    return code == 2 and out.err.startswith("error:") and not out.out


class TestStrictIntegers:
    def test_boolean_chain_bound_is_refused(self, tmp_path, capsys):
        assert refused(tmp_path, capsys, "radical",
                       {"blocks": [{"chain": True}]})

    def test_fractional_chain_bound_is_refused(self, tmp_path, capsys):
        assert refused(tmp_path, capsys, "radical",
                       {"blocks": [{"chain": 2.5}]})

    def test_boolean_komori_bound_is_refused(self, tmp_path, capsys):
        assert refused(tmp_path, capsys, "radical",
                       {"blocks": [{"komori": {"m": True, "r": 1}}]})

    def test_boolean_table_entry_is_refused(self, tmp_path, capsys):
        table = {"finite": {"size": 2, "zero": 0, "neg": [1, False],
                            "plus": [[0, 1], [1, 1]]}}
        assert refused(tmp_path, capsys, "radical", table)

    def test_boolean_ideal_element_is_refused(self, tmp_path, capsys):
        spec = {"kind": "quotient", "algebra": CHAIN2_TABLE,
                "ideal": {"elements": [False]}}
        assert refused(tmp_path, capsys, "classify", spec)

    def test_boolean_marker_coordinate_is_refused(self, tmp_path, capsys):
        chang = {"komori": {"m": 1, "r": 1}}
        spec = {"algebra": {"blocks": [chang, chang]},
                "ideal_i": {"markers": [{"sub": [True]}, "zero"]},
                "ideal_j": {"markers": ["zero", {"sub": [1]}]}}
        assert refused(tmp_path, capsys, "commutator", spec)

    def test_boolean_group_rank_is_refused(self, tmp_path, capsys):
        assert refused(tmp_path, capsys, "gamma",
                       {"blocks": [{"rank": True, "unit": [1]}]})


class TestSamplingArguments:
    """A negative sample count or coefficient bound is refused with one
    line naming the argument."""

    @pytest.mark.parametrize("args, message", [
        (("check-axioms", "--bound", "-1"), "error: bound must be >= 0, got -1"),
        (("check-axioms", "--count", "-5"), "error: count must be >= 0, got -5"),
        (("terms", "--bound", "-2"), "error: bound must be >= 0, got -2"),
    ], ids=["check-axioms-bound", "check-axioms-count", "terms-bound"])
    def test_negative_value_is_refused(self, capsys, args, message):
        command, *options = args
        code = main([command, fx("chang.json"), *options])
        out = capsys.readouterr()
        assert code == 2
        assert out.err == message + "\n"
        assert not out.out

    @pytest.mark.parametrize("args, message", [
        (("--count", "-3"), "error: count must be >= 0, got -3"),
        (("--bound", "-1"), "error: bound must be >= 0, got -1"),
    ], ids=["gamma-count", "gamma-bound"])
    def test_negative_value_is_refused_by_gamma(self, capsys, args, message):
        code = main(["gamma", fx("group.json"), *args])
        out = capsys.readouterr()
        assert code == 2
        assert out.err == message + "\n"
        assert not out.out


class TestOptionsBySubcommand:
    """Only the subcommands that sample take sampling options:
    check-axioms and terms take --seed, --count, --bound and --mode, gamma
    takes the first three, and the other nine take none."""

    @pytest.mark.parametrize("args", [
        ("radical", fx("chang.json")),
        ("ideals", fx("product.json")),
        ("homs", fx("homs_pair.json")),
        ("classify", fx("eta_chang.json")),
        ("factorize", fx("quotient_map.json")),
        ("pretorsion", fx("product.json")),
        ("square-classify", fx("square.json")),
        ("commutator", fx("commutator.json")),
        ("catalog",),
    ], ids=lambda args: args[0])
    @pytest.mark.parametrize("option", ["--seed", "--count", "--bound", "--mode"])
    def test_commands_that_do_not_sample_refuse_the_options(self, capsys, args,
                                                            option):
        with pytest.raises(SystemExit) as exc:
            main([*args, option, "3"])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {option} 3" in out.err
        assert not out.out

    def test_gamma_refuses_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gamma", fx("group.json"), "--mode", "sample"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode sample" in capsys.readouterr().err

    def test_radical_with_seed_exits_2_from_the_shell(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mvtk.cli", "radical", fx("chang.json"),
             "--seed", "3"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "unrecognized arguments: --seed 3" in proc.stderr
        assert not proc.stdout

    @pytest.mark.parametrize("args", [
        ("check-axioms", fx("chang.json"), "--seed", "1", "--count", "30",
         "--bound", "2", "--mode", "sample"),
        ("terms", fx("chang.json"), "--seed", "1", "--count", "30",
         "--bound", "2", "--mode", "sample"),
        ("gamma", fx("group.json"), "--seed", "1", "--count", "30",
         "--bound", "2"),
    ], ids=lambda args: args[0])
    def test_commands_that_sample_take_the_options(self, capsys, args):
        code, doc = run(capsys, *args)
        assert code == 0 and doc


class TestIdealCountCap:
    def test_too_many_ideals_exit_2_with_one_line_quickly(self, tmp_path, capsys):
        path = tmp_path / "three_rank14.json"
        block = {"komori": {"m": 1, "r": 14}}
        path.write_text(json.dumps({"blocks": [block] * 3}))
        start = time.perf_counter()
        code = main(["ideals", str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr()
        assert code == 2
        assert out.err == "error: more than 16385 ideals to list\n"
        assert not out.out
        assert elapsed < 1.0


class TestHomCountCap:
    def test_too_many_homs_exit_2_with_one_line_quickly(self, tmp_path, capsys):
        # Chain(1)^9 on both sides has 9**9 homs
        path = tmp_path / "boolean512.json"
        blocks = {"blocks": [{"chain": 1}] * 9}
        path.write_text(json.dumps({"dom": blocks, "cod": blocks}))
        start = time.perf_counter()
        code = main(["homs", str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr()
        assert code == 2
        assert out.err == "error: more than 65536 homs to list\n"
        assert not out.out
        assert elapsed < 1.0


class TestExhaustiveBudget:
    """An exhaustive check of a carrier above the grid budget exits 2 with
    one line before any table is built.  The child runs under a 2 GiB
    address-space limit, so a regression fails instead of filling memory."""

    @pytest.mark.parametrize("args", [
        ("check-axioms", "--mode", "exhaustive"),
        ("check-axioms", "--mode", "auto"),
        ("terms", "--mode", "exhaustive"),
    ], ids=" ".join)
    def test_exits_2_with_one_line(self, tmp_path, args):
        path = tmp_path / "chain3000.json"
        path.write_text(json.dumps({"blocks": [{"chain": 3000}]}))
        limit = 2 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "mvtk.cli", args[0], str(path), *args[1:]],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)))
        assert proc.returncode == 2
        assert proc.stderr == ("error: exhaustive mode on 3001 elements "
                               "exceeds the budget of 256\n")
        assert not proc.stdout


class TestExpectChoices:
    """--expect takes only the properties its subcommand reports; any other
    value is an argparse error (exit 2) before the input is read."""

    @pytest.mark.parametrize("args", [
        ("radical", fx("chang.json")),
        ("classify", fx("eta_chang.json")),
        ("square-classify", fx("square.json")),
        ("commutator", fx("commutator.json")),
    ], ids=lambda args: args[0])
    def test_unknown_expectation_exits_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--expect", "bogus"])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert "argument --expect: invalid choice: 'bogus'" in out.err
        assert not out.out

    def test_square_that_is_not_a_regular_pushout(self, tmp_path, capsys):
        c1 = {"blocks": [{"chain": 1}]}
        path = tmp_path / "degenerate_square.json"
        path.write_text(json.dumps({
            "top": {"kind": "identity", "algebra": c1},
            "left": {"kind": "identity", "algebra": c1},
            "right": {"kind": "to_terminal", "algebra": c1},
            "bottom": {"kind": "to_terminal", "algebra": c1}}))
        with pytest.raises(SystemExit) as exc:
            main(["square-classify", str(path), "--expect", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, doc = run(capsys, "square-classify", str(path),
                        "--expect", "central")
        assert code == 1
        assert not doc["regular_pushout"] and doc["expected"] == "central"


class TestDeepNesting:
    """Input nested beyond the interpreter's recursion limit is malformed
    input: exit 2 with one line, not a traceback with exit 1."""

    def test_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code = main(["classify", str(path)])
        out = capsys.readouterr()
        assert code == 2
        assert out.err == "error: input nested too deeply\n"
        assert not out.out

    def test_parser_refuses_a_deep_compose(self):
        spec = {"kind": "identity", "algebra": {"blocks": [{"chain": 1}]}}
        for _ in range(3000):
            spec = {"kind": "compose", "parts": [spec]}
        with pytest.raises(ValueError, match="input nested too deeply"):
            parse_morphism(spec)


class TestTableThatIsNotAnMVAlgebra:
    """A table whose plus is constantly 0 has no chain decomposition.  The
    commands that read its structure exit 2 with one line naming the
    witness; the identity checks report where it fails."""

    BAD = {"finite": {"size": 2, "zero": 0, "neg": [1, 0],
                      "plus": [[0, 0], [0, 0]]}}
    WITNESS = "error: not an MV-algebra: elements 0 and 1 both have levels []\n"

    @pytest.mark.parametrize("command", ["radical", "ideals", "homs"])
    def test_structural_commands_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        doc = self.BAD if command != "homs" else {
            "dom": self.BAD, "cod": {"blocks": [{"chain": 1}]}}
        path.write_text(json.dumps(doc))
        code = main([command, str(path)])
        out = capsys.readouterr()
        assert code == 2
        assert out.err == self.WITNESS
        assert not out.out

    @pytest.mark.parametrize("command, report", [
        ("check-axioms", "axioms"), ("terms", "protomodularity")])
    def test_identity_checks_report_the_failure(self, tmp_path, capsys,
                                                command, report):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.BAD))
        code, doc = run(capsys, command, str(path))
        assert code == 1
        assert not doc[report]["ok"]
