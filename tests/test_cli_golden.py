"""Every fixture command prints its frozen output, byte for byte.

The frozen outputs live in ``perfbench/expected`` and are only read here.
"""

import pathlib

import pytest

from mvtk.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected"

# (name of the expected output, arguments, exit code)
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


def test_every_expected_output_has_a_command():
    assert sorted(p.stem for p in EXPECTED.glob("*.out")) \
        == sorted(name for name, _, _ in COMMANDS)


@pytest.mark.parametrize("name,args,code", COMMANDS,
                         ids=[name for name, _, _ in COMMANDS])
def test_stdout_and_exit_code_match(name, args, code, capsys):
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in args]
    assert main(argv) == code
    assert capsys.readouterr().out.encode() \
        == (EXPECTED / f"{name}.out").read_bytes()
