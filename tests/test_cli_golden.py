"""Every fixture command prints its frozen output, byte for byte, only
the commands that evaluate a table's arrays load numpy, and each command
loads only the mvtk modules it runs.

The frozen outputs live in ``perfbench/expected`` and are only read here.
"""

import json
import pathlib
import subprocess
import sys

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

# the fixture commands that evaluate a table's arrays, and so load numpy
NUMPY_COMMANDS = ("check-axioms_chain4", "terms_chain4")

# the mvtk modules each fixture command loads, besides mvtk, mvtk.cli,
# mvtk.jsonio and mvtk.core
_HOMS = ("ideals", "morphisms")
_EXTENSIONS = (*_HOMS, "pretorsion", "galois")
LOADED = {
    "check-axioms_chain4": (),
    "radical_chang": (*_HOMS, "pretorsion"),
    "ideals_product": ("ideals",),
    "homs_pair": _HOMS,
    "classify_eta_chang": _EXTENSIONS,
    "factorize_quotient_map": _EXTENSIONS,
    "pretorsion_product": (*_HOMS, "pretorsion"),
    "square-classify_square": (*_EXTENSIONS, "galois2"),
    "commutator_commutator": (*_EXTENSIONS, "galois2"),
    "terms_chain4": (*_HOMS, "catalog", "terms"),
    "gamma_group": ("mundici",),
    "catalog_8": ("catalog",),
    "gamma_bad_unit_group": ("mundici",),
}


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


def test_only_table_commands_load_numpy():
    """In one fresh interpreter, ``import mvtk`` and the symbolic fixture
    commands leave numpy unloaded; the exhaustive ``check-axioms`` on
    ``chain4`` then loads it, so the check cannot pass vacuously."""
    argv = {name: [str(ROOT / a) if a.startswith("fixtures/") else a
                   for a in args]
            for name, args, _ in COMMANDS}
    runs = [(name, argv[name]) for name in argv
            if name not in NUMPY_COMMANDS]
    runs.append(("check-axioms_chain4", argv["check-axioms_chain4"]))
    code = ("import contextlib, io, json, sys\n"
            "import mvtk, mvtk.cli\n"
            "loaded = {'import': 'numpy' in sys.modules}\n"
            f"for name, argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        mvtk.cli.main(argv)\n"
            "    loaded[name] = 'numpy' in sys.modules\n"
            "print(json.dumps(loaded))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(runs) == 12
    expected = {"import": False, **{name: False for name, _ in runs[:-1]},
                "check-axioms_chain4": True}
    assert json.loads(proc.stdout) == expected


def _loaded_modules(code):
    proc = subprocess.run([sys.executable, "-c", code + "\n"
                           "print(json.dumps(sorted(m for m in sys.modules\n"
                           "                        if m.split('.')[0] == 'mvtk')))\n"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_module():
    assert _loaded_modules("import json, sys\nimport mvtk") == ["mvtk"]
    assert _loaded_modules("import json, sys\nfrom mvtk import cli") \
        == ["mvtk", "mvtk.cli", "mvtk.core", "mvtk.jsonio"]


@pytest.mark.parametrize("name,args,code", COMMANDS,
                         ids=[name for name, _, _ in COMMANDS])
def test_each_command_loads_only_the_modules_it_runs(name, args, code):
    """In a fresh interpreter a command imports the modules of its own
    handler, so it compiles no other module of the package."""
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in args]
    run = ("import contextlib, io, json, sys\n"
           "from mvtk.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           f"    assert main({argv!r}) == {code}\n")
    expected = ["mvtk", *(f"mvtk.{m}" for m in ("cli", "core", "jsonio",
                                                 *LOADED[name]))]
    assert _loaded_modules(run) == sorted(expected)
