"""Self-test of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

1. Two traced runs of each workload with one seed give identical counts
   and identical failures (none).
2. Every verdict checker catches a known-wrong case.
3. The metrics a run reports are exactly those of BENCHMARK.json, and
   every per-layer metric is non-zero on at least one workload.

Prints one line per problem and exits 1 if there is any.
"""

import contextlib
import io
import json
import sys

import harness
import run

SEED = 7
# legitimately 0 on a correct program
MAY_BE_ZERO = {"pretorsion.is_trivial_morphism.errors"}


def run_main(workload, trace):
    """run.main in this process; returns (result line, output record)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)])
    if code != 0:
        raise RuntimeError(f"{workload}: run.main exited {code}")
    record = json.loads((run.OUT / f"{workload}-seed{SEED}-trace{trace}.json")
                        .read_text())
    return json.loads(out.getvalue().strip().splitlines()[-1]), record


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def determinism(spec, problems):
    produced = set()
    for name in sorted(workloads.WORKLOADS):
        first, first_record = run_main(name, 1)
        second, second_record = run_main(name, 1)
        if counts(first) != counts(second):
            problems.append(f"{name}: counts differ between runs of one seed")
        if first_record["failures"] or second_record["failures"]:
            problems.append(f"{name}: failures {first_record['failures'][:3]} "
                            f"{second_record['failures'][:3]}")
        if [m["name"] for m in spec["per_layer"]] != list(first["metrics"]):
            problems.append(f"{name}: traced metrics differ from BENCHMARK.json")
        produced |= {k for k, v in first["metrics"].items() if v["value"]}
        plain, _ = run_main(name, 0)
        if [m["name"] for m in spec["end_to_end"]] != list(plain["metrics"]):
            problems.append(f"{name}: metrics differ from BENCHMARK.json")
        if not all(v["value"] > 0 for v in plain["metrics"].values()):
            problems.append(f"{name}: an end-to-end metric is not positive")
    silent = {m["name"] for m in spec["per_layer"]} - produced - MAY_BE_ZERO
    if silent:
        problems.append(f"per-layer metrics 0 on every workload: {sorted(silent)}")


def negative_controls(problems):
    """Each checker must reject an input whose known answer is wrong."""
    tr = harness.NullTracer()
    Task = workloads.Task

    identities = workloads.WORKLOADS["identities"]
    chain = mvtk.to_finite(mvtk.make_chain(3))
    rows = [list(r) for r in chain.plus_rows]
    rows[1][2] = 0
    corrupt = mvtk.make_finite(chain.neg_row, rows, chain.zero)
    cases = [
        ("identities: a corrupted table passed as a catalog algebra",
         identities, Task("exhaustive", "", 4, (corrupt,))),
        ("identities: an intact table passed as a corrupted one",
         identities, Task("corrupted", "", 4, (chain,))),
        ("finite_homs: a domain signature that does not match its table",
         workloads.WORKLOADS["finite_homs"],
         Task("hom_pairs", "", 3, (mvtk.to_finite(mvtk.make_chain(2)), (3,),
                                   ((mvtk.to_finite(mvtk.make_chain(2)), (2,)),)))),
    ]
    cli = workloads.WORKLOADS["cli_fixtures"]
    name, args, code = workloads.COMMANDS[-1]
    expected = (workloads.EXPECTED / f"{name}.out").read_bytes()
    cases += [
        ("cli_fixtures: stdout that differs from the frozen output",
         cli, Task("command", name, None, (name, args, code, expected + b" "))),
        ("cli_fixtures: the wrong exit code",
         cli, Task("command", name, None, (name, args, 0, expected))),
    ]
    for label, workload, task in cases:
        if workload.run(task, tr) is None:
            problems.append(f"not caught: {label}")

    # a task that raises counts as failed, it does not stop the run
    symbolic = workloads.WORKLOADS["symbolic_extensions"]
    algebra = mvtk.make_komori(1, 1)
    foreign = mvtk.MarkerIdeal((("sub", frozenset({1})),))  # needs rank 2
    outcome = harness.Outcome()
    harness.run_task(symbolic, 0, Task("extension", "", 3,
                                       (algebra, foreign, foreign)),
                     tr, outcome)
    if len(outcome.failures) != 1:
        problems.append("not caught: symbolic_extensions: an ideal outside "
                        "the algebra")


def main() -> int:
    problems = []
    spec = json.loads(run.BENCHMARK.read_text())
    negative_controls(problems)
    determinism(spec, problems)
    for line in problems:
        print(f"selftest: {line}")
    print(f"selftest: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    harness.import_mvtk()
    import mvtk
    import workloads
    sys.exit(main())
