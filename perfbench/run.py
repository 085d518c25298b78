"""mvtk benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the ``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` they are
its ``per_layer`` metrics.  Earlier lines print the same metrics for a
reader, with the failure ratio and the input properties.  The full
results (and, traced, every span) go to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import harness
from harness import ROOT, NullTracer, SetupError, Tracer

BENCHMARK = ROOT / "BENCHMARK.json"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5

# Counts the workloads record with ``tr.count``; a per-layer name that is
# neither one of these nor derived from a span is a spelling mistake.
COUNTS = {
    "core.table_cells", "core.checks_evaluated.exhaustive",
    "core.checks_evaluated.sample", "terms.checks_evaluated",
    "mundici.checks_evaluated", "morphisms.homs_found",
    "morphisms.empty_searches", "morphisms.points_compared",
    "ideals.ideals_enumerated", "pretorsion.probes_checked",
    "pretorsion.is_trivial_morphism.errors",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One more set-up (import and input generation) in a fresh process:
    its seconds as measured and rescaled to the reference host."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    wall, scaled = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(scaled)


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(workload, inputs, args, first_setup):
    """Time the task list for ``args.seconds``.  Each task runs several
    times; its latency is the median of its runs, each rescaled to the
    reference host by the reference-job timings around it (see
    harness.Reference)."""
    outcome = harness.run_for(workload, inputs.tasks, args.seconds,
                              workload.reference)
    if workload.name == "cli_fixtures":
        rss = harness.peak_rss_mb(resource.RUSAGE_CHILDREN)
    else:
        rss = harness.peak_rss_mb()
    # set-up is repeated after the timed loop so that its children do not
    # count towards the largest CLI child
    setups = [first_setup] + [setup_probe(workload.name, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]

    def summary(scaled):
        per_task = outcome.typical(scaled)
        ms = [1000 * x for _, x in per_task.values()]
        return per_task, {
            "tasks_per_s": len(ms) / sum(ms) * 1000,
            "task_p50_ms": harness.quantile(ms, 0.5),
            "task_p90_ms": harness.quantile(ms, 0.9),
        }

    per_task, times = summary(True)
    values = {"setup_s": statistics.median(s for _, s in setups), **times,
              "peak_rss_mb": rss}
    runs = Counter(outcome.indices)
    by_kind = {}
    for kind, x in per_task.values():
        by_kind.setdefault(kind, []).append(1000 * x)
    extra = {
        "setup_samples_s": [{"wall": w, "scaled": s} for w, s in setups],
        "distinct_tasks": len(per_task),
        "task_p90_beyond": sum(1000 * x > values["task_p90_ms"]
                               for _, x in per_task.values()),
        "runs_per_task": {"min": min(runs.values()), "max": max(runs.values())},
        # the same figures from wall times as measured, without rescaling
        "unscaled": {"setup_s": statistics.median(w for w, _ in setups),
                     **summary(False)[1]},
        "reference_job": {"name": workload.reference.name,
                          "reference_ms": 1000 * workload.reference.reference_s,
                          "min_ms": 1000 * min(outcome.reference),
                          "median_ms": 1000 * statistics.median(outcome.reference),
                          "max_ms": 1000 * max(outcome.reference)},
        "scaled_ms_by_kind": {k: {"tasks": len(v), "p50": statistics.median(v),
                                  "max": max(v)}
                              for k, v in sorted(by_kind.items())},
    }
    return outcome, values, extra


# ---------------------------------------------------------------------------
# traced run


def traced(workload, inputs, args, setup_tracer):
    """Alternate untraced and traced passes over the first
    ``inputs.pass_size`` tasks while another pair fits in the time (at
    least one pair runs); per-layer numbers are per traced pass."""
    tasks = inputs.tasks[:inputs.pass_size]
    plain, passes = [], []
    start = last = time.perf_counter()
    pair_s = 0.0
    while not passes or last - start + pair_s <= args.seconds:
        tracer = Tracer()
        pair = [lambda: plain.append(harness.run_once(workload, tasks)),
                lambda: passes.append((harness.run_once(workload, tasks, tracer),
                                       tracer))]
        for step in pair if len(passes) % 2 == 0 else pair[::-1]:
            step()  # alternate which side runs first
        pair_s = time.perf_counter() - last
        last += pair_s
    outcome = harness.Outcome()
    for run in plain + [p for p, _ in passes]:
        outcome.extend(run)
    first = passes[0][1]
    for _, tracer in passes[1:]:
        if tracer.counts != first.counts or tracer.totals()[1] != first.totals()[1]:
            outcome.failures.append("counts differ between traced passes")
    wall = statistics.mean(p.wall for p, _ in passes)

    n = len(passes)
    busy, calls = Counter(), first.totals()[1]
    for _, tracer in passes:
        busy.update(tracer.totals()[0])
    busy = {k: v / n for k, v in busy.items()}
    in_passes = dict(busy)  # shares of the pass wall time come from these
    setup_busy, setup_calls = setup_tracer.totals(lambda s: s.startswith("catalog."))
    busy.update(setup_busy)
    calls.update(setup_calls)

    probe = {}
    if hasattr(workload, "layer_probe"):
        probe_tracer = Tracer()
        probe, problems = workload.layer_probe(probe_tracer)
        outcome.failures += problems
        probe_busy, probe_calls = probe_tracer.totals()
        busy.update(probe_busy)
        calls.update(probe_calls)

    counts = first.counts
    self_s = statistics.mean(t.self_time() for _, t in passes)
    extra = dict(probe)
    extra.update({
        # paired, so that a change of machine speed between pairs cancels
        "trace_overhead_ratio": statistics.median(
            t.wall / u.wall for (t, _), u in zip(passes, plain)) - 1,
        "bench.wall_s": wall,
        "bench.self_s": self_s,
        "bench.self_share": self_s / wall,
        "core.checks_evaluated": (counts["core.checks_evaluated.exhaustive"]
                                  + counts["core.checks_evaluated.sample"]),
    })
    for mode, label in (("sample", "sampled"), ("exhaustive", "exhaustive")):
        checks = counts[f"core.checks_evaluated.{mode}"]
        spent = sum(v for k, v in busy.items()
                    if k.startswith("core.check_") and k.endswith(f"@{mode}"))
        extra[f"core.us_per_check.{label}"] = 1e6 * spent / checks if checks else 0.0

    def value(name):
        if name in extra:
            return extra[name]
        if name in COUNTS:
            return counts[name]
        stem, _, field = name.rpartition(".")

        def layer_busy(source):
            return sum(v for k, v in source.items() if "@" not in k
                       and (k == stem or k.startswith(stem + ".")))

        if field == "calls":
            return calls[stem]
        if field == "busy_s":
            return layer_busy(busy)
        if field == "busy_share":
            return layer_busy(in_passes) / wall
        if field.endswith("_ms"):  # mean per call, 0 when never called
            span = f"{stem}.{field[:-3]}"
            return 1000 * busy[span] / calls[span] if calls[span] else 0.0
        raise KeyError(f"no rule for per-layer metric {name!r}")

    return outcome, value, {"passes": n, "plain_walls_s": [p.wall for p in plain],
                            "traced_walls_s": [p.wall for p, _ in passes],
                            "spans": first.dump()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    # set-up (importing mvtk and the workloads, generating the inputs) is
    # timed between timings of the in-process reference job, as in
    # setup_probe.py
    kernel = harness.KERNEL
    before = [kernel.measure() for _ in range(harness.WINDOW)]
    start = time.perf_counter()
    try:
        harness.import_mvtk()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads  # needs mvtk on the path

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup_tracer = Tracer() if args.trace else NullTracer()
    inputs = workload.generate(args.seed, setup_tracer)
    setup_wall = time.perf_counter() - start
    after = [kernel.measure() for _ in range(harness.WINDOW)]
    first_setup = (setup_wall, setup_wall * kernel.scale(before + after))

    if args.trace:
        outcome, value, detail = traced(workload, inputs, args, setup_tracer)
        wanted = spec["per_layer"]
        values = {m["name"]: value(m["name"]) for m in wanted}
    else:
        outcome, values, detail = end_to_end(workload, inputs, args, first_setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    sizes = sorted(t.size for t in inputs.tasks if t.size is not None)
    keys = [t.key for t in inputs.tasks]
    properties = {
        "tasks": len(inputs.tasks),
        "task_runs": outcome.attempted,
        "size_measure": inputs.size_measure,
        "sized_share": len(sizes) / len(inputs.tasks),
        "size_min": sizes[0] if sizes else None,
        "size_median": statistics.median(sizes) if sizes else None,
        "size_max": sizes[-1] if sizes else None,
        # tasks whose algebra (or command) an earlier task already used
        "repeat_share": 1 - len(set(keys)) / len(keys),
    }
    failed = len(outcome.failures)
    result = {"correct": failed == 0, "attempted": outcome.attempted,
              "failed": failed, "metrics": metrics}

    for name, m in metrics.items():
        print(f"{args.workload}  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  {'fail_ratio':<40} "
          f"{failed / max(outcome.attempted, 1):.6g} ratio "
          f"({failed} of {outcome.attempted})")
    if not args.trace:
        print(f"{args.workload}  latencies: median of "
              f"{detail['runs_per_task']['min']}..{detail['runs_per_task']['max']} "
              f"runs of {detail['distinct_tasks']} tasks; "
              f"{detail['task_p90_beyond']} beyond task_p90_ms; reference job "
              f"({detail['reference_job']['name']}) took "
              f"{detail['reference_job']['median_ms']:.3f} ms (median), "
              f"{detail['reference_job']['reference_ms']:.3f} ms on the "
              f"reference host")
        print(f"{args.workload}  unscaled " + json.dumps(detail["unscaled"]))
    print(f"{args.workload}  inputs " + json.dumps(properties))
    for line in outcome.failures[:10]:
        print(f"{args.workload}  FAILED {line}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": harness.environment(), "inputs": properties,
              "failures": outcome.failures, "detail": detail, **result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
