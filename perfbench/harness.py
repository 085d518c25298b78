"""Measurement core of the benchmark: loading mvtk, the tracer, the timed
task loop and the statistics it reports.

Nothing here imports mvtk at module level, so the caller can time the
import itself.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# ---------------------------------------------------------------------------
# host speed
#
# The machines this runs on are shared: other tenants slow every process
# down, by up to 1.7x, for stretches from seconds to many minutes.  Wall
# times alone then measure the neighbours more than the program.  So the
# timed loop also times a fixed reference job, which does not use mvtk,
# between tasks, and rescales each task's wall time to a host on which
# that job takes its ``reference_s``: on a host slowed by 1.5x both the
# task and the job take about 1.5x longer, and the ratio stays nearly
# put.  A change to mvtk moves the task time and not the job.


class Reference:
    """A reference job: ``measure()`` runs it once and returns its
    seconds; ``reference_s`` is a fixed constant, about what the job
    takes on a quiet 2-vCPU machine, that sets the unit of the rescaled
    times."""

    def __init__(self, name, measure, reference_s):
        self.name = name
        self.measure = measure
        self.reference_s = reference_s

    def scale(self, timings) -> float:
        """Factor that turns a wall time measured next to ``timings``
        (seconds of this job) into reference-host seconds."""
        return self.reference_s / statistics.median(timings)


WINDOW = 3  # reference timings on each side of a measured span


def _kernel() -> int:
    """Dict lookups, tuple keys, small-int arithmetic and a generator: the
    operations mvtk's pure-Python code is made of."""
    table: dict = {}
    acc = 0
    for i in range(4000):
        key = (i & 63, i >> 6)
        seen = table.get(key, 0) + 1
        table[key] = seen
        acc += min(seen, i % 7) * (i ^ 5)
    return acc + sum(x * x for x in range(600))


def _time_kernel() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def _time_numpy_child() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT,
                   env=child_env(), capture_output=True, timeout=120,
                   check=True)
    return time.perf_counter() - start


# In-process work tracks in-process tasks; a task that is a fresh
# interpreter tracks another fresh interpreter (start-up, imports, shared
# libraries) far better than it tracks in-process work.
KERNEL = Reference("python kernel", _time_kernel, 0.0025)
NUMPY_CHILD = Reference("fresh interpreter importing numpy",
                        _time_numpy_child, 0.100)


def scaled_seconds(fn, reference=KERNEL) -> tuple[float, float]:
    """Run ``fn`` between two sets of reference timings; return its wall
    seconds as measured and rescaled to the reference host."""
    before = [reference.measure() for _ in range(WINDOW)]
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    after = [reference.measure() for _ in range(WINDOW)]
    return wall, wall * reference.scale(before + after)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, bad import)."""


def import_mvtk():
    """Import mvtk from this checkout's ``src``.  Refuses any other copy of
    the package."""
    if not (SRC / "mvtk" / "__init__.py").is_file():
        raise SetupError(f"no mvtk sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mvtk = importlib.import_module("mvtk")
    origin = pathlib.Path(mvtk.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"mvtk was imported from {origin}, not {SRC}")


def child_env() -> dict:
    """Environment for child interpreters: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# tracing


class NullTracer:
    """The untraced path: calls go straight through, nothing is kept."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    @contextlib.contextmanager
    def task(self, task_id, kind):
        yield


class Tracer:
    """Spans and counts, kept in memory until the run ends.

    A span is ``(name, start, end, parent, task, mode)``: ``parent`` is
    the index of the enclosing span (-1 at top level), ``task`` the task
    id (None outside tasks), and ``mode`` the ``mode`` keyword of the
    call when it has one (sampled or exhaustive checks).
    Span names are ``module.function``; a task span is named
    ``task.<kind>``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._task = None

    def _open(self, name, task, mode):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, task, mode])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name, self._task, kwargs.get("mode"))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def count(self, name, n=1):
        self.counts[name] += n

    @contextlib.contextmanager
    def task(self, task_id, kind):
        self._task = task_id
        self._open(f"task.{kind}", task_id, None)
        try:
            yield
        finally:
            self._close()
            self._task = None

    def totals(self, keep=lambda name: True):
        """Per call name: (seconds busy, number of calls).  A name is also
        credited under ``name@mode`` when the call had a mode."""
        busy, calls = Counter(), Counter()
        for name, start, end, _, _, mode in self.spans:
            if name.startswith("task.") or not keep(name):
                continue
            busy[name] += end - start
            calls[name] += 1
            if mode:
                busy[f"{name}@{mode}"] += end - start
        return busy, calls

    def self_time(self) -> float:
        """Task time not covered by the task's calls into mvtk: the
        benchmark's own overhead."""
        tasks = {i for i, s in enumerate(self.spans) if s[0].startswith("task.")}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in tasks)
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in tasks)
        return total - covered

    def dump(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": round(a - origin, 9),
                 "end": round(b - origin, 9), "parent": p, "task": t,
                 **({"mode": m} if m else {})}
                for n, a, b, p, t, m in self.spans]


# ---------------------------------------------------------------------------
# the task loop


class Outcome:
    """What a sequence of task executions did: per execution the task's
    index, kind, latency and host scale (1 when the loop timed no
    reference job), and the wrong verdicts."""

    def __init__(self):
        self.indices: list[int] = []
        self.kinds: list[str] = []
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.failures: list[str] = []
        self.wall = 0.0
        self.reference: list[float] = []  # reference-job timings, seconds

    def extend(self, other):
        for name in ("indices", "kinds", "latencies", "scales", "failures"):
            getattr(self, name).extend(getattr(other, name))

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def typical(self, scaled=True) -> dict:
        """Per task index: (kind, median latency over its executions),
        rescaled to the reference host unless ``scaled`` is false."""
        runs = {}
        for i, kind, x, k in zip(self.indices, self.kinds, self.latencies,
                                 self.scales):
            runs.setdefault(i, (kind, []))[1].append(x * k if scaled else x)
        return {i: (kind, statistics.median(xs))
                for i, (kind, xs) in runs.items()}


# glibc can hand freed heap pages back to the system; without that, the
# peak RSS of a long loop drifts with allocator history instead of
# showing the largest task.  Elsewhere this is a no-op.
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)


def run_task(workload, index, task, tracer, outcome):
    """Run one task, record its latency and whether its verdict held."""
    start = time.perf_counter()
    try:
        with tracer.task(index, task.kind):
            problem = workload.run(task, tracer)
    except Exception as exc:  # a raising task is a failed task, not a crash
        problem = f"raised {type(exc).__name__}: {exc}"
    outcome.latencies.append(time.perf_counter() - start)
    outcome.scales.append(1.0)
    _malloc_trim(0)
    outcome.indices.append(index)
    outcome.kinds.append(task.kind)
    if problem is not None:
        outcome.failures.append(f"task {index} ({task.kind}, {task.key}): {problem}")


def run_for(workload, tasks, seconds, reference) -> Outcome:
    """Cycle through ``tasks`` untraced until ``seconds`` have passed (at
    least one task runs), so that each task runs several times.  The
    reference job runs once before every task and once after the last;
    each execution's host scale comes from the WINDOW reference timings on
    either side of it."""
    tracer = NullTracer()
    outcome = Outcome()
    timings = [reference.measure()]  # timings[k] ran just before execution k
    start = time.perf_counter()
    count = 0
    while count == 0 or time.perf_counter() - start < seconds:
        index = count % len(tasks)
        run_task(workload, index, tasks[index], tracer, outcome)
        timings.append(reference.measure())
        count += 1
    outcome.scales = [
        reference.scale(timings[max(0, k + 1 - WINDOW):k + 1 + WINDOW])
        for k in range(count)]
    outcome.reference = timings
    return outcome


def run_once(workload, tasks, tracer=None) -> Outcome:
    """Run every task of ``tasks`` exactly once, in order."""
    tracer = tracer or NullTracer()
    outcome = Outcome()
    start = time.perf_counter()
    for index, task in enumerate(tasks):
        run_task(workload, index, task, tracer, outcome)
    outcome.wall = time.perf_counter() - start
    return outcome


# ---------------------------------------------------------------------------
# statistics and environment


def quantile(values, q) -> float:
    """Linear-interpolation quantile (q in [0, 1]) of a non-empty list."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def median_of(fn, times: int) -> float:
    return statistics.median(fn() for _ in range(times))


def child_seconds(code: str) -> float:
    """Run ``code`` in a fresh interpreter at the checkout root and return
    the float it prints on its last line."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def startup_seconds() -> float:
    """Wall time of a bare interpreter start, in a child process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True,
                   timeout=120)
    return time.perf_counter() - start


def environment() -> dict:
    import numpy  # already loaded by mvtk
    sha = "unknown"  # a plain source checkout has no git metadata
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                sha = done.stdout.strip()
        except OSError:
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "git_sha": sha}
