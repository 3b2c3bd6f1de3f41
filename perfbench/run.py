"""ifsshadow benchmark: closed-loop workloads over the public library and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload shadow --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` of the same checkout; without it the
command prints an error and exits with code 2.  One process runs one
workload: set-up, one untimed warm-up cycle, then whole task cycles until
``--seconds`` have passed and at least MIN_TASKS tasks are timed.  Set-up
is timed again between cycles every SETUP_INTERVAL seconds and its median
reported, so that it samples the machine over the same span as the tasks.
Every time reported is scaled to a quiet host's speed (see CAL_QUIET_S).
Every task's output is checked; the command exits with code 1 when a check
failed.

With ``--trace 1`` the untraced loop runs for half of ``--seconds`` and a
traced run follows: one set-up plus a fixed number of cycles under the
outside-in tracer (``tracing.py``).  It reports the per-layer metrics, and
``trace_overhead_frac`` from the traced against the untraced tasks per
second, and writes the spans to ``perfbench/out/trace-<workload>.json``.

Standard output ends with two JSON lines: a report (machine, sample counts,
``failed_frac``, per-kind latencies) and the result with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer
from workloads import WORKLOADS, CheckFailed, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Timed tasks a run completes at least, so that ten or more lie beyond
#: the 90th percentile.
MIN_TASKS = 100

#: Seconds of timed cycles between two set-up repetitions.
SETUP_INTERVAL = 0.5

#: Host-speed reference.  The shared host this benchmark was written on slows
#: every task by up to 2x for tens of seconds at a time, CPU time slowing
#: with wall time (it is not steal), so longer runs do not average it out.
#: Before each task and each set-up the runner times two fixed kernels that
#: run no library code, one interpreter-bound (4x4 solves and Python
#: arithmetic) and one memory-bound (a pass over 2 MB arrays), and divides
#: the wall time by host_slowdown(): the mean of their times over their
#: quiet-host times CAL_QUIET_S, taken as the median over CAL_WINDOW tasks
#: either side.  The two kinds of slowdown vary independently; the tasks
#: follow a mix of them that differs between workloads and over time; an
#: even mix was the best single choice across the workloads (README.md).  Scaled times read roughly as
#: wall times on the quiet host; the report line keeps the unscaled
#: wall-clock figures.
CAL_QUIET_S = (1.75e-3, 1.95e-3)   # (interpreter, memory)
CAL_WINDOW = 2

_CAL_A = np.eye(4) * 2.0 + 0.1
_CAL_B = np.ones(4)
_CAL_X = np.linspace(0.0, 1.0, 1 << 18)
_CAL_Y = _CAL_X[::-1].copy()

#: Offset of the traced cycles' seeds, so the traced run gets the same
#: inputs however many untraced cycles ran before it.
TRACE_CYCLE_BASE = 1_000_000


class LibraryMissing(RuntimeError):
    pass


def load_library(root: Path = ROOT):
    """Import ifsshadow from root/src, refusing any other installed copy."""
    src = root / "src"
    if not (src / "ifsshadow" / "__init__.py").is_file():
        raise LibraryMissing(f"no library sources under {src}")
    sys.path.insert(0, str(src))
    import ifsshadow
    import ifsshadow.cli  # noqa: F401 - the CLI workload calls cli.main
    if Path(ifsshadow.__file__).resolve().parent != (src / "ifsshadow").resolve():
        raise LibraryMissing(f"imported ifsshadow from {ifsshadow.__file__}, not {src}")
    return ifsshadow


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy ship."""
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            try:
                blas = ctypes.CDLL(str(path))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(blas, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[path.name] = int(fn())
                    break
    return found


def machine_info() -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def host_slowdown() -> float:
    """How many times slower than on the quiet host the kernels run now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(250):
        acc += float(np.linalg.solve(_CAL_A, _CAL_B)[0])
        acc += sum([i * 0.5 + j for j in range(20)])
    t1 = time.perf_counter()
    acc += float(np.sum(np.sqrt(_CAL_X * _CAL_X + _CAL_Y * _CAL_Y)))
    t2 = time.perf_counter()
    return ((t1 - t0) / CAL_QUIET_S[0] + (t2 - t1) / CAL_QUIET_S[1]) / 2.0


@dataclass
class Tally:
    """Outcomes and latencies of the tasks of one phase."""

    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)   # (kind, seconds, slowdown)
    failures: list = field(default_factory=list)

    def wall(self) -> np.ndarray:
        return np.array([dt for _, dt, _ in self.latencies])

    def scaled(self) -> np.ndarray:
        """Task latencies scaled to the quiet host's speed."""
        slow = np.array([c for _, _, c in self.latencies])
        local = np.array([np.median(slow[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
                          for i in range(len(slow))])
        return self.wall() / local

    @property
    def tasks_per_s(self) -> float:
        """Tasks per second of (scaled) task time: one closed-loop client
        completes 1 / mean latency tasks per second."""
        return self.attempted / float(np.sum(self.scaled()))


def run_cycle(ctx, workload, seed: int, cycle: int, tally: Tally,
              tracer=None) -> None:
    start = time.perf_counter()
    for pos, (kind, task) in enumerate(workload.cycle):
        rng = np.random.default_rng([seed, cycle, pos])
        if tracer is not None:
            tracer.task = f"{cycle}.{pos}"
        slow = host_slowdown()
        t0 = time.perf_counter()
        error = None
        try:
            check = task(ctx, rng)
        except Exception as exc:  # a raising task is a failed task
            error, check = f"{type(exc).__name__}: {exc}", None
        dt = time.perf_counter() - t0
        if check is not None:
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                try:
                    check()
                except CheckFailed as exc:
                    error = str(exc)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
        tally.attempted += 1
        tally.latencies.append((kind, dt, slow))
        if error is not None:
            tally.failed += 1
            tally.failures.append(f"cycle {cycle} {kind}: {error}")
    tally.elapsed += time.perf_counter() - start


def run_for(ctx, workload, seed: int, first_cycle: int, seconds: float,
            min_tasks: int, setup_times: list | None = None) -> Tally:
    """Whole cycles until `seconds` have passed and min_tasks are done.

    With setup_times, a set-up is timed between cycles every SETUP_INTERVAL
    seconds (its state is dropped), so set-up is sampled across the run.
    """
    tally, cycle, next_setup = Tally(), first_cycle, SETUP_INTERVAL
    while True:
        run_cycle(ctx, workload, seed, cycle, tally)
        cycle += 1
        if setup_times is not None and tally.elapsed >= next_setup:
            setup_times.append(timed_setup(ctx, workload, seed)[1])
            next_setup = tally.elapsed + SETUP_INTERVAL
        if tally.elapsed >= seconds and tally.attempted >= min_tasks:
            return tally


def timed_setup(ctx, workload, seed: int):
    """(state, seconds) of one set-up, scaled to the quiet host by the mean
    slowdown just before and after it; the same seed gives the same state."""
    rng = np.random.default_rng([seed, 0, 0, 0])
    slow = host_slowdown()
    t0 = time.perf_counter()
    state = workload.setup(ctx, rng)
    dt = time.perf_counter() - t0
    return state, dt / ((slow + host_slowdown()) / 2.0)


def latency_summary(tally: Tally) -> dict:
    per_kind = {}
    for (kind, _, _), dt in zip(tally.latencies, tally.scaled()):
        per_kind.setdefault(kind, []).append(dt)
    return {k: round(statistics.median(v) * 1e3, 3) for k, v in per_kind.items()}


def wall_summary(tally: Tally) -> dict:
    """The unscaled wall-clock figures of a phase."""
    p50, p90 = np.percentile(tally.wall(), [50, 90]) * 1e3
    slow = [c for _, _, c in tally.latencies]
    return {"tasks_per_s": tally.attempted / tally.elapsed,
            "task_p50_ms": float(p50), "task_p90_ms": float(p90),
            "host_slowdown": statistics.median(slow)}


def run_benchmark(lib, name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, out_dir: Path = OUT):
    """Run one workload; returns (result, report) as printed by main."""
    workload = WORKLOADS[name]
    size = workload.tiny if tiny else workload.full
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        ctx = Context(lib=lib, size=size, threads=nproc(), scratch=scratch)
        ctx.state, first_setup = timed_setup(ctx, workload, seed)
        setup_times = [first_setup]
        warm = Tally()
        run_cycle(ctx, workload, seed, 0, warm)
        min_tasks = 0 if tiny else MIN_TASKS
        if not trace:
            timed = run_for(ctx, workload, seed, 1, seconds, min_tasks, setup_times)
            tallies = [warm, timed]
            lat = timed.scaled()
            p50, p90 = np.percentile(lat, [50, 90]) * 1e3
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "tasks_per_s": (timed.tasks_per_s, "1/s"),
                "task_p50_ms": (float(p50), "ms"),
                "task_p90_ms": (float(p90), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            extra = {"timed_tasks": timed.attempted,
                     "tasks_beyond_p90": sum(1 for x in lat if x * 1e3 > p90),
                     "setup_reps": len(setup_times),
                     "kind_p50_ms": latency_summary(timed),
                     "wall": wall_summary(timed)}
        else:
            untraced = run_for(ctx, workload, seed, 1, seconds / 2.0, 0)
            metrics, traced, trace_file = traced_run(ctx, workload, seed, size,
                                                     out_dir)
            metrics["trace_overhead_frac"] = {
                "value": 1.0 - traced.tasks_per_s / untraced.tasks_per_s,
                "unit": "ratio"}
            tallies = [warm, untraced, traced]
            extra = {"traced_tasks": traced.attempted,
                     "untraced_tasks_per_s": untraced.tasks_per_s,
                     "traced_tasks_per_s": traced.tasks_per_s,
                     "trace_file": str(trace_file.relative_to(ROOT))
                     if trace_file.is_relative_to(ROOT) else str(trace_file),
                     "kind_p50_ms": latency_summary(traced)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "threads": ctx.threads, "machine": machine_info(),
              "failed_frac": {"value": failed / attempted, "unit": "ratio"},
              "failures": failures[:10], **extra}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def traced_run(ctx, workload, seed: int, size: dict, out_dir: Path):
    """One traced set-up plus size['trace_cycles'] traced cycles."""
    tracer = Tracer(ctx.lib)
    tracer.install()
    try:
        tracer.task = "setup"
        ctx.state = timed_setup(ctx, workload, seed)[0]
        tally = Tally()
        for i in range(size["trace_cycles"]):
            run_cycle(ctx, workload, seed, TRACE_CYCLE_BASE + i, tally, tracer)
    finally:
        tracer.uninstall()
    path = out_dir / f"trace-{workload.name}.json"
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "cycles": size["trace_cycles"], "tasks": tally.attempted})
    return tracer.layer_metrics(), tally, path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = load_library()
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, report = run_benchmark(lib, args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    for failure in report["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
