"""Benchmark of the ifhv command line.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Runs one workload (decide, audit, hypervolume or paper_cli; see
bench/README.md) from a single process. Load is sequential: no threads and
at most one child process at a time.

--trace 0 measures end to end: set-up time (median of several fresh
set-ups), the wall time of one pass over the workload's commands (the sum of
each command's median over the passes run in --seconds) and the peak
resident memory of this process, which ran the workload's commands. --trace 1 alternates untraced and traced passes
and reports per-layer spans and counters from the traced ones, plus the
tracing overhead against the untraced ones.

Every command output is checked (see workloads.py) and must be
byte-identical across the passes of a run. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("decide", "audit", "hypervolume", "paper_cli")
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150

COMMANDS = ("rank", "compare", "audit", "axioms", "hv")


class ProbeFailed(Exception):
    """A set-up process failed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), text=True,
        capture_output=True, timeout=CHILD_TIMEOUT_S,
    )


def probe(workload: str, seed: int, directory: Path) -> None:
    """Set up once in a fresh process: write the inputs, import, warm up."""
    done = run_child([str(BENCH / "probe.py"), "setup", workload, str(seed), str(directory)])
    if done.returncode != 0:
        raise ProbeFailed(f"set-up exited {done.returncode}: {done.stderr.strip()[-2000:]}")


class Runner:
    """Runs invocations, times each one, and checks every output.

    The first output of each invocation is kept, and every later one must
    match it byte for byte. The semantic checks run in `finish`, after the
    timed passes, so that their work and memory stay out of the figures.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self._first: dict[str, list] = {}  # label -> [invocation, output, times seen]

    def run(self, inv, tracer=None) -> float:
        from workloads import invoke

        self.attempted += 1
        trace_file = self.work / "trace.json"
        start = time.perf_counter()
        try:
            if inv.fresh:
                code, output = self._fresh(inv, trace_file if tracer is not None else None)
            elif tracer is None:
                code, output = invoke(inv.argv)
            else:
                with tracer.span(f"cli.{inv.command}"):
                    code, output = invoke(inv.argv)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failures.append((inv.label, f"raised {exc!r}"))
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if inv.fresh and tracer is not None and code == 0:
            trace = json.loads(trace_file.read_text())
            tracer.merge(trace["spans"], trace["counters"])
        self._verify(inv, code, output)
        return elapsed

    def _fresh(self, inv, trace_file: Path | None) -> tuple[int, str]:
        if trace_file is None:
            argv = ["-m", "ifhv.cli", *inv.argv]
        else:
            argv = [str(BENCH / "probe.py"), "cli", str(trace_file), *inv.argv]
        done = run_child(argv)
        return done.returncode, done.stdout

    def _verify(self, inv, code: int, output: str) -> None:
        if code != 0:
            self.failures.append((inv.label, f"exit code {code}"))
            return
        first = self._first.setdefault(inv.label, [inv, output, 0])
        if output == first[1]:
            first[2] += 1
        else:
            self.failures.append((inv.label, "output differs from an earlier pass"))

    def finish(self) -> None:
        """Check the first output of every invocation."""
        for inv, output, seen in self._first.values():
            try:
                inv.check(output)
            except Exception as exc:  # any error while checking is a failed check
                self.failures.extend([(inv.label, f"check failed: {exc!r}")] * seen)

    def one_pass(self, invocations, tracer=None) -> tuple[float, list[float]]:
        start = time.perf_counter()
        times = [self.run(inv, tracer) for inv in invocations]
        return time.perf_counter() - start, times


def machine() -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def measure_end_to_end(name: str, seed: int, seconds: float, work: Path):
    inputs = work / "inputs"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe(name, seed, inputs)
        setup_times.append(time.perf_counter() - start)

    from workloads import WORKLOADS, register_plugin

    workload = WORKLOADS[name]
    register_plugin()
    runner = Runner(work)
    runner.one_pass(workload.warmup(seed, inputs))
    invocations = workload.invocations(seed, inputs)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.one_pass(invocations))
    # This process ran the workload's commands in-process (paper_cli only in
    # its warm-up) and nothing else of size; Linux reports ru_maxrss in KiB.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runner.finish()

    per_command: dict[str, float] = defaultdict(float)
    for index, inv in enumerate(invocations):
        per_command[inv.command] += statistics.median(times[index] for _, times in passes)
    metrics = {
        "wall_s": (sum(per_command.values()), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    info = {f"{cmd}_s": (per_command[cmd], "s") for cmd in COMMANDS if cmd in per_command}
    info["passes"] = (len(passes), "count")
    info["pass_totals"] = ([round(total, 3) for total, _ in passes], "s")
    return runner, metrics, info


def measure_per_layer(name: str, seed: int, seconds: float, work: Path):
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS, register_plugin, write_inputs

    workload = WORKLOADS[name]
    inputs = work / "inputs"
    write_inputs(workload, seed, inputs)
    import ifhv.cli  # noqa: F401

    register_plugin()
    runner = Runner(work)
    runner.one_pass(workload.warmup(seed, inputs))
    invocations = workload.invocations(seed, inputs)
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        untraced.append(runner.one_pass(invocations)[0])
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.one_pass(invocations, tracer)[0])
        finally:
            tracer.uninstall()
        layers.append(tracer.pass_metrics())
    runner.finish()

    metrics = {}
    for key, unit in PER_LAYER:
        if key == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(untraced)
        else:
            value = statistics.median(layer[key] for layer in layers)
        metrics[key] = (value, unit)
    info = {
        "untraced_wall_s": (statistics.median(untraced), "s"),
        "traced_wall_s": (statistics.median(traced), "s"),
        "passes": (len(traced), "count"),
    }
    return runner, metrics, info


def _number(value: float):
    return int(value) if float(value).is_integer() and abs(value) < 2**53 else value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "ifhv" / "cli.py").is_file():
        print(f"error: the ifhv sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy's BLAS pool would add threads; the workloads do no BLAS work
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        runner, metrics, info = measure(args.workload, args.seed, args.seconds, work)
    except ProbeFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    for label, reason in runner.failures[:20]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    info["fail_ratio"] = (failed / runner.attempted, "ratio")
    print(f"# machine {json.dumps(machine())}")
    for key, (value, unit) in {**metrics, **info}.items():
        print(f"# {key} = {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
