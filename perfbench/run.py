#!/usr/bin/env python3
"""Benchmark of the nonlocal_limit package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_cli --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``sweep_cli``, ``nonlocal_mix`` and ``convergence_study``.  The package is
imported from ``src/`` of the checkout; without it the benchmark exits with
code 2 and prints no result.

With ``--trace 0`` a run sets the workload up, runs one warm-up unit, then
times units until ``--seconds`` have passed, gating every unit for
correctness, and times a fixed reference computation after each unit.  It
then repeats the set-up in fresh processes and reports the end-to-end
metrics: ``setup_s`` (median set-up over this process and the fresh ones),
``unit_s`` (median unit), ``peak_rss_mb`` and ``pass_ratio``.  Each unit's
wall time is rescaled by the reference times around it, and each set-up by
the reference timed right after it, to a host on which the reference takes
``REFERENCE_S``; the unscaled times are printed with the details.

With ``--trace 1`` it alternates untraced and traced units for the same time
and reports the per-layer metrics of tracing.py, medians over traced units.
Spans are written to ``.perfbench_out/spans-<workload>-seed<seed>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import workloads  # standard library only, so the timed import below stays cold

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("core", "kernels", "nonlocal_solver", "local_reference", "diagnostics",
           "harness", "cli")
# fresh processes that repeat the set-up, besides the measuring process itself
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
SPREAD_NOTE = ("shared host, nothing tuned: identical units moved by up to 1.5x over "
               "tens of seconds within one process and +-15% between processes; CPU "
               "time tracked wall time")
# Nominal seconds of reference_work().  The shared host's speed drifts (see
# SPREAD_NOTE) and the reference drifts with it, so each unit and set-up time
# is divided by the reference time measured next to it and multiplied by
# REFERENCE_S: seconds on a host where the reference takes REFERENCE_S.
REFERENCE_S = 0.15
REFERENCE_CELLS = 8192
REFERENCE_STEPS = 1000
REFERENCE_FORMAT_PASSES = 3
REFERENCE_LOOP = 750_000


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (missing package, broken set-up)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it as JSON")
    return parser.parse_args(argv)


def import_package():
    """Import every package module from src/; returns (modules, seconds)."""
    if not (SOURCE / "nonlocal_limit" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    start = time.perf_counter()
    import importlib
    modules = {name: importlib.import_module(f"nonlocal_limit.{name}") for name in MODULES}
    elapsed = time.perf_counter() - start
    origin = Path(modules["core"].__file__).resolve()
    if SOURCE not in origin.parents:
        raise BenchmarkError(f"nonlocal_limit was imported from {origin}, not {SOURCE}")
    return SimpleNamespace(**modules), elapsed


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def reference_work():
    """A fixed computation that calls no package code, in three parts of
    about equal time: small-array numpy steps (the solvers' kind of work),
    float-to-text formatting (the CSV writers') and an interpreter loop."""
    import numpy as np
    a = np.linspace(0.0, 1.0, REFERENCE_CELLS) ** 2
    for _ in range(REFERENCE_STEPS):
        d = np.diff(a)
        a = np.clip(a - 0.1 * np.concatenate(([0.0], d)), 0.0, 1.0)
        np.sum(np.abs(d))
    for _ in range(REFERENCE_FORMAT_PASSES):
        "\n".join(",".join(repr(float(v)) for v in a[i:i + 8]) for i in range(0, a.size, 8))
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i & 7


def reference_seconds() -> float:
    """Seconds of one reference_work() call, timed after an untimed one."""
    reference_work()
    return timed(reference_work)


def setup_probe(args) -> dict:
    nl, import_s = import_package()
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](nl, args.seed, workdir)
        return {"import_s": import_s, "inputs_s": timed(workload.setup),
                "reference_s": reference_seconds()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def probe_setup_in_fresh_processes(args) -> list[dict]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_commit():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(args) -> dict:
    import numpy
    import scipy
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass

    def cache_size(level):
        try:
            for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
                if (index / "level").read_text().strip() == str(level) and \
                        (index / "type").read_text().strip() != "Instruction":
                    return (index / "size").read_text().strip()
        except OSError:
            pass
        return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "l2_cache": cache_size(2), "l3_cache": cache_size(3),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(), "note": SPREAD_NOTE,
    }


def tail_percentile(times: list[float]):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    ordered = sorted(times)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = int(n * p / 100)
        if n - rank - 1 >= 10:
            return {"p": p, "value": ordered[rank]}
    return None


class Runner:
    """Runs and gates units of one workload."""

    def __init__(self, nl, workload, datum_max: float, workdir: Path):
        import gate
        self.gate = gate
        self.nl = nl
        self.workload = workload
        self.datum_max = datum_max
        self.workdir = workdir
        self.expected_digest = None
        self.attempted = 0
        self.failed = 0
        self.out_mb = 0.0  # output written by the last unit

    def unit(self, span=None) -> float:
        """Run, time and gate one unit; returns its wall seconds.

        ``span``, a context manager, is entered inside the timed region.
        """
        out_dir = None
        if self.workload.writes_files:
            out_dir = Path(tempfile.mkdtemp(prefix="unit-", dir=self.workdir))
        self.attempted += 1
        self.out_mb = 0.0
        start = time.perf_counter()
        try:
            try:
                with span or contextlib.nullcontext():
                    outcome = self.workload.unit(out_dir)
            finally:
                elapsed = time.perf_counter() - start
            problems = self.gate.check_unit(self.nl, outcome, self.datum_max,
                                            self.expected_digest)
            if not problems and self.expected_digest is None:
                self.expected_digest = self.gate.output_digest(outcome)
            if out_dir is not None:
                self.out_mb = sum(p.stat().st_size for p in out_dir.rglob("*")
                                  if p.is_file()) / 1e6
        except Exception:  # a unit that raises is a failed unit, not a crash
            problems = ["unit raised:\n" + traceback.format_exc()]
        finally:
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"unit {self.attempted} failed the gate: " + "; ".join(problems),
                  file=sys.stderr)
        return elapsed


def measure_until(seconds: float, step) -> list[float]:
    """Call ``step`` (returning its unit seconds) until starting another
    would overrun ``seconds``; at least once."""
    start = time.perf_counter()
    times = []
    while True:
        times.append(step())
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times


def end_to_end(args, nl, import_s, workload, runner) -> dict:
    inputs_s = timed(workload.setup)
    setup_reference_s = reference_seconds()
    runner.unit()  # warm-up
    wall, reference = [], [reference_seconds()]

    def step():
        wall.append(runner.unit())
        reference.append(timed(reference_work))
        return wall[-1] + reference[-1]

    measure_until(args.seconds, step)
    times = [REFERENCE_S * 2 * t / (before + after)
             for t, before, after in zip(wall, reference, reference[1:])]
    probes = probe_setup_in_fresh_processes(args)
    samples = [{"import_s": import_s, "inputs_s": inputs_s,
                "reference_s": setup_reference_s}] + probes
    # each set-up is rescaled by the reference timed right after it, as units are
    setups = [REFERENCE_S * (p["import_s"] + p["inputs_s"]) / p["reference_s"]
              for p in samples]
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    details = {
        "unit_s": {"median": statistics.median(times), "q1": quartiles[0],
                   "q3": quartiles[2], "samples": len(times),
                   "tail": tail_percentile(times),
                   "wall_median": statistics.median(wall),
                   "reference_median": statistics.median(reference)},
        "setup_s": {"samples": setups, "unscaled": samples},
        "failed_ratio": runner.failed / runner.attempted,
    }
    print("details " + json.dumps(details))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "unit_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


def per_layer(args, nl, import_s, workload, runner, problems) -> dict:
    import tracing as trace
    tracer = trace.Tracer()
    trace.install(nl, tracer)
    with tracer.root(trace.SETUP, -1) as setup_index:
        workload.setup()
    trace_setup = tracer.spans[setup_index]
    inputs_s = (trace_setup[2] - trace_setup[1]) * 1e-9
    tracer.uninstall()
    runner.unit()  # warm-up

    untraced = []
    traced_mb = []

    def pair():
        untraced.append(runner.unit())
        trace.install(nl, tracer)
        elapsed = runner.unit(span=tracer.root(trace.UNIT, len(traced_mb)))
        tracer.uninstall()
        traced_mb.append(runner.out_mb)
        return untraced[-1] + elapsed

    measure_until(args.seconds, pair)
    if tracer.missing:
        print("not traced, missing from the package: " + ", ".join(sorted(tracer.missing)),
              file=sys.stderr)
    units = trace.unit_layers(tracer)
    for unit_id, layers in units.items():
        error = trace.accounting_error(layers)
        if error > 1e-6:
            problems.append(f"traced unit {unit_id}: self times miss the unit wall "
                            f"time by {error:.2e} of it")
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    parse_s = [(s[2] - s[1]) * 1e-9 for s in tracer.spans if s[0] == trace.PARSE]
    return trace.per_layer_metrics(
        [units[i] for i in sorted(units)], statistics.median(traced_mb), parse_s,
        import_s, inputs_s, untraced)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args)))
            return 0
        nl, import_s = import_package()
        OUT_DIR.mkdir(exist_ok=True)
        import gate
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
        try:
            workload = workloads.WORKLOADS[args.workload](nl, args.seed, workdir)
            datum_max = max(workloads.seeded_profile(args.seed)["levels"])
            runner = Runner(nl, workload, datum_max, workdir)
            problems = []
            if args.trace:
                metrics = per_layer(args, nl, import_s, workload, runner, problems)
            else:
                metrics = end_to_end(args, nl, import_s, workload, runner)
            problems += gate.self_test(nl, workloads.seeded_profile(args.seed))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        facts = run_facts(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("facts " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<18} {name:<36} {value:>14.6g} {unit}")
    gate_ok = runner.failed == 0 and not problems
    print(f"{args.workload:<18} gate: {runner.attempted - runner.failed}/{runner.attempted} "
          f"units passed, {'ok' if gate_ok else 'FAILED'}")
    print(json.dumps({
        "correct": gate_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
