#!/usr/bin/env python3
"""Run every workload once and print each metric by name, with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds N] [--trace] [--json FILE]

Each workload runs ``perfbench/run.py`` in a fresh process with ``--trace 0``
and prints the end-to-end metrics and the gate result; ``--trace`` adds a
traced run per workload and prints the per-layer table, each layer metric
with the end-to-end metric and workload it is expected to move.  ``--json``
also writes everything, machine facts included, to FILE.  ``--seconds``
defaults to ``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"

# layer metric prefix -> the end-to-end metrics and workloads it should move
MOVES = {
    "kernels.": "unit_s on nonlocal_mix (large share), sweep_cli (small), "
                "convergence_study (about 5%)",
    "nonlocal_solver.": "unit_s on nonlocal_mix",
    "local_reference.": "unit_s on convergence_study; no change on nonlocal_mix",
    "diagnostics.tv_": "unit_s on nonlocal_mix and convergence_study",
    "diagnostics.": "unit_s on convergence_study and sweep_cli",
    "harness.": "unit_s and peak_rss_mb on sweep_cli; no change on the I/O-free workloads",
    "core.": "unit_s on nonlocal_mix; setup_s everywhere",
    "cli.": "unit_s on sweep_cli",
    "setup.": "setup_s on every workload",
    "trace.": "none (tracing overhead and coverage)",
}


def moves(metric: str) -> str:
    return next(text for prefix, text in MOVES.items() if metric.startswith(prefix))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: benchmark exited with code {proc.returncode}")
    record = {"result": json.loads(lines[-1]), "stderr": proc.stderr}
    for line in lines[:-1]:
        key, _, payload = line.partition(" ")
        if key in ("facts", "details"):
            record[key] = json.loads(payload)
    return record


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = tuple(w["name"] for w in benchmark["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    records = {}
    all_correct = True
    for workload in workloads:
        records[workload] = {"end_to_end": run(workload, args.seed, args.seconds, 0)}
        if args.trace:
            records[workload]["per_layer"] = run(workload, args.seed, args.seconds, 1)
    print(json.dumps(records[workloads[0]]["end_to_end"].get("facts", {})))
    print(f"{'workload':<18} {'metric':<16} {'value':>12}  unit   details")
    for workload, record in records.items():
        e2e = record["end_to_end"]
        details = e2e.get("details", {})
        for name, metric in e2e["result"]["metrics"].items():
            extra = ""
            if name == "unit_s":
                u = details["unit_s"]
                extra = (f"q1 {u['q1']:.4g}  q3 {u['q3']:.4g}  n {u['samples']}  "
                         f"tail {u['tail']}  unscaled {u['wall_median']:.4g}  "
                         f"reference {u['reference_median']:.4g}")
            print(f"{workload:<18} {name:<16} {metric['value']:>12.6g}  "
                  f"{metric['unit']:<6} {extra}")
        result = e2e["result"]
        gate = "ok" if result["correct"] else "FAILED"
        all_correct &= result["correct"]
        print(f"{workload:<18} {'gate':<16} {result['attempted'] - result['failed']:>5}/"
              f"{result['attempted']:<6} {gate}  failed_ratio "
              f"{result['failed'] / result['attempted']:.3g}")
    if args.trace:
        print()
        print(f"{'per-layer metric':<34} "
              + " ".join(f"{w:>17}" for w in workloads) + "  unit   should move")
        names = records[workloads[0]]["per_layer"]["result"]["metrics"]
        for name in names:
            values = [records[w]["per_layer"]["result"]["metrics"][name] for w in workloads]
            print(f"{name:<34} " + " ".join(f"{v['value']:>17.6g}" for v in values)
                  + f"  {values[0]['unit']:<6} {moves(name)}")
        for workload in workloads:
            all_correct &= records[workload]["per_layer"]["result"]["correct"]
    if args.json:
        args.json.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
