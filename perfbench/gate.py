"""Per-unit correctness gate and its self-test.

Tolerances are those of the acceptance suite (tests/test_acceptance.py):

* C01/C10 maximum principle: q >= -1e-12 and q <= max(datum) + 1e-6 on every step;
* C02 TV(W): cumulative rise <= 1e-3 * TV(q0), and TV(W)(0) <= TV(q0) + 1e-12;
* C10 TV(W), constant kernel: cumulative rise <= 1e-2 * TV(q0);
* C07 mass balance: |m(T) - m(0) + boundary flux| <= 1e-8 * max(1, |m(0)|);
* C04 exponential inverse: reconstruct_density(W) matches q to 1e-12.

Scalar results (L1 errors, residuals) must be finite.

A CLI unit must also exit 0, write one finite ``sweep.csv`` row per eta, and
write the same ``sweep.csv``, ``diagnostics.csv`` and ``tv_series.csv`` bytes
as every other unit of the same seed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from workloads import RunRecord, UnitOutcome

MAX_PRINCIPLE_LOW = -1e-12
MAX_PRINCIPLE_HIGH = 1e-6
TV_W_RISE = {"exponential": 1e-3, "constant": 1e-2}
TV_W_INITIAL = 1e-12
MASS_DEFECT = 1e-8
ROUNDTRIP = 1e-12
COMPARED_CSVS = ("sweep.csv", "diagnostics.csv", "tv_series.csv")


def _roundtrip_error(nl, record: RunRecord) -> float:
    """Largest |reconstruct_density(W) - q| on the final snapshot."""
    final = record.report.snapshots[-1]
    eta = record.kernel.eta
    if record.kernel.orientation == "downstream":
        return float(np.max(np.abs(
            nl.kernels.reconstruct_density(final.w, eta).values - final.q.values)))
    # an upstream average is the downstream one of the mirrored field
    grid = final.q.grid
    mirrored_grid = nl.core.Grid1D(x_min=-grid.x_max, x_max=-grid.x_min, n_cells=grid.n_cells,
                                   left_farfield=grid.right_farfield,
                                   right_farfield=grid.left_farfield)
    w_mirrored = nl.core.InterfaceField(grid=mirrored_grid, values=final.w.values[::-1])
    q_back = nl.kernels.reconstruct_density(w_mirrored, eta).values[::-1]
    return float(np.max(np.abs(q_back - final.q.values)))


def check_run(nl, record: RunRecord, datum_max: float) -> list[str]:
    """Invariant violations of one solver run, as messages."""
    report = record.report
    problems = []
    if not report.q_min_overall >= MAX_PRINCIPLE_LOW:
        problems.append(f"{record.label}: q fell to {report.q_min_overall:.3e}")
    if not report.q_max_overall <= datum_max + MAX_PRINCIPLE_HIGH:
        problems.append(f"{record.label}: q rose to {report.q_max_overall!r} "
                        f"above the datum maximum {datum_max!r}")
    m0, m1 = float(report.mass_series[0]), float(report.mass_series[-1])
    defect = abs(m1 - m0 + report.boundary_flux_integral)
    if not defect <= MASS_DEFECT * max(1.0, abs(m0)):
        problems.append(f"{record.label}: mass defect {defect:.3e}")
    if record.kernel is not None:
        tv_q0 = float(report.tv_q_series[0])
        rises = np.diff(report.tv_w_series)
        rise = float(np.sum(rises[rises > 0]))
        if not rise <= TV_W_RISE[record.kernel.family] * tv_q0:
            problems.append(f"{record.label}: cumulative TV(W) rise {rise:.3e}")
        if record.kernel.family == "exponential":
            if not float(report.tv_w_series[0]) <= tv_q0 + TV_W_INITIAL:
                problems.append(f"{record.label}: TV(W) starts above TV(q0)")
            error = _roundtrip_error(nl, record)
            if not error <= ROUNDTRIP:
                problems.append(f"{record.label}: W does not invert to q "
                                f"(error {error:.3e})")
    final_q = report.snapshots[-1].q.values
    if not np.all(np.isfinite(final_q)):
        problems.append(f"{record.label}: non-finite final density")
    return problems


def _finite_sweep_rows(path: Path, eta_count: int) -> list[str]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"sweep.csv unreadable: {exc}"]
    body = rows[1:]
    if len(body) != eta_count:
        return [f"sweep.csv has {len(body)} rows for {eta_count} etas"]
    for row in body:
        try:
            if not all(math.isfinite(float(cell)) for cell in row):
                return [f"sweep.csv row {row} is not finite"]
        except ValueError:
            return [f"sweep.csv row {row} is not numeric"]
    return []


def output_digest(outcome: UnitOutcome) -> dict[str, str]:
    """Digests of the deterministic outputs a unit produced.

    For a CLI unit these are the compared CSV files; otherwise the final
    densities of its runs and its scalar results.
    """
    if outcome.out_dir is not None:
        return {
            str(path.relative_to(outcome.out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outcome.out_dir.rglob("*.csv")) if path.name in COMPARED_CSVS
        }
    digests = {record.label: hashlib.sha256(
        record.report.snapshots[-1].q.values.tobytes()).hexdigest()
        for record in outcome.runs}
    digests.update({key: repr(value) for key, value in outcome.values.items()})
    return digests


def check_unit(nl, outcome: UnitOutcome, datum_max: float,
               expected_digest: dict | None) -> list[str]:
    """All gate failures of one unit; an empty list means the unit passed."""
    problems = []
    if outcome.exit_code is not None:
        if outcome.exit_code != 0:
            return [f"CLI exited with code {outcome.exit_code}"]
        problems += _finite_sweep_rows(outcome.out_dir / "sweep.csv", outcome.eta_count)
    elif not outcome.runs:
        problems.append("unit produced no solver runs")
    for record in outcome.runs:
        problems += check_run(nl, record, datum_max)
    for key, value in outcome.values.items():
        if not math.isfinite(value):
            problems.append(f"{key} is not finite")
    if not problems and expected_digest is not None:
        digest = output_digest(outcome)
        if digest != expected_digest:
            changed = sorted(k for k in set(digest) | set(expected_digest)
                             if digest.get(k) != expected_digest.get(k))
            problems.append(f"outputs differ from the first unit: {changed}")
    return problems


def self_test(nl, profile_doc: dict) -> list[str]:
    """Feed the gate one clean unit and three broken ones.

    The broken units carry a corrupted density value, a mass defect and a CLI
    exit code of 2; each must fail, and the clean one must pass.  Returns
    what went wrong with the gate itself (empty when it works).
    """
    profile = nl.core.PiecewiseConstantProfile(
        breakpoints=np.array(profile_doc["breakpoints"]),
        levels=np.array(profile_doc["levels"]))
    q0 = nl.core.sample_profile(profile, nl.core.Grid1D(-1.0, 2.0, 64))
    kernel = nl.kernels.KernelSpec("exponential", 0.1)
    scheme = nl.nonlocal_solver.NonlocalSchemeConfig(
        kernel=kernel, velocity=nl.core.linear_velocity(), cfl=0.5, t_end=0.2)
    clean = RunRecord("self-test", nl.nonlocal_solver.solve_nonlocal(q0, scheme), kernel)
    report = clean.report
    final = report.snapshots[-1]
    bad_values = final.q.values.copy()
    bad_values[len(bad_values) // 2] += 1e-3
    corrupted = dataclasses.replace(report, snapshots=report.snapshots[:-1] + (
        dataclasses.replace(final, q=nl.core.CellField(grid=final.q.grid, values=bad_values)),))
    mass_defect = dataclasses.replace(
        report, boundary_flux_integral=report.boundary_flux_integral + 1e-3)
    datum_max = float(max(profile_doc["levels"]))
    cases = {
        "clean": (UnitOutcome(runs=[clean]), True),
        "corrupted value": (UnitOutcome(runs=[dataclasses.replace(clean, report=corrupted)]),
                            False),
        "mass defect": (UnitOutcome(runs=[dataclasses.replace(clean, report=mass_defect)]),
                        False),
        "CLI exit code 2": (UnitOutcome(runs=[clean], exit_code=2), False),
    }
    wrong = []
    for name, (outcome, should_pass) in cases.items():
        passed = not check_unit(nl, outcome, datum_max, None)
        if passed != should_pass:
            wrong.append(f"gate {'passed' if passed else 'failed'} the {name} unit")
    return wrong
