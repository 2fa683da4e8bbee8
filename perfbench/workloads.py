"""Seeded inputs and the three benchmark workloads.

A workload has a set-up step (parse and validate its configs, build the
grids, sampled data, velocity and flux models) and a *unit*, the piece of
work the benchmark times over and over.  The seed only chooses the initial
datum: its jump count, the grids and the time horizons are fixed, so the
solver work (cells times steps) is the same for every seed.

Every call into the package goes through a module attribute looked up at
call time (``nonlocal_solver.solve_nonlocal``, not a bound name), so the
traced run can wrap those attributes from outside the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Seeded datum: JUMPS breakpoints in BREAKPOINT_SPAN, at least MIN_GAP apart;
# levels inside the velocity models' admissible range [0, 1], adjacent levels
# at least MIN_STEP apart so that every jump is a real jump.
JUMPS = 3
BREAKPOINT_SPAN = (-0.5, 1.0)
MIN_GAP = 0.1
LEVEL_SPAN = (0.05, 0.95)
MIN_STEP = 0.1

# sweep_cli: the default experiment scaled down so a unit takes seconds.  The
# sweep rule dx <= eta/10 gives nonlocal grids of 512, 1024 and 1024 cells
# against a 1024-cell Godunov reference; snapshot CSVs dominate the unit.
SWEEP_DOC = {"grid": {"n_cells": 256}, "eta_list": [0.1, 0.05, 0.03],
             "reference_refinement": 4}

# nonlocal_mix: three kernel paths, final snapshot only, no I/O.
MIX_T_END = 0.5
MIX_CASES = (
    # label, kernel family, orientation, velocity, eta, cells
    ("exp_down", "exponential", "downstream", "linear", 1e-3, 8192),
    ("const_down", "constant", "downstream", "linear", 1e-2, 4096),
    ("exp_up", "exponential", "upstream", "linear_increasing", 1e-2, 4096),
)

# convergence_study: the acceptance C05/C09 measurement path at base 1024.
STUDY_BASE_CELLS = 1024
STUDY_REFINEMENT = 8
STUDY_ETAS = (0.1, 0.05, 0.025, 0.0125)
STUDY_DENSE_T_END = 0.5
STUDY_DENSE_SNAPSHOTS = 201
STUDY_ENTROPY_LEVELS = (0.25, 0.5, 0.75)
STUDY_TEST_FUNCTIONS = (
    # t_center, t_radius, x_center, x_radius, amplitude
    (0.25, 0.15, 0.5, 0.6, 1.0),
    (0.15, 0.12, 0.35, 0.3, 1.5),
    (0.3, 0.18, 0.6, 0.35, 1.0),
)


def seeded_profile(seed: int) -> dict:
    """Piecewise-constant datum drawn from ``seed``, as a config ``profile``."""
    rng = random.Random(seed)
    while True:
        breakpoints = sorted(rng.uniform(*BREAKPOINT_SPAN) for _ in range(JUMPS))
        if min(b - a for a, b in zip(breakpoints, breakpoints[1:])) >= MIN_GAP:
            break
    while True:
        levels = [rng.uniform(*LEVEL_SPAN) for _ in range(JUMPS + 1)]
        if min(abs(b - a) for a, b in zip(levels, levels[1:])) >= MIN_STEP:
            break
    return {"breakpoints": breakpoints, "levels": levels}


@dataclass
class RunRecord:
    """One solver report with what the gate needs to judge it."""

    label: str
    report: object
    kernel: object = None  # KernelSpec of a nonlocal run, None for Godunov


@dataclass
class UnitOutcome:
    """What one unit produced, for the correctness gate."""

    runs: list = field(default_factory=list)
    exit_code: int | None = None      # CLI workloads only
    out_dir: Path | None = None       # CLI workloads only
    eta_count: int = 0                # CLI workloads only
    values: dict = field(default_factory=dict)  # scalar results, must be finite


class SweepCli:
    """``nonlocal-limit sweep`` through ``cli.main`` in-process."""

    name = "sweep_cli"
    writes_files = True

    def __init__(self, nl, seed: int, workdir: Path):
        self.nl = nl
        self.doc = dict(SWEEP_DOC, profile=seeded_profile(seed))
        self.config_path = workdir / "sweep_config.json"
        self.config_path.write_text(json.dumps(self.doc), encoding="utf-8")
        # keep the reports the sweep returns, so the gate can check the solver
        # runs as well as the files; without this hook only the files are checked
        self.captured = []
        run_sweep = getattr(nl.cli, "run_sweep", None)
        if run_sweep is not None:
            def capture(*args, **kwargs):
                result = run_sweep(*args, **kwargs)
                self.captured.append(result)
                return result

            nl.cli.run_sweep = capture

    def setup(self):
        nl = self.nl
        cfg = nl.harness.parse_config(self.config_path.read_text(encoding="utf-8"))
        profile = cfg.build_profile()
        velocity = cfg.build_velocity()
        for eta in cfg.eta_list:
            nl.harness.sample_profile(
                profile, cfg.build_grid(nl.harness.sweep_cells_for_eta(cfg, eta)))
        nl.harness.sample_profile(
            profile, cfg.build_grid(cfg.n_cells * cfg.reference_refinement))
        nl.local_reference.FluxModel(velocity=velocity)
        self.cfg = cfg

    def unit(self, out_dir: Path) -> UnitOutcome:
        code = self.nl.cli.main(["sweep", "--config", str(self.config_path),
                                 "--out", str(out_dir)])
        outcome = UnitOutcome(exit_code=code, out_dir=out_dir,
                              eta_count=len(self.cfg.eta_list))
        for result in self.captured:
            outcome.runs.append(RunRecord("reference", result.reference))
            for eta, report in zip(self.cfg.eta_list, result.reports):
                outcome.runs.append(RunRecord(f"eta={eta!r}", report,
                                              self.cfg.kernel_spec(eta)))
        self.captured.clear()
        return outcome


class NonlocalMix:
    """Library-level ``solve_nonlocal`` on three kernel paths, no I/O."""

    name = "nonlocal_mix"
    writes_files = False

    def __init__(self, nl, seed: int, workdir: Path):
        self.nl = nl
        profile = seeded_profile(seed)
        self.docs = {
            label: {
                "grid": {"n_cells": cells},
                "profile": profile,
                "velocity": {"name": velocity},
                "kernel": {"family": family, "orientation": orientation},
                "eta_list": [eta],
                "t_end": MIX_T_END,
                "snapshot_times": [MIX_T_END],
            }
            for label, family, orientation, velocity, eta, cells in MIX_CASES
        }

    def setup(self):
        nl = self.nl
        self.cases = []
        for label, doc in self.docs.items():
            cfg = nl.harness.parse_config(json.dumps(doc))
            q0 = nl.harness.sample_profile(cfg.build_profile(), cfg.build_grid())
            scheme = nl.nonlocal_solver.NonlocalSchemeConfig(
                kernel=cfg.kernel_spec(cfg.eta_list[0]),
                velocity=cfg.build_velocity(),
                cfl=cfg.cfl,
                t_end=cfg.t_end,
                snapshot_times=cfg.snapshot_times,
            )
            self.cases.append((label, q0, scheme))

    def unit(self, out_dir: Path) -> UnitOutcome:
        outcome = UnitOutcome()
        for label, q0, scheme in self.cases:
            report = self.nl.nonlocal_solver.solve_nonlocal(q0, scheme)
            outcome.runs.append(RunRecord(label, report, scheme.kernel))
        return outcome


class ConvergenceStudy:
    """Godunov reference, four nonlocal runs, sup-time L1 errors and the
    entropy and weak residuals of a dense-snapshot Godunov run; no I/O."""

    name = "convergence_study"
    writes_files = False

    def __init__(self, nl, seed: int, workdir: Path):
        self.nl = nl
        self.doc = {
            "grid": {"n_cells": STUDY_BASE_CELLS},
            "profile": seeded_profile(seed),
            "eta_list": list(STUDY_ETAS),
            "reference_refinement": STUDY_REFINEMENT,
        }

    def setup(self):
        nl = self.nl
        cfg = nl.harness.parse_config(json.dumps(self.doc))
        profile = cfg.build_profile()
        velocity = cfg.build_velocity()
        self.cfg = cfg
        self.velocity = velocity
        self.window = cfg.window()
        self.flux = nl.local_reference.FluxModel(velocity=velocity)
        self.snapshots = list(cfg.snapshot_times)
        self.ref_q0 = nl.harness.sample_profile(
            profile, cfg.build_grid(cfg.n_cells * cfg.reference_refinement))
        self.q0 = nl.harness.sample_profile(profile, cfg.build_grid())
        self.schemes = [
            nl.nonlocal_solver.NonlocalSchemeConfig(
                kernel=cfg.kernel_spec(eta), velocity=velocity, cfl=cfg.cfl,
                t_end=cfg.t_end, snapshot_times=self.snapshots)
            for eta in cfg.eta_list
        ]
        self.dense_snapshots = [round(STUDY_DENSE_T_END * i / (STUDY_DENSE_SNAPSHOTS - 1), 12)
                                for i in range(STUDY_DENSE_SNAPSHOTS)]
        self.phis = [nl.diagnostics.bump_test_function(*args)
                     for args in STUDY_TEST_FUNCTIONS]

    def unit(self, out_dir: Path) -> UnitOutcome:
        nl = self.nl
        outcome = UnitOutcome()
        reference = nl.local_reference.solve_local(
            self.ref_q0, self.flux, cfl=self.cfg.cfl, t_end=self.cfg.t_end,
            snapshot_times=self.snapshots)
        outcome.runs.append(RunRecord("reference", reference))
        for scheme in self.schemes:
            report = nl.nonlocal_solver.solve_nonlocal(self.q0, scheme)
            eta = scheme.kernel.eta
            outcome.runs.append(RunRecord(f"eta={eta!r}", report, scheme.kernel))
            for compare in ("q", "w"):
                outcome.values[f"sup_l1_{compare}[eta={eta!r}]"] = nl.diagnostics.sup_time_l1(
                    report, reference, self.window, compare=compare)
        dense = nl.local_reference.solve_local(
            self.q0, self.flux, cfl=self.cfg.cfl, t_end=STUDY_DENSE_T_END,
            snapshot_times=self.dense_snapshots)
        outcome.runs.append(RunRecord("dense", dense))
        for i, phi in enumerate(self.phis):
            outcome.values[f"weak_residual[{i}]"] = nl.diagnostics.weak_residual(
                dense, self.velocity, "local", phi)
            outcome.values[f"entropy_residual_min[{i}]"] = min(
                nl.diagnostics.entropy_residual(dense, self.flux, k, phi)
                for k in STUDY_ENTROPY_LEVELS)
        return outcome


WORKLOADS = {cls.name: cls for cls in (SweepCli, NonlocalMix, ConvergenceStudy)}
