"""Configuration parsing, experiment orchestration and CSV emission.

Configs are JSON documents with the keys of ExperimentConfig; unknown keys
are rejected with their key path.  Every omitted key falls back to the
default experiment: domain [-1, 2] with 4096 cells, the three-jump reference
datum, V(s) = 1 - s, exponential downstream kernel, eta list
[0.1, 0.01, 0.001], cfl 0.5, horizon 1.5 with snapshots every 0.05, window
[-1, 2], reference refinement 8.

All CSV output is deterministic: floats carry 17 significant digits, rows are
ordered, and nothing time- or host-dependent is written.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CellField,
    Grid1D,
    PiecewiseConstantProfile,
    VelocityModel,
    constant_velocity,
    data_range,
    linear_increasing_velocity,
    linear_velocity,
    quadratic_velocity,
    sample_profile,
)
from .diagnostics import (
    TestFunction,
    Window,
    bump_test_function,
    entropy_residual,
    interface_to_cells,
    sup_time_l1,
    transport_residual_w,
    weak_residual,
    wq_identity_gap,
)
from .errors import ConfigError, NumericalBlowupError
from .kernels import KERNEL_FAMILIES, ORIENTATIONS, KernelSpec, check_pairing
from .local_reference import FluxModel, solve_local
from .nonlocal_solver import NonlocalSchemeConfig, solve_nonlocal
from .report import RunReport
from .stepping import check_time_settings

PLOT_SCRIPT_NAME = "plot_results.py"

_DEFAULT_SNAPSHOT_SPACING = 0.05
# The dense snapshot band feeding the residual diagnostics.  Snapshot requests
# land on the nearest completed solver step, so the band guarantees the
# 50-intervals-per-support density only when the test function's time radius
# is at least 75 solver steps; runs too coarse for that get NaN residual rows.
_RESIDUAL_BAND_INTERVALS = 75
_RESIDUAL_MIN_RADIUS_STEPS = 76.0
_ENTROPY_LEVEL_FRACTIONS = (0.25, 0.5, 0.75)

_VELOCITY_BUILDERS = {
    "linear": linear_velocity,
    "constant": constant_velocity,
    "quadratic": quadratic_velocity,
    "linear_increasing": linear_increasing_velocity,
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _reject_unknown(mapping: dict, allowed, path: str):
    for key in mapping:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where}")


def _get_number(mapping: dict, key: str, default, path: str, *,
                positive=False) -> float:
    raw = mapping.get(key, default)
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or not np.isfinite(raw):
        raise ConfigError(f"{path}.{key} must be a finite number" if path
                          else f"{key} must be a finite number")
    value = float(raw)
    where = f"{path}.{key}" if path else key
    if positive and value <= 0:
        raise ConfigError(f"{where} must be positive, got {value}")
    return value


def _get_int(mapping: dict, key: str, default, path: str, *, minimum=None) -> int:
    raw = mapping.get(key, default)
    if not isinstance(raw, int) or isinstance(raw, bool):
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"{where} must be an integer")
    if minimum is not None and raw < minimum:
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"{where} must be >= {minimum}, got {raw}")
    return raw


def _number_list(raw, path: str) -> list[float]:
    if not isinstance(raw, list):
        raise ConfigError(f"{path} must be a list of numbers")
    values = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, (int, float)) or isinstance(entry, bool) \
                or not np.isfinite(entry):
            raise ConfigError(f"{path}[{i}] must be a finite number")
        values.append(float(entry))
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    x_min: float
    x_max: float
    n_cells: int
    breakpoints: tuple
    levels: tuple
    velocity_name: str
    velocity_params: tuple
    kernel_family: str
    kernel_orientation: str
    eta_list: tuple
    cfl: float
    t_end: float
    snapshot_times: tuple
    window_lo: float
    window_hi: float
    reference_refinement: int
    output_dir: str

    def build_grid(self, n_cells: int | None = None) -> Grid1D:
        return Grid1D(x_min=self.x_min, x_max=self.x_max,
                      n_cells=n_cells or self.n_cells)

    def build_profile(self) -> PiecewiseConstantProfile:
        return PiecewiseConstantProfile(
            breakpoints=np.array(self.breakpoints), levels=np.array(self.levels)
        )

    def build_velocity(self) -> VelocityModel:
        return _VELOCITY_BUILDERS[self.velocity_name](**dict(self.velocity_params))

    def kernel_spec(self, eta: float) -> KernelSpec:
        return KernelSpec(family=self.kernel_family, eta=eta,
                          orientation=self.kernel_orientation)

    def window(self) -> Window:
        return Window(self.window_lo, self.window_hi)

    def residual_test_function(self) -> TestFunction | None:
        """Default space-time bump for the residual diagnostics.

        Its time radius is at least _RESIDUAL_MIN_RADIUS_STEPS estimated
        solver steps, so the dense snapshot band stays dense after requests
        round to whole steps.  Returns None when no such support fits in
        (0, t_end): the run is then too coarse for residual measurement.
        """
        v_max = self.build_velocity().max_abs_speed()
        if v_max == 0.0:
            return None
        dt_estimate = self.cfl * (self.x_max - self.x_min) / self.n_cells / v_max
        t_radius = max(self.t_end / 6.0, _RESIDUAL_MIN_RADIUS_STEPS * dt_estimate)
        margin = 0.02 * self.t_end
        if 2.0 * t_radius > self.t_end - 2.0 * margin:
            return None
        t_center = min(max(0.4 * self.t_end, t_radius + margin),
                       self.t_end - margin - t_radius)
        return bump_test_function(
            t_center=t_center,
            t_radius=t_radius,
            x_center=0.5 * (self.x_min + self.x_max),
            x_radius=0.25 * (self.x_max - self.x_min),
        )

    def merged_snapshot_times(self) -> np.ndarray:
        """Configured snapshot times plus a dense band across the residual
        test function's time support (when one fits).

        The band reaches two spacings past the support so that snapshot
        requests rounded onto solver steps stay dense over the whole support.
        """
        phi = self.residual_test_function()
        merged = np.round(np.asarray(self.snapshot_times, dtype=float), 12)
        if phi is not None:
            t_lo, t_hi = max(phi.support[0], 0.0), min(phi.support[1], self.t_end)
            pad = 2.0 * (t_hi - t_lo) / _RESIDUAL_BAND_INTERVALS
            band = np.linspace(max(0.0, t_lo - pad), min(self.t_end, t_hi + pad),
                               _RESIDUAL_BAND_INTERVALS + 5)
            merged = np.union1d(merged, np.round(band, 12))
        return merged[(merged >= 0.0) & (merged <= self.t_end + 1e-12)]


def _default_snapshot_times(t_end: float) -> list[float]:
    times = list(np.round(np.arange(0.0, t_end + 1e-9, _DEFAULT_SNAPSHOT_SPACING), 12))
    if not times or times[-1] < t_end - 1e-12:
        times.append(t_end)
    return [float(t) for t in times]


_TOP_LEVEL_KEYS = (
    "grid", "profile", "velocity", "kernel", "eta_list", "cfl", "t_end",
    "snapshot_times", "window", "reference_refinement", "output_dir",
)


def config_from_dict(doc: dict) -> ExperimentConfig:
    _expect_mapping(doc, "config")
    _reject_unknown(doc, _TOP_LEVEL_KEYS, "")

    grid = _expect_mapping(doc.get("grid", {}), "grid")
    _reject_unknown(grid, ("x_min", "x_max", "n_cells"), "grid")
    x_min = _get_number(grid, "x_min", -1.0, "grid")
    x_max = _get_number(grid, "x_max", 2.0, "grid")
    if x_min >= x_max:
        raise ConfigError(f"grid.x_min must be < grid.x_max, got [{x_min}, {x_max}]")
    n_cells = _get_int(grid, "n_cells", 4096, "grid", minimum=2)

    profile = _expect_mapping(
        doc.get("profile", {"breakpoints": [0.0, 1.0 / 3.0, 2.0 / 3.0],
                            "levels": [0.0, 0.5, 0.0, 1.0]}),
        "profile",
    )
    _reject_unknown(profile, ("breakpoints", "levels"), "profile")
    breakpoints = _number_list(profile.get("breakpoints", []), "profile.breakpoints")
    levels = _number_list(profile.get("levels", [0.0]), "profile.levels")
    if len(levels) != len(breakpoints) + 1:
        raise ConfigError(
            f"profile.levels needs {len(breakpoints) + 1} entries (one more than "
            f"breakpoints), got {len(levels)}"
        )
    if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
        raise ConfigError("profile.breakpoints must be strictly increasing")
    for i, level in enumerate(levels):
        if level < 0:
            raise ConfigError(f"profile.levels[{i}] must be nonnegative, got {level}")

    velocity = _expect_mapping(doc.get("velocity", {}), "velocity")
    name = velocity.get("name", "linear")
    if name not in _VELOCITY_BUILDERS:
        raise ConfigError(
            f"velocity.name must be one of {sorted(_VELOCITY_BUILDERS)}, got {name!r}"
        )
    if name == "constant":
        _reject_unknown(velocity, ("name", "value", "s_max"), "velocity")
        params = (("value", _get_number(velocity, "value", 1.0, "velocity")),
                  ("s_max", _get_number(velocity, "s_max", 1.0, "velocity", positive=True)))
    else:
        _reject_unknown(velocity, ("name", "v_max", "s_max"), "velocity")
        params = (("v_max", _get_number(velocity, "v_max", 1.0, "velocity", positive=True)),
                  ("s_max", _get_number(velocity, "s_max", 1.0, "velocity", positive=True)))

    kernel = _expect_mapping(doc.get("kernel", {}), "kernel")
    _reject_unknown(kernel, ("family", "orientation"), "kernel")
    family = kernel.get("family", "exponential")
    if family not in KERNEL_FAMILIES:
        raise ConfigError(f"kernel.family must be one of {KERNEL_FAMILIES}, got {family!r}")
    orientation = kernel.get("orientation", "downstream")
    if orientation not in ORIENTATIONS:
        raise ConfigError(
            f"kernel.orientation must be one of {ORIENTATIONS}, got {orientation!r}"
        )
    check_pairing(orientation, _VELOCITY_BUILDERS[name](**dict(params)).mode)

    eta_list = _number_list(doc.get("eta_list", [0.1, 0.01, 0.001]), "eta_list")
    if not eta_list:
        raise ConfigError("eta_list must not be empty")
    for i, eta in enumerate(eta_list):
        if eta <= 0:
            raise ConfigError(f"eta_list[{i}] must be positive, got {eta}")
    for i, (a, b) in enumerate(zip(eta_list, eta_list[1:])):
        if b >= a:
            raise ConfigError(f"eta_list[{i + 1}] must be strictly smaller than eta_list[{i}]")

    cfl = _get_number(doc, "cfl", 0.5, "")
    t_end = _get_number(doc, "t_end", 1.5, "")
    snapshot_times = _number_list(
        doc.get("snapshot_times", _default_snapshot_times(t_end)), "snapshot_times"
    )
    check_time_settings(cfl, t_end, snapshot_times)
    if any(b <= a for a, b in zip(snapshot_times, snapshot_times[1:])):
        raise ConfigError("snapshot_times must be strictly increasing")

    window = _expect_mapping(doc.get("window", {}), "window")
    _reject_unknown(window, ("lo", "hi"), "window")
    window_lo = _get_number(window, "lo", x_min, "window")
    window_hi = _get_number(window, "hi", x_max, "window")
    if not (x_min - 1e-12 <= window_lo < window_hi <= x_max + 1e-12):
        raise ConfigError(
            f"window [{window_lo}, {window_hi}] must sit inside the grid domain "
            f"[{x_min}, {x_max}]"
        )

    reference_refinement = _get_int(doc, "reference_refinement", 8, "", minimum=4)
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a nonempty string")

    return ExperimentConfig(
        x_min=x_min,
        x_max=x_max,
        n_cells=n_cells,
        breakpoints=tuple(breakpoints),
        levels=tuple(levels),
        velocity_name=name,
        velocity_params=params,
        kernel_family=family,
        kernel_orientation=orientation,
        eta_list=tuple(eta_list),
        cfl=cfl,
        t_end=t_end,
        snapshot_times=tuple(snapshot_times),
        window_lo=window_lo,
        window_hi=window_hi,
        reference_refinement=reference_refinement,
        output_dir=output_dir,
    )


def parse_config(document: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    return config_from_dict(doc)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit the fully resolved config; parse(serialize(cfg)) == cfg."""
    doc = {
        "grid": {"x_min": cfg.x_min, "x_max": cfg.x_max, "n_cells": cfg.n_cells},
        "profile": {"breakpoints": list(cfg.breakpoints), "levels": list(cfg.levels)},
        "velocity": {"name": cfg.velocity_name, **dict(cfg.velocity_params)},
        "kernel": {"family": cfg.kernel_family, "orientation": cfg.kernel_orientation},
        "eta_list": list(cfg.eta_list),
        "cfl": cfg.cfl,
        "t_end": cfg.t_end,
        "snapshot_times": list(cfg.snapshot_times),
        "window": {"lo": cfg.window_lo, "hi": cfg.window_hi},
        "reference_refinement": cfg.reference_refinement,
        "output_dir": cfg.output_dir,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _write_csv(path: Path, header: list[str], rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def eta_dirname(eta: float) -> str:
    return f"eta_{eta!r}"


def _restrict_snapshots(report: RunReport, t_lo: float, t_hi: float) -> RunReport:
    kept = tuple(s for s in report.snapshots if t_lo - 1e-12 <= s.time <= t_hi + 1e-12)
    return dataclasses.replace(report, snapshots=kept)


def _write_snapshots_csv(path: Path, report: RunReport):
    """One row per cell per distinct snapshot time, written a snapshot at a
    time; the cell_index,x_center columns are formatted once per grid."""
    cells = [f"{i},{_fmt(x)}" for i, x in enumerate(report.grid.cell_centers.tolist())]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,cell_index,x_center,q,W\n")
        seen_times = set()
        for snap in report.snapshots:
            # requests that rounded to the same step carry identical state
            if snap.time in seen_times:
                continue
            seen_times.add(snap.time)
            time_s = _fmt(snap.time)
            q = snap.q.values.tolist()
            w = (interface_to_cells(snap.w).values.tolist() if snap.w is not None
                 else [float("nan")] * len(q))
            fh.write("".join([f"{time_s},{cell},{q_i:.17g},{w_i:.17g}\n"
                              for cell, q_i, w_i in zip(cells, q, w)]))


def _write_tv_series_csv(path: Path, report: RunReport):
    rows = []
    for step in range(report.n_steps + 1):
        tv_w = report.tv_w_series[step] if report.tv_w_series is not None else float("nan")
        rows.append([
            str(step),
            _fmt(step * report.dt_used),
            _fmt(report.tv_q_series[step]),
            _fmt(tv_w),
            _fmt(report.mass_series[step]),
        ])
    _write_csv(path, ["step", "time", "tv_q", "tv_W", "mass"], rows)


def _max_principle_violation(report: RunReport, q0: CellField) -> float:
    lo, hi = data_range(q0)
    return max(0.0, report.q_max_overall - hi, lo - report.q_min_overall)


def _run_diagnostics(cfg: ExperimentConfig, report: RunReport, q0: CellField,
                     eta: float) -> dict[str, float]:
    velocity = cfg.build_velocity()
    phi = cfg.residual_test_function()
    final = report.snapshots[-1]
    values = {
        "wq_identity_gap": wq_identity_gap(final.q, final.w, eta)
        if final.w is not None else float("nan"),
        "max_principle_violation": _max_principle_violation(report, q0),
        "weak_residual": float("nan"),
        "transport_residual_W": float("nan"),
        "entropy_residual_min": float("nan"),
    }
    if phi is None:
        # run too coarse in time for the residual quadratures
        return values
    values["weak_residual"] = weak_residual(report, velocity, "nonlocal", phi)
    if cfg.kernel_family == "exponential" and cfg.kernel_orientation == "downstream":
        # the transport identity is specific to the downstream exponential kernel
        band = _restrict_snapshots(report, phi.support[0], phi.support[1])
        values["transport_residual_W"] = transport_residual_w(band, velocity, eta)
    s_max = dict(cfg.velocity_params)["s_max"]
    flux = FluxModel(velocity=velocity)
    values["entropy_residual_min"] = min(
        entropy_residual(report, flux, frac * s_max, phi)
        for frac in _ENTROPY_LEVEL_FRACTIONS
    )
    return values


_DIAGNOSTIC_ROWS = (
    "wq_identity_gap", "weak_residual", "transport_residual_W",
    "entropy_residual_min", "max_principle_violation",
)


def _write_diagnostics_csv(path: Path, values: dict[str, float]):
    rows = [[name, _fmt(values[name])] for name in _DIAGNOSTIC_ROWS]
    _write_csv(path, ["name", "value"], rows)


def _write_run_files(out_dir: Path, cfg: ExperimentConfig, report: RunReport,
                     q0: CellField, eta: float):
    # diagnostics first: if they fail, no file of the run exists
    diagnostics = _run_diagnostics(cfg, report, q0, eta)
    _write_snapshots_csv(out_dir / "snapshots.csv", report)
    _write_tv_series_csv(out_dir / "tv_series.csv", report)
    _write_diagnostics_csv(out_dir / "diagnostics.csv", diagnostics)


def _scheme_for_eta(cfg: ExperimentConfig, eta: float) -> NonlocalSchemeConfig:
    return NonlocalSchemeConfig(
        kernel=cfg.kernel_spec(eta),
        velocity=cfg.build_velocity(),
        cfl=cfg.cfl,
        t_end=cfg.t_end,
        snapshot_times=cfg.merged_snapshot_times(),
    )


def _solve_for_eta(cfg: ExperimentConfig, scheme: NonlocalSchemeConfig,
                   n_cells: int) -> tuple[RunReport, CellField]:
    q0 = sample_profile(cfg.build_profile(), cfg.build_grid(n_cells))
    try:
        return solve_nonlocal(q0, scheme), q0
    except NumericalBlowupError as exc:
        raise NumericalBlowupError(f"eta = {scheme.kernel.eta!r}: {exc}",
                                   step=exc.step) from exc


def run_single(cfg: ExperimentConfig, eta: float, output_dir=None) -> RunReport:
    """Run one nonlocal solve at ``eta`` and write its CSV files."""
    matched = [candidate for candidate in cfg.eta_list
               if np.isclose(eta, candidate, rtol=1e-12, atol=0.0)]
    if not matched:
        raise ConfigError(f"eta = {eta!r} is not in the configured eta_list")
    eta = matched[0]
    report, q0 = _solve_for_eta(cfg, _scheme_for_eta(cfg, eta), cfg.n_cells)
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    _write_run_files(out / eta_dirname(eta), cfg, report, q0, eta)
    return report


@dataclass(frozen=True)
class SweepResult:
    """Sweep rows plus run accounting (the reference is computed exactly once)."""

    rows: tuple
    reference_runs: int
    nonlocal_runs: int
    reference: RunReport
    reports: tuple


SWEEP_COLUMNS = (
    "eta", "sup_time_l1_q_vs_ref", "sup_time_l1_W_vs_ref",
    "tv_W_max", "tv_q_final", "wq_identity_gap",
)


def sweep_cells_for_eta(cfg: ExperimentConfig, eta: float) -> int:
    """Grid size for a sweep run: dx <= min(eta/10, base dx), doubling the
    base cell count so the reference grid stays an integer refinement."""
    span = cfg.x_max - cfg.x_min
    n = cfg.n_cells
    while span / n > eta / 10.0:
        n *= 2
    n_ref = cfg.n_cells * cfg.reference_refinement
    if n_ref % n != 0:
        raise ConfigError(
            f"eta = {eta} needs {n} cells but the reference grid of {n_ref} "
            "cells is not an integer refinement; raise reference_refinement"
        )
    return n


def run_sweep(cfg: ExperimentConfig, output_dir=None) -> SweepResult:
    """Compare every configured eta against one fine-grid local reference.

    Writes per-eta run files, the reference series and sweep.csv.  Every
    eta's grid and scheme are checked before the first solve.
    """
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    window = cfg.window()
    schedule = cfg.merged_snapshot_times()
    runs = [(sweep_cells_for_eta(cfg, eta), _scheme_for_eta(cfg, eta))
            for eta in cfg.eta_list]

    ref_grid = cfg.build_grid(cfg.n_cells * cfg.reference_refinement)
    ref_q0 = sample_profile(cfg.build_profile(), ref_grid)
    flux = FluxModel(velocity=cfg.build_velocity())
    reference = solve_local(ref_q0, flux, cfl=cfg.cfl, t_end=cfg.t_end,
                            snapshot_times=schedule)
    _write_snapshots_csv(out / "reference" / "snapshots.csv", reference)
    _write_tv_series_csv(out / "reference" / "tv_series.csv", reference)

    rows = []
    reports = []
    for n_eta, scheme in runs:
        eta = scheme.kernel.eta
        report, q0 = _solve_for_eta(cfg, scheme, n_eta)
        _write_run_files(out / eta_dirname(eta), cfg, report, q0, eta)
        final = report.snapshots[-1]
        rows.append({
            "eta": eta,
            "sup_time_l1_q_vs_ref": sup_time_l1(report, reference, window, compare="q"),
            "sup_time_l1_W_vs_ref": sup_time_l1(report, reference, window, compare="w"),
            "tv_W_max": float(np.max(report.tv_w_series)),
            "tv_q_final": float(report.tv_q_series[-1]),
            "wq_identity_gap": wq_identity_gap(final.q, final.w, eta),
        })
        reports.append(report)

    _write_csv(
        out / "sweep.csv",
        list(SWEEP_COLUMNS),
        [[_fmt(row[col]) for col in SWEEP_COLUMNS] for row in rows],
    )
    return SweepResult(
        rows=tuple(rows),
        reference_runs=1,
        nonlocal_runs=len(reports),
        reference=reference,
        reports=tuple(reports),
    )


def perturbed_initial_field(q0: CellField, delta: float) -> CellField:
    """Add a compactly supported bump of L1-size ``delta`` to ``q0``, clipped
    so the perturbed datum stays inside [0, max q0]."""
    if delta < 0:
        raise ConfigError(f"delta must be nonnegative, got {delta}")
    grid = q0.grid
    _, hi = data_range(q0)
    if delta == 0.0 or hi == 0.0:
        return q0
    center = 0.5 * (grid.x_min + grid.x_max)
    radius = 0.1 * (grid.x_max - grid.x_min)
    # integral of (1-u^2)^3 over [-1, 1] is 32/35
    amplitude = delta / (radius * 32.0 / 35.0)
    u = (grid.cell_centers - center) / radius
    bump = np.where(np.abs(u) < 1.0, amplitude * (1.0 - u**2) ** 3, 0.0)
    return CellField(grid=grid, values=np.clip(q0.values + bump, 0.0, hi))


def run_stability_probe(cfg: ExperimentConfig, delta: float,
                        output_dir=None) -> float:
    """Rerun the first configured eta with a perturbed datum and report the
    sup-in-time L1 distance to the unperturbed run; writes probe.csv."""
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    q0 = sample_profile(cfg.build_profile(), cfg.build_grid(cfg.n_cells))
    scheme = _scheme_for_eta(cfg, cfg.eta_list[0])
    perturbed_q0 = perturbed_initial_field(q0, delta)
    baseline = solve_nonlocal(q0, scheme)
    perturbed = solve_nonlocal(perturbed_q0, scheme)
    distance = sup_time_l1(perturbed, baseline, cfg.window(), compare="q")
    _write_csv(out / "probe.csv", ["delta", "sup_time_l1"],
               [[_fmt(delta), _fmt(distance)]])
    return distance


def _discover_csvs(out: Path, cfg: ExperimentConfig):
    if not out.is_dir():
        raise ConfigError(f"output directory {out} does not exist")
    eta_dirs = []
    for eta in cfg.eta_list:
        d = out / eta_dirname(eta)
        if d.is_dir():
            missing = [str(d / name) for name in
                       ("snapshots.csv", "tv_series.csv", "diagnostics.csv")
                       if not (d / name).is_file()]
            if missing:
                raise ConfigError(f"missing CSV files: {', '.join(missing)}")
            eta_dirs.append((eta, d.name))
    if not eta_dirs:
        raise ConfigError(
            f"no per-eta CSV files found under {out}; run or sweep first"
        )
    reference_tv = (out / "reference" / "tv_series.csv").is_file()
    reference_snapshots = (out / "reference" / "snapshots.csv").is_file()
    sweep = (out / "sweep.csv").is_file()
    probe = (out / "probe.csv").is_file()
    return eta_dirs, reference_tv, reference_snapshots, sweep, probe


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render heatmaps, profiles and total-variation curves from the run CSVs.

Generated file; regeneration is deterministic.  Requires matplotlib.
"""
import csv
import pathlib

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = pathlib.Path(__file__).resolve().parent
RUNS = [
{runs_block}
]
REFERENCE_TV = {reference_tv!r}
REFERENCE_SNAPSHOTS = {reference_snapshots!r}
SWEEP = {sweep!r}
PROBE = {probe!r}
PROFILE_TIME = {profile_time!r}


def read_csv(rel):
    with open(HERE / rel, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def read_snapshots(rel):
    data = {{}}
    for row in read_csv(rel):
        t = float(row["time"])
        data.setdefault(t, {{"x": [], "q": [], "W": []}})
        data[t]["x"].append(float(row["x_center"]))
        data[t]["q"].append(float(row["q"]))
        data[t]["W"].append(float(row["W"]))
    return dict(sorted(data.items()))


def plot_heatmap(label, rel):
    data = read_snapshots(rel)
    times = list(data)
    x = data[times[0]]["x"]
    grid = [data[t]["q"] for t in times]
    fig, ax = plt.subplots(figsize=(6, 4))
    mesh = ax.pcolormesh(x, times, grid, shading="nearest", vmin=0.0, cmap="viridis")
    fig.colorbar(mesh, ax=ax, label="q")
    ax.set_xlabel("x")
    ax.set_ylabel("t")
    ax.set_title(f"density, {{label}}")
    fig.tight_layout()
    fig.savefig(HERE / f"heatmap_{{label}}.png", dpi=150)
    plt.close(fig)
    return data


def nearest_time(data, target):
    return min(data, key=lambda t: abs(t - target))


def main():
    profile_fig, profile_ax = plt.subplots(figsize=(7, 4))
    tv_fig, tv_ax = plt.subplots(figsize=(7, 4))
    for label, snapshots_rel, tv_rel, diagnostics_rel in RUNS:
        data = plot_heatmap(label, snapshots_rel)
        t_show = nearest_time(data, PROFILE_TIME)
        profile_ax.plot(data[t_show]["x"], data[t_show]["q"], label=f"q, {{label}}")
        profile_ax.plot(data[t_show]["x"], data[t_show]["W"], "--", label=f"W, {{label}}")
        tv_rows = read_csv(tv_rel)
        times = [float(r["time"]) for r in tv_rows]
        tv_ax.plot(times, [float(r["tv_q"]) for r in tv_rows], label=f"TV(q), {{label}}")
        tv_ax.plot(times, [float(r["tv_W"]) for r in tv_rows], ":", label=f"TV(W), {{label}}")
        print(f"--- diagnostics, {{label}} ---")
        for row in read_csv(diagnostics_rel):
            print(f"{{row['name']}}: {{row['value']}}")
    if REFERENCE_TV is not None:
        ref_rows = read_csv(REFERENCE_TV)
        tv_ax.plot([float(r["time"]) for r in ref_rows],
                   [float(r["tv_q"]) for r in ref_rows],
                   "k-.", label="TV(q), local reference")
    if REFERENCE_SNAPSHOTS is not None:
        ref_data = read_snapshots(REFERENCE_SNAPSHOTS)
        t_show = nearest_time(ref_data, PROFILE_TIME)
        profile_ax.plot(ref_data[t_show]["x"], ref_data[t_show]["q"],
                        "k-.", label="q, local reference")
    profile_ax.set_xlabel("x")
    profile_ax.set_ylabel("value")
    profile_ax.set_title(f"profiles near t = {{PROFILE_TIME}}")
    profile_ax.legend(fontsize=7)
    profile_fig.tight_layout()
    profile_fig.savefig(HERE / "profiles.png", dpi=150)
    tv_ax.set_xlabel("t")
    tv_ax.set_ylabel("total variation")
    tv_ax.set_title("total variation vs time")
    tv_ax.legend(fontsize=7)
    tv_fig.tight_layout()
    tv_fig.savefig(HERE / "tv_curves.png", dpi=150)
    if SWEEP is not None:
        rows = read_csv(SWEEP)
        fig, ax = plt.subplots(figsize=(5, 4))
        etas = [float(r["eta"]) for r in rows]
        ax.loglog(etas, [float(r["sup_time_l1_q_vs_ref"]) for r in rows], "o-",
                  label="q vs reference")
        ax.loglog(etas, [float(r["sup_time_l1_W_vs_ref"]) for r in rows], "s--",
                  label="W vs reference")
        ax.set_xlabel("eta")
        ax.set_ylabel("sup-in-time L1 error")
        ax.legend()
        fig.tight_layout()
        fig.savefig(HERE / "sweep_errors.png", dpi=150)
        plt.close(fig)
    if PROBE is not None:
        rows = read_csv(PROBE)
        fig, ax = plt.subplots(figsize=(5, 4))
        ax.loglog([float(r["delta"]) for r in rows],
                  [float(r["sup_time_l1"]) for r in rows], "o-")
        ax.set_xlabel("delta")
        ax.set_ylabel("sup-in-time L1 distance")
        fig.tight_layout()
        fig.savefig(HERE / "stability_probe.png", dpi=150)
        plt.close(fig)


if __name__ == "__main__":
    main()
'''


def emit_plot_script(cfg: ExperimentConfig, output_dir=None) -> Path:
    """Write a self-contained matplotlib script rendering the emitted CSVs.

    Regeneration is byte-for-byte deterministic; every discovered CSV is
    referenced exactly once in the script.
    """
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    eta_dirs, ref_tv, ref_snaps, sweep, probe = _discover_csvs(out, cfg)
    runs_block = "\n".join(
        f'    ("{name}", "{name}/snapshots.csv", "{name}/tv_series.csv", '
        f'"{name}/diagnostics.csv"),'
        for _, name in eta_dirs
    )
    script = _PLOT_TEMPLATE.format(
        runs_block=runs_block,
        reference_tv="reference/tv_series.csv" if ref_tv else None,
        reference_snapshots="reference/snapshots.csv" if ref_snaps else None,
        sweep="sweep.csv" if sweep else None,
        probe="probe.csv" if probe else None,
        profile_time=min(0.5, cfg.t_end),
    )
    path = out / PLOT_SCRIPT_NAME
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
    return path
