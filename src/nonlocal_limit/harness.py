"""Configuration parsing, experiment orchestration and CSV emission.

Configs are JSON documents.  ExperimentConfig declares each key once, with
its check and default; unknown keys are rejected with their key path, and
the defaults reproduce the reference experiment.

All CSV output is deterministic: floats carry 17 significant digits, written
by the step library (``native.rows``), rows are ordered, and nothing time- or
host-dependent is written.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import pickle
import signal
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import native
from .core import (
    CellField,
    Grid1D,
    PiecewiseConstantProfile,
    VelocityModel,
    data_range,
    default_datum_profile,
    sample_profile,
)
from .diagnostics import (
    TestFunction,
    Window,
    bump,
    bump_test_function,
    sup_time_l1,
    transport_residual_w,
    weak_and_entropy_residuals,
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
# Bytes of row text per block of CSV rows formatted at once, which bound the
# block's buffer, and the most bytes of a number's text with its separator.
_CSV_BLOCK_BYTES = 1 << 18
_NUMBER_BYTES = native.REAL_WIDTH + 1
_NAN = np.array([np.nan])  # the W column of a local run: one entry for every row


# Checks of single config keys: each takes the raw value and its key path and
# returns the value the config holds, or raises ConfigError naming the path.

def _object(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be an object")
    return raw


def _finite(raw, path: str) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or not np.isfinite(raw):
        raise ConfigError(f"{path} must be a finite number")
    return float(raw)


def _positive(raw, path: str) -> float:
    value = _finite(raw, path)
    if value <= 0:
        raise ConfigError(f"{path} must be positive, got {value}")
    return value


def _integer(minimum: int):
    def check(raw, path: str) -> int:
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ConfigError(f"{path} must be an integer")
        if raw < minimum:
            raise ConfigError(f"{path} must be >= {minimum}, got {raw}")
        return raw
    return check


def _numbers(entry=_finite):
    """A list of numbers, each passing ``entry``, held as a tuple."""
    def check(raw, path: str) -> tuple:
        if not isinstance(raw, list):
            raise ConfigError(f"{path} must be a list of numbers")
        return tuple(entry(value, f"{path}[{i}]") for i, value in enumerate(raw))
    return check


def _one_of(options):
    def check(raw, path: str):
        if raw not in options:
            raise ConfigError(f"{path} must be one of {options}, got {raw!r}")
        return raw
    return check


def _nonempty_decreasing(raw, path: str) -> tuple:
    values = _numbers(_positive)(raw, path)
    if not values:
        raise ConfigError(f"{path} must not be empty")
    for i, (a, b) in enumerate(zip(values, values[1:])):
        if b >= a:
            raise ConfigError(f"{path}[{i + 1}] must be strictly smaller than {path}[{i}]")
    return values


def _scheduled(times, t_end: float) -> np.ndarray:
    """``times`` rounded to 12 decimals, those at or below t_end kept there
    (rounding lifts a t_end with more decimals past itself)."""
    times = np.asarray(times, dtype=float)
    return np.where(times <= t_end, np.minimum(np.round(times, 12), t_end), np.round(times, 12))


def _default_snapshot_times(t_end: float) -> list[float]:
    times = list(np.round(np.arange(0.0, t_end + 1e-9, _DEFAULT_SNAPSHOT_SPACING), 12))
    if not times or times[-1] < t_end - 1e-12:
        times.append(t_end)
    return [float(t) for t in times]


def _key(path: str, check=None, default=None, variants=None):
    """Declare the config key ``path`` ("section.key", or "key" at the top).

    ``check(raw, path)`` returns the value the config holds for a given raw
    value; ``default`` stands in for a missing one, and a callable default
    is called with the values resolved so far and the key's section (None
    when the document has none).  With ``variants``, ``path`` is a section
    whose further keys ``variants(values)`` lists as (key, check, default);
    the field holds them as (key, value) pairs.
    """
    section, _, key = (path, None, None) if variants else path.rpartition(".")
    return dataclasses.field(metadata={"section": section, "key": key, "check": check,
                                       "default": default, "variants": variants})


_S_MAX = ("s_max", _positive, 1.0)
_V_MAX = ("v_max", _finite, 1.0)  # its sign rule is the model's
# velocity.name -> the model's parameter keys, in the order of its params
_VELOCITIES = {
    "linear": (_V_MAX, _S_MAX),
    "constant": (("value", _finite, 1.0), _S_MAX),
    "quadratic": (_V_MAX, _S_MAX),
    "linear_increasing": (_V_MAX, _S_MAX),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description.

    Each field declares the config key it is read from, with the key's
    check and default (see ``_key``); ``config_from_dict`` and
    ``serialize_config`` walk these declarations.  The velocity, flux,
    residual test function and snapshot schedule are built once, at first use.
    """

    x_min: float = _key("grid.x_min", _finite, -1.0)
    x_max: float = _key("grid.x_max", _finite, 2.0)
    n_cells: int = _key("grid.n_cells", lambda raw, _: raw, 4096)  # its rule is the grid's
    # no profile section: the three-jump datum; a partial one: no jumps, level 0
    breakpoints: tuple = _key(
        "profile.breakpoints", _numbers(),
        lambda _, given: [] if given is not None else default_datum_profile().breakpoints.tolist())
    levels: tuple = _key(
        "profile.levels", _numbers(),
        lambda _, given: [0.0] if given is not None else default_datum_profile().levels.tolist())
    velocity_name: str = _key("velocity.name", _one_of(sorted(_VELOCITIES)), "linear")
    velocity_params: tuple = _key(
        "velocity", variants=lambda values: _VELOCITIES[values["velocity_name"]])
    kernel_family: str = _key("kernel.family", _one_of(KERNEL_FAMILIES), "exponential")
    kernel_orientation: str = _key("kernel.orientation", _one_of(ORIENTATIONS), "downstream")
    eta_list: tuple = _key("eta_list", _nonempty_decreasing, [0.1, 0.01, 0.001])
    cfl: float = _key("cfl", _finite, 0.5)
    t_end: float = _key("t_end", _finite, 1.5)
    snapshot_times: tuple = _key("snapshot_times", _numbers(),
                                 lambda values, _: _default_snapshot_times(values["t_end"]))
    window_lo: float = _key("window.lo", _finite, lambda values, _: values["x_min"])
    window_hi: float = _key("window.hi", _finite, lambda values, _: values["x_max"])
    reference_refinement: int = _key("reference_refinement", _integer(4), 8)

    def build_grid(self, n_cells: int | None = None) -> Grid1D:
        return Grid1D(x_min=self.x_min, x_max=self.x_max, n_cells=n_cells or self.n_cells)

    def build_profile(self) -> PiecewiseConstantProfile:
        return PiecewiseConstantProfile(breakpoints=self.breakpoints, levels=self.levels)

    def build_velocity(self) -> VelocityModel:
        return VelocityModel(self.velocity_name, tuple(v for _, v in self.velocity_params))

    velocity = functools.cached_property(build_velocity)

    def kernel_spec(self, eta: float) -> KernelSpec:
        return KernelSpec(family=self.kernel_family, eta=eta,
                          orientation=self.kernel_orientation)

    def window(self) -> Window:
        return Window(self.window_lo, self.window_hi)

    @functools.cached_property
    def flux(self) -> FluxModel:
        return FluxModel(velocity=self.velocity)

    @functools.cached_property
    def residual_test_function(self) -> TestFunction | None:
        """Default space-time bump for the residual diagnostics: the
        separable closed-form bump over the middle half of the domain, whose
        derivatives are exact, so any radius computed here is accepted.

        Its time radius is at least _RESIDUAL_MIN_RADIUS_STEPS estimated
        solver steps, so the dense snapshot band stays dense after requests
        round to whole steps.  Returns None when no such support fits in
        (0, t_end): the run is then too coarse for residual measurement.
        """
        v_max = self.velocity.max_abs_speed
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

    @functools.cached_property
    def merged_snapshot_times(self) -> np.ndarray:
        """Configured snapshot times plus 0 and t_end, the initial state the
        weak residual needs and the final state, and a dense band across the
        residual test function's time support (when one fits); read-only.

        The band reaches two spacings past the support so that snapshot
        requests rounded onto solver steps stay dense over the whole support.
        Times are rounded by ``_scheduled`` and merged as a sorted set: the
        first np.unique call imports numpy.ma (15 ms, 0.8 MB), which a parse
        skips.
        """
        phi = self.residual_test_function
        times = np.append(self.snapshot_times, (0.0, self.t_end))
        if phi is not None:
            t_lo, t_hi = max(phi.support[0], 0.0), min(phi.support[1], self.t_end)
            pad = 2.0 * (t_hi - t_lo) / _RESIDUAL_BAND_INTERVALS
            band = np.linspace(max(0.0, t_lo - pad), min(self.t_end, t_hi + pad),
                               _RESIDUAL_BAND_INTERVALS + 5)
            times = np.append(times, band)
        merged = np.array(sorted(set(_scheduled(times, self.t_end).tolist())))
        merged.setflags(write=False)
        return merged


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Resolve a config document against the keys declared on ExperimentConfig,
    then check it with the objects and checks that its runs use."""
    given = {"": dict(_object(doc, "config"))}  # emptied as keys resolve
    values = {}

    def resolve(section: str, key: str, check, default):
        mapping = given[section]
        if mapping is not None and key in mapping:
            raw = mapping.pop(key)
        else:
            raw = default(values, mapping) if callable(default) else default
        return check(raw, f"{section}.{key}" if section else key)

    for field in dataclasses.fields(ExperimentConfig):
        meta = field.metadata
        section, key = meta["section"], meta["key"]
        if section not in given:
            given[section] = (dict(_object(given[""].pop(section), section))
                              if section in given[""] else None)
        if key is None:
            values[field.name] = tuple((name, resolve(section, name, check, default))
                                       for name, check, default in meta["variants"](values))
        else:
            values[field.name] = resolve(section, key, meta["check"], meta["default"])
    for section, mapping in given.items():
        for key in mapping or ():
            raise ConfigError(f"unknown key {section + '.' if section else ''}{key}")

    cfg = ExperimentConfig(**values)
    try:
        grid = cfg.build_grid()
        cfg.build_profile()
        check_pairing(cfg.kernel_orientation, cfg.velocity.mode)
        check_time_settings(cfg.cfl, cfg.t_end, cfg.snapshot_times)
        # the times the runs request: rounded, with 0, t_end and the residual band
        check_time_settings(cfg.cfl, cfg.t_end, cfg.merged_snapshot_times)
        cfg.window().check_inside(grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_config(document: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    return config_from_dict(doc)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit the fully resolved config; parse(serialize(cfg)) == cfg."""
    doc = {}
    for field in dataclasses.fields(cfg):
        section, key = field.metadata["section"], field.metadata["key"]
        target = doc.setdefault(section, {}) if section else doc
        value = getattr(cfg, field.name)
        if key is None:
            target.update(value)
        else:
            target[key] = list(value) if isinstance(value, tuple) else value
    return json.dumps(doc, indent=2, sort_keys=True)


def _column(column) -> native.Column:
    """A CSV column of ``column``: a native.Column as it is, str entries as
    text, numbers as '%.17g' of their float64 value (for an integer below
    2**53 in magnitude, such as a step or cell index, its decimal text)."""
    if isinstance(column, native.Column):
        return column
    column = np.asarray(column)
    if column.dtype.kind in "US":
        return native.Column.lines("".join(f"{entry}\n" for entry in column.tolist()).encode())
    return native.Column.numbers(np.ascontiguousarray(column, dtype=np.float64))


def _rows(*columns) -> np.ndarray:
    """The CSV lines of ``columns`` (see _column) as uint8 text, as many as
    the longest column's entries times their repeat; a shorter column
    starts over."""
    columns = [_column(column) for column in columns]
    return native.rows(columns, max(column.count * column.repeat for column in columns))


@contextlib.contextmanager
def _replacing(path: Path, mode: str, **kwargs):
    """``open(partial, mode, **kwargs)`` for ``partial`` =
    ``.<name>.<pid>.partial`` beside ``path`` (so with ``open``'s default
    permissions), renamed to ``path`` once the block ends and removed on an
    exception: ``path`` never holds a half-written file."""
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, mode, **kwargs) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _write_csv(path: Path, header: tuple, blocks):
    """Write the header line and the byte ``blocks`` (ASCII, LF endings)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        fh.writelines(blocks)


def eta_dirname(eta: float) -> str:
    return f"eta_{eta!r}"


def _restrict_snapshots(report: RunReport, t_lo: float, t_hi: float) -> RunReport:
    kept = tuple(s for s in report.snapshots if t_lo - 1e-12 <= s.time <= t_hi + 1e-12)
    return dataclasses.replace(report, snapshots=kept)


def _configured_snapshots(cfg: ExperimentConfig, report: RunReport) -> tuple:
    """The distinct snapshots answering configured snapshot_times requests.
    The driver emits one snapshot per request of cfg.merged_snapshot_times,
    the schedule every run is solved with, in step order; requests that land
    on one step share its snapshot."""
    configured = np.isin(cfg.merged_snapshot_times, _scheduled(cfg.snapshot_times, cfg.t_end))
    kept = (snap for snap, keep in zip(report.snapshots, configured, strict=True) if keep)
    return tuple({snap.time: snap for snap in kept}.values())


def _snapshot_blocks(snapshots):
    """The rows of snapshots.csv, one row per cell per snapshot, in blocks
    of whole snapshots (at least one) with about _CSV_BLOCK_BYTES of row
    text each.  Each time and cell_index,x_center text is formatted once."""
    if not snapshots:
        return
    n = snapshots[0].q.grid.n_cells
    cells = native.Column.lines(_rows(np.arange(n), snapshots[0].q.grid.cell_centers))
    per_block = max(1, _CSV_BLOCK_BYTES // (n * (cells.width + 3 * _NUMBER_BYTES + 1)))
    for start in range(0, len(snapshots), per_block):
        block = snapshots[start:start + per_block]
        times = native.Column.lines(_rows([snap.time for snap in block]), repeat=n)
        # W at each cell's left interface; local runs have none
        w = (np.concatenate([snap.w.values[:-1] for snap in block])
             if block[0].w is not None else _NAN)
        yield _rows(times, cells, np.concatenate([snap.q.values for snap in block]), w)


def _write_snapshots_csv(path: Path, snapshots):
    """snapshots.csv of ``snapshots`` (none: a header-only file)."""
    _write_csv(path, ("time", "cell_index", "x_center", "q", "W"), _snapshot_blocks(snapshots))


def _write_tv_series_csv(path: Path, report: RunReport):
    steps = np.arange(report.n_steps + 1)
    series = (steps, steps * report.dt_used, report.tv_q_series,
              report.tv_w_series if report.tv_w_series is not None else _NAN,
              report.mass_series)
    per_block = max(1, _CSV_BLOCK_BYTES // (len(series) * _NUMBER_BYTES))
    _write_csv(path, ("step", "time", "tv_q", "tv_W", "mass"),
               (_rows(*(column if column is _NAN else column[start:start + per_block]
                        for column in series)) for start in range(0, steps.size, per_block)))


def _max_principle_violation(report: RunReport, q0: CellField) -> float:
    lo, hi = data_range(q0)
    return max(0.0, report.q_max_overall - hi, lo - report.q_min_overall)


def _run_diagnostics(cfg: ExperimentConfig, report: RunReport, q0: CellField,
                     eta: float) -> dict[str, float]:
    velocity = cfg.velocity
    phi = cfg.residual_test_function
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
    levels = [frac * velocity.admissible_range[1] for frac in _ENTROPY_LEVEL_FRACTIONS]
    values["weak_residual"], entropy = weak_and_entropy_residuals(report, "nonlocal", cfg.flux,
                                                                  levels, phi)
    values["entropy_residual_min"] = min(entropy)
    if cfg.kernel_family == "exponential" and cfg.kernel_orientation == "downstream":
        # the transport identity is specific to the downstream exponential kernel
        band = _restrict_snapshots(report, phi.support[0], phi.support[1])
        values["transport_residual_W"] = transport_residual_w(band, velocity, eta)
    return values


_DIAGNOSTIC_ROWS = (
    "wq_identity_gap", "weak_residual", "transport_residual_W",
    "entropy_residual_min", "max_principle_violation",
)


def _scheme_for_eta(cfg: ExperimentConfig, eta: float) -> NonlocalSchemeConfig:
    return NonlocalSchemeConfig(kernel=cfg.kernel_spec(eta), velocity=cfg.velocity,
                                cfl=cfg.cfl, t_end=cfg.t_end,
                                snapshot_times=cfg.merged_snapshot_times)


def _solve_named(q0: CellField, scheme: NonlocalSchemeConfig, label: str = "") -> RunReport:
    """solve_nonlocal, with a blowup message that names the eta and ``label``."""
    try:
        return solve_nonlocal(q0, scheme)
    except NumericalBlowupError as exc:
        raise NumericalBlowupError(f"eta = {scheme.kernel.eta!r}: {label}{exc}",
                                   step=exc.step) from exc


def _run_eta(cfg: ExperimentConfig, scheme: NonlocalSchemeConfig, n_cells: int,
             out: Path) -> tuple[RunReport, dict[str, float]]:
    """Solve at the scheme's eta on ``n_cells`` cells and write the run's
    three files under out/eta_<eta>; returns the report and its diagnostics."""
    eta = scheme.kernel.eta
    q0 = sample_profile(cfg.build_profile(), cfg.build_grid(n_cells))
    report = _solve_named(q0, scheme)
    # diagnostics first: if they fail, no file of the run exists
    diagnostics = _run_diagnostics(cfg, report, q0, eta)
    run_dir = out / eta_dirname(eta)
    _write_snapshots_csv(run_dir / "snapshots.csv", _configured_snapshots(cfg, report))
    _write_tv_series_csv(run_dir / "tv_series.csv", report)
    _write_csv(run_dir / "diagnostics.csv", ("name", "value"), [_rows(
        _DIAGNOSTIC_ROWS, [diagnostics[name] for name in _DIAGNOSTIC_ROWS])])
    return report, diagnostics


def run_single(cfg: ExperimentConfig, eta: float, output_dir) -> RunReport:
    """Run one nonlocal solve at ``eta`` and write its CSV files."""
    matched = [candidate for candidate in cfg.eta_list
               if np.isclose(eta, candidate, rtol=1e-12, atol=0.0)]
    if not matched:
        raise ConfigError(f"eta = {eta!r} is not in the configured eta_list")
    scheme = _scheme_for_eta(cfg, matched[0])
    report, _ = _run_eta(cfg, scheme, cfg.n_cells, Path(output_dir))
    return report


@dataclass(frozen=True)
class SweepResult:
    """Sweep rows, the one local reference and the per-eta reports."""

    rows: tuple
    reference: RunReport
    reports: tuple


SWEEP_COLUMNS = (
    "eta", "sup_time_l1_q_vs_ref", "sup_time_l1_W_vs_ref",
    "tv_W_max", "tv_q_final", "wq_identity_gap",
)


def sweep_cells_for_eta(cfg: ExperimentConfig, eta: float) -> int:
    """Grid size for a sweep run: dx <= min(eta/10, base dx), doubling the
    base cell count while the reference grid can stay an integer refinement."""
    span = cfg.x_max - cfg.x_min
    n = cfg.n_cells
    n_ref = cfg.n_cells * cfg.reference_refinement
    while n <= n_ref and span / n > eta / 10.0:
        n *= 2
    if n_ref % n != 0:
        raise ConfigError(f"eta = {eta} needs at least {n} cells but the reference grid of "
                          f"{n_ref} cells is not an integer refinement; raise "
                          "reference_refinement")
    return n


class _Terminated(BaseException):
    """SIGTERM reached _run_tasks while it had children."""


def _raise_terminated(signum, frame):
    raise _Terminated


def _shares(costs, workers: int) -> list[list[int]]:
    """Task indices in at most ``workers`` shares, lightest share first, each
    in list order: costliest first, each task joins the share with the least
    summed ``costs`` so far."""
    shares = [[0, []] for _ in range(workers)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        share = min(shares, key=lambda share: share[0])
        share[0] += costs[i]
        share[1].append(i)
    return [sorted(tasks) for _, tasks in sorted(shares, key=lambda share: share[0]) if tasks]


def _fork_share(tasks, share) -> tuple[int, int]:
    """Run ``tasks[i]()`` for each i of ``share`` in order, up to the first
    failure, in a forked child; returns its pid and the in-memory file to
    which it appends (True, result, end) or (False, exception, end) as one
    protocol-5 pickle as each task ends at time.monotonic() ``end``."""
    fd = os.memfd_create("task-outcomes")
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork whenever the process has another OS
            # thread, and numpy's OpenBLAS pool always is one.  Forking is safe
            # here all the same: _run_tasks forks only while no other Python
            # thread is alive, and the children run numpy ufuncs, the step
            # library and file writes, never BLAS.
            warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            if signal.getsignal(signal.SIGTERM) is _raise_terminated:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
            with open(fd, "wb") as out:
                for i in share:
                    try:
                        outcome = (True, tasks[i]())
                    except BaseException as exc:  # the parent raises it
                        try:
                            pickle.loads(pickle.dumps(exc, protocol=5))
                        except Exception:
                            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                        outcome = (False, exc)
                    pickle.dump((*outcome, time.monotonic()), out, protocol=5)
                    out.flush()
                    ok, outcome = outcome[0], None  # hold no result through the next task
                    if not ok:
                        break
            status = 0
        finally:
            os._exit(status)
    return pid, fd


def _worker_died(name: str, status: int) -> ChildProcessError:
    """The error for task ``name`` when its child ended, with wait status
    ``status``, before sending its result."""
    code = os.waitstatus_to_exitcode(status)
    try:
        how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
    except ValueError:
        how = f"killed by signal {-code}"
    return ChildProcessError(f"{name}: worker process ended before sending its result ({how})")


def _log_share(share, names, where: str, wall: float, cpu: float, max_rss_kb: int):
    import logging  # at first use: about 6 ms of imports a process that forks none skips

    logging.getLogger(__name__).debug(
        "share %s in %s: wall %.3f s, CPU %.3f s, max RSS %.1f MB",
        ", ".join(names[i] for i in share), where, wall, cpu, max_rss_kb / 1024)


def _run_tasks(tasks, costs, names) -> list:
    """``[task() for task in tasks]``, with the tasks overlapped in forked
    child processes.

    The tasks are split into one share per usable CPU by their estimated
    work ``costs`` (see _shares).  This process runs the lightest share and
    a forked child each other one, every share in list order up to its first
    failure.  With one usable CPU or one task, without Linux's memfd_create,
    or while another Python thread is alive, the tasks run here in order.
    The first failing task in list order raises its exception; a child that
    dies early raises ChildProcessError naming ``names[i]`` of its first
    task without an outcome.  No child outlives the call; SIGTERM is
    re-delivered once they are reaped.  Each share is logged at DEBUG.
    """
    workers = (min(len(tasks), len(os.sched_getaffinity(0)))
               if sys.platform == "linux" and hasattr(os, "memfd_create") else 1)
    if workers < 2 or threading.active_count() > 1:
        return [task() for task in tasks]
    import resource

    own, *shares = _shares(costs, workers)
    results, failures, children = {}, {}, []  # children: (share, pid, fd, start)
    terminable = (threading.current_thread() is threading.main_thread()
                  and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL)
    if terminable:
        signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        try:
            for share in shares:
                children.append((share, *_fork_share(tasks, share), time.monotonic()))
            start, before = time.monotonic(), resource.getrusage(resource.RUSAGE_SELF)
            for i in own:
                try:
                    results[i] = tasks[i]()
                except Exception as exc:
                    failures[i] = exc
                    break
            usage = resource.getrusage(resource.RUSAGE_SELF)  # [:2]: user and system CPU time
            _log_share(own, names, f"this process, {os.getpid()}", time.monotonic() - start,
                       sum(usage[:2]) - sum(before[:2]), usage.ru_maxrss)
            while children:
                share, pid, fd, start = children[0]
                _, status, usage = os.wait4(pid, 0)
                del children[0]
                with open(fd, "rb") as file:
                    file.seek(0)  # the child moved the offset it shares with this process
                    for i in share:
                        try:
                            ok, value, end = pickle.load(file)
                        except (EOFError, pickle.UnpicklingError):  # the child died first
                            ok, value = False, _worker_died(names[i], status)
                            end = time.monotonic()
                        (results if ok else failures)[i] = value
                        if not ok:
                            break
                _log_share(share, names, f"child {pid}", end - start, sum(usage[:2]),
                           usage.ru_maxrss)
        finally:
            # a SIGTERM now waits for the reaping, then raises _Terminated
            held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
            try:
                for _, pid, fd, _ in children:
                    # the first may be reaped already, when an interrupt came as wait4 returned
                    with contextlib.suppress(ProcessLookupError, ChildProcessError):
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                    os.close(fd)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)  # ends this process with SIGTERM's status
        raise
    finally:
        if terminable:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if failures:
        raise failures[min(failures)]
    return [results[i] for i in range(len(tasks))]


def _run_reference(cfg: ExperimentConfig, n_cells: int, out: Path) -> RunReport:
    """Solve the local law on ``n_cells`` cells and write out/reference."""
    q0 = sample_profile(cfg.build_profile(), cfg.build_grid(n_cells))
    reference = solve_local(q0, cfg.flux, cfl=cfg.cfl, t_end=cfg.t_end,
                            snapshot_times=cfg.merged_snapshot_times)
    _write_snapshots_csv(out / "reference" / "snapshots.csv",
                         _configured_snapshots(cfg, reference))
    _write_tv_series_csv(out / "reference" / "tv_series.csv", reference)
    return reference


def run_sweep(cfg: ExperimentConfig, output_dir) -> SweepResult:
    """Compare every configured eta against one fine-grid local reference.

    Writes per-eta run files, the reference series and sweep.csv.  Every
    eta's grid and scheme are checked before the first solve.  The reference
    and the eta runs are independent tasks (see _run_tasks).
    """
    out = Path(output_dir)
    window = cfg.window()
    runs = [(sweep_cells_for_eta(cfg, eta), _scheme_for_eta(cfg, eta))
            for eta in cfg.eta_list]
    n_ref = cfg.n_cells * cfg.reference_refinement
    cfg.flux  # built once, before any task process starts
    reference, *results = _run_tasks(
        [functools.partial(_run_reference, cfg, n_ref, out)]
        + [functools.partial(_run_eta, cfg, scheme, n_eta, out) for n_eta, scheme in runs],
        [n_ref ** 2] + [n_eta ** 2 for n_eta, _ in runs],
        ["reference run"] + [f"eta = {scheme.kernel.eta!r} run" for _, scheme in runs])

    rows = []
    for (_, scheme), (report, diagnostics) in zip(runs, results):
        rows.append({
            "eta": scheme.kernel.eta,
            "sup_time_l1_q_vs_ref": sup_time_l1(report, reference, window, compare="q"),
            "sup_time_l1_W_vs_ref": sup_time_l1(report, reference, window, compare="w"),
            "tv_W_max": float(np.max(report.tv_w_series)),
            "tv_q_final": float(report.tv_q_series[-1]),
            "wq_identity_gap": diagnostics["wq_identity_gap"],
        })

    columns = ([row[col] for row in rows] for col in SWEEP_COLUMNS)
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, [_rows(*columns)])
    return SweepResult(rows=tuple(rows), reference=reference,
                       reports=tuple(report for report, _ in results))


def perturbed_initial_field(q0: CellField, delta: float) -> CellField:
    """Add a compactly supported bump of L1-size ``delta`` to ``q0``, clipped
    so the perturbed datum stays inside [0, max q0]."""
    if not np.isfinite(delta):
        raise ConfigError(f"delta must be finite, got {delta}")
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
    return CellField(grid=grid, values=np.clip(q0.values + bump(u, amplitude), 0.0, hi))


def run_stability_probe(cfg: ExperimentConfig, delta: float, output_dir) -> float:
    """Rerun the first configured eta with a perturbed datum and report the
    sup-in-time L1 distance to the unperturbed run; writes probe.csv."""
    q0 = sample_profile(cfg.build_profile(), cfg.build_grid(cfg.n_cells))
    scheme = _scheme_for_eta(cfg, cfg.eta_list[0])
    perturbed_q0 = perturbed_initial_field(q0, delta)
    baseline, perturbed = _run_tasks(
        [functools.partial(_solve_named, q0, scheme, "baseline run: "),
         functools.partial(_solve_named, perturbed_q0, scheme, "perturbed run: ")],
        [q0.grid.n_cells ** 2] * 2, ["baseline run", "perturbed run"])
    distance = sup_time_l1(perturbed, baseline, cfg.window(), compare="q")
    _write_csv(Path(output_dir) / "probe.csv", ("delta", "sup_time_l1"),
               [_rows([delta], [distance])])
    return distance


def _discover_runs(out: Path, cfg: ExperimentConfig) -> list:
    """(label, snapshots, tv series, diagnostics) of each configured eta run
    under ``out``, the files relative to ``out``."""
    if not out.is_dir():
        raise ConfigError(f"output directory {out} does not exist")
    runs = [(name, f"{name}/snapshots.csv", f"{name}/tv_series.csv", f"{name}/diagnostics.csv")
            for name in map(eta_dirname, cfg.eta_list) if (out / name).is_dir()]
    missing = [str(out / rel) for run in runs for rel in run[1:] if not (out / rel).is_file()]
    if missing:
        raise ConfigError(f"missing CSV files: {', '.join(missing)}")
    if not runs:
        raise ConfigError(f"no per-eta CSV files found under {out}; run or sweep first")
    return runs


# plot script main()'s keyword -> its CSV when present, relative to the output directory
_OPTIONAL_CSVS = {"reference_tv": "reference/tv_series.csv",
                  "reference_snapshots": "reference/snapshots.csv",
                  "sweep": "sweep.csv", "probe": "probe.csv"}


def emit_plot_script(cfg: ExperimentConfig, output_dir) -> Path:
    """Write a self-contained matplotlib script rendering the emitted CSVs:
    the source of the package's ``plot_script`` module and one call of its
    ``main`` with the discovered CSVs.

    Regeneration is byte-for-byte deterministic; every discovered CSV is
    referenced exactly once in the script.
    """
    out = Path(output_dir)
    runs = "".join(f"\n            {run!r}," for run in _discover_runs(out, cfg))
    arguments = {field: rel if (out / rel).is_file() else None
                 for field, rel in _OPTIONAL_CSVS.items()}
    arguments["profile_time"] = min(0.5, cfg.t_end)
    call = "".join(f"\n        {name}={value!r}," for name, value in arguments.items())
    source = resources.files(__package__).joinpath("plot_script.py").read_text(encoding="utf-8")
    path = out / PLOT_SCRIPT_NAME
    with _replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'{source}\n\nif __name__ == "__main__":\n'
                 f"    main(\n        runs=[{runs}\n        ],{call}\n    )\n")
    return path
