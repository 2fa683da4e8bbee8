"""Measured quantities: total variation, L1 metrics, residuals, identity gap.

All functions are pure and read-only over immutable fields and run reports.
Total variation always includes the seam jumps to the far-field states, so
window truncation cannot hide boundary variation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import CellField, InterfaceField, VelocityModel
from .kernels import nonlocal_exponential
from .report import RunReport

if TYPE_CHECKING:  # avoid an import cycle; FluxModel is only a type here
    from .local_reference import FluxModel

# A test function's time support must be covered by at least this many
# snapshot intervals for the space-time quadrature to be meaningful.
MIN_SNAPSHOTS_PER_SUPPORT = 50


@dataclass(frozen=True)
class Window:
    """Spatial window for localized L1 measurements."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"invalid window [{self.lo}, {self.hi}]")

    def check_inside(self, grid):
        """Raise ValueError unless the window lies in ``grid``'s domain, to 1e-12 of its span."""
        tol = 1e-12 * (grid.x_max - grid.x_min)
        if self.lo < grid.x_min - tol or self.hi > grid.x_max + tol:
            raise ValueError(f"window [{self.lo}, {self.hi}] must sit inside the grid "
                             f"domain [{grid.x_min}, {grid.x_max}]")


def bump(u, height=1.0):
    """``height * (1 - u**2) ** 3`` where |u| < 1, else 0."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) < 1.0, height * (1.0 - u**2) ** 3, 0.0)


@dataclass(frozen=True)
class TestFunction:
    """Separable polynomial bump amplitude * b(u_t) * b(u_x), b(u) = (1-u^2)^3,
    with u_t = (t - t_center) / t_radius and u_x = (x - x_center) / x_radius.

    C^2 with compact support ``support``, the rectangle (t_lo, t_hi, x_lo,
    x_hi) outside which it vanishes; the derivatives are exact closed forms.
    A quadrature builds the spatial factors once with ``spatial`` and takes
    phi's derivatives at each time from them with ``at``, phi itself with
    ``value``.
    """

    t_center: float
    t_radius: float
    x_center: float
    x_radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        values = (self.t_center, self.t_radius, self.x_center, self.x_radius, self.amplitude)
        if not (np.all(np.isfinite(values)) and self.t_radius > 0 and self.x_radius > 0):
            raise ValueError(
                "test function needs finite centres and amplitude and finite, "
                f"positive radii; got {self}"
            )

    @property
    def support(self) -> tuple[float, float, float, float]:
        return (self.t_center - self.t_radius, self.t_center + self.t_radius,
                self.x_center - self.x_radius, self.x_center + self.x_radius)

    @staticmethod
    def _db(u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) < 1.0, -6.0 * u * (1.0 - u**2) ** 2, 0.0)

    def spatial(self, x):
        """b(u_x) and b'(u_x) at ``x``."""
        u = (np.asarray(x) - self.x_center) / self.x_radius
        return bump(u), self._db(u)

    def _u_t(self, t):
        return (np.asarray(t) - self.t_center) / self.t_radius

    def value(self, t, bx):
        """phi at ``t`` from the spatial factor ``bx = self.spatial(x)[0]``."""
        return self.amplitude * bump(self._u_t(t)) * bx

    def at(self, t, bx, dbx):
        """dphi/dt and dphi/dx at ``t`` from the spatial factors
        ``bx, dbx = self.spatial(x)``."""
        u = self._u_t(t)
        return (self.amplitude / self.t_radius * self._db(u) * bx,
                self.amplitude / self.x_radius * bump(u) * dbx)

    def eval(self, t, x):
        return self.value(t, self.spatial(x)[0])

    def dt_eval(self, t, x):
        return self.at(t, *self.spatial(x))[0]

    def dx_eval(self, t, x):
        return self.at(t, *self.spatial(x))[1]


bump_test_function = TestFunction


def total_variation(field: CellField | InterfaceField) -> float:
    """Total variation of a stored field, far-field seam jumps included: the
    sum of the inner absolute jumps, then the left seam, then the right."""
    grid = field.grid
    jumps = np.abs(np.diff(np.concatenate([[grid.left_farfield], field.values,
                                           [grid.right_farfield]])))
    return float(jumps[1:-1].sum() + jumps[0] + jumps[-1])


def interface_to_cells(w: InterfaceField) -> CellField:
    """Restrict an interface field to cells using each cell's left interface.

    One-sided on purpose: the restriction error is first order in dx, which
    is the consistency order of everything downstream of it.
    """
    return CellField(grid=w.grid, values=w.values[:-1])


def _window_weights(grid, window: Window) -> np.ndarray:
    window.check_inside(grid)
    edges = grid.interfaces
    overlap = np.minimum(edges[1:], window.hi) - np.maximum(edges[:-1], window.lo)
    return np.maximum(overlap, 0.0)


def _coarsened(ga, gb, values: np.ndarray) -> np.ndarray:
    """The cell ``values`` on grid ``gb`` on grid ``ga``; ``gb`` may be an
    integer refinement, cell-averaged down."""
    span = ga.x_max - ga.x_min
    if abs(ga.x_min - gb.x_min) > 1e-12 * span or abs(ga.x_max - gb.x_max) > 1e-12 * span:
        raise ValueError("fields live on different domains")
    if gb.n_cells == ga.n_cells:
        return values
    if gb.n_cells % ga.n_cells == 0:
        factor = gb.n_cells // ga.n_cells
        return values.reshape(ga.n_cells, factor).mean(axis=-1)
    raise ValueError(
        f"grids are incompatible: {gb.n_cells} cells is not an integer "
        f"refinement of {ga.n_cells}"
    )


def _weighted_l1(weights: np.ndarray, a: np.ndarray, grid_a, b: CellField) -> float:
    """sum(weights * |a - b|), ``b`` cell-averaged down to ``grid_a``."""
    return float((weights * np.abs(a - _coarsened(grid_a, b.grid, b.values))).sum())


def l1_distance(a: CellField, b: CellField, window: Window) -> float:
    """L1 distance over ``window`` with exact fractional end-cell weights.

    ``b`` may live on an integer refinement of ``a``'s grid; it is then
    cell-averaged down before comparison.
    """
    return _weighted_l1(_window_weights(a.grid, window), a.values, a.grid, b)


def _paired_snapshots(report_a: RunReport, report_b: RunReport) -> list:
    if len(report_a.snapshots) != len(report_b.snapshots):
        raise ValueError(
            f"snapshot schedules differ: {len(report_a.snapshots)} vs "
            f"{len(report_b.snapshots)} snapshots"
        )
    slack = report_a.dt_used + report_b.dt_used + 1e-12
    for snap_a, snap_b in zip(report_a.snapshots, report_b.snapshots):
        if abs(snap_a.time - snap_b.time) > slack:
            raise ValueError(
                f"snapshot times diverge: {snap_a.time} vs {snap_b.time}"
            )
    return list(zip(report_a.snapshots, report_b.snapshots))


def sup_time_l1(report_a: RunReport, report_b: RunReport, window: Window,
                compare: str = "q") -> float:
    """Max-over-snapshots L1 window distance between two runs: the largest
    ``l1_distance`` of a snapshot pair, with its bits.

    ``compare="q"`` measures the densities of both runs; ``compare="w"``
    measures report_a's nonlocal term (restricted to cells) against
    report_b's density, which is how a nonlocal term is held against a local
    reference.
    """
    if compare not in ("q", "w"):
        raise ValueError(f"unknown comparison {compare!r}")
    pairs = _paired_snapshots(report_a, report_b)  # bad pairings are reported first
    if compare == "w" and any(snap_a.w is None for snap_a, _ in pairs):
        raise ValueError("report_a carries no nonlocal term to compare")
    grid = report_a.grid
    weights = _window_weights(grid, window)
    worst = 0.0  # folded from 0.0: a NaN pair L1 never replaces it
    for snap_a, snap_b in pairs:
        values_a = (snap_a.q.values if compare == "q"
                    else snap_a.w.values[:-1])  # interface_to_cells without the copy
        worst = max(worst, _weighted_l1(weights, values_a, grid, snap_b.q))
    return worst


def wq_identity_gap(q: CellField, w: InterfaceField, eta: float) -> float:
    """| ||W - q||_L1(domain) - eta * TV(W) | for a kernel output W.

    In the continuum the two sides agree exactly for the exponential kernel;
    the discrete gap is an O(dx/eta) restriction term.
    """
    l1 = float(q.grid.dx * np.sum(np.abs(w.values[:-1] - q.values)))
    return abs(l1 - eta * total_variation(w))


def _midpoint_cells(w_values: np.ndarray) -> np.ndarray:
    return 0.5 * (w_values[:-1] + w_values[1:])


def _check_snapshot_density(report: RunReport, t_lo: float, t_hi: float):
    t_lo = max(t_lo, 0.0)
    times = report.snapshot_times
    if times[0] > 1e-12:
        raise ValueError("weak-form quadrature needs an initial snapshot at t = 0")
    if times[-1] < t_hi - 1e-12:
        raise ValueError(
            f"snapshots end at t = {times[-1]:g} but the test function is "
            f"supported up to t = {t_hi:g}"
        )
    duration = t_hi - t_lo
    # only intervals meeting the support feed the quadrature
    overlapping = (times[1:] > t_lo) & (times[:-1] < t_hi)
    spacing = float(np.max(np.diff(times)[overlapping])) if np.any(overlapping) else 0.0
    if duration > 0 and spacing > duration / MIN_SNAPSHOTS_PER_SUPPORT + 1e-15:
        raise ValueError(
            f"snapshot spacing {spacing:g} is too coarse for a test function "
            f"supported over {duration:g}"
        )


def _residuals(report: RunReport, phi: TestFunction, velocity: VelocityModel | None,
               mode: str | None, flux: "FluxModel | None" = None,
               levels=()) -> tuple[float, list[float]]:
    """Midpoint-rule quadratures against ``phi`` in one pass over the
    report's snapshot pairs: the absolute weak residual with ``velocity`` in
    ``mode`` (no weak form without a velocity) and, with ``flux``, the
    signed Kruzhkov entropy residual at each of ``levels``.  phi's spatial
    factors are built once; its time factor, q_mid and f(q_mid) once per
    pair."""
    if velocity is not None and mode not in ("nonlocal", "local"):
        raise ValueError(f"unknown weak-form mode {mode!r}")
    if flux is not None and phi.amplitude < 0:
        raise ValueError("entropy residual requires a nonnegative test function")
    levels = [(k, float(flux.f(k))) for k in levels]  # each level with its f(k)
    t_lo, t_hi, _, _ = phi.support
    _check_snapshot_density(report, t_lo, t_hi)
    grid = report.grid
    bx, dbx = phi.spatial(grid.cell_centers)
    dx = grid.dx
    weak, entropy = 0.0, [0.0] * len(levels)
    snaps = report.snapshots
    for left, right in zip(snaps[:-1], snaps[1:]):
        dt = right.time - left.time
        t_mid = 0.5 * (left.time + right.time)
        if dt <= 0 or t_mid >= t_hi or t_mid <= t_lo:
            continue
        phi_t, phi_x = phi.at(t_mid, bx, dbx)
        q = 0.5 * (left.q.values + right.q.values)
        f_q = None if flux is None else flux.f(q)
        if mode == "nonlocal" and (left.w is None or right.w is None):
            raise ValueError("nonlocal weak form needs recorded nonlocal terms")
        if velocity is not None:
            speed = velocity.eval(q if mode == "local" else
                                  _midpoint_cells(0.5 * (left.w.values + right.w.values)))
            weak += dt * dx * float(np.sum(phi_t * q + phi_x * speed * q))
        for i, (k, f_k) in enumerate(levels):
            gap = q - k
            entropy[i] += dt * dx * float(np.sum(np.abs(gap) * phi_t
                                                 + np.sign(gap) * (f_q - f_k) * phi_x))
    phi_0, q0 = phi.value(0.0, bx), snaps[0].q.values
    return (abs(weak + dx * float(np.sum(phi_0 * q0))),
            [total + dx * float(np.sum(np.abs(q0 - k) * phi_0))
             for total, (k, _) in zip(entropy, levels)])


def weak_residual(report: RunReport, velocity: VelocityModel, mode: str,
                  phi: TestFunction) -> float:
    """Absolute space-time weak-form residual of a run against ``phi``.

    ``mode="nonlocal"`` uses the recorded nonlocal term in the flux velocity;
    ``mode="local"`` evaluates the velocity on the density itself.
    """
    return _residuals(report, phi, velocity, mode)[0]


def entropy_residual(report: RunReport, flux: "FluxModel", k: float,
                     phi: TestFunction) -> float:
    """Signed Kruzhkov-pair residual; admissibility requires it >= -tolerance.

    Quadrature of |q-k| dphi/dt + sgn(q-k)(f(q)-f(k)) dphi/dx plus the
    initial term with |q0-k|.  ``phi`` must be nonnegative.
    """
    return _residuals(report, phi, None, None, flux, (k,))[1][0]


def weak_and_entropy_residuals(report: RunReport, mode: str, flux: "FluxModel", levels,
                               phi: TestFunction) -> tuple[float, list]:
    """``weak_residual`` (with ``flux.velocity``) and ``entropy_residual`` at
    each of ``levels`` from one pass, each with the bits of its own call."""
    return _residuals(report, phi, flux.velocity, mode, flux, levels)


def transport_residual_w(report: RunReport, velocity: VelocityModel,
                         eta: float) -> float:
    """Residual of the transport equation satisfied by the nonlocal term.

    For downstream exponential runs the nonlocal term obeys

        dW/dt + V(W) dW/dx + (1/eta) * integral_x^inf exp((x-y)/eta)
                                        V'(W) dW/dy W dy = 0.

    The time derivative is a first-order forward difference between
    consecutive snapshots, the space derivative is centered on interior
    interfaces, and the source reuses the O(n) exponential recursion on the
    cell-centered composition V'(W) dW/dx W (which vanishes in the
    far-fields).  Returns the max over snapshot pairs of the spatial L1 norm.
    """
    snaps = report.snapshots
    if len(snaps) < 2:
        raise ValueError("transport residual needs at least two snapshots")
    grid = report.grid
    dx = grid.dx
    worst = 0.0
    source_grid = dataclasses.replace(grid, left_farfield=0.0, right_farfield=0.0)
    interior = slice(1, grid.n_cells)
    for left, right in zip(snaps[:-1], snaps[1:]):
        if left.w is None or right.w is None:
            raise ValueError("transport residual needs recorded nonlocal terms")
        dt = right.time - left.time
        if dt <= 0:
            continue
        w = left.w.values
        dw_dt = (right.w.values - left.w.values) / dt
        dw_dx = (w[2:] - w[:-2]) / (2.0 * dx)

        w_cells = _midpoint_cells(w)
        slope_cells = (w[1:] - w[:-1]) / dx
        g = velocity.deriv(w_cells) * slope_cells * w_cells
        source = nonlocal_exponential(CellField(grid=source_grid, values=g), eta)
        residual = (
            dw_dt[interior]
            + velocity.eval(w[interior]) * dw_dx
            + source.values[interior]
        )
        worst = max(worst, float(dx * np.sum(np.abs(residual))))
    return worst
