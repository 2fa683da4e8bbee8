"""Domain geometry, density fields, piecewise-constant profiles and velocity models.

Everything here is immutable after construction (frozen dataclasses, read-only
arrays) so instances can be shared freely across concurrent runs.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import native


def _as_readonly_array(values, *, name: str, length: int | None = None) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell partition of [x_min, x_max] with constant far-field states.

    Cell i occupies [x_min + i*dx, x_min + (i+1)*dx); interface i+1/2 sits at
    x_min + (i+1)*dx.  The far-field values are the constant continuation of
    the density outside the truncated window.
    """

    x_min: float
    x_max: float
    n_cells: int
    left_farfield: float = 0.0
    right_farfield: float = 0.0

    def __post_init__(self):
        x_min, x_max = float(self.x_min), float(self.x_max)  # floats: no numpy warning
        if not x_min < x_max:
            raise ValueError(f"grid.x_min must be < grid.x_max, got [{x_min}, {x_max}]")
        if not math.isfinite(x_max - x_min):
            raise ValueError(f"grid.x_max - grid.x_min overflows, got [{x_min}, {x_max}]")
        # a cell centre is half the sum of two edges: finite doubled bounds keep it finite
        if not (math.isfinite(2.0 * x_min) and math.isfinite(2.0 * x_max)):
            raise ValueError(f"grid cell centres overflow, got [{x_min}, {x_max}]; the "
                             f"bounds must lie within +-{np.finfo(float).max / 2:g}")
        if not isinstance(self.n_cells, (int, np.integer)) or isinstance(self.n_cells, bool):
            raise ValueError(f"grid.n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 2:
            raise ValueError(f"grid.n_cells must be >= 2, got {self.n_cells}")
        if not (np.isfinite(self.left_farfield) and np.isfinite(self.right_farfield)):
            raise ValueError("grid far-field values must be finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def interfaces(self) -> np.ndarray:
        """Positions of the n_cells + 1 interfaces, interface -1/2 first."""
        return np.linspace(self.x_min, self.x_max, self.n_cells + 1)

    @property
    def cell_centers(self) -> np.ndarray:
        edges = self.interfaces
        return 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True)
class CellField:
    """Cell-averaged density values on a Grid1D at one time instant."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "values",
            _as_readonly_array(self.values, name="cell values", length=self.grid.n_cells),
        )


@dataclass(frozen=True)
class InterfaceField:
    """Values sampled at the n_cells + 1 interfaces of a Grid1D.

    Houses nonlocal-term samples; when produced from a density field by a
    unit-mass kernel the values lie between the extremes of that density
    (far-fields included).
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "values",
            _as_readonly_array(
                self.values, name="interface values", length=self.grid.n_cells + 1
            ),
        )


@dataclass(frozen=True)
class PiecewiseConstantProfile:
    """A piecewise-constant function on the real line.

    ``levels`` has one more entry than ``breakpoints`` and covers the pieces
    (-inf, b1), [b1, b2), ..., [bk, inf).  Levels are nonnegative, matching
    the admissible initial data of the model.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp = _as_readonly_array(self.breakpoints, name="profile.breakpoints")
        lv = _as_readonly_array(self.levels, name="profile.levels")
        if lv.shape[0] != bp.shape[0] + 1:
            raise ValueError(f"profile.levels needs {bp.shape[0] + 1} entries (one more "
                             f"than breakpoints), got {lv.shape[0]}")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("profile.breakpoints must be strictly increasing")
        if np.any(lv < 0):
            i = int(np.argmax(lv < 0))
            raise ValueError(f"profile.levels[{i}] must be nonnegative, got {float(lv[i])}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def value_at(self, x) -> np.ndarray:
        """Pointwise evaluation (right-continuous at breakpoints)."""
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=float), side="right")
        return self.levels[idx]

    def antiderivative(self, x) -> np.ndarray:
        """Exact antiderivative, anchored so that it vanishes at the first
        breakpoint (at 0 for a constant profile)."""
        x = np.asarray(x, dtype=float)
        bp, lv = self.breakpoints, self.levels
        if bp.shape[0] == 0:
            return lv[0] * x
        # integral accumulated at each breakpoint, starting from bp[0]
        seg = lv[1:-1] * np.diff(bp)
        accum = np.concatenate([[0.0], np.cumsum(seg)])
        idx = np.searchsorted(bp, x, side="right")
        anchor = bp[np.maximum(idx - 1, 0)]
        base = accum[np.maximum(idx - 1, 0)]
        return base + self.levels[idx] * (x - anchor)

    def cell_averages(self, edges: np.ndarray) -> np.ndarray:
        """Exact averages over the cells delimited by ``edges``.

        Clamped to the level extremes: the true averages lie there, and the
        clamp removes the cancellation noise of differencing the
        antiderivative on fine grids.
        """
        integral = self.antiderivative(edges)
        averages = np.diff(integral) / np.diff(edges)
        return np.clip(averages, np.min(self.levels), np.max(self.levels))


# family -> (mode, max |V|, s*, max |f'|) in closed form from params (v, s_max)
_CONSTANTS = {
    "linear": lambda v, s_max: ("decreasing", v, s_max / 2.0, v),
    "quadratic": lambda v, s_max: ("decreasing", v, s_max / math.sqrt(3.0), 2.0 * v),
    "linear_increasing": lambda v, s_max: ("increasing", v, s_max / 2.0, v),
    "constant": lambda value, s_max: ("decreasing" if value >= 0 else "increasing",
                                      abs(value), s_max, abs(value)),
}


@dataclass(frozen=True)
class VelocityModel:
    """Velocity law V of a family in ``native.VELOCITY_FAMILIES`` and its
    ``params``, two real numbers and no bool: (v_max, s_max) with v_max >= 0,
    or (value, s_max) for the constant family.  Everything else is derived
    from these two.

    The admissible range is [0, s_max].  ``mode`` is V's monotonicity on it:
    "decreasing" (the default modelling assumption, pairs with the
    downstream kernel orientation) or "increasing" (pairs with upstream).
    ``max_abs_speed`` is max |V|, ``critical_density`` the density s* at the
    extremum of the flux f(s) = V(s)*s (its maximum for a decreasing V, its
    minimum for an increasing one) and ``max_wave_speed`` max |f'|, each in
    closed form from ``_CONSTANTS``.
    """

    family: str
    params: tuple[float, float]

    def __post_init__(self):
        if self.family not in native.VELOCITY_FAMILIES:
            raise ValueError(f"velocity family must be one of {native.VELOCITY_FAMILIES}, "
                             f"got {self.family!r}")
        params = self.params if isinstance(self.params, (tuple, list)) else (self.params,)
        if len(params) != 2 or not all(isinstance(p, numbers.Real) and not isinstance(p, bool)
                                       for p in params):
            raise ValueError("velocity params must be 2 real numbers (v_max or value, s_max), "
                             f"got {len(params)}: {self.params!r}")
        object.__setattr__(self, "params", tuple(params))  # a list would be mutable, unhashable
        if self.family != "constant" and self.params[0] < 0:
            raise ValueError(f"velocity.v_max must be >= 0, got {self.params[0]}")
        s_min, s_max = self.admissible_range
        if not (np.isfinite(s_min) and np.isfinite(s_max) and s_min < s_max):
            raise ValueError(f"invalid admissible_range [{s_min}, {s_max}]")
        # V and V' of every family are monotone, so finite at both range ends
        # means finite on the range; parameters out of float range give an
        # inf or a NaN here, which the check reports instead of numpy
        with np.errstate(all="ignore"):
            ends = [float(g(s)) for g in (self.eval, self.deriv) for s in (s_min, s_max)]
        if not np.all(np.isfinite(ends)):
            raise ValueError("velocity model is non-finite on the admissible range")

    admissible_range = property(lambda self: (0.0, self.params[1]))
    mode = property(lambda self: _CONSTANTS[self.family](*self.params)[0])
    max_abs_speed = property(lambda self: _CONSTANTS[self.family](*self.params)[1])
    critical_density = property(lambda self: _CONSTANTS[self.family](*self.params)[2])
    max_wave_speed = property(lambda self: _CONSTANTS[self.family](*self.params)[3])

    def eval(self, s):
        """V(s) by the step library's routine; a 0-d input gives a scalar."""
        s = np.asarray(s, dtype=float, order="C")
        out = np.empty(s.shape)
        native.lib.nl_velocity(native.VELOCITY_FAMILIES.index(self.family), *self.params,
                               s.ctypes.data, out.ctypes.data, s.size)
        return out if out.ndim else out[()]

    def deriv(self, s):
        """V'(s)."""
        s, (v, s_max) = np.asarray(s, dtype=float), self.params
        if self.family == "quadratic":
            return -2.0 * v * s / s_max**2
        return np.full_like(s, {"linear": -v / s_max, "linear_increasing": v / s_max,
                                "constant": 0.0}[self.family])

    def check_admissible(self, values, what: str):
        """Raise ValueError unless every entry of ``values`` lies in the
        admissible range, up to a rounding-level slack (NaN never does);
        ``what`` names the values in the message."""
        lo, hi = float(np.min(values)), float(np.max(values))
        s_min, s_max = self.admissible_range
        slack = 1e-12 * max(1.0, abs(s_min), abs(s_max))
        if not (s_min - slack <= lo and hi <= s_max + slack):
            raise ValueError(
                f"{what} [{lo:g}, {hi:g}] leaves the admissible range [{s_min}, {s_max}]"
            )


def linear_velocity(v_max: float = 1.0, s_max: float = 1.0) -> VelocityModel:
    """V(s) = v_max * (1 - s/s_max) on [0, s_max]; the default model.  Its
    flux is concave, largest at s_max/2; |f'| is largest, v_max, at both ends."""
    return VelocityModel("linear", (v_max, s_max))


def constant_velocity(value: float, s_max: float = 1.0) -> VelocityModel:
    """V identically ``value``; the nonlocal coupling is inert.  The mode
    follows the sign of ``value``: a negative one pairs with upstream kernels.
    The flux value * s is monotone, so its extremum in the mode's sense sits
    at s_max; |f'| = |value|."""
    return VelocityModel("constant", (value, s_max))


def quadratic_velocity(v_max: float = 1.0, s_max: float = 1.0) -> VelocityModel:
    """V(s) = v_max * (1 - (s/s_max)^2) on [0, s_max].  Its flux is concave,
    largest at s_max/sqrt(3); |f'| = v_max |1 - 3(s/s_max)^2| peaks, 2 v_max,
    at s_max."""
    return VelocityModel("quadratic", (v_max, s_max))


def linear_increasing_velocity(v_max: float = 1.0, s_max: float = 1.0) -> VelocityModel:
    """V(s) = v_max * (s/s_max - 1) on [0, s_max]; pairs with upstream kernels.
    Its flux is convex, smallest at s_max/2; |f'| is largest, v_max, at both ends."""
    return VelocityModel("linear_increasing", (v_max, s_max))


def default_datum_profile() -> PiecewiseConstantProfile:
    """The reference three-jump datum: 1/2 on (0, 1/3), 0 on (1/3, 2/3), 1 beyond 2/3."""
    return PiecewiseConstantProfile(
        breakpoints=np.array([0.0, 1.0 / 3.0, 2.0 / 3.0]),
        levels=np.array([0.0, 0.5, 0.0, 1.0]),
    )


def sample_profile(profile: PiecewiseConstantProfile, grid: Grid1D) -> CellField:
    """Cell-average ``profile`` onto ``grid``.

    The resulting field lives on a copy of ``grid`` whose far-field states are
    the profile's outermost levels, so the truncation is exact for data that
    are constant outside the window.
    """
    sampled_grid = dataclasses.replace(
        grid,
        left_farfield=float(profile.levels[0]),
        right_farfield=float(profile.levels[-1]),
    )
    return CellField(grid=sampled_grid, values=profile.cell_averages(grid.interfaces))


def data_range(q: CellField) -> tuple[float, float]:
    """[min, max] of the cell values and both far-field states."""
    grid = q.grid
    lo = min(float(np.min(q.values)), grid.left_farfield, grid.right_farfield)
    hi = max(float(np.max(q.values)), grid.left_farfield, grid.right_farfield)
    return lo, hi


def total_mass(q: CellField) -> float:
    """Mass dx * sum(q) inside the truncated window only."""
    return float(q.grid.dx * np.sum(q.values))
