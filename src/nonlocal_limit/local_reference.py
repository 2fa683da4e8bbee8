"""Godunov-scheme reference for the local conservation law.

The monotone Godunov flux makes this solver TV-diminishing with an exact
discrete maximum principle, so it serves as the entropy-solution target that
the nonlocal runs are measured against on refined grids.  The scheme is its
interface flux; the shared driver in ``stepping`` runs it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import CellField, VelocityModel
from .report import RunReport
from .stepping import frozen_step, integrate

_GOLDEN_TOL = 1e-12
_UNIMODAL_SAMPLES = 2001
_RANGE_SLACK = 1e-12


def _golden_section_max(f, lo: float, hi: float, tol: float = _GOLDEN_TOL) -> float:
    """Argmax of a unimodal f on [lo, hi] to absolute tolerance ``tol``."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _validate_unimodal(f, s_range: tuple[float, float], s_star: float):
    s = np.linspace(*s_range, _UNIMODAL_SAMPLES)
    values = np.asarray(f(s), dtype=float)
    slack = _RANGE_SLACK * max(1.0, float(np.max(np.abs(values))))
    rising = s[:-1] < s_star
    diffs = np.diff(values)
    if np.any(diffs[rising] < -slack) or np.any(diffs[~rising] > slack):
        raise ValueError(
            "flux is not unimodal on the admissible range; only velocity "
            "models with single-peaked flux s -> V(s)*s are supported"
        )


def critical_density(velocity: VelocityModel) -> float:
    """Density maximizing the flux V(s)*s on the admissible range.

    Golden-section search to 1e-12 absolute; validates unimodality of the
    flux by sampling and raises on failure.
    """

    def f(s):
        return velocity.eval(s) * np.asarray(s, dtype=float)

    s_star = _golden_section_max(f, *velocity.admissible_range)
    _validate_unimodal(f, velocity.admissible_range, s_star)
    return s_star


@dataclass(frozen=True)
class FluxModel:
    """Flux f(s) = V(s)*s with its precomputed critical density."""

    velocity: VelocityModel
    critical_density: float = dataclasses.field(init=False, default=np.nan)

    def __post_init__(self):
        object.__setattr__(self, "critical_density", critical_density(self.velocity))

    def f(self, s):
        return self.velocity.eval(s) * np.asarray(s, dtype=float)

    def max_wave_speed(self) -> float:
        """Largest |f'| on the admissible range (sampled)."""
        s = np.linspace(*self.velocity.admissible_range, _UNIMODAL_SAMPLES)
        f_prime = self.velocity.eval(s) + s * self.velocity.deriv(s)
        return float(np.max(np.abs(f_prime)))


def _check_in_range(values, flux: FluxModel, what: str):
    arr = np.asarray(values, dtype=float)
    lo, hi = float(np.min(arr)), float(np.max(arr))
    if not flux.velocity.covers(lo, hi):
        s_min, s_max = flux.velocity.admissible_range
        raise ValueError(
            f"{what} leaves the admissible range [{s_min}, {s_max}]: [{lo:g}, {hi:g}]"
        )


def _godunov_select(a, b, f_a, f_b, s_star: float, f_star: float, out: np.ndarray):
    """Godunov flux between states a and b from their flux values.

    Closed form from the critical density: the minimum of a unimodal f over
    [a, b] sits at an endpoint, the maximum over [b, a] at an endpoint or at
    the critical density.
    """
    np.maximum(f_a, f_b, out=out)
    np.copyto(out, f_star, where=(b <= s_star) & (s_star <= a))
    np.copyto(out, np.minimum(f_a, f_b), where=a <= b)
    return out


def godunov_flux(a, b, flux: FluxModel):
    """Entropy-consistent interface flux between left state a and right state b.

    Accepts scalars or arrays.
    """
    _check_in_range(a, flux, "left state")
    _check_in_range(b, flux, "right state")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    s_star = flux.critical_density
    result = _godunov_select(a, b, flux.f(a), flux.f(b), s_star, float(flux.f(s_star)),
                             np.empty(np.broadcast(a, b).shape))
    if np.ndim(result) == 0:
        return float(result)
    return result


def _godunov_interface_flux(flux: FluxModel):
    """The Godunov scheme as an interface flux: f is evaluated once per step
    on the padded states, f(s*) once per run."""
    s_star = flux.critical_density
    f_star = float(flux.f(s_star))

    def interface_flux(states: np.ndarray, w, out: np.ndarray):
        f_states = flux.f(states)
        _godunov_select(states[:-1], states[1:], f_states[:-1], f_states[1:],
                        s_star, f_star, out)

    return interface_flux


def solve_local(q0: CellField, flux: FluxModel, cfl: float, t_end: float,
                snapshot_times=()) -> RunReport:
    """Godunov integration of the local law; same report contract as the
    nonlocal solver with the nonlocal-term fields omitted."""
    if not (0.0 < cfl <= 1.0):
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    if not (np.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    grid = q0.grid
    _check_in_range(q0.values, flux, "initial data")
    _check_in_range([grid.left_farfield, grid.right_farfield], flux, "far-field state")

    dt = frozen_step(cfl, grid.dx, flux.max_wave_speed(), t_end)
    n_steps = max(1, int(round(t_end / dt)))
    return integrate(q0, _godunov_interface_flux(flux), dt, n_steps, snapshot_times)
