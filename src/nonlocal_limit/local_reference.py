"""Godunov-scheme reference for the local conservation law.

The monotone Godunov flux makes this solver TV-diminishing with an exact
discrete maximum principle, so it serves as the entropy-solution target that
the nonlocal runs are measured against on refined grids.  The scheme is its
interface flux and its speed bound max|f'|; ``stepping`` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CellField, VelocityModel
from .report import RunReport
from .stepping import solve


@dataclass(frozen=True)
class FluxModel:
    """Flux f(s) = V(s)*s; its critical density and largest |f'| are its
    velocity's."""

    velocity: VelocityModel

    def f(self, s):
        return self.velocity.eval(s) * np.asarray(s, dtype=float)


def _godunov_select(a, b, f_a, f_b, s_star: float, f_star: float, out: np.ndarray):
    """Godunov flux between states a and b from their flux values, for a flux
    whose extremum at the critical density is a maximum.

    Closed form from the critical density: the minimum of a unimodal f over
    [a, b] sits at an endpoint, the maximum over [b, a] at an endpoint or at
    the critical density.
    """
    np.maximum(f_a, f_b, out=out)
    np.copyto(out, f_star, where=(b <= s_star) & (s_star <= a))
    # putmask, not a masked minimum: a ufunc's where= pays per run of its
    # mask, and a <= b flips at hundreds of interfaces per step on noisy data
    np.putmask(out, a <= b, np.minimum(f_a, f_b))
    return out


def _godunov(a, b, f_a, f_b, flux: FluxModel, f_star: float, out: np.ndarray):
    """Godunov flux for either flux shape: a flux with a minimum (increasing V)
    is the mirror image F_f(a, b) = -F_{-f}(b, a) of one with a maximum."""
    s_star = flux.velocity.critical_density
    if flux.velocity.mode == "decreasing":
        return _godunov_select(a, b, f_a, f_b, s_star, f_star, out)
    _godunov_select(b, a, -f_b, -f_a, s_star, -f_star, out)
    return np.negative(out, out=out)


def godunov_flux(a, b, flux: FluxModel):
    """Entropy-consistent interface flux between left state a and right state b.

    Accepts scalars or arrays.
    """
    flux.velocity.check_admissible(a, "left state")
    flux.velocity.check_admissible(b, "right state")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    f_star = float(flux.f(flux.velocity.critical_density))
    result = _godunov(a, b, flux.f(a), flux.f(b), flux, f_star, np.empty(np.broadcast(a, b).shape))
    if np.ndim(result) == 0:
        return float(result)
    return result


def _godunov_interface_flux(flux: FluxModel):
    """The Godunov scheme as an interface flux: f is evaluated once per step
    on the padded states, f(s*) once per run."""
    f_star = float(flux.f(flux.velocity.critical_density))

    def interface_flux(states: np.ndarray, w, out: np.ndarray):
        f_states = flux.f(states)
        _godunov(states[:-1], states[1:], f_states[:-1], f_states[1:], flux, f_star, out)

    return interface_flux


def solve_local(q0: CellField, flux: FluxModel, cfl: float, t_end: float,
                snapshot_times=()) -> RunReport:
    """Godunov integration of the local law, dt bounded by max|f'|; the
    nonlocal solver's report with the nonlocal-term fields omitted."""
    return solve(q0, flux.velocity, flux.velocity.max_wave_speed,
                 _godunov_interface_flux(flux), cfl, t_end, snapshot_times)
