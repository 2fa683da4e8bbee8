"""Godunov-scheme reference for the local conservation law.

The monotone Godunov flux makes this solver TV-diminishing with an exact
discrete maximum principle, so it serves as the entropy-solution target that
the nonlocal runs are measured against on refined grids.  The scheme is its
interface flux and its speed bound max|f'|; ``stepping`` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import native
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


def _scheme(flux: FluxModel) -> native.Flux:
    """The Godunov flux of ``flux`` for the step library, f(s*) evaluated once."""
    return native.Flux.godunov(flux.velocity, float(flux.f(flux.velocity.critical_density)))


def godunov_flux(a, b, flux: FluxModel):
    """Entropy-consistent interface flux between left state a and right state b.

    Accepts scalars or arrays.
    """
    flux.velocity.check_admissible(a, "left state")
    flux.velocity.check_admissible(b, "right state")
    a, b = (np.array(x, dtype=float, order="C") for x in np.broadcast_arrays(a, b))
    result = _scheme(flux).select(a, b, np.asarray(flux.f(a)), np.asarray(flux.f(b)))
    return float(result) if result.ndim == 0 else result


def solve_local(q0: CellField, flux: FluxModel, cfl: float, t_end: float,
                snapshot_times=()) -> RunReport:
    """Godunov integration of the local law, dt bounded by max|f'|; the
    nonlocal solver's report with the nonlocal-term fields omitted."""
    return solve(q0, flux.velocity, flux.velocity.max_wave_speed,
                 _scheme(flux), cfl, t_end, snapshot_times)
