"""Exact evaluation of the one-sided nonlocal average and its inverse.

Two kernel families are supported, both with a length scale ``eta``:

* exponential: W(x) = (1/eta) * integral_x^inf exp((x-y)/eta) q(y) dy
* constant:    W(x) = (1/eta) * integral_x^(x+eta) q(y) dy

Both are evaluated exactly at grid interfaces for piecewise-constant cell
data extended by the far-field states, in O(n_cells).  The exponential map is
invertible cell by cell; ``reconstruct_density`` is its exact left inverse.

Each average is built once per run as an operator on arrays
(``kernel_operator``) that returns W as a new row; the public functions
taking fields wrap it.  The operator describes the average to the step
library (``native``), whose routine the solver's steps run too: a
``native.Average`` of parameters only, which owns no array, so that any
number of runs and threads may share one.  Upstream
orientation (the average looking left instead of right) runs the downstream
loop mirrored, which is the same as mirroring the field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import native
from .core import CellField, Grid1D, InterfaceField
from .errors import ConfigError

KERNEL_FAMILIES = ("exponential", "constant")
ORIENTATIONS = ("downstream", "upstream")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, length scale and orientation.

    Downstream (the average looks right) pairs with a decreasing velocity
    model, upstream (looks left) with an increasing one; ``check_pairing``
    enforces this wherever kernel and velocity meet.
    """

    family: str
    eta: float
    orientation: str = "downstream"

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"unknown kernel orientation {self.orientation!r}")
        _require_positive_eta(self.eta)


def check_pairing(orientation: str, velocity_mode: str):
    """Require the velocity monotonicity that the kernel orientation pairs with."""
    wanted = {"downstream": "decreasing", "upstream": "increasing"}[orientation]
    if velocity_mode != wanted:
        raise ConfigError(
            f"kernel.orientation {orientation!r} requires velocity mode "
            f"{wanted!r}, got {velocity_mode!r}"
        )


def _require_positive_eta(eta: float):
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")


def _exponential_weight(dx: float, eta: float) -> float:
    return float(np.exp(-dx / eta))  # alpha, the exponential kernel's weight across a cell


def _exponential_operator(average: native.Average):
    """Downstream exponential average, exact at every interface.

    For piecewise-constant data the average satisfies the right-to-left
    recursion

        W[n-1/2] = right_farfield
        W[i-1/2] = (1 - alpha) * q_i + alpha * W[i+1/2],  alpha = exp(-dx/eta)

    seeded exactly because the density is constant beyond x_max; the step
    library runs it in lfilter's order.
    """
    average.kernel = native.EXPONENTIAL
    average.alpha = _exponential_weight(average.dx, average.eta)


def _constant_operator(average: native.Average):
    """Downstream constant-kernel average (1/eta) * integral over [x, x+eta].

    Exact for piecewise-constant data via prefix sums: from each interface
    the window covers m whole cells plus a fractional piece of one more,
    weighted by its exact sub-cell overlap.  Cells beyond x_max contribute
    the far-field value.
    """
    m = average.eta // average.dx  # a float, infinite where eta / dx overflows
    average.remainder = min(max(average.eta - m * average.dx, 0.0), average.dx)
    # indices only matter up to one cell past the grid; the window beyond is
    # pure far-field and is accounted for by length, not by index
    average.m = int(min(m, average.n + 1))
    average.kernel = native.CONSTANT


def kernel_operator(spec: KernelSpec, grid: Grid1D) -> native.Average:
    """The nonlocal average of ``spec`` on ``grid`` as a function of the cell
    values, built once per run.

    The returned ``native.Average``, called on the cell values, returns W at
    the interfaces as a new array.  Upstream orientation runs the downstream
    operator mirrored, seeded by the left far-field state.
    """
    downstream = spec.orientation == "downstream"
    average = native.Average(upstream=not downstream, n=grid.n_cells, dx=grid.dx, eta=spec.eta,
                             farfield=grid.right_farfield if downstream else grid.left_farfield)
    (_exponential_operator if spec.family == "exponential" else _constant_operator)(average)
    return average


def nonlocal_term(q: CellField, spec: KernelSpec) -> InterfaceField:
    """Evaluate the nonlocal average described by ``spec`` on ``q``."""
    return InterfaceField(grid=q.grid, values=kernel_operator(spec, q.grid)(q.values))


def nonlocal_exponential(q: CellField, eta: float) -> InterfaceField:
    """Downstream exponential average of ``q``, exact at every interface."""
    return nonlocal_term(q, KernelSpec("exponential", eta))


def nonlocal_constant(q: CellField, eta: float) -> InterfaceField:
    """Downstream constant-kernel average of ``q``, exact at every interface."""
    return nonlocal_term(q, KernelSpec("constant", eta))


def reconstruct_density(w: InterfaceField, eta: float) -> CellField:
    """Exact left inverse of ``nonlocal_exponential``.

    Inverts the interface recursion cell by cell:

        q_i = (W[i-1/2] - alpha * W[i+1/2]) / (1 - alpha)

    which is the discrete form of the derivative identity
    eta * dW/dx = W - q.
    """
    _require_positive_eta(eta)
    grid = w.grid
    alpha = _exponential_weight(grid.dx, eta)
    if alpha == 1.0:
        raise ValueError(
            f"reconstruction is ill-conditioned: dx/eta = {grid.dx / eta:g} "
            "is below floating-point resolution"
        )
    values = (w.values[:-1] - alpha * w.values[1:]) / (1.0 - alpha)
    return CellField(grid=grid, values=values)
