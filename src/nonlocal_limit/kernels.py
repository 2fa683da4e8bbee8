"""Exact evaluation of the one-sided nonlocal average and its inverse.

Two kernel families are supported, both with a length scale ``eta``:

* exponential: W(x) = (1/eta) * integral_x^inf exp((x-y)/eta) q(y) dy
* constant:    W(x) = (1/eta) * integral_x^(x+eta) q(y) dy

Both are evaluated exactly at grid interfaces for piecewise-constant cell
data extended by the far-field states, in O(n_cells).  The exponential map is
invertible cell by cell; ``reconstruct_density`` is its exact left inverse.

Each average is built once per run as an operator on arrays
(``kernel_operator``) that writes W into a row its caller passes in; the
public functions taking fields wrap it and let it allocate.  Upstream
orientation (the average looking left instead of right) runs the downstream
operator on reversed views, which is the same as mirroring the field.  The
exponential recursion calls scipy's C routine behind ``lfilter`` directly.
The routine comes from ``scipy.signal._sigtools`` where something has
already imported it, else from that extension file loaded on its own, else
from ``lfilter`` itself; every source gives the same bits.  Unless it falls
back to ``lfilter``, the package never imports ``scipy.signal``, whose
``__init__`` costs about 1.2 s and 75 MB of resident memory (scipy 1.17 on a
2-core x86-64 host).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

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


@functools.cache
def _linear_filter():
    """scipy's C recursion behind ``lfilter``, as ``(b, a, x, axis, zi)`` ->
    ``(y, zf)``, found once per process.

    ``lfilter`` checks and converts its arguments on every call, about half
    of its cost on a 512-cell grid; the operator's coefficients are built
    once, so it calls the recursion directly.  The routine is taken from an
    already-imported ``scipy.signal._sigtools``, else from that extension
    file loaded alone, which runs neither ``scipy/__init__`` nor
    ``scipy/signal/__init__`` (about 530 modules, 1.2 s and 75 MB).  The name
    is private to scipy, so the routine must first reproduce lfilter's
    recursion on a probe; where it is missing or fails the probe,
    ``lfilter`` itself serves, with the same output.
    """
    try:
        routine = _sigtools()._linear_filter
        if _reproduces_recursion(routine):
            return routine
    except (ImportError, OSError, AttributeError, TypeError, ValueError):
        pass
    from scipy.signal import lfilter

    def linear_filter(b, a, x, axis, zi):
        return lfilter(b, a, x, axis=axis, zi=zi)
    return linear_filter


def _sigtools():
    """``scipy.signal._sigtools``, imported or loaded from its file alone."""
    name = "scipy.signal._sigtools"
    if name in sys.modules:
        return sys.modules[name]
    # find_spec of a top-level name locates the package without importing it
    signal_dir = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                              "signal")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(signal_dir, "_sigtools" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no _sigtools extension in {signal_dir}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    # a single-phase extension registers itself in sys.modules; left there
    # without its package, a later ``import scipy.signal`` would not bind it
    # as the package's attribute, so that import is left to load it as usual
    if sys.modules.get(name) is module:
        del sys.modules[name]
    return module


def _reproduces_recursion(linear_filter) -> bool:
    """Whether ``linear_filter`` runs the operator's call bit for bit as
    lfilter's evaluation order, ``y = alpha * y + b0 * x`` seeded by
    ``alpha * farfield``, on reversed values with a zero run."""
    alpha, farfield = 0.9, 0.4
    values = np.array([0.25, 1e-3, 0.7, 0.0, 0.0, 0.0, 0.3])
    b0 = 1.0 - alpha
    y, expected = farfield, []
    for x in values[::-1].tolist():
        y = alpha * y + b0 * x
        expected.append(y)
    filtered, _ = linear_filter(np.array([b0]), np.array([1.0, -alpha]), values[::-1], -1,
                                np.array([alpha * farfield]))
    return np.asarray(filtered).tobytes() == np.array(expected).tobytes()


def _exponential_operator(dx: float, n_cells: int, eta: float, farfield: float):
    """Downstream exponential average, exact at every interface.

    For piecewise-constant data the average satisfies the right-to-left
    recursion

        W[n-1/2] = right_farfield
        W[i-1/2] = (1 - alpha) * q_i + alpha * W[i+1/2],  alpha = exp(-dx/eta)

    which runs as a linear recurrence over the reversed cell values.  The
    seed is exact because the density is constant beyond x_max.
    """
    linear_filter = _linear_filter()
    alpha = _exponential_weight(dx, eta)
    numerator = np.array([1.0 - alpha])
    denominator = np.array([1.0, -alpha])
    initial = np.array([alpha * farfield])

    def apply(q: np.ndarray, w: np.ndarray):
        filtered, _ = linear_filter(numerator, denominator, q[::-1], -1, initial)
        w[-1] = farfield
        w[:-1] = filtered[::-1]

    return apply


def _constant_operator(dx: float, n_cells: int, eta: float, farfield: float):
    """Downstream constant-kernel average (1/eta) * integral over [x, x+eta].

    Exact for piecewise-constant data via prefix sums: from each interface
    the window covers some whole cells plus a fractional piece of one more,
    weighted by its exact sub-cell overlap.  Cells beyond x_max contribute
    the far-field value.
    """
    n = n_cells
    m = int(eta // dx)
    remainder = min(max(eta - float(m) * dx, 0.0), dx)
    # indices only matter up to one cell past the grid; the window beyond is
    # pure far-field and is accounted for by length, not by index
    m_eff = min(m, n + 1)
    # interface j covers the whole cells j .. min(j + m_eff, n) - 1; the first
    # n + 1 - m_eff windows end inside the grid, and the first n - m_eff of
    # those end on a fractional piece of cell j + m_eff
    whole_inside = n + 1 - m_eff
    fraction_inside = max(n - m_eff, 0) if m == m_eff else 0
    cells_covered = np.minimum(m_eff, n - np.arange(n + 1))
    farfield_sum = np.maximum((eta - remainder) - cells_covered * dx, 0.0) * farfield
    prefix = np.zeros(n + 1)
    fraction = np.full(n + 1, remainder * farfield)

    def apply(q: np.ndarray, w: np.ndarray):
        np.cumsum(q, out=prefix[1:])
        w[:whole_inside] = prefix[m_eff:]
        w[whole_inside:] = prefix[n]
        w -= prefix
        w *= dx
        w += farfield_sum
        np.multiply(q[m_eff:m_eff + fraction_inside], remainder,
                    out=fraction[:fraction_inside])
        w += fraction
        w /= eta

    return apply


def kernel_operator(spec: KernelSpec, grid: Grid1D):
    """The nonlocal average of ``spec`` on ``grid`` as a function of the cell
    values, built once per run.

    The returned ``evaluate(values, out=None)`` writes W into ``out``, an
    interface-length row the caller owns, or into a new array, and returns
    it.  Upstream orientation runs the downstream operator on reversed views
    of the values and of the output, seeded by the left far-field state.
    """
    downstream = spec.orientation == "downstream"
    build = _exponential_operator if spec.family == "exponential" else _constant_operator
    apply = build(grid.dx, grid.n_cells, spec.eta,
                  grid.right_farfield if downstream else grid.left_farfield)

    def evaluate(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        w = np.empty(grid.n_cells + 1) if out is None else out
        if downstream:
            apply(values, w)
        else:
            apply(values[::-1], w[::-1])
        return w

    return evaluate


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
