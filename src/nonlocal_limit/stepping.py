"""The one time-stepping driver behind both solvers.

A scheme is an interface flux (a ``native.Flux``): from the cell values
padded by the two far-field states, and for nonlocal schemes the current
nonlocal term, it gives the numerical flux at all n_cells + 1 interfaces.
This is the conservative form in which Friedrich, Kolb & Goettlich (NHM 13,
2018) write their nonlocal Godunov-type scheme.  A solver passes ``solve``
its flux and its CFL speed bound; the run set-up and the driver own the rest:
the time settings, the initial-data range, the frozen step, the update, the
per-step records, the boundary-flux integral, the snapshots and the blowup
check.  The step library advances a preallocated block of consecutive states
in one call; TV, mass and the extremes are then taken row by row, with the
bits of a per-step computation.  Every buffer belongs to one call, so runs
are safe to execute concurrently.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from . import native
from .core import CellField, InterfaceField, VelocityModel, data_range
from .diagnostics import total_variation_of
from .errors import ConfigError, NumericalBlowupError
from .report import RunReport, Snapshot

# Bytes of padded states per record block.  A step's records (TV of q and
# W, min, max) are about a dozen numpy calls, whose fixed cost is a large
# share of a step on a small grid; over a block it is paid once per block.
# The W block and the TV jumps take as much again each; from 16383 cells
# on, a block is one row.
_BLOCK_BYTES = 1 << 18


def check_time_settings(cfl: float, t_end: float, snapshot_times=()) -> np.ndarray:
    """Require cfl in (0, 1], a positive t_end and snapshot times strictly
    increasing within [0, t_end + 1e-12]; return them as a new float array."""
    if not (0.0 < cfl <= 1.0):
        raise ConfigError(f"cfl must lie in (0, 1], got {cfl}")
    if not (np.isfinite(t_end) and t_end > 0):
        raise ConfigError(f"t_end must be positive, got {t_end}")
    times = np.array(snapshot_times, dtype=float)
    if not np.all(np.diff(times) > 0):
        raise ConfigError("snapshot_times must be strictly increasing")
    if times.size and not (times[0] >= 0 and times[-1] <= t_end + 1e-12):
        raise ConfigError(f"snapshot_times must lie in [0, t_end], got [{times[0]}, {times[-1]}]")
    return times


def frozen_step(cfl: float, dx: float, speed: float, t_end: float) -> tuple[float, int]:
    """Time step cfl * dx / speed, shrunk so t_end is a whole number of
    steps, and that number; a speed bound of zero means stasis, one step of
    t_end.  Refuses a count whose records no array can index."""
    if speed == 0.0:
        return t_end, 1
    dt = cfl * dx / speed
    count = t_end / dt - 1e-9 if dt > 0 else math.inf  # dt can underflow to 0
    if not count < np.iinfo(np.intp).max - 1:  # n_steps + 1 records
        raise ConfigError(f"cfl = {cfl:g}, t_end = {t_end:g} and dt = {dt:g} need "
                          f"{count:.3g} steps, more than an array can index")
    n_steps = max(1, math.ceil(count))
    return t_end / n_steps, n_steps


def solve(q0: CellField, velocity: VelocityModel, speed: float, interface_flux,
          cfl: float, t_end: float, snapshot_times=(), nonlocal_term=None) -> RunReport:
    """Check the time settings and that ``q0``, far-fields included, lies in
    ``velocity``'s admissible range, freeze dt from ``speed``, the scheme's
    bound on its wave speeds, and ``integrate`` to t_end."""
    times = check_time_settings(cfl, t_end, snapshot_times)
    velocity.check_admissible(data_range(q0), "initial data")
    dt, n_steps = frozen_step(cfl, q0.grid.dx, speed, t_end)
    return integrate(q0, interface_flux, dt, n_steps, times, nonlocal_term)


def _block_rows(n_cells: int) -> int:
    """Rows of a record block: as many padded states as fit in the byte
    budget, at least one."""
    return max(1, _BLOCK_BYTES // (8 * (n_cells + 2)))


def _padded_rows(rows: int, width: int, left: float, right: float) -> np.ndarray:
    """An uninitialised (rows, width + 2) block whose first and last columns
    hold the far-field states: the seams of TV, and for q the flux's inflow."""
    block = np.empty((rows, width + 2))
    block[:, 0] = left
    block[:, -1] = right
    return block


def integrate(q0: CellField, interface_flux: native.Flux, dt: float, n_steps: int,
              snapshot_times=(), nonlocal_term: native.Average | None = None) -> RunReport:
    """Integrate ``n_steps`` conservative steps of size ``dt`` from ``q0``.

    ``nonlocal_term``, the kernel average of an upwind flux, is evaluated at
    every step, the last included.  TV, mass and the q extremes are recorded
    every step (TV(W) too when W exists), and each requested snapshot at the
    completed step nearest its time; requests that land on one step share
    one Snapshot.  Each library call advances one block; its last step
    writes row 0 of the other of two blocks, which the next call advances.
    """
    grid = q0.grid
    left, right = grid.left_farfield, grid.right_farfield
    n = grid.n_cells
    if (nonlocal_term is None) != (interface_flux.scheme == native.GODUNOV) or (
            nonlocal_term is not None and nonlocal_term.n != n):
        raise ValueError("an upwind flux needs the kernel average of its grid, "
                         "the Godunov flux none")
    rows = min(_block_rows(n), n_steps + 1)
    q_blocks = [_padded_rows(rows, n, left, right) for _ in range(2)]
    q_blocks[0][0, 1:-1] = q0.values
    w_block = _padded_rows(rows, n + 1, left, right) if nonlocal_term is not None else None
    fluxes, scratch = np.empty(n + 1), np.empty(n + 2)
    times = np.asarray(snapshot_times, dtype=float)
    steps = (np.clip(np.rint(times / dt).astype(int), 0, n_steps) if times.size
             else [n_steps])
    wanted = np.bincount(steps, minlength=n_steps + 1).tolist()

    snapshots: list[Snapshot] = []
    tv_q = np.empty(n_steps + 1)
    tv_w = np.empty(n_steps + 1) if nonlocal_term is not None else None
    mass = np.empty(n_steps + 1)
    q_min = np.inf
    q_max = -np.inf
    status = native.Status()
    schemes = (ctypes.byref(interface_flux),
               None if nonlocal_term is None else ctypes.byref(nonlocal_term))
    w_data = None if w_block is None else w_block.ctypes.data
    first = 0  # the step held in row 0 of the block
    # the records of finite states can still overflow; the blowup check is the
    # library's, on every update
    with np.errstate(over="ignore", invalid="ignore"):
        for block_index in range(n_steps // rows + 1):
            q_block, next_block = q_blocks[block_index % 2], q_blocks[1 - block_index % 2]
            count = min(rows, n_steps + 1 - first)
            last = first + count - 1
            updates = count - (last == n_steps)
            done = native.lib.nl_advance(*schemes, n, q_block.ctypes.data, w_data, count, updates,
                                         next_block.ctypes.data, fluxes.ctypes.data,
                                         scratch.ctypes.data, dt / grid.dx, dt,
                                         ctypes.byref(status))
            if done < updates:
                if status.error == 1:
                    raise interface_flux.violation(status.extreme)
                step = first + done + 1
                raise NumericalBlowupError(
                    f"non-finite density after step {step} (t = {step * dt:g})", step=step)
            block = q_block[:count, 1:-1]
            total_variation_of(q_block[:count], out=tv_q[first:last + 1])
            np.multiply(grid.dx, block.sum(axis=1), out=mass[first:last + 1])
            q_min = min(q_min, float(block.min()))
            q_max = max(q_max, float(block.max()))
            if w_block is not None:
                total_variation_of(w_block[:count], out=tv_w[first:last + 1])
            for row, step in enumerate(range(first, last + 1)):
                if wanted[step]:
                    w = w_block[row, 1:-1] if w_block is not None else None
                    snap = Snapshot(time=step * dt, q=CellField(grid=grid, values=block[row]),
                                    w=None if w is None else InterfaceField(grid=grid, values=w))
                    snapshots.extend([snap] * wanted[step])
            first = last + 1

    return RunReport(
        dt_used=dt,
        n_steps=n_steps,
        snapshots=tuple(snapshots),
        tv_q_series=tv_q,
        tv_w_series=tv_w,
        mass_series=mass,
        boundary_flux_integral=status.boundary,
        q_min_overall=q_min,
        q_max_overall=q_max,
    )
