"""The compiled step bodies against a numpy oracle.

The oracle is the numpy step code the compiled library replaced: the
velocity laws, the upwind flux with its sign check, the Godunov select, the
exponential average through ``scipy.signal.lfilter`` and the constant
kernel's prefix sums, driven one step at a time with per-step records.  Every
field of every report must equal the oracle's bit for bit.
"""

import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy._core import _multiarray_umath
from scipy.signal import lfilter

import nonlocal_limit.stepping as stepping
from nonlocal_limit import (
    CellField,
    FluxModel,
    Grid1D,
    InterfaceField,
    KernelSpec,
    ModeViolationError,
    NonlocalSchemeConfig,
    NumericalBlowupError,
    PiecewiseConstantProfile,
    RunReport,
    Snapshot,
    constant_velocity,
    godunov_flux,
    linear_increasing_velocity,
    linear_velocity,
    native,
    quadratic_velocity,
    sample_profile,
    solve_local,
    solve_nonlocal,
)
from nonlocal_limit.kernels import kernel_operator, nonlocal_term
from nonlocal_limit.local_reference import _scheme
from nonlocal_limit.nonlocal_solver import _SIGN_SLACK, _upwind_flux

SMALLEST_NORMAL = 2.2250738585072014e-308


# --- the oracle ------------------------------------------------------------

def oracle_speed(velocity, s):
    """V(s) as numpy evaluated it, skipping the exact * 1.0 and / 1.0."""
    v, s_max = velocity.params
    s = np.asarray(s, dtype=float)
    over = s if s_max == 1.0 else s / s_max
    times = (lambda y: y) if v == 1.0 else (lambda y: v * y)
    if velocity.family == "linear":
        return times(1.0 - over)
    if velocity.family == "quadratic":
        return times(1.0 - over ** 2)
    if velocity.family == "linear_increasing":
        return times(over - 1.0)
    return np.full_like(s, v)


def oracle_select(a, b, f_a, f_b, s_star, f_star, out):
    """Godunov flux of a flux whose extremum at s_star is a maximum."""
    np.maximum(f_a, f_b, out=out)
    np.copyto(out, f_star, where=(b <= s_star) & (s_star <= a))
    np.putmask(out, a <= b, np.minimum(f_a, f_b))
    return out


def oracle_godunov(a, b, f_a, f_b, velocity, f_star, out):
    """Either flux shape: one with a minimum is the mirror image of one with a maximum."""
    s_star = velocity.critical_density
    if velocity.mode == "decreasing":
        return oracle_select(a, b, f_a, f_b, s_star, f_star, out)
    oracle_select(b, a, -f_b, -f_a, s_star, -f_star, out)
    return np.negative(out, out=out)


def oracle_godunov_flux(velocity):
    f = lambda s: oracle_speed(velocity, s) * np.asarray(s, dtype=float)  # noqa: E731
    f_star = float(f(velocity.critical_density))

    def interface_flux(states, w, out):
        f_states = f(states)
        oracle_godunov(states[:-1], states[1:], f_states[:-1], f_states[1:], velocity, f_star,
                       out)

    return interface_flux


def oracle_upwind_flux(cfg):
    """V(W) * q from the upwind cell; the sign check by numpy's reductions."""
    slack = _SIGN_SLACK * max(1.0, cfg.velocity.max_abs_speed)
    downstream = cfg.kernel.orientation == "downstream"
    reduce, sign = (np.minimum.reduce, 1.0) if downstream else (np.maximum.reduce, -1.0)
    moved = "fell to {:g} < 0" if downstream else "rose to {:g} > 0"

    def interface_flux(states, w, out):
        speeds = oracle_speed(cfg.velocity, w)
        extreme = reduce(speeds)
        if sign * extreme < -slack:
            raise ModeViolationError(f"flux velocity {moved.format(float(extreme))} in "
                                     f"{cfg.kernel.orientation} mode; kernel orientation "
                                     "and velocity model are mispaired")
        np.multiply(speeds, states[:-1] if downstream else states[1:], out=out)

    return interface_flux


def oracle_exponential(dx, n, eta, farfield):
    """The recursion through the public lfilter."""
    alpha = float(np.exp(-dx / eta))

    def apply(q, w):
        filtered, _ = lfilter(np.array([1.0 - alpha]), np.array([1.0, -alpha]), q[::-1],
                              zi=np.array([alpha * farfield]))
        w[-1] = farfield
        w[:-1] = filtered[::-1]

    return apply


def oracle_constant(dx, n, eta, farfield):
    """Prefix sums by np.cumsum, then the window's far-field and fractional parts."""
    m = eta // dx  # a float, infinite where eta / dx overflows
    remainder = min(max(eta - m * dx, 0.0), dx)
    m_eff = int(min(m, n + 1))
    whole_inside = n + 1 - m_eff
    fraction_inside = max(n - m_eff, 0) if m == m_eff else 0
    cells_covered = np.minimum(m_eff, n - np.arange(n + 1))
    farfield_sum = np.maximum((eta - remainder) - cells_covered * dx, 0.0) * farfield
    prefix = np.zeros(n + 1)
    fraction = np.full(n + 1, remainder * farfield)

    def apply(q, w):
        np.cumsum(q, out=prefix[1:])
        w[:whole_inside] = prefix[m_eff:]
        w[whole_inside:] = prefix[n]
        w -= prefix
        w *= dx
        w += farfield_sum
        np.multiply(q[m_eff:m_eff + fraction_inside], remainder, out=fraction[:fraction_inside])
        w += fraction
        w /= eta

    return apply


def oracle_average(spec, grid):
    """The average on reversed views for the upstream orientation."""
    downstream = spec.orientation == "downstream"
    build = oracle_exponential if spec.family == "exponential" else oracle_constant
    apply = build(grid.dx, grid.n_cells, spec.eta,
                  grid.right_farfield if downstream else grid.left_farfield)

    def evaluate(values, out):
        if downstream:
            apply(values, out)
        else:
            apply(values[::-1], out[::-1])
        return out

    return evaluate


def oracle_total_variation(padded):
    """The sum of a padded row's inner absolute jumps, then its two seams."""
    jumps = np.abs(np.subtract(padded[1:], padded[:-1]))
    return jumps[1:-1].sum() + jumps[0] + jumps[-1]


def oracle_extremes(values, q_min, q_max):
    """The running extremes folded in index order, a value replacing one only
    when beyond it: of equal values (zeros of both signs) the first is kept.
    numpy's own min and max settle such ties by their reduction order."""
    low, high = values.min(), values.max()
    if low < q_min:
        q_min = float(values[values == low][0])
    if high > q_max:
        q_max = float(values[values == high][0])
    return q_min, q_max


def oracle_integrate(q0, interface_flux, dt, n_steps, snapshot_times=(), nonlocal_term=None):
    """One step at a time, every record taken on its own step."""
    grid = q0.grid
    n, dx = grid.n_cells, grid.dx
    states = np.concatenate([[grid.left_farfield], q0.values, [grid.right_farfield]])
    w_padded = np.concatenate([[grid.left_farfield], np.empty(n + 1), [grid.right_farfield]])
    fluxes = np.empty(n + 1)
    times = np.asarray(snapshot_times, dtype=float)
    steps = (np.clip(np.rint(times / dt).astype(int), 0, n_steps) if times.size
             else [n_steps])
    wanted = np.bincount(steps, minlength=n_steps + 1)
    tv_q, tv_w, mass = (np.empty(n_steps + 1) for _ in range(3))
    snapshots, boundary_flux, q_min, q_max = [], 0.0, np.inf, -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps + 1):
            values = states[1:-1]
            w = None
            if nonlocal_term is not None:
                w = nonlocal_term(values, w_padded[1:-1])
                tv_w[step] = oracle_total_variation(w_padded)
            tv_q[step] = oracle_total_variation(states)
            mass[step] = dx * float(np.add.reduce(values))
            q_min, q_max = oracle_extremes(values, q_min, q_max)
            if wanted[step]:
                snap = Snapshot(time=step * dt, q=CellField(grid=grid, values=values),
                                w=None if w is None else InterfaceField(grid=grid, values=w))
                snapshots.extend([snap] * int(wanted[step]))
            if step == n_steps:
                break
            interface_flux(states, w, fluxes)
            boundary_flux += dt * (fluxes[-1] - fluxes[0])
            states[1:-1] = values - (fluxes[1:] - fluxes[:-1]) * (dt / dx)
            if not np.all(np.isfinite(states)):
                raise NumericalBlowupError(
                    f"non-finite density after step {step + 1} (t = {(step + 1) * dt:g})",
                    step=step + 1)
    return RunReport(dt_used=dt, n_steps=n_steps, snapshots=tuple(snapshots), tv_q_series=tv_q,
                     tv_w_series=None if nonlocal_term is None else tv_w, mass_series=mass,
                     boundary_flux_integral=boundary_flux, q_min_overall=q_min,
                     q_max_overall=q_max)


def oracle_nonlocal(q0, cfg):
    dt, n_steps = stepping.frozen_step(cfg.cfl, q0.grid.dx, cfg.velocity.max_abs_speed,
                                       cfg.t_end)
    return oracle_integrate(q0, oracle_upwind_flux(cfg), dt, n_steps, cfg.snapshot_times,
                            oracle_average(cfg.kernel, q0.grid))


def oracle_local(q0, velocity, cfl, t_end, snapshot_times):
    dt, n_steps = stepping.frozen_step(cfl, q0.grid.dx, velocity.max_wave_speed, t_end)
    return oracle_integrate(q0, oracle_godunov_flux(velocity), dt, n_steps, snapshot_times)


# --- the comparisons -------------------------------------------------------

def assert_same_bits(got, expected):
    for name in ("dt_used", "n_steps", "tv_q_series", "tv_w_series", "mass_series",
                 "boundary_flux_integral", "q_min_overall", "q_max_overall"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    assert len(got.snapshots) == len(expected.snapshots)
    for a, b in zip(got.snapshots, expected.snapshots):
        assert a.time == b.time
        assert a.q.values.tobytes() == b.q.values.tobytes()
        assert (a.w is None) == (b.w is None)
        if a.w is not None:
            assert a.w.values.tobytes() == b.w.values.tobytes()


VELOCITIES = {
    "linear": linear_velocity(),
    "linear_scaled": linear_velocity(1.3, 0.8),
    "quadratic": quadratic_velocity(0.9, 1.0),
    "constant": constant_velocity(0.7),
    "linear_increasing": linear_increasing_velocity(),
    "constant_negative": constant_velocity(-0.7),
    "linear_increasing_scaled": linear_increasing_velocity(0.6, 2.0),
}


def seeded_field(n_cells, seed=47, levels_scale=1.0):
    rng = np.random.default_rng(seed)
    profile = PiecewiseConstantProfile(breakpoints=np.sort(rng.uniform(-0.5, 1.0, 3)),
                                       levels=rng.uniform(0.05, 0.75, 4) * levels_scale)
    return sample_profile(profile, Grid1D(-1.0, 2.0, n_cells))


def vacuum_field(n_cells):
    """Vacuum around two tiny plateaus: the states and their averages reach
    subnormal values within a few steps."""
    profile = PiecewiseConstantProfile(breakpoints=np.array([0.0, 0.4, 0.9]),
                                       levels=np.array([0.0, 3e-308, 0.0, 1e-307]))
    return sample_profile(profile, Grid1D(-1.0, 2.0, n_cells))


def horizon(n_cells):
    # a few dozen steps on the one-row 16385-cell grid, hundreds elsewhere
    return 0.01 if n_cells > 10_000 else 0.4


@pytest.mark.parametrize("n_cells", [2, 3, 1024, 16385])
@pytest.mark.parametrize("family", ["exponential", "constant"])
@pytest.mark.parametrize("velocity", list(VELOCITIES))
def test_nonlocal_run_equals_the_oracle(n_cells, family, velocity):
    v = VELOCITIES[velocity]
    orientation = "downstream" if v.mode == "decreasing" else "upstream"
    t_end = horizon(n_cells)
    q0 = seeded_field(n_cells, levels_scale=v.admissible_range[1])
    dx = q0.grid.dx
    # then windows of exactly 3 cells, and of n and n + 1 whole cells and a
    # piece, which reach past the grid from every interface
    for eta in (0.05, 0.0007, 3 * dx, (n_cells + 0.5) * dx, (n_cells + 1.5) * dx):
        cfg = NonlocalSchemeConfig(kernel=KernelSpec(family, eta, orientation), velocity=v,
                                   cfl=0.5, t_end=t_end,
                                   snapshot_times=np.array([0.0, t_end / 3, t_end]))
        assert_same_bits(solve_nonlocal(q0, cfg), oracle_nonlocal(q0, cfg))


@pytest.mark.parametrize("n_cells", [2, 3, 1024, 16385])
@pytest.mark.parametrize("velocity", list(VELOCITIES))
def test_godunov_run_equals_the_oracle(n_cells, velocity):
    v = VELOCITIES[velocity]
    t_end = horizon(n_cells)
    q0 = seeded_field(n_cells, levels_scale=v.admissible_range[1])
    times = [0.0, t_end / 2, t_end]
    assert_same_bits(solve_local(q0, FluxModel(velocity=v), 0.5, t_end, times),
                     oracle_local(q0, v, 0.5, t_end, times))


@pytest.mark.parametrize("family", ["exponential", "constant"])
@pytest.mark.parametrize("velocity", ["linear", "linear_increasing"])
def test_vacuum_datum_reaches_subnormals_with_the_oracles_bits(family, velocity):
    v = VELOCITIES[velocity]
    orientation = "downstream" if v.mode == "decreasing" else "upstream"
    q0 = vacuum_field(300)
    cfg = NonlocalSchemeConfig(kernel=KernelSpec(family, 0.05, orientation), velocity=v,
                               cfl=0.5, t_end=0.5, snapshot_times=np.array([0.1, 0.5]))
    report = solve_nonlocal(q0, cfg)
    assert_same_bits(report, oracle_nonlocal(q0, cfg))
    local = solve_local(q0, FluxModel(velocity=v), 0.5, 0.5, [0.1, 0.5])
    assert_same_bits(local, oracle_local(q0, v, 0.5, 0.5, [0.1, 0.5]))
    for values in (report.snapshots[-1].q.values, report.snapshots[-1].w.values,
                   local.snapshots[-1].q.values):
        assert np.any((values > 0) & (values < SMALLEST_NORMAL))



@pytest.mark.parametrize("orientation", ["downstream", "upstream"])
def test_constant_window_of_overflowing_cell_count_equals_the_oracle(orientation):
    # eta / dx overflows to inf: every window is the grid's cells ahead and
    # far field for the rest of its length
    grid = Grid1D(0.0, 1e-300, 4, left_farfield=0.25, right_farfield=0.75)
    q = CellField(grid=grid, values=np.array([0.5, 0.0, -0.0, 1.0]))
    spec = KernelSpec("constant", 1e10, orientation)
    expected = oracle_average(spec, grid)(q.values, np.empty(5))
    assert nonlocal_term(q, spec).values.tobytes() == expected.tobytes()

def run_both(solver, q0, t_end, times):
    """The report of ``solver`` (a kernel family, or "local" for the
    Godunov scheme) and the oracle's, on the linear velocity at cfl 0.5."""
    v = VELOCITIES["linear"]
    if solver == "local":
        return (solve_local(q0, FluxModel(velocity=v), 0.5, t_end, times),
                oracle_local(q0, v, 0.5, t_end, times))
    cfg = NonlocalSchemeConfig(kernel=KernelSpec(solver, 0.05), velocity=v, cfl=0.5,
                               t_end=t_end, snapshot_times=times)
    return solve_nonlocal(q0, cfg), oracle_nonlocal(q0, cfg)


def rough_field(n_cells, seed=5):
    """Random cells between far-field states unlike the end cells, so that
    every TV record has two nonzero seams."""
    rng = np.random.default_rng(seed)
    return CellField(grid=Grid1D(-1.0, 2.0, n_cells, left_farfield=0.02, right_farfield=0.9),
                     values=rng.uniform(0.1, 0.8, n_cells))


@pytest.mark.parametrize("n_cells", [7, 8, 9, 127, 128, 129, 136, 137, 255, 256, 257])
@pytest.mark.parametrize("solver", ["exponential", "constant", "local"])
@pytest.mark.parametrize("datum", [seeded_field, rough_field])
def test_records_across_the_pairwise_thresholds_equal_the_oracle(n_cells, solver, datum):
    # numpy sums below 8 values in a loop, up to 128 in 8 accumulators and
    # splits longer sums; the mass sums n values, TV(q) n - 1 inner jumps
    # and TV(W) n, then the two seams
    assert_same_bits(*run_both(solver, datum(n_cells), 0.2, [0.0, 0.1, 0.2]))


@pytest.mark.parametrize("n_cells", [5, 300])
@pytest.mark.parametrize("solver", ["exponential", "local"])
def test_vacuum_of_negative_zeros_has_mass_plus_zero(n_cells, solver):
    # numpy's sum of -0.0 values is +0.0: its reduction starts from 0.0
    grid = Grid1D(-1.0, 2.0, n_cells)
    q0 = CellField(grid=grid, values=np.full(n_cells, -0.0))
    report, expected = run_both(solver, q0, 0.1, [0.0, 0.1])
    assert_same_bits(report, expected)
    assert np.signbit(report.snapshots[-1].q.values).any()
    assert not np.signbit(report.mass_series).any()


LANES = 32  # steps.c folds the q extremes in this many lanes, the rest in order


def signed_zero_data(n_cells, first):
    """Two data whose extreme is a zero of both signs, the first zero by
    index of sign ``first`` and the others of the other sign.  Positive cells
    (far fields 0.5) whose first zero lies in a later lane than the others:
    it in the last lane of the first block, they in lane 0 of each later
    block and in the tail.  An all-zero vacuum (far fields 0) whose cell 0
    alone has the sign ``first``."""
    other = -first
    positive = np.full(n_cells, 0.5)
    at = min(LANES - 1, n_cells - 2)
    positive[at] = first
    positive[[at + 1, n_cells - 1]] = other
    positive[LANES::LANES] = other
    vacuum = np.full(n_cells, other)
    vacuum[0] = first
    return (CellField(grid=Grid1D(-1.0, 2.0, n_cells, 0.5, 0.5), values=positive),
            CellField(grid=Grid1D(-1.0, 2.0, n_cells, 0.0, 0.0), values=vacuum))


@pytest.mark.parametrize("n_cells", [31, 32, 33, 64, 65, 8193])
@pytest.mark.parametrize("first", [0.0, -0.0])
@pytest.mark.parametrize("solver", ["exponential", "local"])
def test_zero_extremes_keep_the_first_zeros_sign(n_cells, first, solver):
    # of equal values the running extremes keep the first, so a zero
    # minimum or maximum has the sign of the first zero whichever lane of
    # the library's folds holds it
    positive, vacuum = signed_zero_data(n_cells, first)
    t_end = 6 * positive.grid.dx / 2
    for q0, extreme in ((positive, "q_min_overall"), (vacuum, "q_max_overall")):
        report, expected = run_both(solver, q0, t_end, [0.0, t_end])
        assert_same_bits(report, expected)
        assert np.float64(getattr(report, extreme)).tobytes() == np.float64(first).tobytes()


TILE = int(re.search(r"enum \{ TILE = (\d+) \};", native.SOURCE.read_text())[1])


def last_tile(n_cells):
    """The first interface of the last of the step's tiles on n_cells cells:
    tiles of TILE interfaces, the last running to interface n_cells."""
    a = 0
    while a + TILE < n_cells:
        a += TILE
    return a


# grids of one tile (TILE - 1 and TILE cells), of two and of three, the
# last tile of two interfaces
TILE_EDGES = sorted({max(n, 2) for n in (TILE - 1, TILE, TILE + 1, 2 * TILE + 1)})
SEVERAL_TILES = [n for n in TILE_EDGES if last_tile(n) > 0]


@pytest.mark.parametrize("n_cells", TILE_EDGES)
@pytest.mark.parametrize("solver", ["exponential", "constant", "local"])
@pytest.mark.parametrize("velocity", ["linear", "linear_increasing"])
def test_runs_across_the_tile_edges_equal_the_oracle(n_cells, solver, velocity):
    # each tile's fluxes, update, jumps and extremes, and the seams between
    # tiles; both orientations of both kernels, and the Godunov flux of a
    # flux with a maximum and one with a minimum
    v = VELOCITIES[velocity]
    q0 = rough_field(n_cells)
    t_end = 12 * q0.grid.dx  # 24 steps
    times = [0.0, t_end / 2, t_end]
    if solver == "local":
        assert_same_bits(solve_local(q0, FluxModel(velocity=v), 0.5, t_end, times),
                         oracle_local(q0, v, 0.5, t_end, times))
        return
    orientation = "downstream" if v.mode == "decreasing" else "upstream"
    for eta in (0.05, 0.0007):
        cfg = NonlocalSchemeConfig(kernel=KernelSpec(solver, eta, orientation), velocity=v,
                                   cfl=0.5, t_end=t_end, snapshot_times=np.array(times))
        assert_same_bits(solve_nonlocal(q0, cfg), oracle_nonlocal(q0, cfg))


def jam_field(n_cells):
    """Cells at 0.5 before a right far field at 1.0: a jam ahead of a
    downstream flow, a dense inflow into an upstream one.  The last cells
    overshoot 1 by the fourth step at dt = 1.5 dx, and V(W) takes the wrong
    sign only at the grid's right end."""
    return CellField(grid=Grid1D(-1.0, 2.0, n_cells, left_farfield=0.5, right_farfield=1.0),
                     values=np.full(n_cells, 0.5))


def jam_scheme(velocity, grid):
    """The upwind scheme of ``velocity`` on ``grid`` with an exponential
    kernel of eta = dx / 10, and the oracle's, the kernel oriented as the
    velocity needs; its config last."""
    v = VELOCITIES[velocity]
    orientation = "downstream" if v.mode == "decreasing" else "upstream"
    cfg = NonlocalSchemeConfig(kernel=KernelSpec("exponential", grid.dx / 10, orientation),
                               velocity=v, cfl=1.0, t_end=1.0)
    return (_upwind_flux(cfg), kernel_operator(cfg.kernel, grid), oracle_upwind_flux(cfg),
            oracle_average(cfg.kernel, grid), cfg)


@pytest.mark.parametrize("n_cells", SEVERAL_TILES)
@pytest.mark.parametrize("velocity", ["linear", "linear_increasing"])
def test_mode_violation_in_the_last_tile_has_the_oracles_message(n_cells, velocity):
    # the library updates the earlier tiles in place before it reaches the
    # wrong-signed interface; it must still stop with the oracle's error at
    # the oracle's step
    q0 = jam_field(n_cells)
    flux, average, oracle_flux, oracle_term, cfg = jam_scheme(velocity, q0.grid)
    dt = 1.5 * q0.grid.dx
    seen = []

    def recorded(states, w, out):
        seen.append(w.copy())
        oracle_flux(states, w, out)

    with pytest.raises(ModeViolationError) as expected:
        oracle_integrate(q0, recorded, dt, 400, [], oracle_term)
    sign = 1.0 if cfg.kernel.orientation == "downstream" else -1.0
    wrong = np.flatnonzero(sign * oracle_speed(cfg.velocity, seen[-1]) < -_SIGN_SLACK)
    assert len(seen) > 1 and wrong.min() >= last_tile(n_cells)
    times = [(len(seen) - 2) * dt]  # a library call that ends on the step before
    with pytest.raises(ModeViolationError) as got:
        stepping.integrate(q0, flux, dt, 400, times, average)
    assert str(got.value) == str(expected.value)


def blowup_field(n_cells):
    """Cells at 0.4, the left far field's state, with a jump to 0.6 at cell
    n_cells - 2, in the last tile.  At constant speed 0.7 and dt = 6 dx the
    upwind and Godunov fluxes both take q from the left, so the cells before
    the jump keep 0.4 while the oscillation behind it grows to overflow."""
    values = np.full(n_cells, 0.4)
    values[-2:] = 0.6
    return CellField(grid=Grid1D(-1.0, 2.0, n_cells, 0.4, 0.6), values=values)


def blowup_scheme(solver, grid):
    """The Godunov or upwind scheme of constant speed 0.7 and the oracle's."""
    v = VELOCITIES["constant"]
    if solver == "local":
        return _scheme(FluxModel(velocity=v)), None, oracle_godunov_flux(v), None
    cfg = NonlocalSchemeConfig(kernel=KernelSpec(solver, 0.05), velocity=v, cfl=1.0, t_end=1.0)
    return (_upwind_flux(cfg), kernel_operator(cfg.kernel, grid), oracle_upwind_flux(cfg),
            oracle_average(cfg.kernel, grid))


@pytest.mark.parametrize("n_cells", SEVERAL_TILES)
@pytest.mark.parametrize("solver", ["exponential", "local"])
def test_blowup_in_a_later_tile_has_the_oracles_step(n_cells, solver):
    q0 = blowup_field(n_cells)
    flux, average, oracle_flux, oracle_term = blowup_scheme(solver, q0.grid)
    dt = 6 * q0.grid.dx
    with pytest.raises(NumericalBlowupError) as expected:
        oracle_integrate(q0, oracle_flux, dt, 2000, [], oracle_term)
    before = oracle_integrate(q0, oracle_flux, dt, expected.value.step - 1, [], oracle_term)
    assert np.all(before.snapshots[-1].q.values[:-2] == 0.4)
    with pytest.raises(NumericalBlowupError) as got:
        stepping.integrate(q0, flux, dt, 2000, [], average)
    assert got.value.step == expected.value.step > 1
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("failure, scheme", [("blowup", "local"), ("blowup", "exponential"),
                                             ("violation", "linear"),
                                             ("violation", "linear_increasing")])
def test_a_failed_step_leaves_the_extremes_and_records_as_they_were(failure, scheme):
    # the library's own contract, below stepping.integrate, which raises at
    # once: the failed step has updated q tile by tile, but the extremes and
    # the record series are those of the step before it.  ``scheme`` is the
    # solver of a blowup and the velocity of a mode violation.
    n = 2 * TILE + 1
    if failure == "blowup":
        q0 = blowup_field(n)
        flux, average, oracle_flux, oracle_term = blowup_scheme(scheme, q0.grid)
        dt, error, kind = 6 * q0.grid.dx, NumericalBlowupError, 2
    else:
        q0 = jam_field(n)
        flux, average, oracle_flux, oracle_term, _ = jam_scheme(scheme, q0.grid)
        dt, error, kind = 1.5 * q0.grid.dx, ModeViolationError, 1
    failed = 0

    def counted(states, w, out):
        nonlocal failed
        failed += 1
        oracle_flux(states, w, out)

    with pytest.raises(error):
        oracle_integrate(q0, counted, dt, 2000, [], oracle_term)
    expected = oracle_integrate(q0, oracle_flux, dt, failed - 1, [], oracle_term)
    # rows and series as stepping.integrate lays them out, the series NaN
    grid = q0.grid
    q = np.concatenate([[grid.left_farfield], q0.values, [grid.right_farfield]])
    w = None if average is None else np.concatenate([[grid.left_farfield], np.empty(n + 1),
                                                     [grid.right_farfield]])
    series = {name: np.full(2001, np.nan) for name in ("tv_q", "tv_w", "mass")}
    arrays = (q, w, series["tv_q"], series["tv_w"], series["mass"], np.empty(n + 1),
              np.empty(n + 2), None if w is None else np.empty(n + 3))
    run = native.Run(ctypes.addressof(flux), None if average is None else ctypes.addressof(average),
                     n, grid.dx, dt, *(None if a is None else a.ctypes.data for a in arrays),
                     q_min=np.inf, q_max=-np.inf)
    assert native.lib.nl_advance(ctypes.byref(run), 0, 0) == 0
    assert native.lib.nl_advance(ctypes.byref(run), 0, 2000) == failed - 1
    assert run.error == kind
    for name in ("q_min", "q_max"):
        assert (np.float64(getattr(run, name)).tobytes()
                == np.float64(getattr(expected, name + "_overall")).tobytes()), name
    for name, got in series.items():
        if name == "tv_w" and average is None:
            continue
        assert got[:failed].tobytes() == getattr(expected, name + "_series").tobytes(), name
        assert np.isnan(got[failed:]).all(), name


@pytest.mark.parametrize("n_cells", [n for n in TILE_EDGES if last_tile(n) >= 2])
@pytest.mark.parametrize("first", [0.0, -0.0])
@pytest.mark.parametrize("solver", ["exponential", "local"])
def test_zero_extremes_across_a_tile_edge_keep_the_first_zeros_sign(n_cells, first, solver):
    # the tiles fold their extremes in index order: a zero minimum in the
    # last cell of one tile is kept against zeros of the other sign in the
    # next tile's first cell and in the grid's last cell
    values = np.full(n_cells, 0.5)
    edge = last_tile(n_cells) - 1  # the last tile's first cell
    values[edge - 1] = first
    values[[edge, -1]] = -first
    q0 = CellField(grid=Grid1D(-1.0, 2.0, n_cells, 0.5, 0.5), values=values)
    t_end = 6 * q0.grid.dx / 2
    report, expected = run_both(solver, q0, t_end, [0.0, t_end])
    assert_same_bits(report, expected)
    assert np.float64(report.q_min_overall).tobytes() == np.float64(first).tobytes()


SKEW = int(re.search(r"enum \{ SKEW = (\d+) \};", native.SOURCE.read_text())[1])
# grids of one two-step tile (SKEW - 1 and SKEW cells), of two and of
# three, the last tile of 2 interfaces, and of three with a last tile of
# SKEW / 2 + 1
SKEW_EDGES = [SKEW - 1, SKEW, SKEW + 1, 2 * SKEW + 1, 2 * SKEW + SKEW // 2]


def library_run(q0, flux, average, dt, n_steps):
    """A ``native.Run`` laid out as ``stepping.integrate`` lays it out, its
    record series NaN, and its q and W rows; step 0 is not yet recorded and
    W not yet set."""
    grid, n = q0.grid, q0.grid.n_cells
    q = np.concatenate([[grid.left_farfield], q0.values, [grid.right_farfield]])
    w = np.concatenate([[grid.left_farfield], np.empty(n + 1), [grid.right_farfield]])
    series = {name: np.full(n_steps + 1, np.nan) for name in ("tv_q", "tv_w", "mass")}
    arrays = (q, w, series["tv_q"], series["tv_w"], series["mass"], np.empty(n + 1),
              np.empty(n + 2), np.empty(n + 3))
    run = native.Run(ctypes.addressof(flux), ctypes.addressof(average), n, grid.dx, dt,
                     *(a.ctypes.data for a in arrays), q_min=np.inf, q_max=-np.inf)
    run.held = (flux, average, arrays)  # the run holds only their addresses
    return run, series, q, w


@pytest.mark.parametrize("n_cells", SKEW_EDGES)
@pytest.mark.parametrize("velocity", ["linear", "linear_increasing"])
def test_two_step_passes_across_the_skews_tile_edges_equal_the_oracle(n_cells, velocity):
    # each tile's two steps, the seams between tiles and the drain, in both
    # orientations of the exponential kernel: snapshot stops 1, 2, 4 and 5
    # steps apart (an odd count makes one step alone first, one step only
    # the one-step path), a run of 13 steps in one call, and step 0 alone
    v = VELOCITIES[velocity]
    orientation = "downstream" if v.mode == "decreasing" else "upstream"
    q0 = rough_field(n_cells)
    dt = q0.grid.dx / 2
    for eta in (0.05, 0.0007):
        for n_steps, stops in ((12, [0, 1, 3, 7, 12]), (13, [13]), (12, [0])):
            cfg = NonlocalSchemeConfig(kernel=KernelSpec("exponential", eta, orientation),
                                       velocity=v, cfl=0.5, t_end=n_steps * dt,
                                       snapshot_times=np.array(stops) * dt)
            assert_same_bits(solve_nonlocal(q0, cfg), oracle_nonlocal(q0, cfg))


def filled_run(q0, flux, average, dt, stops, fill):
    """The bytes of the q and W rows, the record series, the boundary
    integral and the q extremes of a library run from step 0 through the
    steps ``stops``, one call each, with every entry the library must write
    before it reads (the flux row, scratch, the second W row, W's interior
    and the record series) first set to ``fill``."""
    grid, n = q0.grid, q0.grid.n_cells
    q = np.concatenate([[grid.left_farfield], q0.values, [grid.right_farfield]])
    w = None if average is None else np.concatenate([[grid.left_farfield], np.full(n + 1, fill),
                                                     [grid.right_farfield]])
    size = stops[-1] + 1
    arrays = (q, w, np.full(size, fill), None if w is None else np.full(size, fill),
              np.full(size, fill), np.full(n + 1, fill), np.full(n + 2, fill),
              None if w is None else np.full(n + 3, fill))
    run = native.Run(ctypes.addressof(flux), None if average is None else ctypes.addressof(average),
                     n, grid.dx, dt, *(None if a is None else a.ctypes.data for a in arrays),
                     q_min=np.inf, q_max=-np.inf)
    step = 0
    for stop in stops:
        step = native.lib.nl_advance(ctypes.byref(run), step, stop - step)
        assert step == stop and run.error == 0
    return ([a.tobytes() for a in arrays[:5] if a is not None]
            + [np.float64(x).tobytes() for x in (run.boundary, run.q_min, run.q_max)])


# a grid of two cells, of two two-step tiles, the drawn test's largest, of
# three two-step tiles, and of two one-step tiles
@pytest.mark.parametrize("n_cells", [2, SKEW + 1, 300, 2 * SKEW + SKEW // 2, TILE + 1])
@pytest.mark.parametrize("solver", ["exponential", "constant", "local"])
@pytest.mark.parametrize("velocity", ["linear", "linear_increasing"])
def test_unwritten_row_entries_are_never_read(n_cells, solver, velocity):
    # whatever the flux row, scratch, the second W row, W's interior and
    # the record series hold before a run, it gives a zero-filled run's
    # bytes: stops 1, 2, 4 and 5 steps apart, then 2 and 11, so that calls
    # make an odd step alone or only two-step passes
    v = VELOCITIES[velocity]
    q0 = rough_field(n_cells)
    if solver == "local":
        flux, average = _scheme(FluxModel(velocity=v)), None
    else:
        orientation = "downstream" if v.mode == "decreasing" else "upstream"
        kernel = KernelSpec(solver, 0.05, orientation)
        cfg = NonlocalSchemeConfig(kernel=kernel, velocity=v, cfl=0.5, t_end=1.0)
        flux, average = _upwind_flux(cfg), kernel_operator(kernel, q0.grid)
    dt = q0.grid.dx / 2
    for stops in ([0, 1, 3, 7, 12], [0, 2, 13]):
        expected = filled_run(q0, flux, average, dt, stops, 0.0)
        for fill in (np.nan, 1e300, -7.0):
            assert filled_run(q0, flux, average, dt, stops, fill) == expected, (stops, fill)


def failing_datum(failure, tile, n_cells):
    """Cells at 0.5 with a block of 1.0 at a jam's density, which V(W) at dt
    = 1.5 dx drives past 1 behind or ahead of the block; or cells at 0.4
    with one cell at 1e306, whose oscillation at speed 0.7 and dt = 6 dx
    overflows.  Either fails at step 3 near the block or the cell, in the
    first (leftmost) or the last of the two-step pass's tiles."""
    level = 0.5 if failure == "violation" else 0.4
    values = np.full(n_cells, level)
    at = 40 if tile == "first" else n_cells - 60
    if failure == "violation":
        values[at:at + 20] = 1.0
    else:
        values[at] = 1e306
    return CellField(grid=Grid1D(-1.0, 2.0, n_cells, level, level), values=values)


@pytest.mark.parametrize("failure", ["violation", "blowup"])
@pytest.mark.parametrize("tile", ["first", "last"])
@pytest.mark.parametrize("second", [False, True], ids=["step_k+1", "step_k+2"])
@pytest.mark.parametrize("orientation", ["downstream", "upstream"])
def test_a_failed_step_of_a_two_step_pass_leaves_the_oracles_records(failure, tile, second,
                                                                      orientation):
    # the failing step is the pass's first (k + 1) or second (k + 2) by the
    # parity of the call's step count; the library returns the step before
    # it with the oracle's error, and the records, extremes and boundary
    # integral of that step: a failure in step k + 2 commits step k + 1 first
    n = 2 * SKEW + 200  # three tiles, the last one of 201 interfaces
    q0 = failing_datum(failure, tile, n)
    grid = q0.grid
    downstream = orientation == "downstream"
    if failure == "violation":
        v = VELOCITIES["linear" if downstream else "linear_increasing"]
        eta, dt, error, kind = grid.dx / 10, 1.5 * grid.dx, ModeViolationError, 1
    else:
        v = VELOCITIES["constant" if downstream else "constant_negative"]
        eta, dt, error, kind = 0.05, 6 * grid.dx, NumericalBlowupError, 2
    kernel = KernelSpec("exponential", eta, orientation)
    cfg = NonlocalSchemeConfig(kernel=kernel, velocity=v, cfl=1.0, t_end=1.0)
    flux, average = _upwind_flux(cfg), kernel_operator(kernel, grid)
    oracle_flux, oracle_term = oracle_upwind_flux(cfg), oracle_average(kernel, grid)
    seen = []

    def recorded(states, w, out):
        seen.append((states.copy(), w.copy()))
        oracle_flux(states, w, out)

    with pytest.raises(error) as expected_error:
        oracle_integrate(q0, recorded, dt, 400, [], oracle_term)
    failed = len(seen)
    # the failure lies in the tile named
    states, w = seen[-1]
    if failure == "violation":
        sign = 1.0 if downstream else -1.0
        bad = np.flatnonzero(sign * oracle_speed(v, w) < -_SIGN_SLACK)
    else:
        fluxes = np.empty(n + 1)
        oracle_flux(states, w, fluxes)
        with np.errstate(over="ignore", invalid="ignore"):
            bad = np.flatnonzero(~np.isfinite(states[1:-1] - (fluxes[1:] - fluxes[:-1])
                                              * (dt / grid.dx)))
    assert failed == 3 and bad.size
    assert bad.max() < SKEW if tile == "first" else bad.min() >= 2 * SKEW
    expected = oracle_integrate(q0, oracle_flux, dt, failed - 1, [], oracle_term)
    # an even count pairs steps 1-2, 3-4; an odd one makes step 1 alone first
    steps = failed + 1 if (failed % 2 == 1) == second else failed
    run, series, _, _ = library_run(q0, flux, average, dt, steps)
    assert native.lib.nl_advance(ctypes.byref(run), 0, 0) == 0
    assert native.lib.nl_advance(ctypes.byref(run), 0, steps) == failed - 1
    assert run.error == kind
    if failure == "violation":
        assert str(flux.violation(run.extreme)) == str(expected_error.value)
    for name in ("q_min", "q_max"):
        assert (np.float64(getattr(run, name)).tobytes()
                == np.float64(getattr(expected, name + "_overall")).tobytes()), name
    for name, got in series.items():
        assert got[:failed].tobytes() == getattr(expected, name + "_series").tobytes(), name
        assert np.isnan(got[failed:]).all(), name
    assert np.float64(run.boundary).tobytes() == np.float64(
        expected.boundary_flux_integral).tobytes()


@pytest.mark.parametrize("first", [0.0, -0.0])
@pytest.mark.parametrize("orientation", ["downstream", "upstream"])
def test_zero_extremes_of_a_two_step_pass_keep_the_first_zeros_sign(first, orientation):
    # a vacuum of zeros of sign `first` in one tile and of the other sign in
    # the next, on the side the flow leaves empty; the pass takes the
    # downstream tiles right to left, yet of equal extremes the leftmost
    # tile's is kept, as a fold in index order keeps it.  The run starts
    # without step 0's record, so the pass's own extremes decide.
    n = 2 * SKEW + 1
    downstream = orientation == "downstream"
    # the first cell of the tile after the vacuum's first one
    edge = SKEW + 1 if downstream else 2 * SKEW
    values = np.full(n, 0.5)
    lo, hi = (1, edge + 40) if downstream else (edge - 40, n + 1)
    values[lo - 1:edge - 1] = first
    values[edge - 1:hi - 1] = -first
    left, right = (first, 0.5) if downstream else (0.5, -first)
    q0 = CellField(grid=Grid1D(-1.0, 2.0, n, left, right), values=values)
    v = VELOCITIES["linear" if downstream else "linear_increasing"]
    cfg = NonlocalSchemeConfig(kernel=KernelSpec("exponential", 0.05, orientation), velocity=v,
                               cfl=0.5, t_end=1.0)
    dt = q0.grid.dx / 2
    expected = oracle_integrate(q0, oracle_upwind_flux(cfg), dt, 2, [dt, 2 * dt],
                                oracle_average(cfg.kernel, q0.grid))
    q_min = np.inf
    for snap in expected.snapshots:
        q_min, _ = oracle_extremes(snap.q.values, q_min, -np.inf)
    steps = [snap.q.values for snap in expected.snapshots]
    # after the pass's first step the first zero lies before the edge, and a
    # zero of the other sign after it
    zeros = np.flatnonzero(steps[0] == 0.0)
    signs = np.signbit(steps[0][zeros])
    assert zeros[0] < edge - 1 and (signs[zeros >= edge - 1] != signs[0]).any()
    assert q_min == 0.0 and np.signbit(q_min) == signs[0]
    run, series, q, w = library_run(q0, _upwind_flux(cfg), kernel_operator(cfg.kernel, q0.grid),
                                    dt, 2)
    w[1:-1] = oracle_average(cfg.kernel, q0.grid)(q0.values, np.empty(n + 1))
    assert native.lib.nl_advance(ctypes.byref(run), 0, 2) == 2 and run.error == 0
    assert np.float64(run.q_min).tobytes() == np.float64(q_min).tobytes()
    assert q[1:-1].tobytes() == steps[1].tobytes()


@pytest.mark.parametrize("path", ["one_step", "step_k+1", "step_k+2"])
@pytest.mark.parametrize("orientation", ["downstream", "upstream"])
@pytest.mark.parametrize("worse", ["first", "last"])
def test_mode_violation_extreme_speed_has_the_oracles_bits(path, orientation, worse):
    # the library folds V(W) into the extreme speed only where a tile has a
    # wrong-signed speed, yet must give numpy's reduction over every speed,
    # to the bit.  Blocks above s_max in both of two tiles, the worse one in
    # the tile the pass visits first or last: a fold that skipped either
    # tile would give the other block's speed.  The constant kernel goes one
    # step at a time, tiles left to right; the exponential kernel's two-step
    # pass (downstream right to left) fails in its first step, from the
    # blocks' own W, or in its second, from a W^0 of zeros that lets step 1
    # pass and carries the blocks into W^1.
    downstream = orientation == "downstream"
    family, tile = ("constant", TILE) if path == "one_step" else ("exponential", SKEW)
    n = 2 * tile  # two tiles, [0, tile) and [tile, n + 1)
    first = 1 if downstream and path != "one_step" else 0
    worse_tile = first if worse == "first" else 1 - first
    values = np.full(n, 0.5)
    for t, level in ((worse_tile, 1.8), (1 - worse_tile, 1.5)):
        values[t * tile + tile // 2 - 10:t * tile + tile // 2 + 10] = level
    q0 = CellField(grid=Grid1D(-1.0, 2.0, n, 0.5, 0.5), values=values)
    grid = q0.grid
    v = VELOCITIES["linear" if downstream else "linear_increasing"]
    kernel = KernelSpec(family, 4 * grid.dx, orientation)
    cfg = NonlocalSchemeConfig(kernel=kernel, velocity=v, cfl=0.5, t_end=1.0)
    oracle_term = oracle_average(kernel, grid)
    if path == "step_k+2":
        w0 = np.zeros(n + 1)
        w0[-1 if downstream else 0] = 0.5  # the far field's entry
    else:
        w0 = oracle_term(values, np.empty(n + 1))
    seen = []

    def term(states, out):  # the oracle's average after W^0
        if not seen:
            out[:] = w0
            return out
        return oracle_term(states, out)

    def recorded(states, w, out):
        seen.append(w.copy())
        oracle_upwind_flux(cfg)(states, w, out)

    dt = grid.dx / 2
    with pytest.raises(ModeViolationError):
        oracle_integrate(q0, recorded, dt, 2, [], term)
    failed = 2 if path == "step_k+2" else 1
    assert len(seen) == failed
    speeds = oracle_speed(v, seen[-1])
    reduce, sign = (np.minimum.reduce, 1.0) if downstream else (np.maximum.reduce, -1.0)
    expected = reduce(speeds)
    # wrong-signed speeds in both tiles, and the other tile's own extreme
    # short of the worse block's
    tiles = np.minimum(np.arange(n + 1) // tile, 1)
    assert set(tiles[sign * speeds < -_SIGN_SLACK]) == {0, 1}
    assert sign * expected < sign * reduce(speeds[tiles != worse_tile])
    run, _, _, w = library_run(q0, _upwind_flux(cfg), kernel_operator(kernel, grid), dt, 2)
    w[1:-1] = w0
    assert native.lib.nl_advance(ctypes.byref(run), 0, 2) == failed - 1 and run.error == 1
    assert float(run.extreme).hex() == float(expected).hex()


def drawn_levels(s_max):
    """Levels in [0, s_max]: zeros of both signs, subnormals, the smallest
    normal, values at and next to s_max, and anything between."""
    return st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, SMALLEST_NORMAL, s_max / 2,
                                      float(np.nextafter(s_max, 0.0)), s_max]),
                     st.floats(0.0, s_max))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_drawn_runs_equal_the_oracle(data):
    # random grids, levels, far fields, velocity laws, kernels, schemes and
    # steps up to twice the stable one; a run that stops on an error must
    # stop at the oracle's step with its message
    v = VELOCITIES[data.draw(st.sampled_from(sorted(VELOCITIES)), label="velocity")]
    levels = drawn_levels(v.admissible_range[1])
    n = data.draw(st.integers(2, 300), label="n_cells")
    values = data.draw(arrays(np.float64, n, elements=levels), label="values")
    grid = Grid1D(-1.0, 2.0, n, data.draw(levels, label="left"), data.draw(levels, label="right"))
    q0 = CellField(grid=grid, values=values)
    n_steps = data.draw(st.integers(1, 60), label="n_steps")
    steps = data.draw(st.lists(st.integers(0, n_steps), max_size=4, unique=True), label="steps")
    if data.draw(st.booleans(), label="godunov"):
        flux, average = _scheme(FluxModel(velocity=v)), None
        oracle_flux, oracle_term = oracle_godunov_flux(v), None
        speed = v.max_wave_speed
    else:
        orientation = "downstream" if v.mode == "decreasing" else "upstream"
        kernel = KernelSpec(data.draw(st.sampled_from(["exponential", "constant"]), label="kernel"),
                            data.draw(st.floats(1e-4, 4.0), label="eta"), orientation)
        cfg = NonlocalSchemeConfig(kernel=kernel, velocity=v, cfl=1.0, t_end=1.0)
        flux, average = _upwind_flux(cfg), kernel_operator(kernel, grid)
        oracle_flux, oracle_term = oracle_upwind_flux(cfg), oracle_average(kernel, grid)
        speed = v.max_abs_speed
    dt = data.draw(st.floats(0.05, 2.0), label="cfl") * grid.dx / speed
    times = np.array(sorted(steps)) * dt
    try:
        expected = oracle_integrate(q0, oracle_flux, dt, n_steps, times, oracle_term)
    except (ModeViolationError, NumericalBlowupError) as error:
        with pytest.raises(type(error)) as got:
            stepping.integrate(q0, flux, dt, n_steps, times, average)
        assert str(got.value) == str(error)
        assert getattr(got.value, "step", None) == getattr(error, "step", None)
    else:
        assert_same_bits(stepping.integrate(q0, flux, dt, n_steps, times, average), expected)


# steps of dx / 2 on a 64-cell grid: 20 steps to t_end
SNAPSHOT_STEPS = {
    "every_step": np.arange(21),
    "adjacent": np.array([5, 6]),
    "duplicated": np.array([3.0, 3.2, 3.4, 9.0]),
    "zero_only": np.array([0.0]),
}


@pytest.mark.parametrize("requests", list(SNAPSHOT_STEPS))
@pytest.mark.parametrize("solver", ["exponential", "local"])
def test_snapshot_stops_equal_the_oracle(requests, solver):
    # each distinct requested step is a stop of the library's run; the
    # records between stops and after the last one are the oracle's
    q0 = seeded_field(64)
    dt = q0.grid.dx / 2
    steps = SNAPSHOT_STEPS[requests]
    report, expected = run_both(solver, q0, 20 * dt, steps * dt)
    assert_same_bits(report, expected)
    assert report.n_steps == 20 and len(report.snapshots) == steps.size
    landed = np.rint(steps).astype(int).tolist()
    for a, b, k, j in zip(report.snapshots, report.snapshots[1:], landed, landed[1:]):
        assert (a is b) == (k == j)


@pytest.mark.parametrize("solver", ["nonlocal", "local"])
def test_blowup_right_after_a_snapshot_stop_has_the_oracles_step(solver):
    # constant speed at dt = 6 dx overflows at some step B; a snapshot at
    # B - 1 ends a library call there, and the next call's first step fails
    q0 = seeded_field(64)
    v = VELOCITIES["constant"]
    dt = 6 * q0.grid.dx
    if solver == "local":
        flux, average = _scheme(FluxModel(velocity=v)), None
        oracle_flux, oracle_term = oracle_godunov_flux(v), None
    else:
        cfg = NonlocalSchemeConfig(kernel=KernelSpec("exponential", 0.05), velocity=v,
                                   cfl=1.0, t_end=1.0)
        flux, average = _upwind_flux(cfg), kernel_operator(cfg.kernel, q0.grid)
        oracle_flux, oracle_term = oracle_upwind_flux(cfg), oracle_average(cfg.kernel, q0.grid)
    with pytest.raises(NumericalBlowupError) as first:
        oracle_integrate(q0, oracle_flux, dt, 2000, [], oracle_term)
    times = [0.0, (first.value.step - 1) * dt]
    with pytest.raises(NumericalBlowupError) as expected:
        oracle_integrate(q0, oracle_flux, dt, 2000, times, oracle_term)
    with pytest.raises(NumericalBlowupError) as got:
        stepping.integrate(q0, flux, dt, 2000, times, average)
    assert got.value.step == expected.value.step == first.value.step > 1
    assert str(got.value) == str(expected.value)


def test_mode_violation_has_the_oracles_message():
    # the upwind scheme at dt = 1.6 dx: its growing oscillation drives W
    # above s_max, and V(W) below zero, at some step; the message carries
    # that step's extreme speed
    q0 = seeded_field(64)
    cfg = NonlocalSchemeConfig(kernel=KernelSpec("exponential", 0.05),
                               velocity=VELOCITIES["linear"], cfl=1.0, t_end=1.0)
    dt = 1.6 * q0.grid.dx
    with pytest.raises(ModeViolationError) as expected:
        oracle_integrate(q0, oracle_upwind_flux(cfg), dt, 400, [],
                         oracle_average(cfg.kernel, q0.grid))
    with pytest.raises(ModeViolationError) as got:
        stepping.integrate(q0, _upwind_flux(cfg), dt, 400, [],
                           kernel_operator(cfg.kernel, q0.grid))
    assert str(got.value) == str(expected.value)
    assert "fell to" in str(got.value)


def test_blowup_has_the_oracles_step_and_message():
    # constant speed 0.7 at dt = 6 dx, a CFL number of 4.2: the oscillation
    # grows on every step until it overflows
    q0 = seeded_field(64)
    v = VELOCITIES["constant"]
    flux = FluxModel(velocity=v)
    dt = 6 * q0.grid.dx
    with pytest.raises(NumericalBlowupError) as expected:
        oracle_integrate(q0, oracle_godunov_flux(v), dt, 2000)
    with pytest.raises(NumericalBlowupError) as got:
        stepping.integrate(q0, _scheme(flux), dt, 2000)
    assert got.value.step == expected.value.step > 1
    assert str(got.value) == str(expected.value)


def test_godunov_flux_equals_the_oracles_select():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(0.0, 1.0, (2, 4097))
    a[::7] = b[::7]  # equal states
    a[1::11], b[2::13] = 0.5, 0.5  # the critical density itself
    for name, v in VELOCITIES.items():
        scale = v.admissible_range[1]
        f = lambda s: oracle_speed(v, s) * s  # noqa: E731
        expected = oracle_godunov(a * scale, b * scale, f(a * scale), f(b * scale), v,
                                  float(f(v.critical_density)), np.empty(a.size))
        got = godunov_flux(a * scale, b * scale, FluxModel(velocity=v))
        assert got.tobytes() == expected.tobytes(), name


def test_velocity_equals_the_oracles_law():
    s = np.concatenate([np.linspace(0.0, 2.0, 1001), [SMALLEST_NORMAL / 3, np.nan, -0.0]])
    # powers of two for s_max, the smallest with a reciprocal past float range
    extra = {f"{family}_{s_max:g}": build(1e-300, s_max) for s_max in (0.25, 2.0 ** -1022,
                                                                      2.0 ** -1023, 5e-324)
             for family, build in (("linear", linear_velocity),
                                   ("linear_increasing", linear_increasing_velocity))}
    for name, v in {**VELOCITIES, **extra}.items():
        with np.errstate(over="ignore", invalid="ignore"):  # s far past a tiny s_max
            expected, scalar = oracle_speed(v, s), oracle_speed(v, 0.25)
        assert v.eval(s).tobytes() == expected.tobytes(), name
        assert np.float64(v.eval(0.25)).tobytes() == np.float64(scalar).tobytes(), name


BASELINE_SUMS = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from nonlocal_limit import (FluxModel, Grid1D, KernelSpec, NonlocalSchemeConfig,
                            PiecewiseConstantProfile, linear_velocity, sample_profile,
                            solve_local, solve_nonlocal, total_variation)

assert not any(__cpu_features__[name] for name in sys.argv[1:])
bits = lambda x: np.float64(x).tobytes()
checked = 0
for n_cells in (9, 130, 300):
    q0 = sample_profile(PiecewiseConstantProfile(np.array([0.0, 0.5]),
                                                 np.array([0.1, 0.9, 0.0])),
                        Grid1D(-1.0, 2.0, n_cells))
    t_end = 12 * q0.grid.dx / 2
    every_step = np.arange(13) * (q0.grid.dx / 2)
    v = linear_velocity()
    reports = [solve_local(q0, FluxModel(velocity=v), 0.5, t_end, every_step)]
    for family in ("exponential", "constant"):
        reports.append(solve_nonlocal(q0, NonlocalSchemeConfig(
            kernel=KernelSpec(family, 0.05), velocity=v, cfl=0.5, t_end=t_end,
            snapshot_times=every_step)))
    for report in reports:
        assert report.n_steps == 12
        for k, snap in enumerate(report.snapshots):
            assert bits(report.tv_q_series[k]) == bits(total_variation(snap.q)), (n_cells, k)
            assert bits(report.mass_series[k]) == bits(q0.grid.dx * snap.q.values.sum())
            if snap.w is not None:
                assert bits(report.tv_w_series[k]) == bits(total_variation(snap.w))
            checked += 1
print(checked)
"""


def test_records_equal_numpys_sums_with_its_dispatch_at_baseline():
    # numpy picks the kernels of its sums by the CPU features it may use;
    # with every dispatched feature this host has turned off, its sums of
    # each snapshot must still equal the library's records
    disabled = [name for name in _multiarray_umath.__cpu_dispatch__
                if _multiarray_umath.__cpu_features__.get(name)]
    source = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", BASELINE_SUMS, *disabled], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": str(source),
                          "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(3 * 3 * 13)]
