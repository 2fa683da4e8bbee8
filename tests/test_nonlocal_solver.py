import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nonlocal_limit.local_reference as local_reference
import nonlocal_limit.nonlocal_solver as nonlocal_solver_module
import nonlocal_limit.stepping as stepping
from nonlocal_limit import (
    CellField,
    ConfigError,
    FluxModel,
    Grid1D,
    KernelSpec,
    ModeViolationError,
    NonlocalSchemeConfig,
    NumericalBlowupError,
    Window,
    constant_velocity,
    linear_increasing_velocity,
    linear_velocity,
    sample_profile,
    solve_local,
    solve_nonlocal,
    step_upwind,
    sup_time_l1,
    total_mass,
    total_variation,
)
from nonlocal_limit.kernels import kernel_operator

from conftest import constant_profile, force_nonlocal_steps, mirror_field


def make_config(eta=0.05, velocity=None, cfl=0.5, t_end=0.5, snapshot_times=(),
                family="exponential", orientation="downstream"):
    return NonlocalSchemeConfig(
        kernel=KernelSpec(family=family, eta=eta, orientation=orientation),
        velocity=velocity or linear_velocity(),
        cfl=cfl,
        t_end=t_end,
        snapshot_times=np.asarray(snapshot_times, dtype=float),
    )


def local_run(cfl=0.5, t_end=0.5, snapshot_times=(), q0=None):
    """solve_local, by default on a small grid, with make_config's time
    settings."""
    if q0 is None:
        q0 = sample_profile(constant_profile(0.5), Grid1D(0.0, 1.0, 16))
    return solve_local(q0, FluxModel(velocity=linear_velocity()), cfl=cfl,
                       t_end=t_end, snapshot_times=snapshot_times)


# both entry points that take time settings must reject the same ones
TIME_SETTINGS_ENTRY_POINTS = (make_config, local_run)


class TestConfig:
    def test_rejects_bad_cfl(self):
        for entry in TIME_SETTINGS_ENTRY_POINTS:
            with pytest.raises(ValueError, match="cfl"):
                entry(cfl=0.0)
            with pytest.raises(ValueError, match="cfl"):
                entry(cfl=1.5)

    def test_rejects_unsorted_snapshots(self):
        for entry in TIME_SETTINGS_ENTRY_POINTS:
            with pytest.raises(ValueError, match="snapshot_times"):
                entry(snapshot_times=[0.3, 0.1])

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_rejects_nonpositive_t_end(self, t_end):
        for entry in TIME_SETTINGS_ENTRY_POINTS:
            with pytest.raises(ConfigError) as info:
                entry(t_end=t_end)
            assert str(info.value) == f"t_end must be positive, got {t_end}"

    def test_rejects_equal_snapshot_times(self):
        for entry in TIME_SETTINGS_ENTRY_POINTS:
            with pytest.raises(ConfigError) as info:
                entry(snapshot_times=[0.0, 0.25, 0.25])
            assert str(info.value) == "snapshot_times must be strictly increasing"

    def test_rejects_snapshots_past_t_end(self):
        for entry in TIME_SETTINGS_ENTRY_POINTS:
            with pytest.raises(ValueError, match="snapshot_times"):
                entry(t_end=1.0, snapshot_times=[0.5, 1.2])
            with pytest.raises(ValueError, match="snapshot_times"):
                entry(t_end=1.0, snapshot_times=[-1.0, 0.2])

    def test_orientation_velocity_pairing_enforced(self):
        with pytest.raises(ValueError, match="downstream"):
            make_config(velocity=linear_increasing_velocity())
        with pytest.raises(ValueError, match="upstream"):
            make_config(orientation="upstream")
        make_config(orientation="upstream", velocity=linear_increasing_velocity())


class TestFrozenStep:
    def test_unit_speed(self):
        dt, n_steps = stepping.frozen_step(0.5, 0.01, 1.0, 1.0)
        assert dt == pytest.approx(0.005) and n_steps == 200

    def test_zero_speed_is_one_step_of_t_end(self):
        assert stepping.frozen_step(0.5, 0.01, 0.0, 2.5) == (2.5, 1)

    def test_speed_two(self):
        dt, n_steps = stepping.frozen_step(0.25, 0.02, 2.0, 1.0)
        assert dt == pytest.approx(0.0025) and n_steps == 400

    def test_dt_divides_t_end(self):
        dx = 1.0 / 30
        dt, n_steps = stepping.frozen_step(0.9, dx, 1.0, 0.1)
        assert dt == 0.1 / n_steps
        assert dt <= 0.9 * dx + 1e-15

    @settings(max_examples=300, deadline=None)
    @given(cfl=st.floats(1e-6, 1.0), cells=st.integers(2, 1 << 20),
           span=st.floats(1e-3, 1e3), speed=st.floats(1e-6, 1e3),
           t_end=st.floats(1e-3, 1e3))
    def test_count_is_the_step_count(self, cfl, cells, span, speed, t_end):
        # the count handed to integrate is the one dt implies
        dx = span / cells
        if t_end * speed / (cfl * dx) > 1e12:
            return
        dt, n_steps = stepping.frozen_step(cfl, dx, speed, t_end)
        assert dt == t_end / n_steps
        assert round(t_end / dt) == n_steps
        assert dt <= cfl * dx / speed * (1 + 1e-9)

    @pytest.mark.parametrize("cfl, dx, speed", [
        (1e-30, 3.0 / 64, 1.0),  # about 3e31 steps
        (0.5, 3.0 / 64, 1e300),  # about 6e301 steps
        (5e-324, 1e-10, 1.0),  # dt underflows to 0
    ])
    def test_refuses_a_count_no_array_can_index(self, cfl, dx, speed):
        with pytest.raises(ConfigError, match=r"cfl = .*, t_end = 1\.5 and dt = .* need "
                                              r".* steps, more than an array can index"):
            stepping.frozen_step(cfl, dx, speed, 1.5)

    def test_largest_indexable_count_is_accepted(self):
        # dt = 1 / 2**62: 2**62 steps, one record more still indexes
        assert stepping.frozen_step(1.0, 1.0, 2.0**62, 1.0) == (2.0**-62, 1 << 62)


class TestInitialDataRange:
    """Both solvers check the initial data, far-fields included, in the one
    run set-up, against the velocity's admissible range [0, 1]."""

    @pytest.mark.parametrize("cells, farfield", [(-0.5, 0.0), (3.0, 0.0), (0.5, -1e-3),
                                                 (0.5, 1.5)])
    @pytest.mark.parametrize("solver", ["nonlocal", "local"])
    def test_data_outside_the_range_is_refused(self, solver, cells, farfield):
        grid = Grid1D(0.0, 1.0, 16, left_farfield=farfield, right_farfield=farfield)
        q0 = CellField(grid=grid, values=np.full(16, cells))
        with pytest.raises(ValueError, match=r"initial data \[.*\] leaves the admissible range"):
            if solver == "nonlocal":
                solve_nonlocal(q0, make_config())
            else:
                local_run(q0=q0)


class TestStepUpwind:
    def test_constant_state_is_a_fixed_point(self):
        grid = Grid1D(0.0, 1.0, 32)
        q0 = sample_profile(constant_profile(0.6), grid)
        stepped = step_upwind(q0, make_config(), dt=0.005)
        np.testing.assert_allclose(stepped.values, 0.6, rtol=1e-14)

    def test_inert_nonlocality_matches_plain_upwind(self):
        # constant velocity, lambda * v = 0.5: [0, 1, 0] -> [0, 0.5, 0.5]
        grid = Grid1D(0.0, 3.0, 3)
        field = CellField(grid=grid, values=np.array([0.0, 1.0, 0.0]))
        cfg = make_config(velocity=constant_velocity(1.0))
        stepped = step_upwind(field, cfg, dt=0.5)
        np.testing.assert_allclose(stepped.values, [0.0, 0.5, 0.5], atol=1e-15)

    def test_mode_violation_detected(self):
        # V(s) = 0.5 (1 - s/0.5) is negative on a full state beyond its
        # admissible range, so the downstream upwind orientation is wrong
        dipping = linear_velocity(0.5, 0.5)
        grid = Grid1D(0.0, 1.0, 32, left_farfield=1.0, right_farfield=1.0)
        q0 = sample_profile(constant_profile(1.0), grid)
        with pytest.raises(ModeViolationError):
            step_upwind(q0, make_config(velocity=dipping), dt=0.001)

    @pytest.mark.parametrize("build, orientation, message", [
        (linear_velocity, "downstream", "fell to -0.5 < 0 in downstream mode"),
        (linear_increasing_velocity, "upstream", "rose to 0.5 > 0 in upstream mode"),
    ])
    def test_mode_violation_names_the_extreme_speed(self, build, orientation, message):
        # V(W) = +-(0.5 - W) on a full state: -0.5 downstream, 0.5 upstream
        velocity = build(0.5, 0.5)
        grid = Grid1D(0.0, 1.0, 32, left_farfield=1.0, right_farfield=1.0)
        cfg = make_config(velocity=velocity, orientation=orientation)
        with pytest.raises(ModeViolationError, match=message):
            step_upwind(sample_profile(constant_profile(1.0), grid), cfg, dt=0.001)

    @pytest.mark.parametrize("snapshot_times", [[], [0.0]])
    def test_nan_velocity_never_trips_the_sign_check(self, snapshot_times):
        # data at 1e308 overflow the constant kernel's prefix sums, so W
        # holds NaN and inf and V(W) NaN and -inf: the NaN speeds keep the
        # sign check quiet, and the first update is not finite; that error
        # comes before a snapshot of the non-finite W is refused
        grid = Grid1D(0.0, 1.0, 64)
        q0 = CellField(grid=grid, values=np.full(64, 1e308))
        cfg = make_config(eta=0.5, family="constant")
        average = kernel_operator(cfg.kernel, grid)
        w = average(q0.values)
        assert np.isnan(w).sum() == 63 and np.isinf(w).sum() == 2
        with pytest.raises(NumericalBlowupError) as err:
            stepping.integrate(q0, nonlocal_solver_module._upwind_flux(cfg), 1e-3, 10,
                               snapshot_times, average)
        assert err.value.step == 1

    @pytest.mark.parametrize("scheme, average_cells", [
        ("upwind", None), ("godunov", 16), ("upwind", 17)])
    def test_integrate_refuses_a_mispaired_average(self, scheme, average_cells):
        # an upwind flux without an average, a Godunov flux with one, and an
        # average built for another grid
        cfg = make_config()
        q0 = sample_profile(constant_profile(0.5), Grid1D(0.0, 1.0, 16))
        flux = (nonlocal_solver_module._upwind_flux(cfg) if scheme == "upwind"
                else local_reference._scheme(FluxModel(linear_velocity())))
        average = (None if average_cells is None
                   else kernel_operator(cfg.kernel, Grid1D(0.0, 1.0, average_cells)))
        with pytest.raises(ValueError) as info:
            stepping.integrate(q0, flux, 1e-3, 1, (), average)
        assert str(info.value) == ("an upwind flux needs the kernel average of its grid, "
                                   "the Godunov flux none")


class TestSolveNonlocal:
    def test_constant_state_run(self):
        grid = Grid1D(0.0, 1.0, 64)
        q0 = sample_profile(constant_profile(0.3), grid)
        report = solve_nonlocal(q0, make_config(snapshot_times=[0.0, 0.25, 0.5]))
        for snap in report.snapshots:
            np.testing.assert_allclose(snap.q.values, 0.3, rtol=1e-14)
            np.testing.assert_allclose(snap.w.values, 0.3, rtol=1e-14)
        np.testing.assert_allclose(report.tv_q_series, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.tv_w_series, 0.0, atol=1e-12)

    def test_mass_balance_telescopes(self, datum_profile):
        grid = Grid1D(-1.0, 2.0, 256)
        q0 = sample_profile(datum_profile, grid)
        report = solve_nonlocal(q0, make_config(eta=0.05, t_end=0.75))
        change = total_mass(report.snapshots[-1].q) - total_mass(q0)
        scale = max(1.0, abs(total_mass(q0)))
        assert abs(change + report.boundary_flux_integral) <= 1e-8 * scale

    def test_snapshot_times_land_on_steps(self, datum_profile):
        grid = Grid1D(-1.0, 2.0, 128)
        q0 = sample_profile(datum_profile, grid)
        requested = [0.0, 0.21, 0.5]
        report = solve_nonlocal(q0, make_config(snapshot_times=requested))
        assert len(report.snapshots) == 3
        for wanted, snap in zip(requested, report.snapshots):
            assert abs(snap.time - wanted) <= report.dt_used / 2 + 1e-12
            assert (snap.time / report.dt_used) == pytest.approx(
                round(snap.time / report.dt_used)
            )

    def test_series_lengths(self, datum_profile):
        grid = Grid1D(-1.0, 2.0, 64)
        q0 = sample_profile(datum_profile, grid)
        report = solve_nonlocal(q0, make_config(t_end=0.25))
        assert len(report.tv_q_series) == report.n_steps + 1
        assert len(report.tv_w_series) == report.n_steps + 1
        assert len(report.mass_series) == report.n_steps + 1

    def test_rejects_negative_data(self):
        grid = Grid1D(0.0, 1.0, 16)
        field = CellField(grid=grid, values=np.full(16, -0.5))
        with pytest.raises(ValueError, match="admissible range"):
            solve_nonlocal(field, make_config())

    def test_blowup_reports_step(self, monkeypatch, datum_profile):
        # force a CFL-violating step so the oscillation overflows
        grid = Grid1D(-1.0, 2.0, 64)
        q0 = sample_profile(datum_profile, grid)
        force_nonlocal_steps(monkeypatch, 400)
        cfg = make_config(velocity=constant_velocity(1.0), t_end=200.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalBlowupError) as err:
                solve_nonlocal(q0, cfg)
        assert err.value.step >= 1

    def test_maximum_principle_on_datum_run(self, datum_profile):
        grid = Grid1D(-1.0, 2.0, 512)
        q0 = sample_profile(datum_profile, grid)
        report = solve_nonlocal(q0, make_config(eta=0.05, t_end=1.0))
        assert report.q_min_overall >= -1e-12
        assert report.q_max_overall <= 1.0 + 1e-6

    def test_datum_variation_stays_bounded(self, datum_profile):
        # TV(q) may grow, but stays below TV(q0) + 2 * (max q0 - min q0)
        grid = Grid1D(-1.0, 2.0, 512)
        q0 = sample_profile(datum_profile, grid)
        report = solve_nonlocal(q0, make_config(eta=0.05, t_end=1.5))
        assert float(np.max(report.tv_q_series)) <= 2.0 + 2.0 * 1.0

    def test_concurrent_runs_match_serial_runs(self, datum_profile):
        # per-run buffers: runs sharing a kernel path must not share state
        grid = Grid1D(-1.0, 2.0, 512)
        q0 = sample_profile(datum_profile, grid)
        configs = [
            make_config(eta=0.05, t_end=0.5, snapshot_times=[0.0, 0.25, 0.5]),
            make_config(eta=0.02, t_end=0.5, snapshot_times=[0.25, 0.5]),
            make_config(eta=0.05, t_end=0.5, family="constant"),
            make_config(eta=0.05, t_end=0.5, orientation="upstream",
                        velocity=linear_increasing_velocity()),
        ]
        serial = [solve_nonlocal(q0, cfg) for cfg in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(solve_nonlocal, q0, cfg) for cfg in configs * 2]
                concurrent = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for expected, got in zip(serial * 2, concurrent):
            for name in ("tv_q_series", "tv_w_series", "mass_series"):
                assert np.array_equal(getattr(got, name), getattr(expected, name))
            for name in ("dt_used", "n_steps", "boundary_flux_integral",
                         "q_min_overall", "q_max_overall"):
                assert getattr(got, name) == getattr(expected, name)
            assert len(got.snapshots) == len(expected.snapshots)
            for a, b in zip(got.snapshots, expected.snapshots):
                assert a.time == b.time
                assert np.array_equal(a.q.values, b.q.values)
                assert np.array_equal(a.w.values, b.w.values)

    def test_upstream_run_mirrors_downstream(self, datum_profile):
        grid = Grid1D(-1.0, 2.0, 128)
        q0 = sample_profile(datum_profile, grid)
        down_cfg = make_config(eta=0.05, t_end=0.5, snapshot_times=[0.5])
        down = solve_nonlocal(q0, down_cfg)

        # -(1 - s) = s - 1 exactly
        up_cfg = make_config(eta=0.05, t_end=0.5, snapshot_times=[0.5],
                             orientation="upstream", velocity=linear_increasing_velocity())
        up = solve_nonlocal(mirror_field(q0), up_cfg)
        np.testing.assert_allclose(
            up.snapshots[-1].q.values,
            down.snapshots[-1].q.values[::-1],
            atol=1e-12,
        )

    def test_small_eta_tracks_local_reference(self, datum_profile):
        # kernel width well below the grid scale: the nonlocal run stays
        # within a few dx of the Godunov solution in L1 (constant frozen
        # from a refinement measurement)
        grid = Grid1D(-1.0, 2.0, 512)
        dx = grid.dx
        q0 = sample_profile(datum_profile, grid)
        snaps = np.round(np.linspace(0.0, 0.5, 26), 12)
        report = solve_nonlocal(
            q0, make_config(eta=dx / 10.0, t_end=0.5, snapshot_times=snaps)
        )
        local = solve_local(q0, FluxModel(velocity=linear_velocity()),
                            cfl=0.5, t_end=0.5, snapshot_times=snaps)
        distance = sup_time_l1(report, local, Window(-1.0, 2.0))
        assert distance <= 3.0 * dx


class TestRecords:
    """The step library writes each step's records after its average; with
    a snapshot at every step, each record must equal the one of its own
    snapshot."""

    N_CELLS = 64

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 64])
    @pytest.mark.parametrize("solver", ["nonlocal", "local"])
    def test_records_match_every_snapshot(self, datum_profile, n_steps, solver):
        # cfl 0.5 and a speed bound of 1 give dt = dx / 2 for both solvers
        grid = Grid1D(-1.0, 2.0, self.N_CELLS)
        dt = grid.dx / 2
        q0 = sample_profile(datum_profile, grid)
        every_step = np.arange(n_steps + 1) * dt
        if solver == "nonlocal":
            report = solve_nonlocal(q0, make_config(t_end=n_steps * dt,
                                                    snapshot_times=every_step))
        else:
            report = local_run(t_end=n_steps * dt, snapshot_times=every_step, q0=q0)
        assert report.n_steps == n_steps and len(report.snapshots) == n_steps + 1
        for k, snap in enumerate(report.snapshots):
            assert snap.time == k * report.dt_used
            assert report.tv_q_series[k] == total_variation(snap.q)
            assert report.mass_series[k] == grid.dx * float(snap.q.values.sum())
            if solver == "nonlocal":
                assert report.tv_w_series[k] == total_variation(snap.w)
        assert report.q_min_overall == min(s.q.values.min() for s in report.snapshots)
        assert report.q_max_overall == max(s.q.values.max() for s in report.snapshots)

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 64])
    def test_extremes_of_an_unstable_run_match_every_snapshot(self, n_steps):
        # the Godunov scheme at 1.2 times its CFL limit: the oscillation grows
        # and the extremes move on almost every step, the last included
        grid = Grid1D(0.0, 1.0, self.N_CELLS)
        values = np.full(self.N_CELLS, 0.5)
        values[10] = 0.75
        q0 = CellField(grid=grid, values=values)
        dt = 1.2 * grid.dx / 0.7
        report = stepping.integrate(q0, local_reference._scheme(FluxModel(constant_velocity(0.7))),
                                    dt, n_steps, np.arange(n_steps + 1) * dt)
        assert report.q_min_overall == min(s.q.values.min() for s in report.snapshots)
        assert report.q_max_overall == max(s.q.values.max() for s in report.snapshots)
        assert report.q_max_overall > 0.75 or n_steps == 1


@settings(max_examples=30, deadline=None)
@given(
    values=arrays(
        np.float64,
        st.integers(min_value=4, max_value=48),
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64),
    ),
    eta=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
def test_steps_preserve_nonnegativity(values, eta):
    grid = Grid1D(0.0, 1.0, len(values), left_farfield=0.25, right_farfield=0.5)
    field = CellField(grid=grid, values=values)
    cfg = make_config(eta=eta)
    dt = 0.9 * grid.dx  # lambda * max V = 0.9 <= 1
    stepped = step_upwind(field, cfg, dt)
    assert float(np.min(stepped.values)) >= -1e-14
