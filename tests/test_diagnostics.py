import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_limit import TestFunction as SpaceTimeTestFunction
from nonlocal_limit import (
    CellField,
    FluxModel,
    Grid1D,
    InterfaceField,
    KernelSpec,
    NonlocalSchemeConfig,
    RunReport,
    Snapshot,
    Window,
    bump_test_function,
    constant_velocity,
    entropy_residual,
    interface_to_cells,
    l1_distance,
    linear_velocity,
    nonlocal_exponential,
    default_datum_profile,
    sample_profile,
    solve_local,
    solve_nonlocal,
    sup_time_l1,
    total_variation,
    transport_residual_w,
    weak_residual,
    wq_identity_gap,
)
from nonlocal_limit.diagnostics import weak_and_entropy_residuals

from conftest import aligned_datum_field, constant_profile


def constant_run(level=0.7, n_cells=512, t_end=0.5, eta=0.05, n_snapshots=101):
    grid = Grid1D(-1.0, 2.0, n_cells)
    q0 = sample_profile(constant_profile(level), grid)
    cfg = NonlocalSchemeConfig(
        kernel=KernelSpec("exponential", eta),
        velocity=linear_velocity(),
        cfl=0.5,
        t_end=t_end,
        snapshot_times=np.round(np.linspace(0.0, t_end, n_snapshots), 12),
    )
    return solve_nonlocal(q0, cfg)


def report_from_snapshots(snapshots, dt=0.5):
    n_steps = len(snapshots) - 1
    zeros = np.zeros(n_steps + 1)
    return RunReport(
        dt_used=dt,
        n_steps=n_steps,
        snapshots=tuple(snapshots),
        tv_q_series=zeros,
        tv_w_series=None,
        mass_series=zeros,
        boundary_flux_integral=0.0,
        q_min_overall=0.0,
        q_max_overall=1.0,
    )


class TestRunReport:
    def test_series_needs_an_entry_per_step(self):
        report = report_from_snapshots([Snapshot(0.0, aligned_datum_field(), None)] * 3)
        with pytest.raises(ValueError) as info:
            dataclasses.replace(report, tv_q_series=np.zeros(2))
        assert str(info.value) == "tv_q_series must have one entry per step plus the initial state"

    def test_needs_a_snapshot(self):
        report = report_from_snapshots([Snapshot(0.0, aligned_datum_field(), None)])
        with pytest.raises(ValueError) as info:
            dataclasses.replace(report, snapshots=())
        assert str(info.value) == "a run report needs at least one snapshot"


class TestTotalVariation:
    def test_constant_with_matching_farfields(self):
        grid = Grid1D(0.0, 1.0, 8, left_farfield=0.4, right_farfield=0.4)
        field = CellField(grid=grid, values=np.full(8, 0.4))
        assert total_variation(field) == 0.0

    def test_single_peak(self):
        grid = Grid1D(0.0, 1.0, 3)
        field = CellField(grid=grid, values=np.array([0.0, 1.0, 0.0]))
        assert total_variation(field) == pytest.approx(2.0)

    def test_datum_jumps_sum_to_two(self):
        assert total_variation(aligned_datum_field()) == pytest.approx(2.0, abs=1e-14)

    def test_interface_field(self):
        grid = Grid1D(0.0, 1.0, 2, right_farfield=1.0)
        field = InterfaceField(grid=grid, values=np.array([0.0, 0.5, 1.0]))
        assert total_variation(field) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_cells", [2, 3, 7, 9, 130, 1025, 8193, 30000])
    def test_total_is_the_plain_sum_bit_for_bit(self, n_cells):
        # the 1-D sum of the inner jumps, then the left seam, then the right
        rng = np.random.default_rng(n_cells)
        left, right = 0.3, 0.7
        row = rng.uniform(0.0, 1.0, n_cells) * rng.choice([1e-300, 1.0, 1e5], size=n_cells)
        grid = Grid1D(0.0, 1.0, n_cells, left_farfield=left, right_farfield=right)
        plain = np.abs(np.diff(row)).sum() + abs(row[0] - left) + abs(row[-1] - right)
        assert total_variation(CellField(grid=grid, values=row)) == plain


class TestL1Distance:
    def test_identical_fields(self):
        field = aligned_datum_field()
        assert l1_distance(field, field, Window(-1.0, 2.0)) == 0.0

    def test_unit_gap_over_window(self):
        grid = Grid1D(0.0, 2.0, 100)
        a = CellField(grid=grid, values=np.zeros(100))
        b = CellField(grid=grid, values=np.ones(100))
        assert l1_distance(a, b, Window(0.25, 1.75)) == pytest.approx(1.5, rel=1e-13)

    def test_fractional_end_cells(self):
        grid = Grid1D(0.0, 1.0, 4)
        a = CellField(grid=grid, values=np.zeros(4))
        b = CellField(grid=grid, values=np.ones(4))
        # window covers half of the first cell and half of the last
        assert l1_distance(a, b, Window(0.125, 0.875)) == pytest.approx(0.75)

    def test_refined_field_averages_down_exactly(self, datum_profile):
        coarse = sample_profile(datum_profile, Grid1D(-1.0, 2.0, 128))
        fine = sample_profile(datum_profile, Grid1D(-1.0, 2.0, 1024))
        assert l1_distance(coarse, fine, Window(-1.0, 2.0)) <= 1e-13

    def test_incompatible_grids_rejected(self):
        a = CellField(grid=Grid1D(0.0, 1.0, 10), values=np.zeros(10))
        b = CellField(grid=Grid1D(0.0, 1.0, 15), values=np.zeros(15))
        with pytest.raises(ValueError, match="refinement"):
            l1_distance(a, b, Window(0.0, 1.0))
        c = CellField(grid=Grid1D(0.0, 2.0, 10), values=np.zeros(10))
        with pytest.raises(ValueError, match="domain"):
            l1_distance(a, c, Window(0.0, 1.0))

    def test_window_outside_domain_rejected(self):
        a = CellField(grid=Grid1D(0.0, 1.0, 10), values=np.zeros(10))
        with pytest.raises(ValueError, match="window"):
            l1_distance(a, a, Window(-0.5, 0.5))


class TestWindow:
    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.5, 0.5), (0.0, np.inf), (np.nan, 1.0)])
    def test_invalid_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError) as info:
            Window(lo, hi)
        assert str(info.value) == f"invalid window [{lo}, {hi}]"

    @pytest.mark.parametrize("x_max", [1e-3, 1.0, 1e3])
    def test_slack_is_1e_12_of_the_span(self, x_max):
        grid = Grid1D(0.0, x_max, 8)
        tol = 1e-12 * x_max
        Window(-0.5 * tol, x_max + 0.5 * tol).check_inside(grid)
        for window in (Window(-2.0 * tol, x_max), Window(0.0, x_max + 2.0 * tol)):
            with pytest.raises(ValueError) as info:
                window.check_inside(grid)
            assert str(info.value) == (f"window [{window.lo}, {window.hi}] must sit inside "
                                       f"the grid domain [0.0, {x_max}]")


class TestSupTimeL1:
    def test_identical_reports(self):
        field = aligned_datum_field()
        snaps = [Snapshot(time=t, q=field, w=None) for t in (0.0, 0.5, 1.0)]
        report = report_from_snapshots(snaps)
        assert sup_time_l1(report, report, Window(-1.0, 2.0)) == 0.0

    def test_single_snapshot_bump_sets_the_distance(self):
        grid = Grid1D(0.0, 1.0, 10)
        base = CellField(grid=grid, values=np.full(10, 0.5))
        eps = 0.125
        bumped_values = base.values.copy()
        bumped_values[4] += eps / grid.dx
        bumped = CellField(grid=grid, values=bumped_values)
        report_a = report_from_snapshots(
            [Snapshot(0.0, base, None), Snapshot(0.5, base, None),
             Snapshot(1.0, base, None)]
        )
        report_b = report_from_snapshots(
            [Snapshot(0.0, base, None), Snapshot(0.5, bumped, None),
             Snapshot(1.0, base, None)]
        )
        assert sup_time_l1(report_a, report_b, Window(0.0, 1.0)) == pytest.approx(eps)

    def test_mismatched_schedules_rejected(self):
        field = aligned_datum_field()
        report_a = report_from_snapshots([Snapshot(0.0, field, None),
                                          Snapshot(1.0, field, None)])
        report_b = report_from_snapshots([Snapshot(0.0, field, None)])
        with pytest.raises(ValueError, match="schedules"):
            sup_time_l1(report_a, report_b, Window(-1.0, 2.0))
        report_c = report_from_snapshots(
            [Snapshot(0.0, field, None), Snapshot(3.0, field, None)]
        )
        with pytest.raises(ValueError, match="diverge"):
            sup_time_l1(report_a, report_c, Window(-1.0, 2.0))

    def test_unknown_comparison_rejected(self):
        report = report_from_snapshots([Snapshot(0.0, aligned_datum_field(), None)])
        with pytest.raises(ValueError) as info:
            sup_time_l1(report, report, Window(-1.0, 2.0), compare="W")
        assert str(info.value) == "unknown comparison 'W'"

    def test_w_comparison_needs_a_nonlocal_term(self):
        report = report_from_snapshots([Snapshot(0.0, aligned_datum_field(), None)])
        with pytest.raises(ValueError) as info:
            sup_time_l1(report, report, Window(-1.0, 2.0), compare="w")
        assert str(info.value) == "report_a carries no nonlocal term to compare"

    def test_pairing_errors_come_before_the_window_check(self):
        field = aligned_datum_field()
        outside = Window(-3.0, 2.0)
        times = [0.0, 1.0, 2.0]
        report_a = report_from_snapshots([Snapshot(t, field, None) for t in times])
        with pytest.raises(ValueError, match="schedules"):
            sup_time_l1(report_a, report_from_snapshots([Snapshot(0.0, field, None)]), outside)
        late = report_from_snapshots([Snapshot(t, field, None) for t in (0.0, 1.0, 5.0)])
        with pytest.raises(ValueError, match="diverge"):
            sup_time_l1(report_a, late, outside)
        with pytest.raises(ValueError, match="window"):
            sup_time_l1(report_a, report_a, outside)

    @settings(max_examples=25, deadline=None)
    @given(
        lo=st.floats(min_value=-1.0, max_value=0.4, allow_nan=False),
        width=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        growth=st.floats(min_value=0.05, max_value=0.8, allow_nan=False),
    )
    def test_monotone_under_window_inclusion(self, lo, width, growth):
        rng = np.random.default_rng(42)
        grid = Grid1D(-1.0, 2.0, 64)
        a = CellField(grid=grid, values=rng.uniform(0, 1, 64))
        b = CellField(grid=grid, values=rng.uniform(0, 1, 64))
        snaps_a = [Snapshot(0.0, a, None)]
        snaps_b = [Snapshot(0.0, b, None)]
        small = Window(lo, lo + width)
        big = Window(max(-1.0, lo - growth), min(2.0, lo + width + growth))
        ra, rb = report_from_snapshots(snaps_a), report_from_snapshots(snaps_b)
        assert sup_time_l1(ra, rb, small) <= sup_time_l1(ra, rb, big) + 1e-14


def paired_random_reports(factor, n_pairs=300, n_cells=64):
    """A coarse run with q and W and a run on a ``factor``-fold refinement,
    ``n_pairs`` snapshots of uniform random values each."""
    rng = np.random.default_rng(factor)
    coarse, fine = Grid1D(-1.0, 2.0, n_cells), Grid1D(-1.0, 2.0, n_cells * factor)
    times = 0.5 * np.arange(n_pairs)
    report_a = report_from_snapshots([
        Snapshot(t, CellField(grid=coarse, values=rng.uniform(0, 1, n_cells)),
                 InterfaceField(grid=coarse, values=rng.uniform(0, 1, n_cells + 1)))
        for t in times])
    report_b = report_from_snapshots([
        Snapshot(t, CellField(grid=fine, values=rng.uniform(0, 1, n_cells * factor)), None)
        for t in times])
    return report_a, report_b


class TestSupTimeL1Blocks:
    """sup_time_l1 keeps the bits of the per-pair formula (the largest
    l1_distance of a pair), pinned as float.hex."""

    PINNED = {
        (1, "q"): "0x1.d07242e0ee2f1p-1", (1, "w"): "0x1.bdacd8c02d384p-1",
        (2, "q"): "0x1.879e077dc439ap-1", (2, "w"): "0x1.821e33cb86820p-1",
        (8, "q"): "0x1.5276aa90842b6p-1", (8, "w"): "0x1.41eb2568d131bp-1",
    }

    @pytest.mark.parametrize("compare", ["q", "w"])
    @pytest.mark.parametrize("factor", [1, 2, 8])
    def test_blocks_keep_the_per_pair_bits(self, factor, compare):
        report_a, report_b = paired_random_reports(factor)
        window = Window(-0.3, 1.7)  # fractional end cells
        per_pair = 0.0
        for snap_a, snap_b in zip(report_a.snapshots, report_b.snapshots):
            values_a = snap_a.q if compare == "q" else interface_to_cells(snap_a.w)
            per_pair = max(per_pair, l1_distance(values_a, snap_b.q, window))
        got = sup_time_l1(report_a, report_b, window, compare=compare)
        assert got.hex() == per_pair.hex() == self.PINNED[factor, compare]


class TestWqIdentityGap:
    def test_constant_field_has_zero_gap(self):
        grid = Grid1D(0.0, 1.0, 32, left_farfield=0.6, right_farfield=0.6)
        q = CellField(grid=grid, values=np.full(32, 0.6))
        w = nonlocal_exponential(q, eta=0.1)
        assert wq_identity_gap(q, w, eta=0.1) <= 1e-14

    def test_datum_gap_small_when_kernel_resolved(self, datum_profile):
        eta = 0.01
        grid = Grid1D(-1.0, 2.0, 30000)  # dx = eta / 100
        q = sample_profile(datum_profile, grid)
        w = nonlocal_exponential(q, eta)
        gap = wq_identity_gap(q, w, eta)
        assert gap <= 0.05 * eta * total_variation(w)

    def test_gap_halves_with_dx(self, datum_profile):
        eta = 0.01
        gaps = []
        for n in (30000, 60000):
            grid = Grid1D(-1.0, 2.0, n)
            q = sample_profile(datum_profile, grid)
            w = nonlocal_exponential(q, eta)
            gaps.append(wq_identity_gap(q, w, eta))
        ratio = gaps[0] / gaps[1]
        assert 1.6 <= ratio <= 2.4

    def test_gap_term_bounded_along_a_run(self, datum_profile):
        # || W(t) - q(t) ||_L1 stays below eta * TV(q0) up to the tiny
        # cumulative TV slack of the scheme
        eta = 0.02
        grid = Grid1D(-1.0, 2.0, 512)
        q0 = sample_profile(datum_profile, grid)
        cfg = NonlocalSchemeConfig(
            kernel=KernelSpec("exponential", eta),
            velocity=linear_velocity(),
            cfl=0.5,
            t_end=1.0,
            snapshot_times=np.round(np.linspace(0.0, 1.0, 21), 12),
        )
        report = solve_nonlocal(q0, cfg)
        tv_q0 = report.tv_q_series[0]
        for snap in report.snapshots:
            l1 = float(grid.dx * np.sum(np.abs(snap.w.values[:-1] - snap.q.values)))
            assert l1 <= eta * tv_q0 * (1.0 + 1e-3) + 1e-12


class TestTestFunction:
    def test_bump_validates(self):
        phi = bump_test_function(0.5, 0.2, 0.0, 1.0, amplitude=2.0)
        assert phi.eval(0.5, 0.0) == pytest.approx(2.0)
        assert phi.eval(0.71, 0.0) == 0.0

    def test_support_is_the_centred_rectangle(self):
        assert bump_test_function is SpaceTimeTestFunction
        phi = bump_test_function(0.5, 0.2, 0.0, 1.0)
        assert phi.support == (0.3, 0.7, -1.0, 1.0)
        assert phi == bump_test_function(0.5, 0.2, 0.0, 1.0)

    def test_short_time_radius_builds(self):
        # the harness's radius t_end / 6 for t_end = 0.05: with exact
        # derivatives any finite positive radius is a valid bump
        phi = bump_test_function(0.5, 0.05 / 6, 0.5, 0.75)
        assert phi.eval(0.5, 0.5) == 1.0
        assert phi.eval(0.52, 0.5) == phi.dt_eval(0.52, 0.5) == 0.0

    @pytest.mark.parametrize("field, value", [
        *((radius, value) for radius in ("t_radius", "x_radius")
          for value in (0.0, -0.2, np.nan, np.inf)),
        *((field, value) for field in ("t_center", "x_center", "amplitude")
          for value in (np.nan, np.inf, -np.inf)),
    ])
    def test_bad_parameter_rejected(self, field, value):
        args = {"t_center": 0.5, "t_radius": 0.2, "x_center": 0.0, "x_radius": 1.0,
                field: value}
        with pytest.raises(ValueError, match="finite centres and amplitude and finite, "
                                             "positive radii; got TestFunction"):
            bump_test_function(**args)


BUMP_ARGS = (0.5, 0.4, 0.0, 0.75)


def bump_bytes(phi, t, x):
    """dtype, shape and raw bytes of phi's three evaluations at (t, x)."""
    return [(r.dtype, r.shape, r.tobytes())
            for r in (np.asarray(f(t, x)) for f in (phi.eval, phi.dt_eval, phi.dx_eval))]


def test_dx_eval_zero_at_the_centre_keeps_the_slope_sign():
    # at x = x_center the slope factor is -6 u (1 - u^2)^2: its zero is
    # -0.0 for u = 0.0 and 0.0 for u = -0.0
    phi = bump_test_function(*BUMP_ARGS)
    assert phi.dx_eval(0.5, np.array([0.0, -0.0])).tolist() == [0.0, 0.0]
    assert np.signbit(phi.dx_eval(0.5, np.array([0.0, -0.0]))).tolist() == [True, False]


def test_each_quadrature_builds_the_spatial_factors_once(monkeypatch):
    built = []
    timed = []
    spatial, at, value = (SpaceTimeTestFunction.spatial, SpaceTimeTestFunction.at,
                          SpaceTimeTestFunction.value)

    def counting(phi, x):
        built.append(np.shape(x))
        return spatial(phi, x)

    def counting_at(phi, t, bx, dbx):
        timed.append(t)
        return at(phi, t, bx, dbx)

    def counting_value(phi, t, bx):
        timed.append(t)
        return value(phi, t, bx)

    monkeypatch.setattr(SpaceTimeTestFunction, "spatial", counting)
    monkeypatch.setattr(SpaceTimeTestFunction, "at", counting_at)
    monkeypatch.setattr(SpaceTimeTestFunction, "value", counting_value)
    report = constant_run()  # 80 snapshot pairs meet the support
    phi = bump_test_function(0.25, 0.2, 0.5, 1.0)
    flux = FluxModel(velocity=linear_velocity())
    # phi's time factor: its derivatives once per pair in the support, phi
    # itself once at t = 0
    weak_residual(report, linear_velocity(), "nonlocal", phi)
    assert built == [(512,)] and len(timed) == 81
    entropy_residual(report, flux, 0.5, phi)
    assert built == [(512,)] * 2 and len(timed) == 2 * 81
    weak_and_entropy_residuals(report, "nonlocal", flux, (0.25, 0.5, 0.75), phi)
    assert built == [(512,)] * 3 and len(timed) == 3 * 81


class TestOnePassResiduals:
    """weak_and_entropy_residuals against the one-residual functions, as
    float.hex, on a dense-band 1024-cell nonlocal run with 111 snapshots."""

    LEVELS = (0.25, 0.5, 0.75)

    @pytest.fixture(scope="class")
    def run(self, datum_profile, default_velocity):
        scheme = NonlocalSchemeConfig(kernel=KernelSpec("exponential", 0.03),
                                      velocity=default_velocity, cfl=0.5, t_end=1.1,
                                      snapshot_times=np.round(np.linspace(0.0, 1.1, 111), 12))
        return solve_nonlocal(sample_profile(datum_profile, Grid1D(-1.0, 2.0, 1024)), scheme)

    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    def test_shared_pass_has_the_bits_of_each_residual(self, run, default_velocity, mode):
        flux = FluxModel(velocity=default_velocity)
        phi = bump_test_function(t_center=0.5, t_radius=0.4, x_center=0.5, x_radius=0.75)
        weak, entropy = weak_and_entropy_residuals(run, mode, flux, self.LEVELS, phi)
        assert weak.hex() == weak_residual(run, default_velocity, mode, phi).hex()
        assert [value.hex() for value in entropy] == [
            entropy_residual(run, flux, k, phi).hex() for k in self.LEVELS]

    def test_errors_are_the_single_residuals_errors(self, run, default_velocity):
        flux = FluxModel(velocity=default_velocity)
        phi = bump_test_function(0.5, 0.4, 0.5, 0.75)

        def shared(report, phi=phi):
            return weak_and_entropy_residuals(report, "nonlocal", flux, self.LEVELS, phi)

        without_w = dataclasses.replace(run, snapshots=tuple(
            dataclasses.replace(snap, w=None) for snap in run.snapshots))
        with pytest.raises(ValueError, match="needs recorded nonlocal terms"):
            shared(without_w)
        with pytest.raises(ValueError, match="too coarse"):
            shared(dataclasses.replace(run, snapshots=run.snapshots[::20]))
        with pytest.raises(ValueError, match="initial snapshot at t = 0"):
            shared(dataclasses.replace(run, snapshots=run.snapshots[1:]))
        with pytest.raises(ValueError, match="nonnegative test function"):
            shared(run, bump_test_function(0.5, 0.4, 0.5, 0.75, amplitude=-1.0))


class TestResidualBitPins:
    """Residuals of a fixed Godunov run and a fixed nonlocal run, and
    sup_time_l1, pinned as float.hex; the golden CSV digests see only the
    nonlocal weak residual and the least entropy residual."""

    @pytest.fixture(scope="class")
    def runs(self, datum_profile, default_velocity):
        times = np.round(np.linspace(0.0, 1.0, 101), 12)
        flux = FluxModel(velocity=default_velocity)
        local = solve_local(sample_profile(datum_profile, Grid1D(-1.0, 2.0, 256)), flux,
                            cfl=0.5, t_end=1.0, snapshot_times=times)
        scheme = NonlocalSchemeConfig(kernel=KernelSpec("exponential", 0.05),
                                      velocity=default_velocity, cfl=0.5, t_end=1.0,
                                      snapshot_times=times)
        nonlocal_run = solve_nonlocal(sample_profile(datum_profile, Grid1D(-1.0, 2.0, 256)),
                                      scheme)
        fine = solve_local(sample_profile(datum_profile, Grid1D(-1.0, 2.0, 1024)), flux,
                           cfl=0.5, t_end=1.0, snapshot_times=times)
        return local, nonlocal_run, fine, flux

    def test_local_weak_and_entropy_residuals(self, runs, default_velocity):
        local, _, _, flux = runs
        assert len(local.snapshots) == 101
        phi = bump_test_function(t_center=0.5, t_radius=0.4, x_center=0.5, x_radius=0.75)
        assert weak_residual(local, default_velocity, "local", phi).hex() == \
            "0x1.3005796c19969p-13"
        assert [entropy_residual(local, flux, k, phi).hex() for k in (0.25, 0.5, 0.75)] == [
            "0x1.19d46c1a87795p-4", "0x1.a68596f69f345p-4", "0x1.79e6d5f53e3c2p-4"]

    def test_nonlocal_weak_and_entropy_residuals(self, runs, default_velocity):
        _, nonlocal_run, _, flux = runs
        phi = bump_test_function(t_center=0.5, t_radius=0.4, x_center=0.5, x_radius=0.75)
        assert weak_residual(nonlocal_run, default_velocity, "nonlocal", phi).hex() == \
            "0x1.66474a6095d5dp-11"
        assert [entropy_residual(nonlocal_run, flux, k, phi).hex() for k in (0.25, 0.5, 0.75)] \
            == ["0x1.55ef22c41772fp-5", "0x1.b4f6a058a0907p-4", "0x1.aaab3d5a8b78cp-4"]

    def test_sup_time_l1_against_refined_reference(self, runs):
        _, nonlocal_run, fine, _ = runs
        window = Window(-0.3, 1.7)  # fractional end cells
        assert sup_time_l1(nonlocal_run, fine, window, compare="q").hex() == \
            "0x1.96f2662130deap-5"
        assert sup_time_l1(nonlocal_run, fine, window, compare="w").hex() == \
            "0x1.7801399ec560ap-4"


class TestBumpBitPins:
    """sha256 of the bytes of a bump's value and both derivatives, recorded
    before the bump became a closed-form class; shape and dtype pinned too."""

    PINNED = {
        "cells": ((256,), (
            "4140a1edfe7a2638581104e05aa9bcac90d626cf3049a8ee765698cf032b33e5",
            "f484184423399040653f899654919cf9e8da6d63388e332f7ad84322785f52f5",
            "8a91989ca2ebf43b8f50b0961333327908353374204f76afbadd726fce92c872")),
        "meshgrid": ((9, 7), (
            "76a6be238c3996f48a82137fd1d01e4d1c1c5327567849560bca2f0fdc30552f",
            "f30d17c66a0e33811e4456b4067858b5c629b2e66b1ce2895eb16594b12bb26f",
            "9d579a020bb29476597b321f3b62a8cbbd157d690c422ddb4fb0f30cc32a385c")),
        "scalar": ((), (
            "5210ee62b81b09925855725ca3c3737185c15bb4616bb58c2ac2882ab94a3c18",
            "574f78a53b2914921edada49709ef0b17273fe6762540395a82a5dd5252fc972",
            "99647995fe86b9f8be8dcb85fefd378cccf9b2392ad66a786c76e80356a7fb4b")),
    }

    @staticmethod
    def inputs():
        tt, xx = np.meshgrid(np.linspace(0.1, 0.9, 7), np.linspace(-0.5, 1.5, 9))
        return {"cells": (0.35, Grid1D(-1.0, 2.0, 256).cell_centers),
                "meshgrid": (tt, xx),
                "scalar": (0.62, 0.3)}

    @pytest.mark.parametrize("case", ["cells", "meshgrid", "scalar"])
    def test_bytes_match_the_recorded_digests(self, case):
        phi = bump_test_function(0.5, 0.4, 0.5, 0.75, 1.5)
        t, x = self.inputs()[case]
        shape, digests = self.PINNED[case]
        got = bump_bytes(phi, t, x)
        assert [(dtype, s) for dtype, s, _ in got] == [(np.dtype(float), shape)] * 3
        assert [hashlib.sha256(raw).hexdigest() for *_, raw in got] == list(digests)


class TestWeakResidual:
    def test_constant_state_is_an_exact_weak_solution(self):
        report = constant_run()
        phi = bump_test_function(t_center=0.25, t_radius=0.2,
                                 x_center=0.5, x_radius=1.0)
        scale = 1.0 + 0.7 * (abs(phi.support[1] - phi.support[0])
                             + abs(phi.support[3] - phi.support[2]))
        assert weak_residual(report, linear_velocity(), "nonlocal", phi) \
            <= 1e-6 * scale
        assert weak_residual(report, linear_velocity(), "local", phi) \
            <= 1e-6 * scale

    def test_zero_test_function_gives_zero(self):
        report = constant_run(n_cells=512, n_snapshots=101)
        phi = bump_test_function(0.25, 0.2, 0.5, 1.0, amplitude=0.0)
        assert weak_residual(report, linear_velocity(), "nonlocal", phi) == 0.0

    def test_insufficient_snapshot_density_rejected(self):
        report = constant_run(n_cells=64, n_snapshots=5)
        phi = bump_test_function(0.25, 0.2, 0.5, 1.0)
        with pytest.raises(ValueError, match="coarse"):
            weak_residual(report, linear_velocity(), "nonlocal", phi)

    def test_snapshots_must_cover_the_support(self):
        report = constant_run(n_cells=64, n_snapshots=101)  # snapshots up to t = 0.5
        phi = bump_test_function(t_center=0.6, t_radius=0.3, x_center=0.5, x_radius=1.0)
        with pytest.raises(ValueError) as info:
            weak_residual(report, linear_velocity(), "nonlocal", phi)
        assert str(info.value) == (
            "snapshots end at t = 0.5 but the test function is supported up to t = 0.9")

    def test_unknown_mode_rejected(self):
        report = constant_run(n_cells=64, n_snapshots=101)
        phi = bump_test_function(0.25, 0.2, 0.5, 1.0)
        with pytest.raises(ValueError, match="mode"):
            weak_residual(report, linear_velocity(), "both", phi)


class TestTransportResidual:
    def test_constant_state_vanishes(self):
        report = constant_run(n_cells=128, n_snapshots=26)
        residual = transport_residual_w(report, linear_velocity(), eta=0.05)
        assert residual <= 1e-12

    def test_inert_velocity_advects_at_first_order(self, datum_profile):
        # constant V: the transport equation reduces to plain advection and
        # the residual is bounded by C * dx (C frozen from measurement)
        velocity = constant_velocity(0.7)
        eta = 0.05
        grid = Grid1D(-1.0, 2.0, 1024)
        q0 = sample_profile(datum_profile, grid)
        cfg = NonlocalSchemeConfig(
            kernel=KernelSpec("exponential", eta),
            velocity=velocity,
            cfl=0.5,
            t_end=0.2,
            snapshot_times=np.round(np.linspace(0.0, 0.2, 41), 12),
        )
        report = solve_nonlocal(q0, cfg)
        residual = transport_residual_w(report, velocity, eta)
        assert residual <= 80.0 * grid.dx

    def test_needs_a_nonlocal_term(self):
        field = aligned_datum_field()
        local = report_from_snapshots([Snapshot(0.0, field, None), Snapshot(0.5, field, None)])
        with pytest.raises(ValueError) as info:
            transport_residual_w(local, linear_velocity(), eta=0.05)
        assert str(info.value) == "transport residual needs recorded nonlocal terms"

    def test_needs_two_snapshots(self):
        report = constant_run(n_cells=64, n_snapshots=101)
        single = dataclasses.replace(report, snapshots=report.snapshots[:1])
        with pytest.raises(ValueError, match="two snapshots"):
            transport_residual_w(single, linear_velocity(), eta=0.05)


class TestEntropyResidual:
    def test_constant_state_is_entropy_admissible(self):
        report = constant_run()
        flux = FluxModel(velocity=linear_velocity())
        phi = bump_test_function(0.25, 0.2, 0.5, 1.0)
        value = entropy_residual(report, flux, k=0.5, phi=phi)
        assert value >= -1e-10

    def test_reference_level_outside_range_reduces_to_weak_form(self):
        report = constant_run(level=0.5)
        flux = FluxModel(velocity=linear_velocity())
        phi = bump_test_function(0.25, 0.2, 0.5, 1.0)
        value = entropy_residual(report, flux, k=0.9, phi=phi)
        assert abs(value) <= 2e-6

    def test_negative_test_function_rejected(self):
        report = constant_run(n_cells=64, n_snapshots=101)
        flux = FluxModel(velocity=linear_velocity())
        negated = bump_test_function(0.25, 0.2, 0.5, 1.0, amplitude=-1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            entropy_residual(report, flux, k=0.5, phi=negated)
