import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

import nonlocal_limit.kernels as kernels
from nonlocal_limit import (
    CellField,
    Grid1D,
    KernelSpec,
    interface_to_cells,
    nonlocal_constant,
    nonlocal_exponential,
    nonlocal_term,
    reconstruct_density,
    sample_profile,
    total_variation,
)

from conftest import constant_profile, mirror_field, step_profile


def exp_average_quadrature(q, x, eta):
    """Independent adaptive-quadrature oracle for the downstream exponential
    average (1/eta) * integral_x^inf exp((x-y)/eta) q(y) dy."""
    grid = q.grid
    # constant tail beyond the window integrates in closed form
    total = grid.right_farfield * np.exp((x - grid.x_max) / eta)
    if x < grid.x_min:
        piece, _ = quad(
            lambda y: np.exp((x - y) / eta) / eta * grid.left_farfield,
            x, grid.x_min,
        )
        total += piece
    edges = grid.interfaces
    for i in range(grid.n_cells):
        lo = max(edges[i], x)
        hi = edges[i + 1]
        if hi <= lo:
            continue
        piece, _ = quad(
            lambda y, c=q.values[i]: np.exp((x - y) / eta) / eta * c, lo, hi
        )
        total += piece
    return total


def random_field(seed, n_cells=64, span=(0.0, 1.0), hi=2.0):
    rng = np.random.default_rng(seed)
    grid = Grid1D(
        span[0], span[1], n_cells,
        left_farfield=float(rng.uniform(0, hi)),
        right_farfield=float(rng.uniform(0, hi)),
    )
    return CellField(grid=grid, values=rng.uniform(0.0, hi, n_cells))


bounded_values = arrays(
    np.float64,
    st.integers(min_value=2, max_value=48),
    elements=st.floats(min_value=0.0, max_value=4.0, allow_nan=False,
                       allow_infinity=False, width=64),
)
farfields = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
etas = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


class TestKernelSpec:
    def test_rejects_bad_family_and_orientation(self):
        with pytest.raises(ValueError):
            KernelSpec(family="gaussian", eta=0.1)
        with pytest.raises(ValueError):
            KernelSpec(family="exponential", eta=0.1, orientation="sideways")

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive_eta(self, eta):
        with pytest.raises(ValueError):
            KernelSpec(family="exponential", eta=eta)


class TestExponential:
    def test_constant_state_is_fixed(self):
        field = sample_profile(constant_profile(0.8), Grid1D(-1.0, 1.0, 32))
        w = nonlocal_exponential(field, eta=0.3)
        np.testing.assert_allclose(w.values, 0.8, rtol=1e-14)

    def test_step_at_minus_eta(self):
        # average of the unit step evaluated one kernel width upstream of the
        # jump: exp(-1), cross-checked against the quadrature oracle
        eta = 0.25
        field = sample_profile(step_profile(0.0), Grid1D(-1.0, 1.0, 8))
        w = nonlocal_exponential(field, eta)
        idx = 3  # interface at -0.25 = -eta
        assert field.grid.interfaces[idx] == pytest.approx(-eta)
        assert w.values[idx] == pytest.approx(np.exp(-1.0), rel=1e-13)
        oracle = exp_average_quadrature(field, -eta, eta)
        assert w.values[idx] == pytest.approx(oracle, rel=1e-11)

    def test_datum_at_half(self, datum_profile):
        # only the rightmost plateau contributes on (1/3, 2/3):
        # W(0.5) = exp((0.5 - 2/3)/eta) = exp(-5/3) for eta = 0.1
        eta = 0.1
        grid = Grid1D(-1.0, 2.0, 18)  # dx = 1/6 aligns 0, 1/3, 1/2 and 2/3
        field = sample_profile(datum_profile, grid)
        w = nonlocal_exponential(field, eta)
        idx = 9
        assert grid.interfaces[idx] == pytest.approx(0.5)
        assert w.values[idx] == pytest.approx(np.exp(-5.0 / 3.0), rel=1e-13)
        oracle = exp_average_quadrature(field, 0.5, eta)
        assert w.values[idx] == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("eta", [0.02, 0.17, 1.3])
    def test_recursion_matches_quadrature_oracle_everywhere(self, seed, eta):
        field = random_field(seed)
        w = nonlocal_exponential(field, eta)
        oracle = np.array(
            [exp_average_quadrature(field, x, eta) for x in field.grid.interfaces]
        )
        np.testing.assert_allclose(w.values, oracle, rtol=1e-10)

    def test_eta_below_cell_width_returns_cell_values(self):
        field = random_field(7)
        dx = field.grid.dx
        w = nonlocal_exponential(field, eta=dx / 50.0)
        np.testing.assert_allclose(w.values[:-1], field.values, atol=1e-12)

    def test_rejects_nonpositive_eta(self):
        field = random_field(0)
        with pytest.raises(ValueError):
            nonlocal_exponential(field, 0.0)


class TestConstant:
    def test_constant_state_is_fixed(self):
        field = sample_profile(constant_profile(0.8), Grid1D(-1.0, 1.0, 32))
        w = nonlocal_constant(field, eta=0.3)
        np.testing.assert_allclose(w.values, 0.8, rtol=1e-14)

    def test_step_half_window(self):
        # window [-eta/2, eta/2] splits evenly across the jump
        eta = 0.5
        field = sample_profile(step_profile(0.0), Grid1D(-1.0, 1.0, 8))
        w = nonlocal_constant(field, eta)
        idx = 3  # interface at -0.25 = -eta/2
        assert w.values[idx] == pytest.approx(0.5, abs=1e-14)

    def test_datum_window_split(self, datum_profile):
        # x = 2/3 - eta/2: half the window on the zero plateau, half on the
        # unit plateau
        eta = 1.0 / 6.0
        grid = Grid1D(-1.0, 2.0, 36)  # dx = 1/12
        field = sample_profile(datum_profile, grid)
        w = nonlocal_constant(field, eta)
        idx = 19  # interface at 7/12 = 2/3 - eta/2
        assert grid.interfaces[idx] == pytest.approx(2.0 / 3.0 - eta / 2.0)
        assert w.values[idx] == pytest.approx(0.5, abs=1e-13)

    def test_window_longer_than_domain_uses_farfield(self):
        field = sample_profile(step_profile(0.0), Grid1D(-1.0, 1.0, 16))
        w = nonlocal_constant(field, eta=100.0)
        # almost the whole window sits in the right far-field state 1
        assert w.values[0] == pytest.approx(1.0, abs=0.02)

    def test_rejects_nonpositive_eta(self):
        field = random_field(0)
        with pytest.raises(ValueError):
            nonlocal_constant(field, -0.1)


def test_operator_and_inverse_share_one_exponential_weight(monkeypatch):
    # alpha = exp(-dx/eta) has one home, so the operator and its inverse
    # cannot drift apart
    calls = []
    weight = kernels._exponential_weight

    def recording(dx, eta):
        calls.append((dx, eta))
        return weight(dx, eta)

    monkeypatch.setattr(kernels, "_exponential_weight", recording)
    q = random_field(3)
    w = nonlocal_exponential(q, 0.05)
    reconstruct_density(w, 0.05)
    assert calls == [(q.grid.dx, 0.05)] * 2
    assert weight(q.grid.dx, 0.05) == float(np.exp(-q.grid.dx / 0.05))


class TestReconstruction:
    def test_constant_roundtrip(self):
        field = sample_profile(constant_profile(1.3), Grid1D(0.0, 1.0, 16))
        w = nonlocal_exponential(field, eta=0.2)
        back = reconstruct_density(w, eta=0.2)
        np.testing.assert_allclose(back.values, 1.3, rtol=1e-13)

    @pytest.mark.parametrize("eta", [0.005, 0.05, 0.5])
    def test_randomized_roundtrip(self, eta):
        for seed in range(5):
            field = random_field(seed, n_cells=256, hi=1.0)
            w = nonlocal_exponential(field, eta)
            back = reconstruct_density(w, eta)
            assert float(np.max(np.abs(back.values - field.values))) <= 1e-12

    def test_small_eta_limit_returns_left_interface(self):
        field = random_field(3)
        eta = field.grid.dx / 40.0
        w = nonlocal_exponential(field, eta)
        back = reconstruct_density(w, eta)
        np.testing.assert_allclose(back.values, w.values[:-1], atol=1e-12)

    def test_ill_conditioned_eta_raises(self):
        field = random_field(0)
        w = nonlocal_exponential(field, eta=1.0)
        with pytest.raises(ValueError, match="ill-conditioned"):
            reconstruct_density(w, eta=1e18)


class TestOrientation:
    def test_upstream_step_value(self):
        # left-looking average of the unit step at x = +eta: 1 - exp(-1)
        eta = 0.25
        field = sample_profile(step_profile(0.0), Grid1D(-1.0, 1.0, 8))
        w = nonlocal_term(field, KernelSpec("exponential", eta, "upstream"))
        idx = 5  # interface at +0.25
        assert field.grid.interfaces[idx] == pytest.approx(eta)
        assert w.values[idx] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-13)

    @pytest.mark.parametrize("family", ["exponential", "constant"])
    def test_upstream_is_mirrored_downstream(self, family):
        field = random_field(11)
        eta = 0.13
        up = nonlocal_term(field, KernelSpec(family, eta, "upstream"))
        down_mirrored = nonlocal_term(mirror_field(field), KernelSpec(family, eta))
        np.testing.assert_allclose(up.values, down_mirrored.values[::-1], rtol=1e-14)

    def test_interface_to_cells_uses_left_interface(self):
        field = random_field(2)
        w = nonlocal_exponential(field, eta=0.1)
        np.testing.assert_array_equal(interface_to_cells(w).values, w.values[:-1])


def lfilter_average(field, spec):
    """The exponential average through the public ``scipy.signal.lfilter``:
    the reference whose bits the operator must keep."""
    from scipy.signal import lfilter
    grid = field.grid
    downstream = spec.orientation == "downstream"
    q = field.values if downstream else field.values[::-1]
    farfield = grid.right_farfield if downstream else grid.left_farfield
    alpha = float(np.exp(-grid.dx / spec.eta))
    filtered, _ = lfilter(np.array([1.0 - alpha]), np.array([1.0, -alpha]), q[::-1],
                          zi=np.array([alpha * farfield]))
    w = np.append(filtered[::-1], farfield)
    return w if downstream else w[::-1]


class TestExponentialRecursion:
    """The exponential operator runs the recursion in lfilter's order, so
    every path through it gives lfilter's bits."""

    @pytest.mark.parametrize("orientation", ["downstream", "upstream"])
    @pytest.mark.parametrize("datum", ["random", "zeros"])
    # alpha = exp(-dx/eta) is 0.5 at dx/eta = ln 2 and 0.999 at dx/eta = 1e-3
    @pytest.mark.parametrize("dx_over_eta", [np.log(2.0) * (1 - 1e-12), np.log(2.0),
                                             np.log(2.0) * (1 + 1e-12), 1e-3])
    def test_equals_lfilter_bit_for_bit(self, orientation, datum, dx_over_eta):
        field = random_field(5, n_cells=257)
        if datum == "zeros":
            values = np.where(np.arange(257) % 3 == 0, 0.0, field.values)
            values[100:140] = 0.0
            grid = Grid1D(0.0, 1.0, 257, left_farfield=0.0, right_farfield=0.0)
            field = CellField(grid=grid, values=values)
        spec = KernelSpec("exponential", field.grid.dx / dx_over_eta, orientation)
        evaluate = kernels.kernel_operator(spec, field.grid)
        expected = lfilter_average(field, spec)
        assert np.array_equal(evaluate(field.values), expected)
        assert np.array_equal(nonlocal_term(field, spec).values, expected)

    def test_operator_refuses_arrays_it_cannot_point_at(self):
        field = random_field(5, n_cells=16)
        evaluate = kernels.kernel_operator(KernelSpec("exponential", 0.1), field.grid)
        for values in [field.values[:-1], field.values.astype(np.float32),
                       np.repeat(field.values, 2)[::2]]:
            with pytest.raises(ValueError, match="contiguous.*float64 array of"):
                evaluate(values)


def test_one_average_can_be_shared_across_threads():
    # an Average holds parameters only: two threads calling one constant-kernel
    # operator at once, on different data, each get the bits of a call alone
    grid = Grid1D(0.0, 1.0, 200_000, left_farfield=0.25, right_farfield=0.5)
    average = kernels.kernel_operator(KernelSpec("constant", 0.01), grid)
    rng = np.random.default_rng(11)
    data = [rng.uniform(0.0, 1.0, grid.n_cells), rng.uniform(0.0, 0.5, grid.n_cells)]
    alone = [average(q).tobytes() for q in data]
    start = threading.Barrier(2)

    def wrong_calls(q, expected):
        start.wait()
        return sum(average(q).tobytes() != expected for _ in range(100))

    with ThreadPoolExecutor(2) as pool:
        assert list(pool.map(wrong_calls, data, alone)) == [0, 0]


@settings(max_examples=40, deadline=None)
@given(values=bounded_values, left=farfields, right=farfields, eta=etas)
@pytest.mark.parametrize("kernel", [nonlocal_exponential, nonlocal_constant])
def test_averaging_bounds(kernel, values, left, right, eta):
    grid = Grid1D(0.0, 1.0, len(values), left_farfield=left, right_farfield=right)
    field = CellField(grid=grid, values=values)
    w = kernel(field, eta)
    lo = min(float(np.min(values)), left, right)
    hi = max(float(np.max(values)), left, right)
    slack = 1e-12 * max(1.0, hi)
    assert float(np.min(w.values)) >= lo - slack
    assert float(np.max(w.values)) <= hi + slack


@settings(max_examples=40, deadline=None)
@given(values=bounded_values, left=farfields, right=farfields, eta=etas)
@pytest.mark.parametrize("kernel", [nonlocal_exponential, nonlocal_constant])
def test_kernel_contracts_total_variation(kernel, values, left, right, eta):
    grid = Grid1D(0.0, 1.0, len(values), left_farfield=left, right_farfield=right)
    field = CellField(grid=grid, values=values)
    w = kernel(field, eta)
    tv_q = total_variation(field)
    assert total_variation(w) <= tv_q * (1.0 + 1e-12) + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    values=bounded_values,
    eta=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    a=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    b=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_exponential_average_is_linear(values, eta, a, b):
    n = len(values)
    rng = np.random.default_rng(n)
    other = rng.uniform(0.0, 4.0, n)
    grid1 = Grid1D(0.0, 1.0, n, left_farfield=0.5, right_farfield=1.5)
    grid2 = Grid1D(0.0, 1.0, n, left_farfield=1.0, right_farfield=0.25)
    combined_grid = Grid1D(
        0.0, 1.0, n,
        left_farfield=a * 0.5 + b * 1.0,
        right_farfield=a * 1.5 + b * 0.25,
    )
    w1 = nonlocal_exponential(CellField(grid=grid1, values=values), eta)
    w2 = nonlocal_exponential(CellField(grid=grid2, values=other), eta)
    combined = CellField(grid=combined_grid, values=a * values + b * other)
    w_combined = nonlocal_exponential(combined, eta)
    np.testing.assert_allclose(
        w_combined.values, a * w1.values + b * w2.values, atol=1e-10, rtol=1e-10
    )


@pytest.mark.parametrize("kernel", [nonlocal_exponential, nonlocal_constant])
def test_cost_scales_linearly(kernel):
    # The exponent of a least-squares fit of log time on log n over 4k-1M
    # cells may not exceed log2(2.5) = 1.32, so cost growing faster than
    # n^1.32 fails.  A fit over a 256-fold range of sizes absorbs the step in
    # cost per cell where the arrays outgrow the L2 cache, which a ratio of two
    # neighbouring sizes reads as superlinear growth.
    def best_time(n):
        rng = np.random.default_rng(n)
        field = CellField(
            grid=Grid1D(0.0, 1.0, n, right_farfield=1.0),
            values=rng.uniform(0.0, 1.0, n),
        )
        timings = []
        for _ in range(7):
            start = time.perf_counter()
            kernel(field, eta=0.01)
            timings.append(time.perf_counter() - start)
        return min(timings)

    sizes = 2 ** np.arange(12, 21)
    times = [best_time(n) for n in sizes]
    exponent = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert exponent <= np.log2(2.5)
