import contextlib
import errno
import functools
import json
import logging
import os
import pickle
import resource
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import nonlocal_limit.cli as cli
import nonlocal_limit.harness as harness
import nonlocal_limit.plot_script as plot_script
from nonlocal_limit import (
    ConfigError,
    FluxModel,
    ModeViolationError,
    NonlocalSchemeConfig,
    NumericalBlowupError,
    VelocityModel,
    Window,
    sample_profile,
    solve_local,
    solve_nonlocal,
    sup_time_l1,
    wq_identity_gap,
)
from nonlocal_limit import TestFunction as SpaceTimeTestFunction
from nonlocal_limit.harness import (
    PLOT_SCRIPT_NAME,
    SWEEP_COLUMNS,
    config_from_dict,
    emit_plot_script,
    eta_dirname,
    parse_config,
    perturbed_initial_field,
    run_single,
    run_stability_probe,
    run_sweep,
    serialize_config,
    sweep_cells_for_eta,
)

from conftest import force_nonlocal_steps

SMALL_DOC = {
    "grid": {"n_cells": 256},
    "eta_list": [0.3],
    "t_end": 1.0,
    "reference_refinement": 4,
}


# Configs that the parse once accepted and that the runs then mishandled,
# with the message each is now refused with at parse:
MISHANDLED_DOCS = [
    # 1e-12 outside the domain passed the parse's absolute slack; a sweep
    # solved every run, then its L1 window check (1e-12 of the span) failed
    ({"grid": {"n_cells": 32, "x_min": 0.0, "x_max": 0.001},
      "profile": {"breakpoints": [0.0005], "levels": [0.2, 0.6]}, "eta_list": [0.001],
      "t_end": 0.001, "reference_refinement": 4, "window": {"lo": -5e-13, "hi": 0.001}},
     "window [-5e-13, 0.001] must sit inside the grid domain [0.0, 0.001]"),
    # a finite span whose last cell centres overflowed to inf in snapshots.csv
    ({"grid": {"n_cells": 64, "x_min": 0.0, "x_max": 1.7e308}, "eta_list": [0.3],
      "t_end": 0.1},
     "grid cell centres overflow, got [0.0, 1.7e+308]; the bounds must lie within "
     "+-8.98847e+307"),
    # a time within t_end + 1e-12 whose 12-digit rounding the schedule dropped
    ({"grid": {"n_cells": 64}, "eta_list": [0.3], "t_end": 0.3,
      "snapshot_times": [0.0, 0.3000000000009]},
     "snapshot_times must lie in [0, t_end], got [0.0, 0.300000000001]"),
]


def small_config(**overrides):
    doc = {**SMALL_DOC, **overrides}
    return config_from_dict(doc)


@contextlib.contextmanager
def no_descriptor_left():
    """Assert that the block leaves this process's open file descriptors as
    it found them; no check where /proc/self/fd does not exist."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == before


def forks_children():
    """Whether harness._run_tasks can run tasks in child processes here."""
    return (sys.platform == "linux" and hasattr(os, "fork") and hasattr(os, "memfd_create")
            and threading.active_count() == 1)


@pytest.fixture
def cpus(monkeypatch):
    """Make harness._run_tasks see ``cpus(n)`` usable CPUs, so its shares
    do not depend on the host; skips where it runs every task in-process."""
    if not forks_children():
        pytest.skip("the tasks would run in this process")

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def children_of(pid):
    """Pids whose parent is ``pid``, from /proc."""
    children = set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:  # the process ended
            continue
        if int(fields[1]) == pid:
            children.add(int(entry))
    return children


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestParseConfig:
    def test_minimal_document_resolves_defaults(self):
        cfg = parse_config("{}")
        assert cfg.velocity_name == "linear"
        assert cfg.cfl == 0.5
        assert (cfg.window_lo, cfg.window_hi) == (-1.0, 2.0)
        assert cfg.eta_list == (0.1, 0.01, 0.001)
        assert cfg.n_cells == 4096
        assert cfg.reference_refinement == 8
        assert cfg.snapshot_times[0] == 0.0
        assert cfg.snapshot_times[-1] == pytest.approx(1.5)

    def test_round_trip(self):
        cfg = parse_config(json.dumps({"eta_list": [0.1, 0.01, 0.001]}))
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("family", ["exponential", "constant"])
    @pytest.mark.parametrize("velocity, orientation", [
        ({"name": "linear", "v_max": 2.0}, "downstream"),
        ({"name": "quadratic", "s_max": 3.0}, "downstream"),
        ({"name": "constant", "value": 0.5}, "downstream"),
        ({"name": "constant", "value": -0.5}, "upstream"),
        ({"name": "linear_increasing"}, "upstream"),
    ])
    def test_round_trip_every_velocity_and_kernel(self, velocity, orientation, family):
        cfg = config_from_dict({"velocity": velocity,
                                "kernel": {"family": family, "orientation": orientation}})
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("doc, message", [
        ([], "config must be an object"),
        ({"grid": 3}, "grid must be an object"),
        ({"grid": {"n_cells": 1}}, "grid.n_cells must be >= 2, got 1"),
        ({"grid": {"n_cells": 2.5}}, "grid.n_cells must be an integer, got 2.5"),
        ({"grid": {"n_cells": True}}, "grid.n_cells must be an integer, got True"),
        ({"cfl": True}, "cfl must be a finite number"),
        ({"profile": {"levels": "a"}}, "profile.levels must be a list of numbers"),
        ({"eta_list": []}, "eta_list must not be empty"),
        ({"kernel": {"family": "gauss"}},
         "kernel.family must be one of ('exponential', 'constant'), got 'gauss'"),
        ({"velocity": {"name": "constant", "v_max": 1}}, "unknown key velocity.v_max"),
        ({"velocity": {"name": "linear", "value": 1}}, "unknown key velocity.value"),
        ({"velocity": {"name": "quadratic", "v_max": -1}}, "velocity.v_max must be >= 0, got -1.0"),
        # --out names the output directory; the config has no output_dir key
        ({"output_dir": "out"}, "unknown key output_dir"),
        ({"grid": {"x_min": 2.0, "x_max": -1.0}},
         "grid.x_min must be < grid.x_max, got [2.0, -1.0]"),
        ({"grid": {"x_min": -1e308, "x_max": 1e308}},
         "grid.x_max - grid.x_min overflows, got [-1e+308, 1e+308]"),
        ({"profile": {"breakpoints": [], "levels": [-0.5]}},
         "profile.levels[0] must be nonnegative, got -0.5"),
        ({"profile": {"breakpoints": [0.5, 0.2], "levels": [0.0, 1.0, 0.0]}},
         "profile.breakpoints must be strictly increasing"),
        ({"snapshot_times": [0.5, 0.5]}, "snapshot_times must be strictly increasing"),
    ])
    def test_single_fault_message(self, doc, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("doc, message", MISHANDLED_DOCS, ids=["window", "grid", "times"])
    def test_mishandled_configs_are_refused(self, doc, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("doc", [{"t_end": 0}, {"t_end": -1.0, "snapshot_times": []}])
    def test_nonpositive_t_end_refused(self, doc):
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == f"t_end must be positive, got {float(doc['t_end'])}"

    @pytest.mark.parametrize("x_max, outside", [(0.001, 5e-16), (1000.0, 5e-10)],
                             ids=["span-below-1", "span-above-1"])
    def test_window_slack_is_a_share_of_the_span(self, tmp_path, x_max, outside):
        # up to 1e-12 of the span outside the domain: accepted at parse and
        # by the sweep's L1 windows; past it, refused at parse
        doc = {"grid": {"n_cells": 32, "x_min": 0.0, "x_max": x_max}, "eta_list": [x_max],
               "t_end": 0.001, "reference_refinement": 4}
        cfg = config_from_dict({**doc, "window": {"lo": -outside, "hi": x_max + outside}})
        run_sweep(cfg, tmp_path)
        assert (tmp_path / "sweep.csv").is_file()
        with pytest.raises(ConfigError, match="must sit inside the grid domain"):
            config_from_dict({**doc, "window": {"lo": -4 * outside, "hi": x_max}})

    @pytest.mark.parametrize("k", range(0, 15, 2))
    def test_configured_time_is_refused_or_written(self, tmp_path, k):
        doc = {"grid": {"n_cells": 64}, "eta_list": [0.3], "t_end": 0.3,
               "snapshot_times": [0.0, 0.3 + k * 1e-13]}
        try:
            cfg = config_from_dict(doc)
        except ConfigError:
            return
        run_single(cfg, 0.3, tmp_path)
        _, rows = read_csv(tmp_path / eta_dirname(0.3) / "snapshots.csv")
        assert len({row[0] for row in rows}) == 2

    def test_default_snapshot_times_end_at_t_end(self):
        assert config_from_dict({"t_end": 0.12}).snapshot_times == (0.0, 0.05, 0.1, 0.12)

    def test_partial_profile_is_filled_in(self):
        cfg = config_from_dict({"profile": {"levels": [0.3]}})
        assert (cfg.breakpoints, cfg.levels) == ((), (0.3,))
        cfg = config_from_dict({"profile": {}})
        assert (cfg.breakpoints, cfg.levels) == ((), (0.0,))
        cfg = config_from_dict({})
        assert cfg.breakpoints == (0.0, 1.0 / 3.0, 2.0 / 3.0)
        assert cfg.levels == (0.0, 0.5, 0.0, 1.0)

    def test_nonpositive_eta_named_by_index(self):
        with pytest.raises(ConfigError, match=r"eta_list\[2\]"):
            parse_config(json.dumps({"eta_list": [0.1, 0.01, -0.001]}))

    def test_non_decreasing_eta_rejected(self):
        with pytest.raises(ConfigError, match=r"eta_list\[1\]"):
            parse_config(json.dumps({"eta_list": [0.1, 0.1]}))

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ConfigError, match="unknown key frequency"):
            parse_config(json.dumps({"frequency": 3}))
        with pytest.raises(ConfigError, match="unknown key grid.dz"):
            parse_config(json.dumps({"grid": {"dz": 0.1}}))
        with pytest.raises(ConfigError, match="unknown key kernel.width"):
            parse_config(json.dumps({"kernel": {"width": 0.1}}))

    def test_malformed_document(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")

    def test_window_must_sit_inside_domain(self):
        with pytest.raises(ConfigError, match="window"):
            parse_config(json.dumps({"window": {"lo": -5.0, "hi": 0.0}}))

    def test_profile_level_count_checked(self):
        with pytest.raises(ConfigError, match="profile.levels"):
            parse_config(json.dumps({"profile": {"breakpoints": [0.0],
                                                 "levels": [1.0]}}))

    def test_bad_velocity_name(self):
        with pytest.raises(ConfigError, match="velocity.name"):
            parse_config(json.dumps({"velocity": {"name": "sigmoid"}}))

    @pytest.mark.parametrize("name", [[], {}])
    def test_unhashable_velocity_name_rejected(self, name):
        with pytest.raises(ConfigError, match="velocity.name"):
            parse_config(json.dumps({"velocity": {"name": name}}))

    def test_cfl_bounds(self):
        with pytest.raises(ConfigError, match="cfl"):
            parse_config(json.dumps({"cfl": 1.5}))

    @pytest.mark.parametrize("doc", [
        {"kernel": {"orientation": "upstream"}},
        {"velocity": {"name": "linear_increasing"}},
    ])
    def test_mispaired_orientation_rejected(self, doc):
        with pytest.raises(ConfigError, match="kernel.orientation"):
            parse_config(json.dumps(doc))

    def test_reference_refinement_minimum(self):
        with pytest.raises(ConfigError, match="reference_refinement"):
            parse_config(json.dumps({"reference_refinement": 2}))


class TestRunSingle:
    def test_writes_expected_files(self, tmp_path):
        cfg = small_config()
        report = run_single(cfg, 0.3, output_dir=tmp_path)
        out = tmp_path / eta_dirname(0.3)
        header, rows = read_csv(out / "snapshots.csv")
        assert header == ["time", "cell_index", "x_center", "q", "W"]
        assert len(rows) % cfg.n_cells == 0
        header, rows = read_csv(out / "tv_series.csv")
        assert header == ["step", "time", "tv_q", "tv_W", "mass"]
        assert len(rows) == report.n_steps + 1
        header, rows = read_csv(out / "diagnostics.csv")
        assert header == ["name", "value"]
        assert [r[0] for r in rows] == [
            "wq_identity_gap", "weak_residual", "transport_residual_W",
            "entropy_residual_min", "max_principle_violation",
        ]

    def test_eta_must_be_configured(self, tmp_path):
        with pytest.raises(ConfigError, match="eta_list"):
            run_single(small_config(), 0.123, output_dir=tmp_path)

    def test_constant_kernel_variant_completes(self, tmp_path):
        cfg = small_config(kernel={"family": "constant"})
        run_single(cfg, 0.3, output_dir=tmp_path)
        header, rows = read_csv(tmp_path / eta_dirname(0.3) / "diagnostics.csv")
        values = dict(rows)
        # the transport identity only applies to the exponential kernel
        assert values["transport_residual_W"] == "nan"
        assert float(values["max_principle_violation"]) <= 1e-12

    def test_stasis_run_writes_nan_residuals(self, tmp_path):
        # with V = 0 no residual test function fits, so the residual rows are nan
        run_single(small_config(velocity={"name": "constant", "value": 0.0}), 0.3,
                   output_dir=tmp_path)
        values = dict(read_csv(tmp_path / eta_dirname(0.3) / "diagnostics.csv")[1])
        for name in ("weak_residual", "transport_residual_W", "entropy_residual_min"):
            assert values[name] == "nan"

    def test_zero_profile_run_is_silent(self, tmp_path):
        cfg = small_config(profile={"breakpoints": [], "levels": [0.0]})
        report = run_single(cfg, 0.3, output_dir=tmp_path)
        np.testing.assert_array_equal(report.tv_q_series, 0.0)
        np.testing.assert_array_equal(report.tv_w_series, 0.0)
        np.testing.assert_array_equal(report.mass_series, 0.0)
        values = dict(read_csv(tmp_path / eta_dirname(0.3) / "diagnostics.csv")[1])
        assert float(values["wq_identity_gap"]) == 0.0
        assert float(values["weak_residual"]) == 0.0
        assert float(values["transport_residual_W"]) == 0.0
        assert float(values["max_principle_violation"]) == 0.0

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = small_config()
        run_single(cfg, 0.3, output_dir=tmp_path / "a")
        run_single(cfg, 0.3, output_dir=tmp_path / "b")
        for name in ("snapshots.csv", "tv_series.csv", "diagnostics.csv"):
            first = (tmp_path / "a" / eta_dirname(0.3) / name).read_bytes()
            second = (tmp_path / "b" / eta_dirname(0.3) / name).read_bytes()
            assert first == second


class TestRunSweep:
    def test_sweep_writes_rows_and_reference_once(self, tmp_path, monkeypatch):
        local_solves = tmp_path / "local_solves.txt"

        def counted(*args, **kwargs):
            # a child process may run the reference: count in a file
            with open(local_solves, "a", encoding="utf-8") as fh:
                fh.write("solve_local\n")
            return solve_local(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_local", counted)
        cfg = small_config(eta_list=[0.3, 0.15])
        result = run_sweep(cfg, output_dir=tmp_path)
        assert local_solves.read_text(encoding="utf-8").splitlines() == ["solve_local"]
        assert len(result.reports) == 2
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == list(SWEEP_COLUMNS)
        assert len(rows) == 2
        assert (tmp_path / "reference" / "tv_series.csv").is_file()
        assert (tmp_path / "reference" / "snapshots.csv").is_file()
        for eta in (0.3, 0.15):
            assert (tmp_path / eta_dirname(eta) / "snapshots.csv").is_file()

    def test_no_child_process_outlives_a_call(self, tmp_path, monkeypatch):
        cfg = small_config(eta_list=[0.3, 0.15])
        with no_descriptor_left():
            run_sweep(cfg, output_dir=tmp_path / "sweep")
            run_stability_probe(cfg, 0.01, output_dir=tmp_path / "probe")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        def fail(cfg, report, q0, eta):
            raise ValueError("synthetic diagnostics failure")

        monkeypatch.setattr(harness, "_run_diagnostics", fail)
        with no_descriptor_left(), pytest.raises(ValueError, match="synthetic diagnostics failure"):
            run_sweep(cfg, output_dir=tmp_path / "failed")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_cpu_runs_in_process_with_the_same_bytes(self, tmp_path, monkeypatch):
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        cfg = small_config(eta_list=[0.3, 0.15])
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            run_sweep(cfg, output_dir=tmp_path / "one")
        finally:
            os.sched_setaffinity(0, cpus)
        assert forks == []
        run_sweep(cfg, output_dir=tmp_path / "all")
        if len(cpus) > 1 and threading.active_count() == 1:
            # one share per CPU for the reference and two etas; this process runs one
            assert len(forks) == min(3, len(cpus)) - 1
        one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*.csv"))
        assert one == sorted(p.relative_to(tmp_path / "all")
                             for p in (tmp_path / "all").rglob("*.csv"))
        assert len(one) == 9
        for rel in one:
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "all" / rel).read_bytes()

    def test_grid_couples_to_eta(self):
        cfg = small_config(eta_list=[0.3, 0.15])
        span = cfg.x_max - cfg.x_min
        for eta in cfg.eta_list:
            n = sweep_cells_for_eta(cfg, eta)
            assert span / n <= eta / 10.0
            assert n >= cfg.n_cells
            assert (cfg.n_cells * cfg.reference_refinement) % n == 0

    def test_insufficient_refinement_rejected(self):
        cfg = small_config(eta_list=[0.3, 0.02])
        with pytest.raises(ConfigError, match="reference_refinement"):
            sweep_cells_for_eta(cfg, 0.02)

    def test_tiny_eta_stops_doubling_past_the_reference_grid(self):
        # doubling on until dx <= eta/10 made an int too large for a float
        cfg = small_config(eta_list=[1e-308])
        with pytest.raises(ConfigError) as info:
            sweep_cells_for_eta(cfg, 1e-308)
        assert str(info.value) == (
            "eta = 1e-308 needs at least 2048 cells but the reference grid of 1024 cells is "
            "not an integer refinement; raise reference_refinement")

    def test_upstream_sweep_mirrors_downstream_sweep(self, tmp_path):
        # x -> -x maps the downstream law with V = 1 - s on [-1, 2] onto the
        # upstream law with V = s - 1 on [-2, 1], Godunov reference included.
        # The W columns are left out: W is restricted to each cell's left
        # interface, which the mirror does not preserve.
        down = small_config(eta_list=[0.3, 0.15], t_end=0.5)
        up = small_config(
            eta_list=[0.3, 0.15], t_end=0.5,
            grid={"x_min": -2.0, "x_max": 1.0, "n_cells": 256},
            profile={"breakpoints": [-2.0 / 3.0, -1.0 / 3.0, 0.0],
                     "levels": [1.0, 0.0, 0.5, 0.0]},
            velocity={"name": "linear_increasing"},
            kernel={"orientation": "upstream"},
        )
        down_result = run_sweep(down, output_dir=tmp_path / "down")
        up_result = run_sweep(up, output_dir=tmp_path / "up")
        for down_row, up_row in zip(down_result.rows, up_result.rows, strict=True):
            for column in ("sup_time_l1_q_vs_ref", "tv_W_max", "tv_q_final"):
                assert up_row[column] == pytest.approx(down_row[column], abs=1e-12)
        down_snaps = down_result.reference.snapshots
        up_snaps = up_result.reference.snapshots
        assert len(up_snaps) == len(down_snaps)
        for down_snap, up_snap in zip(down_snaps, up_snaps):
            np.testing.assert_allclose(up_snap.q.values, down_snap.q.values[::-1],
                                       rtol=0.0, atol=1e-12)

    def test_single_entry_sweep_matches_manual_composition(self, tmp_path):
        cfg = small_config()
        result = run_sweep(cfg, output_dir=tmp_path)
        row = result.rows[0]

        ref_grid = cfg.build_grid(cfg.n_cells * cfg.reference_refinement)
        ref_q0 = sample_profile(cfg.build_profile(), ref_grid)
        reference = solve_local(
            ref_q0, FluxModel(velocity=cfg.build_velocity()), cfl=cfg.cfl,
            t_end=cfg.t_end, snapshot_times=cfg.merged_snapshot_times,
        )
        expected = sup_time_l1(result.reports[0], reference,
                               Window(cfg.window_lo, cfg.window_hi))
        assert row["sup_time_l1_q_vs_ref"] == pytest.approx(expected, rel=1e-12)


def snapshot_blocks(path):
    """(time, row count) of each run of equal-time rows in a snapshots.csv."""
    blocks = []
    for row in read_csv(path)[1]:
        if blocks and blocks[-1][0] == row[0]:
            blocks[-1][1] += 1
        else:
            blocks.append([row[0], 1])
    return blocks


def landed_times(requests, report):
    """The distinct times, as written, of the solver steps the requests land on."""
    steps = np.clip(np.rint(np.asarray(requests) / report.dt_used).astype(int),
                    0, report.n_steps)
    return [format(step * report.dt_used, ".17g") for step in sorted(set(steps.tolist()))]


# t_end is not configured; 0.4 and 0.4001 land on one step of every grid
# below, and the 256-cell runs are fine enough for the residual band
SNAPSHOT_DOC = {"grid": {"n_cells": 256}, "eta_list": [0.3, 0.15], "reference_refinement": 4,
                "snapshot_times": [0.0, 0.4, 0.4001, 0.75]}
HEADER = "time,cell_index,x_center,q,W\n"


class TestWriteCsv:
    """A CSV appears under its name only once it is whole."""

    def test_a_failing_block_iterable_leaves_no_file(self, tmp_path):
        def blocks():
            yield b"1,2\n"
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            harness._write_csv(tmp_path / "out.csv", ("a", "b"), blocks())
        assert list(tmp_path.iterdir()) == []

    def test_a_whole_file_keeps_the_default_permissions(self, tmp_path):
        harness._write_csv(tmp_path / "out.csv", ("a", "b"), [b"1,2\n"])
        (tmp_path / "plain").write_bytes(b"")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "plain"]
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\n1,2\n"
        assert (tmp_path / "out.csv").stat().st_mode == (tmp_path / "plain").stat().st_mode


class TestSnapshotsCsv:
    """snapshots.csv holds one block per configured snapshot step; the
    residual band stays in the in-memory report."""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_only_configured_times_are_written(self, tmp_path, command):
        cfg = config_from_dict(SNAPSHOT_DOC)
        if command == "run":
            reports = {eta_dirname(0.3): run_single(cfg, 0.3, output_dir=tmp_path)}
        else:
            result = run_sweep(cfg, output_dir=tmp_path)
            reports = {"reference": result.reference,
                       **{eta_dirname(eta): report
                          for eta, report in zip(cfg.eta_list, result.reports)}}
        for name, report in reports.items():
            blocks = snapshot_blocks(tmp_path / name / "snapshots.csv")
            assert [time for time, _ in blocks] == landed_times(cfg.snapshot_times, report)
            assert len(blocks) == len(cfg.snapshot_times) - 1
            assert all(rows == report.grid.n_cells for _, rows in blocks)
            assert len({snap.time for snap in report.snapshots}) > len(blocks) + 1

    def test_empty_snapshot_times_write_header_only_files(self, tmp_path):
        cfg = config_from_dict({**SNAPSHOT_DOC, "snapshot_times": []})
        result = run_sweep(cfg, output_dir=tmp_path)
        for name in ("reference", eta_dirname(0.3), eta_dirname(0.15)):
            assert (tmp_path / name / "snapshots.csv").read_text(encoding="utf-8") == HEADER
        assert all(np.isfinite(row["wq_identity_gap"]) for row in result.rows)
        emit_plot_script(cfg, output_dir=tmp_path)

    @pytest.mark.parametrize("x", [
        float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
        2.225073858507201e-308, 2.2250738585072014e-308, 1e16, 1e17, 0.1, 1.0 / 3.0,
    ])
    def test_row_template_formats_as_fmt(self, x):
        line = harness._rows(["7,0.5"], [x], [-x])
        assert line.tobytes().decode("ascii") == f"7,0.5,{x:.17g},{-x:.17g}\n"

    def test_row_template_formats_random_bit_patterns_as_fmt(self):
        bits = np.random.default_rng(20261018).integers(0, 2**64, size=20000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert (harness._rows(np.arange(values.size), values).tobytes().decode("ascii")
                == "".join(f"{i},{x:.17g}\n" for i, x in enumerate(values.tolist())))

    def test_block_budget_does_not_change_the_bytes(self, tmp_path, monkeypatch):
        """Blocks of one row (tv_series.csv) or one snapshot (snapshots.csv),
        the default blocks and one block per file give the same bytes."""
        cfg = config_from_dict(SNAPSHOT_DOC)
        for report in (run_single(cfg, 0.3, output_dir=tmp_path),
                       run_sweep(cfg, output_dir=tmp_path).reference):
            snapshots = harness._configured_snapshots(cfg, report)
            written = {"snapshots": set(), "tv_series": set()}
            for budget in (1, 5000, harness._CSV_BLOCK_BYTES, 1 << 40):
                monkeypatch.setattr(harness, "_CSV_BLOCK_BYTES", budget)
                harness._write_snapshots_csv(tmp_path / "snapshots.csv", snapshots)
                harness._write_tv_series_csv(tmp_path / "tv_series.csv", report)
                for name, files in written.items():
                    files.add((tmp_path / f"{name}.csv").read_bytes())
            assert [len(files) for files in written.values()] == [1, 1]
            assert b"\r" not in written["snapshots"].pop()


class TestFinalSnapshot:
    """The last snapshot is the state at t_end even when snapshot_times
    stops short of it."""

    DOC = {"grid": {"n_cells": 64}, "eta_list": [0.3], "snapshot_times": [0.0, 0.5]}

    def final_state(self, cfg, n_cells):
        q0 = sample_profile(cfg.build_profile(), cfg.build_grid(n_cells))
        scheme = NonlocalSchemeConfig(kernel=cfg.kernel_spec(0.3), velocity=cfg.build_velocity(),
                                      cfl=cfg.cfl, t_end=cfg.t_end, snapshot_times=[cfg.t_end])
        final = solve_nonlocal(q0, scheme).snapshots[-1]
        assert final.time == cfg.t_end == 1.5
        return final

    def test_run_diagnostics_describe_t_end(self, tmp_path):
        cfg = config_from_dict(self.DOC)
        report = run_single(cfg, 0.3, output_dir=tmp_path)
        assert report.snapshots[-1].time == cfg.t_end
        final = self.final_state(cfg, cfg.n_cells)
        values = dict(read_csv(tmp_path / eta_dirname(0.3) / "diagnostics.csv")[1])
        assert values["wq_identity_gap"] == format(wq_identity_gap(final.q, final.w, 0.3), ".17g")
        # t_end is not configured, so it is not written
        assert [time for time, _ in snapshot_blocks(
            tmp_path / eta_dirname(0.3) / "snapshots.csv")] == landed_times([0.0, 0.5], report)

    def test_sweep_row_describes_t_end(self, tmp_path):
        cfg = config_from_dict(self.DOC)
        row = run_sweep(cfg, output_dir=tmp_path).rows[0]
        final = self.final_state(cfg, sweep_cells_for_eta(cfg, 0.3))
        assert row["wq_identity_gap"] == wq_identity_gap(final.q, final.w, 0.3)

    # a t_end with more than 12 decimals, which 12-decimal rounding lifts
    # past itself and past the schedule check's 1e-12 slack
    LONG_DOC = {"grid": {"n_cells": 2}, "eta_list": [0.3], "t_end": 18049.760000000002,
                "snapshot_times": []}

    def test_t_end_with_more_decimals_stays_the_last_time(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.LONG_DOC))
        assert cli.main(["run", "--config", str(config), "--eta", "0.3",
                         "--out", str(tmp_path / "out")]) == 0
        cfg = config_from_dict(self.LONG_DOC)
        assert cfg.merged_snapshot_times[-1] == cfg.t_end
        q0 = sample_profile(cfg.build_profile(), cfg.build_grid())
        scheme = NonlocalSchemeConfig(kernel=cfg.kernel_spec(0.3), velocity=cfg.build_velocity(),
                                      cfl=cfg.cfl, t_end=cfg.t_end, snapshot_times=[cfg.t_end])
        final = solve_nonlocal(q0, scheme).snapshots[-1]
        assert final.time == cfg.t_end
        values = dict(read_csv(tmp_path / "out" / eta_dirname(0.3) / "diagnostics.csv")[1])
        assert values["wq_identity_gap"] == format(wq_identity_gap(final.q, final.w, 0.3), ".17g")

    @pytest.mark.parametrize("time", [18049.770000000001, 18049.760000000006])
    def test_time_past_a_long_t_end_is_refused(self, time):
        with pytest.raises(ConfigError, match=r"^snapshot_times must lie in \[0, t_end\]"):
            config_from_dict({**self.LONG_DOC, "snapshot_times": [0.0, time]})

    def test_time_at_a_long_t_end_is_written(self, tmp_path):
        cfg = config_from_dict({**self.LONG_DOC, "snapshot_times": [self.LONG_DOC["t_end"]]})
        report = run_single(cfg, 0.3, tmp_path)
        assert [time for time, _ in snapshot_blocks(
            tmp_path / eta_dirname(0.3) / "snapshots.csv")] == [repr(cfg.t_end)]
        assert report.snapshots[-1].time == cfg.t_end


class TestStabilityProbe:
    def test_zero_delta_gives_zero_distance(self, tmp_path):
        distance = run_stability_probe(small_config(), 0.0, output_dir=tmp_path)
        assert distance == 0.0
        header, rows = read_csv(tmp_path / "probe.csv")
        assert header == ["delta", "sup_time_l1"]
        assert len(rows) == 1

    def test_perturbation_respects_bounds(self):
        cfg = small_config()
        grid = cfg.build_grid()
        q0 = sample_profile(cfg.build_profile(), grid)
        perturbed = perturbed_initial_field(q0, 0.25)
        assert float(np.min(perturbed.values)) >= 0.0
        assert float(np.max(perturbed.values)) <= 1.0
        added = float(np.sum(perturbed.values - q0.values) * grid.dx)
        assert added == pytest.approx(0.25, rel=0.05)

    def test_negative_delta_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="delta"):
            run_stability_probe(small_config(), -0.1, output_dir=tmp_path)

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_rejected_by_cli(self, tmp_path, capsys, delta):
        # an infinite bump used to clip to a plateau at max q0 and exit 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"n_cells": 64}, "eta_list": [0.3],
                                      "t_end": 0.5}))
        out = tmp_path / "out"
        code = cli.main(["stability", "--config", str(config), "--delta", delta,
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: delta must be finite, got {delta}\n"
        assert not out.exists()


class TestRunTasks:
    def test_results_keep_their_order_and_flags(self):
        frozen = np.linspace(0.0, 1.0, 1000)
        frozen.setflags(write=False)
        # 2**17 values are 1 MiB, above pickle's 64 KiB frame size
        large_frozen = np.linspace(-1.0, 1.0, 1 << 17)
        large_frozen.setflags(write=False)
        large = np.arange(float(1 << 17))
        with no_descriptor_left():
            results = harness._run_tasks(
                [lambda: ("small", 1.5), lambda: frozen, lambda: np.arange(3.0),
                 lambda: large_frozen, lambda: large],
                [1, 3, 2, 5, 4], ["a", "b", "c", "d", "e"])
        assert results[0] == ("small", 1.5)
        assert np.array_equal(results[1], frozen) and not results[1].flags.writeable
        assert np.array_equal(results[2], np.arange(3.0)) and results[2].flags.writeable
        assert np.array_equal(results[3], large_frozen) and not results[3].flags.writeable
        assert np.array_equal(results[4], large) and results[4].flags.writeable
        no_child_left()

    @pytest.mark.parametrize("costs, workers, shares", [
        ([5, 1, 3], 2, [[1, 2], [0]]),
        ([5, 1, 3], 3, [[1], [2], [0]]),
        ([6, 5, 4, 3, 2, 1], 2, [[1, 2, 5], [0, 3, 4]]),
        ([1, 1, 1], 2, [[1], [0, 2]]),
        ([0, 0, 0], 2, [[0, 1, 2]]),  # all here: no share is lighter
    ])
    def test_shares_split_greedily_lightest_first(self, costs, workers, shares):
        assert harness._shares(costs, workers) == shares

    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_lightest_share_runs_in_this_process(self, cpus, n_cpus):
        cpus(n_cpus)
        with no_descriptor_left():
            pids = harness._run_tasks([os.getpid] * 3, [5, 1, 3], ["a", "b", "c"])
        own = harness._shares([5, 1, 3], n_cpus)[0]
        assert [pid == os.getpid() for pid in pids] == [i in own for i in range(3)]
        assert len(set(pids)) == n_cpus
        no_child_left()

    def test_first_failure_in_task_order_is_raised(self):
        def slow_blowup():
            time.sleep(0.3)
            raise NumericalBlowupError("first failure", step=4)

        def quick_failure():
            raise ConfigError("second failure")

        with no_descriptor_left(), pytest.raises(NumericalBlowupError) as info:
            harness._run_tasks([slow_blowup, quick_failure, lambda: 3], [1, 1, 1],
                               ["a", "b", "c"])
        assert str(info.value) == "first failure" and info.value.step == 4
        no_child_left()

    @pytest.mark.parametrize("failing, raised", [
        ({2, 3}, 2),  # this process's share fails first in list order
        ({0, 2}, 0),  # the child's share does
    ])
    def test_shares_stop_at_their_first_failure(self, cpus, tmp_path, failing, raised):
        # shares [1, 2, 5] here and [0, 3, 4] in a child, as _shares gives them above
        cpus(2)
        log = tmp_path / "ran.txt"

        def task(i):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{i} {os.getpid()}\n")
            if i in failing:
                raise ValueError(f"task {i} failed")
            return i

        with no_descriptor_left(), pytest.raises(ValueError, match=f"task {raised} failed"):
            harness._run_tasks([functools.partial(task, i) for i in range(6)],
                               [6, 5, 4, 3, 2, 1], [f"task {i}" for i in range(6)])
        ran = {}
        for line in log.read_text(encoding="ascii").splitlines():
            i, pid = map(int, line.split())
            ran.setdefault(pid == os.getpid(), []).append(i)
        assert ran[True] == [1, 2]  # this process's share stopped at task 2
        assert ran[False] == ([0, 3] if 3 in failing else [0])
        no_child_left()

    @pytest.mark.parametrize("sender", ["this process", "a child"])
    def test_interrupt_reaps_every_child(self, cpus, sender):
        # the interrupt reaches this process as it runs its own share, or
        # as it waits for the child's
        cpus(2)
        parent = os.getpid()

        def interrupt():
            time.sleep(0.2)
            os.kill(parent, signal.SIGINT)
            time.sleep(30)

        tasks = ([interrupt, lambda: time.sleep(30)] if sender == "this process"
                 else [lambda: None, interrupt])
        start = time.perf_counter()
        with no_descriptor_left(), pytest.raises(KeyboardInterrupt):
            harness._run_tasks(tasks, [1, 2], ["a", "b"])
        assert time.perf_counter() - start < 10
        no_child_left()

    @pytest.mark.parametrize("n_cpus, refused", [(2, 1), (3, 2)])
    def test_refused_fork_raises_and_leaves_nothing_behind(self, cpus, monkeypatch,
                                                           n_cpus, refused):
        # on 2 CPUs the one fork is refused; on 3 the second, with the first
        # child running
        cpus(n_cpus)
        fork, forks = os.fork, []

        def refuse_a_fork():
            forks.append(True)
            if len(forks) == refused:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", refuse_a_fork)
        with no_descriptor_left(), pytest.raises(OSError):
            harness._run_tasks([lambda: time.sleep(30), lambda: time.sleep(30), lambda: 2],
                               [3, 2, 1], ["a", "b", "c"])
        assert len(forks) == refused
        no_child_left()

    def test_worker_killed_while_sending_its_result(self, cpus):
        cpus(2)

        class Killer:
            def __reduce__(self):  # after the array before it is in the file
                os.kill(os.getpid(), signal.SIGKILL)

        with no_descriptor_left(), pytest.raises(ChildProcessError) as info:
            harness._run_tasks([lambda: [np.zeros(1 << 18), Killer()], lambda: 2], [2, 1],
                               ["half run", "other run"])
        assert str(info.value) == (
            "half run: worker process ended before sending its result (killed by SIGKILL)")
        no_child_left()

    def test_worker_killed_partway_into_a_large_result(self, cpus):
        # The child may write files of 1 MiB at most, and SIGXFSZ, which
        # Python ignores, is given back its default action: the child dies
        # partway into writing an 8 MiB array to its outcome file.
        cpus(2)
        parent = os.getpid()

        def large_result():
            assert os.getpid() != parent, "the limits below are only for a child"
            resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))
            signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
            return np.zeros(1 << 20)

        with no_descriptor_left(), pytest.raises(ChildProcessError) as info:
            harness._run_tasks([lambda: 1, large_result, lambda: 3], [1, 2, 2],
                               ["first run", "large run", "third run"])
        assert str(info.value) == (
            "large run: worker process ended before sending its result (killed by SIGXFSZ)")
        no_child_left()

    def test_each_share_is_logged(self, cpus, caplog):
        cpus(2)
        with caplog.at_level(logging.DEBUG, logger=harness.__name__):
            harness._run_tasks([lambda: 1, lambda: 2, lambda: 3], [5, 1, 3],
                               ["a run", "b run", "c run"])
        lines = sorted(record.getMessage() for record in caplog.records)
        assert len(lines) == 2
        assert lines[0].startswith("share a run in child ")
        assert lines[1].startswith(f"share b run, c run in this process, {os.getpid()}: wall ")
        assert all(", CPU " in line and ", max RSS " in line for line in lines)


@pytest.mark.parametrize("error", [
    ConfigError("eta_list[2] must be positive"),
    ModeViolationError("flux velocity fell to -1 < 0 in downstream mode"),
    NumericalBlowupError("eta = 0.3: non-finite density", step=12),
], ids=lambda error: type(error).__name__)
def test_package_errors_survive_pickling(error):
    back = pickle.loads(pickle.dumps(error, protocol=5))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert getattr(back, "step", None) == getattr(error, "step", None)


class TestEmitPlotScript:
    def test_script_references_each_csv_exactly_once(self, tmp_path):
        cfg = small_config()
        run_sweep(cfg, output_dir=tmp_path)
        run_stability_probe(cfg, 0.01, output_dir=tmp_path)
        path = emit_plot_script(cfg, output_dir=tmp_path)
        script = path.read_text(encoding="utf-8")
        expected = [
            f"{eta_dirname(0.3)}/snapshots.csv",
            f"{eta_dirname(0.3)}/tv_series.csv",
            f"{eta_dirname(0.3)}/diagnostics.csv",
            "reference/tv_series.csv",
            "reference/snapshots.csv",
            "sweep.csv",
            "probe.csv",
        ]
        for rel in expected:
            assert script.count(rel) == 1, rel

    def test_regeneration_is_deterministic(self, tmp_path):
        cfg = small_config()
        run_single(cfg, 0.3, output_dir=tmp_path)
        first = emit_plot_script(cfg, output_dir=tmp_path).read_bytes()
        second = emit_plot_script(cfg, output_dir=tmp_path).read_bytes()
        assert first == second

    def test_empty_output_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no per-eta CSV"):
            emit_plot_script(small_config(), output_dir=tmp_path)
        with pytest.raises(ConfigError, match="does not exist"):
            emit_plot_script(small_config(), output_dir=tmp_path / "missing")

    def test_partial_files_named_in_error(self, tmp_path):
        cfg = small_config()
        run_single(cfg, 0.3, output_dir=tmp_path)
        (tmp_path / eta_dirname(0.3) / "diagnostics.csv").unlink()
        with pytest.raises(ConfigError, match="diagnostics.csv"):
            emit_plot_script(cfg, output_dir=tmp_path)

    def test_generated_script_runs(self, tmp_path):
        import subprocess
        import sys

        cfg = small_config()
        run_single(cfg, 0.3, output_dir=tmp_path)
        path = emit_plot_script(cfg, output_dir=tmp_path)
        proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                              text=True, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "tv_curves.png").is_file()
        assert (tmp_path / "profiles.png").is_file()


# a stand-in for matplotlib: every figure and axes call is accepted, and
# savefig creates an empty file
_STUB_PYPLOT = """
import pathlib


class Anything:
    def __call__(self, *args, **kwargs):
        return self

    def __getattr__(self, name):
        return self


class Figure(Anything):
    def savefig(self, path, **kwargs):
        pathlib.Path(path).touch()


def subplots(*args, **kwargs):
    return Figure(), Anything()


def close(fig):
    pass
"""


class TestPlotScript:
    """The plot script module runs here without matplotlib: its readers are
    tested directly, and the emitted script against a stub matplotlib."""

    def test_readers_return_what_run_wrote(self, tmp_path):
        cfg = small_config()
        report = run_single(cfg, 0.3, output_dir=tmp_path)
        run_dir = tmp_path / eta_dirname(0.3)
        rows = plot_script.read_csv(run_dir / "diagnostics.csv")
        assert [row["name"] for row in rows] == list(harness._DIAGNOSTIC_ROWS)
        data = plot_script.read_snapshots(run_dir / "snapshots.csv")
        snapshots = harness._configured_snapshots(cfg, report)
        assert list(data) == [snap.time for snap in snapshots]
        for snap, columns in zip(snapshots, data.values()):
            assert columns["x"] == report.grid.cell_centers.tolist()
            assert columns["q"] == snap.q.values.tolist()
            assert columns["W"] == snap.w.values[:-1].tolist()
        times = list(data)
        assert [plot_script.nearest_time(data, 0.9 * a + 0.1 * b)
                for a, b in zip(times, times[1:])] == times[:-1]
        assert plot_script.nearest_time(data, 7.0) == times[-1]

    def test_header_only_snapshots_read_as_empty(self, tmp_path):
        path = tmp_path / "snapshots.csv"
        path.write_text(HEADER, encoding="utf-8")
        assert plot_script.read_snapshots(path) == {}

    def test_imports_without_matplotlib_and_apart_from_the_cli(self, tmp_path):
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_DOC))
        run_single(small_config(), 0.3, output_dir=tmp_path / "out")
        code = textwrap.dedent(f"""
            import sys
            sys.modules["matplotlib"] = None  # any import of it fails
            import nonlocal_limit.cli as cli
            assert cli.main(["plot", "--config", {str(config)!r},
                             "--out", {str(tmp_path / "out")!r}]) == 0
            print("nonlocal_limit.plot_script" in sys.modules)
            import nonlocal_limit.plot_script
            print(sorted(name for name in sys.modules if name.startswith("matplotlib.")))
        """)
        src = str(Path(harness.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.splitlines()[1:] == ["False", "[]"]

    def test_generated_script_runs_against_a_stub_matplotlib(self, tmp_path):
        import subprocess
        import sys

        stub = tmp_path / "stub" / "matplotlib"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("def use(backend):\n    pass\n", encoding="utf-8")
        (stub / "pyplot.py").write_text(_STUB_PYPLOT, encoding="utf-8")
        cfg = small_config()
        out = tmp_path / "out"
        run_sweep(cfg, output_dir=out)
        run_stability_probe(cfg, 0.01, output_dir=out)
        path = emit_plot_script(cfg, output_dir=out)
        proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(stub.parent)})
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in out.glob("*.png")) == [
            "heatmap_eta_0.3.png", "profiles.png", "stability_probe.png",
            "sweep_errors.png", "tv_curves.png"]


class TestCli:
    def write_config(self, tmp_path, doc=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc if doc is not None else SMALL_DOC))
        return path

    def test_run_command(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code = cli.main(["run", "--config", str(config), "--eta", "0.3",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / eta_dirname(0.3) / "snapshots.csv").is_file()

    def test_run_with_short_residual_support(self, tmp_path, capsys):
        # the residual bump's time radius is t_end / 6 here, far below the
        # default runs'; every residual must still be measured
        config = self.write_config(tmp_path, {"grid": {"n_cells": 8192}, "eta_list": [0.01],
                                              "t_end": 0.05})
        code = cli.main(["run", "--config", str(config), "--eta", "0.01",
                         "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        run_dir = tmp_path / "out" / eta_dirname(0.01)
        for name in ("snapshots.csv", "tv_series.csv", "diagnostics.csv"):
            assert (run_dir / name).is_file()
        header, rows = read_csv(run_dir / "diagnostics.csv")
        assert header == ["name", "value"] and rows
        assert all(np.isfinite(float(value)) for _, value in rows), rows

    def test_stability_command(self, tmp_path):
        config = self.write_config(tmp_path)
        code = cli.main(["stability", "--config", str(config), "--delta", "0.01",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "probe.csv").is_file()

    def test_plot_command_requires_csvs(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code = cli.main(["plot", "--config", str(config),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_plot_command_names_the_script(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {**SMALL_DOC, "grid": {"n_cells": 64}})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--eta", "0.3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["plot", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out / PLOT_SCRIPT_NAME}\n"

    # every document of TestParseConfig.test_single_fault_message, read from
    # its parametrize mark so that the table has one copy, and MISHANDLED_DOCS
    @pytest.mark.parametrize(
        "doc, message",
        TestParseConfig.test_single_fault_message.pytestmark[0].args[1] + MISHANDLED_DOCS)
    @pytest.mark.parametrize("command", [["run", "--eta", "0.1"], ["sweep"],
                                         ["stability", "--delta", "0.01"]],
                             ids=["run", "sweep", "stability"])
    def test_refused_config_exits_one_with_one_line(self, tmp_path, capsys, command, doc,
                                                   message):
        config = self.write_config(tmp_path, doc)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command[0], "--config", str(config), "--out", str(out),
                             *command[1:]])
        assert code == 1
        assert caught == []
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run", "--eta", "0.1"], ["sweep"]], ids=["run", "sweep"])
    def test_zero_v_max_is_a_stasis_run(self, tmp_path, capsys, command):
        # the model's rule, v_max >= 0, is the config's: V = 0 moves nothing
        config = self.write_config(tmp_path, {"grid": {"n_cells": 256}, "eta_list": [0.1, 0.05],
                                              "velocity": {"name": "linear", "v_max": 0}})
        out = tmp_path / "out"
        assert cli.main([command[0], "--config", str(config), "--out", str(out),
                         *command[1:]]) == 0, capsys.readouterr().err
        for eta in (0.1,) if command[0] == "run" else (0.1, 0.05):
            for name in ("snapshots.csv", "tv_series.csv", "diagnostics.csv"):
                assert (out / eta_dirname(eta) / name).is_file()
        if command[0] == "sweep":
            assert (out / "sweep.csv").is_file()

    def test_tiny_eta_sweep_exits_one(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"grid": {"n_cells": 64}, "eta_list": [1e-308]})
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eta = 1e-308 needs at least ") and err.count("\n") == 1
        assert not out.exists()
        assert cli.main(["run", "--config", str(config), "--eta", "1e-308",
                         "--out", str(out)]) == 0

    @pytest.mark.parametrize("orientation, velocity", [("downstream", "linear"),
                                                       ("upstream", "linear_increasing")])
    def test_constant_window_of_overflowing_cell_count_runs(self, tmp_path, orientation,
                                                            velocity):
        # eta / dx = 1e10 / 2.5e-301 overflows: every window reaches past the grid
        config = self.write_config(tmp_path, {
            "grid": {"x_min": 0, "x_max": 1e-300, "n_cells": 4}, "eta_list": [1e10],
            "kernel": {"family": "constant", "orientation": orientation},
            "velocity": {"name": velocity}, "t_end": 1e-300, "snapshot_times": []})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--eta", "1e10",
                         "--out", str(out)]) == 0
        [run] = out.iterdir()
        assert sorted(path.name for path in run.iterdir()) == [
            "diagnostics.csv", "snapshots.csv", "tv_series.csv"]

    def test_validation_error_exits_one(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"eta_list": [-1.0]})
        code = cli.main(["run", "--config", str(config), "--eta", "0.3",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "eta_list[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("velocity", [
        {"name": "quadratic", "s_max": 1e-200},
        {"name": "linear", "v_max": 1e300, "s_max": 1e-300},
    ], ids=["quadratic-underflowing-s_max", "linear-overflowing-slope"])
    def test_out_of_range_velocity_is_refused_without_warnings(self, tmp_path, capsys,
                                                               velocity):
        config = self.write_config(tmp_path, {**SMALL_DOC, "velocity": velocity})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", "--config", str(config), "--eta", "0.3",
                             "--out", str(tmp_path / "out")])
        assert code == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err == "error: velocity model is non-finite on the admissible range\n"

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["stability", "--delta", "-inf", "--config", "c.json", "--out", "o"],
         "argument --delta: expected one argument"),
        (["run", "--config", "c.json", "--eta", "x", "--out", "o"],
         "argument --eta: invalid float value: 'x'"),
        (["sweep", "--config", "c.json", "--out", "o", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["nope"], "argument command: invalid choice: 'nope'"),
    ], ids=["no-command", "negative-looking-delta", "bad-float", "unknown-option",
            "unknown-command"])
    def test_usage_error_exits_one(self, capsys, argv, message):
        # exit 2 is kept for blowups and mode violations; argparse's own
        # usage errors are bad arguments, which exit 1
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["stability", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: nonlocal-limit" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", [
        {**SMALL_DOC, "eta_list": [0.3, 0.02]},  # no integer reference refinement
        {**SMALL_DOC, "kernel": {"orientation": "upstream"}},  # mispaired
    ])
    def test_failed_sweep_check_writes_nothing(self, tmp_path, capsys, doc):
        config = self.write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_diagnostics_write_nothing(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("synthetic diagnostics failure")

        monkeypatch.setattr(harness, "_run_diagnostics", fail)
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(config), "--eta", "0.3",
                         "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("failing", [(0.15,), (0.3, 0.15)])
    def test_failed_eta_diagnostics_exit_one(self, tmp_path, monkeypatch, capsys, failing):
        run_diagnostics = harness._run_diagnostics

        def fail(cfg, report, q0, eta):
            if eta in failing:
                raise ValueError(f"synthetic diagnostics failure at eta = {eta!r}")
            return run_diagnostics(cfg, report, q0, eta)

        monkeypatch.setattr(harness, "_run_diagnostics", fail)
        config = self.write_config(tmp_path, {**SMALL_DOC, "eta_list": [0.3, 0.15]})
        code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: synthetic diagnostics failure at eta = {failing[0]!r}\n")

    def test_negative_constant_velocity_pairs_with_upstream(self, tmp_path, capsys):
        velocity = {"name": "constant", "value": -1.0}
        config = self.write_config(tmp_path, {**SMALL_DOC, "velocity": velocity})
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(config), "--eta", "0.3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: kernel.orientation 'downstream' requires velocity mode "
            "'decreasing', got 'increasing'\n")
        assert not out.exists()

        config = self.write_config(tmp_path, {**SMALL_DOC, "velocity": velocity,
                                              "kernel": {"orientation": "upstream"}})
        code = cli.main(["sweep", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "sweep.csv").is_file()

    def test_import_and_runs_load_no_scipy_module(self, tmp_path):
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parents[1])
        config = self.write_config(tmp_path, {**SMALL_DOC, "grid": {"n_cells": 64}})
        # a fresh process imports every module, runs both solvers on every
        # kernel path and a CLI run, and never loads scipy
        code = textwrap.dedent(f"""
            import importlib, pkgutil, sys
            import numpy as np
            import nonlocal_limit
            for module in pkgutil.iter_modules(nonlocal_limit.__path__):
                importlib.import_module("nonlocal_limit." + module.name)
            import nonlocal_limit.cli as cli
            from nonlocal_limit import (FluxModel, Grid1D, KernelSpec, NonlocalSchemeConfig,
                                        default_datum_profile, linear_increasing_velocity,
                                        linear_velocity, sample_profile, solve_local,
                                        solve_nonlocal)
            q0 = sample_profile(default_datum_profile(), Grid1D(-1.0, 2.0, 64))
            for family, orientation, velocity in [
                    ("exponential", "downstream", linear_velocity()),
                    ("exponential", "upstream", linear_increasing_velocity()),
                    ("constant", "downstream", linear_velocity())]:
                solve_nonlocal(q0, NonlocalSchemeConfig(
                    kernel=KernelSpec(family, 0.05, orientation), velocity=velocity,
                    cfl=0.5, t_end=0.2, snapshot_times=np.array([0.2])))
            solve_local(q0, FluxModel(velocity=linear_velocity()), 0.5, 0.2)
            assert cli.main(["run", "--config", {str(config)!r}, "--eta", "0.3",
                             "--out", {str(tmp_path / "out")!r}]) == 0
            print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == ["[]"]

    def test_killed_worker_exits_one_naming_the_task(self, tmp_path, monkeypatch, capsys,
                                                     cpus):
        # the reference, the costliest task, runs in a child, never in the
        # calling process's share
        cpus(2)
        parent = os.getpid()
        run_reference = harness._run_reference

        def killed(cfg, n_cells, out):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer would
            return run_reference(cfg, n_cells, out)

        monkeypatch.setattr(harness, "_run_reference", killed)
        config = self.write_config(tmp_path, {**SMALL_DOC, "eta_list": [0.3, 0.15]})
        code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: reference run: worker process ended before sending its result "
            "(killed by SIGKILL)\n")
        no_child_left()

    def sigterm_a_stalled_sweep(self, tmp_path, n_cpus, patch=""):
        """Run a sweep on ``n_cpus`` patched CPUs whose tasks stall, after
        ``patch``, in a subprocess; SIGTERM it once its ``n_cpus - 1``
        children run, and check that it ends by SIGTERM, silently, and that
        no child is left."""
        import subprocess
        import textwrap
        from pathlib import Path

        if not forks_children():
            pytest.skip("the tasks would run in this process")
        src = str(Path(cli.__file__).resolve().parents[1])
        config = self.write_config(tmp_path, {**SMALL_DOC, "eta_list": [0.3, 0.15]})
        code = textwrap.dedent(f"""
            import os, signal, time
            import nonlocal_limit.cli as cli
            import nonlocal_limit.harness as harness
            os.sched_getaffinity = lambda pid: set(range({n_cpus}))
            harness._run_reference = harness._run_eta = lambda *args: time.sleep(60)
        """) + textwrap.dedent(patch) + textwrap.dedent(f"""
            raise SystemExit(cli.main(["sweep", "--config", {str(config)!r},
                                       "--out", {str(tmp_path / "out")!r}]))
        """)
        # a file, not a pipe, so that a surviving child cannot hold up the read
        err = tmp_path / "stderr"
        with open(err, "wb") as stderr:
            proc = subprocess.Popen([sys.executable, "-c", code], stderr=stderr,
                                    env={**os.environ, "PYTHONPATH": src})
        children = set()
        try:
            deadline = time.monotonic() + 30
            while (len(children) < n_cpus - 1 and proc.poll() is None
                   and time.monotonic() < deadline):
                time.sleep(0.05)
                children = children_of(proc.pid)
            assert len(children) == n_cpus - 1
            proc.terminate()
            assert proc.wait(timeout=30) == -signal.SIGTERM
            assert err.read_bytes() == b""
            assert not [pid for pid in children if os.path.exists(f"/proc/{pid}")]
        finally:
            for pid in children:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            proc.kill()
            proc.wait()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_sigterm_ends_a_sweep_and_its_workers(self, tmp_path):
        # two CPUs: this process and one child
        self.sigterm_a_stalled_sweep(tmp_path, 2)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_second_sigterm_during_cleanup_still_reaps_every_worker(self, tmp_path):
        # three CPUs, two children; the first SIGKILL of a child comes with a
        # second SIGTERM to the sweep
        self.sigterm_a_stalled_sweep(tmp_path, 3, """
            kill, seconds = os.kill, []

            def kill_then_sigterm(pid, sig):
                kill(pid, sig)
                if sig == signal.SIGKILL and not seconds:
                    seconds.append(pid)
                    kill(os.getpid(), signal.SIGTERM)

            os.kill = kill_then_sigterm
        """)

    @pytest.mark.parametrize("status, how", [
        (3 << 8, "exit status 3"), (signal.SIGKILL, "killed by SIGKILL"),
        (signal.SIGRTMIN + 1, f"killed by signal {signal.SIGRTMIN + 1}"),
    ])
    def test_worker_death_names_how_the_child_ended(self, status, how):
        error = harness._worker_died("reference run", status)
        assert str(error) == (
            f"reference run: worker process ended before sending its result ({how})")

    @pytest.mark.parametrize("doc", [{"cfl": 1e-30},
                                     {"velocity": {"name": "constant", "value": 1e300}}],
                             ids=["tiny-cfl", "huge-speed"])
    def test_run_too_long_to_record_exits_one(self, tmp_path, capsys, doc):
        # about 3e31 and 6e301 steps: refused before any record is allocated
        config = self.write_config(tmp_path, {"grid": {"n_cells": 64}, "eta_list": [0.3], **doc})
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(config), "--eta", "0.3", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cfl = ")
        assert err.endswith(" steps, more than an array can index\n")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 233. TiB for an array with shape "
                     "(32000000000001,) and data type int64"),
         "error: Unable to allocate 233. TiB for an array with shape "
         "(32000000000001,) and data type int64\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch, error, line):
        # a run whose records no host can hold, without asking for them
        def exhaust(cfg, eta, output_dir=None):
            raise error

        monkeypatch.setattr(cli, "run_single", exhaust)
        code = cli.main(["run", "--config", str(self.write_config(tmp_path)), "--eta", "0.3",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("command", [["run", "--eta", "0.3"], ["sweep"]])
    def test_overflowing_grid_span_exits_one(self, tmp_path, capsys, command):
        config = self.write_config(tmp_path, {**SMALL_DOC,
                                              "grid": {"x_min": -1e308, "x_max": 1e308}})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command[0], "--config", str(config), "--out", str(out),
                             *command[1:]])
        assert code == 1
        assert caught == []
        assert capsys.readouterr().err == (
            "error: grid.x_max - grid.x_min overflows, got [-1e+308, 1e+308]\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run", "--eta", "0.3"], ["sweep"],
                                         ["stability", "--delta", "0.01"]],
                             ids=["run", "sweep", "stability"])
    def test_datum_outside_the_admissible_range_exits_one(self, tmp_path, capsys, command):
        # the parse accepts the config; each solve's set-up refuses the
        # default datum, which reaches 1, before any file is written
        doc = {"grid": {"n_cells": 64}, "eta_list": [0.3],
               "velocity": {"name": "linear", "s_max": 0.5}}
        parse_config(json.dumps(doc))
        config = self.write_config(tmp_path, doc)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command[0], "--config", str(config), "--out", str(out),
                             *command[1:]])
        assert code == 1
        assert caught == []
        assert capsys.readouterr() == (
            "", "error: initial data [0, 1] leaves the admissible range [0.0, 0.5]\n")
        assert not out.exists()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--eta", "0.3", "--out", str(tmp_path / "out")])
        assert code == 1

    def test_wrong_signed_velocity_exits_two(self, tmp_path, capsys):
        # the dt rule bounds |V| by 1 but the quadratic flux has |f'| up to 2,
        # so q overshoots s_max and V(W) turns negative
        config = self.write_config(tmp_path, {"grid": {"n_cells": 256}, "eta_list": [0.0001],
                                              "cfl": 0.6, "velocity": {"name": "quadratic"}})
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(config), "--eta", "0.0001", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mode violation: flux velocity fell to ")
        assert "mispaired, or the density left" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, most", [
        (["sweep"], (2, 1, 1)),
        (["run", "--eta", "0.05"], (5, 1, 2)),
        (["stability", "--delta", "0.01"], (3, 0, 1)),
    ], ids=["sweep", "run", "stability"])
    def test_command_builds_models_once(self, tmp_path, monkeypatch, command, most):
        # VelocityModel, FluxModel and TestFunction constructions in one
        # command, parsing included
        classes = (VelocityModel, FluxModel, SpaceTimeTestFunction)
        counts = dict.fromkeys(classes, 0)
        for cls in classes:
            def counting(model, *args, cls=cls, original=cls.__init__, **kwargs):
                counts[cls] += 1
                original(model, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        config = self.write_config(tmp_path, {"grid": {"n_cells": 256},
                                              "eta_list": [0.1, 0.05, 0.03],
                                              "reference_refinement": 4})
        code = cli.main([command[0], "--config", str(config), "--out", str(tmp_path / "out"),
                         *command[1:]])
        assert code == 0
        built = tuple(counts[cls] for cls in classes)
        assert all(n <= bound for n, bound in zip(built, most)), built

    BLOWUP_COMMANDS = [["run", "--eta", "0.3"], ["sweep"], ["stability", "--delta", "0.01"]]

    def run_blowup(self, tmp_path, monkeypatch, command):
        # a step far past the CFL limit makes the upwind oscillation overflow;
        # 128 cells and cfl 1 keep the sweep's Godunov reference cheap
        force_nonlocal_steps(monkeypatch, 400)
        config = self.write_config(tmp_path, {**SMALL_DOC, "grid": {"n_cells": 128}, "cfl": 1.0,
                                              "velocity": {"name": "constant", "value": 1.0},
                                              "t_end": 200.0})
        return cli.main([command[0], "--config", str(config), "--out", str(tmp_path / "out"),
                         *command[1:]])

    @pytest.mark.parametrize("command", BLOWUP_COMMANDS)
    def test_solver_blowup_names_eta(self, tmp_path, monkeypatch, capsys, command):
        with np.errstate(over="ignore", invalid="ignore"):
            code = self.run_blowup(tmp_path, monkeypatch, command)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical blowup: eta = 0.3: ")
        if command[0] == "stability":
            assert err.startswith("numerical blowup: eta = 0.3: baseline run: non-finite density")

    @pytest.mark.parametrize("command", BLOWUP_COMMANDS)
    def test_solver_blowup_raises_no_runtime_warning(self, tmp_path, monkeypatch, capsys,
                                                      command):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = self.run_blowup(tmp_path, monkeypatch, command)
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.count("\n") == 1

    def test_blowup_exits_two(self, tmp_path, monkeypatch, capsys):
        config = self.write_config(tmp_path)

        def explode(cfg, eta, output_dir=None):
            raise NumericalBlowupError("synthetic blowup", step=7)

        monkeypatch.setattr(cli, "run_single", explode)
        code = cli.main(["run", "--config", str(config), "--eta", "0.3",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "blowup" in capsys.readouterr().err
