"""The step library's build: its flags, where it is cached, when it is rebuilt
and how a failed build is reported.  Each build test imports a copy of the
package in a fresh process."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonlocal_limit.native as native
from nonlocal_limit import harness, linear_velocity

PACKAGE = Path(native.__file__).parent
TILE = int(re.search(r"enum \{ TILE = (\d+) \};", native.SOURCE.read_text())[1])
SKEW = int(re.search(r"enum \{ SKEW = (\d+) \};", native.SOURCE.read_text())[1])
FAST_MATH = ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math",
             "-freciprocal-math", "-ffinite-math-only", "-fno-signed-zeros")


@pytest.fixture
def package(tmp_path):
    """A copy of the package without its built library, and a ``cc`` that
    logs each start to ``cc.log`` and runs the compiler on PATH."""
    shutil.copytree(PACKAGE, tmp_path / "src" / "nonlocal_limit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bin").mkdir()
    wrapper = tmp_path / "bin" / "cc"
    wrapper.write_text(f"#!/bin/sh\necho started >> '{tmp_path / 'cc.log'}'\n"
                       f"exec '{shutil.which('cc')}' \"$@\"\n")
    wrapper.chmod(0o755)
    return tmp_path


def start_import(root: Path, path: str):
    return subprocess.Popen(
        [sys.executable, "-c", "import numpy as np, nonlocal_limit; "
         "print(float(np.float64(2.2250738585072014e-308) * 0.5) > 0.0)"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PATH": path})


def import_copy(root: Path, path: str | None = None) -> subprocess.CompletedProcess:
    proc = start_import(root, path or f"{root / 'bin'}{os.pathsep}{os.environ['PATH']}")
    stdout, stderr = proc.communicate(timeout=300)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def compiler_starts(root: Path) -> int:
    log = root / "cc.log"
    return len(log.read_text().splitlines()) if log.exists() else 0


def cached(root: Path) -> list[str]:
    return sorted(p.name for p in (root / "src" / "nonlocal_limit" / "__pycache__").iterdir()
                  if p.name.startswith("steps"))


def test_first_import_builds_once_and_the_next_starts_no_compiler(package):
    for _ in range(2):
        proc = import_copy(package)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]  # a subnormal product stays nonzero
    assert compiler_starts(package) == 1
    [library] = cached(package)
    assert library.startswith("steps-") and library.endswith(".so")


def test_edited_source_builds_a_new_library(package):
    assert import_copy(package).returncode == 0
    first = cached(package)
    source = package / "src" / "nonlocal_limit" / "steps.c"
    source.write_text(source.read_text() + "/* edited */\n")
    assert import_copy(package).returncode == 0
    assert compiler_starts(package) == 2
    assert len(cached(package)) == 2 and set(first) < set(cached(package))


def test_concurrent_first_imports_both_load_one_library(package):
    path = f"{package / 'bin'}{os.pathsep}{os.environ['PATH']}"
    procs = [start_import(package, path) for _ in range(2)]
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
    assert len(cached(package)) == 1  # no temporary file left behind


def one_import_error(proc, directory: Path) -> str:
    assert proc.returncode != 0
    # the traceback names one exception, with no chained one before it
    lines = [line for line in proc.stderr.splitlines()
             if re.match(r"[\w.]*(Error|Exception|Warning)\b", line)]
    assert len(lines) == 1 and "During handling" not in proc.stderr, proc.stderr
    assert lines[0].startswith("ImportError: cannot build the step library: `cc -O3 ")
    assert f"in {directory} failed: " in lines[0]
    return lines[0]


def test_missing_compiler_fails_the_import_in_one_line(package):
    empty = package / "empty"
    empty.mkdir()
    line = one_import_error(import_copy(package, str(empty)),
                            package / "src" / "nonlocal_limit" / "__pycache__")
    assert line.endswith("No such file or directory: 'cc'")


def test_failed_build_fails_the_import_in_one_line(package):
    source = package / "src" / "nonlocal_limit" / "steps.c"
    source.write_text(source.read_text() + "this is not C;\n")
    cache = package / "src" / "nonlocal_limit" / "__pycache__"
    line = one_import_error(import_copy(package), cache)
    assert "error" in line.split("failed: ", 1)[1]
    assert not cache.exists() or not cached(package)


def test_unwritable_cache_directory_fails_the_import_in_one_line(package):
    (package / "src" / "nonlocal_limit" / "__pycache__").write_text("a file, not a directory")
    one_import_error(import_copy(package), package / "src" / "nonlocal_limit" / "__pycache__")
    assert compiler_starts(package) == 0


def test_build_flags_keep_every_rounding():
    assert "-ffp-contract=off" in native.FLAGS and "-O3" in native.FLAGS
    assert not set(FAST_MATH) & set(native.FLAGS)
    # a library built for this CPU only where its name covers the CPU
    assert ("-march=native" in native.FLAGS) == bool(native.CPU)


def source_enum(first: str) -> dict[str, int]:
    """The steps.c enum whose first name is ``first``, as name -> value."""
    names = re.search(rf"enum \{{ ({first}(?:, \w+)*) \}};", native.SOURCE.read_text())[1]
    return {name: value for value, name in enumerate(names.split(", "))}


def test_python_enums_match_the_step_library():
    # a reordering on one side would show only as oracle bit mismatches
    assert source_enum("LINEAR") == {family.upper(): value
                                     for value, family in enumerate(native.VELOCITY_FAMILIES)}
    assert source_enum("UPWIND") == {"UPWIND": native.UPWIND, "GODUNOV": native.GODUNOV}
    assert source_enum("EXPONENTIAL") == {"EXPONENTIAL": native.EXPONENTIAL,
                                          "CONSTANT_KERNEL": native.CONSTANT}
    assert set(harness._VELOCITIES) == set(native.VELOCITY_FAMILIES)


C_TYPES = {"int": ctypes.c_int, "long": ctypes.c_long, "double": ctypes.c_double}


def source_struct(name: str) -> list[tuple[str, type]]:
    """The members of steps.c's ``typedef struct { ... } name;`` in order,
    as (name, ctypes type), every pointer a c_void_p."""
    body = re.search(rf"typedef struct \{{([^}}]*)\}} {name};", native.SOURCE.read_text())[1]
    members = []
    for declaration in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        base = re.match(r"\s*(?:const\s+)?(\w+)", declaration)[1]
        for declarator in declaration.split(","):
            members.append((re.findall(r"\w+", declarator)[-1],
                            ctypes.c_void_p if "*" in declarator else C_TYPES[base]))
    return members


@pytest.mark.parametrize("struct", [native.Flux, native.Average, native.Run, native.Column])
def test_ctypes_structures_match_the_step_library(struct):
    # a member dropped or moved on one side only would shift every later
    # address without any error
    assert list(struct._fields_) == source_struct(struct.__name__)


def test_source_compiles_without_warnings(tmp_path):
    flags = [flag for flag in native.FLAGS if flag != "-march=native"]
    proc = subprocess.run(["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-pedantic", *flags,
                           "-o", str(tmp_path / "steps.so"), str(native.SOURCE)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


LANE_LOOP = "for (; i + LANES <= n; i += LANES)"
# the update of a step tile's cells, in the one routine every step runs
UPDATE_LOOP = "for (long i = c0; i < c1; i++) {"
# a one-step tile's update and its q jumps
TILE_LOOPS = (UPDATE_LOOP,
              "for (long i = a > 0 ? a - 1 : 0; i < end; i++) scratch[i] = fabs(q[i + 1] - q[i]);")


# the constant kernel's windows that end on a piece of a grid cell
WINDOW_LOOP = "for (j = 0; j < inside; j++)"
# the two-step pass: the upwind flux's speed check and product, the update
# of either step's tile, and q^{k+1}'s mass copy and jumps
SKEW_LOOPS = ("for (j = a; j < b; j++) {",
              UPDATE_LOOP,
              "for (long i = c0; i < c1; i++) f1[i - m] = q[i];",
              "for (long j = j0; j < j1; j++) jumps[j] = fabs(q[j + 1] - q[j]);")


# the jumps of a total variation, and of q in a record taken from q itself
# (step 0 and step k + 2 of a two-step pass)
RECORD_LOOPS = ("for (long i = 0; i <= m; i++) jumps[i] = fabs(row[i + 1] - row[i]);",
                "for (long i = 0; i <= n; i++) jumps[i] = fabs(q[i + 1] - q[i]);")


def line_of(loop: str) -> int:
    """The number of the one line of steps.c that is ``loop``."""
    lines = native.SOURCE.read_text().splitlines()
    found = [i + 1 for i, line in enumerate(lines) if line.strip() == loop]
    assert len(found) == 1, f"expected one line {loop!r} in steps.c, found {found}"
    return found[0]


@pytest.fixture(scope="module")
def gcc_report(tmp_path_factory):
    """gcc's -fopt-info report of the library's build (the loops it
    vectorised and those it could not, and the calls it inlined) and the
    library's symbols; skips where cc is not gcc.  No epilogue is
    vectorised, so that each vectorised copy of a loop is one report."""
    version = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                             timeout=60).stdout
    if "Free Software Foundation" not in version:
        pytest.skip("cc is not gcc, whose -fopt-info-vec-optimized report these tests read")
    library = tmp_path_factory.mktemp("report") / "steps.so"
    proc = subprocess.run(["cc", *native.FLAGS, "--param=vect-epilogues-nomask=0",
                           "-fopt-info-vec-optimized-missed", "-fopt-info-inline-optimized",
                           "-o", str(library), str(native.SOURCE)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    symbols = subprocess.run(["nm", str(library)], capture_output=True, text=True,
                             timeout=60, check=True).stdout
    return proc.stderr, symbols


def vectorised(report: str) -> list[int]:
    """The line of each loop gcc's report says it vectorised, once per copy."""
    return [int(m[1]) for m in re.finditer(r"steps\.c:(\d+):\d+: optimized: loop vectorized",
                                           report)]


def test_extremes_lane_loop_is_vectorised(gcc_report):
    # the running q extremes keep their bits on a serial loop too, so only
    # the compiler's report shows that the lanes still vectorise
    at = line_of(LANE_LOOP)
    report, _ = gcc_report
    # gcc names the outer loop's line, or the inner one's when it vectorises that
    assert set(vectorised(report)) & {at, at + 1}, report


def test_tile_update_and_jump_loops_are_vectorised(gcc_report):
    # a serial loop keeps every bit too: only the report shows that a step
    # tile's update and jumps still vectorise
    lines = [line_of(loop) for loop in TILE_LOOPS]
    report, _ = gcc_report
    assert set(lines) <= set(vectorised(report)), (lines, report)


def test_two_step_pass_flux_and_update_loops_are_vectorised(gcc_report):
    # the skew's gain rests on these loops staying vectorised beside the
    # interleaved recursions
    lines = [line_of(loop) for loop in SKEW_LOOPS]
    report, _ = gcc_report
    assert set(lines) <= set(vectorised(report)), (lines, report)


def test_every_copy_of_the_tile_update_is_vectorised(gcc_report):
    # gcc may inline tile_step into some of its callers and keep it out of
    # line (or a clone of it) for the others: each copy is a loop of its
    # own, and each must vectorise, unswitched or versioned ones included
    report, symbols = gcc_report
    at = line_of(UPDATE_LOOP)
    inlined = len(re.findall(r"optimized:\s+Inlin(?:ed|ing) tile_step\b", report))
    out_of_line = len(re.findall(r"^\S+ [tT] tile_step(?:\.\w+)*$", symbols, flags=re.M))
    assert inlined + out_of_line >= 1, (report, symbols)
    assert vectorised(report).count(at) == inlined + out_of_line, report
    assert not re.search(rf"steps\.c:{at}:\d+: missed: couldn't vectorize loop", report), report


def test_record_jump_loops_are_vectorised(gcc_report):
    # both run in every two-step pass; a serial loop keeps their bits too
    lines = [line_of(loop) for loop in RECORD_LOOPS]
    report, _ = gcc_report
    assert set(lines) <= set(vectorised(report)), (lines, report)


def test_constant_kernel_whole_window_loop_is_vectorised(gcc_report):
    # its prefix sums live in W's own row, which the loop reads ahead of
    # where it writes: gcc versions the loop for that aliasing, and only the
    # report shows that it still vectorises
    at = line_of(WINDOW_LOOP)
    report, _ = gcc_report
    assert at in vectorised(report), (at, report)


def test_loaded_library_keeps_subnormals():
    assert np.float64(2.2250738585072014e-308) * 0.5 > 0.0
    # a subnormal speed out of the library itself
    assert linear_velocity(1e-308).eval(np.array([0.5]))[0] == 5e-309 > 0.0


SANITIZED_FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                   "-ffp-contract=off", "-fPIC", "-shared")
SANITIZED_SCRIPT = """
import numpy as np
from nonlocal_limit import (CellField, FluxModel, Grid1D, KernelSpec, ModeViolationError,
                            NonlocalSchemeConfig, NumericalBlowupError, constant_velocity,
                            linear_increasing_velocity, linear_velocity, native,
                            quadratic_velocity, solve_local, solve_nonlocal, step_upwind,
                            stepping)
from nonlocal_limit.kernels import kernel_operator
from nonlocal_limit.nonlocal_solver import _upwind_flux

assert native.FLAGS == {flags!r}
velocities = (linear_velocity(), quadratic_velocity(), constant_velocity(1.0))
# 32 lanes of q extremes and their tails, the two-step pass's tile edges,
# then two and three step tiles
for n in (2, 31, 32, 33, 37, 65, 300, {skew} - 1, {skew}, {skew} + 1, 2 * {skew} + 1,
          2 * {skew} + {skew} // 2, {tile} + 1, 2 * {tile} + 1):
    grid = Grid1D(0.0, 1.0, n, left_farfield=0.25, right_farfield=0.0)
    values = np.linspace(0.0, 0.9, n)
    values[::3] = 0.0   # vacuum cells
    values[1::5] = -0.0
    q0 = CellField(grid=grid, values=values)
    # the constant kernel also with a window longer than the domain, its
    # prefix sums read from W's row up to its far end
    for family, eta in (("exponential", 0.3), ("constant", 0.3), ("constant", 2.0)):
        for orientation, velocity in ([("downstream", v) for v in velocities]
                                      + [("upstream", linear_increasing_velocity())]):
            kernel = KernelSpec(family=family, eta=eta, orientation=orientation)
            solve_nonlocal(q0, NonlocalSchemeConfig(kernel=kernel, velocity=velocity, cfl=0.5,
                                                    t_end=0.2, snapshot_times=np.array([0.1])))
    for velocity in velocities + (linear_increasing_velocity(),):
        solve_local(q0, FluxModel(velocity=velocity), cfl=0.5, t_end=0.2, snapshot_times=[0.1])

# a blowup: data at 1e308 overflow the constant kernel's prefix sums
grid = Grid1D(0.0, 1.0, 64)
kernel = KernelSpec(family="constant", eta=0.5, orientation="downstream")
cfg = NonlocalSchemeConfig(kernel=kernel, velocity=linear_velocity(), cfl=0.5, t_end=0.5)
try:
    stepping.integrate(CellField(grid=grid, values=np.full(64, 1e308)), _upwind_flux(cfg), 1e-3,
                       10, [], kernel_operator(kernel, grid))
    raise AssertionError("no blowup")
except NumericalBlowupError:
    pass
# a blowup in either step of a two-step pass, in both orientations: one
# cell at 1e306 at speed 0.7 and dt = 6 dx overflows at step 3
n = 2 * {skew} + 1
for orientation, velocity in (("downstream", constant_velocity(0.7)),
                              ("upstream", constant_velocity(-0.7))):
    grid = Grid1D(0.0, 1.0, n, left_farfield=0.4, right_farfield=0.4)
    values = np.full(n, 0.4)
    values[n // 2] = 1e306
    kernel = KernelSpec(family="exponential", eta=0.05, orientation=orientation)
    cfg = NonlocalSchemeConfig(kernel=kernel, velocity=velocity, cfl=1.0, t_end=1.0)
    for steps in (4, 5):
        try:
            stepping.integrate(CellField(grid=grid, values=values), _upwind_flux(cfg),
                               6 * grid.dx, steps, [], kernel_operator(kernel, grid))
            raise AssertionError("no blowup")
        except NumericalBlowupError as error:
            assert error.step == 3
# a mode violation in either step of a two-step pass, in both orientations:
# a block of 1.0 in cells at 0.5, at dt = 1.5 dx, turns V(W) at step 3
for orientation, velocity in (("downstream", linear_velocity()),
                              ("upstream", linear_increasing_velocity())):
    grid = Grid1D(0.0, 1.0, n, left_farfield=0.5, right_farfield=0.5)
    values = np.full(n, 0.5)
    values[40:60] = 1.0
    kernel = KernelSpec(family="exponential", eta=grid.dx / 10, orientation=orientation)
    cfg = NonlocalSchemeConfig(kernel=kernel, velocity=velocity, cfl=1.0, t_end=1.0)
    run = (CellField(grid=grid, values=values), _upwind_flux(cfg), 1.5 * grid.dx)
    stepping.integrate(*run, 2, [], kernel_operator(kernel, grid))
    for steps in (4, 5):
        try:
            stepping.integrate(*run, steps, [], kernel_operator(kernel, grid))
            raise AssertionError("no mode violation")
        except ModeViolationError:
            pass
# a mode violation: V(W) = 0.5 - W < 0 on a full state
full = Grid1D(0.0, 1.0, 32, left_farfield=1.0, right_farfield=1.0)
cfg = NonlocalSchemeConfig(kernel=KernelSpec(family="exponential", eta=0.3,
                                             orientation="downstream"),
                           velocity=linear_velocity(0.5, 0.5), cfl=0.5, t_end=0.5)
try:
    step_upwind(CellField(grid=full, values=np.ones(32)), cfg, dt=0.001)
    raise AssertionError("no mode violation")
except ModeViolationError:
    pass

# the widest rows, into a buffer of exactly their size, then one byte short
values = np.array([-2.2250738585072014e-308, -np.inf] * 50)
columns = [native.Column.numbers(values), native.Column.lines(b"-0.000123,456\\n"),
           native.Column.numbers(np.arange(-100.0, 0.0))]
text = "".join(f"{{x:.17g}},-0.000123,456,{{i}}\\n"
               for i, x in zip(range(-100, 0), values.tolist()))
out = np.empty(len(text), dtype=np.uint8)
assert native.rows(columns, values.size, out).tobytes() == text.encode()
try:
    native.rows(columns, values.size, out[:-1].copy())
    raise AssertionError("no error")
except ValueError:
    pass
print("done")
"""


def test_sanitized_library_runs_steps_and_rows_cleanly(package):
    """The library built with AddressSanitizer and UndefinedBehaviorSanitizer
    runs both schemes, every velocity family, both kernels and orientations
    (the constant kernel's window also longer than the domain), 2 to 300
    cells, the two-step pass's tile edges and grids of two and three step
    tiles, with vacuum and -0.0 cells, blowups and mode violations (also in
    either step of a two-step pass, in both orientations) and rows that
    fill their buffer exactly, with no report."""
    runtimes = [subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True,
                               text=True, timeout=60).stdout.strip()
                for name in ("libasan.so", "libubsan.so")]
    if not os.path.isabs(runtimes[0]):
        pytest.skip("cc -print-file-name=libasan.so finds no AddressSanitizer runtime")
    source = package / "src" / "nonlocal_limit" / "native.py"
    text, count = re.subn(r"^FLAGS = .*$", f"FLAGS = {SANITIZED_FLAGS!r}", source.read_text(),
                          flags=re.M)
    assert count == 1
    source.write_text(text)
    log = package / "sanitizer"
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZED_SCRIPT.format(flags=SANITIZED_FLAGS, tile=TILE,
                                                       skew=SKEW)],
        cwd=package,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(package / "src"), "LD_PRELOAD": " ".join(runtimes),
             "ASAN_OPTIONS": f"log_path={log}:detect_leaks=0",
             "UBSAN_OPTIONS": f"log_path={log}:print_stacktrace=1"})
    reports = {path.name: path.read_text() for path in package.glob("sanitizer*")}
    assert proc.returncode == 0 and proc.stdout.split() == ["done"], (proc.stderr, reports)
    assert not any(reports.values()), reports
