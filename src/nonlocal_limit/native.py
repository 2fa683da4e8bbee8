"""The compiled step bodies of ``steps.c``, built at import and called
through ctypes (README, "Install and test").

The library is cached in this package's ``__pycache__/`` under a name hashed
from the source, the flags, the platform and the CPU.  ``Flux`` and
``Average`` describe an interface flux and a kernel average to it, and
``Run`` a run's rows and records; ``lib.nl_advance`` makes a run's steps.
``rows`` writes the CSV rows of ``Column`` objects.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import zlib
from pathlib import Path

import numpy as np

from .errors import ModeViolationError

SOURCE = Path(__file__).with_name("steps.c")
VELOCITY_FAMILIES = ("linear", "quadratic", "linear_increasing", "constant")
UPWIND, GODUNOV = 0, 1
EXPONENTIAL, CONSTANT = 0, 1
REAL_WIDTH = len("-2.2250738585072014e-308")  # the longest '%.17g' text of a float64

try:  # the CPU's instruction-set line ("Features" on ARM)
    with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
        CPU = next((line for line in fh if line.startswith(("flags", "Features"))), "")
except OSError:
    CPU = ""
# -ffp-contract=off: no fused multiply-adds, so every operation rounds as
# numpy's does; never a fast-math flag, which reassociates and, linked into a
# shared library by gcc, flushes subnormals for the whole process.  The
# library is built for this CPU only where its name covers the CPU.
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared") + (("-march=native",) if CPU else ())


def _load() -> ctypes.CDLL:
    directory = SOURCE.parent / "__pycache__"
    # 64 bits of zlib checksums: numpy loads zlib, where hashlib costs ~5 ms per import
    key = SOURCE.read_bytes() + "\0".join([*FLAGS, sys.platform, platform.machine(), CPU]).encode()
    path = directory / f"steps-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    if not path.exists():
        import subprocess
        import tempfile

        command, partial = ["cc", *FLAGS, "-o", str(path), str(SOURCE)], None
        try:
            directory.mkdir(exist_ok=True)
            fd, partial = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=directory)
            os.close(fd)
            command[-2] = partial
            subprocess.run(command, check=True, capture_output=True, text=True)
            os.chmod(partial, 0o755)  # mkstemp's 0600 would keep other users out
            os.replace(partial, path)
        except (OSError, subprocess.CalledProcessError) as exc:
            # the compiler's first error line, else its last line, else the OS error
            lines = (getattr(exc, "stderr", None) or "").strip().splitlines()
            reason = next((line for line in lines if "error" in line), lines[-1] if lines else exc)
            raise ImportError(f"cannot build the step library: `{' '.join(command)}` in "
                              f"{directory} failed: {reason}") from None
        finally:
            if partial is not None and os.path.exists(partial):
                os.remove(partial)
    return ctypes.CDLL(str(path))


lib = _load()
_P, _D, _L = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
for _name, _args, _result in [
        ("nl_velocity", [ctypes.c_int, _D, _D, _P, _P, _L], None),
        ("nl_godunov", [_P, _P, _P, _P, _P, _P, _L], None),
        ("nl_average", [_P, _P, _P], None),
        ("nl_advance", [_P, _L, _L], _L),
        ("nl_rows", [_P, _L, _L, _P, _L], _L)]:
    getattr(lib, _name).argtypes = _args
    getattr(lib, _name).restype = _result


def _address(array: np.ndarray, size: int, writes: bool = False, dtype=np.float64) -> int:
    """The address of ``array``'s data, after checking that it is a
    contiguous ``dtype`` array of ``size`` entries, writeable if ``writes``."""
    if not (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.flags.c_contiguous and array.size == size
            and (array.flags.writeable or not writes)):
        raise ValueError(f"expected a contiguous{' writeable' if writes else ''} "
                         f"{np.dtype(dtype).name} array of {size} values")
    return array.ctypes.data


class Flux(ctypes.Structure):
    """An interface flux: the velocity law, the scheme and its orientation."""

    _fields_ = [("family", ctypes.c_int), ("scheme", ctypes.c_int), ("mirrored", ctypes.c_int),
                ("v", _D), ("s_max", _D), ("slack", _D), ("s_star", _D), ("f_star", _D)]

    @classmethod
    def upwind(cls, velocity, upstream: bool, slack: float) -> Flux:
        return cls(VELOCITY_FAMILIES.index(velocity.family), UPWIND, upstream,
                   *velocity.params, slack)

    @classmethod
    def godunov(cls, velocity, f_star: float) -> Flux:
        return cls(VELOCITY_FAMILIES.index(velocity.family), GODUNOV,
                   velocity.mode == "increasing", *velocity.params, 0.0,
                   velocity.critical_density, f_star)

    def violation(self, extreme: float) -> ModeViolationError:
        """The error of an upwind flux velocity whose sign its orientation forbids."""
        moved, orientation = (("rose to {:g} > 0", "upstream") if self.mirrored
                              else ("fell to {:g} < 0", "downstream"))
        return ModeViolationError(f"flux velocity {moved.format(extreme)} in {orientation} "
                                  "mode; kernel orientation and velocity model are mispaired")

    def select(self, a: np.ndarray, b: np.ndarray, f_a: np.ndarray, f_b: np.ndarray) -> np.ndarray:
        """The Godunov flux between states a and b, of flux values f_a and f_b."""
        out = np.empty(a.shape)
        lib.nl_godunov(ctypes.byref(self), *(_address(x, a.size) for x in (a, b, f_a, f_b)),
                       out.ctypes.data, a.size)
        return out


class Average(ctypes.Structure):
    """A kernel average on a grid of n cells; ``average(values)`` returns W
    at the n + 1 interfaces as a new array.  It holds parameters only, so
    any number of runs and threads may share one."""

    _fields_ = [("kernel", ctypes.c_int), ("upstream", ctypes.c_int), ("n", _L), ("m", _L),
                ("farfield", _D), ("alpha", _D), ("dx", _D), ("eta", _D), ("remainder", _D)]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        w = np.empty(self.n + 1)
        lib.nl_average(ctypes.byref(self), _address(values, self.n), w.ctypes.data)
        return w


class Run(ctypes.Structure):
    """A run as ``lib.nl_advance`` advances it (see steps.c): addresses of
    its flux, kernel average, rows (an upwind run's second W row ``w2``, for
    two steps per pass), record series and scratch, and the boundary-flux
    integral, q extremes and error the library keeps.  After a failed step
    only the step returned, ``error``, ``extreme`` and the last good step's
    records, q extremes and ``boundary`` hold; q and W are unspecified."""

    _fields_ = [("flux", _P), ("average", _P), ("n", _L), ("dx", _D), ("dt", _D),
                *((name, _P) for name in ("q", "w", "tv_q", "tv_w", "mass", "fluxes", "scratch",
                                          "w2")),
                ("boundary", _D), ("q_min", _D), ("q_max", _D), ("extreme", _D),
                ("error", ctypes.c_int)]


class Column(ctypes.Structure):
    """A column of CSV rows (see ``rows``): float64 entries as '%.17g', or
    lines of text.  Row r of a call takes entry (r // repeat) % count.
    ``width`` bounds the text of an entry, and ``arrays`` keeps alive the
    arrays it points to."""

    _fields_ = [("repeat", _L), ("count", _L), ("values", _P), ("starts", _P)]

    @classmethod
    def numbers(cls, values: np.ndarray) -> Column:
        """The float64 ``values``, at least one."""
        size = max(getattr(values, "size", 0), 1)  # an empty array fails the size check
        column = cls(1, size, _address(values, size), None)
        column.arrays, column.width = (values,), REAL_WIDTH
        return column

    @classmethod
    def lines(cls, text, repeat: int = 1) -> Column:
        """The LF-terminated lines of the bytes-like ``text``, at least one,
        without their LFs."""
        data = np.frombuffer(text, dtype=np.uint8)
        starts = np.concatenate([[0], np.flatnonzero(data == ord("\n")) + 1])
        if starts.size < 2:
            raise ValueError("expected at least one LF-terminated line")
        column = cls(repeat, starts.size - 1, data.ctypes.data, starts.ctypes.data)
        column.arrays, column.width = (data, starts), int(np.diff(starts).max()) - 1
        return column


def rows(columns, n_rows: int, out: np.ndarray | None = None) -> np.ndarray:
    """The ``n_rows`` CSV lines of ``columns`` (comma-separated,
    LF-terminated), written into ``out``, a contiguous writeable uint8
    array, or into a new one that fits the widest rows; returns the part
    written.  Raises ValueError when they do not fit, with nothing written
    past ``out``."""
    if out is None:
        out = np.empty(n_rows * (sum(column.width for column in columns) + len(columns)),
                       dtype=np.uint8)
    address = _address(out, out.size, True, np.uint8)
    written = lib.nl_rows((Column * len(columns))(*columns), len(columns), n_rows, address,
                          out.size)
    if written < 0:
        raise ValueError(f"{n_rows} rows do not fit in {out.size} bytes" if written == -1
                         else "expected 1 to 16 columns, each with a repeat of at least 1")
    return out[:written]
