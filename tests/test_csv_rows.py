"""The step library's CSV rows (``native.rows``) must give Python's bytes:
'%.17g' % x for float64 entries, text as it is."""

import decimal
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_limit import harness, native

WORST = (-2.2250738585072014e-308, -np.inf)  # the longest '%.17g' text, and "-inf"


def _formatted(values) -> bytes:
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    return native.rows([native.Column.numbers(values)], values.size).tobytes()


def _expected(values: np.ndarray) -> bytes:
    return ("%.17g\n" * values.size % tuple(values.tolist())).encode("ascii")


def _assert_exact(values):
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    got, want = _formatted(values), _expected(values)
    if got != want:
        mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got.splitlines(),
                                                    want.splitlines()) if g != w]
        pytest.fail(f"{len(mismatches)} values differ, first {mismatches[:10]}")


def _fixed_table() -> np.ndarray:
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
              5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308,
              1.7976931348623157e308, -1.7976931348623157e308,
              2.0**-25, 2.98023223876953125e-08, 0.5, 0.25, 1.5, 2.5, 100.0, 1e16,
              123456789012345678.0, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, -7.0]
    for k in range(-308, 18):  # powers of ten and both neighbours
        p = 10.0**k
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    values += [2.0**k for k in range(-1022, 61)]  # ties such as 2**-25 among them
    # notation switch, exact and truncated powers of five, exponent digits, path ends
    for edge in (1e-4, 9.9999999999999991e-05, 1e-10, 1e-11, 1e-12, 1e-99, 1e-100, 1e15):
        values += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    values += [9.99999999999999945e-05, 0.000099999999999999999, 9.9999999999999995e-11,
               999999999999999.875, 99999999999999999.0]  # rounding carries into 10**E
    return np.array(values + [-v for v in values])


def test_fixed_table_matches_python():
    _assert_exact(_fixed_table())


def test_every_layout_in_one_call_matches_python():
    """Mixed notations, signs and special values in one array."""
    rng = np.random.default_rng(11)
    values = np.concatenate([_fixed_table(),
                             rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-14, 18, 4000)])
    rng.shuffle(values)
    _assert_exact(values)


@pytest.mark.parametrize("size", [1, 2, 7])
def test_small_inputs(size):
    _assert_exact(np.linspace(-3.5, 1e-12, size))


def test_million_random_values_match_python():
    rng = np.random.default_rng(2024)
    n = 200_000
    _assert_exact(np.concatenate([
        rng.random(n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 17, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-308, -10, n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        rng.integers(10**15, 10**17, n).astype(np.float64) * 10.0 ** rng.integers(-26, 1, n),
    ]))


def _open_rounding(x: float) -> bool:
    """Whether the leading 64 bits of 5**k leave the rounding of x's 17
    digits open (README, "CSV schemas"): the bits shifted out lie within m
    units below a half, m the integer significand."""
    bits = int(np.float64(x).view(np.uint64))
    biased, m = bits >> 52 & 0x7FF, bits & (1 << 52) - 1 | 1 << 52
    k = 16 - decimal.Decimal(x).adjusted()  # exactly 16 - floor(log10 x)
    five = 5**k
    scale = max(0, five.bit_length() - 64)
    shift = 1075 - biased - k - scale
    below, half = m * (five >> scale) % (1 << shift), 1 << (shift - 1)
    return scale > 0 and below < half < below + m


def test_open_roundings_take_the_fallback_and_match():
    """Below 1e-11 the truncated 5**k leaves some roundings open; those
    values go to snprintf, and every value must still match."""
    values = 10.0 ** np.random.default_rng(5).uniform(-300, -12, 20_000)
    open_rounding = np.array([_open_rounding(x) for x in values.tolist()])
    assert 0 < open_rounding.sum() < values.size // 20
    _assert_exact(values[open_rounding])
    _assert_exact(values)


def _bit_patterns(biased_exponents, mantissas=st.integers(0, (1 << 52) - 1)):
    return st.builds(lambda sign, biased, mantissa: (sign << 63) | (biased << 52) | mantissa,
                     st.integers(0, 1), biased_exponents, mantissas)


def _near(edge: float, ulps: int) -> int:
    """The bit pattern ``ulps`` representable steps from ``edge`` > 0."""
    return int(np.float64(edge).view(np.uint64)) + ulps


EDGES = [10.0**k for k in range(-308, 18)] + [1e-11, 1e15, 1e17, 2.2250738585072014e-308]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.integers(0, 2**64 - 1),  # any pattern
    _bit_patterns(st.just(0)),  # subnormals and zeros
    _bit_patterns(st.just(2047), st.integers(1, (1 << 52) - 1)),  # NaN of either sign
    _bit_patterns(st.sampled_from([0, 2047]), st.just(0)),  # +-0 and +-inf
    _bit_patterns(st.integers(1, 1080)),  # the integer path and its upper end
    _bit_patterns(st.integers(980, 995)),  # where 5**k is cut to 64 bits
    st.builds(lambda edge, ulps, sign: _near(edge, ulps) | sign << 63,
              st.sampled_from(EDGES), st.integers(-3, 3), st.integers(0, 1)),
), min_size=1, max_size=64))
def test_drawn_bit_patterns_match_python(patterns):
    _assert_exact(np.array(patterns, dtype=np.uint64).view(np.float64))


LOCALE_SCRIPT = """
import locale
import numpy as np
from nonlocal_limit import native
locale.setlocale(locale.LC_NUMERIC, "de_DE.UTF-8")
assert locale.localeconv()["decimal_point"] == ","
values = np.array([5e-324, 1.2345e-310, 1.2345678901234567e20, 1e15 + 0.5, -3.5e300, 0.1])
got = native.rows([native.Column.numbers(values)], values.size).tobytes()
assert got == ("%.17g\\n" * values.size % tuple(values.tolist())).encode(), got
"""


def test_fallback_ignores_the_locale_decimal_point(tmp_path):
    """snprintf takes its decimal point from LC_NUMERIC, the rows never do:
    a fresh process under de_DE.UTF-8 (a decimal comma), which localedef
    builds here, writes the same text."""
    localedef = shutil.which("localedef")
    if localedef is None:
        pytest.skip("no localedef to build a locale with a decimal comma")
    subprocess.run([localedef, "-i", "de_DE", "-f", "UTF-8", str(tmp_path / "de_DE.UTF-8")],
                   capture_output=True, timeout=120)
    if not (tmp_path / "de_DE.UTF-8" / "LC_NUMERIC").exists():
        pytest.skip("localedef could not build de_DE.UTF-8")
    proc = subprocess.run([sys.executable, "-c", LOCALE_SCRIPT], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "LOCPATH": str(tmp_path),
                                            "PYTHONPATH": str(Path(native.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr


def test_integers_are_decimal():
    """The harness writes integer columns as '%.17g' of their float64 value."""
    values = [0, 7, -1, 10**15 + 1, 2**53]
    assert harness._rows(values).tobytes() == "".join(f"{v}\n" for v in values).encode()


def test_columns_repeat_their_entries_and_start_over():
    columns = [native.Column.lines(b"a\nbb\n", repeat=3), native.Column.numbers(np.arange(4.0)),
               native.Column.numbers(np.array([np.nan])), native.Column.lines(b"x,y\n")]
    text = native.rows(columns, 7).tobytes().decode("ascii")
    assert text.splitlines() == [f"{'a' if r < 3 or r == 6 else 'bb'},{r % 4},nan,x,y"
                                 for r in range(7)]


def _worst_rows():
    """Rows of the widest float text, "-inf" and text."""
    values = np.array(WORST * 3)
    columns = [native.Column.numbers(values), native.Column.lines(b"-0.000123,456\n"),
               native.Column.numbers(-values), native.Column.numbers(np.array([-1.5e308]))]
    text = "".join(f"{x:.17g},-0.000123,456,{-x:.17g},-1.5e+308\n" for x in values.tolist())
    return columns, values.size, text.encode("ascii")


def test_rows_fill_exactly_their_capacity():
    columns, n_rows, text = _worst_rows()
    assert native.rows(columns, n_rows).tobytes() == text
    out = np.empty(len(text), dtype=np.uint8)
    assert native.rows(columns, n_rows, out).tobytes() == text


def test_short_capacity_raises_and_writes_nothing_past_the_buffer():
    columns, n_rows, text = _worst_rows()
    for capacity in (len(text) - 1, len(text) - 25, 0):
        backing = np.full(len(text) + 64, 0xA5, dtype=np.uint8)
        with pytest.raises(ValueError, match=f"do not fit in {capacity} bytes"):
            native.rows(columns, n_rows, backing[:capacity])
        assert (backing[capacity:] == 0xA5).all()


@pytest.mark.parametrize("bad", [
    np.zeros(3, dtype=np.float32), np.zeros(3, dtype=np.int64), np.zeros(6)[::2],
    np.zeros(0), [0.5, 1.0],
])
def test_columns_check_dtype_contiguity_and_length(bad):
    with pytest.raises(ValueError, match="expected a contiguous"):
        native.Column.numbers(bad)


def test_text_needs_a_line_and_columns_a_repeat():
    with pytest.raises(ValueError, match="LF-terminated line"):
        native.Column.lines(b"no newline")
    with pytest.raises(ValueError, match="repeat of at least 1"):
        native.rows([native.Column.lines(b"x\n", repeat=0)], 2)


@pytest.mark.parametrize("out", [
    np.zeros(64), np.zeros(128, dtype=np.uint8)[::2], np.zeros(64, dtype=np.uint8)[None],
])
def test_buffer_must_be_contiguous_writeable_bytes(out):
    if out.dtype == np.uint8 and out.ndim == 2:
        out.flags.writeable = False
    with pytest.raises(ValueError, match="expected a contiguous writeable uint8"):
        native.rows([native.Column.numbers(np.zeros(2))], 2, out)


@pytest.mark.parametrize("n_columns", [0, 17])
def test_column_count_is_checked(n_columns):
    with pytest.raises(ValueError, match="1 to 16 columns"):
        native.rows([native.Column.numbers(np.zeros(1))] * n_columns, 1,
                    np.empty(1024, dtype=np.uint8))
