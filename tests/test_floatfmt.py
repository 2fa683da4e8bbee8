"""The vectorised '%.17g' formatter must give Python's bytes exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonlocal_limit.floatfmt as floatfmt
from nonlocal_limit.floatfmt import SLOT_WIDTH, format_g17


def _formatted(values) -> list[bytes]:
    text = format_g17(values)
    assert text.dtype == np.uint8 and text.shape[0] == np.size(values)
    assert text.shape[1] <= SLOT_WIDTH
    return [row.tobytes().replace(b"\0", b"") for row in text]


def _expected(values: np.ndarray) -> list[bytes]:
    return [("%.17g" % v).encode("ascii") for v in values.tolist()]


def _assert_exact(values):
    values = np.asarray(values, dtype=np.float64)
    got, want = _formatted(values), _expected(values)
    mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not mismatches, mismatches[:10]


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


def test_every_slot_layout_in_one_call_matches_python():
    """Mixed notations, signs and special values in one array."""
    rng = np.random.default_rng(11)
    values = np.concatenate([_fixed_table(),
                             rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-14, 18, 4000)])
    rng.shuffle(values)
    _assert_exact(values)


@pytest.mark.parametrize("size", [0, 1, 2, 7])
def test_small_inputs(size):
    values = np.linspace(-3.5, 1e-12, size)
    _assert_exact(values)
    assert format_g17(values).shape[0] == size


def test_accepts_lists_and_scalars():
    assert _formatted([0.1, 2]) == [b"0.10000000000000001", b"2"]
    assert _formatted(-1e-300) == [b"-1e-300"]


def test_million_random_values_match_python():
    rng = np.random.default_rng(2024)
    n = 200_000
    values = np.concatenate([
        rng.random(n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 17, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-308, -10, n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        rng.integers(10**15, 10**17, n).astype(np.float64) * 10.0 ** rng.integers(-26, 1, n),
    ])
    text = format_g17(values)
    lines = np.concatenate([text, np.full((values.size, 1), ord("\n"), np.uint8)], axis=1)
    expected = ("%.17g\n" * values.size % tuple(values.tolist())).encode("ascii")
    assert lines.tobytes().translate(None, b"\0") == expected


def test_open_roundings_go_to_python_and_match():
    """Below 1e-11 a truncated 5**k leaves some roundings open; those values
    must take the Python path, and every value must still match."""
    values = 10.0 ** np.random.default_rng(5).uniform(-300, -12, 20_000)
    bits = values.view(np.uint64)
    biased = (bits >> np.uint64(52)).view(np.int64)
    exponent = floatfmt._FLOOR_LOG10[biased] + (values >= floatfmt._NEXT_POW10[biased])
    _, open_rounding = floatfmt._significand(bits, biased, 16 - exponent)
    assert 0 < open_rounding.sum() < values.size // 20
    _assert_exact(values[open_rounding])
    _assert_exact(values)


def _bit_patterns(biased_exponents):
    return st.builds(
        lambda sign, biased, mantissa: (sign << 63) | (biased << 52) | mantissa,
        st.integers(0, 1), biased_exponents, st.integers(0, (1 << 52) - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.integers(0, 2**64 - 1),  # any pattern: subnormals, zeros, infinities, NaNs
    _bit_patterns(st.integers(1, 1080)),  # the integer path and its upper end
    _bit_patterns(st.integers(980, 995)),  # where the power of five is cut to 63 bits
    _bit_patterns(st.sampled_from([0, 1, 2046, 2047])),
), min_size=1, max_size=64))
def test_raw_bit_patterns_match_python(patterns):
    _assert_exact(np.array(patterns, dtype=np.uint64).view(np.float64))
