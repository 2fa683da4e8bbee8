"""Exact '%.17g' text of float64 arrays, without a Python call per value.

``format_g17`` returns one row of NUL-padded ASCII slots per value; a writer
lays rows of slots side by side and deletes the NUL bytes once per block.

Zeros and normal values with |x| < 1e15 take an integer path that gives the
correctly rounded digits CPython prints.  With E = floor(log10|x|) and
x = m * 2**e, the 17 significant digits are N = round-half-even(m * 5**k *
2**(e + k)) for k = 16 - E.  For 1e-11 <= |x| < 1e15, k <= 27, so 5**k <
2**63 and m * 5**k is an exact 128-bit product of 32-bit limbs, which a
right shift of 1 to 63 bits scales back to N < 10**17 (10**17 itself when
rounding carries into the next power of ten).  Below 1e-11 the product
takes the top 63 bits of 5**k instead.  The truncation lowers the product
by less than m units, and no tie is possible there, so the rounding is
certain unless the bits shifted out lie within that margin below a half;
such values (under 1% of them) go to Python, as do subnormals, values from
1e15 up, NaN and the infinities (these two from a table).  Each step works
on all values at once, invalid results masked, one character slot per
array row.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

SLOT_WIDTH = 29  # sign, "0.000", 17 digits with a point, "e-ddd"

_E_MIN, _E_MAX = -308, 15  # the integer path: 10**_E_MIN <= |x| < 10**_E_MAX


def _ceil_pow10(e: int) -> float:
    """The smallest double >= 10**e: a double x is >= 10**e iff x >= it."""
    nearest = 10.0**e if e >= 0 else 1 / 10**-e  # both correctly rounded
    num, den = nearest.as_integer_ratio()
    exact = num * 10 ** max(-e, 0) >= den * 10 ** max(e, 0)
    return nearest if exact else math.nextafter(nearest, math.inf)


def _exponent_tables():
    """For each biased binary exponent b, floor(log10 2**(b - 1023)) and the
    smallest double >= the next power of ten, so that for a double x with
    exponent b, floor(log10|x|) = table + (|x| >= threshold).  Exponents
    outside the integer path map to 16 with an infinite threshold; b = 0
    maps to 0, which is right for zero (subnormals leave the path apart).
    Built in plain Python: numpy calls made at import would load code pages
    into every process that imports the package."""
    ceil_pow10 = [_ceil_pow10(e) for e in range(_E_MIN - 1, _E_MAX + 1)]
    floor_log10, threshold = [16] * 2048, [math.inf] * 2048
    floor_log10[0] = 0
    for b in range(1, 2047):
        rank = bisect.bisect_right(ceil_pow10, math.ldexp(1.0, b - 1023))
        if 1 <= rank < len(ceil_pow10):
            floor_log10[b], threshold[b] = rank + _E_MIN - 2, ceil_pow10[rank]
    return np.array(floor_log10), np.array(threshold)


def _layout_tables():
    """Per decimal exponent E in [_E_MIN - 1, 17] (column E - _E_MIN + 1):
    the text before the digits and after them (NUL-padded to 5 bytes each),
    the digits before the point (18: the point is not among the digits)
    and the digits kept however many trailing zeros there are.  '%.17g' is
    scientific for E < -4, "0.", zeros and digits for E < 0, else fixed."""
    prefix, suffix, integer_digits, least_kept = [], [], [], []
    for e in range(_E_MIN - 1, 18):
        scientific, small = e < -4, -4 <= e < 0
        prefix.append(list((b"0." + b"0" * (-e - 1) if small else b"").ljust(5, b"\0")))
        suffix.append(list((b"e-%02d" % -e if scientific else b"").ljust(5, b"\0")))
        integer_digits.append(1 if scientific else 18 if small else e + 1)
        least_kept.append(max(e + 1, 0))
    return (np.array(prefix, dtype=np.uint8).T.copy(), np.array(suffix, dtype=np.uint8).T.copy(),
            np.array(integer_digits, dtype=np.uint8), np.array(least_kept, dtype=np.uint8))


_FLOOR_LOG10, _NEXT_POW10 = _exponent_tables()
_PREFIX, _SUFFIX, _INTEGER_DIGITS, _LEAST_KEPT = _layout_tables()
# 5**k = (_FIVE_HIGH[k] * 2**32 + _FIVE_LOW[k]) * 2**_FIVE_SCALE[k], the
# first factor truncated to 63 bits for k > 27
_FIVE = [(5**k >> g, g) for k in range(17 - _E_MIN) for g in [max(0, (5**k).bit_length() - 63)]]
_FIVE_SCALE = np.array([g for _, g in _FIVE])
_FIVE_LOW = np.array([f & 0xFFFFFFFF for f, _ in _FIVE], dtype=np.uint64)
_FIVE_HIGH = np.array([f >> 32 for f, _ in _FIVE], dtype=np.uint64)
_HALF = np.uint64(1 << 63)
_LOW32 = np.uint64(0xFFFFFFFF)
_CHAR = {c: np.uint8(ord(c)) for c in "-0."}
_DIGIT_RANK = np.arange(1, 18, dtype=np.uint8)[:, None]
_BODY_COLUMN = np.arange(18, dtype=np.uint8)[:, None]
_SPECIAL = ((np.isnan, b"nan"), (np.isposinf, b"inf"), (np.isneginf, b"-inf"))
_PADDED_G17 = f"%-{SLOT_WIDTH}.17g"  # '%.17g' text padded with spaces to one slot row
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _significand(bits: np.ndarray, biased: np.ndarray, k: np.ndarray):
    """round-half-even(|x| * 10**k) for the float64 bit patterns ``bits``
    with biased exponents ``biased``, and the mask of values whose rounding
    the truncated 5**k leaves open (None when no k is above 27).
    Valid where the result is below 2**64 and the right shift s = 1075 -
    biased - k - _FIVE_SCALE[k] lies in [1, 63]; where s is at least 64 the
    result is 0, which makes zeros come out right.  Works in place on a few
    arrays: fresh temporaries cost page faults."""
    u32 = np.uint64(32)
    scale = _FIVE_SCALE[k]
    shift = np.subtract(1075 - k - scale, biased).view(np.uint64)
    f0, f1 = _FIVE_LOW[k], _FIVE_HIGH[k]
    m0 = bits & _LOW32  # mantissa = m1 * 2**32 + m0, with the implicit bit
    m1 = bits >> u32
    m1 &= np.uint64(0xFFFFF)
    m1 |= np.uint64(1 << 20)
    low = m0 * f0
    middle = np.multiply(m0, f1, out=m0)
    middle += np.multiply(m1, f0, out=f0)
    high = np.multiply(m1, f1, out=f1)
    carry = np.right_shift(low, u32, out=m1)
    carry += np.bitwise_and(middle, _LOW32, out=f0)
    low &= _LOW32
    low |= np.left_shift(carry, u32, out=f0)  # low 64 bits of the product
    high += np.right_shift(middle, u32, out=middle)
    high += np.right_shift(carry, u32, out=carry)  # high 64 bits
    left = np.subtract(np.uint64(64), shift, out=m0)
    n = np.left_shift(high, left, out=high)
    n |= np.right_shift(low, shift, out=m1)
    below = np.left_shift(low, left, out=low)  # bits shifted out, as a fraction of 2**64
    truncated = scale > 0
    open_rounding = None
    if truncated.any():
        # the exact fraction lies in (below, below + margin), so it rounds
        # the way `below` does unless that interval holds the half; a carry
        # past 2**64 rounds up to n + 1 as below >= half does
        margin = (bits & np.uint64((1 << 52) - 1) | np.uint64(1 << 52)) << left
        open_rounding = truncated & (below < _HALF) & (below > _HALF - margin)
    # round half to even; with a truncated 5**k, a computed half is above it
    below += np.bitwise_and(n, np.uint64(1), out=m1) | truncated
    n += below > _HALF
    return n, open_rounding


def _write_digits(n: np.ndarray, out: np.ndarray):
    """Write the digits of each n < 10**17 into the 18 rows of ``out``, one
    digit per row, most significant first: a 0, then the 17 digits.  n
    splits into two uint32 parts of 9 digits, the first below 10**8."""
    high = n // np.uint64(10**9)
    parts = np.empty((3, 2, n.size), dtype=np.uint32)
    parts[0, 0] = high
    parts[0, 1] = n - high * np.uint64(10**9)
    value, quotient, scratch = parts
    rows = out.reshape(2, 9, n.size)
    for j in range(8, -1, -1):
        np.floor_divide(value, np.uint32(10), out=quotient)
        np.subtract(value, np.multiply(quotient, np.uint32(10), out=scratch), out=rows[:, j])
        value, quotient = quotient, value


def format_g17(values) -> np.ndarray:
    """A (len(values), w) uint8 array, w <= SLOT_WIDTH, whose row i holds
    the ASCII bytes of '%.17g' % values[i] with NUL bytes in between and
    around: deleting the NULs of row i gives exactly that text."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)).view(np.int64)
    biased &= 0x7FF
    exponent = _FLOOR_LOG10[biased]
    exponent += np.abs(x) >= _NEXT_POW10[biased]
    fast = (exponent >= _E_MIN) & (exponent < _E_MAX) & ((biased != 0) | (x == 0.0))
    n, open_rounding = _significand(bits, biased, 16 - exponent)
    if open_rounding is not None:
        fast &= ~open_rounding
    carried = n == np.uint64(10**17)
    n -= carried * np.uint64(9 * 10**16)
    exponent += carried

    # padded rows: 0, the 17 digits, 0; digit j is row j + 1
    padded = np.zeros((19, x.size), dtype=np.uint8)
    _write_digits(n, padded[:18])
    digit, previous = padded[1:], padded[:-1]  # digits j and j - 1 in row j
    mask = np.not_equal(digit, 0)
    n_digits = np.max(mask[:17] * _DIGIT_RANK, axis=0)
    digit[:17] += _CHAR["0"]
    layout = exponent - (_E_MIN - 1)
    integer_digits = _INTEGER_DIGITS[layout]
    has_point = n_digits > integer_digits
    point = 18 - has_point * (18 - integer_digits)
    kept = np.maximum(n_digits, _LEAST_KEPT[layout]) + has_point

    slots = np.empty((SLOT_WIDTH, x.size), dtype=np.uint8)
    np.multiply(bits >> np.uint64(63), _CHAR["-"], out=slots[0], casting="unsafe")
    np.take(_PREFIX, layout, axis=1, out=slots[1:6])
    # branch-free, as the point moves from value to value; modulo 256
    body = slots[6:24]
    np.subtract(previous, digit, out=body)
    body *= np.greater_equal(_BODY_COLUMN, point, out=mask)
    body += digit
    np.subtract(_CHAR["."], previous, out=previous)
    previous *= np.equal(_BODY_COLUMN, point, out=mask)
    body += previous
    body *= np.less(_BODY_COLUMN, kept, out=mask)
    np.take(_SUFFIX, layout, axis=1, out=slots[24:])

    out = slots.T
    if not fast.all():
        finite = np.isfinite(x)
        slow = np.flatnonzero(~fast & finite)
        text = (_PADDED_G17 * slow.size % tuple(x[slow].tolist())).encode("ascii")
        out[slow] = np.frombuffer(text.translate(_SPACE_TO_NUL), np.uint8).reshape(-1, SLOT_WIDTH)
        if not finite.all():
            for test, word in _SPECIAL:
                out[test(x)] = np.frombuffer(word.ljust(SLOT_WIDTH, b"\0"), dtype=np.uint8)
    used = np.flatnonzero(slots.any(axis=1))  # drop the slots no value uses
    return out[:, used[0]:used[-1] + 1] if used.size else out
