"""The exact bytes of Python's '%.17g' for a float64 table, digits from numpy.

For |x| in [1e-11, 1e17) the 17 significant digits are D = round(|x| * 10^k),
k = 16 - e, with e the decimal exponent.  In a long double with a 64-bit
significand 10^k is exact for k <= 27, and the product of two exact factors
below 10^17 is off by at most half an ulp, 2^-8 units.  So wherever the
computed fraction of |x| * 10^k lies at least 1/128 away from one half, D is
the correctly rounded digit string that CPython's dtoa prints.  Every other
value (fractions near a tie, zeros, magnitudes outside the range, nan and
inf) is formatted by Python itself; where the long double is narrower, that
is every value.

Each value's text is laid out in a fixed cell of 44 bytes with 0 as
padding, and one mask drops the padding:

    sign | "0.000" | d0 . d1 . d2 ... d15 . d16 | "e-XX" | separator

Unused parts of the cell stay padding: the sign of positive values, the
prefix beyond "0." and the zeros that fixed notation needs below 1, every
dot slot but the decimal point, the stripped trailing zeros, and the
exponent of fixed notation.
"""

from __future__ import annotations

import numpy as np

# a 64-bit significand in the type and in its arithmetic: an x87 unit set to
# 53-bit precision rounds 1 + 2^-63 back to 1
EXACT_LONG_DOUBLE = bool(np.finfo(np.longdouble).nmant >= 63
                         and (np.ldexp(np.ones(1, dtype=np.longdouble), -63) + 1)[0] != 1)

_K_MAX = 27
# 10^0..10^27, each product exact: 10^k = 2^k * 5^k with 5^27 < 2^64
_POW10 = np.cumprod(np.array([1] + [10] * _K_MAX, dtype=np.longdouble))


def _digit_groups() -> np.ndarray:
    """"0000".."9999" as one uint32 of four ASCII digits in memory order,
    then the same groups with their trailing zeros as padding."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):
        groups[..., j] = digit.reshape((10,) + (1,) * (3 - j))
    # digit j is padding in the second copy when it and the digits after it are zeros
    groups[1, :, :, :, 0, 3] = 0
    groups[1, :, :, 0, 0, 2] = 0
    groups[1, :, 0, 0, 0, 1] = 0
    groups[1, 0, 0, 0, 0, 0] = 0
    return groups.view(np.uint32).ravel()


_GROUPS = _digit_groups()

_DIGIT0 = 6                    # d_i sits at column 6 + 2i, its dot slot at 7 + 2i
_SUFFIX = _DIGIT0 + 33
_CELL = _SUFFIX + 5            # "e-XX", then the separator
_FALLBACK = f"S{_CELL - 1}"    # the widest text, '-2.2250738585072014e-308', fits


def format_table(table: np.ndarray) -> bytes:
    """CSV rows of a 2-D float64 table: each value as '%.17g' % value,
    comma-separated, each row ending in a newline."""
    rows, ncols = table.shape
    v = table.ravel()
    n = v.size
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= 16 - _K_MAX) & (e <= 16) & EXACT_LONG_DOUBLE
    e = np.where(fast, e, 0.0).astype(np.int64)
    y = np.where(fast, a, 1.0).astype(np.longdouble) * _POW10[16 - e]
    whole = y.astype(np.int64)
    frac = (y - whole).astype(np.float64)  # a multiple of 2^-10, exact
    d = whole + (frac > 0.5)
    # log10 can miss e by one next to a power of ten, and rounding up can
    # reach 10^17; both fall back like the near-ties
    fast &= (whole >= 10 ** 16) & (d < 10 ** 17) & (np.abs(frac - 0.5) >= 1.0 / 128)

    cells = np.zeros((n, _CELL), dtype=np.uint8)
    cells[:, 0] = (v < 0.0) * np.uint8(ord("-"))
    fixed = e >= -4
    zeros = np.where(fixed & (e < 0), -e, 0)  # "0." and -e - 1 more zeros
    for j, char in enumerate(b"0.000"):
        cells[:, 1 + j] = (zeros >= max(j, 1)) * np.uint8(char)
    lead, rest = np.divmod(d, 10 ** 16)
    cells[:, _DIGIT0] = lead + ord("0")
    hi, lo = np.divmod(rest, 10 ** 8)
    groups = np.divmod(hi, 10000) + np.divmod(lo, 10000)  # d1-d4, ..., d13-d16
    quads = np.empty((n, 4), dtype=np.uint32)
    later_zero = np.ones(n, dtype=bool)
    for j in (3, 2, 1, 0):
        # the last nonzero group and the zero groups after it strip their trailing zeros
        quads[:, j] = _GROUPS[groups[j] + 10000 * later_zero]
        later_zero &= groups[j] == 0
    cells[:, _DIGIT0 + 2:_SUFFIX:2] = quads.view(np.uint8)
    flat = cells.ravel()
    digit_at = np.arange(n) * _CELL + _DIGIT0  # + 2i: the column of digit i
    # fixed notation keeps the zeros of its integer part
    integer = np.flatnonzero(e >= 1)
    integer = integer[flat[digit_at[integer] + 2 * e[integer]] == 0]
    part = cells[integer, _DIGIT0:_SUFFIX:2]
    part[(part == 0) & (np.arange(17) <= e[integer, None])] = ord("0")
    cells[integer, _DIGIT0:_SUFFIX:2] = part
    # the decimal point follows digit e in fixed notation and digit 0 in
    # exponent notation, unless no digit follows it
    point = np.where(fixed, e, 0)
    dotted = np.flatnonzero((point >= 0) & (point < 16))
    after = digit_at[dotted] + 2 * point[dotted] + 2
    flat[after[flat[after] != 0] - 1] = ord(".")
    # exponent notation with digits from numpy has e in [-11, -5]
    exponent = ~fixed
    tens, ones = np.divmod(-e, 10)
    cells[:, _SUFFIX] = exponent * np.uint8(ord("e"))
    cells[:, _SUFFIX + 1] = exponent * np.uint8(ord("-"))
    cells[:, _SUFFIX + 2] = exponent * (tens + ord("0"))
    cells[:, _SUFFIX + 3] = exponent * (ones + ord("0"))
    cells[:, -1] = np.tile(np.frombuffer(b"," * (ncols - 1) + b"\n", dtype=np.uint8), rows)

    slow = np.flatnonzero(~fast)
    text = np.array([format(x, ".17g") for x in v[slow].tolist()], dtype=_FALLBACK)
    cells[slow, :-1] = text.view(np.uint8).reshape(slow.size, _CELL - 1)
    return np.compress(flat != 0, flat).tobytes()
