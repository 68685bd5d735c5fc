"""Float64 columns as `"{:.17g}"` prints them, in numpy array operations.

`harness._write_rows` imports this module on first use, where numpy's long
double has a significand of 64 bits or more.  Each value's correctly
rounded 17-digit significand comes from one long double product (see
`significands`); the values it cannot vouch for are printed by Python, so
the text is the same byte for byte.  The tables are built on the first call.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

# Decimal exponents of nonzero float64 values.
KMIN, KMAX = -324, 308


def pow10(p: int) -> np.longdouble:
    """10**p rounded once to a 64-bit significand, from exact integers."""
    q = Fraction(10) ** p
    e = q.numerator.bit_length() - q.denominator.bit_length() - 64
    e += q >= Fraction(2) ** (e + 64)
    return np.ldexp(np.longdouble(round(q / Fraction(2) ** e)), e)


@functools.cache
def tables():
    """Lookup tables of `text`, built on its first call.

    `scale` holds 64 * 10**(16 - k) for each decimal exponent k, `exps` the
    exponent words, `digits` the words "0000" .. "9999".  Each value becomes
    one row of 14 native words (56 bytes), and a mask row picks its text
    out of it:

        bytes 1..3   "-0."      sign, and the "0." of 0.000ddd
        words 1..5   "000" + the 17 digits (digit 0 at byte 7); the zeros
                     serve 0.000ddd
        byte  27     "."
        words 7..10  digits 1..16 again, after the point
        byte  47     "e", then the exponent word: "+17\0" .. "-308"
        byte  52     the column's separator

    Mask n - 1 keeps the first n bytes and the separator, for a value
    printed per value into bytes 0..23.  Mask 24 + (sign * 23 + class) *
    17 + significant digits - 1 lays out the rest, where the class is k + 4
    in fixed notation (-4 <= k < 17), and 21 or 22 for a two- or
    three-digit exponent.
    """
    ks = range(KMIN, KMAX + 1)
    scale = np.array([pow10(16 - k) * 64 for k in ks])
    exps = np.frombuffer(b"".join(f"{k:+03d}".encode().ljust(4, b"\0") for k in ks), np.uint32)
    digits = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint32)
    marks = np.frombuffer(b"\0-0.\0\0\0.\0\0\0e,\0\0\0\n\0\0\0", np.uint32)
    masks = np.zeros((24 + 2 * 23 * 17, 56), bool)

    def keep(i, *spans):
        for start, n in spans:
            masks[i, start : start + n] = True

    for n in range(24):
        keep(n, (0, n + 1), (52, 1))
    for i, (neg, c, sig) in enumerate(itertools.product((0, 1), range(23), range(1, 18)), 24):
        k = c - 4
        if c > 20:
            keep(i, (7, 1), (27, sig > 1), (28, sig - 1), (47, c - 17))
        elif k >= 0:
            keep(i, (7, k + 1), (27, sig > k + 1), (28 + k, sig - k - 1))
        else:
            keep(i, (2, 2), (8 + k, sig - k - 1))
        keep(i, (1, neg), (52, 1))
    return scale, exps, digits, marks, masks


def significands(x: np.ndarray, scale: np.ndarray):
    """Decimal exponent k, 17-digit significand r, and where both are exact, for each of `x`.

    For finite nonzero x, with a = |x| and k = floor(log10 a), D = a 10**(16 - k)
    in long double is within 2**-63 10**17 < 0.011 of its exact value, so
    wherever round(D) lies in (10**16, 10**17) and frac(D) is at least 1/64
    from 1/2, round(D) is the correctly rounded significand that `%.17g`
    prints, and k its exponent.  About 3% of values are not exact: those
    within the margin, those whose significand rounds to 10**16 or 10**17
    (and whose log10 may round across an integer), and every zero, inf and nan.
    """
    a = np.abs(x)
    exact = np.isfinite(a) & (a > 0)
    a = np.where(exact, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    u = (a.astype(np.longdouble) * scale[k - KMIN] + 32).astype(np.int64)  # floor(64 (D + 1/2))
    r, frac = u >> 6, u & 63
    exact &= (r > 10**16) & (r < 10**17) & (frac > 0) & (frac < 63)
    return k, r, exact


def text(cols) -> str:
    """Rows of the equal-length float64 `cols` as `"{:.17g}"` prints each value, comma-separated.

    Values whose significand `significands` cannot vouch for are
    printed per value; `tables` gives the text layout.
    """
    scale, exps, digits, marks, masks = tables()
    x = np.stack(cols, axis=1).ravel()
    k, r, exact = significands(x, scale)
    words = np.empty((len(x), 14), np.uint32)
    high = 0
    for j in range(5):  # the significand's 4-digit groups, high first, one word each
        q = r // 10 ** (16 - 4 * j)
        words[:, 1 + j] = words[:, 6 + j] = digits[q - high * 10000]
        high = q
    words[:, 0], words[:, 6], words[:, 11] = marks[:3]
    words[:, 12] = exps[k - KMIN]
    words.reshape(len(cols[0]), len(cols), 14)[..., 13] = marks[[3] * (len(cols) - 1) + [4]]
    rows = words.view(np.uint8)
    sig = 17 - np.argmax(rows[:, 23:6:-1] != ord("0"), axis=1)
    c = np.where((k >= -4) & (k < 17), k + 4, 21 + (abs(k) >= 100))
    pick = (np.signbit(x) * 23 + c) * 17 + sig + 23
    slow = np.flatnonzero(~exact)
    if slow.size:
        printed = np.frombuffer(("{:<24.17g}" * slow.size).format(*x[slow].tolist()).encode(), np.uint8)
        rows[slow, :24] = printed = printed.reshape(-1, 24)
        pick[slow] = np.count_nonzero(printed != ord(" "), axis=1) - 1
    return str(rows[masks.take(pick, axis=0)], "ascii")
