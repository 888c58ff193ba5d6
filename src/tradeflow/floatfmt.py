"""Exact ``%.17g`` text of float64 arrays, for the CSV writer in `cli`.

``"%.17g" % x`` spends most of its time in CPython's 17-digit decimal
conversion. `decimal_digits` computes those digits for a whole array at
once in numpy, exactly, so that Python formats only integers.
"""

from __future__ import annotations

import numpy as np

#: 10**k as exact doubles (k <= 22), each split into two halves of at most
#: 26 bits, and as int64 (k <= 18): the powers `float_args` multiplies by
#: and divides by.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_INT_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
#: float(1e{17-k}) at row k = 0..21, each at least 10**(17-k): for k =
#: 16-X, 10**(X+1) at row k and 10**X at row k + 1.
_TEN_TO = np.array([float(f"1e{17 - k}") for k in range(22)])


def decimal_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits that ``%.17g`` prints of each value of
    ``a`` in [1e-4, 1e16), as (D, places): the int64 D in [10**16, 10**17)
    and the count of its digits that fall after the point, from 1 to 20.

    X = floor(log10 a), a guess off by at most one (log10 is
    SIMD-dispatched), moves up once if a >= float(1e{X+1}), then down once
    if a < float(1e{X}). Each such double, the nearest to its power of ten,
    is at or above it, so it is the least double there, each test is exact
    and 10**X <= a < 10**(X+1) holds. Dekker's split product with the exact
    double 10**(16-X) gives p + e = a*10**(16-X) exactly, with p the rounded
    product, an even integer of at least 2**53. So D = p + rint(e) is the
    exact product rounded half to even, as ``%.17g`` rounds. D < 10**17: the
    double just below each power of ten in range prints short of it at 17
    digits (such as 0.099999999999999992), so none rounds up to it."""
    c = a * 134217729.0  # Veltkamp's split of a into two 26-bit halves
    a_hi = c - (c - a)
    a_lo = a - a_hi
    k = 16 - np.floor(np.log10(a)).astype(np.int64)  # k = 16-X throughout
    k -= a >= _TEN_TO[k]
    k += a < _TEN_TO[1:][k]
    p = a * _POW10[k]
    t_hi, t_lo = _POW10_HI[k], _POW10_LO[k]
    e = a_lo * t_lo - (((p - a_hi * t_hi) - a_lo * t_hi) - a_hi * t_lo)
    digits = p.astype(np.int64)
    digits += np.rint(e).astype(np.int64)
    return digits, k


def _prefix(key: int) -> str:
    """The text that `float_args` prints before a value's last int: for the
    key (whole * 32 + leading zeros) * 2 + sign of a value with a fraction,
    the sign, integer part, point and zeros; for the key sign - 2 of one
    without, the sign alone."""
    return ("-" if key & 1 else "") + ("" if key < 0 else f"{key >> 6}." + "0" * (key >> 1 & 31))


def float_args(x: np.ndarray) -> tuple[str, list[list]]:
    """The values of a float64 array as (spec, arg columns) for
    `cli._blocks`: value i prints as ``spec % (column[i] for each column)``,
    the bytes of ``"%.17g" % x[i]``. When every nonzero |x| is in
    [1e-4, 1e16), where ``%.17g`` prints no exponent, the digits come
    exactly from `decimal_digits` and the spec is ``%s%d``: a prefix of sign,
    integer part, point and the fraction's leading zeros, formatted once per
    distinct prefix, then the fraction without its trailing zeros as an int;
    a value that rounds to an integer, zero too, prints as its sign then its
    integer part. A block holding a value in exponent notation or a
    non-finite one keeps ``%.17g``."""
    a = np.abs(x)
    zero = a == 0
    a[zero] = 1.0  # a stand-in: the digits of a zero are set below
    if not (a.min() >= 1e-4 and a.max() < 1e16):  # a NaN fails both
        return "%.17g", [x.tolist()]
    digits, places = decimal_digits(a)
    # under 1 the integer part is 0 and the fraction is all of the digits
    whole, frac = np.divmod(digits, _INT_POW10[np.minimum(places, 17)])
    whole[zero] = 0
    frac[zero] = 0
    leading = places - np.searchsorted(_INT_POW10, frac, side="right")
    ends = np.flatnonzero(frac % 10 == 0)
    if ends.size:  # strip up to 31 trailing zeros; a fraction has at most 16
        tail = frac[ends]
        for n in (16, 8, 4, 2, 1):
            q, r = np.divmod(tail, _INT_POW10[n])
            tail = np.where(r == 0, q, tail)
        frac[ends] = tail
    point = frac != 0
    keys = np.where(point, whole * 32 + leading, -1) * 2 + np.signbit(x)
    # the distinct keys, sorted without a numpy sort, whose kernels would map
    # about 0.3 MB more code into each command that writes a CSV file
    low = keys.min()
    span = keys.max() - low + 1
    if span <= 8 * len(keys):  # a table over their span
        seen = np.zeros(span, dtype=bool)
        seen[keys - low] = True
        heads = np.flatnonzero(seen) + low
    else:
        heads = np.array(sorted(set(keys.tolist())))
    prefixes = np.array([_prefix(k) for k in heads.tolist()], dtype=object)[
        np.searchsorted(heads, keys)].tolist()
    return "%s%d", [prefixes, np.where(point, frac, whole).tolist()]
