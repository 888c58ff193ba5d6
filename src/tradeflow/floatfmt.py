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


def decimal_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits that ``%.17g`` prints of each value of
    ``a`` in [1e-4, 1e16), as (D, places): the int64 D in [10**16, 10**17)
    and the count of its digits that fall after the point, from 1 to 20.

    X = floor(log10 a) is a guess, since log10 is SIMD-dispatched, corrected
    until 10**16 <= a*10**(16-X) < 10**17 holds exactly. 10**(16-X) is an
    exact double (16-X <= 22), and Dekker's split product gives
    p + e = a*10**(16-X) exactly, with p the rounded product. p is an even
    integer of at least 2**53, so D = p + rint(e) is the half-even rounding
    of the exact product to an integer: the digits that ``%.17g`` prints,
    which rounds half to even too. D = 10**17 becomes 10**16 at X + 1."""
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    c = a * 134217729.0  # Veltkamp's split of a into two 26-bit halves
    a_hi = c - (c - a)
    a_lo = a - a_hi
    while True:
        k = 16 - exp10
        p = a * _POW10[k]
        t_hi, t_lo = _POW10_HI[k], _POW10_LO[k]
        e = a_lo * t_lo - (((p - a_hi * t_hi) - a_lo * t_hi) - a_hi * t_lo)
        if p.min() > 1e16 and p.max() < 1e17:  # then p + e is in range too
            break
        low = (p < 1e16) | ((p == 1e16) & (e < 0))
        high = (p > 1e17) | ((p == 1e17) & (e >= 0))
        if not (low.any() or high.any()):
            break
        exp10 += high
        exp10 -= low
    digits = p.astype(np.int64)
    digits += np.rint(e).astype(np.int64)
    carry = digits == 10**17
    if carry.any():
        digits[carry] = 10**16
        exp10 += carry
    return digits, 16 - exp10


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
