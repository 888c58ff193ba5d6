"""Exact ``%.17g`` text of float64 arrays, as bytes, for the CSV writer in
`cli`.

``"%.17g" % x`` spends most of its time in CPython's 17-digit decimal
conversion. `decimal_digits` computes those digits for a whole array at
once in numpy, exactly, and `float_slots` sets each value's text from them
in numpy too, so that Python formats only the values that need an exponent
or are not finite.
"""

from __future__ import annotations

import numpy as np

#: 10**k as exact doubles (k <= 22), each split into two halves of at most
#: 26 bits: the powers `decimal_digits` multiplies by.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
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


#: Bytes per slot: the longest ``%.17g`` text of a float64,
#: "-2.2250738585072014e-308", has 24 characters.
SLOT = 24

#: "0000" to "9999", each as the uint32 of its four ASCII digits.
_FOUR_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                        axis=-1).view(np.uint32).ravel()

#: The columns of a value's source row, which holds D's first digit, "-",
#: "0", ".", D's other 16 digits, then NULs.
_MINUS, _ZERO, _POINT, _NUL = 1, 2, 3, SLOT - 1


def _template(places: int, zeros: int, sign: int) -> bytes:
    """The source columns of the text of a value with sign bit ``sign``
    whose 17 digits D have ``places`` digits after the point and end in
    ``zeros`` zeros (17: the value is a zero), NUL-padded to `SLOT`."""
    digits = [0] + list(range(4, 20))  # the column of each digit of D
    text = [_MINUS] * sign
    if zeros == 17:
        text += [_ZERO]
    elif places <= 16:  # the integer part, then the fraction without its zeros
        point = 17 - places
        text += digits[:point]
        if zeros < places:
            text += [_POINT] + digits[point:17 - zeros]
    else:  # "0.", the fraction's leading zeros, then D without its zeros
        text += [_ZERO, _POINT] + [_ZERO] * (places - 17) + digits[:17 - zeros]
    return bytes(text + [_NUL] * (SLOT - len(text)))


#: The template of each key (places * 18 + zeros) * 2 + sign.
_TEMPLATES = np.frombuffer(b"".join([_template(places, zeros, sign) for places in range(21)
                                     for zeros in range(18) for sign in (0, 1)]),
                           np.uint8).reshape(-1, SLOT)


def float_slots(x: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each value of the float64 array ``x`` as one
    row of `SLOT` uint8, its slot: the text, then NUL bytes. No text holds a
    NUL, so dropping the NULs of row i leaves the bytes of ``"%.17g" % x[i]``.

    A value with 1e-4 <= |x| < 1e16, which prints without an exponent, takes
    its 17 digits D from `decimal_digits`. Its source row holds D's first
    digit, "-", "0", ".", D's other 16 digits and NULs, and one gather
    through `_TEMPLATES`, keyed by (places, trailing zeros of D, sign),
    picks the text from it: the sign, "0." and the fraction's leading zeros
    below 1, the integer part, then the point and the fraction up to its
    last nonzero digit (a value that rounds to an integer prints no point).
    Zeros print as "0" and "-0". Any other value, one that needs an
    exponent, a NaN or an infinity, is formatted by ``"%.17g" % v`` on its
    own (`_percent_slots`): the choice is made value by value."""
    n = len(x)
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e16)  # a NaN fails both
    zero = a == 0
    a[~exact] = 1.0  # a stand-in, whose text is replaced below
    digits, places = decimal_digits(a)
    # D = top * 10**16 + high * 10**8 + low, then four digits at a time
    upper = digits // 100000000
    low = (digits - upper * 100000000).astype(np.uint32)
    top = upper // 100000000
    high = (upper - top * 100000000).astype(np.uint32)
    source = np.zeros((n, SLOT), dtype=np.uint8)
    source[:, 0] = top
    source[:, 0] += 48
    source[:, 1:4] = np.frombuffer(b"-0.", np.uint8)
    fours = source[:, 4:20].view(np.uint32)
    for j, half in ((0, high), (2, low)):
        head = half // 10000
        half -= head * 10000
        _FOUR_DIGITS.take(head, out=fours[:, j])
        _FOUR_DIGITS.take(half, out=fours[:, j + 1])
    # D's trailing zeros, from its last digit back; "." stops a D of 10**16
    zeros = np.argmax(source[:, 19:2:-1] != 48, axis=1)
    zeros[zero] = 17
    key = (places * 18 + zeros) * 2
    key += np.signbit(x)
    index = _TEMPLATES.take(key, axis=0).astype(np.intp)
    index += np.arange(0, n * SLOT, SLOT)[:, None]
    slots = source.ravel().take(index)
    other = np.flatnonzero(~(exact | zero))
    if other.size:
        slots[other] = _percent_slots(x[other])
    return slots


def _percent_slots(x: np.ndarray) -> np.ndarray:
    """The slots of the values of ``x`` by ``"%.17g" % v``, one value at a
    time: `float_slots` sends here only the values it has no digits for."""
    text = "".join([("%.17g" % v).ljust(SLOT, "\0") for v in x.tolist()])
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, SLOT)
