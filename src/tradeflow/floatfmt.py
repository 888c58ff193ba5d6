"""Exact ``%.17g`` text of float64 arrays, as bytes, for the CSV writer in
`cli`.

``"%.17g" % x`` spends most of its time in CPython's 17-digit decimal
conversion. `decimal_digits` computes those digits for a whole array at
once in numpy and certifies them, and `float_slots` sets each value's text
from them in numpy too, in fixed or exponent notation. Python formats only
the values whose digits are not certified: none with 10**-6 <= |x| <
10**17, where the digits are exact, and elsewhere about two in 10**9 by
chance and a few exact ties such as 3 * 2**-24. A NaN or an infinity would
take ``%.17g`` too, but none reaches a file: `simulate` and `region` refuse
to write a non-finite value.
"""

from __future__ import annotations

import functools

import numpy as np

#: The exponents E (10**E <= |x| < 10**(E+1)) the tables cover: -324 to
#: 308, widened for a log10 guess one off and for the bound above it.
_E_MIN, _E_MAX = -325, 310

#: How close to a half-integer the scaled value t of `decimal_digits` may
#: come before its digits are not certified. The error of t is below 1e-14
#: (see `decimal_digits`), so the margin is wide.
_MARGIN = 1e-9


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Per exponent E from `_E_MIN` to `_E_MAX`, built exactly from Python
    integers with correctly rounded ``int / int`` on first use (about 3
    ms): the least double at or above 10**E (inf above the doubles); the
    power of two ``scale`` by which `decimal_digits` multiplies a value of
    that exponent first, 2**256 below 1e-270 and 2**-256 from 1e271, so that
    no product it forms overflows or leaves the normal range; and
    10**(16-E) / scale as hi + lo, hi the nearest double, split into two
    halves of at most 26 bits, and lo the rest, rounded."""
    up, scale, hi, lo = [], [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        if e > 308:
            up.append(np.inf)
        else:
            b = num / den
            n, d = b.as_integer_ratio()
            up.append(b if n * den >= num * d else np.nextafter(b, np.inf))
        p = 256 if e < -270 else -256 if e > 270 else 0
        scale.append(2.0**p)
        # 10**(16-E) / 2**p as num / den
        num = 10**max(16 - e, 0) << max(-p, 0)
        den = 10**max(e - 16, 0) << max(p, 0)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    c = hi * 134217729.0  # Veltkamp's split
    hi_hi = c - (c - hi)
    return np.array(up), np.array(scale), hi, hi_hi, hi - hi_hi, np.array(lo)


def decimal_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits that ``%.17g`` prints of each finite value
    of ``a`` > 0, as (D, i, unsure): the int64 D in [10**16, 10**17), the
    index i = E - `_E_MIN` of its exponent E (``%.17g`` prints D * 10**(E-16)),
    and whether D is not certified.

    E = floor(log10 a), a guess off by at most one (log10 is
    SIMD-dispatched), moves up once if a reaches the least double at or above
    10**(E+1), then down once if a is below the least double at or above
    10**E. Each test is exact, so 10**E <= a < 10**(E+1) holds. With a scaled
    by a power of two and 10**(16-E) scaled back as hi + lo (`_tables`),
    Dekker's split product gives p + e = a*hi exactly, with p the rounded
    product, an integer of at least 2**53. p + e + a*lo is a*10**(16-E) but
    for the rounding of lo, of a*lo and of the sum t = e + a*lo: less than
    1e-14 in all, against |t| < 20. So D = p + rint(t) is a*10**(16-E)
    rounded half to even, as ``%.17g`` rounds, unless t lies within `_MARGIN`
    of a half-integer; such a D is unsure. Where 10**(16-E) is a double (E =
    -6 to 16), lo = 0 and t is exact, so D is always certified: p is even
    whenever a*10**(16-E) is a half-integer, since that is a tie between two
    doubles or ulp(p) >= 2. A D that rounds up to 10**17 is 10**16 at the
    next exponent: so the double nearest 1e-14, which lies below 10**-14,
    prints as "1e-14"."""
    up, scale, hi, hi_hi, hi_lo, lo = _tables()
    i = np.floor(np.log10(a)).astype(np.intp)
    i -= _E_MIN
    i += a >= up[1:].take(i)
    i -= a < up.take(i)
    a = a * scale.take(i)
    c = a * 134217729.0  # Veltkamp's split of a into two 26-bit halves
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi.take(i)
    t_hi, t_lo = hi_hi.take(i), hi_lo.take(i)
    e = a_lo * t_lo - (((p - a_hi * t_hi) - a_lo * t_hi) - a_hi * t_lo)
    rest = lo.take(i)
    t = a * rest
    t += e
    nearest = np.rint(t)
    t -= nearest
    unsure = np.abs(t, out=t) > 0.5 - _MARGIN
    unsure &= rest != 0
    digits = p.astype(np.int64)
    digits += nearest.astype(np.int64)
    carry = np.flatnonzero(digits == 10**17)
    digits[carry] = 10**16
    i[carry] += 1
    return digits, i, unsure


#: Bytes per slot: the longest ``%.17g`` text of a float64,
#: "-2.2250738585072014e-308", has 24 characters.
SLOT = 24

#: "0000" to "9999", each as the uint32 of its four ASCII digits, and the
#: count of trailing zeros of each.
_FOUR_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                        axis=-1).view(np.uint32).ravel()
_TRAILING_ZEROS = sum(np.arange(10000) % 10**k == 0 for k in range(1, 5)).astype(np.intp)

#: The columns of a value's source row of `_WIDTH` bytes: D's first digit,
#: "-", "0", ".", "e", "+", two NULs, D's other 16 digits, then "0" and the
#: three digits of |E| up to its units, and NULs.
_MINUS, _ZERO, _POINT, _E, _PLUS, _NUL, _UNITS, _WIDTH = 1, 2, 3, 4, 5, 6, 27, 32
_DIGITS = [0] + list(range(8, 24))

#: Per first digit of D, the first eight bytes of a source row as one int64.
_LEADS = np.frombuffer(b"".join([b"%d-0.e+\0\0" % d for d in range(10)]), np.int64)

#: The forms of text: 0 to 20 digits after the point without an exponent,
#: then an exponent of each sign (positive first) with two and three digits.
_FIXED, _EXPONENT_FORMS = 21, 4


def _template(form: int, zeros: int, sign: int) -> bytes:
    """The source columns of the text, in the given form, of a value with
    sign bit ``sign`` whose 17 digits D end in ``zeros`` zeros (17: the value
    is a zero), NUL-padded to `SLOT`."""
    text = [_MINUS] * sign
    if zeros == 17:
        text += [_ZERO]
    elif form >= _FIXED:  # d.ddd without its zeros, then e, the sign and |E|
        negative, wide = divmod(form - _FIXED, 2)
        text += _DIGITS[:1]
        if zeros < 16:
            text += [_POINT] + _DIGITS[1:17 - zeros]
        text += [_E, _MINUS if negative else _PLUS] + list(range(_UNITS - 1 - wide, _UNITS + 1))
    elif form <= 16:  # the integer part, then the fraction without its zeros
        point = 17 - form
        text += _DIGITS[:point]
        if zeros < form:
            text += [_POINT] + _DIGITS[point:17 - zeros]
    else:  # "0.", the fraction's leading zeros, then D without its zeros
        text += [_ZERO, _POINT] + [_ZERO] * (form - 17) + _DIGITS[:17 - zeros]
    return bytes(text + [_NUL] * (SLOT - len(text)))


#: The template of each key (form * 18 + zeros) * 2 + sign, as indices.
_TEMPLATES = np.frombuffer(b"".join([_template(form, zeros, sign)
                                     for form in range(_FIXED + _EXPONENT_FORMS)
                                     for zeros in range(18) for sign in (0, 1)]),
                           np.uint8).reshape(-1, SLOT).astype(np.intp)

#: Per exponent index i: its form times 36, the part of the key it sets,
#: and the last eight bytes of a source row as one int64.
_FORM_KEY = np.array([36 * (16 - e if -5 < e < 17 else _FIXED + 2 * (e < 0) + (abs(e) >= 100))
                      for e in range(_E_MIN, _E_MAX + 1)])
_EXPONENT_TEXT = np.frombuffer(b"".join([b"%04d\0\0\0\0" % abs(e)
                                         for e in range(_E_MIN, _E_MAX + 1)]), np.int64)


def float_slots(x: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each value of the float64 array ``x`` as one
    row of `SLOT` uint8, its slot: the text, then NUL bytes. No text holds a
    NUL, so dropping the NULs of row i leaves the bytes of ``"%.17g" % x[i]``.

    Each finite nonzero value takes its 17 digits D and its exponent E from
    `decimal_digits`. Its source row holds D's first digit, "-", "0", ".",
    "e", "+", D's other 16 digits and the digits of |E|, and one gather
    through `_TEMPLATES`, keyed by (form, trailing zeros of D, sign), picks
    the text from it. With -4 <= E < 17 the form is fixed notation: the
    sign, "0." and the fraction's leading zeros below 1, the integer part,
    then the point and the fraction up to its last nonzero digit (a value
    that rounds to an integer prints no point). Otherwise it is exponent
    notation: the sign, D's first digit, the point and the other digits up to
    the last nonzero one, "e", the sign of E and |E| in at least two digits.
    Zeros print as "0" and "-0". A value whose digits `decimal_digits` does
    not certify, a NaN or an infinity is formatted by ``"%.17g" % v`` on its
    own (`_percent_slots`): the choice is made value by value."""
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    other = ~(a < np.inf)  # a NaN or an infinity
    a[zero | other] = 1.0  # a stand-in, whose text is replaced below
    digits, i, unsure = decimal_digits(a)
    # D = top * 10**16 + high * 10**8 + low, then four digits at a time
    upper = digits // 100000000
    low = (digits - upper * 100000000).astype(np.uint32)
    top = upper // 100000000
    high = (upper - top * 100000000).astype(np.uint32)
    source = np.empty((n, _WIDTH), dtype=np.uint8)
    words = source.view(np.int64)
    _LEADS.take(top, out=words[:, 0])
    fours = source[:, 8:24].view(np.uint32)
    for j, half in ((0, high), (2, low)):
        head = half // 10000
        half -= head * 10000
        _FOUR_DIGITS.take(head, out=fours[:, j])
        _FOUR_DIGITS.take(half, out=fours[:, j + 1])
    _EXPONENT_TEXT.take(i, out=words[:, 3])
    # D's trailing zeros: those of its last four digits, now in low, and
    # where all four are zeros, a count from its last digit back; a NUL
    # stops a D of 10**16
    zeros = _TRAILING_ZEROS.take(low)
    tail = np.flatnonzero(low == 0)
    zeros[tail] = np.argmax(source[tail, 23:6:-1] != 48, axis=1)
    zeros[zero] = 17
    key = _FORM_KEY.take(i)
    key += zeros * 2
    key += np.signbit(x)
    index = _TEMPLATES.take(key, axis=0)
    index += np.arange(0, n * _WIDTH, _WIDTH)[:, None]
    slots = source.ravel().take(index)
    other |= unsure
    other = np.flatnonzero(other)
    if other.size:
        slots[other] = _percent_slots(x[other])
    return slots


def _percent_slots(x: np.ndarray) -> np.ndarray:
    """The slots of the values of ``x`` by ``"%.17g" % v``, one value at a
    time: `float_slots` sends here only the values it has no certified
    digits for."""
    text = "".join([("%.17g" % v).ljust(SLOT, "\0") for v in x.tolist()])
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, SLOT)
