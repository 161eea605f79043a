"""Shortest round-trip decimal text of numbers, as NUL-padded byte fields.

`float_fields(x)` gives row ``i`` the characters of ``repr(float(x[i]))``
in a fixed-width uint8 row.  The unused bytes are NUL and may sit anywhere in
the row, so the text is the row's bytes with the NULs deleted
(``bytes.translate(None, b"\\0")``).  Positive normal doubles go through the
Schubfach algorithm (R. Giulietti, "The Schubfach way to render doubles",
2020) on uint64 lanes, which yields the shortest decimal that reads back to
the double and, among those, the one closest to it: the digits of ``repr``.
Zero, subnormal, negative and non-finite values are rendered by ``repr`` one
at a time.  The tables are built at the first call.
"""

from __future__ import annotations

import functools

import numpy as np

# field width: four little-endian uint64 words; word 0 holds a "0.000" prefix,
# bytes 8..25 the 17 digits and a point, bytes 26..30 an "e-308" suffix.  It
# also holds the longest repr of any double ("-2.2250738585072014e-308", 24).
_WIDTH = 32

_K_MIN, _K_MAX = -324, 292  # decimal exponents k = floor(log10(2**q)) of the doubles
_E_MIN = -308  # the lowest decimal exponent of a normal double
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_C_MIN = 1 << 52
_LANES = 16_384


@functools.cache
def _tables() -> dict:
    """The encoder's lookup tables (built once per process, at the first call)."""
    g1, g0, e2 = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        # e = floor(log2(10**-k)), and g = floor(10**-k * 2**(125 - e)) + 1,
        # which lies in (2**125, 2**126) and is split as g1 * 2**63 + g0
        p = 10 ** abs(k)
        if k <= 0:
            e = p.bit_length() - 1
            g = p << (125 - e) if e <= 125 else p >> (e - 125)
        else:
            e = -p.bit_length()
            g = (1 << (125 - e)) // p
        g += 1
        g1.append(g >> 63)
        g0.append(g & _M63)
        e2.append(e)
    words = [f"{i:04d}" for i in range(10_000)]
    # per point position p (after p digits): which body bytes of words 1..3
    # come before it, which after, and the unit of the point's own byte
    before, after, at = (np.zeros((3, 17), dtype=np.uint64) for _ in range(3))
    for p in range(17):
        for byte in range(8, 32):
            w, unit = byte // 8 - 1, 1 << 8 * (byte % 8)
            if byte < 8 + p:
                before[w, p] += 0xFF * unit
            elif byte > 8 + p:
                after[w, p] += 0xFF * unit
            else:
                at[w, p] = unit
    return {
        "g1": np.array(g1, dtype=np.uint64),
        "g0": np.array(g0, dtype=np.uint64),
        "e2": np.array(e2, dtype=np.int64),
        # 4-digit words; the second half has its trailing zeros replaced by
        # NUL, for the last nonzero word of a number
        "words": _le_words(words + [w.rstrip("0") for w in words], 0),
        "before": before,
        "after": after,
        "at": at,
        # "", "0." .. "0.000": the prefix of a value below 1 written in fixed notation
        "prefix": _le_words(["", "0.", "0.0", "0.00", "0.000"], 0),
        # "", "0" (the ".0" of an integer), then the exponents "e-308" .. "e+308"
        "suffix": _le_words(["", "0"] + [f"e{x:+03d}" for x in range(_E_MIN, 309)], 2),
    }


def _le_words(strings, offset: int) -> np.ndarray:
    """ASCII strings as uint64 words whose little-endian bytes, from byte `offset`, spell them."""
    return np.array([int.from_bytes(s.encode(), "little") << 8 * offset for s in strings], dtype=np.uint64)


def _mulhi(a0, a1, b0, b1):
    """High 64 bits of the 128-bit products (a1 * 2**32 + a0) * (b1 * 2**32 + b0)."""
    # (2**32 - 1)**2 + 2 * (2**32 - 1) < 2**64: neither sum wraps
    mid = ((a0 * b0) >> 32) + a0 * b1
    low = (mid & _M32) + a1 * b0
    return a1 * b1 + (mid >> 32) + (low >> 32)


def _rop(g1, limbs, cp):
    """Schubfach's round-to-odd product of g = g1 * 2**63 + g0 and cp, over 2**127.

    `limbs` holds the 32-bit limbs (g0 low, g0 high, g1 low, g1 high).
    """
    g0l, g0h, g1l, g1h = limbs
    b0, b1 = cp & _M32, cp >> 32
    z = ((g1 * cp) >> 1) + _mulhi(g0l, g0h, b0, b1)
    return (_mulhi(g1l, g1h, b0, b1) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(x: np.ndarray):
    """(f, k): the shortest, closest decimal f * 10**k of each positive normal double."""
    tab = _tables()
    bits = x.view(np.uint64)
    bq = (bits >> 52).astype(np.int64)
    c = (bits & (_C_MIN - 1)) | _C_MIN
    q = bq - 1075  # x = c * 2**q
    # at a power of two the gap below is half the gap above
    irregular = (c == _C_MIN) & (bq > 1)
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    i = k - _K_MIN
    g1, g0 = tab["g1"][i], tab["g0"][i]
    limbs = (g0 & _M32, g0 >> 32, g1 & _M32, g1 >> 32)
    h = (q + tab["e2"][i] + 2).astype(np.uint64)
    cb = c << 2
    vb = _rop(g1, limbs, cb << h)
    vbl = _rop(g1, limbs, np.where(irregular, cb - 1, cb - 2) << h)
    vbr = _rop(g1, limbs, (cb + 2) << h)
    # the rounding interval holds its ends when c is even
    out = c & 1
    s = vb >> 2
    # one digit fewer: at most one multiple of 10 * 10**k lies in the interval
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + out <= sp10 << 2
    wpin = (tp10 << 2) + out <= vbr
    t = s + 1
    uin = vbl + out <= s << 2
    win = (t << 2) + out <= vbr
    mid = (s + t) << 1
    nearer_s = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    # exactly one of the shorter candidates in the interval; else exactly one
    # of s and t; else the nearer of them, the even one at a tie
    f = np.where(upin != wpin, np.where(wpin, tp10, sp10), s + np.where(uin != win, win, ~nearer_s))
    return f, k


def float_fields(x) -> np.ndarray:
    """``repr(float(v))`` of each value of `x`, as NUL-padded rows of `_WIDTH` bytes."""
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    field = np.empty((x.size, _WIDTH), dtype=np.uint8)
    # lanes in chunks whose temporaries stay in cache
    for lo in range(0, x.size, _LANES):
        _encode(x[lo:lo + _LANES], field[lo:lo + _LANES])
    return field


def _encode(x: np.ndarray, field: np.ndarray) -> None:
    """Fill the rows of `field` with the text of the values `x`."""
    tab = _tables()
    fast = (x >= np.finfo(np.float64).tiny) & (x <= np.finfo(np.float64).max)
    safe = np.where(fast, x, 1.0)
    f, k = _shortest(safe)
    # f has 16 or 17 digits; written as 17 digits d1..d17, x ~ 0.d1..d17 * 10**decpt
    short = f < 10**16
    decpt = k + 17 - short
    lead, rest = np.divmod(np.where(short, f * 10, f), 10**16)
    hi, lo = np.divmod(rest, 10**8)
    (a, b), (c, d) = np.divmod(hi, 10**4), np.divmod(lo, 10**4)
    # the words after the point: one with only zero words after it loses its
    # trailing zeros (index + 10**4)
    words = tab["words"]
    ta = words[np.where((lo == 0) & (b == 0), a + 10_000, a)]
    tb = words[np.where(lo == 0, b + 10_000, b)]
    tc = words[np.where(d == 0, c + 10_000, c)]
    td = words[d + 10_000]
    a, b, c, d = words[a], words[b], words[c], words[d]
    lead += ord("0")

    sci = (decpt < -3) | (decpt > 16)
    below_one = ~sci & (decpt <= 0)
    p = np.where(sci, 1, np.where(below_one, 0, decpt))
    point = np.where(below_one | (sci & (rest == 0)), 0, ord(".")).astype(np.uint64)
    # an integer below 10**16 is written with all its digits and ".0"
    integral = ~sci & ~below_one & (np.floor(safe) == safe)
    suffix = np.where(sci, decpt + 1 - _E_MIN, integral)
    # bytes 8..25: the digits (all of them before the point, trimmed after it)
    # at bytes 8..24, the point at byte 8 + p, and the digits shifted up by one
    before, after, at = ([m[p] for m in tab[key]] for key in ("before", "after", "at"))
    out = field.view("<u8")
    out[:, 0] = tab["prefix"][np.where(below_one, 1 - decpt, 0)]
    out[:, 1] = ((lead | a << 8 | b << 40) & before[0]
                 | (lead << 8 | ta << 16 | tb << 48) & after[0] | at[0] * point)
    out[:, 2] = ((b >> 24 | c << 8 | d << 40) & before[1]
                 | (tb >> 16 | tc << 16 | td << 48) & after[1] | at[1] * point)
    out[:, 3] = ((d >> 24) & before[2] | (td >> 16) & after[2] | at[2] * point
                 | tab["suffix"][suffix])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [repr(v) for v in x[slow].tolist()]
        field[slow] = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)


def int_fields(v) -> np.ndarray:
    """Decimal digits of nonnegative integers, as rows with leading NULs."""
    v = np.asarray(v, dtype=np.uint64).reshape(-1, 1)
    width = len(str(int(v.max()))) if v.size else 1
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.uint64)
    digits = (v // powers % 10 + 48).astype(np.uint8)
    digits[(v < powers) & (powers > 1)] = 0
    return digits
