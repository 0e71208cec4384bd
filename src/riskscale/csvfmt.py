"""Exact ``"%.17g"`` CSV text of float64 rows, built with numpy.

:func:`format_rows` gives, byte for byte, the text that
``",".join("%.17g" % v for v in row) + "\\n"`` gives for every row. It
works in whole-array numpy passes, which release the interpreter lock, so
several chunks can be formatted on worker threads at once.

Digits. ``%.17g`` prints a double x in fixed notation when its decimal
exponent X (after rounding to 17 significant digits) lies in [-4, 16], that
is when 1e-4 <= |x| < 1e17. In that window the digits are
N = round(|x| * 10**k) with k = 16 - X, an integer in [1e16, 1e17), rounded
half to even on the exact product:

* 10**k is an exact double for k <= 22 (5**22 < 2**53), and Dekker's (1971)
  two-product splits each factor into two 26-bit halves, so every partial
  product is exact and |x| * 10**k = hi + lo holds exactly with
  hi = fl(|x| * 10**k). It uses IEEE multiply and add only (no fused
  multiply-add, no ``longdouble``), so it gives the same digits on every
  platform.
* hi >= 1e16 > 2**53 is an integer, so floor(hi + lo) = hi + floor(lo) and
  the remainder lo - floor(lo) is exact; ties (remainder exactly 0.5) are
  seen as ties and go to the even N.
* X starts from floor(log10|x|), which is one too high just below a power
  of ten (log10 rounds up to the integer there) and could be one too low
  on a platform whose log10 errs the other way; where floor(hi + lo) lands
  outside [1e16, 1e17) the estimate moves one step and the product is
  formed again. N never rounds up to 1e17: below each power of ten in the
  window the doubles are at least 2**-53 (relative) apart, far more than
  the 5e-18 that rounding to 17 digits could carry across.

Text. Each value gets a 48-byte record: an 8-byte head holding the sign,
the "0." and zeros of X < 0, and N's first digit; N's other 16 digits;
4 free bytes; the 16 digits again; 4 free bytes. The digits are written
four at a time through a ``uint32`` view of a "0000".."9999" table. Where
X < 0 the text is one run through the head and the first copy. Where
X >= 0 the integer part comes from the first copy and the fraction from the
second, behind a '.' written just before it. The separator (',' or a
newline) is written right after the last kept digit, trailing zeros are cut
by a boolean mask per value from a table keyed by (X, kept fraction
digits, sign), and one boolean compaction per chunk yields the text. Values
outside the window (nan, +-inf, +-0.0, |x| < 1e-4 and the scientific
notation of |x| >= 1e17) are formatted one at a time by ``%`` and written
into their record instead; a chunk with no value in the window skips the
digit and record steps and is formatted by one ``%`` call.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_XMIN, _XMAX = -4, 16  # fixed-notation exponents of "%.17g"
_MAXKEEP = 16 - _XMIN  # fraction digits at X = -4
_RECORD = np.dtype([("head", "u8"), ("copy1", "V16"), ("gap", "u4"),
                    ("copy2", "V16"), ("end", "u4")])
_D1, _D2 = 7, 27  # digit j of N sits at byte _D1 + j (head, copy 1), _D2 + j (copy 2)


def _split(c):
    """Veltkamp's split: c = hi + lo exactly, each with at most 26 bits."""
    t = c * _SPLIT
    hi = t - (t - c)
    return hi, c - hi


_POW10 = np.array([float(10 ** k) for k in range(_MAXKEEP + 1)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _group_tables():
    """The 4-digit groups 0000..9999: their text as one uint32 word each (in
    memory byte order) and their trailing zeros (4 for 0000)."""
    digit = np.arange(10, dtype=np.uint8)
    first, second, third, last = np.ix_(digit, digit, digit, digit)
    chars = np.stack(np.broadcast_arrays(first, second, third, last), axis=-1)
    trailing = (last == 0) * (1 + (third == 0) * (1 + (second == 0) * (1 + (first == 0))))
    return (chars + np.uint8(ord("0"))).view(np.uint32).ravel(), \
        trailing.astype(np.int8).ravel()


_WORDS, _TRAILING = _group_tables()


def _heads() -> np.ndarray:
    """Record heads indexed by (max(-X, 0) * 2 + negative) * 10 + first digit.

    N's first digit sits at byte 7, behind "0." and -X - 1 zeros where
    X < 0, and behind the sign where x < 0.
    """
    heads = np.zeros((5, 2, 10, 8), np.uint8)
    for z in range(5):
        for negative in range(2):
            prefix = b"-" * negative + (b"0." + b"0" * (z - 1) if z else b"")
            heads[z, negative, :, :7] = np.frombuffer(prefix.rjust(7, b"0"), np.uint8)
    heads[..., 7] = np.arange(10) + ord("0")
    return heads.view(np.uint64).ravel()


def _layout():
    """Keep masks and separator bytes, indexed by ((X + 4) * 21 + kept) * 2 + negative.

    Where X < 0 the text runs from the sign or "0." of the head through the
    last kept digit of copy 1. Where X >= 0 the integer part runs from the
    sign through digit X of copy 1, and the fraction from the '.' written
    over digit X of copy 2 through its last kept digit. The separator
    follows the last kept byte.
    """
    x, kept, negative = (grid[..., None] for grid in np.meshgrid(
        np.arange(_XMIN, _XMAX + 1, dtype=np.int16), np.arange(_MAXKEEP + 1, dtype=np.int16),
        np.arange(2, dtype=np.int16), indexing="ij"))
    start = _D1 - negative - np.where(x < 0, 1 - x, 0)
    integer_end = _D1 + np.where(x < 0, x + kept, x)
    fraction = (x >= 0) & (kept > 0)
    sep = np.where(fraction, _D2 + x + kept, integer_end) + 1
    at = np.arange(_RECORD.itemsize, dtype=np.int16)
    masks = ((at >= start) & (at <= integer_end)) | (at == sep) \
        | (fraction & (at >= _D2 + x) & (at < sep))
    return masks.reshape(-1, _RECORD.itemsize), sep.ravel()


_HEADS = _heads()
_MASKS, _SEPS = _layout()


def _scaled(a: np.ndarray, x: np.ndarray):
    """floor(a * 10**(16 - x)) as int64 and the exact remainder in [0, 1)."""
    k = 16 - x
    hi = a * _POW10[k]
    ah, al = _split(a)
    ch, cl = _POW10_HI[k], _POW10_LO[k]
    lo = ((ah * ch - hi) + ah * cl + al * ch) + al * cl
    floor = np.floor(lo)
    return hi.astype(np.int64) + floor.astype(np.int64), lo - floor


def _digits(a: np.ndarray):
    """Exponent X and digits N = round(a * 10**(16 - X)) in [1e16, 1e17) of
    doubles a in [1e-4, 1e17), rounded half to even."""
    x = np.clip(np.floor(np.log10(a)), _XMIN, _XMAX).astype(np.int64)
    n, rem = _scaled(a, x)
    for step, off in ((-1, n < 10 ** 16), (1, n >= 10 ** 17)):
        if off.any():
            x[off] += step
            n[off], rem[off] = _scaled(a[off], x[off])
    n += rem > 0.5
    tie = rem == 0.5
    n[tie] += n[tie] & 1
    return x, n


def format_rows(rows: np.ndarray) -> bytes:
    """CSV text of a 2-D float64 array: "%.17g" per value, ',' and '\\n'."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    values = rows.ravel()
    mag = np.abs(values)
    fallback = ~((mag >= 1e-4) & (mag < 1e17))  # nan compares false
    if fallback.all():  # nothing for the digit pipeline: one "%" call
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        return ((line * rows.shape[0]) % tuple(values.tolist())).encode("ascii")
    x, n = _digits(np.where(fallback, 1.0, mag))

    top = n // 10 ** 8
    low = (n - top * 10 ** 8).astype(np.int32)
    top = top.astype(np.int32)
    first = top // 10 ** 8
    top -= first * 10 ** 8
    groups = np.empty((4, values.size), np.int32)  # digits 1-4, 5-8, 9-12, 13-16
    np.floor_divide(top, 10 ** 4, out=groups[0])
    np.subtract(top, groups[0] * 10 ** 4, out=groups[1])
    np.floor_divide(low, 10 ** 4, out=groups[2])
    np.subtract(low, groups[2] * 10 ** 4, out=groups[3])

    negative = np.signbit(values)
    record = np.empty(values.size, _RECORD)
    record["head"] = _HEADS.take((np.maximum(-x, 0) * 2 + negative) * 10 + first)
    record["copy1"] = record["copy2"] = _WORDS.take(groups.T).view("V16").ravel()

    t = _TRAILING.take(groups)  # N's trailing zeros, from those of its groups
    zeros = t[3] + (t[3] == 4) * t[2]
    zeros += (zeros == 8) * (t[1] + (t[1] == 4) * t[0])
    kept = np.maximum(16 - x - zeros, 0)
    key = ((x - _XMIN) * (_MAXKEEP + 1) + kept) * 2 + negative

    text = record.view(np.uint8).reshape(values.size, _RECORD.itemsize)
    flat = text.ravel()
    at = np.arange(0, flat.size, _RECORD.itemsize)
    flat[at + _D2 + np.maximum(x, 0)] = ord(".")
    sep = np.full(rows.shape, ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    sep = sep.ravel()
    flat[at + _SEPS.take(key)] = sep
    mask = _MASKS.take(key, axis=0)

    special = np.flatnonzero(fallback)
    if special.size:  # their "%" text (24 bytes at most), then the separator
        texts = np.array(["%.17g" % v for v in values[special].tolist()], dtype="S24")
        size = np.char.str_len(texts)
        text[special, :24] = texts.view(np.uint8).reshape(-1, 24)
        text[special, size] = sep[special]
        mask[special] = np.arange(_RECORD.itemsize) <= size[:, None]
    return flat[mask.ravel()].tobytes()
