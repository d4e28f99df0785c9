"""The %.17g text of a block of float64 rows, byte for byte, mostly without a Python call per value.

%.17g prints a value in fixed notation when its exponent E = floor(log10|x|)
lies in [-4, 16].  In the window 1e-4 <= |x| < 1e16 the scale 10^(16-E) is an
exact double, so a numpy kernel forms the 17-digit integer exactly and lays
the text out itself: a block becomes one array of text rows, and a mask per
value cuts each row to its text.  A row is 48 bytes, six little-endian words:

    byte 0        the separator before the value
    bytes 1-6     "-0.000": the sign, and the "0." and zeros before |x| < 1
    bytes 7-23    the 17 digits
    byte 24       "."
    bytes 31-47   the 17 digits again, so the digits after the point are a span too

A value outside the window gets its text from one % call per block, in bytes 1-24.
"""

from __future__ import annotations

import numpy as np

# a block of fewer values, where the kernel's fixed cost (~0.2 ms) exceeds
# what it saves, goes to one % call
_KERNEL_MIN = 1 << 8
_ROW = 48
_WINDOW_KEYS = 2 * 20 * 17  # sign, point position -3..16, significant digits 1..17
_U64 = np.uint64
_POW10 = np.array([10.0**k for k in range(22)])  # all exact
_SPLIT = 134217729.0  # 2^27 + 1


def _veltkamp(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v as hi + lo, each with at most 26 significant bits."""
    t = _SPLIT * v
    hi = t - (t - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^k as p + err with p = fl(a * 10^k), exactly: Dekker's two-product."""
    p = a * _POW10[k]
    ah, al = _veltkamp(a)
    sh, sl = _POW10_HI[k], _POW10_LO[k]
    return p, ((ah * sh - p) + ah * sl + al * sh) + al * sl


def _digits8(v: np.ndarray) -> np.ndarray:
    """Each v < 10^8 as 8 digit bytes (0-9) of a little-endian word, the leading digit lowest."""
    x = v // _U64(10**4)
    x |= (v - x * _U64(10**4)) << _U64(32)
    q = ((x * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)  # // 100 per 32-bit lane
    x = q | ((x - q * _U64(100)) << _U64(16))
    q = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)  # // 10 per 16-bit lane
    return q | ((x - q * _U64(10)) << _U64(8))


def _byte_length(w: np.ndarray) -> np.ndarray:
    """Bytes up to the highest nonzero one of each word of digit bytes (0 for 0)."""
    # a word below 2^64 whose top byte is at most 9 converts to float64 without
    # reaching the next power of two of 256
    return (np.frexp(w.astype(np.float64))[1] + 7) // 8


def _text_masks() -> np.ndarray:
    """One row mask per key: ``_window_rows``'s keys, then ``_WINDOW_KEYS`` + text length."""
    grid = np.meshgrid([0, 1], np.arange(-3, 17), np.arange(1, 18), indexing="ij")
    neg, point, nd = (g.reshape(-1, 1) for g in grid)
    b = np.arange(_ROW)
    small = point <= 0  # "0.", then -point zeros and the digits
    window = (b == 0) | ((b == 1) & (neg == 1)) | (small & (b >= 2) & (b < 4 - point))
    # the digits; for |x| >= 1 the integer part, with the zeros past the significant digits
    window |= (b >= 7) & (b < 7 + np.where(small, nd, point))
    window |= ~small & (nd > point) & ((b == 24) | ((b >= 31 + point) & (b < 31 + nd)))
    fallback = b <= np.arange(25).reshape(-1, 1)
    return np.concatenate([window, fallback])


_MASKS = _text_masks()
_PREFIX = _U64(int.from_bytes(b"\0-0.000\0", "little"))


def _window_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Text rows and mask keys of values with 1e-4 <= |x| < 1e16.

    %.17g prints D = |x| 10^(16-E) rounded half-even to an integer, its 17
    digits with the point after digit E + 1, trailing zeros stripped.
    """
    a = np.abs(x)
    e = np.floor(np.log10(a)).astype(np.int64)
    p, err = _times_pow10(a, 16 - e)
    # log10 may miss E by one next to a power of ten; the exact product p + err decides
    off = ((p > 1e17) | ((p == 1e17) & (err >= 0))).astype(np.int64)
    off -= (p < 1e16) | ((p == 1e16) & (err < 0))
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        p[fix], err[fix] = _times_pow10(a[fix], 16 - e[fix])
    # p >= 1e16 > 2^53 is an even integer, so rounding err half-even rounds p + err
    # half-even.  No double in the window rounds up to a power of ten (the largest
    # below each prints as 9...989 or less), so D keeps 17 digits.
    d = (p.astype(np.int64) + np.rint(err).astype(np.int64)).astype(np.uint64)
    high, low = np.divmod(d, _U64(10**8))
    lead, mid = np.divmod(high, _U64(10**8))
    mid, low = _digits8(mid), _digits8(low)
    nd = np.where(low != 0, 9 + _byte_length(low), 1 + _byte_length(mid))
    zeros = _U64(0x3030303030303030)
    lead = (lead + _U64(ord("0"))) << _U64(56)
    words = np.empty((len(x), _ROW // 8), dtype="<u8")
    words[:, 0] = lead | _PREFIX
    words[:, 1] = words[:, 4] = mid | zeros
    words[:, 2] = words[:, 5] = low | zeros
    words[:, 3] = lead | _U64(ord("."))
    key = ((np.signbit(x).astype(np.int64) * 20 + e + 4) * 17 + nd - 1).astype(np.intp)
    return words, key


def _fallback_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Text rows and mask keys of any values, from one % call."""
    # %.17g is at most 24 characters ("-4.9406564584124654e-324"), none of them a space
    text = (("%-24.17g" * len(x)) % tuple(x.tolist())).encode("ascii")
    rows = np.empty((len(x), _ROW), dtype=np.uint8)
    rows[:, 1:25] = np.frombuffer(text, np.uint8).reshape(len(x), 24)
    return rows.view("<u8"), _WINDOW_KEYS + np.count_nonzero(rows[:, 1:25] != ord(" "), axis=1)


def block_text(b: np.ndarray) -> str:
    """The text of a block of rows: each row a newline, then its values space-separated."""
    x = b.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    if len(x) < _KERNEL_MIN or 2 * np.count_nonzero(fast) <= len(x):
        # small, or mostly outside the window, where the kernel would only add work
        row = "\n" + " ".join(["%.17g"] * b.shape[1])
        return (row * len(b)) % tuple(x.tolist())
    words, key = _window_rows(np.where(fast, x, 1.0))
    slow = np.flatnonzero(~fast)
    if slow.size:
        words[slow], key[slow] = _fallback_rows(x[slow])
    rows = words.view(np.uint8)
    seps = rows.reshape(b.shape + (_ROW,))[..., 0]
    seps[...] = ord(" ")
    seps[:, 0] = ord("\n")
    # decoded straight from the compressed bytes: one copy
    return str(rows[np.take(_MASKS, key, axis=0)], "ascii")
