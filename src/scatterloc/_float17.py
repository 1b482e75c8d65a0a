"""Exact %.17g in numpy, imported only by the CSV blocks that use it."""

import numpy as np

# column q (from the end if q < 0): 10^q = (hh + hl + lo) * 2^f to 106 bits
_tens = np.full((4, 700), np.nan)

# a value's row: sign, "0.000", 17 digits and a point, exponent, separator
_ROW = np.frombuffer(b"-0.000" + b"0" * 18 + b"e+000,", np.uint8)[:, None]
_SLOT = np.arange(18, dtype=np.int8)[:, None]
_DIGITS = (np.indices((10, 10, 10)).reshape(3, 1000) + 48).astype(np.uint8)


def format_17g(values: np.ndarray) -> bytes:
    """The lines of a 2-D float64 array, each value the bytes b"%.17g" % v.

    Finite v != 0 is D * 10^(E - 16), D = y = |v| * 10^(16 - E) rounded, E
    from floor(log10 |v|) stepped until y is in [10^16, 10^17).  y is a
    double-double (Dekker's product, no FMA) good to about 1e-14; one within
    1e-6 of a half goes to Python, as do inf and nan."""
    v, n, k = values.ravel(), values.size, values.shape[1]
    finite = np.isfinite(v) & (v != 0)
    a = np.where(finite, np.abs(v), 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    x, e2 = np.frexp(a)
    D, frac, at = np.empty(n, np.int64), np.empty(n), np.arange(n)
    while len(at):
        j, xa = 16 - E[at], x[at]
        for q in set(j[np.isnan(_tens[0].take(j))].tolist()):
            num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
            f = num.bit_length() - 1 if q >= 0 else -den.bit_length()
            t = (num << 1100) // den >> 995 + f  # 10^q * 2^(105 - f)
            _tens[:, q] = ((t >> 80) / 2**25, (t >> 53 & 2**27 - 1) / 2**52,
                           (t & 2**53 - 1) / 2**105, f)
        hh, hl, lo, f = _tens.take(j, axis=1)
        xh = np.floor(xa * 2.0 ** 26) * 2.0 ** -26
        xl = xa - xh
        p = xa * (hh + hl)
        scale = np.ldexp(1.0, e2[at] + f.astype(np.int32))
        tail = xl * hl - (((p - xh * hh) - xl * hh) - xh * hl) + xa * lo
        tail *= scale
        r = tail - np.floor(tail)
        d = (p * scale).astype(np.int64) + (tail - r).astype(np.int64)
        low = d < 10 ** 16
        d += r > 0.5
        high = d > 10 ** 17
        D[at], frac[at] = d, r
        E[at] += high.astype(np.int64) - low
        at = at[low | high]
    E += D == 10 ** 17
    D[D == 10 ** 17] = 10 ** 16
    D[~finite] = E[~finite] = 0
    digits = np.empty((19, n), np.uint8)  # digit i of D in row i + 1
    for row in range(15, -1, -3):
        D, r = D // 1000, D
        np.take(_DIGITS, r - 1000 * D, axis=1, out=digits[row:row + 3])
    exp, small = (E < -4) | (E >= 17), (E < 0) & (E >= -4)
    point = np.where(exp, 1, np.where(small, 17, E + 1)).astype(np.int8)
    rows = _ROW.repeat(n, axis=1)
    body = rows[6:24]
    body[:] = digits[:-1] + (_SLOT < point) * (digits[1:] - digits[:-1])
    body.reshape(-1)[point.astype(np.intp) * n + np.arange(n)] = ord(".")
    rows[25, E < 0] = ord("-")
    np.take(_DIGITS, np.abs(E), axis=1, out=rows[26:29])
    rows[29, k - 1::k] = ord("\n")
    keep = np.ones((30, n), bool)
    keep[0] = np.signbit(v)
    keep[1:6] = _SLOT[:5] < np.where(small, 1 - E, 0)
    # the integer digits, and all up to the last nonzero one
    ends = (_SLOT[1:] * (digits[1:18] != 48)).max(axis=0)
    keep[6:24] = _SLOT < np.maximum(np.where(small, 0, point),
                                    ends + (ends > point))
    keep[24:29] = exp
    keep[26] &= rows[26] > 48
    for i in np.flatnonzero((np.abs(frac - 0.5) < 1e-6) | ~finite & (v != 0)):
        text = np.frombuffer(b"%.17g" % v[i], np.uint8)
        rows[:len(text), i], keep[:29, i] = text, np.arange(29) < len(text)
    return rows.T[keep.T].tobytes()
