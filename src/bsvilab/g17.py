"""Exact `'%.17g'` text of float arrays, vectorized.

`cells(x)` gives one NUL-padded row of ASCII per value holding the bytes
of `'%.17g' % v`.  A value |x| in [1e-284, 1e280) is scaled to
x 10^(16 - k) = p + t, with p the rounded product and t its exact error
(Dekker's two-product, "A floating-point technique for extending the
available precision", Numer. Math. 18, 1971).  The decade k is chosen
from the unrounded p + t, and the 17 digits are D = p + rint(t): p is an
even integer >= 2^53, so rint's half-even rounding gives the half-even
ties of `'%.17g'`.  For 0 <= 16 - k <= 22 the power of ten is a double
and p + t is exact.  Outside that range it is a double-double, good to
about 1e-14 in units of the last digit, and a value whose t lies within
1e-6 of a rounding tie or of the 10^16 / 10^17 edge falls back to
`'%.17g'`.  So do non-finite, subnormal and out-of-range values; zero is
written as `0` or `-0`.
"""

import math

import numpy as np

# len("-1.2345678901234567e-100"), the longest '%.17g' text
WIDTH = 24

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
# |x| the exact path takes: the scaled values and their splits stay normal
FAST_RANGE = (1e-284, 1e280)
_S_MIN, _S_MAX = -265, 302  # scales 10^s the decade search can ask for
_EXACT = 22  # 10^s is a double for 0 <= s <= 22
_NEAR = 1e-6  # how close to a tie or an edge an inexact product falls back
_VOID20, _VOID23 = np.dtype((np.void, 20)), np.dtype((np.void, WIDTH - 1))


def _power_table():
    """10^s = hi + lo as a double-double for s in [_S_MIN, _S_MAX], hi
    split into two 26-bit halves: rows hi, its upper half, its lower
    half, lo.  Integer arithmetic, correctly rounded; lo is 0 for
    0 <= s <= 22."""
    table = np.empty((4, _S_MAX + 1 - _S_MIN))
    for i, s in enumerate(range(_S_MIN, _S_MAX + 1)):
        if s >= 0:
            n = 10**s
            hi = float(n)
            lo = float(n - int(hi))
        else:
            d = 10**-s
            hi = 1 / d
            num, den = hi.as_integer_ratio()
            lo = (den - num * d) / (d * den)
        m, e = math.frexp(hi)
        c = _SPLIT * m
        head = c - (c - m)
        table[:, i] = hi, math.ldexp(head, e), math.ldexp(m - head, e), lo
    return table


def _quad_tables():
    """"0000" ... "9999" as ASCII, one uint32 per entry, and how many
    zeros each ends in ("0000" ends in 4); built in 16-bit steps, which
    keep the transient memory small."""
    n = np.arange(10000, dtype=np.uint16)
    text = np.empty((10000, 4), np.uint8)
    zeros = np.zeros(10000, np.int8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        text[:, j] = n // scale % 10 + ord("0")
        zeros += n % (10000 // scale) == 0
    return text.view(np.uint32).ravel(), zeros


_POW, _POW_H, _POW_L, _POW_LO = _power_table()
_QUAD, _QUAD_ZEROS = _quad_tables()
# row j keeps the digits 0..j of a 17-digit field laid out as in _digits
_KEEP = ((np.arange(20) < np.arange(4, 21)[:, None]) * np.uint8(255)).view(_VOID20)


def _scaled(a, s):
    """a 10^s as p + t, p = fl(a 10^s); exact where lo is 0.  In place
    where it can be, to keep the temporaries few."""
    i = s - _S_MIN
    p = a * _POW[i]
    ah = _SPLIT * a
    ah -= ah - a  # c - (c - a): the upper 26 bits of a
    al = a - ah
    hh, hl = _POW_H[i], _POW_L[i]
    t = ah * hh
    t -= p
    t += ah * hl
    t += al * hh
    t += al * hl
    t += a * _POW_LO[i]
    return p, t


def exact_digits(a):
    """Digits of positive a in [1e-284, 1e280): a = D 10^(k - 16) to 17
    digits, 10^16 <= D < 10^17, and the mask of values whose D and k are
    not certain (they go to the fallback)."""
    k = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, 16 - k)
    for _ in range(2):
        # the decade of the unrounded product; log10 is off by at most one
        move = ((p - 1e17) + t >= 0).astype(np.int64) - ((p - 1e16) + t < 0)
        fix = np.flatnonzero(move)
        if fix.size == 0:
            break
        k[fix] += move[fix]
        p[fix], t[fix] = _scaled(a[fix], 16 - k[fix])
    unsure = np.zeros(a.size, bool)
    far = np.flatnonzero((k > 16) | (k < 16 - _EXACT))
    if far.size:
        pf, tf = p[far], t[far]
        unsure[far] = (
            (np.abs(tf - np.floor(tf) - 0.5) < _NEAR)
            | (np.abs((pf - 1e16) + tf) < _NEAR)
            | (np.abs((pf - 1e17) + tf) < _NEAR)
        )
    d = p.astype(np.int64) + np.rint(t).astype(np.int64)
    carry = np.flatnonzero(d == 10**17)
    d[carry] = 10**16
    k[carry] += 1
    return d, k, unsure


def _digits(d):
    """17-digit integers as (n, 20) ASCII, the digits in columns 3..19
    behind three free columns, and the index of each one's last nonzero
    digit."""
    upper = d // 10**8
    lower = (d - upper * 10**8).astype(np.uint32)
    upper = upper.astype(np.uint32)
    lead = upper // 10**8
    upper -= lead * np.uint32(10**8)
    quads = (lead, upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    text = np.empty((d.size, 5), np.uint32)
    for j, q in enumerate(quads):
        text[:, j] = _QUAD[q]
    zeros = _QUAD_ZEROS[quads[4]]
    run = np.flatnonzero(quads[4] == 0)  # rows whose later quads are 0000
    for q in quads[3:0:-1]:
        zeros[run] += _QUAD_ZEROS[q[run]]
        run = run[q[run] == 0]
    return text.view(np.uint8), 16 - zeros


def _layout(txt, g, dig, k):
    """Write the text after the sign for notation g into txt: fixed with
    decade g for -4 <= g <= 16, exponential for g = 17.  dig holds the
    point (or NUL) in column 2 and the digits in columns 3..19, the
    trailing zeros after the point already NUL."""
    dot, dig = dig[:, 2], dig[:, 3:]
    if 0 <= g <= 16:
        txt[:, : g + 1] = dig[:, : g + 1]
        if g < 16:
            txt[:, g + 1] = dot
            txt[:, g + 2 : 18] = dig[:, g + 1 :]
    elif g < 0:
        txt[:, 0] = ord("0")
        txt[:, 1] = ord(".")
        txt[:, 2 : 1 - g] = ord("0")
        txt[:, 1 - g : 18 - g] = dig
    else:
        txt[:, 0] = dig[:, 0]
        txt[:, 1] = dot
        txt[:, 2:18] = dig[:, 1:]
        txt[:, 18] = ord("e")
        txt[:, 19] = np.where(k < 0, ord("-"), ord("+"))
        e = np.abs(k)
        txt[:, 20:23] = _QUAD[e].view(np.uint8).reshape(-1, 4)[:, 1:]
        txt[e < 100, 20] = 0


def cells(x):
    """(n, WIDTH) uint8: row i holds '%.17g' % x[i] in ASCII, NUL-padded."""
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    out = np.zeros((x.size, WIDTH), np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    out[a == 0, 1] = ord("0")
    inside = (a >= FAST_RANGE[0]) & (a < FAST_RANGE[1])
    fast = np.flatnonzero(inside)
    d, k, unsure = exact_digits(a[fast])

    dig, last = _digits(d)
    fixed = (k >= -4) & (k <= 16)
    whole = np.where(fixed, np.maximum(k + 1, 0), 1)  # digits before the point
    # strip the trailing zeros after the point, and the point with them
    dig.view(np.uint32)[:] &= _KEEP[np.maximum(last, whole - 1)].view(np.uint32).reshape(-1, 5)
    dig[:, 2] = np.where(last >= whole, ord("."), 0)

    # one slice copy per notation, at most 22 of them
    notation = np.where(fixed, k, 17).astype(np.int8)
    order = np.argsort(notation, kind="stable")
    notation, k = notation[order], k[order]
    dig = dig.view(_VOID20)[order].view(np.uint8).reshape(-1, 20)
    txt = np.zeros((fast.size, WIDTH - 1), np.uint8)
    starts = np.flatnonzero(np.diff(notation, prepend=-99))
    for b0, b1 in zip(starts, [*starts[1:], fast.size]):
        _layout(txt[b0:b1], notation[b0], dig[b0:b1], k[b0:b1])
    out[:, 1:].view(_VOID23)[fast[order]] = txt.view(_VOID23)

    for i in np.concatenate([np.flatnonzero(~inside & (a != 0)), fast[unsure]]):
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out
