"""Exact `'%.17g'` text of float arrays, vectorized.

`write(x, out)` puts the text of every value of x into the matching
WIDTH-byte cell of out, a uint8 array of shape x.shape + (WIDTH,) whose
cells may lie anywhere in a larger buffer, such as the slots of a row
table.  A cell's bytes with its NULs removed are `'%.17g' % v`; it may
hold NULs inside as well as after the text.

A value |x| in [1e-284, 1e280) is scaled to x 10^(16 - k) = p + t, with
p the rounded product and t its exact error (Dekker's two-product, "A
floating-point technique for extending the available precision", Numer.
Math. 18, 1971).  The decade k is chosen from the unrounded p + t, and
the 17 digits are D = p + rint(t): p is an even integer >= 2^53, so
rint's half-even rounding gives the half-even ties of `'%.17g'`.  For
0 <= 16 - k <= 22 the power of ten is a double and p + t is exact.
Outside that range it is a double-double, good to about 1e-14 in units
of the last digit, and a value whose t lies within 1e-6 of a rounding
tie or of the 10^16 / 10^17 edge falls back to `'%.17g'`.  So do
non-finite, subnormal and out-of-range values; zero is written as `0` or
`-0`.

A cell is built as three little-endian 64-bit words, the sign in byte 0.
The digits are spelled four at a time from a table, trimmed of the zeros
that `'%.17g'` drops, opened at the point, shifted to where the decade
puts them, and joined by that decade's prefix (`0.000`) or exponent
(`e-100`), so no value's layout takes a branch or a sort.
"""

import math

import numpy as np

# len("-1.2345678901234567e-100"), the longest '%.17g' text
WIDTH = 24
# the temporaries write holds per value, at most (bytes; a test measures it)
BYTES_PER_VALUE = 104

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
# |x| the exact path takes: the scaled values and their splits stay normal
FAST_RANGE = (1e-284, 1e280)
_K_MIN, _K_MAX = -286, 281  # decades the search can reach: log10 of FAST_RANGE, +-1
_EXACT = 22  # 10^s is a double for 0 <= s <= 22
_NEAR = 1e-6  # how close to a tie or an edge an inexact product falls back
_WORD = np.dtype("<u8")  # eight bytes of text, the first in the low byte


def _power_table():
    """10^(16 - k) = hi + lo as a double-double for k in [_K_MIN, _K_MAX],
    column k - _K_MIN, hi split into two 26-bit halves: rows hi, its
    upper half, its lower half, lo.  Integer arithmetic, correctly
    rounded; lo is 0 for 0 <= 16 - k <= 22."""
    table = np.empty((4, _K_MAX + 1 - _K_MIN))
    for i, s in enumerate(range(16 - _K_MIN, 15 - _K_MAX, -1)):
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
    """"0000" ... "9999" as ASCII in the low four bytes of a little-endian
    word, one per entry; and, for quad j of the sixteen digits after a
    lead digit (digits 4j + 1 .. 4j + 4), the index of each entry's last
    nonzero digit, 0 for "0000": row j, column q.  Built in 16-bit
    steps, which keep the transient memory small."""
    n = np.arange(10000, dtype=np.uint16)
    text = np.zeros((10000, 8), np.uint8)
    last = np.zeros(10000, np.uint8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        digit = n // scale % 10
        text[:, j] = digit + ord("0")
        last[digit != 0] = j + 1
    lasts = (last + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (last != 0)
    return text.view(_WORD).ravel(), lasts


def _layout_tables():
    """Per decade k, column k - _K_MIN: the digits before the point g and
    the digits kept at least (int8 rows); the cell byte of the first
    digit, in bits; the masks of digits 1 .. g - 1 (as in _THROUGH); and
    the text around the digits (a prefix or an exponent) as three words,
    in column 2 (k - _K_MIN) without the point and + 1 with it at byte
    first + g.  Fixed notation for -4 <= k <= 16, exponential otherwise;
    a fixed k < 0 writes "0." and -k - 1 zeros before the digits and
    opens no point (g = 17)."""
    k = np.arange(_K_MIN, _K_MAX + 1)
    fixed, small = (k >= 0) & (k <= 16), (k >= -4) & (k < 0)
    g = np.where(fixed, k + 1, np.where(small, 17, 1))
    keep = np.where(fixed, k, 0)
    first = np.where(small, 2 - k, 1)
    around = np.zeros((k.size, 2, WIDTH), np.uint8)
    around[small, :, 1:3] = np.frombuffer(b"0.", np.uint8)
    for zeros in range(1, 4):
        around[small & (-k - 1 >= zeros), :, 2 + zeros] = ord("0")
    big = ~fixed & ~small
    e = np.abs(k[big])[:, None]
    around[big, :, 19] = ord("e")
    around[big, :, 20] = np.where(k[big] < 0, ord("-"), ord("+"))[:, None]
    around[big, :, 21] = (e // 100 + ord("0")) * (e >= 100)
    around[big, :, 22] = e // 10 % 10 + ord("0")
    around[big, :, 23] = e % 10 + ord("0")
    around[np.arange(k.size), 1, first + g] = ord(".")
    words = np.ascontiguousarray(around.reshape(-1, WIDTH).view(_WORD).T)
    low = _THROUGH[:, g - 1]
    return np.stack([g, keep]).astype(np.int8), (8 * first).astype(np.uint64), low, words


_POW = _power_table()
_QUAD, _QUAD_LAST = _quad_tables()
# column n: the bytes of digits 1..n (those after the lead) in two words
# of eight digits
_THROUGH = np.ascontiguousarray(
    ((np.arange(16) < np.arange(17)[:, None]) * np.uint8(255)).view(_WORD).T
)
_POINT, _FIRST, _LOW, _AROUND = _layout_tables()
_U8, _U32, _U64 = np.uint64(8), np.uint64(32), np.uint64(64)
# p outside (_EDGES) may lie in another decade than its log10 says
_EDGES = (1e16 * (1 + 1e-12), 1e17 * (1 - 1e-12))


def _scaled(a, col):
    """a 10^(16 - k) as p + t, p = fl(a 10^(16 - k)), k = col + _K_MIN.
    Exact where lo is 0.  Holds at most four arrays the size of a."""
    hi, hh, hl, lo = _POW
    p = hi[col]
    p *= a
    half = _SPLIT * a
    half -= half - a  # c - (c - a): the upper 26 bits of a, ah
    t = hh[col]
    t *= half
    term = hl[col]
    term *= half
    np.subtract(a, half, out=half)  # the lower bits, al
    t -= p
    t += term  # ah hh - p + ah hl
    for row, x in ((hh, half), (hl, half), (lo, a)):  # + al hh + al hl + a lo
        np.take(row, col, out=term)
        term *= x
        t += term
    return p, t


def exact_digits(a):
    """Digits of positive a in [1e-284, 1e280): a = D 10^(k - 16) to 17
    digits, 10^16 <= D < 10^17, as D, k and the mask of values whose D
    and k are not certain (they go to the fallback)."""
    col = np.log10(a)
    col -= _K_MIN
    col = np.floor(col, out=col).astype(np.intp)
    p, t = _scaled(a, col)
    # the decade of the unrounded product; log10 is off by at most one,
    # and |t| is far below the margin of _EDGES
    edge = p < _EDGES[0]
    edge |= p > _EDGES[1]
    edge = np.flatnonzero(edge)
    for _ in range(2 if edge.size else 0):
        pe, te = p[edge], t[edge]
        move = ((pe - 1e17) + te >= 0).view(np.int8) - ((pe - 1e16) + te < 0).view(np.int8)
        del pe, te
        edge = edge[move != 0]
        if edge.size == 0:
            break
        col[edge] += move[move != 0]
        p[edge], t[edge] = _scaled(a[edge], col[edge])
    unsure = np.zeros(a.size, bool)
    # columns whose scale 10^(16 - k) is not a double
    far = np.flatnonzero((col - (-_K_MIN - 6)).astype(np.uintp) > _EXACT)
    if far.size:
        pf, tf = p[far], t[far]
        gap = tf - np.floor(tf)
        gap -= 0.5
        near = np.abs(gap, out=gap) < _NEAR
        for edge in (1e16, 1e17):
            np.subtract(pf, edge, out=gap)
            gap += tf
            near |= np.abs(gap, out=gap) < _NEAR
        unsure[far] = near
    d = p.astype(np.int64)
    del p
    d += np.rint(t, out=t).astype(np.int64)
    del t
    carry = np.flatnonzero(d == 10**17)
    d[carry] = 10**16
    col[carry] += 1
    col += _K_MIN
    return d, col, unsure


def _spelled(d):
    """17-digit integers as the ASCII of their lead digit and of the
    other sixteen in two words, eight to a word, the first in the low
    byte; and the index of each one's last nonzero digit.  Spends d."""
    top = d // 10**8
    d -= top * 10**8
    lead = top // 10**8
    top -= lead * 10**8
    # the four quads of digits 1..16: top and d hold 5..8 and 13..16
    quads = top // 10**4, top, d // 10**4, d
    top -= quads[0] * 10**4
    d -= quads[2] * 10**4
    last = _QUAD_LAST[0][quads[0]]
    for row, quad in zip(_QUAD_LAST[1:], quads[1:]):
        np.maximum(last, row[quad], out=last)
    text = np.empty((2, d.size), _WORD)
    for word, (high, low) in zip(text, (quads[:2], quads[2:])):
        np.take(_QUAD, low, out=word)
        word <<= _U32
        word |= _QUAD[high]
    lead = lead.view(np.uint64)
    lead |= np.uint64(ord("0"))
    return lead, text, last


def _cells(x):
    """The cells of x, each |x| in [1e-284, 1e280), as (3, n) words; and
    the mask of the unsure ones."""
    a = np.abs(x)
    d, col, unsure = exact_digits(a)
    del a
    col -= _K_MIN  # the column of the decade in the tables
    lead, text, last = _spelled(d)
    del d
    g, keep = np.take(_POINT, col, axis=1)
    # the digits through the last nonzero one stay, and at least keep of
    # them after the lead; the point shows when a digit follows it
    keep = np.maximum(last, keep, out=keep)
    del last
    text &= np.take(_THROUGH, keep, axis=1)
    # the digits after the lead and before the point go one byte after
    # it, the others two, past the point
    low = np.take(_LOW, col, axis=1)
    low &= text
    text ^= low
    shift = _FIRST[col]
    col *= 2
    col += keep >= g  # the column of the text around the digits
    del g, keep
    cell = np.empty((3, x.size), _WORD)
    np.left_shift(lead, shift, out=cell[0])
    del lead
    # each part's shift into the cell, and its spill into the next word
    np.subtract(_U64 - _U8, shift, out=shift)
    np.right_shift(low, shift, out=cell[1:])
    shift -= _U8
    cell[1] |= text[0] >> shift
    cell[2] |= text[1] >> shift
    np.subtract(_U64, shift, out=shift)
    text <<= shift  # by 64 (k = -4) gives 0: numpy shifts out every bit
    shift -= _U8
    low <<= shift
    low |= text
    del text, shift
    cell[:2] |= low
    del low
    cell |= np.take(_AROUND, col, axis=1)
    cell[0] |= np.signbit(x).view(np.uint8) * np.uint64(ord("-"))
    return cell, unsure


def write(x, out):
    """Write '%.17g' % v for each value v of x into its cell out[...]:
    out is uint8 with shape x.shape + (WIDTH,), a view of any strides
    whose last axis is contiguous."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    inside = a >= FAST_RANGE[0]
    inside &= a < FAST_RANGE[1]
    del a
    if inside.all():
        cells, unsure = _cells(flat)
        redo = np.flatnonzero(unsure)
    else:
        fast = np.flatnonzero(inside)
        part, unsure = _cells(flat[fast])
        cells = np.empty((3, flat.size), _WORD)
        cells[0] = ord("0") << 8  # +0; the other values outside are redone below
        cells[1:] = 0
        cells[:, fast] = part
        del part
        inside |= flat == 0
        inside &= ~np.signbit(flat) | (flat != 0)
        redo = [*np.flatnonzero(~inside), *fast[unsure]]
    np.moveaxis(out.view(_WORD), -1, 0)[...] = cells.reshape((3, *x.shape))
    del cells
    for i in redo:
        text = b"%.17g" % flat[i]
        cell = out[np.unravel_index(i, x.shape)]
        cell[:] = 0
        cell[: len(text)] = np.frombuffer(text, np.uint8)
