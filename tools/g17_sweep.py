"""Compare bsvilab.g17.write with '%.17g' on a wide sweep of doubles.

    python tools/g17_sweep.py

About 10.3 million values in five families, from a fixed seed: raw
64-bit patterns (every exponent, NaN and infinity included), standard
normals scaled by 10^u with u uniform on [-300, 300], short decimals
(normals rounded to 0-17 places, so the trailing zeros are stripped),
every power of ten from 1e-323 to 1e308 with the 1000 doubles on
either side, and the fallback rows (+0, -0, subnormals and far values
at a rounding tie), each next to a value of the exact path.  Prints one line per family with the count, the
mismatches and the share of values that took the '%.17g' fallback
(non-finite, subnormal or outside g17.FAST_RANGE, or unsure on the
double-double path), and exits 1 on any mismatch.  The values are
written four to a row into the cells of a row table laid out as the
results.csv writer lays out its own (a head, then a comma before each
cell), so the sweep checks the strided, unaligned writes the writer
makes.
"""

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bsvilab import g17  # noqa: E402

CHUNK = 1 << 16
SEED = 1


def families(rng):
    yield "raw bits", rng.integers(0, 2**64, 4_000_000, dtype=np.uint64).view(np.float64)
    yield "scaled normals", rng.standard_normal(3_000_000) * 10.0 ** rng.uniform(-300, 300, 3_000_000)
    places = rng.integers(0, 18, 2_000_000)
    yield "short decimals", np.round(rng.standard_normal(2_000_000) * 10.0**places) / 10.0**places
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    steps = np.arange(-1000, 1001)
    bits = powers.view(np.int64)[:, None] + steps
    bits = bits[(bits > 0) & (bits < np.float64(np.inf).view(np.int64))]
    yield "decade edges", bits.view(np.float64)
    # the '%.17g' fallback rows, each next to a value of the exact path
    fallback = np.concatenate([
        np.zeros(1000), -np.zeros(1000),
        rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64) * rng.choice([-1.0, 1.0], 2000),
        np.tile(far_ties(), 20),
    ])
    exact = rng.standard_normal(fallback.size)
    yield "fallback rows", np.stack([fallback, exact], axis=1).ravel()


def far_ties():
    """Every double x = m 2^e below 1e-6 whose x 10^s, s = 16 - k in
    23..25, is exactly half an integer.  10^s is no double there, so the product
    is a double-double a hair from a rounding tie, and the value goes to
    the fallback.  m 5^s 2^(e + s) = j + 1/2 holds for m = 2^(K - 1) / 5^s
    modulo 2^K, K = -(e + s), plus the multiples of 2^K that keep m at 53
    bits; K <= 53 leaves only these few decades."""
    ties = []
    for e in range(-82, -71):
        for s in range(23, 26):
            big = -(e + s)
            if not 0 < big <= 53:
                continue
            m = (1 << (big - 1)) * pow(5**s, -1, 1 << big) % (1 << big)
            for m in range(m, 1 << 53, 1 << big):
                x = m * 2.0**e
                if m >= 1 << 52 and 10.0 ** (16 - s) <= x < 10.0 ** (17 - s):
                    ties += [x, -x]
    return np.array(ties)


def fallbacks(x) -> int:
    a = np.abs(x)
    inside = (a >= g17.FAST_RANGE[0]) & (a < g17.FAST_RANGE[1])
    outside = np.count_nonzero(~inside & (a != 0))
    return outside + int(np.count_nonzero(g17.exact_digits(a[inside])[2]))


def texts(part):
    """g17.write of part, four values to a row of a results.csv-like row
    table, as one bytes object per value."""
    rows = np.resize(part, 4 * -(-part.size // 4)).reshape(-1, 4)
    slot = 1 + g17.WIDTH
    table = np.zeros((rows.shape[0], 29 + 4 * slot + 2), np.uint8)
    cells = table[:, 29 : 29 + 4 * slot].reshape(-1, 4, slot)[:, :, 1:]
    g17.write(rows, cells)
    return [cell[cell != 0].tobytes() for cell in cells.reshape(-1, g17.WIDTH)[: part.size]]


def compare(x) -> int:
    """Mismatches of g17.write against '%.17g' on x, one chunk at a time."""
    bad = 0
    for i in range(0, x.size, CHUNK):
        part = x[i : i + CHUNK]
        got = texts(part)
        want = [b"%.17g" % v for v in part.tolist()]
        for v, g, w in zip(part.tolist(), got, want):
            if g != w:
                bad += 1
                if bad <= 10:
                    print(f"  mismatch: {v!r} gave {g!r}, '%.17g' is {w!r}")
    return bad


def main() -> int:
    total_bad = 0
    total = 0
    for name, x in families(np.random.default_rng(SEED)):
        bad = compare(x)
        fb = sum(fallbacks(x[i : i + CHUNK]) for i in range(0, x.size, CHUNK))
        print(f"{name}: {x.size} values, {bad} mismatches, fallback {fb} ({fb / x.size:.4%})")
        total_bad += bad
        total += x.size
    print(f"total: {total} values, {total_bad} mismatches")
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
