"""Compare bsvilab.g17.cells with '%.17g' on a wide sweep of doubles.

    python tools/g17_sweep.py

About 10.3 million values in four families, from a fixed seed: raw
64-bit patterns (every exponent, NaN and infinity included), standard
normals scaled by 10^u with u uniform on [-300, 300], short decimals
(normals rounded to 0-17 places, so the trailing zeros are stripped),
and every power of ten from 1e-323 to 1e308 with the 1000 doubles on
either side.  Prints one line per family with the count, the
mismatches and the share of values that took the '%.17g' fallback
(non-finite, subnormal or outside g17.FAST_RANGE, or unsure on the
double-double path), and exits 1 on any mismatch.
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


def fallbacks(x) -> int:
    a = np.abs(x)
    inside = (a >= g17.FAST_RANGE[0]) & (a < g17.FAST_RANGE[1])
    outside = np.count_nonzero(~inside & (a != 0))
    return outside + int(np.count_nonzero(g17.exact_digits(a[inside])[2]))


def compare(x) -> int:
    """Mismatches of g17.cells against '%.17g' on x, one chunk at a time."""
    bad = 0
    for i in range(0, x.size, CHUNK):
        part = x[i : i + CHUNK]
        rows = g17.cells(part)
        got = [row[row != 0].tobytes() for row in rows]
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
