import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsvilab import g17


def cells(values):
    """g17.write of values into the cells of a row table laid out as the
    results.csv writer lays out its own: two values to a row behind a
    head, each cell after a comma, so the cells are strided and
    unaligned.  The table starts as 0xff to show the bytes write leaves."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = np.resize(values, 2 * -(-values.size // 2)).reshape(-1, 2)
    table = np.full((rows.shape[0], 3 + 2 * (1 + g17.WIDTH) + 2), 0xFF, np.uint8)
    slots = table[:, 3:-2].reshape(-1, 2, 1 + g17.WIDTH)
    g17.write(rows, slots[:, :, 1:])
    assert (table[:, :3] == 0xFF).all() and (slots[:, :, 0] == 0xFF).all()
    assert (table[:, -2:] == 0xFF).all()
    return slots[:, :, 1:].reshape(-1, g17.WIDTH)[: values.size]


def texts(values):
    """g17.write of values as one bytes object per value."""
    return [row[row != 0].tobytes() for row in cells(values)]


def dtoa(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
def test_cells_match_dtoa_on_floats(values):
    assert texts(values) == dtoa(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_cells_match_dtoa_on_bit_patterns(words):
    values = np.array(words, dtype=np.uint64).view(np.float64)
    assert texts(values) == dtoa(values)


def _powers_of_ten():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, 0.0)])


EDGES = {
    "signed zero": [0.0, -0.0],
    "subnormal": [5e-324, -5e-324, 2.2250738585072009e-308],
    "huge": [1e300, -1e300, 1.7976931348623157e308],
    "fixed to exponential below": [1e-4, 9.9999999999999991e-05, 1e-5],
    "fixed to exponential above": [1e16, 99999999999999984.0, 1e17],
    # 17-digit ties round half to even, in the exact and the inexact path
    "ties": [1234567890123456.25, 1234567890123456.75, 3 * 2.0**-24, 5 * 2.0**-24],
    # choosing the decade after rounding prints 1e-280
    "decade of the unrounded product": [9.9999999999999996e-281],
    # the double-double product of 1e20 lands just under 1e16; without the
    # edge fallback it prints 1e+19
    "inexact decade edge": [1e20],
    # x 10^24 is half an integer for x = 2^-25 and 3 2^-25, and 10^24 is no
    # double: the double-double product lies a hair from the tie
    "far ties": [2.0**-25, -3 * 2.0**-25],
    # every fallback at once, next to exact values: the fallback rows of a
    # strided write land in their own cells
    "fallbacks among exact values": [
        1.5, -0.0, 0.25, 5e-324, -2.5, 2.0**-25, 0.0, -1e-300, np.nan, 1e20, 7.0, -np.inf,
    ],
    "range limits": [1e-284, np.nextafter(1e-284, 0.0), 1e280, np.nextafter(1e280, 0.0)],
    "non-finite": [np.inf, -np.inf],
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_cells_match_dtoa_on_edges(name):
    assert texts(EDGES[name]) == dtoa(EDGES[name])


def test_cells_match_dtoa_on_every_decade():
    values = _powers_of_ten()
    assert texts(values) == dtoa(values)
    assert texts(-values) == dtoa(-values)


def test_exact_digits_marks_unsure_inexact_products():
    d, k, unsure = g17.exact_digits(np.array([1e20, 1.5, 9.9999999999999996e-281]))
    # 1e20 sits on the 10^16 edge of an inexact scale and falls back
    assert unsure.tolist() == [True, False, False]
    assert d[1:].tolist() == [15000000000000000, 99999999999999996]
    assert k[1:].tolist() == [0, -281]


def test_cells_rows_fit_the_width():
    values = [-1.2345678901234567e-100, -0.00012345678901234567, -12345678901234567.0]
    assert cells(values).shape == (3, g17.WIDTH)
    assert [len(t) for t in texts(values)] == [24, 23, 18]


def test_write_takes_any_shape():
    values = np.array([[1.5, -0.0, np.nan], [1e300, 5e-324, 0.1]])
    out = np.zeros((2, 3, g17.WIDTH), np.uint8)
    g17.write(values, out)
    assert [row[row != 0].tobytes() for row in out.reshape(-1, g17.WIDTH)] == dtoa(values.ravel())


def _decade_edges(lo, hi, size, sides=(np.inf, -np.inf)):
    """The doubles next to 10.0**k toward each of sides for k in [lo, hi],
    repeated to size values.  Each lies within 1e-12 of its decade's
    edge, where the product is checked again; below 10.0**k, log10
    names the decade above, and the product is scaled a second time."""
    powers = 10.0 ** np.arange(lo, hi + 1)
    return np.resize([np.nextafter(powers, side) for side in sides], size)


def test_write_holds_at_most_bytes_per_value():
    # the results.csv writer sizes its blocks by this bound
    rng = np.random.default_rng(5)
    for values in (
        rng.standard_normal(4096) * 10.0 ** rng.integers(-8, 8, 4096),
        np.where(rng.random(4096) < 0.5, 0.0, rng.standard_normal(4096)),
        # decade edges: [-20, 21] spans the exact scales, [-280, 269] is
        # mostly double-double ones
        _decade_edges(-20, 21, 4096),
        _decade_edges(-280, 269, 4096),
        _decade_edges(-20, 21, 16384),
        _decade_edges(-280, 269, 16384),
        _decade_edges(-280, 269, 4096, sides=(-np.inf,)),  # every value scaled twice
    ):
        out = np.zeros((values.size, g17.WIDTH), np.uint8)
        g17.write(values, out)
        tracemalloc.start()
        try:
            g17.write(values, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= g17.BYTES_PER_VALUE * values.size
