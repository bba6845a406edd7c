import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsvilab import g17


def texts(values):
    """g17.cells of values as one bytes object per value."""
    return [row[row != 0].tobytes() for row in g17.cells(np.asarray(values, dtype=np.float64))]


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
    rows = g17.cells(values)
    assert rows.shape == (3, g17.WIDTH)
    assert [len(t) for t in texts(values)] == [24, 23, 18]
