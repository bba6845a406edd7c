import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsvilab.convex import (
    ConvexSpec,
    combined_gradient,
    combined_potential,
    envelope,
    gradient_breakpoints,
    potential_value,
    resolvent,
    yosida_gradient,
)
from bsvilab.errors import DomainError, NonFiniteInput

from oracles import (
    abs_potential,
    envelope_oracle,
    gradient_oracle,
    indicator_potential,
    prox_oracle,
    quadratic_potential,
)

QUAD1 = ConvexSpec.quadratic(1.0)
IND11 = ConvexSpec.interval(-1.0, 1.0)
ABS = ConvexSpec.abs_value()
ZERO = ConvexSpec.zero()

finite_y = st.floats(min_value=-8.0, max_value=8.0)
small_eps = st.floats(min_value=1e-3, max_value=2.0)


def test_envelope_frozen_values():
    assert envelope(ZERO, 0.5, 3.0) == 0.0
    assert np.isclose(envelope(QUAD1, 0.25, 2.0), 1.6, atol=1e-12)
    assert np.isclose(envelope(IND11, 0.1, 1.5), 1.25, atol=1e-12)


def test_envelope_matches_grid_oracle():
    assert abs(envelope(QUAD1, 0.25, 2.0) - envelope_oracle(quadratic_potential(1.0), 0.25, 2.0)) < 1e-6
    assert abs(envelope(IND11, 0.1, 1.5) - envelope_oracle(indicator_potential(-1, 1), 0.1, 1.5)) < 1e-6


def test_resolvent_frozen_values():
    assert np.isclose(resolvent(QUAD1, 0.25, 2.0), 1.6, atol=1e-12)
    assert np.isclose(resolvent(IND11, 0.1, 1.5), 1.0, atol=1e-12)
    for spec in (ZERO, QUAD1, IND11, ABS):
        assert resolvent(spec, 0.3, 0.0) == 0.0  # 0 is a minimizer of every kind


def test_yosida_frozen_values():
    assert np.isclose(yosida_gradient(IND11, 0.1, 1.5), 5.0, atol=1e-12)
    assert yosida_gradient(ZERO, 0.5, 7.0) == 0.0
    assert np.isclose(yosida_gradient(ABS, 0.2, 0.1), 0.5, atol=1e-12)
    assert abs(yosida_gradient(ABS, 0.2, 0.1) - gradient_oracle(abs_potential(), 0.2, 0.1)) < 1e-6


def test_indicator_gradient_formula_on_grid():
    a, b, eps = -1.0, 1.0, 0.1
    y = np.linspace(-3.0, 3.0, 1000)
    formula = (np.maximum(y - b, 0.0) - np.maximum(a - y, 0.0)) / eps
    assert np.array_equal(yosida_gradient(IND11, eps, y), formula)

    # on edge values the generic (y - clip(y, a, b)) / eps is the formula
    # bit for bit, signed zeros included
    sub, tiny = 5e-324, np.finfo(float).tiny
    intervals = [(-1.0, 1.0), (-np.inf, 0.0), (0.0, np.inf), (-np.inf, np.inf), (0.0, 1.0), (-sub, sub)]
    edges = [0.0, sub, tiny, 1e-300, 1e-16, 0.5, 1.0, 2.0, 1e300]
    bounds = [x for ab in intervals for x in ab if np.isfinite(x)]
    edges += bounds + [np.nextafter(x, s) for x in bounds for s in (-np.inf, np.inf)]
    y = np.array(edges + [-x for x in edges])
    for a, b in intervals:
        for eps in (1.0, 0.1, 0.025, 1e-3, 3.7):
            got = yosida_gradient(ConvexSpec.interval(a, b), eps, y)
            want = (np.maximum(y - b, 0.0) - np.maximum(a - y, 0.0)) / eps
            assert np.all(got == want), (a, b, eps)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (a, b, eps)


def test_combined_gradient_values():
    assert np.isclose(combined_gradient(IND11, IND11, 0.3, 0.1, 1.5), 5.0, atol=1e-12)
    assert np.isclose(combined_gradient(QUAD1, ZERO, 0.5, 0.25, 2.0), 0.8, atol=1e-12)


def test_constructor_validation():
    with pytest.raises(DomainError, match="a < b"):
        ConvexSpec.interval(0.0, 0.0)
    # every potential is finite and minimal at 0, so construction refuses
    # an interval that misses it
    for a, b in ((0.5, 2.0), (-2.0, -0.5), (1.0, 0.5)):
        with pytest.raises(DomainError, match="must contain 0"):
            ConvexSpec.interval(a, b)
    with pytest.raises(DomainError, match="unknown potential kind"):
        ConvexSpec(kind="custom")
    for c in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            ConvexSpec.quadratic(c)
    with pytest.raises(NonFiniteInput):
        envelope(QUAD1, 0.1, np.nan)
    with pytest.raises(DomainError):
        envelope(QUAD1, -0.1, 1.0)


@pytest.mark.parametrize("eps", [None, 0.1])
@pytest.mark.parametrize("pair", [(ZERO, ZERO), (IND11, ZERO), (ZERO, ABS), (ABS, IND11)])
@pytest.mark.parametrize("alpha", [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.4, 0.0]])
def test_combined_potential_leaves_out_only_terms_that_are_zero(pair, alpha, eps):
    phi, psi = pair
    alpha = np.array(alpha)
    # three paths per step, inside and outside the interval, -0.0 included
    y = np.array([[-2.0, -0.0, 0.5], [0.05, 3.0, -0.0], [1.0, -1.5, 0.0]])

    def value(spec):
        return potential_value(spec, y) if eps is None else envelope(spec, eps, y)

    # both terms, each with 0 * inf counted as 0
    with np.errstate(invalid="ignore"):
        left = np.where(alpha > 0.0, alpha * value(phi), 0.0)
        right = np.where(alpha < 1.0, (1.0 - alpha) * value(psi), 0.0)
    got = combined_potential(phi, psi, alpha, eps, y)
    assert got.shape == y.shape and got.tobytes() == (left + right).tobytes()
    with pytest.raises(NonFiniteInput):
        combined_potential(phi, psi, alpha, eps, np.where(y == 3.0, np.inf, y))


def test_gradient_breakpoints():
    assert gradient_breakpoints(ZERO, 0.1) == []
    assert gradient_breakpoints(QUAD1, 0.1) == []
    assert gradient_breakpoints(IND11, 0.1) == [-1.0, 1.0]
    assert gradient_breakpoints(ConvexSpec.interval(-np.inf, 0.0), 0.1) == [0.0]
    assert gradient_breakpoints(ABS, 0.2) == [-0.2, 0.2]


@pytest.mark.parametrize(
    "spec,potential",
    [
        (QUAD1, quadratic_potential(1.0)),
        (ConvexSpec.quadratic(3.0), quadratic_potential(3.0)),
        (IND11, indicator_potential(-1, 1)),
        (ConvexSpec.interval(-0.5, 2.0), indicator_potential(-0.5, 2.0)),
        (ABS, abs_potential()),
    ],
)
def test_random_samples_against_oracle(spec, potential):
    rng = np.random.default_rng(11)
    for _ in range(60):
        y = float(rng.uniform(-6, 6))
        eps = float(rng.uniform(0.01, 2.0))
        j, val = prox_oracle(potential, eps, y)
        assert abs(float(resolvent(spec, eps, y)) - j) < 1e-6
        assert abs(float(envelope(spec, eps, y)) - val) < 1e-6
        assert abs(float(yosida_gradient(spec, eps, y)) - (y - j) / eps) < 1e-4


CLOSED_FORMS = [QUAD1, IND11, ABS, ZERO, ConvexSpec.interval(-np.inf, 0.0)]


@settings(max_examples=200, deadline=None)
@given(finite_y, finite_y, small_eps, st.integers(0, len(CLOSED_FORMS) - 1))
def test_resolvent_nonexpansive(x, y, eps, k):
    spec = CLOSED_FORMS[k]
    jx = float(resolvent(spec, eps, x))
    jy = float(resolvent(spec, eps, y))
    assert abs(jx - jy) <= abs(x - y) + 1e-10


@settings(max_examples=200, deadline=None)
@given(finite_y, finite_y, small_eps, st.integers(0, len(CLOSED_FORMS) - 1))
def test_gradient_lipschitz(x, y, eps, k):
    spec = CLOSED_FORMS[k]
    gx = float(yosida_gradient(spec, eps, x))
    gy = float(yosida_gradient(spec, eps, y))
    assert abs(gx - gy) <= abs(x - y) / eps + 1e-10


@settings(max_examples=200, deadline=None)
@given(finite_y, small_eps, st.integers(0, len(CLOSED_FORMS) - 1))
def test_envelope_decomposition(y, eps, k):
    spec = CLOSED_FORMS[k]
    j = resolvent(spec, eps, y)
    lhs = float(envelope(spec, eps, y))
    rhs = float((y - j) ** 2 / (2 * eps) + potential_value(spec, j))
    assert abs(lhs - rhs) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.99, max_value=0.99), small_eps, st.integers(0, len(CLOSED_FORMS) - 1))
def test_sandwich_inside_domain(u, eps, k):
    # u stays inside every sampled domain so phi(u) is finite
    spec = CLOSED_FORMS[k]
    j = resolvent(spec, eps, u)
    pj = float(potential_value(spec, j))
    pe = float(envelope(spec, eps, u))
    pu = float(potential_value(spec, u))
    assert -1e-12 <= pj <= pe + 1e-12 <= pu + 2e-12


@settings(max_examples=200, deadline=None)
@given(finite_y, finite_y, small_eps, small_eps, st.integers(0, len(CLOSED_FORMS) - 1))
def test_cross_eps_bound(u, v, e1, e2, k):
    spec = CLOSED_FORMS[k]
    gu = float(yosida_gradient(spec, e1, u))
    gv = float(yosida_gradient(spec, e2, v))
    lhs = -(u - v) * (gu - gv)
    rhs = 0.5 * (e1 + e2) * (gu * gu + gv * gv)
    assert lhs <= rhs + 1e-10


@settings(max_examples=200, deadline=None)
@given(finite_y, st.floats(min_value=-0.99, max_value=0.99), small_eps, st.integers(0, len(CLOSED_FORMS) - 1))
def test_gradient_is_subgradient_at_resolvent(y, v, eps, k):
    spec = CLOSED_FORMS[k]
    j = float(resolvent(spec, eps, y))
    g = float(yosida_gradient(spec, eps, y))
    assert (v - j) * g + float(potential_value(spec, j)) <= float(potential_value(spec, v)) + 1e-10


@settings(max_examples=100, deadline=None)
@given(finite_y, st.integers(0, len(CLOSED_FORMS) - 1))
def test_envelope_nonincreasing_in_eps(y, k):
    spec = CLOSED_FORMS[k]
    values = [float(envelope(spec, e, y)) for e in (0.01, 0.1, 0.5, 1.0, 2.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

