import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsvilab.convex import (
    CompatibilityReport,
    ConvexSpec,
    RecenterData,
    combined_gradient,
    compatibility_check,
    envelope,
    gradient_breakpoints,
    potential_value,
    recenter,
    resolvent,
    yosida_gradient,
)
from bsvilab.errors import DomainError, NonFiniteInput, NotASubgradient

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
# recentered at u0 with subgradient s: phi(y + u0) - s y
QUAD_AT_1 = recenter(QUAD1, ZERO, RecenterData(u0=1.0, phi_subgradient=1.0, psi_subgradient=0.0))[0]
ABS_AT_HALF = recenter(ABS, ZERO, RecenterData(u0=0.5, phi_subgradient=1.0, psi_subgradient=0.0))[0]
WALL_TILTED = recenter(
    ConvexSpec.interval(-1.0, 0.5), ZERO,
    RecenterData(u0=0.5, phi_subgradient=2.0, psi_subgradient=0.0),
)[0]

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


def test_combined_gradient_values():
    assert np.isclose(combined_gradient(IND11, IND11, 0.3, 0.1, 1.5), 5.0, atol=1e-12)
    assert np.isclose(combined_gradient(QUAD1, ZERO, 0.5, 0.25, 2.0), 0.8, atol=1e-12)


def test_combined_gradient_rejects_bad_alpha():
    with pytest.raises(DomainError):
        combined_gradient(QUAD1, ZERO, 1.5, 0.1, 1.0)


def test_constructor_validation():
    with pytest.raises(DomainError):
        ConvexSpec.interval(1.0, 0.5)
    # off-origin intervals construct fine; solving with one is refused
    # until it has been recentered, which is covered in the solver tests
    assert ConvexSpec.interval(0.5, 2.0).kind == "interval"
    with pytest.raises(DomainError):
        ConvexSpec.quadratic(0.0)
    with pytest.raises(NonFiniteInput):
        envelope(QUAD1, 0.1, np.nan)
    with pytest.raises(DomainError):
        envelope(QUAD1, -0.1, 1.0)


def test_gradient_breakpoints():
    assert gradient_breakpoints(ZERO, 0.1) == []
    assert gradient_breakpoints(QUAD1, 0.1) == []
    assert gradient_breakpoints(IND11, 0.1) == [-1.0, 1.0]
    assert gradient_breakpoints(ConvexSpec.interval(-np.inf, 0.0), 0.1) == [0.0]
    assert gradient_breakpoints(ABS, 0.2) == [-0.2, 0.2]
    # a recentered spec's kinks move by -(shift + eps tilt)
    assert gradient_breakpoints(QUAD_AT_1, 0.1) == []
    assert np.allclose(gradient_breakpoints(ABS_AT_HALF, 0.2), [-0.9, -0.5], rtol=0, atol=1e-15)
    assert np.allclose(gradient_breakpoints(WALL_TILTED, 0.25), [-2.0, -0.5], rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "spec,potential",
    [
        (QUAD1, quadratic_potential(1.0)),
        (ConvexSpec.quadratic(3.0), quadratic_potential(3.0)),
        (IND11, indicator_potential(-1, 1)),
        (ConvexSpec.interval(-0.5, 2.0), indicator_potential(-0.5, 2.0)),
        (ABS, abs_potential()),
        (QUAD_AT_1, lambda v: quadratic_potential(1.0)(v + 1.0) - v),
        (ABS_AT_HALF, lambda v: abs_potential()(v + 0.5) - v),
        (WALL_TILTED, lambda v: indicator_potential(-1.0, 0.5)(v + 0.5) - 2.0 * v),
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


# WALL_TILTED is left out: its domain [-1.5, 0] misses the samples of
# the domain-bound properties below
CLOSED_FORMS = [QUAD1, IND11, ABS, ZERO, ConvexSpec.interval(-np.inf, 0.0), QUAD_AT_1, ABS_AT_HALF]


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


def test_recenter_quadratic_example():
    data = RecenterData(u0=1.0, phi_subgradient=1.0, psi_subgradient=0.0)
    phi_hat, psi_hat = recenter(QUAD1, ZERO, data)
    y = np.linspace(-4, 4, 201)
    vals = potential_value(phi_hat, y)
    v0 = float(potential_value(phi_hat, np.asarray(0.0)))
    assert np.isclose(v0, 0.5, atol=1e-12)
    assert np.all(vals >= v0 - 1e-9)
    assert np.allclose(vals, 0.5 * (y + 1) ** 2 - y, atol=1e-12)
    assert psi_hat.kind == "zero"


def test_recenter_is_exact_and_refuses_a_second_recentering():
    assert (QUAD_AT_1.kind, QUAD_AT_1.shift, QUAD_AT_1.tilt) == ("quadratic", 1.0, 1.0)
    y = np.linspace(-4.0, 4.0, 201)
    for eps in (0.05, 0.5):
        # phi(y + 1) - y = y^2/2 + 1/2: shrink y / (1 + eps), envelope
        # y^2 / (2 (1 + eps)) + 1/2
        assert np.allclose(resolvent(QUAD_AT_1, eps, y), y / (1.0 + eps), rtol=0, atol=1e-14)
        assert np.allclose(envelope(QUAD_AT_1, eps, y), 0.5 * y * y / (1.0 + eps) + 0.5, rtol=0, atol=1e-13)
        # 0 minimizes a recentered potential
        for spec in (QUAD_AT_1, ABS_AT_HALF, WALL_TILTED):
            assert abs(float(yosida_gradient(spec, eps, 0.0))) <= 1e-15
    with pytest.raises(DomainError, match="already recentered"):
        recenter(QUAD_AT_1, ZERO, RecenterData(u0=0.5, phi_subgradient=0.0, psi_subgradient=0.0))


def test_recenter_interval_translation():
    data = RecenterData(u0=3.0, phi_subgradient=0.0, psi_subgradient=0.0)
    phi_hat, _ = recenter(ConvexSpec.interval(2.0, 4.0), ZERO, data)
    assert phi_hat.kind == "interval"
    assert (phi_hat.a, phi_hat.b) == (-1.0, 1.0)


def test_recenter_identity():
    data = RecenterData(u0=0.0, phi_subgradient=0.0, psi_subgradient=0.0)
    phi_hat, psi_hat = recenter(ZERO, ZERO, data)
    assert phi_hat is ZERO and psi_hat is ZERO


def test_recenter_rejects_bad_subgradient():
    # the subdifferential of quadratic(1) at 1 is {1}, to 1e-12 relative
    for sub in (5.0, 1.01, 1.0 + 4e-5, np.nan, np.inf):
        with pytest.raises(NotASubgradient):
            recenter(QUAD1, ZERO, RecenterData(u0=1.0, phi_subgradient=sub, psi_subgradient=0.0))
    with pytest.raises(NotASubgradient, match="outside the domain"):
        recenter(IND11, ZERO, RecenterData(u0=2.0, phi_subgradient=0.0, psi_subgradient=0.0))
    for spec, u0, sub in (
        (ZERO, 1.0, 1e-9),
        (ABS, 0.0, 1.0 + 1e-12),  # [-1, 1] at the kink
        (ABS, 0.0, -1.5),
        (ABS, 0.5, 1.0 - 1e-12),  # {sign u0} away from it
        (ABS, -0.5, 1.0),
        (IND11, 0.5, 0.1),  # {0} inside the interval
        (IND11, 1.0, -0.1),  # [0, inf) at b
        (IND11, -1.0, 0.1),  # (-inf, 0] at a
        (IND11, 1.0, np.inf),
    ):
        with pytest.raises(NotASubgradient):
            recenter(spec, ZERO, RecenterData(u0=u0, phi_subgradient=sub, psi_subgradient=0.0))


def test_recenter_accepts_the_whole_subdifferential():
    for spec, u0, sub in (
        (ZERO, 2.0, 0.0),
        (QUAD1, 1.0, 1.0 + 1e-13),
        (ConvexSpec.quadratic(3.0), -2.0, -6.0),
        (ABS, 0.0, -1.0),
        (ABS, 0.0, 0.25),
        (ABS, 0.0, 1.0),
        (ABS, -0.5, -1.0),
        (IND11, 0.5, 0.0),
        (IND11, 1.0, 0.0),
        (IND11, 1.0, 3.0),
        (IND11, -1.0, -3.0),
        (ConvexSpec.interval(-np.inf, 0.5), 0.5, 2.0),
    ):
        hat, _ = recenter(spec, ZERO, RecenterData(u0=u0, phi_subgradient=sub, psi_subgradient=0.0))
        # 0 minimizes the recentered potential: its Yosida gradient vanishes there
        assert abs(float(yosida_gradient(hat, 0.1, 0.0))) <= 1e-12 * max(1.0, abs(sub))


def _samples():
    y = np.linspace(-3, 3, 101)
    return dict(eps_list=[0.1, 0.5], t_samples=[0.0, 0.5], y_samples=y, z_samples=[0.0, 1.0])


def test_compatibility_equal_potentials_pass():
    report = compatibility_check(
        IND11, IND11, F=lambda t, y, z: -y, G=lambda t, y: 2 * y, **_samples()
    )
    assert isinstance(report, CompatibilityReport)
    assert report.passed


def test_compatibility_nested_intervals_pass():
    report = compatibility_check(
        IND11, ConvexSpec.interval(-2, 2),
        F=lambda t, y, z: 0.0 * y, G=lambda t, y: -y, **_samples()
    )
    assert report.passed


def test_compatibility_detects_violation():
    report = compatibility_check(
        IND11, ZERO,
        F=lambda t, y, z: 0.0 * y, G=lambda t, y: np.ones_like(y),
        eps_list=[0.1], t_samples=[0.0], y_samples=np.array([1.5]), z_samples=[0.0],
    )
    assert not report.passed
    assert report.worst_case["condition"] == "G_alignment"
    assert np.isclose(report.worst_margin, 5.0, atol=1e-12)
