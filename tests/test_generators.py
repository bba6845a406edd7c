import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bsvilab.errors import ConfigError, DomainError, NonFiniteGenerator
from bsvilab.generators import (
    GeneratorSpec,
    combined_driver,
    compile_expression,
    validate_generator,
)

ZERO_GEN = GeneratorSpec.from_expressions("0", "0")


def test_combined_driver_frozen_values():
    gen = GeneratorSpec.from_expressions("-y", "2*y", mu=0.0, nu=2.0)
    assert combined_driver(gen, 0.5, 0.0, 1.0, 0.0) == 0.5
    assert combined_driver(gen, 1.0, 0.3, 2.0, 7.0) == -2.0
    assert combined_driver(ZERO_GEN, 0.7, 0.1, 3.0, -4.0) == 0.0


def test_compiled_drivers_record_the_variables_they_read():
    assert compile_expression("0").reads == frozenset()
    assert compile_expression("1 - 2 * t").reads == {"t"}
    # min and max are calls, not variables
    assert compile_expression("max(y, 0) - min(z, 1)").reads == {"y", "z"}
    assert compile_expression("y", ("t", "y")).reads == {"y"}
    assert not GeneratorSpec.from_expressions("2", "0").reads_state
    assert not GeneratorSpec.from_expressions("1 - 2 * t", "0.5 * t").reads_state
    assert GeneratorSpec.from_expressions("2", "-y").reads_state
    assert GeneratorSpec.from_expressions("min(z, 1)", "0").reads_state
    # a callable without the record counts as reading y and z
    assert GeneratorSpec(F=lambda t, y, z: 1.0, G=compile_expression("0", ("t", "y"))).reads_state


def test_combined_driver_vectorizes_over_y():
    gen = GeneratorSpec.from_expressions("-y", "2*y")
    y = np.array([-1.0, 0.0, 2.0])
    out = combined_driver(gen, 0.5, 0.0, y, np.zeros(3))
    assert np.array_equal(out, 0.5 * (-y) + 0.5 * (2 * y))
    # constant drivers still give a fresh writable array of y's shape,
    # because the sweep assigns into H rows
    const = GeneratorSpec.from_expressions("1", "0")
    out = combined_driver(const, 0.25, 0.0, y, np.zeros(3))
    assert out.shape == y.shape and out.dtype == float and out.flags.writeable
    out[0] = 7.0
    assert np.array_equal(combined_driver(const, 0.25, 0.0, y, np.zeros(3)), np.full(3, 0.25))


def _window(paths, w, low, high):
    return hnp.arrays(float, (paths, w), elements=st.floats(low, high))


@st.composite
def _window_case(draw, low=-50.0, high=50.0):
    """(alpha, t, y, z): w steps of alpha in [0, 1] and t, and (paths, w) y and z."""
    paths, w = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    alpha = draw(hnp.arrays(float, w, elements=st.floats(0.0, 1.0)))
    t = draw(hnp.arrays(float, w, elements=st.floats(0.0, 10.0)))
    return alpha, t, draw(_window(paths, w, low, high)), draw(_window(paths, w, low, high))


@settings(max_examples=80, deadline=None)
@given(case=_window_case())
def test_combined_driver_over_a_window_equals_its_steps(case):
    alpha, t, y, z = case
    gen = GeneratorSpec.from_expressions("t*y - min(z, 1)", "0.5*t - y", mu=0.0, nu=0.0, ell=1.0)
    got = combined_driver(gen, alpha, t, y, z)
    steps = [combined_driver(gen, alpha[j], t[j], y[:, j], z[:, j]) for j in range(t.size)]
    assert got.shape == y.shape and got.tobytes() == np.stack(steps, axis=1).tobytes()


# expressions of the driver grammar over t, y and z, parenthesized
_EXPRESSIONS = st.recursive(
    st.one_of(
        st.sampled_from(["t", "y", "z"]),
        st.floats(-4.0, 4.0).map(repr),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda x: f"({x[0]} {x[1]} {x[2]})"),
        inner.map(lambda e: f"-({e})"),
        st.tuples(st.sampled_from(["min", "max"]), inner, inner).map(lambda x: f"{x[0]}({x[1]}, {x[2]})"),
    ),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None)
@given(text=_EXPRESSIONS, case=_window_case(-10.0, 10.0))
def test_grammar_drivers_are_elementwise_in_time(text, case):
    # the contract every driver keeps (GeneratorSpec): column j of a call
    # on a window is the call at the column's own time, bit for bit
    _, t, y, z = case
    f = compile_expression(text)
    whole = np.broadcast_to(f(t, y, z), y.shape)
    for j in range(t.size):
        column = np.broadcast_to(f(t[j], y[:, j], z[:, j]), y[:, j].shape)
        assert whole[:, j].tobytes() == column.tobytes(), (text, j)


def test_expression_grammar_accepts_documented_forms():
    fn = compile_expression("min(-y, 1) + 0.2*z")
    assert fn(0.0, -3.0, 5.0) == 1.0 + 1.0
    assert fn(0.0, 2.0, 0.0) == -2.0
    assert compile_expression("max(-y, -1.5)")(0.0, 9.0, 0.0) == -1.5
    assert compile_expression("+y")(0.0, 4.0, 0.0) == 4.0
    assert compile_expression("t - y*z")(2.0, 3.0, 4.0) == -10.0
    out = compile_expression("-y")(0.0, np.array([1.0, -2.0]), 0.0)
    assert np.array_equal(out, np.array([-1.0, 2.0]))


def test_expression_grammar_names_the_offending_construct():
    with pytest.raises(ConfigError, match="Div"):
        compile_expression("y/2")
    with pytest.raises(ConfigError, match="Pow"):
        compile_expression("y**2")
    with pytest.raises(ConfigError, match="min/max"):
        compile_expression("sin(y)")
    with pytest.raises(ConfigError, match="unknown variable"):
        compile_expression("w + 1")
    with pytest.raises(ConfigError, match="empty"):
        compile_expression("   ")
    with pytest.raises(ConfigError, match="cannot parse"):
        compile_expression("y +")
    with pytest.raises(ConfigError, match="IfExp"):
        compile_expression("1.0 if y else 0.0")
    with pytest.raises(ConfigError, match="not a number"):
        compile_expression("True")


def test_validate_generator_checks_declared_coefficients():
    validate_generator(GeneratorSpec.from_expressions("-y", "0", mu=0.0))
    validate_generator(GeneratorSpec.from_expressions("y", "0", mu=1.0))
    with pytest.raises(DomainError, match="mu"):
        validate_generator(GeneratorSpec.from_expressions("y", "0", mu=0.0))
    with pytest.raises(DomainError, match="nu"):
        validate_generator(GeneratorSpec.from_expressions("0", "y", nu=0.0))
    with pytest.raises(DomainError, match="ell|Lipschitz"):
        validate_generator(GeneratorSpec.from_expressions("z", "0", ell=0.0))


def test_generator_spec_refuses_non_finite_coefficients():
    # checked at construction, so a spec built directly is checked too
    zero_f, zero_g = (lambda t, y, z: 0.0), (lambda t, y: 0.0)
    for name in ("mu", "nu", "ell"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match=f"{name} must be finite, got {value}"):
                GeneratorSpec(F=zero_f, G=zero_g, **{name: value})
            with pytest.raises(DomainError, match=f"{name} must be finite, got {value}"):
                GeneratorSpec.from_expressions("0", "0", **{name: value})
    gen = GeneratorSpec(F=zero_f, G=zero_g, mu=np.float64(-1.0), ell=2)
    assert (gen.mu, gen.nu, gen.ell) == (-1.0, 0.0, 2.0)
    assert all(type(v) is float for v in (gen.mu, gen.nu, gen.ell))


def test_non_finite_driver_is_reported():
    bad = GeneratorSpec(
        F=lambda t, y, z: np.where(np.asarray(y) > 0.0, np.inf, 0.0),
        G=lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
    )
    with pytest.raises(NonFiniteGenerator):
        combined_driver(bad, 1.0, 0.0, np.array([1.0]), np.array([0.0]))
    # H is checked once, after mixing: a bad driver at weight 0 still shows
    y, z = np.array([1.0, -1.0]), np.zeros(2)
    for value in (np.inf, -np.inf, np.nan):
        blow_up = GeneratorSpec(
            F=lambda t, y, z, v=value: np.full(np.shape(y), v), G=lambda t, y, v=value: v
        )
        with pytest.raises(NonFiniteGenerator):
            combined_driver(GeneratorSpec(F=bad.F, G=blow_up.G), 1.0, 0.0, -y, z)
        with pytest.raises(NonFiniteGenerator):
            combined_driver(GeneratorSpec(F=blow_up.F, G=bad.G), 0.0, 0.0, y, z)
