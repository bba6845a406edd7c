import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsvilab.errors import ConfigError, DomainError, NonFiniteGenerator
from bsvilab.generators import (
    GeneratorSpec,
    MollifierConfig,
    combined_driver,
    compile_expression,
    local_sup_f,
    local_sup_g,
    mollify_driver,
    mollify_driver_g,
    project_to_ball,
    validate_generator,
)

from oracles import mollify_oracle

ZERO_GEN = GeneratorSpec.from_expressions("0", "0")

# 1-Lipschitz-in-y expressions used across the sampled mollifier bounds
VARIANTS = [
    ("-y", 0.0),
    ("0.5 - y", 0.0),
    ("-0.5*y", 0.0),
    ("max(-y, -1.5)", 0.0),
    ("min(-y, 1) + 0.2*z", 0.2),
]


def variant_gen(expr: str, ell: float) -> GeneratorSpec:
    return GeneratorSpec.from_expressions(expr, "0", mu=0.0, nu=0.0, ell=ell)


def test_combined_driver_frozen_values():
    gen = GeneratorSpec.from_expressions("-y", "2*y", mu=0.0, nu=2.0)
    assert combined_driver(gen, 0.5, 0.0, 1.0, 0.0) == 0.5
    assert combined_driver(gen, 1.0, 0.3, 2.0, 7.0) == -2.0
    assert combined_driver(ZERO_GEN, 0.7, 0.1, 3.0, -4.0) == 0.0
    for alpha in (1.5, -0.1, np.nan):
        with pytest.raises(DomainError):
            combined_driver(gen, alpha, 0.0, 1.0, 0.0)


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


def test_project_to_ball_values():
    assert project_to_ball(0.1, 5.0) == 5.0
    assert project_to_ball(0.1, 20.0) == 10.0
    assert project_to_ball(0.3, 0.0) == 0.0
    z = np.array([-20.0, -5.0, 0.0, 5.0, 20.0])
    out = project_to_ball(0.1, z)
    assert np.array_equal(out, np.array([-10.0, -5.0, 0.0, 5.0, 10.0]))
    with pytest.raises(DomainError):
        project_to_ball(0.0, 1.0)


def test_mollify_frozen_values():
    cfg = MollifierConfig(eps=0.2)
    assert mollify_driver(ZERO_GEN, cfg, 0.0, 1.0, 0.5) == 0.0

    const = GeneratorSpec.from_expressions("3", "0")
    assert np.isclose(mollify_driver(const, cfg, 0.0, 7.0, 2.0), 3.0, rtol=0, atol=1e-12)

    lin = GeneratorSpec.from_expressions("y", "0", mu=1.0)
    assert np.isclose(mollify_driver(lin, cfg, 0.0, 1.0, 0.0), 1.0, rtol=0, atol=1e-12)


def test_mollify_truncation_cuts_large_drivers():
    big = GeneratorSpec.from_expressions("30", "0")
    cfg = MollifierConfig(eps=0.1)
    assert mollify_driver(big, cfg, 0.0, 0.0, 0.0) == 0.0

    lin = GeneratorSpec.from_expressions("y", "0", mu=1.0)
    wide = MollifierConfig(eps=1.0)
    # every kernel node sees |F| = |3 - u| >= 2 > 1/eps, so all are cut
    assert mollify_driver(lin, wide, 0.0, 3.0, 0.0) == 0.0
    assert mollify_oracle(lin.F, 1.0, 0.0, 3.0, 0.0) == 0.0


def test_mollify_matches_high_resolution_oracle():
    cfg = MollifierConfig(eps=0.3)
    for expr, ell in VARIANTS:
        gen = variant_gen(expr, ell)
        for y in (-1.2, 0.0, 0.7):
            for z in (0.0, 2.0):
                ours = float(mollify_driver(gen, cfg, 0.1, y, z))
                ref = mollify_oracle(gen.F, 0.3, 0.1, y, z)
                assert np.isclose(ours, ref, rtol=0, atol=1e-4)


def test_mollify_g_matches_y_only_route():
    gen = GeneratorSpec.from_expressions("0", "max(-y, -1.5)", nu=0.0)
    cfg = MollifierConfig(eps=0.25)
    shadow = GeneratorSpec(F=lambda t, y, z: gen.G(t, y), G=gen.G)
    for y in (-2.0, -0.4, 1.1):
        assert np.isclose(
            float(mollify_driver_g(gen, cfg, 0.0, y)),
            float(mollify_driver(shadow, cfg, 0.0, y, 0.0)),
            rtol=0,
            atol=1e-12,
        )


def test_local_sup_values():
    neg = GeneratorSpec.from_expressions("-y", "-y")
    assert local_sup_f(neg, 2.0, 0.0) == 2.0
    assert local_sup_g(neg, 2.0, 0.0) == 2.0
    quad = GeneratorSpec.from_expressions("1 + y*y", "0", mu=100.0)
    assert np.isclose(local_sup_f(quad, 1.0, 0.0), 2.0, rtol=0, atol=1e-12)
    assert local_sup_f(ZERO_GEN, 5.0, 0.0) == 0.0
    assert local_sup_f(ZERO_GEN, 0.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        local_sup_f(neg, -1.0, 0.0)


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


def test_mollifier_config_invariants():
    cfg = MollifierConfig(eps=0.5)
    assert cfg.n_q == 401
    assert abs(float(np.sum(cfg.weights)) - 1.0) <= 1e-12
    assert cfg.nodes.min() > -1.0 and cfg.nodes.max() < 1.0
    assert np.allclose(cfg.nodes, -cfg.nodes[::-1], rtol=0, atol=1e-15)

    # independent high-resolution rendering of the kernel-gradient bound
    n = 10_000
    h = 2.0 / n
    u = -1.0 + (np.arange(n) + 0.5) * h
    raw = np.exp(-1.0 / (1.0 - u * u))
    c = 1.0 / float(np.sum(raw) * h)
    kappa_ref = float(np.max(np.abs(c * raw * (-2.0 * u) / (1.0 - u * u) ** 2)))
    assert np.isclose(cfg.kappa, kappa_ref, rtol=1e-3)

    for eps in (0.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            MollifierConfig(eps=eps)
    with pytest.raises(DomainError):
        MollifierConfig(eps=0.5, n_q=2)


@settings(max_examples=80, deadline=None)
@given(
    z=st.floats(min_value=-30.0, max_value=30.0),
    zh=st.floats(min_value=-30.0, max_value=30.0),
    eps=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
    delta=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
)
def test_truncation_map_bounds(z, zh, eps, delta):
    bz = float(project_to_ball(eps, z))
    assert abs(bz) <= min(abs(z), 1.0 / eps) + 1e-12
    bd = float(project_to_ball(delta, zh))
    slack = abs(zh) if (eps != delta and abs(zh) >= min(1.0 / eps, 1.0 / delta)) else 0.0
    assert abs(bz - bd) <= abs(z - zh) + slack + 1e-12


def test_mollified_driver_sampled_bounds():
    rng = np.random.default_rng(7)
    for expr, ell in VARIANTS:
        gen = variant_gen(expr, ell)
        for _ in range(40):
            eps = float(rng.uniform(0.2, 1.0))
            cfg = MollifierConfig(eps=eps)
            t = float(rng.uniform(0.0, 1.0))
            y = float(rng.uniform(-3.0, 3.0))
            z = float(rng.uniform(-5.0, 5.0))
            zh = float(rng.uniform(-5.0, 5.0))
            fe = float(mollify_driver(gen, cfg, t, y, z))

            # magnitude bound: kept nodes obey eps|F(.,0)| <= 1 and the
            # clipped z adds at most ell/eps
            assert abs(fe) <= (1.0 + gen.ell) / eps + 1e-9

            # z-Lipschitz survives mollification with the same constant
            fz = float(mollify_driver(gen, cfg, t, y, zh))
            assert abs(fe - fz) <= gen.ell * abs(z - zh) + 1e-9

            # y increments are controlled by the kernel-gradient bound
            yh = y + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.05, 2.0))
            fy = float(mollify_driver(gen, cfg, t, yh, z))
            assert abs(fe - fy) <= (cfg.kappa * (1.0 + gen.ell) / eps**2) * abs(
                y - yh
            ) + 1e-9

            # the value at the origin never exceeds the unit-ball sup
            f0 = float(mollify_driver(gen, cfg, t, 0.0, 0.0))
            assert abs(f0) <= local_sup_f(gen, 1.0, t) + 1e-9
