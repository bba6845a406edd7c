import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsvilab import paths as pathsmod
from bsvilab import rng as rngmod
from bsvilab.errors import ConfigError, DomainError, GridMismatch, ZeroStep
from bsvilab.generators import GeneratorSpec
from bsvilab.paths import (
    DEFAULT_TREE_EVAL_PATHS,
    LOG_MAX,
    SPLIT,
    IncreasingProcessSpec,
    NoiseModel,
    TimeGrid,
    accumulate_weights,
    binomial_weights,
    build_paths,
    gamma_shift,
)
from bsvilab.solver import SolverConfig
from oracles import pascal_rows_oracle

ZERO_A = IncreasingProcessSpec.zero()


def _weights(bundle, mu=0.0, nu=0.0, ell=0.0, p=2.0):
    gen = GeneratorSpec.from_expressions("0", "0", mu=mu, nu=nu, ell=ell)
    return accumulate_weights(bundle, gen, SolverConfig(p=p))


def test_gamma_shift_values():
    assert gamma_shift(0.3, 2.0) == 0.0
    assert gamma_shift(0.3, 1.5) == 0.3
    assert gamma_shift(1.0, 1.0) == 1.0
    for delta, q in ((0.0, 1.5), (1.2, 1.5), (0.3, 0.9), (0.3, 2.1)):
        with pytest.raises(DomainError):
            gamma_shift(delta, q)


def test_zero_a_clock_is_identity():
    grid = TimeGrid.uniform(1.0, 4)
    b = build_paths(grid, NoiseModel.binomial_tree(), ZERO_A)
    assert np.array_equal(b.alpha, np.ones(4))
    assert np.array_equal(b.Q, grid.nodes)
    assert np.array_equal(b.A, np.zeros(5))


def test_linear_a_clock_splits_evenly():
    grid = TimeGrid.uniform(1.0, 4)
    b = build_paths(grid, NoiseModel.binomial_tree(), IncreasingProcessSpec.linear(1.0))
    assert np.allclose(b.alpha, 0.5, rtol=0, atol=1e-15)
    assert np.allclose(b.Q, 2.0 * grid.nodes, rtol=0, atol=1e-15)

    grid2 = TimeGrid.uniform(1.0, 2)
    b2 = build_paths(grid2, NoiseModel.binomial_tree(), IncreasingProcessSpec.linear(3.0))
    assert np.allclose(b2.alpha, 0.25, rtol=0, atol=1e-15)
    assert np.allclose(b2.dq, 4.0 * grid2.dt, rtol=0, atol=1e-15)


def test_ramp_a_kicks_in_mid_horizon():
    grid = TimeGrid.uniform(1.0, 4)
    b = build_paths(grid, NoiseModel.deterministic(), IncreasingProcessSpec.ramp(0.5, 2.0))
    assert np.allclose(b.A, [0.0, 0.0, 0.0, 0.5, 1.0], rtol=0, atol=1e-15)
    assert np.allclose(b.alpha, [1.0, 1.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert b.A[0] == 0.0
    assert np.all(np.diff(b.A) >= 0.0)


def test_weight_accumulation_frozen_values():
    grid = TimeGrid.uniform(1.0, 10)
    b = build_paths(grid, NoiseModel.deterministic(), ZERO_A)

    w = _weights(b, mu=0.1, nu=0.2, ell=0.3)
    assert np.allclose(w.V, 0.19 * grid.nodes, rtol=0, atol=1e-15)
    # n_p = min(1, p - 1) = 1/2 at p = 1.5 doubles the ell^2 term
    h = _weights(b, mu=0.1, ell=0.3, p=1.5)
    assert np.allclose(h.V, 0.28 * grid.nodes, rtol=0, atol=1e-15)

    z = _weights(b)
    assert np.array_equal(z.V, np.zeros(11))
    assert np.array_equal(z.Vplus, np.zeros(11))

    m = _weights(b, mu=-1.0)
    assert m.V[-1] == -1.0
    assert m.Vplus[-1] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(min_value=-3.0, max_value=3.0),
    nu=st.floats(min_value=-3.0, max_value=3.0),
    ell=st.floats(min_value=0.0, max_value=1.0),
    p=st.floats(min_value=1.25, max_value=4.0),
    rate=st.floats(min_value=0.0, max_value=4.0),
)
def test_weight_order_and_exp_bound(mu, nu, ell, p, rate):
    grid = TimeGrid.uniform(1.0, 16)
    b = build_paths(grid, NoiseModel.deterministic(), IncreasingProcessSpec.linear(rate))
    w = _weights(b, mu=mu, nu=nu, ell=ell, p=p)
    assert w.V[0] == 0.0 and w.Vplus[0] == 0.0
    assert np.all(w.V <= w.Vplus + 1e-12)
    assert np.all(np.diff(w.Vplus) >= -1e-12)
    # the run-time monitor: the largest exponential weight is finite and
    # dominated by the terminal positive-part weight
    max_exp = np.max(np.exp(p * w.V))
    cap = np.exp(p * w.Vplus[-1])
    assert np.isfinite(cap)
    assert max_exp <= cap * (1.0 + 1e-12)
    drift = mu + ell * ell / (2.0 * min(1.0, p - 1.0) * SPLIT)
    if drift >= 0.0 and nu >= 0.0:
        assert np.isclose(max_exp, cap, rtol=1e-12)


def test_tree_quadratic_variation_exact():
    grid = TimeGrid.uniform(1.0, 4)  # dt = 0.25 is a perfect square
    b = build_paths(grid, NoiseModel.binomial_tree(), ZERO_A)
    db = b.increments(0, 4)
    assert np.array_equal(db**2, np.broadcast_to(grid.dt, db.shape))
    assert np.array_equal(np.sum(db**2, axis=1), np.full(b.n_paths, 1.0))

    b9 = build_paths(TimeGrid.uniform(1.0, 9), NoiseModel.binomial_tree(), ZERO_A)
    assert np.allclose(np.sum(b9.increments(0, 9) ** 2, axis=1), 1.0, rtol=0, atol=1e-12)


def test_tree_enumeration_and_lattice_maps():
    b = build_paths(TimeGrid.uniform(1.0, 5), NoiseModel.binomial_tree(), ZERO_A)
    assert b.n_paths == 32
    assert np.unique(b.increments(0, 5), axis=0).shape[0] == 32
    # level i fills the cells [i (i + 1) / 2, (i + 1) (i + 2) / 2)
    assert np.array_equal(b.offsets, np.arange(7) * np.arange(1, 8) // 2)
    # a walk's node is its cell less its level's offset: 0 at the root,
    # then up by 0 or 1 per step
    node = b.cells - b.offsets[:-1]
    assert node[:, 0].max() == 0
    steps = np.diff(node, axis=1)
    assert set(np.unique(steps)) <= {0, 1}
    walked = b.on_paths(b.cell_values)
    assert np.allclose(walked, b.driver_paths(), rtol=0, atol=1e-12)


def test_binomial_weights_follow_pascal_level_by_level():
    rows = pascal_rows_oracle(300)
    # spans of 1, 5, 16 (and a last 12) and 300 levels, each from the
    # row the span before it handed on
    for widths in ([1] * 300, [5] * 60, [16] * 18 + [12], [300]):
        row, got = np.ones(1), []
        for width in widths:
            w, row = binomial_weights(row, width)
            got.append(w)
        assert np.concatenate(got).tobytes() == np.concatenate(rows[:300]).tobytes()
        assert row.tobytes() == rows[300].tobytes()
    for i in (0, 1, 7, 64, 255, 300):
        exact = np.array([math.comb(i, k) for k in range(i + 1)], dtype=float) / 2.0**i
        np.testing.assert_allclose(rows[i], exact, rtol=1e-13, atol=0.0)
        assert abs(math.fsum(rows[i]) - 1.0) <= 1e-13


def test_on_paths_gathers_each_level_along_the_walks():
    b = build_paths(TimeGrid.uniform(1.0, 20), NoiseModel.binomial_tree(seed=3, eval_paths=64), ZERO_A)
    rng = np.random.default_rng(2)
    values = [rng.standard_normal(i + 1) for i in range(21)]
    # a walk's node at level i is its count of up moves before i
    ups = np.cumsum(b.increments(0, 20) > 0, axis=1)
    node = np.concatenate([np.zeros((64, 1), dtype=np.int64), ups], axis=1)
    # Y levels, Z/U/H levels, one level, a window inside the grid
    for start, stop in ((0, 21), (0, 20), (0, 1), (7, 13)):
        want = np.stack([values[i][node[:, i]] for i in range(start, stop)], axis=1)
        got = b.on_paths(np.concatenate(values[start:stop]), start, stop)
        assert got.shape == (64, stop - start) and got.tobytes() == want.tobytes()
    whole = np.concatenate(values)
    assert b.on_paths(whole).tobytes() == b.on_paths(whole, 0, 21).tobytes()
    # values that do not fill the levels: one cell short, or level 1 for level 0
    with pytest.raises(GridMismatch):
        b.on_paths(whole[:-1])
    with pytest.raises(GridMismatch):
        b.on_paths(np.concatenate([values[1]] + values[1:]))


def test_tree_sampling_beyond_enumeration_limit():
    b = build_paths(TimeGrid.uniform(1.0, 13), NoiseModel.binomial_tree(seed=7), ZERO_A)
    assert b.n_paths == DEFAULT_TREE_EVAL_PATHS
    small = build_paths(
        TimeGrid.uniform(1.0, 5), NoiseModel.binomial_tree(seed=7, eval_paths=8), ZERO_A
    )
    assert small.n_paths == 8


# sampled trees: seeds 1-3, eval_paths 1, 3 and 1024, 255 and 256 steps
# (an odd count leaves a half word); and two enumerated trees
TREE_LAYOUTS = [
    (seed, paths, steps) for seed in (1, 2, 3) for paths in (1, 3, 1024) for steps in (255, 256)
] + [(0, None, 5), (0, None, 12)]


@pytest.mark.parametrize("seed, paths, steps", TREE_LAYOUTS)
def test_tree_paths_read_as_the_float_increments_and_int64_cells(seed, paths, steps):
    grid = TimeGrid.uniform(1.0, steps)
    b = build_paths(grid, NoiseModel.binomial_tree(seed=seed, eval_paths=paths), ZERO_A)
    if paths is None:
        ups = (np.arange(2**steps)[:, None] >> np.arange(steps)) & 1
    else:
        ups = np.stack([rngmod.path_stream(seed, p).integers(0, 2, steps) for p in range(paths)])
    # the float and int64 arrays a tree bundle once stored
    dB = (2.0 * ups - 1.0) * float(np.sqrt(grid.dt[0]))
    walks = np.concatenate([np.zeros((len(ups), 1), dtype=np.int64), np.cumsum(ups, axis=1)], axis=1)
    cells = walks + b.offsets[:-1]
    # one int8 per path and step, one int32 per path and node
    assert b.dB is None and b.signs.dtype == np.int8 and b.cells.dtype == np.int32
    for x in vars(b).values():
        assert not (isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype.itemsize > 4)
    for a, stop in b.windows() + [(steps, steps + 1), (0, steps + 1)]:
        e = min(stop, steps)
        assert b.increments(a, e).tobytes() == dB[:, a:e].tobytes()
        index = b.walk_index(a, stop)
        assert index.dtype == np.intp
        assert np.array_equal(index, cells[:, a:stop] - b.offsets[a])


def test_walk_cells_widen_only_where_int32_does_not_hold_the_layout():
    signs = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8)
    for last, dtype in ((2**31 - 1, np.int32), (2**31, np.int64)):
        cells = pathsmod._walk_cells(signs, np.array([0, 1, 3, 6, last]))
        assert cells.dtype == dtype
        assert cells.tolist() == [[0, 2, 4, 8], [0, 1, 4, 8]]


def test_build_paths_memory_is_bounded():
    # tree_barrier's bundle (256 steps, 1024 paths); tracemalloc counts
    # numpy's buffers, so the figures do not depend on the machine
    grid = TimeGrid.uniform(1.0, 256)
    noise = NoiseModel.binomial_tree(seed=2, eval_paths=1024)
    build_paths(grid, noise, ZERO_A)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        b = build_paths(grid, noise, ZERO_A)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.n_paths == 1024
    # held: int8 signs (0.26 MB), int32 cells (1.05 MB) and the lattice's
    # cell values (0.27 MB), 1.60e6 bytes; peak 2.16e6 bytes, gated 10%
    # above it (3.18e6 while a cumsum into the strided cells[:, 1:] was
    # buffered).  A float64 dB or an int64 (paths, nodes) array takes
    # 2.1 MB each; the bundle that stored both read 4.48e6 and 9.28e6 bytes
    assert held - start <= 1.8e6
    assert peak - start <= 2.38e6


def test_mc_increment_mean_gate():
    grid = TimeGrid.uniform(1.0, 8)
    b = build_paths(grid, NoiseModel.gaussian_mc(4000, seed=3), ZERO_A)
    gate = 5.0 * np.sqrt(grid.dt / 4000)
    assert np.all(np.abs(b.increments(0, 8).mean(axis=0)) <= gate)
    again = build_paths(grid, NoiseModel.gaussian_mc(4000, seed=3), ZERO_A)
    assert np.array_equal(b.increments(0, 8), again.increments(0, 8))
    other = build_paths(grid, NoiseModel.gaussian_mc(4000, seed=4), ZERO_A)
    assert not np.array_equal(b.increments(0, 8), other.increments(0, 8))


@settings(max_examples=40, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=5.0),
    start=st.floats(min_value=0.0, max_value=0.9),
    steps=st.integers(min_value=1, max_value=40),
)
# diff(t + A) rounds below dt here, which made alpha = 1 + 6.7e-16
@example(rate=2.220446049250313e-16, start=0.5, steps=5)
def test_clock_consistency(rate, start, steps):
    grid = TimeGrid.uniform(1.0, steps)
    b = build_paths(grid, NoiseModel.deterministic(), IncreasingProcessSpec.ramp(start, rate))
    assert np.all(b.alpha > 0.0) and np.all(b.alpha <= 1.0)
    assert np.isclose(np.sum(b.alpha * b.dq), 1.0, rtol=0, atol=1e-12)
    assert np.isclose(np.sum((1.0 - b.alpha) * b.dq), b.A[-1], rtol=0, atol=1e-12)
    assert np.array_equal(b.dq, b.dt + np.diff(b.A))
    assert np.array_equal(b.alpha, b.dt / b.dq)


def test_grid_and_spec_validation():
    with pytest.raises(ZeroStep):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ConfigError):
        TimeGrid(np.array([0.1, 1.0]))
    with pytest.raises(ConfigError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ConfigError):
        TimeGrid(np.array([0.0, np.inf]))
    with pytest.raises(ConfigError):
        TimeGrid.uniform(0.0, 4)
    with pytest.raises(ConfigError):
        TimeGrid.uniform(1.0, 0)
    with pytest.raises(ConfigError):
        NoiseModel.gaussian_mc(0)
    with pytest.raises(DomainError):
        IncreasingProcessSpec.linear(-1.0)
    with pytest.raises(DomainError):
        IncreasingProcessSpec.ramp(-0.1, 1.0)
    # a JSON config can carry NaN and Infinity
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="a_process: rate"):
            IncreasingProcessSpec.linear(bad)
        with pytest.raises(DomainError, match="a_process: rate"):
            IncreasingProcessSpec.ramp(0.5, bad)
        with pytest.raises(DomainError, match="a_process: start"):
            IncreasingProcessSpec.ramp(bad, 1.0)
        with pytest.raises(DomainError, match="a_process: rate"):
            IncreasingProcessSpec(kind="linear", rate=bad)
    with pytest.raises(ConfigError, match="a_process: unknown kind"):
        IncreasingProcessSpec(kind="step")


def test_tree_requires_uniform_grid():
    grid = TimeGrid(np.array([0.0, 0.1, 0.5, 1.0]))
    with pytest.raises(ConfigError):
        build_paths(grid, NoiseModel.binomial_tree(), ZERO_A)


def test_deterministic_bundle_is_single_frozen_path():
    b = build_paths(TimeGrid.uniform(1.0, 6), NoiseModel.deterministic(), ZERO_A)
    assert b.n_paths == 1
    assert np.array_equal(b.increments(0, 6), np.zeros((1, 6)))
    assert np.array_equal(b.driver_paths(), np.zeros((1, 7)))
    assert np.array_equal(b.offsets, np.arange(8))
    assert np.array_equal(b.on_paths(b.cell_values), np.zeros((1, 7)))


def test_on_paths_needs_a_lattice():
    b = build_paths(TimeGrid.uniform(1.0, 4), NoiseModel.gaussian_mc(16, seed=1), ZERO_A)
    with pytest.raises(ConfigError):
        b.on_paths(np.zeros(5))


def test_accumulate_weights_validation():
    # every weight is at most e^{max(p, 2) Vplus_N}; where that overflows,
    # the weights are refused before any exponential is taken
    clock = IncreasingProcessSpec.linear(1.0)
    b = build_paths(TimeGrid.uniform(1.0, 4), NoiseModel.deterministic(), clock)
    edge = _weights(b, mu=LOG_MAX / 2.0)
    assert np.isfinite(np.exp(2.0 * edge.Vplus[-1]))
    for coefficients in (
        {"mu": 1000.0},
        {"mu": LOG_MAX / 2.0, "p": 2.5},
        {"nu": 355.0},
        {"mu": 1e308, "nu": 1e308},
        {"ell": 1e200},
        {"ell": 1.0, "p": 1.0 + 1e-15},
    ):
        with pytest.raises(ConfigError, match=r"generator: the weights overflow.*solver\.p"):
            _weights(b, **coefficients)


def test_rng_stream_derivation_rule():
    grid = TimeGrid.uniform(1.0, 5)
    dB = rngmod.gaussian_increments(seed=11, n_paths=3, dt=grid.dt)
    for p in range(3):
        expect = rngmod.keyed_stream(11, rngmod.PATH_NS + p).standard_normal(5)
        assert np.array_equal(dB[p], expect * np.sqrt(grid.dt))
    # namespaces separate roles sharing an index
    a = rngmod.path_stream(11, 2).standard_normal(4)
    c = rngmod.keyed_stream(11, rngmod.AUX_NS + 2).standard_normal(4)
    assert not np.array_equal(a, c)
    # the key wraps at 64 bits by construction
    w1 = rngmod.keyed_stream(5, 0).standard_normal(4)
    w2 = rngmod.keyed_stream(5 + 2**64, 0).standard_normal(4)
    assert np.array_equal(w1, w2)
    # sign draws use the half-word buffer; an odd count leaves it half full
    for steps in (1, 3, 64, 255):
        ups = rngmod.sign_paths(seed=11, n_paths=4, n_steps=steps)
        for p in range(4):
            expect = rngmod.path_stream(11, p).integers(0, 2, size=steps)
            assert np.array_equal(ups[p], expect)
        assert ups.dtype == np.int8


def test_sign_paths_are_fair_indicators():
    ups = rngmod.sign_paths(seed=2, n_paths=2000, n_steps=6)
    assert set(np.unique(ups)) <= {0, 1}
    assert np.all(np.abs(ups.mean(axis=0) - 0.5) <= 5.0 * np.sqrt(0.25 / 2000))
