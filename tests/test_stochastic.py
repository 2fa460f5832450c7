import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permitsim import TimeGrid, generate_noise
from permitsim.stochastic import (
    PathEnsemble,
    closing_martingale,
    coarsen_noise,
    left_integral,
    martingale_drift_stat,
    realized_qv,
)

from conftest import make_firms


# --- grid --------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(horizon=0.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(horizon=10.0, n_steps=0)
    with pytest.raises(ValueError):
        TimeGrid(horizon=-1.0, n_steps=10)


def test_grid_knots():
    grid = TimeGrid(horizon=10.0, n_steps=4)
    assert grid.dt == 2.5
    np.testing.assert_allclose(grid.knots, [0.0, 2.5, 5.0, 7.5, 10.0])
    assert grid.knots[-1] == 10.0


# --- noise generation ---------------------------------------------------------

def test_noise_shapes_and_linear_identity():
    firms = make_firms(4)
    grid = TimeGrid(horizon=10.0, n_steps=25)
    noise = generate_noise(123, grid, firms, n_paths=3)
    assert noise.d_tilde.shape == (3, 5, 25)
    assert noise.d_firm.shape == (3, 4, 25)
    # firm driver increments are an exact linear mix of the independent ones
    ks = np.array([f.k for f in firms])[:, None]
    mix = np.sqrt(1.0 - ks**2) * noise.d_tilde[:, 1:, :] + ks * noise.d_tilde[:, :1, :]
    np.testing.assert_array_equal(noise.d_firm, mix)


def test_integrated_paths_start_at_zero():
    firms = make_firms(3)
    grid = TimeGrid(horizon=5.0, n_steps=10)
    noise = generate_noise(7, grid, firms, n_paths=2)
    w = noise.firm_paths()
    assert w.shape == (2, 3, 11)
    assert np.all(w[:, :, 0] == 0.0)
    np.testing.assert_allclose(w[:, :, -1], noise.d_firm.sum(axis=-1), rtol=1e-12)


def test_weighted_mean_increment_variance():
    """Empirical variance of the aggregate driver increments matches the
    closed-form aggregate variance within Monte Carlo error."""
    firms = make_firms()
    grid = TimeGrid(horizon=10.0, n_steps=50)
    noise = generate_noise(31, grid, firms, n_paths=4000)
    sigmas = np.array([f.sigma for f in firms])
    dm = noise.weighted_mean_increments(sigmas)
    from permitsim import compute_aggregates

    var_expected = compute_aggregates(firms).sigma_sq * grid.dt
    var_emp = dm.var()
    assert var_emp == pytest.approx(var_expected, rel=0.05)


def test_weighted_mean_increments_are_computed_once_per_sigmas():
    firms = make_firms(3)
    noise = generate_noise(8, TimeGrid(horizon=5.0, n_steps=10), firms, n_paths=4)
    sigmas = [f.sigma for f in firms]
    first = noise.weighted_mean_increments(sigmas)
    assert noise.weighted_mean_increments(np.array(sigmas)) is first
    assert not first.flags.writeable
    w = np.array(sigmas)
    want = np.einsum("i,pik->pk", w, noise.d_firm) / len(firms)
    np.testing.assert_allclose(first, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    doubled = noise.weighted_mean_increments(2.0 * w)
    assert doubled is not first and noise.weighted_mean_increments(2.0 * w) is doubled
    np.testing.assert_array_equal(doubled, 2.0 * first)


def test_seed_determinism_and_chunk_independence():
    firms = make_firms(2)
    grid = TimeGrid(horizon=10.0, n_steps=8)
    a = generate_noise(42, grid, firms, n_paths=6)
    b = generate_noise(42, grid, firms, n_paths=6)
    np.testing.assert_array_equal(a.d_tilde, b.d_tilde)
    # generating the same paths in two chunks reproduces them byte for byte
    front = generate_noise(42, grid, firms, n_paths=2)
    back = generate_noise(42, grid, firms, n_paths=4, path_offset=2)
    np.testing.assert_array_equal(np.concatenate([front.d_tilde, back.d_tilde]), a.d_tilde)
    c = generate_noise(43, grid, firms, n_paths=6)
    assert not np.array_equal(a.d_tilde, c.d_tilde)


@pytest.mark.parametrize("seed", [0, 2020, 2**32 + 5, 2**64 + 3, 2**128 + 9])
@pytest.mark.parametrize("path_offset", [0, 2**32 - 1, 2**64 - 1])
def test_noise_stream_is_numpys_seed_sequence_per_path(seed, path_offset):
    """Path i's increments are sqrt(dt) * default_rng(SeedSequence(seed,
    spawn_key=(i,))).standard_normal((N+1, M)), bit for bit.  The blocks at
    2**32 - 1 and 2**64 - 1 straddle spawn keys of one and two words and of
    two and three words; the seeds span one to five words."""
    firms = make_firms(3)
    grid = TimeGrid(horizon=10.0, n_steps=7)
    noise = generate_noise(seed, grid, firms, n_paths=3, path_offset=path_offset)
    for p in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(path_offset + p,)))
        expected = math.sqrt(grid.dt) * rng.standard_normal((4, 7))
        assert noise.d_tilde[p].tobytes() == expected.tobytes()


def test_negative_seed_or_path_index_is_rejected():
    firms = make_firms(2)
    grid = TimeGrid(horizon=1.0, n_steps=3)
    with pytest.raises(ValueError):
        generate_noise(-1, grid, firms, n_paths=2)
    with pytest.raises(ValueError):
        generate_noise(1, grid, firms, n_paths=2, path_offset=-1)


def test_path_ensemble_chunks_and_single_path():
    firms = make_firms(2)
    grid = TimeGrid(horizon=10.0, n_steps=8)
    ens = PathEnsemble(seed=5, grid=grid, firms=firms, n_paths=10, chunk_size=4)
    sizes = []
    collected = []
    for chunk in ens.chunks():
        sizes.append(chunk.d_tilde.shape[0])
        collected.append(chunk.d_tilde)
    assert sizes == [4, 4, 2]
    whole = generate_noise(5, grid, firms, n_paths=10)
    np.testing.assert_array_equal(np.concatenate(collected), whole.d_tilde)
    one = ens.path(7)
    np.testing.assert_array_equal(one.d_tilde[0], whole.d_tilde[7])
    with pytest.raises(IndexError):
        ens.path(10)


def test_coarsen_noise_aggregates_increments():
    firms = make_firms(2)
    grid = TimeGrid(horizon=10.0, n_steps=12)
    noise = generate_noise(11, grid, firms, n_paths=3)
    coarse = coarsen_noise(noise, 3)
    assert coarse.grid.n_steps == 4
    assert coarse.grid.horizon == 10.0
    np.testing.assert_allclose(
        coarse.d_tilde,
        noise.d_tilde.reshape(3, 3, 4, 3).sum(axis=-1),
        rtol=1e-12,
    )
    # terminal value of the integrated paths is refinement invariant
    np.testing.assert_allclose(
        coarse.firm_paths()[:, :, -1], noise.firm_paths()[:, :, -1], rtol=1e-12
    )
    with pytest.raises(ValueError):
        coarsen_noise(noise, 5)


# --- quadrature helpers --------------------------------------------------------

def test_left_integral_hand_check():
    grid = TimeGrid(horizon=2.0, n_steps=2)
    vals = np.array([[1.0, 3.0, 100.0]])  # terminal value must not contribute
    out = left_integral(vals, grid)
    np.testing.assert_allclose(out, [[0.0, 1.0, 4.0]])


def test_left_integral_constant():
    grid = TimeGrid(horizon=10.0, n_steps=40)
    vals = np.full((2, 41), 3.0)
    out = left_integral(vals, grid)
    np.testing.assert_allclose(out[:, -1], 30.0, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**31 - 1))
def test_closing_martingale_increment_identity(n_steps, seed):
    """dM_k = (T - t_{k+1}) dalpha_k exactly, where M_t = int_0^t alpha ds
    + (T - t) alpha_t."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(horizon=7.0, n_steps=n_steps)
    alpha = rng.normal(size=(2, n_steps + 1)).cumsum(axis=-1)
    m = closing_martingale(alpha, grid)
    t = grid.knots
    expected_inc = (grid.horizon - t[1:]) * np.diff(alpha, axis=-1)
    np.testing.assert_allclose(np.diff(m, axis=-1), expected_inc, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(m[:, 0], grid.horizon * alpha[:, 0], rtol=1e-12)
    # at the deadline the closing value is the plain time integral
    np.testing.assert_allclose(m[:, -1], left_integral(alpha, grid)[:, -1], rtol=1e-9, atol=1e-12)


# --- martingale drift diagnostic ------------------------------------------------

def _brownian(n_paths, n_steps, seed, drift=0.0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(horizon=10.0, n_steps=n_steps)
    dw = rng.normal(scale=np.sqrt(grid.dt), size=(n_paths, n_steps))
    w = np.concatenate([np.zeros((n_paths, 1)), dw.cumsum(axis=-1)], axis=-1)
    return w + drift * grid.knots


def test_drift_stat_accepts_brownian_motion():
    diag = martingale_drift_stat(_brownian(2000, 50, seed=3))
    assert diag.passed()
    assert diag.n_paths == 2000
    assert diag.degenerate[0]  # all paths share the starting value
    assert not diag.degenerate[1:].any()


def test_drift_stat_flags_linear_drift():
    diag = martingale_drift_stat(_brownian(2000, 50, seed=3, drift=0.2))
    assert not diag.passed()
    assert diag.max_abs_z > 4.0


def test_drift_stat_degenerate_constant():
    paths = np.full((100, 21), 2.5)
    diag = martingale_drift_stat(paths)
    assert diag.degenerate.all()
    assert diag.passed()


def test_drift_stat_requires_multiple_paths():
    with pytest.raises(ValueError):
        martingale_drift_stat(np.zeros(11))
    with pytest.raises(ValueError):
        martingale_drift_stat(np.zeros((1, 11)))


def test_realized_qv_hand_check():
    path = np.array([0.0, 1.0, -1.0, 2.0])
    qv = realized_qv(path)
    np.testing.assert_allclose(qv, [0.0, 1.0, 5.0, 14.0])
    two = realized_qv(np.stack([path, 2 * path]))
    np.testing.assert_allclose(two[1], 4 * qv)
