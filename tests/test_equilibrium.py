import numpy as np
import pytest

from permitsim import (
    AllocationView,
    ClearingError,
    TimeGrid,
    UnsupportedInputError,
    coarsen_noise,
    equilibrium_frictionless,
    equilibrium_frictions,
    feedback_price_frictionless,
    generate_noise,
    martingale_drift_stat,
)
from permitsim.equilibrium import CLEARING_TOL, _require_clearing, require_frictionless_clearing
from permitsim.params import f_coeff, pi_coeff
from permitsim.stochastic import NoisePaths

from conftest import make_firms, make_market


def half_loading_views(mkt, noise, m0=1e9):
    """Views carrying half of each firm's own shock: dM_i = 0.5 sigma_i dW_i.
    Realized is taken equal to the view so the terminal residual is zero."""
    w = noise.firm_paths()
    out = []
    for i, firm in enumerate(mkt.firms):
        m = m0 + 0.5 * firm.sigma * w[:, i, :]
        out.append(AllocationView(expected_total=m, realized=m))
    return out


def tracking_views(mkt, noise, m0=1e9):
    w = noise.firm_paths()
    out = []
    for i, firm in enumerate(mkt.firms):
        m = m0 + firm.sigma * w[:, i, :]
        out.append(AllocationView(expected_total=m, realized=m))
    return out


def constant_views(mkt, noise, m0):
    shape = (noise.n_paths, noise.grid.n_steps + 1)
    m = np.full(shape, float(m0))
    return [AllocationView(expected_total=m, realized=m) for _ in mkt.firms]


@pytest.fixture(scope="module")
def noise_block():
    firms = make_firms()
    return generate_noise(71, TimeGrid(horizon=10.0, n_steps=250), firms, n_paths=16)


# --- regime guards ---------------------------------------------------------------

def test_regime_mismatch_is_rejected(noise_block):
    firms = make_firms()
    frictionless = make_market(firms)
    frictional = make_market(firms, depth=1e6)
    views = constant_views(frictionless, noise_block, 1e9)
    with pytest.raises(UnsupportedInputError):
        equilibrium_frictions(frictionless, views, noise_block)
    with pytest.raises(UnsupportedInputError):
        equilibrium_frictionless(frictional, views, noise_block)


def test_view_count_and_shape_checked(noise_block):
    firms = make_firms()
    mkt = make_market(firms)
    views = constant_views(mkt, noise_block, 1e9)
    with pytest.raises(UnsupportedInputError):
        equilibrium_frictionless(mkt, views[:-1], noise_block)
    short = np.full((noise_block.n_paths, 11), 1e9)
    bad = [AllocationView(expected_total=short, realized=short)] + views[1:]
    with pytest.raises(UnsupportedInputError):
        equilibrium_frictionless(mkt, bad, noise_block)


def test_require_clearing_raises():
    with pytest.raises(ClearingError):
        _require_clearing(np.array([1.0]), 1.0, "unit-test")
    # below tolerance passes silently
    _require_clearing(np.array([1e-10]), 1.0, "unit-test")


def _gross_clearing_scale(mkt, grid, price, alloc_sum_abs_max):
    """sum_i (c_i(0) max|P| + eta_i h_i T) + max|sum_i M_i|, written out per firm."""
    lam = mkt.penalty
    return alloc_sum_abs_max + sum(
        (1.0 + 2.0 * lam * fp.eta * grid.horizon) / (2.0 * lam) * np.abs(price).max()
        + fp.eta * fp.h * grid.horizon
        for fp in mkt.firms
    )


@pytest.fixture(scope="module")
def clearing_case():
    mkt = make_market()
    grid = TimeGrid(horizon=10.0, n_steps=4)
    price = np.linspace(20.0, 30.0, 10).reshape(2, 5)
    alloc_sum_abs_max = 1.2e10
    return mkt, grid, price, alloc_sum_abs_max, _gross_clearing_scale(
        mkt, grid, price, alloc_sum_abs_max
    )


def test_summed_trades_that_clear_to_roundoff_pass(clearing_case):
    mkt, grid, price, alloc_max, gross = clearing_case
    signs = np.where(np.arange(10).reshape(2, 5) % 3, 1.0, -1.0)
    require_frictionless_clearing(mkt, grid, price, 1e-15 * gross * signs, alloc_max)


def test_summed_trades_off_by_twice_the_tolerance_raise(clearing_case):
    mkt, grid, price, alloc_max, gross = clearing_case
    trade_sum = np.zeros((2, 5))
    trade_sum[1, 3] = -2.0 * CLEARING_TOL * gross
    with pytest.raises(ClearingError, match="frictionless"):
        require_frictionless_clearing(mkt, grid, price, trade_sum, alloc_max)


def test_large_per_firm_trades_do_not_excuse_a_residual(clearing_case):
    """The residual is measured against the gross market terms alone, so
    per-firm trades far larger than those do not hide a residual of 100
    times the tolerance, although a scale of max(sum_i |B_i|, gross) would."""
    mkt, grid, price, alloc_max, gross = clearing_case
    n = mkt.n_firms
    per_firm = np.zeros((2, n, 5))
    per_firm[:, : n // 2] = 1e3 * gross
    per_firm[:, n // 2 :] = -1e3 * gross
    per_firm[:, 0, 2:] += 100.0 * CLEARING_TOL * gross
    trade_sum = per_firm.sum(axis=1)
    absorbing_scale = max(np.abs(per_firm).sum(axis=1).max(), gross)
    assert np.abs(trade_sum).max() / absorbing_scale <= CLEARING_TOL
    with pytest.raises(ClearingError, match="frictionless"):
        require_frictionless_clearing(mkt, grid, price, trade_sum, alloc_max)


@pytest.mark.parametrize("where", ["trade_sum", "price"])
def test_a_nan_fails_the_clearing_check(clearing_case, where):
    """max|x| is taken from a min and a max reduction; a NaN in either the
    summed trades or the price must still fail the check, although
    Python's max(a, nan) would drop it."""
    mkt, grid, price, alloc_max, _ = clearing_case
    trade_sum = np.zeros((2, 5))
    price = price.copy()
    {"trade_sum": trade_sum, "price": price}[where][1, 3] = np.nan
    with pytest.raises(ClearingError, match="frictionless"):
        require_frictionless_clearing(mkt, grid, price, trade_sum, alloc_max)


# --- degenerate scenarios ----------------------------------------------------------

def test_zero_volatility_gives_constant_price_and_abatement():
    firms = make_firms(sigma=0.0)
    grid = TimeGrid(horizon=10.0, n_steps=100)
    noise = generate_noise(3, grid, firms, n_paths=4)
    for mkt in (make_market(firms), make_market(firms, depth=1e6)):
        views = constant_views(mkt, noise, 2e9)
        eq = (
            equilibrium_frictionless(mkt, views, noise)
            if mkt.is_frictionless
            else equilibrium_frictions(mkt, views, noise)
        )
        assert np.all(eq.price == eq.price[:, :1])
        assert np.all(eq.abatement == eq.abatement[:, :, :1])


def test_balanced_initial_endowment_zeroes_the_price():
    """When the average expected allocation equals the horizon demand T*Hbar
    and nothing is random, allowances are exactly sufficient and the price
    is identically zero."""
    firms = make_firms(sigma=0.0)
    mkt = make_market(firms)
    grid = TimeGrid(horizon=10.0, n_steps=50)
    noise = generate_noise(3, grid, firms, n_paths=2)
    m0 = grid.horizon * mkt.agg.H_bar
    eq = equilibrium_frictionless(mkt, constant_views(mkt, noise, m0), noise)
    assert np.all(eq.price == 0.0)


def test_tracking_views_give_constant_price(noise_block):
    """Allocations that track every shock leave no surprise to price in."""
    firms = make_firms()
    for mkt in (make_market(firms), make_market(firms, depth=1e6)):
        views = tracking_views(mkt, noise_block)
        eq = (
            equilibrium_frictionless(mkt, views, noise_block)
            if mkt.is_frictionless
            else equilibrium_frictions(mkt, views, noise_block)
        )
        assert np.max(np.abs(eq.price - eq.price[:, :1])) < 1e-9


# --- clearing ------------------------------------------------------------------------

def test_clearing_is_exact_with_finite_depth(noise_block):
    firms = make_firms()
    mkt = make_market(firms, depth=1e6)
    views = half_loading_views(mkt, noise_block)
    eq = equilibrium_frictions(mkt, views, noise_block)
    marginal = sum(
        firm.h + eq.abatement[:, i, :] / firm.eta for i, firm in enumerate(mkt.firms)
    )
    residual = np.abs(marginal - mkt.n_firms * eq.price).max()
    assert residual <= 1e-12 * mkt.n_firms * np.abs(eq.price).max()
    # the trade-rate clearing condition is the same identity scaled by depth
    assert np.abs(eq.trade_rate.sum(axis=1)).max() <= 1e-12 * mkt.depth * np.abs(eq.price).max()


def test_clearing_is_exact_frictionless(noise_block):
    firms = make_firms()
    mkt = make_market(firms)
    views = half_loading_views(mkt, noise_block)
    eq = equilibrium_frictionless(mkt, views, noise_block)
    gross = np.abs(eq.total_trade).sum(axis=1).max()
    assert np.abs(eq.total_trade.sum(axis=1)).max() <= 1e-12 * gross


def test_duplicated_firm_reproduces_single_firm_equilibrium():
    """One firm with k = 1, versus two identical copies sharing the common
    shock: per-firm price, abatement, and bank paths must coincide."""
    base = make_firms(1, k=1.0)[0]
    firms1 = (base,)
    firms2 = (base, base)
    grid = TimeGrid(horizon=10.0, n_steps=120)
    n_paths = 4
    noise1 = generate_noise(9, grid, firms1, n_paths=n_paths)
    common = noise1.d_tilde[:, :1, :]
    rng = np.random.default_rng(99)
    extra = rng.normal(scale=np.sqrt(grid.dt), size=(n_paths, 2, grid.n_steps))
    noise2 = NoisePaths(
        seed=9,
        path_offset=0,
        grid=grid,
        ks=np.array([1.0, 1.0]),
        d_tilde=np.concatenate([common, extra], axis=1),
    )
    np.testing.assert_array_equal(noise1.d_firm[:, 0], noise2.d_firm[:, 0])

    for depth in (1e6, None):
        mkt1 = make_market(firms1) if depth is None else make_market(firms1, depth=depth)
        mkt2 = make_market(firms2) if depth is None else make_market(firms2, depth=depth)
        views1 = half_loading_views(mkt1, noise1)
        views2 = [views1[0], views1[0]]
        if depth is None:
            eq1 = equilibrium_frictionless(mkt1, views1, noise1)
            eq2 = equilibrium_frictionless(mkt2, views2, noise2)
        else:
            eq1 = equilibrium_frictions(mkt1, views1, noise1)
            eq2 = equilibrium_frictions(mkt2, views2, noise2)
        np.testing.assert_array_equal(eq1.price, eq2.price)
        for i in range(2):
            np.testing.assert_array_equal(eq1.abatement[:, 0], eq2.abatement[:, i])
            np.testing.assert_array_equal(eq1.bank[:, 0], eq2.bank[:, i])


def test_only_the_aggregate_surprise_moves_the_price(noise_block):
    """Reshuffling shock loadings across (homogeneous) firms while keeping
    the summed driver fixed leaves the price path unchanged."""
    firms = make_firms()
    w = noise_block.firm_paths()
    m0 = 1e9
    combined = sum(0.5 * firms[i].sigma * w[:, i, :] for i in range(len(firms)))
    views_spread = []
    views_lumped = []
    for i, firm in enumerate(firms):
        spread = m0 + 0.5 * firm.sigma * w[:, i, :]
        views_spread.append(AllocationView(expected_total=spread, realized=spread))
        lumped = m0 + (combined if i == 0 else np.zeros_like(combined))
        views_lumped.append(AllocationView(expected_total=lumped, realized=lumped))
    for mkt in (make_market(firms), make_market(firms, depth=1e6)):
        if mkt.is_frictionless:
            pa = equilibrium_frictionless(mkt, views_spread, noise_block).price
            pb = equilibrium_frictionless(mkt, views_lumped, noise_block).price
        else:
            pa = equilibrium_frictions(mkt, views_spread, noise_block).price
            pb = equilibrium_frictions(mkt, views_lumped, noise_block).price
        np.testing.assert_allclose(pa, pb, rtol=0, atol=1e-9)


# --- price structure -----------------------------------------------------------------

def test_initial_price_matches_coefficient_formula(noise_block):
    firms = make_firms()
    m0 = 1e9
    mkt = make_market(firms, depth=1e6)
    views = half_loading_views(mkt, noise_block, m0=m0)
    eq = equilibrium_frictions(mkt, views, noise_block)
    expected = sum(
        pi_coeff(mkt, i, 0.0) * (f.eta * f.h * 10.0 - m0) for i, f in enumerate(firms)
    ) / len(firms)
    np.testing.assert_allclose(eq.price[:, 0], expected, rtol=1e-12)

    mkt0 = make_market(firms)
    eq0 = equilibrium_frictionless(mkt0, half_loading_views(mkt0, noise_block, m0=m0), noise_block)
    expected0 = f_coeff(mkt0, 0.0) * (10.0 * mkt0.agg.H_bar - m0)
    np.testing.assert_allclose(eq0.price[:, 0], expected0, rtol=1e-12)


def test_equilibrium_price_is_a_martingale():
    firms = make_firms()
    mkt = make_market(firms, depth=1e6)
    noise = generate_noise(13, TimeGrid(horizon=10.0, n_steps=80), firms, n_paths=512)
    eq = equilibrium_frictions(mkt, half_loading_views(mkt, noise), noise)
    assert martingale_drift_stat(eq.price).passed()


def test_feedback_price_agrees_to_first_order():
    firms = make_firms()
    mkt = make_market(firms)
    fine = generate_noise(37, TimeGrid(horizon=10.0, n_steps=800), firms, n_paths=4)
    coarse = coarsen_noise(fine, 2)

    def gap(noise):
        views = half_loading_views(mkt, noise)
        eq = equilibrium_frictionless(mkt, views, noise)
        fb = feedback_price_frictionless(mkt, eq, views, noise.grid)
        return np.max(np.abs(fb - eq.price))

    g_coarse, g_fine = gap(coarse), gap(fine)
    assert g_fine < g_coarse
    assert g_coarse / g_fine > 1.5
