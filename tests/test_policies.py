import gc
import math
import weakref

import numpy as np
import pytest

from permitsim import (
    ClearingError,
    DiagnosticError,
    FirmParams,
    InfeasibleObservationError,
    PathEnsemble,
    PolicyKind,
    PolicySpec,
    TimeGrid,
    UnsupportedConfigurationError,
    UnsupportedInputError,
    build_policy,
    check_gamma_optimality,
    compare_policies,
    custom_martingale_policy,
    ell,
    equilibrium_frictionless,
    estimate_eta_from_qv,
    generate_noise,
    large_n_limit_delta,
    martingale_drift_stat,
    msr_F,
    msr_policy,
    msr_z,
    optimal_dynamic_policy,
    simulate_policy_paths,
    static_policy,
    static_price_paths,
    tax_policy,
    tracking_gamma,
)
import permitsim.equilibrium
import permitsim.policies
from permitsim.policies import (
    StaticPolicy,
    allocation_views,
    cost_report_from_samples,
    run_ensemble,
)
from permitsim.stochastic import left_integral

import oracles
from conftest import N_FIRMS, make_firms, make_market


def heterogeneous_eta_market():
    firms = list(make_firms())
    f = firms[0]
    firms[0] = FirmParams(mu=f.mu, sigma=f.sigma, k=f.k, h=f.h, eta=2.0 * f.eta)
    return make_market(tuple(firms))


# --- closed forms against independently derived values ---------------------------

def test_optimal_policy_closed_form(base_market):
    opt = optimal_dynamic_policy(base_market)
    assert opt.p0 == pytest.approx(oracles.P0, rel=1e-13)
    assert opt.ell == pytest.approx(oracles.ELL, rel=1e-13)
    assert opt.cost == pytest.approx(oracles.C_OPT, rel=1e-13)
    np.testing.assert_allclose(opt.m0, oracles.ELL, rtol=1e-13)
    # every firm abates at eta (p0 - h)
    np.testing.assert_allclose(opt.alpha, 6e8 * (oracles.P0 - 25.0), rtol=1e-12)
    # with identical firms the optimal trade rate cancels identically; only
    # float cancellation of ~1e9-sized terms remains
    assert np.abs(opt.beta).max() < 1e-4


def test_static_policy_closed_form(base_market):
    stat = static_policy(base_market)
    opt = optimal_dynamic_policy(base_market)
    assert stat.p0 == opt.p0
    assert N_FIRMS * stat.x_bar0 == pytest.approx(oracles.STATIC_X0_TOTAL, rel=1e-13)
    assert stat.cost == pytest.approx(oracles.C_STAT, rel=1e-13)
    assert stat.delta_stat == pytest.approx(oracles.DELTA_STAT, rel=1e-13)
    assert stat.qv_T == pytest.approx(oracles.QV_T, rel=1e-13)
    assert stat.cost - opt.cost == pytest.approx(stat.delta_stat, rel=1e-12)


def test_tax_policy_closed_form(base_market):
    tax = tax_policy(base_market)
    opt = optimal_dynamic_policy(base_market)
    assert tax.tau == opt.p0
    assert tax.cost == pytest.approx(oracles.C_TAX, rel=1e-13)
    assert tax.break_even_lambda == pytest.approx(oracles.BREAK_EVEN_LAMBDA, rel=1e-13)
    assert tax.cost / opt.cost >= 4.0


def test_msr_policy_closed_form(base_market):
    msr = msr_policy(base_market, 0.1)
    opt = optimal_dynamic_policy(base_market)
    assert msr.x_bar0 == pytest.approx(oracles.MSR_X0, rel=1e-12)
    assert msr.p0 == pytest.approx(opt.p0, rel=1e-12)
    # spell the initial level out from its two exponential-decay factors
    level = ell(base_market)
    lead = 0.1 * 10.0 / (1.0 - math.exp(-1.0))
    inner = 10.0 + (math.exp(-1.0) - 1.0) / 0.1
    assert msr.x_bar0 == pytest.approx(lead * (level + inner * 6e8 * (opt.p0 - 25.0)), rel=1e-12)


def test_rho_one_degenerates_to_marginal_cost():
    mkt = make_market(rho=1.0)
    opt = optimal_dynamic_policy(mkt)
    tax = tax_policy(mkt)
    assert opt.p0 == 25.0
    assert tax.tau == 25.0
    np.testing.assert_array_equal(tax.alpha, 0.0)


# --- configuration guards ---------------------------------------------------------

def test_heterogeneous_eta_rejected_where_closed_forms_need_it():
    mkt = heterogeneous_eta_market()
    for fn in (static_policy, tax_policy, msr_policy):
        with pytest.raises(UnsupportedConfigurationError):
            fn(mkt)
    # the optimal dynamic policy handles heterogeneity fine
    optimal_dynamic_policy(mkt)


def test_msr_delta_must_be_positive(base_market):
    with pytest.raises(UnsupportedConfigurationError):
        msr_policy(base_market, 0.0)
    with pytest.raises(UnsupportedConfigurationError):
        PolicySpec(kind="msr", delta=-0.1)
    assert PolicySpec(kind="msr").delta == 0.1


def test_policy_spec_round_trip(base_market):
    for kind in ("optimal_dynamic", "static", "tax", "msr"):
        pol = build_policy(PolicySpec(kind=kind), base_market)
        assert pol.kind is PolicyKind(kind)
    with pytest.raises(UnsupportedConfigurationError):
        PolicySpec(kind="custom_martingale")  # m0 and gamma are mandatory


def test_custom_policy_feasibility(base_market):
    level = ell(base_market)
    gamma = tracking_gamma(list(base_market.firms))
    pol = custom_martingale_policy(base_market, np.full(N_FIRMS, level), gamma)
    assert pol.kind is PolicyKind.CUSTOM_MARTINGALE
    # shuffling the initial levels keeps the sum and stays feasible
    shifted = np.full(N_FIRMS, level) + np.linspace(-1e8, 1e8, N_FIRMS)
    custom_martingale_policy(base_market, shifted, gamma)
    with pytest.raises(UnsupportedConfigurationError):
        custom_martingale_policy(base_market, np.full(N_FIRMS, level + 1e6), gamma)
    custom_martingale_policy(
        base_market, np.full(N_FIRMS, level + 1e6), gamma, target_compliance=False
    )
    with pytest.raises(UnsupportedInputError):
        custom_martingale_policy(base_market, np.full(N_FIRMS - 1, level), gamma)
    with pytest.raises(UnsupportedInputError):
        custom_martingale_policy(base_market, np.full(N_FIRMS, level), gamma[:, :-1])


# --- gamma optimality --------------------------------------------------------------

def test_tracking_gamma_is_accepted(base_market):
    firms = list(base_market.firms)
    gamma = tracking_gamma(firms)
    ok, residuals = check_gamma_optimality(gamma, firms)
    assert ok
    assert np.abs(residuals).max() < 1e-9


def test_permuted_gamma_is_still_accepted(base_market):
    """Only column sums matter: reallocating rows across firms moves risk
    between firms without re-exposing the aggregate."""
    firms = list(base_market.firms)
    gamma = tracking_gamma(firms)[::-1].copy()
    ok, _ = check_gamma_optimality(gamma, firms)
    assert ok


def test_zero_gamma_residuals_are_the_required_loadings(base_market):
    firms = list(base_market.firms)
    ok, res = check_gamma_optimality(np.zeros((N_FIRMS, N_FIRMS + 1)), firms)
    assert not ok
    assert res[0] == pytest.approx(sum(f.sigma * f.k for f in firms), rel=1e-12)
    for j, f in enumerate(firms):
        assert res[j + 1] == pytest.approx(f.sigma * math.sqrt(1 - f.k**2), rel=1e-12)


def test_gamma_shape_checked(base_market):
    with pytest.raises(UnsupportedInputError):
        check_gamma_optimality(np.zeros((N_FIRMS, N_FIRMS)), list(base_market.firms))


# --- the large-market limit ---------------------------------------------------------

def test_large_n_limit_is_approached_like_one_over_n():
    lam, eta, horizon, sigma, k = 7.5e-7, 6e8, 10.0, 1e8, 0.92
    lim = large_n_limit_delta(sigma, k**2, eta, lam, horizon)
    devs = []
    for n in (10, 100, 1000):
        pol = static_policy(make_market(make_firms(n, sigma=sigma, k=k)))
        devs.append(abs(pol.delta_stat / n - lim) / lim)
    assert devs[0] > devs[1] > devs[2]
    assert devs[1] == pytest.approx(10.0 * devs[2], rel=1e-3)  # clean 1/N decay


def test_large_n_limit_at_ten_thousand_firms():
    lam, eta, horizon, sigma, k = 7.5e-7, 6e8, 10.0, 1e8, 0.92
    lim = large_n_limit_delta(sigma, k**2, eta, lam, horizon)
    pol = static_policy(make_market(make_firms(10_000, sigma=sigma, k=k)))
    assert abs(pol.delta_stat / 10_000 - lim) / lim < 1e-3


def test_large_n_limit_edge_correlations():
    assert large_n_limit_delta(1e8, 0.0, 6e8, 7.5e-7, 10.0) == 0.0
    # at full correlation the finite-N value already equals the limit
    lim = large_n_limit_delta(1e8, 1.0, 6e8, 7.5e-7, 10.0)
    pol = static_policy(make_market(make_firms(7, sigma=1e8, k=1.0)))
    assert pol.delta_stat / 7 == pytest.approx(lim, rel=1e-12)


# --- recovering eta from price roughness ----------------------------------------------

def test_eta_round_trip(base_market):
    stat = static_policy(base_market)
    agg = base_market.agg
    eta = estimate_eta_from_qv(stat.qv_T, agg.sigma_sq, base_market.penalty, 10.0)
    assert eta == pytest.approx(6e8, rel=1e-12)


def test_eta_estimation_rejects_infeasible_observations(base_market):
    agg = base_market.agg
    lam = base_market.penalty
    upper = 4.0 * lam**2 * agg.sigma_sq * 10.0
    for bad in (0.0, -1.0, upper, 2 * upper):
        with pytest.raises(InfeasibleObservationError):
            estimate_eta_from_qv(bad, agg.sigma_sq, lam, 10.0)


def test_eta_vanishes_at_the_feasibility_boundary(base_market):
    agg = base_market.agg
    lam = base_market.penalty
    upper = 4.0 * lam**2 * agg.sigma_sq * 10.0
    eta = estimate_eta_from_qv(upper * (1.0 - 1e-9), agg.sigma_sq, lam, 10.0)
    assert 0.0 < eta < 1.0


# --- simulation ------------------------------------------------------------------------

def test_optimal_policy_simulates_to_a_constant_price(base_market, medium_noise):
    opt = optimal_dynamic_policy(base_market)
    sample = simulate_policy_paths(opt, base_market, medium_noise)
    assert np.max(np.abs(sample.price - opt.p0)) < 1e-9 * opt.p0
    assert np.max(sample.price_qv) < 1e-12 * opt.p0**2
    # cost is pathwise deterministic up to quadrature roundoff
    np.testing.assert_allclose(sample.cost, opt.cost, rtol=1e-6)
    em = sample.total_emissions[:, -1]
    target = 0.8 * 10.0 * N_FIRMS * base_market.agg.mu_bar
    z = (em.mean() - target) / (em.std(ddof=1) / math.sqrt(em.size))
    assert abs(z) < 3.0


def test_optimal_policy_banks_are_linear_per_firm(base_market, medium_noise):
    opt = optimal_dynamic_policy(base_market)
    views = allocation_views(opt, base_market, medium_noise)
    eq = equilibrium_frictionless(base_market, views, medium_noise)
    t = medium_noise.grid.knots
    for i in range(N_FIRMS):
        want = opt.ell + (opt.alpha[i] + opt.beta[i]) * t
        gap = np.abs(eq.bank[:, i, :] - want).max()
        assert gap < 1e-6 * abs(opt.ell)


def test_static_policy_simulation(base_market, medium_noise):
    stat = static_policy(base_market)
    sample = simulate_policy_paths(stat, base_market, medium_noise)
    assert np.allclose(sample.price[:, 0], stat.p0, rtol=1e-12)
    assert martingale_drift_stat(sample.price).passed()
    report = cost_report_from_samples(
        stat, sample.cost, sample.parts, sample.total_emissions[:, -1]
    )
    assert report.consistent
    assert report.gap_in_se() < 4.0
    # lump-sum design: no allowance arrives after t=0, so the gross
    # allocation never moves off its initial level
    assert np.abs(sample.net_allocation_minus_initial).max() < 1.0


def test_tax_policy_simulation(base_market, medium_noise):
    tax = tax_policy(base_market)
    sample = simulate_policy_paths(tax, base_market, medium_noise)
    assert np.all(sample.price == tax.tau)
    assert np.all(sample.total_bank == 0.0)
    np.testing.assert_allclose(
        sample.cost, sample.parts["abatement"] + sample.parts["tax"], rtol=1e-12
    )
    report = cost_report_from_samples(
        tax, sample.cost, sample.parts, sample.total_emissions[:, -1]
    )
    assert report.consistent
    em = sample.total_emissions[:, -1]
    target = 0.8 * 10.0 * N_FIRMS * base_market.agg.mu_bar
    z = (em.mean() - target) / (em.std(ddof=1) / math.sqrt(em.size))
    assert abs(z) < 3.0


def test_msr_policy_simulation(base_market, medium_noise):
    msr = msr_policy(base_market, 0.1)
    sample = simulate_policy_paths(msr, base_market, medium_noise)
    em = sample.total_emissions[:, -1]
    target = 0.8 * 10.0 * N_FIRMS * base_market.agg.mu_bar
    z = (em.mean() - target) / (em.std(ddof=1) / math.sqrt(em.size))
    assert abs(z) < 3.0
    # terminal price equals the marginal penalty of the terminal bank
    lam = base_market.penalty
    np.testing.assert_allclose(
        sample.price[:, -1],
        -2.0 * lam * sample.total_bank[:, -1] / N_FIRMS,
        rtol=1e-9,
    )


def _msr_per_step_loop(policy, mkt, noise):
    """The MSR Euler recursion stepped one path column at a time: the
    reference for the in-place kernel, which must round every knot alike."""
    grid = noise.grid
    t = grid.knots
    n, eta, h_bar, delta = mkt.n_firms, mkt.agg.eta_bar, mkt.agg.h_bar, policy.delta
    z = msr_z(delta, t, grid.horizon)
    big_f = msr_F(mkt, delta, t)
    ramp = (grid.horizon - t) * policy.x_bar0 / grid.horizon
    c1 = -big_f * (1.0 - delta * z)
    c0 = big_f * ((1.0 - delta * z) * ramp + z * (eta * h_bar - policy.x_bar0 / grid.horizon))
    d_wbar = noise.weighted_mean_increments([fp.sigma for fp in mkt.firms])
    m = grid.n_steps
    xbar = np.empty((noise.n_paths, m + 1))
    price = np.empty_like(xbar)
    alloc_rate = np.empty_like(xbar)
    xbar[:, 0] = policy.x_bar0
    for k in range(m + 1):
        price[:, k] = c0[k] + c1[k] * xbar[:, k]
        alloc_rate[:, k] = delta * (ramp[k] - xbar[:, k])
        if k < m:
            drift = alloc_rate[:, k] + eta * (price[:, k] - h_bar)
            xbar[:, k + 1] = xbar[:, k] + drift * grid.dt - d_wbar[:, k]
    avg_alpha = eta * (price - h_bar)
    abate_rate = h_bar * avg_alpha + avg_alpha**2 / (2.0 * eta)
    abatement = n * abate_rate[:, :-1].sum(axis=-1) * grid.dt
    penalty = n * mkt.penalty * xbar[:, -1] ** 2
    return {
        "price": price,
        "total_bank": n * xbar,
        "cost": abatement + penalty,
        "abatement": abatement,
        "penalty": penalty,
    }


@pytest.mark.parametrize("n_steps", [37, 300])
@pytest.mark.parametrize("delta", [0.1, 1.5])
@pytest.mark.parametrize("eta", [1e6, 1e9])
def test_msr_recursion_matches_the_per_step_loop(eta, delta, n_steps):
    """Exact equality: the kernel performs the loop's operations in the loop's
    order.  At eta = 1e9 the last Euler step overshoots the terminal bank."""
    firms = make_firms(eta=eta)
    mkt = make_market(firms)
    msr = msr_policy(mkt, delta)
    noise = generate_noise(17, TimeGrid(horizon=10.0, n_steps=n_steps), firms, n_paths=64)
    sample = simulate_policy_paths(msr, mkt, noise)
    want = _msr_per_step_loop(msr, mkt, noise)
    np.testing.assert_array_equal(sample.price, want["price"])
    np.testing.assert_array_equal(sample.total_bank, want["total_bank"])
    np.testing.assert_array_equal(sample.cost, want["cost"])
    np.testing.assert_array_equal(sample.parts["abatement"], want["abatement"])
    np.testing.assert_array_equal(sample.parts["penalty"], want["penalty"])
    assert not sample.parts["trading"].any() and not sample.parts["tax"].any()


def test_msr_tracks_the_drawdown_ramp_when_reversion_is_fast():
    firms = make_firms(sigma=0.0)
    mkt = make_market(firms)
    msr = msr_policy(mkt, 5.0)
    noise = generate_noise(1, TimeGrid(horizon=10.0, n_steps=2000), firms, n_paths=2)
    sample = simulate_policy_paths(msr, mkt, noise)
    t = noise.grid.knots
    ramp = (10.0 - t) * msr.x_bar0 / 10.0
    xbar = sample.total_bank / N_FIRMS
    inner = slice(0, 1800)  # away from the deadline, where the ramp -> 0
    rel = np.abs(xbar[:, inner] - ramp[inner]) / np.abs(msr.x_bar0)
    assert rel.max() < 0.05
    assert np.abs(xbar[:, -1]).max() < 0.05 * abs(msr.x_bar0)


def test_msr_cost_collapses_to_optimal_without_noise():
    firms = make_firms(sigma=0.0)
    mkt = make_market(firms)
    opt = optimal_dynamic_policy(mkt)
    noise = generate_noise(1, TimeGrid(horizon=10.0, n_steps=2000), firms, n_paths=2)
    for policy in (optimal_dynamic_policy(mkt), static_policy(mkt), msr_policy(mkt, 0.1)):
        sample = simulate_policy_paths(policy, mkt, noise)
        np.testing.assert_allclose(sample.cost, opt.cost, rtol=1e-4)
    tax_sample = simulate_policy_paths(tax_policy(mkt), mkt, noise)
    assert tax_sample.cost.mean() > 4.0 * opt.cost


# --- the N-axis martingale kernel against the per-firm construction -------------------

_TRAJECTORY_FIELDS = (
    "price",
    "total_bank",
    "avg_abatement",
    "total_emissions",
    "net_allocation_minus_initial",
)


def _per_firm_sample(policy, mkt, noise):
    """Costs and trajectories from per-firm views, best responses and banks."""
    grid = noise.grid
    t = grid.knots
    views = allocation_views(policy, mkt, noise)
    eq = equilibrium_frictionless(mkt, views, noise)
    abatement = np.zeros(noise.n_paths)
    trading = np.zeros(noise.n_paths)
    for i, fp in enumerate(mkt.firms):
        a = eq.abatement[:, i, :]
        abatement += (fp.h * a + a**2 / (2.0 * fp.eta))[:, :-1].sum(axis=-1) * grid.dt
        trading += (eq.price * eq.trade_rate[:, i, :])[:, :-1].sum(axis=-1) * grid.dt
    penalty = mkt.penalty * (eq.bank[:, :, -1] ** 2).sum(axis=1)
    sigmas = np.array([fp.sigma for fp in mkt.firms])
    mu_total = sum(fp.mu for fp in mkt.firms)
    shock_sum = np.einsum("i,pik->pk", sigmas, noise.firm_paths())
    realized = sum(v.realized for v in views)
    return {
        "abatement": abatement,
        "trading": trading,
        "penalty": penalty,
        "cost": abatement + trading + penalty,
        "price": eq.price,
        "total_bank": eq.total_bank,
        "avg_abatement": eq.avg_abatement,
        "total_emissions": mu_total * t
        - left_integral(eq.abatement.sum(axis=1), noise.grid)
        + shock_sum,
        "net_allocation_minus_initial": realized - realized[:, :1] + mu_total * t,
    }


def _kernel_policies(mkt):
    level = ell(mkt)
    m0 = np.full(N_FIRMS, level) + np.linspace(-2e8, 2e8, N_FIRMS)
    # half the tracking loadings leave half of each shock to move the price
    half = 0.5 * tracking_gamma(list(mkt.firms))
    policies = {
        "optimal_dynamic": optimal_dynamic_policy(mkt),
        "custom_martingale": custom_martingale_policy(mkt, m0, half),
    }
    if len({fp.eta for fp in mkt.firms}) == 1:
        policies["static"] = static_policy(mkt)
    return policies


def _mixed_market(eta_step):
    """Firms that differ in every parameter but, with eta_step = 0, eta."""
    return make_market(
        tuple(
            FirmParams(
                mu=2e9 / N_FIRMS * (0.7 + 0.1 * i),
                sigma=0.2e9 / math.sqrt(N_FIRMS) * (1.3 - 0.1 * i),
                k=0.5 + 0.08 * i,
                h=20.0 + 2.0 * i,
                eta=6e8 * (1.0 + eta_step * i),
            )
            for i in range(N_FIRMS)
        )
    )


_KERNEL_MARKETS = {
    "base": make_market(),
    "mixed": _mixed_market(0.0),
    "mixed_eta": _mixed_market(0.2),
}


@pytest.fixture(scope="module")
def kernel_noise(base_market):
    return generate_noise(64, TimeGrid(base_market.horizon, 400), base_market.firms, 64)


@pytest.mark.parametrize(
    "market_name, kind",
    [
        (name, kind)
        for name, mkt in _KERNEL_MARKETS.items()
        for kind in _kernel_policies(mkt)
    ],
)
def test_martingale_kernel_matches_the_per_firm_construction(market_name, kind):
    mkt = _KERNEL_MARKETS[market_name]
    noise = generate_noise(64, TimeGrid(mkt.horizon, 400), mkt.firms, 64)
    policy = _kernel_policies(mkt)[kind]
    sample = simulate_policy_paths(policy, mkt, noise)
    want = _per_firm_sample(policy, mkt, noise)
    cost_scale = np.abs(want["cost"]).max()

    def assert_close(got, ref, floor=0.0):
        gap = np.abs(got - ref).max()
        assert gap <= 1e-12 * max(np.abs(ref).max(), floor)

    assert_close(sample.cost, want["cost"])
    assert_close(sample.parts["abatement"], want["abatement"])
    # a heterogeneous firm's terminal bank cancels gross terms ~10^3 times
    # its size, so there the penalty is compared on the cost's scale
    assert_close(
        sample.parts["penalty"], want["penalty"], floor=0.0 if market_name == "base" else cost_scale
    )
    # net trades cancel across firms: both sides hold roundoff only
    assert_close(sample.parts["trading"], want["trading"], floor=cost_scale)
    np.testing.assert_array_equal(sample.parts["tax"], 0.0)
    volume_scale = np.abs(want["total_emissions"]).max()
    for name in _TRAJECTORY_FIELDS:
        # the static policy's net allocation is zero up to roundoff
        floor = volume_scale if name == "net_allocation_minus_initial" else 0.0
        assert_close(getattr(sample, name), want[name], floor)
    if kind == "custom_martingale":
        assert np.ptp(sample.price) > 1e-3 * sample.price[0, 0]


def test_martingale_kernel_rejects_finite_depth(frictional_market, kernel_noise):
    for policy in _kernel_policies(frictional_market).values():
        with pytest.raises(UnsupportedInputError, match="finite depth"):
            simulate_policy_paths(policy, frictional_market, kernel_noise)


def test_martingale_kernel_still_checks_clearing(base_market, kernel_noise, monkeypatch):
    f_coeff = permitsim.equilibrium.f_coeff
    monkeypatch.setattr(
        permitsim.equilibrium, "f_coeff", lambda mkt, t: 1.01 * np.asarray(f_coeff(mkt, t))
    )
    for policy in _kernel_policies(base_market).values():
        with pytest.raises(ClearingError, match="frictionless"):
            simulate_policy_paths(policy, base_market, kernel_noise)


# --- exact-transition price sampling ------------------------------------------------

def test_static_price_paths_methods(base_market):
    firms = base_market.firms
    noise = generate_noise(55, TimeGrid(horizon=10.0, n_steps=50), firms, n_paths=2000)
    stat = static_policy(base_market)
    with pytest.raises(ValueError):
        static_price_paths(base_market, noise, method="milstein")
    for method in ("euler", "exact"):
        price = static_price_paths(base_market, noise, method=method)
        assert np.all(price[:, 0] == stat.p0)
        assert martingale_drift_stat(price).passed()
    # the exact transition reproduces the expected quadratic variation even
    # on a coarse grid, where Euler misses the steep terminal variance
    exact = static_price_paths(base_market, noise, method="exact")
    qv = np.sum(np.diff(exact, axis=-1) ** 2, axis=-1)
    z = (qv.mean() - stat.qv_T) / (qv.std(ddof=1) / math.sqrt(qv.size))
    assert abs(z) < 3.0


# --- cost reports and comparison ------------------------------------------------------

def test_cost_report_consistency_logic(base_market):
    tax = tax_policy(base_market)
    parts = {k: np.zeros(100) for k in ("abatement", "trading", "penalty", "tax")}
    em = np.zeros(100)
    good = cost_report_from_samples(tax, np.full(100, tax.cost), parts, em)
    assert good.consistent
    # a pathwise-constant sample has (near-)zero stderr, so a sub-roundoff
    # offset can sit many "standard errors" away yet must not flag
    nudged = cost_report_from_samples(
        tax, np.full(100, tax.cost * (1.0 + 1e-10)), parts, em
    )
    assert nudged.consistent
    assert nudged.gap_in_se() > 4.0
    bad = cost_report_from_samples(tax, np.full(100, tax.cost * 1.5), parts, em)
    assert not bad.consistent
    single = cost_report_from_samples(tax, np.full(1, tax.cost * 1.5), parts, em)
    assert single.consistent  # one path says nothing
    msr_report = cost_report_from_samples(
        msr_policy(base_market, 0.1), np.full(100, 1.0), parts, em
    )
    assert msr_report.closed_form is None and msr_report.gap_in_se() is None


def test_compare_policies_end_to_end(base_market):
    grid = TimeGrid(horizon=10.0, n_steps=200)
    ensemble = PathEnsemble(
        seed=404, grid=grid, firms=base_market.firms, n_paths=256, chunk_size=100
    )
    policies = [
        optimal_dynamic_policy(base_market),
        static_policy(base_market),
        tax_policy(base_market),
        msr_policy(base_market, 0.1),
    ]
    result = compare_policies(base_market, policies, ensemble)
    assert result.n_paths == 256
    assert len(result.reports) == 4
    assert all(r.consistent for r in result.reports)
    assert set(result.deltas) == {
        ("optimal_dynamic", "static"),
        ("optimal_dynamic", "tax"),
        ("optimal_dynamic", "msr"),
        ("static", "tax"),
        ("static", "msr"),
        ("tax", "msr"),
    }
    # paired optimal-minus-static differences recover the closed-form excess
    mean, se = result.deltas[("optimal_dynamic", "static")]
    stat = static_policy(base_market)
    assert abs(mean + stat.delta_stat) < 4.0 * se + 1e-9 * stat.cost
    # breakdown means add up to the headline estimate
    for r in result.reports:
        assert sum(r.breakdown.values()) == pytest.approx(r.mc_estimate, rel=1e-12)
    assert result.report("static").kind is PolicyKind.STATIC
    with pytest.raises(KeyError):
        result.report("custom_martingale")


def test_compare_policies_rejects_duplicates_and_corruption(base_market):
    grid = TimeGrid(horizon=10.0, n_steps=50)
    ensemble = PathEnsemble(
        seed=1, grid=grid, firms=base_market.firms, n_paths=8, chunk_size=8
    )
    opt = optimal_dynamic_policy(base_market)
    with pytest.raises(UnsupportedInputError):
        compare_policies(base_market, [opt, optimal_dynamic_policy(base_market)], ensemble)
    stat = static_policy(base_market)
    corrupted = StaticPolicy(
        x_bar0=stat.x_bar0,
        p0=stat.p0,
        cost=stat.cost + 1.0,
        delta_stat=stat.delta_stat,
        qv_T=stat.qv_T,
    )
    with pytest.raises(DiagnosticError):
        compare_policies(base_market, [opt, corrupted], ensemble)


def _four_policies(mkt):
    return [
        optimal_dynamic_policy(mkt),
        static_policy(mkt),
        tax_policy(mkt),
        msr_policy(mkt, 0.1),
    ]


def test_run_ensemble_calls_on_sample_per_chunk_then_policy(base_market):
    grid = TimeGrid(horizon=10.0, n_steps=20)
    ensemble = PathEnsemble(
        seed=5, grid=grid, firms=base_market.firms, n_paths=10, chunk_size=4
    )
    policies = _four_policies(base_market)
    seen = []
    run_ensemble(
        base_market, policies, ensemble,
        on_sample=lambda noise, sample: seen.append(
            (noise.path_offset, noise.n_paths, sample.kind)
        ),
    )
    assert seen == [
        (offset, size, p.kind)
        for offset, size in ((0, 4), (4, 4), (8, 2))
        for p in policies
    ]


def test_run_ensemble_keeps_no_trajectory(base_market, monkeypatch):
    """No sample outlives its hook call: when the next simulation starts, every
    earlier sample's emissions array is gone.  Keeping a view of the terminal
    emissions, or the last sample itself, would keep the whole array alive."""
    grid = TimeGrid(horizon=10.0, n_steps=20)
    ensemble = PathEnsemble(
        seed=5, grid=grid, firms=base_market.firms, n_paths=10, chunk_size=4
    )
    refs = []
    live_at_call = []
    real = permitsim.policies.simulate_policy_paths

    def counting(policy, mkt, noise):
        gc.collect()
        live_at_call.append(sum(ref() is not None for ref in refs))
        return real(policy, mkt, noise)

    monkeypatch.setattr(permitsim.policies, "simulate_policy_paths", counting)
    result = run_ensemble(
        base_market, _four_policies(base_market), ensemble,
        on_sample=lambda noise, sample: refs.append(weakref.ref(sample.total_emissions)),
    )
    gc.collect()
    assert live_at_call == [0] * (3 * 4)
    assert len(refs) == 3 * 4
    assert all(ref() is None for ref in refs)
    assert all(r.n_paths == 10 for r in result.reports)


def test_run_ensemble_does_not_depend_on_chunking(base_market):
    grid = TimeGrid(horizon=10.0, n_steps=50)
    policies = _four_policies(base_market)
    results = [
        run_ensemble(
            base_market, policies,
            PathEnsemble(seed=21, grid=grid, firms=base_market.firms, n_paths=300,
                         chunk_size=chunk_size),
        )
        for chunk_size in (100, 256)
    ]
    a, b = results
    for ra, rb in zip(a.reports, b.reports):
        assert ra.kind is rb.kind and ra.n_paths == rb.n_paths == 300
        for x, y in [
            (ra.mc_estimate, rb.mc_estimate),
            (ra.mc_stderr, rb.mc_stderr),
            (ra.expected_total_emissions, rb.expected_total_emissions),
            (ra.emissions_stderr, rb.emissions_stderr),
            *((ra.breakdown[k], rb.breakdown[k]) for k in ra.breakdown),
        ]:
            assert x == pytest.approx(y, rel=1e-12, abs=1e-12 * abs(ra.mc_estimate))
    assert a.deltas.keys() == b.deltas.keys()
    for key in a.deltas:
        np.testing.assert_allclose(a.deltas[key], b.deltas[key], rtol=1e-12)


def test_compare_policies_reports_what_run_ensemble_reports(base_market):
    grid = TimeGrid(horizon=10.0, n_steps=200)
    ensemble = PathEnsemble(
        seed=404, grid=grid, firms=base_market.firms, n_paths=256, chunk_size=100
    )
    policies = _four_policies(base_market)
    checked = compare_policies(base_market, policies, ensemble)
    plain = run_ensemble(base_market, policies, ensemble)
    assert checked.n_paths == plain.n_paths
    assert checked.deltas == plain.deltas
    for rc, rp in zip(checked.reports, plain.reports):
        assert rc.consistent
        assert vars(rc) == vars(rp)


def test_custom_martingale_matches_optimal_cost(base_market, medium_noise):
    """Any feasible (m0, gamma) with the right column sums is cost-equivalent:
    the optimum is non-unique."""
    level = ell(base_market)
    gamma = tracking_gamma(list(base_market.firms))[::-1].copy()
    m0 = np.full(N_FIRMS, level) + np.linspace(-2e8, 2e8, N_FIRMS)
    custom = custom_martingale_policy(base_market, m0, gamma)
    sample = simulate_policy_paths(custom, base_market, medium_noise)
    opt = optimal_dynamic_policy(base_market)
    diff = sample.cost - opt.cost
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 4.0 * se + 1e-9 * abs(opt.cost)


def test_allocation_views_not_defined_for_tax_or_msr(base_market, medium_noise):
    with pytest.raises(UnsupportedInputError):
        allocation_views(tax_policy(base_market), base_market, medium_noise)
    with pytest.raises(UnsupportedInputError):
        allocation_views(msr_policy(base_market, 0.1), base_market, medium_noise)
