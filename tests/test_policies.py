import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from permitsim import (
    ClearingError,
    DiagnosticError,
    DomainError,
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
    equilibrium_frictions,
    estimate_eta_from_qv,
    f_coeff,
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
import permitsim.stochastic
from permitsim.equilibrium import frictionless_initial_price
from permitsim.policies import (
    StaticPolicy,
    allocation_views,
    cost_report_from_samples,
    run_ensemble,
)
from permitsim.stochastic import (
    NoisePaths,
    array_pool,
    integrate_increments,
    left_integral,
    weighted_mean_load,
)

import oracles
from conftest import N_FIRMS, count_calls, make_firms, make_market


def _wbar_row(noise, firms):
    """The block's row of the weighted mean shock (1/N) sum_i sigma_i dW_i."""
    return noise.row(weighted_mean_load(noise.ks, [fp.sigma for fp in firms]))


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


@pytest.mark.parametrize("target_compliance", [True, False])
@pytest.mark.parametrize(
    "where", ["m0 all", "m0 one", "gamma one"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_custom_policy_rejects_non_finite_inputs(base_market, where, value, target_compliance):
    m0 = np.full(N_FIRMS, ell(base_market))
    gamma = tracking_gamma(list(base_market.firms))
    if where == "m0 all":
        m0[:] = value
    elif where == "m0 one":
        m0[2] = value
    else:
        gamma[1, 0] = value
    with pytest.raises(UnsupportedInputError, match="finite"):
        custom_martingale_policy(
            base_market, m0, gamma, target_compliance=target_compliance
        )


def test_custom_policy_feasibility_fails_on_a_nan_sum():
    """Finite initial levels whose sum is NaN (numpy sums eight or more in
    pairs: (inf + 0) + (-inf + 0)) are infeasible, not target-compliant."""
    mkt = make_market(make_firms(8))
    m0 = np.array([1e308, 1e308, 0.0, 0.0, -1e308, -1e308, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(m0.sum())
        with pytest.raises(UnsupportedConfigurationError, match="nan"):
            custom_martingale_policy(mkt, m0, tracking_gamma(list(mkt.firms)))


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
    assert np.all(sample.price_qv == 0.0)
    # constant trajectories are read-only views, not per-path copies
    assert not sample.price.flags.writeable and not sample.total_bank.flags.writeable
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
    reference for the affine kernel, which agrees with it to roundoff."""
    grid = noise.grid
    t = grid.knots
    n, eta, h_bar, delta = mkt.n_firms, mkt.agg.eta_bar, mkt.agg.h_bar, policy.delta
    z = msr_z(delta, t, grid.horizon)
    big_f = msr_F(mkt, delta, t)
    ramp = (grid.horizon - t) * policy.x_bar0 / grid.horizon
    c1 = -big_f * (1.0 - delta * z)
    c0 = big_f * ((1.0 - delta * z) * ramp + z * (eta * h_bar - policy.x_bar0 / grid.horizon))
    d_wbar = _wbar_row(noise, mkt.firms)
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


@pytest.mark.parametrize("n_steps", [1, 5, 37, 300, 2000])
@pytest.mark.parametrize("delta", [0.1, 1.5])
@pytest.mark.parametrize("eta", [1e6, 1e9])
def test_msr_recursion_matches_the_per_step_loop(eta, delta, n_steps):
    """The kernel steps the Euler recursion in its affine form
    x_{k+1} = a_k x_k + u_k and sums the costs over time, so it rounds
    differently from the loop, by at most 1e-12 of each output's largest
    magnitude.  On 1 and 5 steps |a_k| is far from 1, and at eta = 1e9 the
    last Euler step overshoots the terminal bank."""
    firms = make_firms(eta=eta)
    mkt = make_market(firms)
    msr = msr_policy(mkt, delta)
    noise = generate_noise(17, TimeGrid(horizon=10.0, n_steps=n_steps), firms, n_paths=64)
    sample = simulate_policy_paths(msr, mkt, noise)
    want = _msr_per_step_loop(msr, mkt, noise)
    got = {
        "price": sample.price,
        "total_bank": sample.total_bank,
        "cost": sample.cost,
        "abatement": sample.parts["abatement"],
        "penalty": sample.parts["penalty"],
    }
    for name, value in got.items():
        np.testing.assert_allclose(
            value, want[name], rtol=0, atol=1e-12 * np.abs(want[name]).max(), err_msg=name
        )
    assert not sample.parts["trading"].any() and not sample.parts["tax"].any()


@pytest.mark.parametrize("delta", [1e6, 1e3], ids=["recursion", "penalty-square"])
def test_msr_overflow_is_a_domain_error(delta):
    """At 100 steps, delta = 1e6 makes |a_k| so large that the recursion
    overflows, and delta = 1e3 keeps it finite but overflows the penalty's
    square: a library caller gets DomainError, not a non-finite cost."""
    mkt = make_market()
    noise = generate_noise(3, TimeGrid(mkt.horizon, 100), mkt.firms, n_paths=8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match="finite"):
        simulate_policy_paths(msr_policy(mkt, delta), mkt, noise)


@pytest.mark.parametrize(
    "build, firm",
    [
        (optimal_dynamic_policy, {"h": 1e148}),
        (static_policy, {"h": 1e148}),
        (tax_policy, {"eta": 1e290}),
    ],
    ids=["optimal", "static", "tax"],
)
def test_martingale_and_tax_overflow_is_a_domain_error(build, firm):
    """h = 1e148 keeps the closed forms finite and clears the market but
    overflows the penalty's square of the optimal and static kernels; eta =
    1e290 overflows the tax's abatement: a library caller gets DomainError,
    not a non-finite cost."""
    mkt = make_market(make_firms(**firm))
    noise = generate_noise(3, TimeGrid(mkt.horizon, 100), mkt.firms, n_paths=8)
    with np.errstate(over="ignore", invalid="ignore"):
        policy = build(mkt)
        with pytest.raises(DomainError, match="run .* overflows: a cost"):
            simulate_policy_paths(policy, mkt, noise)


@pytest.mark.parametrize(
    "firm", [{"mu": 1e200}, {"mu": 1e308}, {"h": 1e150}], ids=["mu-1e200", "mu-1e308", "h-1e150"]
)
def test_closed_form_overflow_is_a_domain_error(firm):
    """Six firms at mu = 1e200 overflow ``p0**2`` in Python floats, mu =
    1e308 overflows the aggregates in numpy and h = 1e150 the optimal
    cost: every closed-form constructor raises DomainError, not
    OverflowError, and returns no policy holding inf or nan."""
    mkt = make_market(make_firms(**firm))
    with np.errstate(over="ignore", invalid="ignore"):
        for build in (optimal_dynamic_policy, static_policy, tax_policy):
            with pytest.raises(DomainError, match=f"{build.__name__} overflows"):
                build(mkt)


def test_msr_path_costs_do_not_depend_on_the_chunk_size():
    """The costs and terminal emissions are sums over time, knot by knot, for
    any chunk size: one path alone gives the bits it gives among others."""
    mkt = make_market()
    msr = msr_policy(mkt, 0.1)
    grid = TimeGrid(mkt.horizon, 300)
    per_size = []
    for chunk_size in (5, 2, 1):
        ensemble = PathEnsemble(seed=21, grid=grid, firms=mkt.firms, n_paths=5, chunk_size=chunk_size)
        [(cost, parts, emissions)] = permitsim.policies._simulate_runs([(mkt, msr)], ensemble)
        per_size.append((cost, parts["abatement"], parts["penalty"], emissions))
    for got in per_size[1:]:
        for a, b in zip(got, per_size[0]):
            np.testing.assert_array_equal(a, b)
    sample = simulate_policy_paths(msr, mkt, generate_noise(21, grid, mkt.firms, n_paths=1))
    np.testing.assert_array_equal(sample.terminal_emissions, sample.total_emissions[:, -1])


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


def test_msr_rejects_finite_depth(frictional_market, kernel_noise):
    with pytest.raises(UnsupportedInputError, match="finite depth"):
        simulate_policy_paths(msr_policy(frictional_market), frictional_market, kernel_noise)


@pytest.mark.parametrize("kind", ["optimal_dynamic", "static", "msr"])
def test_a_market_run_under_finite_depth_raises_before_the_first_draw(
    frictional_market, monkeypatch, kind
):
    """Every run is described before the first chunk is drawn, so a market
    run under finite depth raises without drawing one; the tax needs no
    market and still runs, on every chunk."""
    mkt = frictional_market
    policies = [tax_policy(mkt), build_policy(PolicySpec(kind=kind), mkt)]
    ensemble = PathEnsemble(
        seed=5, grid=TimeGrid(10.0, 20), firms=mkt.firms, n_paths=10, chunk_size=4
    )
    draws = count_calls(monkeypatch, permitsim.stochastic, "generate_noise")
    with pytest.raises(UnsupportedInputError, match="finite depth"):
        run_ensemble(mkt, policies, ensemble)
    assert draws == {"generate_noise": 0}
    [report] = run_ensemble(mkt, policies[:1], ensemble).reports
    assert draws == {"generate_noise": 3} and report.n_paths == 10


def test_martingale_kernel_still_checks_clearing(base_market, kernel_noise, monkeypatch):
    f_coeff = permitsim.equilibrium.f_coeff
    monkeypatch.setattr(
        permitsim.equilibrium, "f_coeff", lambda mkt, t: 1.01 * np.asarray(f_coeff(mkt, t))
    )
    for policy in _kernel_policies(base_market).values():
        with pytest.raises(ClearingError, match="frictionless"):
            simulate_policy_paths(policy, base_market, kernel_noise)


@pytest.mark.parametrize(
    "kind, name",
    [("static", "frictionless_price_step"), ("optimal_dynamic", "frictionless_initial_price")],
    ids=["weight", "start"],
)
def test_rows_that_break_the_clearing_identity_raise_before_the_first_draw(
    base_market, monkeypatch, kind, name
):
    """A martingale run checks once, when it is described, that its summed
    trades clear by construction: a price step (the static price moves) or
    a start P_0 (the optimal price does not) off by 1e-6 of itself breaks
    the summed trade's weight on the driver or its start, and raises
    `ClearingError` before any chunk is drawn."""
    real = getattr(permitsim.policies, name)
    monkeypatch.setattr(permitsim.policies, name, lambda *args: real(*args) * (1.0 + 1e-6))
    mkt = base_market
    ensemble = PathEnsemble(
        seed=5, grid=TimeGrid(10.0, 20), firms=mkt.firms, n_paths=10, chunk_size=4
    )
    draws = count_calls(monkeypatch, permitsim.stochastic, "generate_noise")
    with pytest.raises(ClearingError, match="frictionless"):
        run_ensemble(mkt, [tax_policy(mkt), build_policy(PolicySpec(kind=kind), mkt)], ensemble)
    assert draws == {"generate_noise": 0}


def _all_simulated_policies(mkt):
    """Every policy the market admits: the kernel's plus tax and MSR."""
    policies = dict(_kernel_policies(mkt))
    homogeneous = {
        name: len({getattr(fp, name) for fp in mkt.firms}) == 1
        for name in ("sigma", "eta", "h")
    }
    if homogeneous["eta"]:
        policies["tax"] = tax_policy(mkt)
    if all(homogeneous.values()):
        policies["msr"] = msr_policy(mkt, 0.1)
    return policies


@pytest.mark.parametrize(
    "market_name, kind",
    [
        (name, kind)
        for name, mkt in _KERNEL_MARKETS.items()
        for kind in _all_simulated_policies(mkt)
    ],
)
def test_terminal_emissions_are_the_last_knot(market_name, kind):
    """On blocks of 40 paths, 1 path, 1 step and the default chunk size, in an
    array pool as in the chunk loop: the terminal emissions are the last knot
    of the trajectory built on first access, and the cost, its parts and the
    terminal emissions have the same bits whether the trajectories were
    read first or never."""
    mkt = _KERNEL_MARKETS[market_name]
    policy = _all_simulated_policies(mkt)[kind]
    for n_steps, n_paths in ((300, 40), (300, 1), (1, 40), (1, 1), (300, None)):
        grid = TimeGrid(mkt.horizon, n_steps)
        if n_paths is None:
            n_paths = PathEnsemble(65, grid, mkt.firms, 1).chunk_size
        noise = generate_noise(65, grid, mkt.firms, n_paths)
        with array_pool():
            costs_only = simulate_policy_paths(policy, mkt, noise)
            sample = simulate_policy_paths(policy, mkt, noise)
            for name in _TRAJECTORY_FIELDS[1:] + ("price_qv",):
                getattr(sample, name)
        np.testing.assert_array_equal(sample.terminal_emissions, sample.total_emissions[:, -1])
        # an array of its own, which pins no trajectory
        assert not np.shares_memory(sample.terminal_emissions, sample.total_emissions)
        for got, want in [
            (sample.cost, costs_only.cost),
            (sample.terminal_emissions, costs_only.terminal_emissions),
            *((sample.parts[key], costs_only.parts[key]) for key in costs_only.parts),
        ]:
            assert got.tobytes() == want.tobytes(), (n_steps, n_paths)


@pytest.mark.parametrize(
    "kind, integrations", [("optimal_dynamic", 2), ("custom_martingale", 2), ("static", 1)]
)
def test_reading_every_trajectory_builds_each_shared_path_once(
    base_market, monkeypatch, kind, integrations
):
    """The five trajectories of an 8-path sample are built together, on the
    first read of any of them: one left integral of the abated total, and one
    running sum per distinct path, the shock sum and, when the allocation
    moves (the optimal and the non-tracking custom policy), the expected
    allocation.  Reading them again builds nothing."""
    policy = _kernel_policies(base_market)[kind]
    noise = generate_noise(66, TimeGrid(base_market.horizon, 300), base_market.firms, 8)
    sample = simulate_policy_paths(policy, base_market, noise)
    calls = count_calls(monkeypatch, permitsim.policies, "integrate_increments", "left_integral")
    for name in _TRAJECTORY_FIELDS * 2:
        getattr(sample, name)
    assert calls == {"integrate_increments": integrations, "left_integral": 1}


def test_the_four_standard_policies_take_one_total_per_distinct_row(base_market):
    """Every kernel reads its terminal shock sum from the block: the optimal,
    static and MSR runs share the weighted-mean row's total and the tax reads
    the shock-sum row's, so a block drawn with the runs' rows and no total
    sums two rows, in that order, each the last knot of its running sum."""
    policies = [
        build_policy(PolicySpec(kind=kind), base_market)
        for kind in ("optimal_dynamic", "static", "msr", "tax")
    ]
    grid = TimeGrid(base_market.horizon, 300)
    described = [permitsim.policies._describe(base_market, p, grid) for p in policies]
    loads = [load for run in described for load in (*run.cost_rows, *run.trajectory_rows)]
    noise = generate_noise(72, grid, base_market.firms, 40, loads=loads)
    assert not noise._totals
    for policy in policies:
        simulate_policy_paths(policy, base_market, noise)
    firms = base_market.firms
    wbar = weighted_mean_load(noise.ks, [fp.sigma for fp in firms])
    shock_sum = tracking_gamma(firms).sum(axis=0)
    assert list(noise._totals) == [wbar.tobytes(), shock_sum.tobytes()]
    for load in (wbar, shock_sum):
        want = integrate_increments(noise.row(load))[:, -1]
        assert noise._totals[load.tobytes()].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["optimal_dynamic", "custom_martingale"])
def test_a_tracking_policys_total_bank_starts_at_its_endowment(kind):
    """The firms' trends are summed once per run: on 9 firms whose Python
    and numpy trend sums differ, a policy that allocates the trends starts
    its summed bank at sum_i m0_i to the bit."""
    mus = np.random.default_rng(2).uniform(1e8, 4e8, 9)
    assert float(mus.sum()) != sum(mus.tolist())
    firms = tuple(replace(fp, mu=float(mu)) for fp, mu in zip(make_firms(9), mus))
    mkt = make_market(firms)
    opt = optimal_dynamic_policy(mkt)
    policy = opt
    if kind == "custom_martingale":
        gamma = np.linspace(-1.0, 1.0, 90).reshape(9, 10) * 1e7
        policy = custom_martingale_policy(mkt, opt.m0, gamma)
    noise = generate_noise(73, TimeGrid(mkt.horizon, 50), firms, 4)
    sample = simulate_policy_paths(policy, mkt, noise)
    assert np.all(sample.total_bank[:, 0] == policy.m0.sum())


@pytest.mark.parametrize("market_name", ["base", "mixed", "mixed_eta"])
def test_optimal_price_is_a_read_only_constant(market_name):
    mkt = _KERNEL_MARKETS[market_name]
    grid = TimeGrid(mkt.horizon, 300)
    noise = generate_noise(66, grid, mkt.firms, 40)
    opt = optimal_dynamic_policy(mkt)
    sample = simulate_policy_paths(opt, mkt, noise)
    p0 = frictionless_initial_price(mkt, grid, float(opt.m0.mean()))
    assert sample.price.shape == (40, 301)
    assert not sample.price.flags.writeable
    assert np.all(sample.price == p0)
    assert p0 == pytest.approx(opt.p0, rel=1e-12)
    assert np.all(sample.price_qv == 0.0)


@pytest.mark.parametrize("market_name", ["base", "mixed", "mixed_eta"])
def test_optimal_cost_is_one_number_on_every_path(market_name):
    """Nothing surprises the market, so no path's cost differs from another's,
    and each firm's terminal bank is -P0 / (2 lam): the penalty is N P0^2 / (4 lam)."""
    mkt = _KERNEL_MARKETS[market_name]
    noise = generate_noise(67, TimeGrid(mkt.horizon, 300), mkt.firms, 40)
    sample = simulate_policy_paths(optimal_dynamic_policy(mkt), mkt, noise)
    assert np.ptp(sample.cost) == 0.0
    p0 = sample.price[0, 0]
    want = mkt.n_firms * p0**2 / (4.0 * mkt.penalty)
    assert np.abs(sample.parts["penalty"] - want).max() <= 1e-14 * want


def test_static_kernel_price_is_the_euler_price(base_market, kernel_noise):
    sample = simulate_policy_paths(static_policy(base_market), base_market, kernel_noise)
    want = static_price_paths(base_market, kernel_noise, method="euler")
    assert np.abs(sample.price - want).max() <= 1e-12 * np.abs(want).max()


def test_static_kernel_price_is_its_rows_running_sum(base_market):
    """The static kernel's price is the rows' p0 plus the running sum of the
    rows' step times the driver, bit for bit, on a 3-path block; the step is
    f(t_k) on the left knots and the driver the weighted mean shock."""
    grid = TimeGrid(base_market.horizon, 300)
    stat = static_policy(base_market)
    noise = generate_noise(74, grid, base_market.firms, 3)
    rows = permitsim.policies._describe(base_market, stat, grid).rows
    assert rows.step.tobytes() == f_coeff(base_market, grid.knots[:-1]).tobytes()
    driver = noise.row(rows.driver_load)
    assert driver is _wbar_row(noise, base_market.firms)
    price = simulate_policy_paths(stat, base_market, noise).price
    assert price.shape == (3, 301)
    assert np.all(price[:, 0] == rows.p0)
    want = np.cumsum(rows.step * driver, axis=-1) + rows.p0
    assert price[:, 1:].tobytes() == want.tobytes()


def test_static_kernel_memory_is_flat_in_the_firm_count():
    """The kernel sums over the firms before it integrates: its traced
    allocation peak with 24 firms is within 1.5 times the peak with 3."""
    peaks = {}
    for n in (3, 24):
        mkt = make_market(make_firms(n, sigma=0.2e9 / math.sqrt(n), mu=2e9 / n))
        noise = generate_noise(68, TimeGrid(mkt.horizon, 500), mkt.firms, 64)
        policy = static_policy(mkt)
        tracemalloc.start()
        try:
            simulate_policy_paths(policy, mkt, noise)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[24] <= 1.5 * peaks[3], peaks


@pytest.mark.parametrize("kind", ["static", "optimal_dynamic", "tax", "msr"])
def test_costs_only_call_keeps_no_trajectory(base_market, kind):
    """A call whose trajectories are never read takes its per-path sums over
    blocks of scratch arrays: on the noise rows and totals a chunk draws for
    it, it keeps no (P, M+1) path array after it returns, only the
    sample's (P,) scalars and a few (M+1,) rows, and it peaks at two
    scratches of SCRATCH_DOUBLES doubles, the most any kernel's pooled
    scratch holds.  The block is a default chunk of the headline grid, 256
    paths x 2000 steps (static row blocks of 16 paths, MSR blocks of 127
    knots), on which numpy's fixed ufunc buffers (~0.15 MB) are small."""
    policy = build_policy(PolicySpec(kind=kind), base_market)
    grid = TimeGrid(base_market.horizon, 2000)
    run = permitsim.policies._describe(base_market, policy, grid)
    noise = generate_noise(69, grid, base_market.firms, 256, loads=run.cost_rows, totals=run.totals)
    knots = grid.n_steps + 1
    path_bytes = noise.n_paths * knots * 8
    vector_bytes = (noise.n_paths + knots) * 8
    scratch_bytes = permitsim.stochastic.SCRATCH_DOUBLES * 8
    assert scratch_bytes < 0.26 * path_bytes
    tracemalloc.start()
    try:
        sample = simulate_policy_paths(policy, base_market, noise)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 16 * vector_bytes, kept / path_bytes
    assert peak <= 2 * scratch_bytes + 16 * vector_bytes, peak / path_bytes
    assert sample.cost.shape == (256,)
    assert "_trajectories" not in sample.__dict__


def test_a_nan_in_a_later_block_fails_the_clearing_check(base_market):
    """The static price is built one row block of 16 paths at a time, and the
    kernel checks that every path's price is finite at its last knot; a NaN
    in the third block of the price's driver must fail that check."""
    stat = static_policy(base_market)
    grid = TimeGrid(base_market.horizon, 2000)
    loads = permitsim.policies._describe(base_market, stat, grid).cost_rows
    drawn = generate_noise(70, grid, base_market.firms, 256, loads=loads)
    rows = [(np.asarray(load, dtype=float), drawn.row(load).copy()) for load in loads]
    wbar_load = weighted_mean_load(
        [fp.k for fp in base_market.firms], [fp.sigma for fp in base_market.firms]
    )
    [driver] = [row for load, row in rows if np.array_equal(load, wbar_load)]
    driver[40, 1000] = np.nan
    noise = NoisePaths(70, 0, grid, drawn.ks, n_paths=256, rows=rows)
    with pytest.raises(ClearingError, match="frictionless"):
        simulate_policy_paths(stat, base_market, noise)


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


def _spy_samples(monkeypatch, seen):
    """Call ``seen(noise, sample)`` on every sample the chunk loop makes, as it
    is made: a spy on `_simulate_stack`, the kernels' entry point, which
    every sample comes out of.  The spy keeps no sample."""
    stacked = permitsim.policies._simulate_stack

    def stepping(runs, noise):
        for sample in stacked(runs, noise):
            seen(noise, sample)
            yield sample
            del sample  # before the next sample is built

    monkeypatch.setattr(permitsim.policies, "_simulate_stack", stepping)


def test_run_ensemble_describes_each_run_once(base_market, monkeypatch):
    """Each run's kernel rows are built once per ensemble, not per chunk:
    over three chunks the optimal and static runs build their
    `_martingale_rows` once each and the MSR run its `_msr_rows` once."""
    grid = TimeGrid(horizon=10.0, n_steps=20)
    ensemble = PathEnsemble(
        seed=5, grid=grid, firms=base_market.firms, n_paths=10, chunk_size=4
    )
    policies = _four_policies(base_market)
    draws = count_calls(monkeypatch, permitsim.stochastic, "generate_noise")
    built = count_calls(monkeypatch, permitsim.policies, "_martingale_rows", "_msr_rows")
    run_ensemble(base_market, policies, ensemble)
    assert draws == {"generate_noise": 3}
    assert built == {"_martingale_rows": 2, "_msr_rows": 1}


def test_run_ensemble_keeps_no_trajectory(base_market, monkeypatch):
    """No sample outlives its chunk's use of it: when the next simulation
    starts, every earlier sample's emissions array is gone.  Keeping a view
    of the terminal emissions, or the last sample itself, would keep the
    whole array alive."""
    grid = TimeGrid(horizon=10.0, n_steps=20)
    ensemble = PathEnsemble(
        seed=5, grid=grid, firms=base_market.firms, n_paths=10, chunk_size=4
    )
    refs = []
    live_at_call = []
    real = permitsim.policies._simulate_stack

    def counting(runs, noise):
        gc.collect()
        live_at_call.append(sum(ref() is not None for ref in refs))
        return real(runs, noise)

    monkeypatch.setattr(permitsim.policies, "_simulate_stack", counting)
    _spy_samples(
        monkeypatch, lambda noise, sample: refs.append(weakref.ref(sample.total_emissions))
    )
    result = run_ensemble(base_market, _four_policies(base_market), ensemble)
    gc.collect()
    assert live_at_call == [0] * (3 * 4)
    assert len(refs) == 3 * 4
    assert all(ref() is None for ref in refs)
    assert all(r.n_paths == 10 for r in result.reports)


def test_run_ensemble_builds_no_trajectory_its_hook_does_not_read(base_market, monkeypatch):
    """A spy that keeps every sample, and reads none, finds no trajectory built."""
    grid = TimeGrid(horizon=10.0, n_steps=20)
    ensemble = PathEnsemble(
        seed=5, grid=grid, firms=base_market.firms, n_paths=10, chunk_size=4
    )
    samples = []
    _spy_samples(monkeypatch, lambda noise, sample: samples.append(sample))
    run_ensemble(base_market, _four_policies(base_market), ensemble)
    built_on_access = ("_trajectories", "price_qv")
    assert len(samples) == 3 * 4
    assert not any(name in s.__dict__ for s in samples for name in built_on_access)
    samples[0].total_bank  # the check above would see a built trajectory
    assert "_trajectories" in samples[0].__dict__


def test_samples_kept_past_their_chunk_are_not_written_over(base_market, monkeypatch):
    """The chunk loop reuses its path arrays (`array_pool`) only once
    nothing refers to them: a sample a spy keeps past its chunk keeps
    its numbers, equal to those of the policy simulated alone."""
    grid = TimeGrid(horizon=10.0, n_steps=20)
    ensemble = PathEnsemble(
        seed=5, grid=grid, firms=base_market.firms, n_paths=10, chunk_size=4
    )
    policies = {p.kind: p for p in _four_policies(base_market)}
    kept = []
    _spy_samples(monkeypatch, lambda noise, sample: kept.append((noise, sample)))
    run_ensemble(base_market, list(policies.values()), ensemble)
    monkeypatch.undo()
    assert len(kept) == 3 * 4
    for noise, sample in kept:
        alone = simulate_policy_paths(policies[sample.kind], base_market, noise)
        for name in ("price", "total_bank", "total_emissions", "avg_abatement"):
            np.testing.assert_array_equal(getattr(sample, name), getattr(alone, name))


def _recorded_pools(monkeypatch):
    """The list of every `array_pool` entered from now on, in order."""
    pools = []
    real_pool = permitsim.stochastic._ArrayPool

    def recording():
        pools.append(real_pool())
        return pools[-1]

    monkeypatch.setattr(permitsim.stochastic, "_ArrayPool", recording)
    return pools


def test_the_chunk_loop_takes_its_arrays_from_one_pool(base_market, monkeypatch):
    """Every chunk after the first reuses the arrays of the one before: the
    pool holds no more arrays after six chunks than after two."""
    pools = _recorded_pools(monkeypatch)
    grid = TimeGrid(horizon=10.0, n_steps=20)
    for n_paths in (8, 24):
        ensemble = PathEnsemble(
            seed=5, grid=grid, firms=base_market.firms, n_paths=n_paths, chunk_size=4
        )
        run_ensemble(base_market, _four_policies(base_market), ensemble)
    two, six = (len(pool._bases) for pool in pools)
    assert 0 < two == six


@pytest.mark.parametrize(
    "n_paths, n_steps, bases",
    [(512, 2000, [516096, 65536]), (2570, 50, [65536, 65536]), (512, 300, [81920, 65536])],
)
def test_a_standard_chunk_loop_ends_on_two_pool_bases(
    base_market, monkeypatch, n_paths, n_steps, bases
):
    """The four standard policies' chunk loop, drawn on one CPU, ends with
    two pool bases, in doubles: the chunk's one loading row (the weighted
    mean shock, pooled at its (P, M) size and rounded up to whole 64 KiB)
    and the scratch of SCRATCH_DOUBLES that the draw, the kernels and the
    MSR's rolling blocks share.  A third base, or a larger one, is a chunk
    holding more."""
    monkeypatch.setattr(permitsim.stochastic, "_cpu_count", lambda: 1)
    pools = _recorded_pools(monkeypatch)
    grid = TimeGrid(horizon=10.0, n_steps=n_steps)
    ensemble = PathEnsemble(seed=5, grid=grid, firms=base_market.firms, n_paths=n_paths)
    assert n_paths == 2 * ensemble.chunk_size
    run_ensemble(base_market, _four_policies(base_market), ensemble)
    (pool,) = pools
    assert [base.size for base in pool._bases] == bases


def test_run_ensemble_never_derives_the_firm_shocks(base_market, monkeypatch):
    """Every policy reads only the independent drivers d_tilde, so no chunk
    ever builds its (n_paths, N, M) per-firm increments d_firm."""
    grid = TimeGrid(horizon=10.0, n_steps=20)
    ensemble = PathEnsemble(
        seed=5, grid=grid, firms=base_market.firms, n_paths=10, chunk_size=4
    )
    noises = []
    _spy_samples(monkeypatch, lambda noise, sample: noises.append(noise))
    run_ensemble(base_market, _four_policies(base_market), ensemble)
    assert len(noises) == 3 * 4
    assert all("d_firm" not in noise.__dict__ for noise in noises)
    noises[0].d_firm  # the check above would see a derived array
    assert "d_firm" in noises[0].__dict__


def test_standard_runs_draw_only_loading_rows(base_market, monkeypatch):
    """Each chunk keeps only the loading rows its runs' costs read, and the
    totals of the loads they read only through their totals: no standard
    policy, nor a custom one with non-tracking loadings, makes a chunk draw
    its (n_paths, N+1, M) drivers d_tilde.  The four standard policies read
    one row, the weighted-mean shock (the static and MSR price driver), its
    total (every run but the tax) and the shock sum's total (the tax); the
    custom policy its surprise loading, its price driver.  The runs go in run
    order, and every run of a chunk sees the rows and totals the chunk was
    drawn with and no other: the weighted-mean row's total is summed in the
    draw, from the kept row, so no reader computes it after the draw."""
    custom = custom_martingale_policy(
        base_market,
        np.zeros(N_FIRMS),
        0.5 * tracking_gamma(base_market.firms),
        target_compliance=False,
    )
    firms = base_market.firms
    wbar = weighted_mean_load([fp.k for fp in firms], [fp.sigma for fp in firms]).tobytes()
    shock_sum = tracking_gamma(firms).sum(axis=0).tobytes()
    surprise = (custom.gamma - tracking_gamma(firms)).mean(axis=0).tobytes()
    grid = TimeGrid(horizon=10.0, n_steps=20)
    ensemble = PathEnsemble(
        seed=5, grid=grid, firms=base_market.firms, n_paths=10, chunk_size=4
    )
    seen = []
    _spy_samples(
        monkeypatch,
        lambda noise, sample: seen.append(
            (sample.kind, "d_tilde" in noise.__dict__, set(noise._rows), set(noise._totals))
        ),
    )
    real_draw = permitsim.stochastic.generate_noise
    kept = []

    def drawing(*args, **kwargs):
        noise = real_draw(*args, **kwargs)
        kept.append((set(noise._rows), set(noise._totals)))
        return noise

    monkeypatch.setattr(permitsim.stochastic, "generate_noise", drawing)
    run_ensemble(base_market, [*_four_policies(base_market), custom], ensemble)
    kinds = [PolicyKind(k) for k in ("optimal_dynamic", "static", "tax", "msr", "custom_martingale")]
    assert [(kind, drew) for kind, drew, _, _ in seen] == [(kind, False) for kind in kinds] * 3
    assert kept == [({wbar, surprise}, {wbar, shock_sum})] * 3
    runs = len(kinds)
    for chunk, (rows, totals) in enumerate(kept):
        for _, _, run_rows, run_totals in seen[chunk * runs : (chunk + 1) * runs]:
            assert (run_rows, run_totals) == (rows, totals)


def _traced_peak_of_two_standard_chunks(mkt):
    """tracemalloc's peak over `run_ensemble` of the four standard policies on
    two default 256 x 2000 chunks."""
    grid = TimeGrid(mkt.horizon, 2000)
    ensemble = PathEnsemble(seed=71, grid=grid, firms=mkt.firms, n_paths=512)
    assert ensemble.chunk_size == 256
    tracemalloc.start()
    try:
        result = run_ensemble(mkt, _four_policies(mkt), ensemble)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_paths == 512
    return peak


def test_a_standard_chunk_never_holds_both_rows_beside_a_path_array(base_market, monkeypatch):
    """The four standard policies' costs, on two 256 x 2000 chunks drawn on
    one CPU, peak below one (P, M) loading row plus one (P, M+1) path
    array: a chunk keeps the weighted-mean row and the shock sum's total,
    the static price is built one row block at a time and the MSR steps
    through a rolling block of knots."""
    monkeypatch.setattr(permitsim.stochastic, "_cpu_count", lambda: 1)
    row_bytes = 256 * 2000 * 8
    path_bytes = 256 * 2001 * 8
    peak = _traced_peak_of_two_standard_chunks(base_market)
    assert peak < row_bytes + path_bytes, peak / path_bytes


def test_the_draw_scratch_does_not_grow_with_the_cpus(base_market, monkeypatch):
    """A split draw cuts one pooled scratch among its slices, so the traced
    peak of two standard 256 x 2000 chunks is the same on 1, 2 and 8 CPUs
    (1, 2 and 3 slices), up to less than one 64 KiB pool grain; a scratch
    of its own per slice added about 1 MB per slice.  A first run creates
    the slice threads and every first-use state."""
    monkeypatch.setattr(permitsim.stochastic, "_cpu_count", lambda: 8)
    _traced_peak_of_two_standard_chunks(base_market)
    peaks = {}
    for cpus in (1, 2, 8):
        monkeypatch.setattr(permitsim.stochastic, "_cpu_count", lambda: cpus)
        peaks[cpus] = _traced_peak_of_two_standard_chunks(base_market)
    assert max(peaks[2], peaks[8]) < peaks[1] + 8 * permitsim.stochastic._POOL_GRAIN, peaks


def _ci_custom_policy(mkt):
    """The custom policy of the CI smoke runs: loadings that do not track the
    shocks, so the price moves and each chunk keeps its price driver's row."""
    n = mkt.n_firms
    gamma = np.zeros((n, n + 1))
    gamma[:, 0] = 5e7
    gamma[np.arange(n), np.arange(1, n + 1)] = 2e7
    return custom_martingale_policy(mkt, np.full(n, -7e8), gamma, target_compliance=False)


def _permuted_tracking_policy(mkt):
    """Tracking loadings with the firms' rows permuted: the firm-mean surprise
    is 0, the loading sum is not."""
    gamma = tracking_gamma(mkt.firms)[np.roll(np.arange(mkt.n_firms), 1)]
    return custom_martingale_policy(mkt, np.zeros(mkt.n_firms), gamma, target_compliance=False)


def _zero_gamma_policy(mkt):
    """No loading at all: the price driver is the weighted mean shock row."""
    n = mkt.n_firms
    return custom_martingale_policy(
        mkt, np.full(n, -7e8), np.zeros((n, n + 1)), target_compliance=False
    )


@pytest.mark.parametrize(
    "build, n_cost_rows",
    [
        (_zero_gamma_policy, 1),
        (_permuted_tracking_policy, 0),
        (_ci_custom_policy, 1),
        (optimal_dynamic_policy, 0),
        (static_policy, 1),
        (tax_policy, 0),
        (msr_policy, 1),
    ],
    ids=["gamma-0", "permuted-tracking", "non-tracking", "optimal", "static", "tax", "msr"],
)
def test_a_run_reads_exactly_what_it_declares(base_market, build, n_cost_rows):
    """A block drawn with exactly one run's declared rows and totals
    (`_describe`) never draws d_tilde and caches no further row or total
    when the run's costs are taken, and neither does the written block when
    every trajectory is read; the costs have the bits of a block that holds
    d_tilde.  The custom cases are the edges of the martingale reads: gamma
    0 (the driver is the weighted mean shock), tracking loadings on permuted
    firms (no surprise, a loading sum) and non-tracking loadings."""
    mkt = base_market
    policy = build(mkt)
    grid = TimeGrid(mkt.horizon, 50)
    run = permitsim.policies._describe(mkt, policy, grid)
    assert len(run.cost_rows) == n_cost_rows
    wbar = weighted_mean_load([fp.k for fp in mkt.firms], [fp.sigma for fp in mkt.firms])
    if build is _zero_gamma_policy:
        assert run.cost_rows[0].tobytes() == wbar.tobytes() and run.rows.alloc_load is None
    if build is _permuted_tracking_policy:
        assert run.rows.driver_load is None and run.rows.alloc_load.any()
    whole = simulate_policy_paths(policy, mkt, generate_noise(76, grid, mkt.firms, 12))
    for loads, fields in [
        (run.cost_rows, ()),
        ([*run.cost_rows, *run.trajectory_rows], _TRAJECTORY_FIELDS + ("price_qv",)),
    ]:
        noise = generate_noise(76, grid, mkt.firms, 12, loads=loads, totals=run.totals)
        declared = (set(noise._rows), set(noise._totals))
        sample = simulate_policy_paths(policy, mkt, noise)
        for name in fields:
            getattr(sample, name)
        assert "d_tilde" not in noise.__dict__
        assert (set(noise._rows), set(noise._totals)) == declared
        assert sample.cost.tobytes() == whole.cost.tobytes()


def test_run_ensemble_does_not_depend_on_chunking(base_market):
    """The per-path costs, cost parts and terminal emissions of the four
    standard policies and a custom one have the same bits on every chunking.
    At 2000 steps the static kernel reduces row blocks of 16 paths: chunks
    of 17 and 19 paths end on a one-path and a three-path block, and a
    lone-path chunk is the lone-path branch of the MSR's `_time_sum`.  At
    50 steps every chunk is one block."""
    runs = [(base_market, p) for p in [*_four_policies(base_market), _ci_custom_policy(base_market)]]
    rows = permitsim.stochastic.SCRATCH_DOUBLES // (2 * 2001)
    assert (rows, 17 % rows, 19 % rows) == (16, 1, 3)
    for n_steps, n_paths, chunk_sizes in [(2000, 289, (256, 1, 17, 19)), (50, 300, (256, 1, 100))]:
        grid = TimeGrid(horizon=10.0, n_steps=n_steps)
        per_size = []
        for chunk_size in chunk_sizes:
            ensemble = PathEnsemble(
                seed=21, grid=grid, firms=base_market.firms, n_paths=n_paths, chunk_size=chunk_size
            )
            per_size.append([
                [cost, *(parts[key] for key in sorted(parts)), emissions]
                for cost, parts, emissions in permitsim.policies._simulate_runs(runs, ensemble)
            ])
        want = per_size[0]
        for chunk_size, got in zip(chunk_sizes[1:], per_size[1:]):
            for (_, policy), got_run, want_run in zip(runs, got, want):
                for a, b in zip(got_run, want_run):
                    assert a.shape == (n_paths,)
                    assert np.array_equal(a.view(np.int64), b.view(np.int64)), (
                        n_steps, chunk_size, policy.kind
                    )


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


def test_run_ensemble_reports_what_the_chunks_samples_report(base_market):
    """The chunk loop keeps only the cost parts that vary by path and the
    terminal emissions, and sums each run's cost from its concatenated
    parts: its reports and deltas equal, field by field, those built from
    each chunk's `simulate_policy_paths` sample, with the samples' costs,
    parts and terminal emissions concatenated.  Four chunks at 50 steps, the
    last a short one, on the four standard policies and the CI custom
    policy, whose allocation moves and whose penalty varies by path."""
    policies = [*_four_policies(base_market), _ci_custom_policy(base_market)]
    ensemble = PathEnsemble(
        seed=23, grid=TimeGrid(10.0, 50), firms=base_market.firms, n_paths=350, chunk_size=100
    )
    result = run_ensemble(base_market, policies, ensemble)
    chunks = [
        [simulate_policy_paths(policy, base_market, noise) for policy in policies]
        for noise in ensemble.chunks()
    ]
    assert len(chunks) == 4
    costs = {}
    for policy, report, samples in zip(policies, result.reports, zip(*chunks)):
        cost = np.concatenate([s.cost for s in samples])
        parts = {key: np.concatenate([s.parts[key] for s in samples]) for key in samples[0].parts}
        emissions = np.concatenate([s.terminal_emissions for s in samples])
        assert vars(report) == vars(cost_report_from_samples(policy, cost, parts, emissions))
        costs[policy.kind.value] = cost
    kinds = list(costs)
    assert result.deltas == {
        (a, b): permitsim.policies._mean_se(costs[a] - costs[b])
        for i, a in enumerate(kinds)
        for b in kinds[i + 1 :]
    }
    assert result.n_paths == 350


def test_constant_cost_parts_are_read_only_stride_0_views(base_market, kernel_noise):
    """A cost part that is the same on every path is a read-only view with
    stride 0 of one value, so a chunk keeps no (P,) array of it: every part
    of the optimal policy, the tax's abatement, trading and penalty, and
    every other policy's trading and tax.  Clearing makes every policy's
    trading part exactly 0.  Every other part is a (P,) array of its own
    values."""
    constant = {
        PolicyKind.OPTIMAL_DYNAMIC: {"abatement", "trading", "penalty", "tax"},
        PolicyKind.STATIC: {"trading", "tax"},
        PolicyKind.TAX: {"abatement", "trading", "penalty"},
        PolicyKind.MSR: {"trading", "tax"},
        PolicyKind.CUSTOM_MARTINGALE: {"trading", "tax"},
    }
    for policy in [*_four_policies(base_market), _ci_custom_policy(base_market)]:
        sample = simulate_policy_paths(policy, base_market, kernel_noise)
        for key, part in sample.parts.items():
            assert part.shape == (kernel_noise.n_paths,)
            if key in constant[policy.kind]:
                assert part.strides == (0,) and not part.flags.writeable, (policy.kind, key)
            else:
                assert part.strides == (8,) and np.unique(part).size > 1, (policy.kind, key)
        assert (sample.parts["trading"] == 0.0).all(), policy.kind


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


@pytest.mark.parametrize("eta", [1e6, 1.778279410038923e6, 1e8, 3.1622776601683795e8])
def test_tax_rate_is_the_optimal_price_for_every_eta(eta):
    """The tax is the optimal policy's constant price, bit for bit, at any
    flexibility, not only where two formulas happen to round alike."""
    mkt = make_market(make_firms(eta=eta))
    assert tax_policy(mkt).tau == optimal_dynamic_policy(mkt).p0


# --- noise drawn for other firms ---------------------------------------------

_FOREIGN_FIRMS = {"other_k": make_firms(k=0.2), "other_count": make_firms(2)}


@pytest.fixture(scope="module", params=sorted(_FOREIGN_FIRMS))
def foreign_noise(request):
    """A noise block drawn for other firms than the default market's."""
    return generate_noise(3, TimeGrid(10.0, 20), _FOREIGN_FIRMS[request.param], 4)


@pytest.mark.parametrize("kind", ["optimal_dynamic", "static", "msr", "tax"])
def test_simulate_rejects_noise_drawn_for_other_firms(base_market, foreign_noise, kind):
    policy = build_policy(PolicySpec(kind=kind), base_market)
    with pytest.raises(UnsupportedInputError, match="noise block"):
        simulate_policy_paths(policy, base_market, foreign_noise)


def test_static_price_paths_rejects_noise_drawn_for_other_firms(base_market, foreign_noise):
    with pytest.raises(UnsupportedInputError, match="noise block"):
        static_price_paths(base_market, foreign_noise)


def test_allocation_views_reject_noise_drawn_for_other_firms(base_market, foreign_noise):
    with pytest.raises(UnsupportedInputError, match="noise block"):
        allocation_views(optimal_dynamic_policy(base_market), base_market, foreign_noise)


@pytest.mark.parametrize("depth", ["inf", 1e6])
def test_equilibria_reject_noise_drawn_for_other_firms(foreign_noise, depth):
    mkt = make_market(depth=float(depth))
    solve = equilibrium_frictionless if mkt.is_frictionless else equilibrium_frictions
    own_noise = generate_noise(3, foreign_noise.grid, mkt.firms, foreign_noise.n_paths)
    views = allocation_views(static_policy(mkt), mkt, own_noise)
    with pytest.raises(UnsupportedInputError, match="noise block"):
        solve(mkt, views, foreign_noise)


@pytest.mark.parametrize("name", sorted(_FOREIGN_FIRMS))
def test_compare_rejects_an_ensemble_drawn_for_other_firms(base_market, name):
    ensemble = PathEnsemble(3, TimeGrid(10.0, 20), _FOREIGN_FIRMS[name], 4)
    with pytest.raises(UnsupportedInputError, match="noise block"):
        compare_policies(base_market, _four_policies(base_market), ensemble)


# --- MSR runs stacked on one noise block --------------------------------------

_SAMPLE_FIELDS = (
    "price",
    "total_bank",
    "avg_abatement",
    "total_emissions",
    "net_allocation_minus_initial",
    "price_qv",
    "cost",
    "terminal_emissions",
)


def _msr_runs(etas):
    """One MSR run per eta, on firms that differ from run to run in h and the
    run's delta too, but share the volatilities that fix the average shock."""
    runs = []
    for i, eta in enumerate(etas):
        mkt = make_market(make_firms(eta=float(eta), h=(25.0, 30.0, 20.0)[i % 3]))
        runs.append((mkt, msr_policy(mkt, (0.1, 0.25)[i % 2])))
    return runs


@pytest.mark.parametrize(
    "n_etas, n_steps, stacks",
    [(9, 20, [6, 3]), (13, 4, [5, 5, 3])],
    ids=["9-etas-20-steps", "13-etas-4-steps"],
)
def test_stacked_msr_samples_equal_single_runs_to_the_bit(
    monkeypatch, n_etas, n_steps, stacks
):
    """A stack holds at most (N+1) M // (M+1) runs; every field of each
    stacked run's sample is what simulate_policy_paths gives for that run
    alone, on a whole chunk and one of 44 paths."""
    runs = _msr_runs(np.geomspace(1e6, 1e9, n_etas))
    real = permitsim.policies._simulate_msr
    sizes = []

    def spy(stack, noise):
        sizes.append(len(stack))
        samples = real(stack, noise)
        if len(stack) == 1:  # a reference run below
            yield from samples
            return
        for sample in samples:
            same_as_alone(noise, sample)
            yield sample

    monkeypatch.setattr(permitsim.policies, "_simulate_msr", spy)
    offsets = []

    def same_as_alone(noise, sample):
        mkt, policy = runs[len(offsets) % len(runs)]
        alone = simulate_policy_paths(policy, mkt, noise)
        for name in _SAMPLE_FIELDS:
            assert np.array_equal(getattr(sample, name), getattr(alone, name)), name
        assert sample.parts.keys() == alone.parts.keys()
        for key in alone.parts:
            assert np.array_equal(sample.parts[key], alone.parts[key]), key
        offsets.append(noise.path_offset)

    grid = TimeGrid(10.0, n_steps)
    chunk_size = PathEnsemble(seed=13, grid=grid, firms=runs[0][0].firms, n_paths=1).chunk_size
    ensemble = PathEnsemble(
        seed=13, grid=grid, firms=runs[0][0].firms, n_paths=chunk_size + 44
    )
    list(permitsim.policies._simulate_runs(runs, ensemble))
    assert offsets == [0] * n_etas + [chunk_size] * n_etas
    # the reference runs above are stacks of one
    assert [s for s in sizes if s > 1] == stacks * 2


def _msr_knot_by_knot(mkt, policy, grid, d_wbar):
    """One MSR run's banks, (M+1, P), and its sums over the left knots of
    alpha_k dt and (alpha_k dt)^2, stepped and summed one knot at a time."""
    rows = permitsim.policies._msr_rows(mkt, policy, grid)
    c0, c1, ramp = rows.c0, rows.c1, rows.ramp
    eta, h_bar, delta, dt = mkt.agg.eta_bar, mkt.agg.h_bar, policy.delta, grid.dt
    x = np.empty((grid.n_steps + 1, d_wbar.shape[0]))
    x[0] = policy.x_bar0
    for k in range(grid.n_steps):
        a_k = 1.0 + (eta * c1[k] - delta) * dt
        b_k = (delta * ramp[k] + eta * (c0[k] - h_bar)) * dt
        x[k + 1] = (b_k - d_wbar[:, k]) + a_k * x[k]
        alpha_dt = (c1[k] * x[k] + c0[k] - h_bar) * eta * dt
        abated = alpha_dt if k == 0 else abated + alpha_dt
        alpha_sq = alpha_dt * alpha_dt if k == 0 else alpha_sq + alpha_dt * alpha_dt
    return x, abated, alpha_sq


@pytest.mark.parametrize("n_paths", [1, 33, 256])
@pytest.mark.parametrize("n_runs", [1, 6])
@pytest.mark.parametrize("span", [1, 2, 3, None], ids=["span-1", "span-2", "span-3", "span-M"])
def test_rolling_msr_block_equals_the_full_recursion(monkeypatch, n_runs, n_paths, span):
    """The MSR steps a stack through a rolling block of knots and continues
    its sums block by block; each run's sums and banks at T, and the banks
    its trajectories rebuild, have the bits of the recursion stepped and
    summed knot by knot over all 20 knots, for spans of 1 and 2, a span of
    3 that does not divide 20, and the default span (at least 20 here); a
    lone path is one column."""
    m = 20
    runs = _msr_runs(np.geomspace(1e6, 1e9, n_runs))
    grid = TimeGrid(10.0, m)
    firms = runs[0][0].firms
    noise = generate_noise(15, grid, firms, n_paths)
    d_wbar = _wbar_row(noise, firms)
    if span is not None:
        monkeypatch.setattr(
            permitsim.policies, "SCRATCH_DOUBLES", 2 * (span + 1) * n_runs * n_paths
        )
    real_steps = permitsim.policies._msr_steps
    blocks = []

    def stepping(a_t, b_t, d_wbar, k0, x_t):
        blocks.append(len(x_t) - 1)
        real_steps(a_t, b_t, d_wbar, k0, x_t)

    monkeypatch.setattr(permitsim.policies, "_msr_steps", stepping)
    described = [permitsim.policies._describe(mkt, policy, grid) for mkt, policy in runs]
    rows = [run.rows for run in described]
    abated, alpha_sq, x_T = permitsim.policies._msr_sums(rows, d_wbar, grid.dt)
    want_blocks = [m] if span is None else [span] * (m // span) + [m % span] * (m % span > 0)
    assert blocks == want_blocks
    samples = list(permitsim.policies._simulate_msr(described, noise))
    for r, ((mkt, policy), sample) in enumerate(zip(runs, samples)):
        x, want_abated, want_alpha_sq = _msr_knot_by_knot(mkt, policy, grid, d_wbar)
        assert abated[r].tobytes() == want_abated.tobytes()
        assert alpha_sq[r].tobytes() == want_alpha_sq.tobytes()
        assert x_T[r].tobytes() == x[-1].tobytes()
        assert sample.total_bank.tobytes() == (mkt.n_firms * x).T.tobytes()
        assert sample.parts["penalty"].tobytes() == (mkt.n_firms * mkt.penalty * x[-1] ** 2).tobytes()


def test_a_runs_msr_rows_and_sums_are_the_same_alone_as_in_a_stack():
    """Each run's rows are its own, elementwise in the knots: a_k and b_k equal
    the step coefficients computed on the stacked (R, M+1) rows of six runs,
    and each run's sums and banks at T, stepped alone, have the bits of its
    row in the stack's."""
    runs = _msr_runs(np.geomspace(1e6, 1e9, 6))
    grid = TimeGrid(10.0, 20)
    firms = runs[0][0].firms
    d_wbar = _wbar_row(generate_noise(16, grid, firms, 33), firms)
    rows = [permitsim.policies._msr_rows(mkt, policy, grid) for mkt, policy in runs]
    c0, c1, ramp = (np.stack([getattr(r, name) for r in rows]) for name in ("c0", "c1", "ramp"))
    eta, h_bar, delta = np.array([(r.eta_bar, r.h_bar, r.delta) for r in rows]).T[:, :, None]
    a = 1.0 + (eta * c1 - delta) * grid.dt
    b = (delta * ramp + eta * (c0 - h_bar)) * grid.dt
    stacked = permitsim.policies._msr_sums(rows, d_wbar, grid.dt)
    for r, run_rows in enumerate(rows):
        assert run_rows.a.tobytes() == a[r].tobytes()
        assert run_rows.b.tobytes() == b[r, :-1].tobytes()
        alone = permitsim.policies._msr_sums([run_rows], d_wbar, grid.dt)
        for got, want in zip(alone, stacked):
            assert got[0].tobytes() == want[r].tobytes()


def test_only_neighbouring_msr_runs_on_the_same_volatilities_stack():
    a, b = _msr_runs([1e7, 6e8])
    loud = make_market(make_firms(sigma=0.3e9 / math.sqrt(6)))
    tax = (a[0], tax_policy(a[0]))
    runs = [a, b, tax, a, b, a, (loud, msr_policy(loud, 0.1)), b]
    grid = TimeGrid(10.0, 20)
    described = [permitsim.policies._describe(mkt, policy, grid) for mkt, policy in runs]
    assert permitsim.policies._stack_bounds(described, cap=2) == [
        (0, 2), (2, 3), (3, 5), (5, 6), (6, 7), (7, 8),
    ]
    assert permitsim.policies._stack_bounds(described, cap=1) == [(i, i + 1) for i in range(8)]


def test_mixed_runs_report_in_run_order_with_their_own_costs(monkeypatch):
    runs = _msr_runs([1e7, 6e8, 1e9])
    runs.insert(2, (runs[0][0], tax_policy(runs[0][0])))
    ensemble = PathEnsemble(
        seed=4, grid=TimeGrid(10.0, 20), firms=runs[0][0].firms, n_paths=10, chunk_size=4
    )
    kinds = []
    _spy_samples(monkeypatch, lambda noise, sample: kinds.append(sample.kind.value))
    results = list(permitsim.policies._simulate_runs(runs, ensemble))
    # a stack of two, the tax and a lone MSR run, in run order
    assert kinds == ["msr", "msr", "tax", "msr"] * 3
    for (mkt, policy), (cost, parts, emissions) in zip(runs, results):
        [alone] = permitsim.policies._simulate_runs([(mkt, policy)], ensemble)
        assert np.array_equal(cost, alone[0])
        assert np.array_equal(emissions, alone[2])
        assert all(np.array_equal(parts[k], alone[1][k]) for k in parts)


def test_a_stack_of_msr_runs_must_share_the_volatilities(monkeypatch):
    """A loud MSR run between quiet ones reads another weighted-mean row: it
    steps alone on every chunk, beside a stack of the two quiet runs before
    it, and reports the costs it has alone, bit for bit."""
    quiet_a, quiet_b = _msr_runs([1e7, 6e8])
    loud = make_market(make_firms(sigma=0.3e9 / math.sqrt(6)))
    runs = [quiet_a, quiet_b, (loud, msr_policy(loud, 0.1)), quiet_a]
    ensemble = PathEnsemble(
        seed=3, grid=TimeGrid(10.0, 20), firms=loud.firms, n_paths=10, chunk_size=4
    )
    real = permitsim.policies._simulate_msr
    sizes = []

    def spy(stack, noise):
        sizes.append(len(stack))
        yield from real(stack, noise)

    monkeypatch.setattr(permitsim.policies, "_simulate_msr", spy)
    results = list(permitsim.policies._simulate_runs(runs, ensemble))
    assert sizes == [2, 1, 1] * 3
    for (mkt, policy), (cost, parts, emissions) in zip(runs, results):
        [alone] = permitsim.policies._simulate_runs([(mkt, policy)], ensemble)
        assert cost.tobytes() == alone[0].tobytes()
        assert emissions.tobytes() == alone[2].tobytes()
        assert all(parts[k].tobytes() == alone[1][k].tobytes() for k in parts)
