import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permitsim import (
    FRICTIONLESS,
    DomainError,
    FirmParams,
    MarketParams,
    compute_aggregates,
    ell,
    f_coeff,
    g_coeff,
    msr_F,
    msr_z,
    pi_coeff,
)

import oracles
from conftest import make_firms, make_market


# --- validation ------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma=-1.0),
        dict(eta=0.0),
        dict(eta=-5.0),
        dict(h=0.0),
        dict(k=1.5),
        dict(k=-1.01),
        dict(sigma=float("nan")),
    ],
)
def test_firm_params_rejects_bad_values(kwargs):
    base = dict(mu=1e8, sigma=1e7, k=0.5, h=20.0, eta=1e8)
    base.update(kwargs)
    with pytest.raises(ValueError):
        FirmParams(**base)


def test_firm_params_accepts_boundary_values():
    # zero volatility and |k| = 1 are meaningful degenerate scenarios
    FirmParams(mu=0.0, sigma=0.0, k=1.0, h=1.0, eta=1.0)
    FirmParams(mu=-1e7, sigma=0.0, k=-1.0, h=1.0, eta=1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(penalty=0.0),
        dict(penalty=-1e-7),
        dict(horizon=0.0),
        dict(rho=0.0),
        dict(rho=1.2),
        dict(depth=0.0),
        dict(depth=-1e6),
    ],
)
def test_market_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        make_market(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["mu", "sigma", "k", "h", "eta", "penalty", "horizon", "rho"]
)
def test_params_reject_non_finite_values(field, value):
    firm = dict(mu=1e8, sigma=1e7, k=0.5, h=20.0, eta=1e8)
    if field in firm:
        firm[field] = value
        with pytest.raises(ValueError, match=f"firm {field} must be finite"):
            FirmParams(**firm)
    else:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_market(**{field: value})


def test_market_params_rejects_empty_firm_list():
    with pytest.raises(ValueError):
        make_market(firms=())


def test_rho_one_is_accepted():
    assert make_market(rho=1.0).rho == 1.0


def test_depth_flags():
    assert make_market().is_frictionless
    assert not make_market(depth=1e6).is_frictionless
    assert make_market().depth == FRICTIONLESS


# --- aggregates ------------------------------------------------------------

def test_aggregates_base_values(base_market):
    agg = base_market.agg
    assert agg.h_bar == 25.0
    assert agg.eta_bar == 6e8
    assert agg.H_bar == pytest.approx(1.5e10, rel=1e-15)
    assert agg.mu_bar == pytest.approx(2e9 / 6, rel=1e-15)
    assert agg.sigma_sq == pytest.approx(oracles.SIGMA_SQ, rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 1e9),            # sigma
            st.floats(-1.0, 1.0),           # k
        ),
        min_size=1,
        max_size=8,
    )
)
def test_sigma_sq_matches_direct_covariance_sum(sig_k):
    """The closed form equals the brute-force double sum over the correlation
    matrix rho_ij = k_i k_j."""
    firms = tuple(FirmParams(mu=1e8, sigma=s, k=k, h=10.0, eta=1e8) for s, k in sig_k)
    agg = compute_aggregates(firms)
    n = len(firms)
    sig = np.array([f.sigma for f in firms])
    ks = np.array([f.k for f in firms])
    direct = 0.0
    for i in range(n):
        for j in range(n):
            rho_ij = 1.0 if i == j else ks[i] * ks[j]
            direct += rho_ij * sig[i] * sig[j]
    direct /= n**2
    assert agg.sigma_sq == pytest.approx(direct, rel=1e-10, abs=1e-6)


def test_firm_vectors_are_the_firms_fields_in_firm_order_and_read_only():
    """``MarketParams.vec`` holds one (N,) float array per firm field, in
    firm order, built once per market; no array can be written."""
    firms = tuple(
        FirmParams(mu=1e8 * (i + 1), sigma=3e7 - 1e6 * i, k=0.9 - 0.2 * i, h=20.0 + i, eta=6e8 + i)
        for i in range(5)
    )
    mkt = make_market(firms)
    assert mkt.vec is mkt.vec
    for name in ("mu", "sigma", "k", "h", "eta"):
        column = getattr(mkt.vec, name)
        assert column.dtype == np.float64 and column.flags.c_contiguous
        assert column.tolist() == [getattr(f, name) for f in firms]
        with pytest.raises(ValueError):
            column[0] = 1.0
        with pytest.raises(ValueError):
            column.setflags(write=True)


def test_a_pickled_or_copied_market_rebuilds_read_only_vectors(base_market):
    """A market whose cached fields were read pickles and deep-copies without
    them, so the copy rebuilds them on first use: read-only, with the same
    values and aggregates."""
    mkt = base_market
    mkt.vec, mkt.agg  # cached on the original
    for copied in (pickle.loads(pickle.dumps(mkt)), copy.deepcopy(mkt)):
        assert "vec" not in vars(copied) and "agg" not in vars(copied)
        assert copied == mkt
        for name in ("mu", "sigma", "k", "h", "eta"):
            column = getattr(copied.vec, name)
            assert not column.flags.writeable
            assert column.tolist() == getattr(mkt.vec, name).tolist()
        assert vars(copied.agg) == vars(mkt.agg)


# --- coefficient functions ---------------------------------------------------

def test_g_coeff_scalar_array_parity(base_market):
    firm = base_market.firms[0]
    ts = np.array([0.0, 2.5, 10.0])
    arr = g_coeff(firm, base_market, ts)
    for t, v in zip(ts, arr):
        assert g_coeff(firm, base_market, float(t)) == v
    assert isinstance(g_coeff(firm, base_market, 0.0), float)


def test_g_coeff_increasing_and_positive(frictional_market):
    firm = frictional_market.firms[0]
    t = np.linspace(0.0, 10.0, 101)
    g = g_coeff(firm, frictional_market, t)
    assert np.all(g > 0.0)
    assert np.all(np.diff(g) > 0.0)
    # at t = T the depth drops out entirely
    assert g[-1] == pytest.approx(2.0 * frictional_market.penalty * firm.eta, rel=1e-15)


def test_g_coeff_frictionless_drops_depth(base_market, frictional_market):
    firm = base_market.firms[0]
    lam, eta, horizon = base_market.penalty, firm.eta, base_market.horizon
    expected = 2.0 * lam * eta / (1.0 + 2.0 * lam * eta * horizon)
    assert g_coeff(firm, base_market, 0.0) == pytest.approx(expected, rel=1e-15)
    assert g_coeff(firm, frictional_market, 0.0) < expected


def test_time_domain_is_enforced(base_market):
    firm = base_market.firms[0]
    with pytest.raises(DomainError):
        g_coeff(firm, base_market, -0.1)
    with pytest.raises(DomainError):
        f_coeff(base_market, 10.0001)
    with pytest.raises(DomainError):
        pi_coeff(base_market, 0, np.array([1.0, 11.0]))


def test_pi_coeff_frictionless_equals_g_over_eta(base_market):
    t = np.linspace(0.0, 10.0, 7)
    firm = base_market.firms[2]
    expected = g_coeff(firm, base_market, t) / firm.eta
    assert np.array_equal(pi_coeff(base_market, 2, t), expected)


def test_pi_coeff_frictions_exceeds_frictionless_weight(frictional_market):
    """The depth correction divides by a number < 1, inflating the weight."""
    t = np.linspace(0.0, 10.0, 7)
    firm = frictional_market.firms[0]
    base = g_coeff(firm, frictional_market, t) / firm.eta
    weights = pi_coeff(frictional_market, 0, t)
    assert np.all(weights[:-1] > base[:-1])
    assert weights[-1] == base[-1]  # correction vanishes at the deadline


def test_f_coeff_terminal_value(base_market):
    assert f_coeff(base_market, 10.0) == pytest.approx(2.0 * base_market.penalty, rel=1e-15)
    t = np.linspace(0.0, 10.0, 50)
    assert np.all(np.diff(f_coeff(base_market, t)) > 0.0)


def test_ell_frozen_value(base_market):
    assert ell(base_market) == pytest.approx(oracles.ELL, rel=1e-13)
    assert ell(base_market) < 0.0


def test_msr_z_shape_and_limits():
    t = np.linspace(0.0, 10.0, 11)
    z = msr_z(0.1, t, 10.0)
    assert z[-1] == 0.0
    assert np.all(np.diff(z) < 0.0)
    # small delta approaches the remaining time
    z_small = msr_z(1e-9, t, 10.0)
    assert np.allclose(z_small, 10.0 - t, rtol=1e-6)
    with pytest.raises(DomainError):
        msr_z(0.0, 0.0, 10.0)
    with pytest.raises(DomainError):
        msr_z(-0.5, 0.0, 10.0)


def test_msr_F_terminal_and_positive(base_market):
    t = np.linspace(0.0, 10.0, 101)
    big_f = msr_F(base_market, 0.1, t)
    assert np.all(big_f > 0.0)
    assert big_f[-1] == pytest.approx(2.0 * base_market.penalty, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(1e6, 1e10),
    lam=st.floats(1e-9, 1e-4),
    horizon=st.floats(0.5, 50.0),
    frac=st.floats(0.0, 1.0),
)
def test_g_coeff_monotone_in_time(eta, lam, horizon, frac):
    firm = FirmParams(mu=1e8, sigma=1e7, k=0.5, h=20.0, eta=eta)
    mkt = MarketParams(firms=(firm,), penalty=lam, depth=FRICTIONLESS, horizon=horizon, rho=0.8)
    t0 = frac * horizon * 0.5
    t1 = t0 + horizon * 0.25
    assert g_coeff(firm, mkt, t1) >= g_coeff(firm, mkt, t0)
