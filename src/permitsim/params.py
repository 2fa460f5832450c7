"""Model parameters, derived aggregates, and deterministic coefficient functions.

Everything is kept in base units -- tons, years, euros.  Gigaton scaling
exists only in the CLI presentation layer, never here.

The coefficient functions (abatement-response rate ``g``, price-impact
weight ``pi``, frictionless price sensitivity ``f``, the reserve-rule
kernels ``z`` and ``F``, and the per-firm expected withdrawal ``ell``) are
pure functions of time and the market parameters; all of them accept a
scalar time or a numpy array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SingularityError

#: Distinguished market-depth value selecting the frictionless model.  It is
#: never substituted into a formula; every depth-dependent expression branches.
FRICTIONLESS = math.inf


@dataclass(frozen=True)
class FirmParams:
    """Static description of one regulated firm.

    Attributes:
        mu: business-as-usual emission trend, tons/year.
        sigma: emission volatility, tons/sqrt(year).
        k: loading on the common shock, dimensionless, |k| <= 1.
        h: linear marginal abatement cost, euros/ton.
        eta: abatement flexibility (inverse adjustment-cost curvature),
            tons^2/(euro * year).  High eta means cheap effort adjustment.
    """

    mu: float
    sigma: float
    k: float
    h: float
    eta: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "k", "h", "eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"firm {name} must be finite, got {value}")
        # sigma = 0 is accepted: degenerate deterministic scenarios are used
        # throughout the test surface and every formula is well defined there.
        if not self.sigma >= 0.0:
            raise ValueError(f"firm sigma must be >= 0, got {self.sigma}")
        if not self.eta > 0.0:
            raise ValueError(f"firm eta must be > 0, got {self.eta}")
        if not self.h > 0.0:
            raise ValueError(f"firm h must be > 0, got {self.h}")
        if not abs(self.k) <= 1.0:
            raise ValueError(f"firm k must satisfy |k| <= 1, got {self.k}")


@dataclass(frozen=True, eq=False)
class FirmVectors:
    """The firms' fields as read-only (N,) float arrays, in firm order."""

    mu: np.ndarray
    sigma: np.ndarray
    k: np.ndarray
    h: np.ndarray
    eta: np.ndarray


def _firm_vectors(firms: tuple[FirmParams, ...]) -> FirmVectors:
    # one C-ordered row per field, so that each vector is contiguous
    rows = np.array([[f.mu, f.sigma, f.k, f.h, f.eta] for f in firms]).T.copy()
    rows.setflags(write=False)
    return FirmVectors(*rows)


@dataclass(frozen=True, eq=False)
class Aggregates:
    """Cross-sectional aggregates entering the closed forms.

    ``sigma_sq`` is the variance rate of the volatility-weighted average
    shock:  N^2 sigma^2 = sum_i sigma_i^2 + 2 sum_{i<j} rho_ij sigma_i sigma_j,
    with pairwise correlations rho_ij = k_i k_j.
    """

    h_bar: float        # mean marginal abatement cost, euros/ton
    eta_bar: float      # mean flexibility, tons^2/(euro*year)
    H_bar: float        # mean of eta_i * h_i, tons/year
    mu_bar: float       # mean emission trend, tons/year
    sigma_sq: float     # aggregate variance rate, tons^2/year


def compute_aggregates(firms: tuple[FirmParams, ...]) -> Aggregates:
    v = _firm_vectors(firms)
    # off-diagonal sum via the common/idiosyncratic split:
    # sum_{i != j} k_i k_j s_i s_j = (sum k_i s_i)^2 - sum (k_i s_i)^2
    cross = float(np.dot(v.sigma, v.k) ** 2 - np.dot(v.sigma * v.k, v.sigma * v.k))
    sigma_sq = (float(np.dot(v.sigma, v.sigma)) + cross) / len(firms) ** 2
    return Aggregates(
        h_bar=float(np.mean(v.h)),
        eta_bar=float(np.mean(v.eta)),
        H_bar=float(np.mean(v.eta * v.h)),
        mu_bar=float(np.mean(v.mu)),
        sigma_sq=sigma_sq,
    )


@dataclass(frozen=True)
class MarketParams:
    """Market-level parameters shared by all firms.

    Attributes:
        firms: ordered tuple of FirmParams, length N >= 1.
        penalty: terminal quadratic penalty coefficient, euros/ton^2.
        depth: market depth (inverse price impact), tons^2/(euro*year);
            ``FRICTIONLESS`` (math.inf) selects the frictionless model.
        horizon: regulation horizon T, years.
        rho: retained-emissions fraction, 0 < rho <= 1 (rho = 1 means no
            reduction is demanded; the boundary is kept because several
            degenerate checks use it).
    """

    firms: tuple[FirmParams, ...]
    penalty: float
    depth: float
    horizon: float
    rho: float

    def __post_init__(self) -> None:
        if len(self.firms) < 1:
            raise ValueError("need at least one firm")
        object.__setattr__(self, "firms", tuple(self.firms))
        # depth is the one field allowed to be infinite (FRICTIONLESS)
        for name in ("penalty", "horizon", "rho"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.penalty > 0.0:
            raise ValueError(f"penalty must be > 0, got {self.penalty}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if not (self.depth > 0.0 or self.depth == FRICTIONLESS):
            raise ValueError(f"depth must be > 0 or FRICTIONLESS, got {self.depth}")
        if not self.is_frictionless:
            _check_pi_denominator(self)

    @property
    def n_firms(self) -> int:
        return len(self.firms)

    @property
    def is_frictionless(self) -> bool:
        return self.depth == FRICTIONLESS

    @cached_property
    def agg(self) -> Aggregates:
        return compute_aggregates(self.firms)

    @cached_property
    def vec(self) -> FirmVectors:
        """The firms' fields as read-only (N,) arrays, in firm order."""
        return _firm_vectors(self.firms)

    def __getstate__(self) -> dict:
        # a pickle or deep copy leaves the cached fields out, so that they are
        # rebuilt read-only on first use: numpy unpickles arrays writeable
        return {key: value for key, value in vars(self).items() if key not in ("agg", "vec")}


# ---------------------------------------------------------------------------
# deterministic coefficient functions
# ---------------------------------------------------------------------------

def _as_time(t, horizon: float) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0) or np.any(tt > horizon):
        raise DomainError(f"time must lie in [0, {horizon}], got {t!r}")
    return tt


def _scalar_like(value: np.ndarray, t) -> float | np.ndarray:
    return float(value) if np.isscalar(t) or np.ndim(t) == 0 else value


def g_coeff(firm: FirmParams, mkt: MarketParams, t) -> float | np.ndarray:
    """Abatement-response rate g_i(t) = 2*lam*eta_i / (1 + 2*lam*(eta_i+nu)*(T-t)).

    In the frictionless model the depth term drops (nu = 0 in the
    denominator), which is the form entering the frictionless price
    sensitivity.  Units: 1/year.  Positive and increasing in t.
    """
    tt = _as_time(t, mkt.horizon)
    lam = mkt.penalty
    nu_eff = 0.0 if mkt.is_frictionless else mkt.depth
    denom = 1.0 + 2.0 * lam * (firm.eta + nu_eff) * (mkt.horizon - tt)
    return _scalar_like(2.0 * lam * firm.eta / denom, t)


def pi_coeff(mkt: MarketParams, i: int, t) -> float | np.ndarray:
    """Price-impact weight pi_i(t) of firm i's shocks in the equilibrium price.

    pi_i(t) = (g_i(t)/eta_i) / (1 - (nu*(T-t)/N) * sum_k g_k(t)/eta_k).
    Frictionless markets have no correction factor: pi_i = g_i/eta_i.
    Units: euro*year/ton^2 scaled by 1/eta -- i.e. 1/year per ton of bank.
    """
    tt = _as_time(t, mkt.horizon)
    firm = mkt.firms[i]
    base = g_coeff(firm, mkt, tt) / firm.eta
    if mkt.is_frictionless:
        return _scalar_like(np.asarray(base, dtype=float), t)
    denom = _pi_denominator(mkt, tt)
    if np.any(denom <= 0.0):
        bad = np.asarray(tt)[np.asarray(denom) <= 0.0]
        raise SingularityError(
            f"price-impact denominator non-positive at t={bad!r} "
            f"(penalty={mkt.penalty}, depth={mkt.depth}, horizon={mkt.horizon})"
        )
    return _scalar_like(base / denom, t)


def _pi_denominator(mkt: MarketParams, tt: np.ndarray) -> np.ndarray:
    s = sum(g_coeff(f, mkt, tt) / f.eta for f in mkt.firms)
    return 1.0 - mkt.depth * (mkt.horizon - tt) / mkt.n_firms * s


def _check_pi_denominator(mkt: MarketParams) -> None:
    # Construction-time guard: the weight denominator must keep strict
    # positivity on the whole horizon (1000 uniform knots), otherwise the
    # scenario is rejected.
    grid = np.linspace(0.0, mkt.horizon, 1000)
    denom = _pi_denominator(mkt, grid)
    if np.any(denom <= 0.0):
        t_bad = float(grid[int(np.argmin(denom))])
        raise SingularityError(
            f"price-impact denominator non-positive near t={t_bad:.6g}; "
            "scenario rejected (depth too small relative to penalty/horizon?)"
        )


def f_coeff(mkt: MarketParams, t) -> float | np.ndarray:
    """Frictionless price sensitivity f(t) = 2*lam / (1 + 2*lam*eta_bar*(T-t)).

    Units: euros*year/ton^2.  Increasing, with f(T) = 2*lam.
    """
    tt = _as_time(t, mkt.horizon)
    lam = mkt.penalty
    denom = 1.0 + 2.0 * lam * mkt.agg.eta_bar * (mkt.horizon - tt)
    return _scalar_like(2.0 * lam / denom, t)


def ell(mkt: MarketParams) -> float:
    """Per-firm expected net allocation (tons) achieving the emission target.

    ell = -(1/(2*lam*eta_bar)) * [H_bar + (1 + 2*lam*eta_bar*T)*(1-rho)*mu_bar].
    Negative for any demanded reduction: the regulator withdraws on average.
    """
    a = mkt.agg
    lam = mkt.penalty
    bracket = a.H_bar + (1.0 + 2.0 * lam * a.eta_bar * mkt.horizon) * (1.0 - mkt.rho) * a.mu_bar
    value = -bracket / (2.0 * lam * a.eta_bar)
    if a.H_bar > 0.0 and a.mu_bar >= 0.0 and not value < 0.0:
        raise SingularityError(f"expected withdrawal came out non-negative: {value}")
    return value


def msr_z(delta: float, t, horizon: float) -> float | np.ndarray:
    """Reserve-rule kernel z(t) = (1 - exp(-delta*(T-t))) / delta, in years.

    Decreasing, z(T) = 0; tends to T - t as delta -> 0.
    """
    if not delta > 0.0:
        raise DomainError(f"delta must be > 0, got {delta}")
    tt = _as_time(t, horizon)
    return _scalar_like(-np.expm1(-delta * (horizon - tt)) / delta, t)


def msr_F(mkt: MarketParams, delta: float, t) -> float | np.ndarray:
    """Reserve-rule price sensitivity F(t) = f(t) / (1 - eta_bar*f(t)*(T-t-z(t))).

    Shares f's units; F(T) = f(T) = 2*lam.
    """
    tt = _as_time(t, mkt.horizon)
    f = np.asarray(f_coeff(mkt, tt), dtype=float)
    z = np.asarray(msr_z(delta, tt, mkt.horizon), dtype=float)
    denom = 1.0 - mkt.agg.eta_bar * f * (mkt.horizon - tt - z)
    if np.any(denom <= 0.0):
        bad = np.asarray(tt)[np.asarray(denom) <= 0.0]
        raise SingularityError(
            f"reserve-rule denominator non-positive at t={bad!r} (delta={delta})"
        )
    return _scalar_like(f / denom, t)
