"""Single-firm best responses to an exogenous allowance price and allocation.

Two market regimes are covered:

* finite depth (price impact): the optimal abatement rate solves a linear
  SDE with the deterministic gain ``g`` and the optimal trade rate is
  beta = nu * (h + alpha/eta - P);
* frictionless: abatement pegs marginal cost to the price,
  alpha = eta * (P - h), and only the total traded quantity is determined,
  leaving the trade-rate profile degenerate.

Both solvers integrate with left-point Euler steps on the noise grid and
also exist in bank-feedback form for cross-checking.  The conditional
expectation of the terminal bank -- the quantity appearing in the
first-order conditions -- is propagated in closed affine form, so FOC
residuals can be verified without nested Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonMartingalePriceError, UnsupportedInputError
from .params import FirmParams, MarketParams, g_coeff
from .stochastic import (
    NoisePaths,
    closing_martingale,
    integrate_increments,
    left_integral,
    martingale_drift_stat,
)


@dataclass(frozen=True, eq=False)
class AllocationView:
    """A firm's view of its allowance allocation.

    Attributes:
        expected_total: per-knot conditional expectation of the cumulative
            net allocation at the horizon (the closing martingale M_t), tons,
            shape (n_paths, M+1).
        realized: per-knot realized cumulative net allocation A_t, tons,
            same shape.  The value at t=0 is the initial endowment.
    """

    expected_total: np.ndarray
    realized: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.expected_total, dtype=float)
        a = np.asarray(self.realized, dtype=float)
        if m.shape != a.shape or m.ndim != 2:
            raise ValueError("expected_total and realized must share (n_paths, M+1) shape")
        gap = np.max(np.abs(m[:, -1] - a[:, -1]))
        scale = 1.0 + np.max(np.abs(a[:, -1]))
        if gap > 1e-9 * scale:
            raise ValueError(
                f"terminal residual must vanish path-by-path, got max gap {gap:g}"
            )
        object.__setattr__(self, "expected_total", m)
        object.__setattr__(self, "realized", a)

    @property
    def residual(self) -> np.ndarray:
        """Expected still-to-come allocation R_t = M_t - A_t."""
        return self.expected_total - self.realized

    def increments(self) -> np.ndarray:
        """dM along the time axis, shape (n_paths, M)."""
        return np.diff(self.expected_total, axis=-1)


@dataclass(frozen=True, eq=False)
class FirmControls:
    """Optimal controls and induced bank path for one firm.

    ``total_trade`` carries the cumulative-trade martingale of the
    frictionless model (None when depth is finite, where the trade rate is
    pinned pointwise instead).
    """

    abatement: np.ndarray            # alpha, tons/year, (n_paths, M+1)
    trade_rate: np.ndarray           # beta, tons/year
    bank: np.ndarray                 # X, tons
    total_trade: np.ndarray | None = None   # B (frictionless only), tons


def _martingale_price_integral(price: np.ndarray, grid) -> np.ndarray:
    """Conditional price integral Q_t = E_t[int_0^T P ds] for a martingale
    price, discretized as Q_0 = T P_0, dQ_k = (T - t_k) dP_k.  The left-knot
    weight matches the left-knot coefficient evaluation of the equilibrium
    price SDE; with the matching convention the market-clearing identity
    cancels exactly instead of leaving an O(dt) residual."""
    q = integrate_increments((grid.horizon - grid.knots[:-1]) * np.diff(price, axis=-1))
    q += grid.horizon * price[:, :1]
    return q


def _ensure_price_martingale(price: np.ndarray, exc: type[Exception]) -> None:
    if price.shape[0] >= 2:
        diag = martingale_drift_stat(price)
        if not diag.passed():
            raise exc(
                f"price path failed the martingale drift diagnostic "
                f"(max |z| = {diag.max_abs_z:.2f} over {diag.n_paths} paths)"
            )
    elif not np.all(price == price[:, :1]):
        raise exc(
            "cannot certify a single non-constant path as a martingale; "
            "pass price_is_martingale or a conditional price integral"
        )


def best_response_frictions(
    firm: FirmParams,
    mkt: MarketParams,
    price: np.ndarray,
    allocation: AllocationView,
    noise: NoisePaths,
    *,
    firm_index: int = 0,
    price_is_martingale: bool | None = None,
    expected_price_integral: np.ndarray | None = None,
    method: str = "sde",
) -> FirmControls:
    """Optimal (alpha, beta) for one firm facing a finite-depth market.

    ``price`` has shape (n_paths, M+1) on ``noise.grid``; ``firm_index``
    selects this firm's shock row in ``noise``.  The abatement SDE needs the
    conditional expectation Q_t = E_t[int_0^T P ds]: for a martingale price
    it is supplied automatically (Q_t = int_0^t P + (T-t) P_t); for anything
    else the caller must pass ``expected_price_integral``.  ``method`` picks
    the SDE integration ("sde") or the bank-feedback recursion ("feedback");
    the two agree pathwise to first order in dt.
    """
    if mkt.is_frictionless:
        raise UnsupportedInputError(
            "market depth is infinite; use best_response_frictionless"
        )
    grid = noise.grid
    price = np.asarray(price, dtype=float)
    if expected_price_integral is not None:
        q = np.asarray(expected_price_integral, dtype=float)
    else:
        if price_is_martingale is None:
            _ensure_price_martingale(price, UnsupportedInputError)
        elif not price_is_martingale:
            raise UnsupportedInputError(
                "non-martingale price requires expected_price_integral"
            )
        q = _martingale_price_integral(price, grid)

    lam, nu = mkt.penalty, mkt.depth
    h, eta, sigma = firm.h, firm.eta, firm.sigma
    t = grid.knots
    dw = noise.d_firm[:, firm_index, :]

    if method == "sde":
        g_left = g_coeff(firm, mkt, t[:-1])
        d_alpha = -g_left * (allocation.increments() - sigma * dw - nu * np.diff(q, axis=-1))
        alpha0 = -g_coeff(firm, mkt, 0.0) * (
            h / (2.0 * lam) + allocation.expected_total[:, :1] + nu * (h * grid.horizon - q[:, :1])
        )
        alpha = integrate_increments(d_alpha)
        alpha += alpha0
        beta = nu * (h + alpha / eta - price)
        bank = (
            allocation.realized
            + left_integral(alpha + beta, grid)
            - sigma * integrate_increments(dw)
        )
        return FirmControls(abatement=alpha, trade_rate=beta, bank=bank)

    if method == "feedback":
        # E_t[int_t^T (h - P) ds] = h (T - t) - (Q_t - int_0^t P ds)
        future_gap = h * (grid.horizon - t) - (q - left_integral(price, grid))
        g_all = np.asarray(g_coeff(firm, mkt, t), dtype=float)
        residual = allocation.residual
        d_realized = np.diff(allocation.realized, axis=-1)
        n_paths, n_knots = price.shape
        alpha = np.empty((n_paths, n_knots))
        beta = np.empty_like(alpha)
        bank = np.empty_like(alpha)
        bank[:, 0] = allocation.realized[:, 0]
        for k in range(n_knots):
            alpha[:, k] = -g_all[k] * (
                h / (2.0 * lam) + bank[:, k] + residual[:, k] + nu * future_gap[:, k]
            )
            beta[:, k] = nu * (h + alpha[:, k] / eta - price[:, k])
            if k < n_knots - 1:
                bank[:, k + 1] = (
                    bank[:, k]
                    + d_realized[:, k]
                    + (alpha[:, k] + beta[:, k]) * grid.dt
                    - sigma * dw[:, k]
                )
        return FirmControls(abatement=alpha, trade_rate=beta, bank=bank)

    raise ValueError(f"unknown method {method!r}")


def best_response_frictionless(
    firm: FirmParams,
    mkt: MarketParams,
    price: np.ndarray,
    allocation: AllocationView,
    noise: NoisePaths,
    *,
    firm_index: int = 0,
    price_is_martingale: bool | None = None,
    adapted_trade: bool = False,
) -> FirmControls:
    """Optimal response when trading is frictionless.

    A solution exists only for martingale prices (otherwise unbounded
    round-trip profits exist), so the price is checked with the drift
    diagnostic unless declared.  Abatement is alpha = eta * (P - h).  Only
    the horizon-total trade B_T is pinned; the reported trade rate is the
    constant B_T / T selected in hindsight (cost is degenerate in the
    profile), or, with ``adapted_trade``, a causal profile that spreads each
    revision of B over the remaining horizon.
    """
    grid = noise.grid
    price = np.asarray(price, dtype=float)
    if price_is_martingale is None:
        _ensure_price_martingale(price, NonMartingalePriceError)
    elif not price_is_martingale:
        raise NonMartingalePriceError("frictionless best response needs a martingale price")

    lam = mkt.penalty
    h, eta, sigma = firm.h, firm.eta, firm.sigma
    t = grid.knots
    horizon = grid.horizon
    dw = noise.d_firm[:, firm_index, :]

    alpha = eta * (price - h)
    # Cumulative-trade martingale.  The initial value is pinned by the
    # terminal first-order condition X_T = -P_T / (2 lam) together with the
    # bank identity; totals then sum to zero across a clearing market.
    coef_left = (1.0 + 2.0 * lam * eta * (horizon - t[:-1])) / (2.0 * lam)
    d_total = -(
        coef_left * np.diff(price, axis=-1) + allocation.increments() - sigma * dw
    )
    total0 = -(
        (1.0 + 2.0 * lam * eta * horizon) / (2.0 * lam) * price[:, :1]
        + allocation.expected_total[:, :1]
        - eta * h * horizon
    )
    total = integrate_increments(d_total)
    total += total0

    if adapted_trade:
        beta = _spread_trade_rate(total, grid)
    else:
        beta = np.broadcast_to((total[:, -1] / horizon)[:, None], price.shape).copy()
    bank = (
        allocation.realized
        + left_integral(alpha + beta, grid)
        - sigma * integrate_increments(dw)
    )
    return FirmControls(abatement=alpha, trade_rate=beta, bank=bank, total_trade=total)


def _spread_trade_rate(total: np.ndarray, grid) -> np.ndarray:
    """Causal trade-rate selection: execute B_0 evenly, then spread each
    increment dB_j over the time remaining after it becomes known.  The
    final increment, known only at T, executes within the last step.  The
    left-point integral of the result equals B_T exactly."""
    t = grid.knots
    m = grid.n_steps
    d_total = np.diff(total, axis=-1)
    beta = np.empty_like(total)
    beta[:] = (total[:, :1] / grid.horizon)
    if m > 1:
        rates = d_total[:, :-1] / (grid.horizon - t[1:-1])
        beta[:, 1:] += np.cumsum(rates, axis=-1)[:, np.r_[0 : m - 1, m - 2]]
    beta[:, m - 1] += d_total[:, -1] / grid.dt
    beta[:, m] = beta[:, m - 1]
    return beta


def cost_functional(
    firm: FirmParams,
    mkt: MarketParams,
    controls: FirmControls,
    price: np.ndarray,
    noise: NoisePaths,
) -> np.ndarray:
    """Pathwise realized cost of a control pair, shape (n_paths,), euros.

    Left-point quadrature of h*alpha + alpha^2/(2 eta) + P*beta
    [+ beta^2/(2 nu) with finite depth] plus the terminal penalty
    lam * X_T^2.  The ensemble mean estimates the expected cost.
    """
    grid = noise.grid
    alpha, beta = controls.abatement, controls.trade_rate
    rate = firm.h * alpha + alpha**2 / (2.0 * firm.eta) + price * beta
    if not mkt.is_frictionless:
        rate = rate + beta**2 / (2.0 * mkt.depth)
    running = rate[:, :-1].sum(axis=-1) * grid.dt
    return running + mkt.penalty * controls.bank[:, -1] ** 2


def expected_terminal_bank(
    firm: FirmParams,
    mkt: MarketParams,
    controls: FirmControls,
    price: np.ndarray,
    allocation: AllocationView,
    noise: NoisePaths,
    *,
    firm_index: int = 0,
    expected_price_integral: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form conditional expectation E_t[X_T] along each path.

    Valid for the optimal controls (whose abatement is a martingale): the
    running integrals close via M_t = int_0^t a + (T-t) a_t, giving an
    affine expression in observed quantities -- no nested simulation.
    """
    grid = noise.grid
    sigma = firm.sigma
    w = integrate_increments(noise.d_firm[:, firm_index, :])
    alpha_closed = closing_martingale(controls.abatement, grid)
    base = allocation.expected_total - sigma * w
    if mkt.is_frictionless:
        if controls.total_trade is None:
            raise ValueError("frictionless controls must carry total_trade")
        return base + alpha_closed + controls.total_trade
    nu = mkt.depth
    if expected_price_integral is None:
        q = _martingale_price_integral(np.asarray(price, dtype=float), grid)
    else:
        q = np.asarray(expected_price_integral, dtype=float)
    return (
        base
        + (1.0 + nu / firm.eta) * alpha_closed
        + nu * (firm.h * grid.horizon - q)
    )


def foc_residuals(
    firm: FirmParams,
    mkt: MarketParams,
    controls: FirmControls,
    price: np.ndarray,
    allocation: AllocationView,
    noise: NoisePaths,
    *,
    firm_index: int = 0,
    expected_price_integral: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """First-order-condition residuals along each path.

    Returns (h + alpha/eta + 2 lam E_t[X_T],  P + beta/nu + 2 lam E_t[X_T]);
    the second entry is P + 2 lam E_t[X_T] in the frictionless model.  Both
    vanish to O(dt) for the optimal controls.
    """
    exp_bank = expected_terminal_bank(
        firm, mkt, controls, price, allocation, noise,
        firm_index=firm_index, expected_price_integral=expected_price_integral,
    )
    res_alpha = firm.h + controls.abatement / firm.eta + 2.0 * mkt.penalty * exp_bank
    if mkt.is_frictionless:
        res_trade = np.asarray(price, dtype=float) + 2.0 * mkt.penalty * exp_bank
    else:
        res_trade = (
            np.asarray(price, dtype=float)
            + controls.trade_rate / mkt.depth
            + 2.0 * mkt.penalty * exp_bank
        )
    return res_alpha, res_trade
