"""Market equilibrium: the allowance price that clears aggregate trading.

With finite depth the price aggregates each firm's allocation surprises
through the weights pi_i; with frictionless trading it is driven by the
average surprise through the single gain f.  Either way the construction
is verified ex post: the per-knot clearing residual must stay below a hard
relative tolerance or the run aborts, since downstream costs computed from
a non-clearing "equilibrium" are silently wrong.

The frictionless price formula (`frictionless_price` from its start
`frictionless_initial_price`, which is also the whole price when no
allocation surprises the market, and its step `frictionless_price_step`)
and its clearing check (`require_frictionless_clearing`) are shared with
the martingale kernel in `policies`, which computes the same equilibrium
from firm sums alone, without per-firm best responses or paths; both
apply one rule.  The check
reads only what clearing constrains, the firms' summed cumulative trades,
and measures their residual against the gross market terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClearingError, UnsupportedInputError
from .firm import (
    AllocationView,
    FirmControls,
    best_response_frictions,
    best_response_frictionless,
)
from .params import MarketParams, f_coeff, pi_coeff
from .stochastic import NoisePaths, integrate_increments, pooled_empty

#: Hard ceiling on the relative market-clearing residual.
CLEARING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EquilibriumPath:
    """Simulated equilibrium on one noise block.

    Per-firm arrays have shape (n_paths, n_firms, M+1); the price is
    (n_paths, M+1).  ``total_trade`` is populated only in the frictionless
    model, where trade-rate profiles are degenerate and the per-firm
    cumulative totals are the meaningful object.
    """

    price: np.ndarray
    abatement: np.ndarray
    trade_rate: np.ndarray
    bank: np.ndarray
    total_trade: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.price.shape[0]

    @property
    def n_firms(self) -> int:
        return self.abatement.shape[1]

    @property
    def total_bank(self) -> np.ndarray:
        """Sum of firm banks, tons, shape (n_paths, M+1)."""
        return self.bank.sum(axis=1)

    @property
    def avg_abatement(self) -> np.ndarray:
        return self.abatement.mean(axis=1)


def _stack(controls: list[FirmControls]) -> tuple[np.ndarray, ...]:
    alpha = np.stack([c.abatement for c in controls], axis=1)
    beta = np.stack([c.trade_rate for c in controls], axis=1)
    bank = np.stack([c.bank for c in controls], axis=1)
    return alpha, beta, bank


def _check_views(mkt: MarketParams, views: list[AllocationView], noise: NoisePaths) -> None:
    noise.require_firms(mkt.firms)
    if len(views) != mkt.n_firms:
        raise UnsupportedInputError(
            f"got {len(views)} allocation views for {mkt.n_firms} firms"
        )
    want = (noise.n_paths, noise.grid.n_steps + 1)
    for i, v in enumerate(views):
        if v.expected_total.shape != want:
            raise UnsupportedInputError(
                f"allocation view {i} has shape {v.expected_total.shape}, expected {want}"
            )


def equilibrium_frictions(
    mkt: MarketParams,
    views: list[AllocationView],
    noise: NoisePaths,
) -> EquilibriumPath:
    """Clearing equilibrium with finite market depth.

    The price solves dP = -(1/N) sum_i pi_i(t) (dM_i - sigma_i dW_i) from
    P_0 = (1/N) sum_i pi_i(0) (eta_i h_i T - M_0^i); each firm then plays
    its best response to that price.  Marginal trading profit is reported
    in the form beta_i = nu (h_i + alpha_i / eta_i - P), whose firm sum
    vanishes at a clearing price.
    """
    if mkt.is_frictionless:
        raise UnsupportedInputError("infinite depth: use equilibrium_frictionless")
    _check_views(mkt, views, noise)
    grid = noise.grid
    t = grid.knots
    n = mkt.n_firms

    d_price = np.zeros((noise.n_paths, grid.n_steps))
    p0 = 0.0
    for i, (firm, view) in enumerate(zip(mkt.firms, views)):
        pi_left = pi_coeff(mkt, i, t[:-1])
        d_price -= pi_left * (view.increments() - firm.sigma * noise.d_firm[:, i, :]) / n
        p0 += (
            pi_coeff(mkt, i, 0.0)
            * (firm.eta * firm.h * grid.horizon - view.expected_total[:, :1])
            / n
        )
    price = integrate_increments(d_price)
    price += p0

    controls = [
        best_response_frictions(
            firm, mkt, price, view, noise, firm_index=i, price_is_martingale=True
        )
        for i, (firm, view) in enumerate(zip(mkt.firms, views))
    ]
    alpha, beta, bank = _stack(controls)

    marginal = np.zeros_like(price)
    for i, firm in enumerate(mkt.firms):
        marginal += firm.h + alpha[:, i, :] / firm.eta
    _require_clearing(marginal - n * price, n * abs_max(price), "finite-depth")
    return EquilibriumPath(price=price, abatement=alpha, trade_rate=beta, bank=bank)


def equilibrium_frictionless(
    mkt: MarketParams,
    views: list[AllocationView],
    noise: NoisePaths,
) -> EquilibriumPath:
    """Clearing equilibrium in the deep-market limit.

    dP = -f(t) d(Zbar), Zbar = (1/N) sum_i (M_i - sigma_i W_i), from
    P_0 = f(0) (T Hbar - Mbar_0): only the average allocation surprise
    moves the price.  Clearing holds through the cumulative trade totals,
    sum_i B_i = 0 at every knot.
    """
    if not mkt.is_frictionless:
        raise UnsupportedInputError("finite depth: use equilibrium_frictions")
    _check_views(mkt, views, noise)
    grid = noise.grid
    n = mkt.n_firms

    d_driver = np.zeros((noise.n_paths, grid.n_steps))
    m0_bar = 0.0
    for i, (firm, view) in enumerate(zip(mkt.firms, views)):
        d_driver += (view.increments() - firm.sigma * noise.d_firm[:, i, :]) / n
        m0_bar += view.expected_total[:, :1] / n
    p0 = frictionless_initial_price(mkt, grid, m0_bar)
    price = frictionless_price(p0, frictionless_price_step(mkt, grid), d_driver)

    controls = [
        best_response_frictionless(
            firm, mkt, price, view, noise, firm_index=i, price_is_martingale=True
        )
        for i, (firm, view) in enumerate(zip(mkt.firms, views))
    ]
    alpha, beta, bank = _stack(controls)
    total_trade = np.stack([c.total_trade for c in controls], axis=1)
    alloc_sum = sum(v.expected_total for v in views)
    require_frictionless_clearing(
        mkt, grid, price, total_trade.sum(axis=1), abs_max(alloc_sum)
    )
    return EquilibriumPath(
        price=price, abatement=alpha, trade_rate=beta, bank=bank, total_trade=total_trade
    )


def frictionless_price(
    p0: float | np.ndarray,
    step: np.ndarray,
    d_driver: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Frictionless clearing price from the average allocation surprise.

    P_0 = ``p0`` (`frictionless_initial_price`, a scalar or per path,
    (n_paths, 1)) and dP_k = ``step``_k ``d_driver``_k, where the step
    -sign f(t_k) (`frictionless_price_step`) turns the driver, shape
    (n_paths, M), into -f(t_k) dZbar_k for dZbar = sign * driver.  The
    increments are written into the returned (n_paths, M+1) price, ``out``
    when it is given, and summed there in place.
    """
    price = pooled_empty(d_driver.shape[:-1] + (d_driver.shape[-1] + 1,)) if out is None else out
    np.multiply(step, d_driver, out=price[..., 1:])
    integrate_increments(price[..., 1:], out=price)
    price += p0
    return price


def frictionless_price_step(mkt: MarketParams, grid, sign: float = 1.0) -> np.ndarray:
    """-sign f(t_k) on the left knots, (M,): the price step per unit of a
    driver whose ``sign`` times is the average allocation surprise dZbar.
    ``sign`` = -1 takes -dZbar as it is, e.g. the static lump sum's mean
    shock dWbar, with the bits of its negation: -f (-dW) = f dW exactly."""
    return -sign * f_coeff(mkt, grid.knots[:-1])


def frictionless_initial_price(
    mkt: MarketParams, grid, m0_bar: float | np.ndarray
) -> float | np.ndarray:
    """P_0 = f(0) (T Hbar - Mbar_0): the frictionless price when nothing has
    surprised the market yet, and at every knot when nothing ever does."""
    return f_coeff(mkt, 0.0) * (grid.horizon * mkt.agg.H_bar - m0_bar)


def require_frictionless_clearing(
    mkt: MarketParams,
    grid,
    price: np.ndarray,
    trade_sum: np.ndarray,
    alloc_sum_abs_max: float,
) -> None:
    """Raise ClearingError unless sum_i B_i vanishes at every knot.

    ``trade_sum`` holds the firms' summed cumulative trades sum_i B_i,
    shape (n_paths, M+1) or broadcastable to it; ``alloc_sum_abs_max`` is
    the largest |sum_i M_i| of the firms' summed expected total allocation
    over the block.  Every max|x| here comes from a min and a max reduction
    (`abs_max`), so the check allocates no array; a NaN anywhere fails it.
    """
    # The residual is a cancellation of gross terms of size ~ c(0) P + M +
    # eta h T summed over the firms, so "relative" must mean relative to
    # those, not to the (possibly zero) net trades themselves.
    lam = mkt.penalty
    etas = np.array([fp.eta for fp in mkt.firms])
    hs = np.array([fp.h for fp in mkt.firms])
    c0_sum = float(np.sum(1.0 + 2.0 * lam * etas * grid.horizon)) / (2.0 * lam)
    gross = (
        c0_sum * abs_max(price)
        + alloc_sum_abs_max
        + float(np.sum(etas * hs)) * grid.horizon
    )
    _require_clearing(trade_sum, gross, "frictionless")


def abs_max(x: np.ndarray) -> float:
    """max|x| from a min and a max reduction, without an |x| array; NaN if
    ``x`` holds a NaN (np.maximum propagates it, Python's max may not)."""
    return float(np.maximum(-x.min(), x.max()))


def _require_clearing(residual: np.ndarray, scale: float, label: str) -> None:
    rel = abs_max(residual) / max(scale, 1.0)
    if not rel <= CLEARING_TOL:
        raise ClearingError(
            f"{label} equilibrium failed to clear: relative residual {rel:.3e} "
            f"exceeds {CLEARING_TOL:g}"
        )


def feedback_price_frictionless(
    mkt: MarketParams,
    eq: EquilibriumPath,
    views: list[AllocationView],
    grid,
) -> np.ndarray:
    """Closed-loop form of the frictionless price for cross-checking.

    P_t = f(t) ((T - t) Hbar - Xbar_t - Rbar_t) evaluated from the
    simulated banks and the views' expected residual allocations; agrees
    with the stored (open-loop) price to within integration roundoff.
    """
    t = grid.knots
    agg = mkt.agg
    x_bar = eq.total_bank / mkt.n_firms
    r_bar = sum(v.residual for v in views) / mkt.n_firms
    return f_coeff(mkt, t) * ((grid.horizon - t) * agg.H_bar - x_bar - r_bar)
