"""Allocation policies and their social costs.

The regulator chooses how allowances reach firms over time.  Four designs
are compared, all targeting the same expected total emissions rho*T*N*mu_bar:

* optimal dynamic -- martingale allocations that track each firm's shocks,
  making the clearing price constant and the social cost minimal;
* static -- one lump allocation at t=0 (no tracking), price diffuses;
* pure tax -- no allowances at all, a constant emission tax;
* MSR-like -- allocation rate mean-reverts the average bank toward a
  linear drawdown ramp at speed delta (no closed-form cost; Monte Carlo).

Closed forms are evaluated where they exist; `simulate_policy_paths`
produces pathwise costs and trajectories on a shared noise block so that
policies can be compared shock-by-shock; `run_ensemble` does so chunk by
chunk over a whole path ensemble.  The martingale-type policies
(optimal, custom, static) share one kernel that keeps the firm index as an
array axis: the price follows from the firms' average allocation surprise,
and the costs from the price plus per-firm terminal trades and banks, so
no per-firm trajectory is built.  `allocation_views` with
`equilibrium.equilibrium_frictionless` remains the per-firm construction
of the same equilibrium.  All costs are in euros, volumes in tons, rates
per year.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagnosticError,
    InfeasibleObservationError,
    UnsupportedConfigurationError,
    UnsupportedInputError,
)
from .params import (
    FirmParams,
    MarketParams,
    ell,
    f_coeff,
    msr_F,
    msr_z,
)
# equilibrium_frictionless is not called here but stays a module attribute:
# perfbench/tracing.py wraps it under this name.
from .equilibrium import (  # noqa: F401
    equilibrium_frictionless,
    frictionless_price,
    require_frictionless_clearing,
)
from .firm import AllocationView
from .stochastic import (
    NoisePaths,
    PathEnsemble,
    integrate_increments,
    left_integral,
    realized_qv,
)

#: Mean-reversion speed (1/year) used for the MSR-like policy when a
#: scenario does not pin one.
DEFAULT_MSR_DELTA = 0.1

_FEASIBILITY_RTOL = 1e-9
_GAMMA_TOL = 1e-12


class PolicyKind(str, enum.Enum):
    OPTIMAL_DYNAMIC = "optimal_dynamic"
    STATIC = "static"
    TAX = "tax"
    MSR = "msr"
    CUSTOM_MARTINGALE = "custom_martingale"


@dataclass(frozen=True, eq=False)
class PolicySpec:
    """Declarative policy choice as it appears in a scenario config.

    ``delta`` is required for the MSR kind; ``m0`` (tons, per firm) and
    ``gamma`` (tons/sqrt(year), N x (N+1) loadings on the orthogonal
    drivers) are required for custom martingale allocations.  When
    ``target_compliance`` is set the custom initial allocations must sum
    to N*ell(rho), the level that makes the expected-emissions target
    binding.
    """

    kind: PolicyKind
    delta: float | None = None
    m0: np.ndarray | None = None
    gamma: np.ndarray | None = None
    target_compliance: bool = True

    def __post_init__(self) -> None:
        kind = PolicyKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is PolicyKind.MSR:
            d = DEFAULT_MSR_DELTA if self.delta is None else float(self.delta)
            if not d > 0.0:
                raise UnsupportedConfigurationError(f"msr delta must be > 0, got {d}")
            object.__setattr__(self, "delta", d)
        if kind is PolicyKind.CUSTOM_MARTINGALE:
            if self.m0 is None or self.gamma is None:
                raise UnsupportedConfigurationError(
                    "custom_martingale policy needs m0 and gamma"
                )
            object.__setattr__(self, "m0", np.asarray(self.m0, dtype=float))
            object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))


# ---------------------------------------------------------------------------
# closed-form policy objects


@dataclass(frozen=True, eq=False)
class OptimalDynamicPolicy:
    """Cost-minimising martingale allocation (frictionless market)."""

    kind = PolicyKind.OPTIMAL_DYNAMIC
    p0: float                 # constant clearing price, euros/ton
    ell: float                # common initial net allocation, tons
    m0: np.ndarray            # per-firm initial allocations (= ell), tons
    gamma: np.ndarray         # N x (N+1) shock-tracking loadings
    alpha: np.ndarray         # per-firm constant abatement rates, tons/yr
    beta: np.ndarray          # per-firm constant trade rates, tons/yr
    cost: float               # minimal expected social cost, euros


@dataclass(frozen=True, eq=False)
class CustomMartingalePolicy:
    """Regulator experiment: an arbitrary martingale allocation (m0, gamma)."""

    kind = PolicyKind.CUSTOM_MARTINGALE
    m0: np.ndarray
    gamma: np.ndarray
    target_compliance: bool = True


@dataclass(frozen=True, eq=False)
class StaticPolicy:
    """Single lump-sum allocation x_bar0 per firm at t=0."""

    kind = PolicyKind.STATIC
    x_bar0: float             # average initial allocation per firm, tons
    p0: float                 # initial price, euros/ton
    cost: float               # expected social cost C_static, euros
    delta_stat: float         # C_static - C_optimal, euros
    qv_T: float               # expected price quadratic variation, (euros/ton)^2


@dataclass(frozen=True, eq=False)
class TaxPolicy:
    """Constant emission tax, no allowance market."""

    kind = PolicyKind.TAX
    tau: float                # tax rate, euros/ton
    alpha: np.ndarray         # per-firm constant abatement rates, tons/yr
    cost: float               # expected social cost, euros
    break_even_lambda: float  # penalty level at which the tax ties the optimum


@dataclass(frozen=True, eq=False)
class MSRPolicy:
    """Mean-reverting allocation rate toward a linear drawdown ramp."""

    kind = PolicyKind.MSR
    delta: float              # reversion speed, 1/year
    x_bar0: float             # average initial allocation per firm, tons
    p0: float                 # initial price, euros/ton


Policy = (
    OptimalDynamicPolicy
    | CustomMartingalePolicy
    | StaticPolicy
    | TaxPolicy
    | MSRPolicy
)


def tracking_gamma(firms: list[FirmParams]) -> np.ndarray:
    """Firm-by-firm tracking loadings: firm i's allocation replicates its
    own shock, gamma[i, 0] = sigma_i k_i on the common driver and
    gamma[i, i+1] = sigma_i sqrt(1 - k_i^2) on its idiosyncratic one."""
    n = len(firms)
    gamma = np.zeros((n, n + 1))
    for i, fp in enumerate(firms):
        gamma[i, 0] = fp.sigma * fp.k
        gamma[i, i + 1] = fp.sigma * math.sqrt(max(0.0, 1.0 - fp.k**2))
    return gamma


def check_gamma_optimality(
    gamma: np.ndarray, firms: list[FirmParams]
) -> tuple[bool, np.ndarray]:
    """Do the loadings annihilate the aggregate shock exposure?

    Only column sums matter (allocations can shuffle risk across firms):
    column 0 must sum to sum_i sigma_i k_i and column j to
    sigma_j sqrt(1 - k_j^2).  Returns (ok, residuals) with
    residuals[j] = required column sum - actual column sum; ok means every
    residual is below 1e-12 on the scale of the volatilities.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = len(firms)
    if gamma.shape != (n, n + 1):
        raise UnsupportedInputError(
            f"gamma must have shape {(n, n + 1)}, got {gamma.shape}"
        )
    target = tracking_gamma(firms).sum(axis=0)
    residuals = target - gamma.sum(axis=0)
    scale = max(1.0, float(np.max(np.abs(target))))
    ok = bool(np.all(np.abs(residuals) <= _GAMMA_TOL * scale))
    return ok, residuals


def optimal_dynamic_policy(mkt: MarketParams) -> OptimalDynamicPolicy:
    """Closed-form optimal dynamic allocation.

    Every firm starts from the same net position ell(rho) and thereafter
    receives exactly its own shock, so nothing surprises the market and
    the price sits at p0 = (Hbar + (1-rho) mu_bar) / eta_bar.  Constant
    abatement alpha_i = eta_i (p0 - h_i); the constant trade rate clears
    each firm's bank to the terminal optimum -p0/(2 lambda).
    """
    agg = mkt.agg
    lam = mkt.penalty
    horizon = mkt.horizon
    p0 = (agg.H_bar + (1.0 - mkt.rho) * agg.mu_bar) / agg.eta_bar
    level = ell(mkt)
    etas = np.array([fp.eta for fp in mkt.firms])
    hs = np.array([fp.h for fp in mkt.firms])
    alpha = etas * (p0 - hs)
    beta = -(
        (1.0 + 2.0 * lam * etas * horizon) * p0 / (2.0 * lam)
        + level
        - etas * hs * horizon
    ) / horizon
    cost = (mkt.n_firms / (4.0 * lam)) * (
        1.0 + 2.0 * lam * agg.eta_bar * horizon
    ) * p0**2 - (horizon / 2.0) * float(np.sum(etas * hs**2))
    return OptimalDynamicPolicy(
        p0=p0,
        ell=level,
        m0=np.full(mkt.n_firms, level),
        gamma=tracking_gamma(mkt.firms),
        alpha=alpha,
        beta=beta,
        cost=cost,
    )


def _require_homogeneous(values: np.ndarray, what: str) -> float:
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo > 1e-12 * max(1.0, abs(hi)):
        raise UnsupportedConfigurationError(
            f"policy closed forms require homogeneous {what}; got range [{lo:g}, {hi:g}]"
        )
    return float(np.mean(values))


def static_policy(mkt: MarketParams) -> StaticPolicy:
    """Lump-sum allocation policy (requires homogeneous flexibility eta).

    x_bar0 = T rho mu_bar - p0 / (2 lambda) per firm; afterwards the price
    diffuses with the deterministic volatility profile f(t) sigma, giving
    the exact excess cost delta_stat = (N sigma^2 / (2 eta)) ln(1+2 lam eta T)
    over the optimal policy and the terminal price quadratic variation
    qv_T = 4 lam^2 sigma^2 T / (1 + 2 lam eta T).
    """
    eta = _require_homogeneous(
        np.array([fp.eta for fp in mkt.firms]), "eta"
    )
    agg = mkt.agg
    lam = mkt.penalty
    horizon = mkt.horizon
    n = mkt.n_firms
    opt = optimal_dynamic_policy(mkt)
    x_bar0 = horizon * mkt.rho * agg.mu_bar - opt.p0 / (2.0 * lam)
    p0 = f_coeff(mkt, 0.0) * (horizon * agg.H_bar - x_bar0 + horizon * agg.mu_bar)
    sigma_sq = agg.sigma_sq
    log_term = math.log1p(2.0 * lam * eta * horizon)
    delta_stat = n * sigma_sq / (2.0 * eta) * log_term
    qv_t = 4.0 * lam**2 * sigma_sq * horizon / (1.0 + 2.0 * lam * eta * horizon)
    return StaticPolicy(
        x_bar0=x_bar0,
        p0=p0,
        cost=opt.cost + delta_stat,
        delta_stat=delta_stat,
        qv_T=qv_t,
    )


def large_n_limit_delta(
    sigma_bar: float, rho_bar: float, eta: float, lam: float, horizon: float
) -> float:
    """Limit of the per-firm static excess cost as the market grows.

    With per-firm volatility sigma_bar and pairwise correlation rho_bar,
    delta_stat(N)/N -> (rho_bar sigma_bar^2 / (2 eta)) ln(1 + 2 lam eta T):
    only the common shock survives averaging.
    """
    return rho_bar * sigma_bar**2 / (2.0 * eta) * math.log1p(2.0 * lam * eta * horizon)


def estimate_eta_from_qv(
    qv_t: float, sigma_sq: float, lam: float, horizon: float
) -> float:
    """Invert the price quadratic-variation law for the flexibility eta.

    ``qv_t`` is an observed terminal QV of the allowance price under a
    static allocation; ``sigma_sq`` the squared average-firm volatility
    driving the price.  Exact inverse of
    qv_T = 4 lam^2 sigma^2 T / (1 + 2 lam eta T) on 0 < qv_T < 4 lam^2 sigma^2 T.
    """
    upper = 4.0 * lam**2 * sigma_sq * horizon
    if not 0.0 < qv_t < upper:
        raise InfeasibleObservationError(
            f"observed qv_T = {qv_t:g} outside the feasible interval (0, {upper:g})"
        )
    return (upper - qv_t) / (2.0 * lam * horizon * qv_t)


def tax_policy(mkt: MarketParams) -> TaxPolicy:
    """Constant emission tax hitting the same expected-emissions target.

    tau = h_bar + (1-rho) mu_bar / eta equals the optimal policy's constant
    price, but firms bear tax on *all* residual emissions rather than
    trading against allocations, which is what makes the design costly.
    ``break_even_lambda`` is the penalty level below which the tax would
    beat the optimal allowance design.
    """
    eta = _require_homogeneous(np.array([fp.eta for fp in mkt.firms]), "eta")
    agg = mkt.agg
    horizon = mkt.horizon
    n = mkt.n_firms
    tau = agg.h_bar + (1.0 - mkt.rho) * agg.mu_bar / eta
    hs = np.array([fp.h for fp in mkt.firms])
    alpha = eta * (tau - hs)
    cost = n * horizon * (
        eta / 2.0 * tau**2
        - eta / (2.0 * n) * float(np.sum(hs**2))
        + mkt.rho * agg.mu_bar * tau
    )
    if mkt.rho * agg.mu_bar * horizon <= 0.0:
        raise UnsupportedConfigurationError(
            "tax break-even level undefined when rho * mu_bar * T <= 0"
        )
    break_even = tau / (4.0 * mkt.rho * agg.mu_bar * horizon)
    return TaxPolicy(tau=tau, alpha=alpha, cost=cost, break_even_lambda=break_even)


def msr_policy(mkt: MarketParams, delta: float = DEFAULT_MSR_DELTA) -> MSRPolicy:
    """Mean-reverting allocation policy (requires fully homogeneous firms).

    The allocation rate a_t = delta ((T-t) x_bar0 / T - Xbar_t) pulls the
    average bank toward a linear drawdown of the initial level x_bar0,
    which is sized so the expected-emissions target still binds:
    x_bar0 = delta T / (1 - e^(-delta T)) * [ell + (T + (e^(-delta T)-1)/delta) eta (p0 - h_bar)].
    There is no closed-form cost; use Monte Carlo via simulate_policy_paths.
    """
    if not delta > 0.0:
        raise UnsupportedConfigurationError(f"msr delta must be > 0, got {delta}")
    for name in ("sigma", "eta", "h"):
        _require_homogeneous(
            np.array([getattr(fp, name) for fp in mkt.firms]), name
        )
    agg = mkt.agg
    horizon = mkt.horizon
    eta = agg.eta_bar
    opt_p0 = (agg.H_bar + (1.0 - mkt.rho) * agg.mu_bar) / eta
    decay = math.exp(-delta * horizon)
    x_bar0 = (
        delta * horizon / (1.0 - decay)
        * (ell(mkt) + (horizon + (decay - 1.0) / delta) * eta * (opt_p0 - agg.h_bar))
    )
    p0 = float(
        msr_F(mkt, delta, 0.0)
        * msr_z(delta, 0.0, horizon)
        * (eta * agg.h_bar - x_bar0 / horizon)
    )
    return MSRPolicy(delta=delta, x_bar0=x_bar0, p0=p0)


def custom_martingale_policy(
    mkt: MarketParams,
    m0: np.ndarray,
    gamma: np.ndarray,
    *,
    target_compliance: bool = True,
) -> CustomMartingalePolicy:
    """Arbitrary martingale allocation M_i(t) = m0_i + (gamma W)_i.

    With ``target_compliance`` the initial levels must sum to N ell(rho) --
    the feasibility constraint under which expected emissions hit the
    target; violations are configuration errors, not simulation choices.
    """
    m0 = np.asarray(m0, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n = mkt.n_firms
    if m0.shape != (n,):
        raise UnsupportedInputError(f"m0 must have shape ({n},), got {m0.shape}")
    if gamma.shape != (n, n + 1):
        raise UnsupportedInputError(
            f"gamma must have shape {(n, n + 1)}, got {gamma.shape}"
        )
    if target_compliance:
        want = n * ell(mkt)
        got = float(m0.sum())
        if abs(got - want) > _FEASIBILITY_RTOL * max(1.0, abs(want)):
            raise UnsupportedConfigurationError(
                f"sum of m0 is {got:g} but the emissions target requires {want:g}"
            )
    return CustomMartingalePolicy(m0=m0, gamma=gamma, target_compliance=target_compliance)


def build_policy(spec: PolicySpec, mkt: MarketParams) -> Policy:
    """Resolve a declarative PolicySpec against a market."""
    if spec.kind is PolicyKind.OPTIMAL_DYNAMIC:
        return optimal_dynamic_policy(mkt)
    if spec.kind is PolicyKind.STATIC:
        return static_policy(mkt)
    if spec.kind is PolicyKind.TAX:
        return tax_policy(mkt)
    if spec.kind is PolicyKind.MSR:
        return msr_policy(mkt, spec.delta)
    if spec.kind is PolicyKind.CUSTOM_MARTINGALE:
        return custom_martingale_policy(
            mkt, spec.m0, spec.gamma, target_compliance=spec.target_compliance
        )
    raise UnsupportedConfigurationError(f"unknown policy kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True, eq=False)
class PolicyPathSample:
    """Pathwise simulation output for one policy on one noise block.

    Trajectory arrays are (n_paths, M+1); all per-path scalars are
    (n_paths,).  ``parts`` holds the additive cost decomposition
    {abatement, trading, penalty, tax} whose values sum to ``cost``.
    """

    kind: PolicyKind
    price: np.ndarray
    total_bank: np.ndarray
    avg_abatement: np.ndarray
    total_emissions: np.ndarray
    net_allocation_minus_initial: np.ndarray
    cost: np.ndarray
    parts: dict[str, np.ndarray]
    price_qv: np.ndarray


def allocation_views(policy: Policy, mkt: MarketParams, noise: NoisePaths) -> list[AllocationView]:
    """Materialize per-firm allocation views for a martingale-type policy."""
    grid = noise.grid
    if isinstance(policy, (OptimalDynamicPolicy, CustomMartingalePolicy)):
        tilde = noise.tilde_paths()
        m_paths = np.einsum("ij,pjk->pik", policy.gamma, tilde)
        m_paths += policy.m0[None, :, None]
        return [
            AllocationView(expected_total=m_paths[:, i], realized=m_paths[:, i])
            for i in range(mkt.n_firms)
        ]
    if isinstance(policy, StaticPolicy):
        shape = (noise.n_paths, grid.n_steps + 1)
        return [
            AllocationView(
                expected_total=np.broadcast_to(policy.x_bar0 - fp.mu * grid.horizon, shape),
                realized=np.broadcast_to(policy.x_bar0 - fp.mu * grid.knots, shape),
            )
            for fp in mkt.firms
        ]
    raise UnsupportedInputError(
        f"{policy.kind.value} policy does not define per-firm allocation views"
    )


def static_price_paths(
    mkt: MarketParams, noise: NoisePaths, *, method: str = "euler"
) -> np.ndarray:
    """Allowance price paths under the static policy, (n_paths, M+1).

    "euler" integrates dP = f(t) dWbar on the grid; "exact" samples the
    Gaussian transition with the true per-step variance
    sigma^2 * (2 lam/eta) [1/(1+2 lam eta (T-t_{k+1})) - 1/(1+2 lam eta (T-t_k))],
    so the expected realized quadratic variation telescopes to qv_T exactly
    on any grid.  (The variance profile steepens sharply near T -- a grid
    fine elsewhere can still understate the Euler QV there.)
    """
    pol = static_policy(mkt)
    grid = noise.grid
    eta = mkt.agg.eta_bar
    lam = mkt.penalty
    sigmas = np.array([fp.sigma for fp in mkt.firms])
    d_wbar = noise.weighted_mean_increments(sigmas)  # variance sigma^2 dt per step
    t = grid.knots
    if method == "euler":
        d_price = f_coeff(mkt, t[:-1]) * d_wbar
    elif method == "exact":
        sigma_sq = mkt.agg.sigma_sq
        inv = 1.0 / (1.0 + 2.0 * lam * eta * (grid.horizon - t))
        step_var = sigma_sq * (2.0 * lam / eta) * np.diff(inv)
        std_normals = d_wbar / math.sqrt(sigma_sq * grid.dt)
        d_price = np.sqrt(step_var) * std_normals
    else:
        raise ValueError(f"unknown method {method!r}")
    price = np.empty((noise.n_paths, grid.n_steps + 1))
    price[:, 0] = pol.p0
    np.cumsum(d_price, axis=-1, out=price[:, 1:])
    price[:, 1:] += pol.p0
    return price


def _sample(
    kind: PolicyKind,
    price: np.ndarray,
    total_bank: np.ndarray,
    avg_abatement: np.ndarray,
    emissions: np.ndarray,
    net_alloc: np.ndarray,
    parts: dict[str, np.ndarray],
) -> PolicyPathSample:
    return PolicyPathSample(
        kind=kind,
        price=price,
        total_bank=total_bank,
        avg_abatement=avg_abatement,
        total_emissions=emissions,
        net_allocation_minus_initial=net_alloc,
        cost=parts["abatement"] + parts["trading"] + parts["penalty"] + parts["tax"],
        parts=parts,
        price_qv=realized_qv(price)[:, -1],
    )


def _simulate_martingale(
    kind: PolicyKind,
    mkt: MarketParams,
    noise: NoisePaths,
    m0: np.ndarray,
    gamma: np.ndarray,
    alloc_flow: float,
) -> PolicyPathSample:
    """Frictionless equilibrium of a martingale allocation, firms as an array axis.

    Firm i expects the total allocation M_i(t) = m0_i + (gamma Wtilde)_i(t)
    and holds A_i(t), which reaches M_i(T) at the horizon.  Besides the
    martingale part, allowances arrive at the deterministic total rate
    ``alloc_flow`` (tons/year): sum_i mu_i for the tracking policies, whose
    holdings equal their expectation, and 0 for the static lump sum, whose
    holdings x_bar0 - mu_i t deplete with emissions; hence
    sum_i A_i(t) = sum_i M_i(t) + (sum_i mu_i - alloc_flow) (T - t).

    Only the average surprise moves the price (`frictionless_price`),
    abatement is alpha_i = eta_i (P - h_i), and each firm's trade is fixed
    by its terminal cumulative trade B_i(T).  The costs therefore follow
    from the price and per-firm terminal numbers alone: abatement
    sum_i (eta_i/2) sum_k (P_k^2 - h_i^2) dt, trading
    (sum_k P_k dt) sum_i B_i(T) / T and penalty lam sum_i X_i(T)^2.  The
    cumulative trades B_i are built at every knot for the clearing check.
    """
    if not mkt.is_frictionless:
        raise UnsupportedInputError("finite depth: use equilibrium_frictions")
    grid = noise.grid
    t = grid.knots
    dt, horizon = grid.dt, grid.horizon
    lam = mkt.penalty
    n = mkt.n_firms
    etas = np.array([fp.eta for fp in mkt.firms])
    hs = np.array([fp.h for fp in mkt.firms])
    sigmas = np.array([fp.sigma for fp in mkt.firms])
    mu_total = float(sum(fp.mu for fp in mkt.firms))

    # expected totals M_i(t) = m0_i + moved_i(t); rounding is monotonic, so
    # the extremes of M_i are m0_i plus those of moved_i.  The buffer is
    # reused for the trades B_i.
    surprise = np.matmul(gamma, noise.d_tilde)
    buf = integrate_increments(surprise)
    alloc_abs_max = np.maximum(m0 + buf.max(axis=(0, 2)), -(m0 + buf.min(axis=(0, 2))))
    alloc_T = m0 + buf[..., -1]
    expected_sum = float(m0.sum()) + buf.sum(axis=1)

    # allocation surprise dM_i - sigma_i dW_i; the price follows its firm mean
    surprise -= sigmas[:, None] * noise.d_firm
    price = frictionless_price(mkt, grid, float(m0.mean()), surprise.mean(axis=1))

    # B_i(0) = eta_i h_i T - c_i(0) P_0 - M_i(0), dB_i = -(c_i(t) dP + surprise_i)
    # with c_i(t) = (1 + 2 lam eta_i (T - t)) / (2 lam), from each firm's
    # terminal condition X_i(T) = -P_T / (2 lam)
    coef = (1.0 + 2.0 * lam * etas[:, None] * (horizon - t)) / (2.0 * lam)
    surprise += coef[:, :-1] * np.diff(price, axis=-1)[:, None, :]
    trade = buf
    trade0 = etas * hs * horizon - coef[:, 0] * price[:, :1] - m0
    trade[..., 0] = trade0
    np.cumsum(surprise, axis=-1, out=trade[..., 1:])
    np.subtract(trade0[..., None], trade[..., 1:], out=trade[..., 1:])
    require_frictionless_clearing(mkt, grid, price, trade, alloc_abs_max)
    trade_T = trade[..., -1]
    trade_sum = trade_T.sum(axis=1)

    # P - h_i = excess + (h_eff - h_i) with the eta-weighted mean cost
    # h_eff; sums of the small excess keep the cancellation out of the costs
    eta_total = float(etas.sum())
    h_eff = float(etas @ hs) / eta_total
    excess = price - h_eff
    excess_left = excess[:, :-1]
    excess_integral = excess_left.sum(axis=-1) * dt
    abatement = (
        0.5 * eta_total * (excess_left * (excess_left + 2.0 * h_eff)).sum(axis=-1) * dt
        - 0.5 * float(etas @ (hs - h_eff) ** 2) * horizon
    )
    trading = price[:, :-1].sum(axis=-1) * dt * trade_sum / horizon
    # X_i(T) = M_i(T) + sum_k (alpha_i + beta_i) dt - sigma_i W_i(T), beta_i T = B_i(T)
    bank_T = (
        alloc_T
        + etas * (excess_integral[:, None] + (h_eff - hs) * horizon)
        + trade_T
        - sigmas * noise.d_firm.sum(axis=-1)
    )
    penalty = lam * (bank_T**2).sum(axis=1)
    parts = {
        "abatement": abatement,
        "trading": trading,
        "penalty": penalty,
        "tax": np.zeros_like(abatement),
    }

    abate_total = eta_total * excess
    abated = left_integral(abate_total, grid)
    shock_sum = integrate_increments(sigmas @ noise.d_firm)
    total_bank = (
        expected_sum
        + (mu_total - alloc_flow) * (horizon - t)
        + abated
        + (trade_sum / horizon)[:, None] * t
        - shock_sum
    )
    return _sample(
        kind,
        price,
        total_bank,
        abate_total / n,
        mu_total * t - abated + shock_sum,
        expected_sum - expected_sum[:, :1] + alloc_flow * t,
        parts,
    )


def simulate_policy_paths(
    policy: Policy, mkt: MarketParams, noise: NoisePaths
) -> PolicyPathSample:
    """Simulate one policy on a noise block and price every path.

    Martingale-type policies (optimal, custom, static) run through the
    frictionless market equilibrium, computed by one kernel with the firm
    index as an array axis; the tax needs no market; the MSR integrates
    its coupled (average bank, price) system with Euler steps.  All
    policies draw from the same underlying shocks, so samples produced
    from the same ``noise`` are directly comparable path by path.
    """
    n = mkt.n_firms
    mus = np.array([fp.mu for fp in mkt.firms])
    mu_total = float(mus.sum())
    if isinstance(policy, (OptimalDynamicPolicy, CustomMartingalePolicy)):
        return _simulate_martingale(
            policy.kind, mkt, noise, policy.m0, policy.gamma, alloc_flow=mu_total
        )
    if isinstance(policy, StaticPolicy):
        return _simulate_martingale(
            policy.kind,
            mkt,
            noise,
            policy.x_bar0 - mus * noise.grid.horizon,
            np.zeros((n, n + 1)),
            alloc_flow=0.0,
        )
    if isinstance(policy, MSRPolicy):
        return _simulate_msr(policy, mkt, noise)
    if not isinstance(policy, TaxPolicy):
        raise UnsupportedInputError(f"cannot simulate policy of type {type(policy)!r}")

    grid = noise.grid
    t = grid.knots
    sigmas = np.array([fp.sigma for fp in mkt.firms])
    alpha = float(policy.alpha.sum())
    emissions = (mu_total - alpha) * t + integrate_increments(sigmas @ noise.d_firm)
    hs = np.array([fp.h for fp in mkt.firms])
    etas = np.array([fp.eta for fp in mkt.firms])
    abate_cost = grid.horizon * float(
        np.sum(hs * policy.alpha + policy.alpha**2 / (2.0 * etas))
    )
    zeros_s = np.zeros(noise.n_paths)
    parts = {
        "abatement": np.full(noise.n_paths, abate_cost),
        "trading": zeros_s,
        "penalty": zeros_s.copy(),
        "tax": policy.tau * emissions[:, -1],
    }
    zeros_t = np.zeros_like(emissions)
    return _sample(
        policy.kind,
        np.full_like(emissions, policy.tau),
        zeros_t,
        np.full_like(emissions, alpha / n),
        emissions,
        zeros_t.copy(),
        parts,
    )


def _simulate_msr(policy: MSRPolicy, mkt: MarketParams, noise: NoisePaths) -> PolicyPathSample:
    """Euler integration of the coupled (average bank, price) system.

    The price is in deterministic-coefficient feedback form
    P_t = c0(t) + c1(t) Xbar_t with c1 = -F (1 - delta z), and the average
    bank follows dXbar = (a_t + eta (P_t - h_bar)) dt - dWbar_t.  At t = T
    the coefficients collapse to P_T = -2 lambda Xbar_T, the terminal
    marginal penalty.
    """
    grid = noise.grid
    t = grid.knots
    n = mkt.n_firms
    agg = mkt.agg
    delta = policy.delta
    eta = agg.eta_bar
    h_bar = agg.h_bar
    dt = grid.dt

    z = msr_z(delta, t, grid.horizon)
    big_f = msr_F(mkt, delta, t)
    ramp = (grid.horizon - t) * policy.x_bar0 / grid.horizon
    c1 = -big_f * (1.0 - delta * z)
    c0 = big_f * ((1.0 - delta * z) * ramp + z * (eta * h_bar - policy.x_bar0 / grid.horizon))

    sigmas = np.array([fp.sigma for fp in mkt.firms])
    d_wbar = noise.weighted_mean_increments(sigmas)

    # Step time-major so that every row is contiguous, in place, with the
    # operations of x + (delta (ramp - x) + eta ((c0 + c1 x) - h_bar)) dt - dW
    # in this order, so each knot rounds as the plain per-step formula does.
    n_paths = noise.n_paths
    m = grid.n_steps
    # x_t and dw_t are time-major views of the storage that price and
    # alloc_rate take over after the loop, so stepping adds no (P, M+1) buffer
    price = np.empty((n_paths, m + 1))
    alloc_rate = np.empty_like(price)
    x_t = price.reshape(m + 1, n_paths)
    dw_t = alloc_rate.reshape(-1)[: m * n_paths].reshape(m, n_paths)
    dw_t[...] = d_wbar.T
    x_t[0] = policy.x_bar0
    pull = np.empty(n_paths)
    drift = np.empty(n_paths)
    for k in range(m):
        x = x_t[k]
        np.multiply(c1[k], x, out=drift)
        np.add(c0[k], drift, out=drift)
        np.subtract(drift, h_bar, out=drift)
        np.multiply(eta, drift, out=drift)
        np.subtract(ramp[k], x, out=pull)
        np.multiply(delta, pull, out=pull)
        np.add(pull, drift, out=drift)
        np.multiply(drift, dt, out=drift)
        np.add(x, drift, out=x_t[k + 1])
        np.subtract(x_t[k + 1], dw_t[k], out=x_t[k + 1])
    # a copy, because price and alloc_rate now overwrite the step buffers,
    # and in C order, the (P, M+1) layout of every sample trajectory
    xbar = np.ascontiguousarray(x_t.T)
    np.multiply(c1, xbar, out=price)
    np.add(c0, price, out=price)
    np.subtract(ramp, xbar, out=alloc_rate)
    np.multiply(delta, alloc_rate, out=alloc_rate)

    avg_alpha = eta * (price - h_bar)
    abate_rate = h_bar * avg_alpha + avg_alpha**2 / (2.0 * eta)
    abatement = n * abate_rate[:, :-1].sum(axis=-1) * dt
    penalty = n * mkt.penalty * xbar[:, -1] ** 2
    zeros_s = np.zeros(n_paths)
    parts = {
        "abatement": abatement,
        "trading": zeros_s,
        "penalty": penalty,
        "tax": zeros_s.copy(),
    }
    wbar = np.cumsum(d_wbar, axis=-1)
    emissions = n * (agg.mu_bar * t - left_integral(avg_alpha, grid))
    emissions[:, 1:] += n * wbar
    net_alloc = n * (left_integral(alloc_rate, grid) + agg.mu_bar * t)
    return PolicyPathSample(
        kind=policy.kind,
        price=price,
        total_bank=n * xbar,
        avg_abatement=avg_alpha,
        total_emissions=emissions,
        net_allocation_minus_initial=net_alloc,
        cost=abatement + penalty,
        parts=parts,
        price_qv=realized_qv(price)[:, -1],
    )


# ---------------------------------------------------------------------------
# cost reporting and comparison


@dataclass(frozen=True, eq=False)
class CostReport:
    """Monte Carlo cost summary for one policy.

    ``closed_form`` is None for the MSR (no closed form exists);
    ``consistent`` records whether the MC estimate falls within four
    standard errors of the closed form when one exists (always True
    otherwise).  Emission figures are terminal totals in tons.
    """

    kind: PolicyKind
    closed_form: float | None
    mc_estimate: float
    mc_stderr: float
    n_paths: int
    breakdown: dict[str, float]
    expected_total_emissions: float
    emissions_stderr: float
    consistent: bool = True

    def gap_in_se(self) -> float | None:
        """|MC - closed form| in units of the MC standard error."""
        if self.closed_form is None:
            return None
        if self.mc_stderr == 0.0:
            return 0.0 if self.mc_estimate == self.closed_form else math.inf
        return abs(self.mc_estimate - self.closed_form) / self.mc_stderr


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(n))


def cost_report_from_samples(
    policy: Policy,
    cost: np.ndarray,
    parts: dict[str, np.ndarray],
    emissions_t: np.ndarray,
) -> CostReport:
    mc, se = _mean_se(cost)
    em, em_se = _mean_se(emissions_t)
    cf = getattr(policy, "cost", None)
    consistent = True
    if cf is not None and cost.size >= 2:
        # quadrature-roundoff floor keeps deterministic scenarios (se = 0,
        # pathwise-constant cost) from flagging spuriously
        consistent = abs(mc - cf) <= 4.0 * se + 1e-9 * max(1.0, abs(cf))
    return CostReport(
        kind=policy.kind,
        closed_form=cf,
        mc_estimate=mc,
        mc_stderr=se,
        n_paths=cost.size,
        breakdown={k: float(v.mean()) for k, v in parts.items()},
        expected_total_emissions=em,
        emissions_stderr=em_se,
        consistent=consistent,
    )


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    """Outcome of a multi-policy comparison on common shocks.

    ``deltas`` maps (kind_a, kind_b) to the paired per-path cost
    difference mean and its standard error -- much sharper than differencing
    two independent estimates because the shocks cancel.
    """

    reports: list[CostReport]
    deltas: dict[tuple[str, str], tuple[float, float]]
    n_paths: int

    def report(self, kind: PolicyKind | str) -> CostReport:
        key = PolicyKind(kind)
        for r in self.reports:
            if r.kind is key:
                return r
        raise KeyError(f"no report for policy kind {key.value!r}")


def _simulate_runs(
    runs: list[tuple[MarketParams, Policy]],
    ensemble: PathEnsemble,
    on_sample: Callable[[NoisePaths, PolicyPathSample], None] | None = None,
) -> Iterator[tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]]:
    """Simulate every (market, policy) run on every chunk of one ensemble.

    Each chunk's noise is drawn once and serves every run, so the runs share
    shocks path by path; no trajectory outlives its chunk.  Yields, per run
    and in run order, the concatenated per-path cost, cost parts and
    terminal emissions.  The chunk loop runs at the first item, and each
    run's concatenation is built when it is requested, so a caller that
    reports one run at a time holds one run's copies at once.
    """
    costs: list[list[np.ndarray]] = [[] for _ in runs]
    parts: list[list[dict[str, np.ndarray]]] = [[] for _ in runs]
    emissions: list[list[np.ndarray]] = [[] for _ in runs]
    for noise in ensemble.chunks():
        for i, (mkt, policy) in enumerate(runs):
            sample = simulate_policy_paths(policy, mkt, noise)
            costs[i].append(sample.cost)
            parts[i].append(sample.parts)
            # a copy: a view would pin the whole (P, M+1) array until the end
            emissions[i].append(sample.total_emissions[:, -1].copy())
            if on_sample is not None:
                on_sample(noise, sample)
            del sample  # free its trajectories before the next one is built
    for run_costs, run_parts, run_emissions in zip(costs, parts, emissions):
        yield (
            np.concatenate(run_costs),
            {
                key: np.concatenate([c[key] for c in run_parts])
                for key in ("abatement", "trading", "penalty", "tax")
            },
            np.concatenate(run_emissions),
        )


def run_ensemble(
    mkt: MarketParams,
    policies: list[Policy],
    ensemble: PathEnsemble,
    on_sample: Callable[[NoisePaths, PolicyPathSample], None] | None = None,
) -> ComparisonResult:
    """Simulate every policy on every chunk of a shared ensemble and report costs.

    Chunk by chunk, each policy runs on the same noise block; ``on_sample``
    (if given) sees every (noise, sample) pair in chunk-then-policy order,
    e.g. to write trajectories.  Only the per-path costs, cost parts and
    terminal emissions are kept, so no trajectory outlives its chunk.  A
    Monte Carlo estimate that misses its closed form only clears its
    report's ``consistent`` flag; `compare_policies` raises on it instead.
    """
    kinds = [p.kind for p in policies]
    if len(set(kinds)) != len(kinds):
        raise UnsupportedInputError("duplicate policy kinds in comparison")
    reports = []
    path_costs = {}
    runs = _simulate_runs([(mkt, p) for p in policies], ensemble, on_sample)
    for policy, (cost, parts, emissions) in zip(policies, runs):
        reports.append(cost_report_from_samples(policy, cost, parts, emissions))
        path_costs[policy.kind] = cost
    deltas = {
        (ka.value, kb.value): _mean_se(path_costs[ka] - path_costs[kb])
        for i, ka in enumerate(kinds)
        for kb in kinds[i + 1 :]
    }
    return ComparisonResult(reports=reports, deltas=deltas, n_paths=ensemble.n_paths)


def compare_policies(
    mkt: MarketParams,
    policies: list[Policy],
    ensemble: PathEnsemble,
) -> ComparisonResult:
    """Run every policy over the same path ensemble and summarize costs.

    Verifies the closed-form identity C_static = C_optimal + delta_stat
    exactly (when both are present) and that each Monte Carlo estimate is
    consistent with its closed form within four standard errors; a
    violation of either aborts with a diagnostic error because it signals
    a broken simulator, not an interesting economic finding.
    """
    result = run_ensemble(mkt, policies, ensemble)
    by_kind = {p.kind: p for p in policies}
    opt = by_kind.get(PolicyKind.OPTIMAL_DYNAMIC)
    stat = by_kind.get(PolicyKind.STATIC)
    if opt is not None and stat is not None:
        gap = abs((stat.cost - opt.cost) - stat.delta_stat)
        if gap > 1e-12 * abs(stat.cost):
            raise DiagnosticError(
                f"closed-form identity violated: C_static - C_optimal deviates "
                f"from delta_stat by {gap:g} euros"
            )
    for r in result.reports:
        if not r.consistent:
            raise DiagnosticError(
                f"{r.kind.value} Monte Carlo cost {r.mc_estimate:.6e} is "
                f"{r.gap_in_se():.1f} standard errors from its closed form "
                f"{r.closed_form:.6e}"
            )
    return result
