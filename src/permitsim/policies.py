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
(optimal, custom, static) share one kernel that sums over the firms before
it integrates anything: the price follows from the firms' average
allocation surprise, clearing is checked on the summed trades, and each
firm's terminal bank is pinned by the price through the grid identity
X_i(T) = -P_T/(2 lam) - eta_i dt (P_T - P_0), so no per-firm path is
built.  The MSR's Euler step is affine in the average bank,
X_{k+1} = a_k X_k + b_k - dWbar_k with deterministic a_k and b_k; the runs
that share a noise block (the etas of a sweep) take it together on
time-major rows, with the run index as an array axis, and sum their costs
along time.  `allocation_views` with
`equilibrium.equilibrium_frictionless` remains the per-firm construction
of the same equilibrium.  All costs are in euros, volumes in tons, rates
per year.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property, wraps

import numpy as np

from .errors import (
    DiagnosticError,
    DomainError,
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
    abs_max,
    equilibrium_frictionless,
    frictionless_initial_price,
    frictionless_price,
    frictionless_price_step,
    require_frictionless_clearing,
)
from .firm import AllocationView
from .stochastic import (
    SCRATCH_DOUBLES,
    NoisePaths,
    PathEnsemble,
    TimeGrid,
    array_pool,
    integrate_increments,
    left_integral,
    pooled_empty,
    realized_qv,
    row_blocks,
    weighted_mean_load,
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


def _closed_form(build: Callable[..., Policy]) -> Callable[..., Policy]:
    """Make a closed-form policy constructor raise `DomainError` when its
    numbers leave the float range: Python float arithmetic raises
    OverflowError there (``p0**2``), and numpy gives inf or nan."""

    @wraps(build)
    def checked(*args, **kwargs) -> Policy:
        try:
            policy = build(*args, **kwargs)
        except OverflowError as exc:
            raise DomainError(f"{build.__name__} overflows: {exc}") from exc
        bad = [f.name for f in fields(policy) if not np.all(np.isfinite(getattr(policy, f.name)))]
        if bad:
            raise DomainError(f"{build.__name__} overflows: {', '.join(bad)} not finite")
        return policy

    return checked


def _optimal_p0(mkt: MarketParams) -> float:
    """The optimal policy's constant price p0 = (Hbar + (1-rho) mu_bar) / eta_bar."""
    agg = mkt.agg
    return (agg.H_bar + (1.0 - mkt.rho) * agg.mu_bar) / agg.eta_bar


def _optimal_cost(mkt: MarketParams, p0: float) -> float:
    """The optimal policy's expected social cost at its price ``p0``."""
    lam = mkt.penalty
    horizon = mkt.horizon
    etas = np.array([fp.eta for fp in mkt.firms])
    hs = np.array([fp.h for fp in mkt.firms])
    return (mkt.n_firms / (4.0 * lam)) * (
        1.0 + 2.0 * lam * mkt.agg.eta_bar * horizon
    ) * p0**2 - (horizon / 2.0) * float(np.sum(etas * hs**2))


@_closed_form
def optimal_dynamic_policy(mkt: MarketParams) -> OptimalDynamicPolicy:
    """Closed-form optimal dynamic allocation.

    Every firm starts from the same net position ell(rho) and thereafter
    receives exactly its own shock, so nothing surprises the market and
    the price sits at p0 = (Hbar + (1-rho) mu_bar) / eta_bar.  Constant
    abatement alpha_i = eta_i (p0 - h_i); the constant trade rate clears
    each firm's bank to the terminal optimum -p0/(2 lambda).  A number
    beyond the float range raises `DomainError`.
    """
    lam = mkt.penalty
    horizon = mkt.horizon
    p0 = _optimal_p0(mkt)
    level = ell(mkt)
    etas = np.array([fp.eta for fp in mkt.firms])
    hs = np.array([fp.h for fp in mkt.firms])
    alpha = etas * (p0 - hs)
    beta = -(
        (1.0 + 2.0 * lam * etas * horizon) * p0 / (2.0 * lam)
        + level
        - etas * hs * horizon
    ) / horizon
    return OptimalDynamicPolicy(
        p0=p0,
        ell=level,
        m0=np.full(mkt.n_firms, level),
        gamma=tracking_gamma(mkt.firms),
        alpha=alpha,
        beta=beta,
        cost=_optimal_cost(mkt, p0),
    )


def _require_homogeneous(values: np.ndarray, what: str) -> float:
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo > 1e-12 * max(1.0, abs(hi)):
        raise UnsupportedConfigurationError(
            f"policy closed forms require homogeneous {what}; got range [{lo:g}, {hi:g}]"
        )
    return float(np.mean(values))


@_closed_form
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
    opt_p0 = _optimal_p0(mkt)
    x_bar0 = horizon * mkt.rho * agg.mu_bar - opt_p0 / (2.0 * lam)
    p0 = f_coeff(mkt, 0.0) * (horizon * agg.H_bar - x_bar0 + horizon * agg.mu_bar)
    sigma_sq = agg.sigma_sq
    log_term = math.log1p(2.0 * lam * eta * horizon)
    delta_stat = n * sigma_sq / (2.0 * eta) * log_term
    qv_t = 4.0 * lam**2 * sigma_sq * horizon / (1.0 + 2.0 * lam * eta * horizon)
    return StaticPolicy(
        x_bar0=x_bar0,
        p0=p0,
        cost=_optimal_cost(mkt, opt_p0) + delta_stat,
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


@_closed_form
def tax_policy(mkt: MarketParams) -> TaxPolicy:
    """Constant emission tax hitting the same expected-emissions target.

    tau is the optimal policy's constant price p0, but firms bear tax on
    *all* residual emissions rather than trading against allocations,
    which is what makes the design costly.
    ``break_even_lambda`` is the penalty level below which the tax would
    beat the optimal allowance design.
    """
    eta = _require_homogeneous(np.array([fp.eta for fp in mkt.firms]), "eta")
    agg = mkt.agg
    horizon = mkt.horizon
    n = mkt.n_firms
    tau = _optimal_p0(mkt)
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


@_closed_form
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
    opt_p0 = _optimal_p0(mkt)
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
    Non-finite ``m0`` or ``gamma`` entries are rejected.
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
    if not (np.all(np.isfinite(m0)) and np.all(np.isfinite(gamma))):
        raise UnsupportedInputError("m0 and gamma must be finite")
    if target_compliance:
        want = n * ell(mkt)
        got = float(m0.sum())
        # written so that a NaN sum fails it
        if not abs(got - want) <= _FEASIBILITY_RTOL * max(1.0, abs(want)):
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


def _trajectory(name: str, doc: str) -> property:
    """A `PolicyPathSample` trajectory, read from the sample's one build."""
    return property(lambda sample: sample._trajectories[name], doc=doc)


@dataclass(frozen=True, eq=False)
class PolicyPathSample:
    """Pathwise simulation output for one policy on one noise block.

    Trajectory arrays are (n_paths, M+1); all per-path scalars are
    (n_paths,).  The costs come with the sample: ``parts`` holds the
    additive cost decomposition {abatement, trading, penalty, tax} whose
    values sum to ``cost``, and ``terminal_emissions`` the total emissions
    at T, equal to ``total_emissions[:, -1]`` bit for bit but a separate
    array.  The five trajectories (``price``, ``total_bank``,
    ``avg_abatement``, ``total_emissions``, ``net_allocation_minus_initial``)
    are built together by ``build`` on first access to any of them, and the
    per-path ``price_qv`` from the price; both are then cached, with the
    bits the costs were summed from.  Arrays may be read-only views: a value
    or row that is the same on every path is repeated with stride 0, and the
    MSR's trajectories are transposed time-major (M+1, P) arrays.
    """

    kind: PolicyKind
    cost: np.ndarray
    parts: dict[str, np.ndarray]
    terminal_emissions: np.ndarray
    build: Callable[[], dict[str, np.ndarray]] = field(repr=False)

    @cached_property
    def _trajectories(self) -> dict[str, np.ndarray]:
        return self.build()

    price = _trajectory("price", "Allowance price, euros/ton.")
    total_bank = _trajectory("total_bank", "Sum of the firms' banks, tons.")
    avg_abatement = _trajectory("avg_abatement", "Average abatement rate per firm, tons/year.")
    total_emissions = _trajectory("total_emissions", "Cumulative emissions of all firms, tons.")
    net_allocation_minus_initial = _trajectory(
        "net_allocation_minus_initial", "Allowances received after t = 0, tons."
    )

    @cached_property
    def price_qv(self) -> np.ndarray:
        """Realized quadratic variation of the price at T, per path."""
        return realized_qv(self.price)[:, -1]


def allocation_views(policy: Policy, mkt: MarketParams, noise: NoisePaths) -> list[AllocationView]:
    """Materialize per-firm allocation views for a martingale-type policy."""
    noise.require_firms(mkt.firms)
    grid = noise.grid
    if isinstance(policy, (OptimalDynamicPolicy, CustomMartingalePolicy)):
        tilde = integrate_increments(noise.d_tilde)
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
    noise.require_firms(mkt.firms)
    pol = static_policy(mkt)
    grid = noise.grid
    eta, lam = mkt.agg.eta_bar, mkt.penalty
    # variance sigma^2 dt per step
    d_wbar = noise.row(weighted_mean_load(noise.ks, [fp.sigma for fp in mkt.firms]))
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
    price = integrate_increments(d_price)
    price += pol.p0
    return price


def _path_cost(parts: dict[str, np.ndarray]) -> np.ndarray:
    """The per-path cost, the sum of the cost parts in one order, so that a
    cost summed per chunk and one summed over the concatenated parts agree
    to the bit."""
    return parts["abatement"] + parts["trading"] + parts["penalty"] + parts["tax"]


def _sample(
    kind: PolicyKind,
    run: Callable[[], str],
    parts: dict[str, np.ndarray],
    terminal_emissions: np.ndarray,
    build: Callable[[], dict[str, np.ndarray]],
) -> PolicyPathSample:
    """The sample of one run, described by ``run()`` in errors, whose
    trajectories ``build`` returns by name.

    A cost or terminal emission that is not finite, from an overflowing
    kernel, cost part or sum of the parts, raises `DomainError` (an O(P)
    check: a non-finite part makes the cost non-finite).
    """
    cost = _path_cost(parts)
    if not (np.isfinite(cost).all() and np.isfinite(terminal_emissions).all()):
        raise DomainError(f"{run()} overflows: a cost or the terminal emissions are not finite")
    return PolicyPathSample(
        kind=kind,
        cost=cost,
        parts=parts,
        terminal_emissions=terminal_emissions,
        build=build,
    )


def _block(scratch: np.ndarray, *shape: int) -> np.ndarray:
    """The first doubles of a flat scratch row as a C-ordered ``shape`` array."""
    return scratch[: math.prod(shape)].reshape(shape)


@dataclass(frozen=True, eq=False)
class MartingaleRows:
    """The deterministic part of one martingale run on a time grid
    (`_martingale_rows`), and the loads its kernel reads from a noise block.

    The firms enter through sums over them alone, so the kernel builds no
    per-firm path; the per-knot rows are (M+1,), and the price step (M,).
    """

    p0: float                      # price at t = 0, euros/ton
    m0_sum: float                  # sum_i m0_i, tons
    etas: np.ndarray               # eta_i per firm, (N,)
    eta_total: float               # sum_i eta_i
    h_eff: float                   # eta-weighted mean cost sum_i eta_i h_i / eta_total, euros/ton
    trade0: float                  # summed cumulative trade at t = 0, sum_i B_i(0), tons
    coef_sum: np.ndarray           # sum_i c_i(t_k), c_i(t) = (1 + 2 lam eta_i (T - t)) / (2 lam)
    step: np.ndarray | None        # price step -sign f(t_k) per unit of the driver
    trade_scale: float             # sign N: the summed trade's step per unit of the driver
    abatement_const: float         # (T/2) sum_i eta_i (h_i - h_eff)^2, euros
    mu_total: float                # sum_i mu_i, tons/year
    alloc_flow: float              # deterministic allocation rate, tons/year
    wbar_load: np.ndarray          # load of the weighted mean shock dWbar, (N+1,)
    alloc_load: np.ndarray | None  # load of sum_i dM_i, None when gamma is 0
    driver_load: np.ndarray | None  # load of the price driver, None when nothing surprises


def _martingale_rows(
    mkt: MarketParams,
    grid: TimeGrid,
    m0: np.ndarray,
    gamma: np.ndarray,
    tracks_trends: bool,
) -> MartingaleRows:
    """The rows of the allocation M_i(t) = m0_i + (gamma Wtilde)_i(t) on ``grid``.

    P_0 = f(0) (T Hbar - mean_i m0_i) (`frictionless_initial_price`).  The
    firm-mean allocation surprise dZbar = mean_i (dM_i - sigma_i dW_i) is
    sign times the driver: the driver's load is mean_i (gamma - shocks)_i
    with sign 1, or, when gamma is 0 (the static lump sum), the weighted
    mean shock dWbar with sign -1.  The price steps by -sign f(t_k) times
    the driver (`frictionless_price_step`), and the summed trade by sign N
    times it.  With ``tracks_trends`` the allocation also carries the firms'
    trends, alloc_flow = sum_i mu_i; otherwise alloc_flow is 0.
    """
    lam, n, horizon = mkt.penalty, mkt.n_firms, grid.horizon
    etas = np.array([fp.eta for fp in mkt.firms])
    hs = np.array([fp.h for fp in mkt.firms])
    shocks = tracking_gamma(mkt.firms)  # sigma_i dW_i = (shocks dWtilde)_i
    wbar_load = weighted_mean_load([fp.k for fp in mkt.firms], [fp.sigma for fp in mkt.firms])
    mu_total = float(sum(fp.mu for fp in mkt.firms))
    m0_sum = float(m0.sum())
    eta_total = float(etas.sum())
    p0 = frictionless_initial_price(mkt, grid, float(m0.mean()))
    coef_sum = (n + 2.0 * lam * eta_total * (horizon - grid.knots)) / (2.0 * lam)
    # P - h_i = excess + (h_eff - h_i) with the eta-weighted mean cost
    # h_eff; sums of the small excess keep the cancellation out of the costs
    h_eff = float(etas @ hs) / eta_total
    loading = (gamma - shocks).mean(axis=0)
    surprise, moves = loading.any(), gamma.any()
    sign, driver = (1.0, loading) if moves else (-1.0, wbar_load)
    return MartingaleRows(
        p0=p0, m0_sum=m0_sum, etas=etas, eta_total=eta_total, h_eff=h_eff,
        trade0=float(etas @ hs) * horizon - coef_sum[0] * p0 - m0_sum, coef_sum=coef_sum,
        step=frictionless_price_step(mkt, grid, sign) if surprise else None, trade_scale=sign * n,
        abatement_const=0.5 * float(etas @ (hs - h_eff) ** 2) * horizon, mu_total=mu_total,
        alloc_flow=mu_total if tracks_trends else 0.0, wbar_load=wbar_load,
        alloc_load=gamma.sum(axis=0) if moves else None,
        driver_load=driver if surprise else None,
    )


@dataclass(frozen=True, eq=False)
class RunDescription:
    """One (market, policy) run on a time grid (`_describe`)."""

    mkt: MarketParams
    policy: Policy
    rows: MartingaleRows | MSRRows | None  # its kernel's rows; None for the tax
    cost_rows: list[np.ndarray]  # the rows its costs read (`NoisePaths.row`)
    totals: list[np.ndarray]  # the loads its costs read only as totals (`NoisePaths.row_total`)
    trajectory_rows: list[np.ndarray]  # the further rows its trajectories read


def _describe(mkt: MarketParams, policy: Policy, grid: TimeGrid) -> RunDescription:
    """The run of ``policy`` in ``mkt`` on ``grid``: its kernel's rows and the
    loads it reads from a noise block, the one map from a policy type to both.

    The optimal and custom policies allocate m0 + gamma W and the firms'
    trends; the static lump sum holds x_bar0 - mu_i t, which is
    m0_i = x_bar0 - mu_i T, gamma = 0 and no trend (`_martingale_rows`).
    A martingale run reads the weighted mean shock's total; its costs read
    the price driver and, when the price moves, the loading sum, and its
    trajectories the weighted mean shock and the loading sum rows.  The MSR
    (`_msr_rows`) reads the weighted mean shock as its price driver and as a
    total.  The tax reads the firms' shock sum sum_i sigma_i dW_i, its costs
    as a total and its emissions as a row.  A policy of another type, or a
    market run under finite depth (only the tax needs no market), raises
    `UnsupportedInputError`.
    """
    if isinstance(policy, TaxPolicy):
        shock_sum = tracking_gamma(mkt.firms).sum(axis=0)
        return RunDescription(mkt, policy, None, [], [shock_sum], [shock_sum])
    if isinstance(policy, (OptimalDynamicPolicy, CustomMartingalePolicy)):
        m0, gamma, tracks_trends = policy.m0, policy.gamma, True
    elif isinstance(policy, StaticPolicy):
        m0 = policy.x_bar0 - np.array([fp.mu for fp in mkt.firms]) * grid.horizon
        gamma, tracks_trends = np.zeros((mkt.n_firms, mkt.n_firms + 1)), False
    elif not isinstance(policy, MSRPolicy):
        raise UnsupportedInputError(f"cannot simulate policy of type {type(policy)!r}")
    if not mkt.is_frictionless:
        raise UnsupportedInputError(f"finite depth: {policy.kind.value} is frictionless only")
    if isinstance(policy, MSRPolicy):
        msr = _msr_rows(mkt, policy, grid)
        return RunDescription(mkt, policy, msr, [msr.wbar_load], [msr.wbar_load], [])
    rows = _martingale_rows(mkt, grid, m0, gamma, tracks_trends)
    moving = [] if rows.driver_load is None else [rows.driver_load, rows.alloc_load]
    cost_rows = [load for load in moving if load is not None]
    paths = [load for load in (rows.wbar_load, rows.alloc_load) if load is not None]
    further = [load for load in paths if all(load is not row for row in cost_rows)]
    return RunDescription(mkt, policy, rows, cost_rows, [rows.wbar_load], further)


def _simulate_martingale(run: RunDescription, noise: NoisePaths) -> PolicyPathSample:
    """Frictionless equilibrium of a martingale allocation, every firm sum taken first.

    Firm i expects the total allocation M_i(t) = m0_i + (gamma Wtilde)_i(t)
    and holds A_i(t), which reaches M_i(T) at the horizon.  Besides the
    martingale part, allowances arrive at the deterministic total rate
    alloc_flow: the tracking policies' holdings equal their expectation,
    and the static lump sum's x_bar0 - mu_i t deplete with emissions; hence
    sum_i A_i(t) = sum_i M_i(t) + (sum_i mu_i - alloc_flow) (T - t), exactly
    sum_i M_i(t) when tracking.

    Only the average allocation surprise dZbar moves the price
    (`frictionless_price`).  Abatement is alpha_i = eta_i (P - h_i).  Firm
    i's cumulative trade starts at B_i(0) = eta_i h_i T - c_i(0) P_0 - M_i(0)
    and moves by dB_i = -(c_i(t) dP + dM_i - sigma_i dW_i), with c_i(t) from
    the terminal condition X_i(T) = -P_T / (2 lam); clearing is checked on
    the firm sum sum_i B_i, built from sum_i c_i(t) and N dZbar.  In
    X_i(T) = M_i(T) + sum_k alpha_i(t_k) dt + B_i(T) - sigma_i W_i(T) the
    allocation and shock terms cancel against those of B_i(T); summed by
    parts with c_i(t_k) - c_i(t_{k-1}) = -eta_i dt, that is the grid identity

        X_i(T) = -P_T / (2 lam) - eta_i dt (P_T - P_0),

    the terminal condition up to one grid term.  The costs are abatement
    sum_i (eta_i/2) sum_k (P_k^2 - h_i^2) dt, trading
    (sum_k P_k dt) sum_i B_i(T) / T, penalty lam sum_i X_i(T)^2 and a tax
    of 0; the terminal emissions are T sum_i mu_i minus the abated total
    plus the shock sum N Wbar_T.

    ``run`` is described on the block's grid.  When nothing surprises the
    market the price is the constant P_0, and the cost parts, price and
    abatement are one value or row, repeated on every path as read-only
    views.  The costs do not depend on how the paths are cut into blocks or
    chunks.  Raises `ClearingError` when the summed trades do not clear (a
    NaN fails the check), and `DomainError` for a cost or terminal emission
    that is not finite (`_sample`).
    """
    mkt, rows, kind = run.mkt, run.rows, run.policy.kind
    grid = noise.grid
    t, dt, horizon = grid.knots, grid.dt, grid.horizon
    n_paths, m = noise.n_paths, grid.n_steps
    shape = (n_paths, m + 1)
    lam, n = mkt.penalty, mkt.n_firms
    wbar_T = noise.row_total(rows.wbar_load)  # sum_i sigma_i W_i(T) = N Wbar_T
    # three (rows, M+1) blocks in one pooled scratch
    block_paths = min(n_paths, max(1, SCRATCH_DOUBLES // (3 * (m + 1))))
    scratch = pooled_empty((3, block_paths * (m + 1)))

    def expected_sum(paths: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
        # sum_i M_i(t) = sum_i m0_i + (sum_i gamma_i) Wtilde(t)
        if rows.alloc_load is None:
            return np.full((n_paths, 1), rows.m0_sum)
        total = integrate_increments(noise.row(rows.alloc_load)[paths], out=out)
        total += rows.m0_sum
        return total

    # no surprise: dP = 0 and the summed trade stays at its start, on every
    # path alike, so each sum is taken once, on one row
    driver = None if rows.driver_load is None else noise.row(rows.driver_load)
    surprise = driver is not None
    n_rows = n_paths if surprise else 1

    def price_rows(paths: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
        if surprise:
            return frictionless_price(rows.p0, rows.step, driver[paths], out)
        return np.full((1, m + 1), rows.p0)

    trade_T = np.full(n_rows, rows.trade0)
    price_sum, gap_sum, abated_T = np.empty(n_rows), np.empty(n_rows), np.empty(n_rows)
    p_T = np.empty((n_rows, 1))
    reads_alloc = surprise and rows.alloc_load is not None
    alloc_max = [] if reads_alloc else [abs(rows.m0_sum)]
    trade_max = [] if surprise else [abs(rows.trade0)]
    price_max = []
    for paths, b in row_blocks(n_rows, block_paths):
        price = price_rows(paths, _block(scratch[2], b, m + 1))
        price_max.append(abs_max(price))
        if surprise:
            block = _block(scratch[0], b, m + 1)
            if reads_alloc:
                alloc_max.append(abs_max(expected_sum(paths, block)))
            # sum_i dB_i = -(sum_i c_i(t) dP + N dZbar), written into the
            # block's summed trade and integrated in place
            d_trade = block[:, 1:]
            np.subtract(price[:, 1:], price[:, :-1], out=d_trade)
            d_trade *= rows.coef_sum[:-1]
            d_trade += np.multiply(driver[paths], rows.trade_scale, out=_block(scratch[1], b, m))
            integrate_increments(d_trade, out=block)
            np.subtract(rows.trade0, block, out=block)
            trade_max.append(abs_max(block))
            trade_T[paths] = block[:, -1]
        price_sum[paths] = price[:, :-1].sum(axis=-1)
        p_T[paths, 0] = price[:, -1]
        excess = np.subtract(price, rows.h_eff, out=_block(scratch[0], b, m + 1))
        excess_left = excess[:, :-1]
        # (excess + 2 h_eff) excess on the left knots
        gap_sq = np.add(excess_left, 2.0 * rows.h_eff, out=_block(scratch[1], b, m))
        gap_sq *= excess_left
        gap_sum[paths] = gap_sq.sum(axis=-1)
        # the abated total eta_total (P - h_eff) to its last knot, summed in
        # the running order of `left_integral`
        excess *= rows.eta_total
        np.multiply(excess[:, :-1], dt, out=gap_sq)
        abated_T[paths] = np.cumsum(gap_sq, axis=-1, out=gap_sq)[:, -1]
    # the largest block maxima, NaN if any is (np.max propagates it)
    require_frictionless_clearing(
        mkt, grid, np.array(price_max), np.array(trade_max), float(np.max(alloc_max))
    )

    abatement = 0.5 * rows.eta_total * gap_sum * dt - rows.abatement_const
    trading = price_sum * dt * trade_T / horizon
    bank_T = -p_T / (2.0 * lam) - rows.etas * dt * (p_T - rows.p0)
    penalty = lam * (bank_T**2).sum(axis=1)
    parts = dict(abatement=abatement, trading=trading, penalty=penalty, tax=0.0)
    parts = {key: np.broadcast_to(value, shape[:1]) for key, value in parts.items()}
    terminal_emissions = rows.mu_total * t[-1] - abated_T + n * wbar_T

    def trajectories() -> dict[str, np.ndarray]:
        price = price_rows()
        abate_total = np.subtract(price, rows.h_eff)  # eta_total (P - h_eff)
        abate_total *= rows.eta_total
        abated = left_integral(abate_total, grid)
        shock_sum = n * integrate_increments(noise.row(rows.wbar_load))
        alloc = expected_sum()
        return dict(
            price=np.broadcast_to(price, shape),
            total_bank=(
                alloc
                + (rows.mu_total - rows.alloc_flow) * (horizon - t)
                + abated
                + (trade_T / horizon)[:, None] * t
                - shock_sum
            ),
            avg_abatement=np.broadcast_to(abate_total / n, shape),
            total_emissions=rows.mu_total * t - abated + shock_sum,
            net_allocation_minus_initial=alloc - alloc[:, :1] + rows.alloc_flow * t,
        )

    return _sample(
        kind,
        lambda: f"{kind.value} run ({grid.n_steps} steps)",
        parts,
        terminal_emissions,
        trajectories,
    )


def simulate_policy_paths(
    policy: Policy, mkt: MarketParams, noise: NoisePaths
) -> PolicyPathSample:
    """Simulate one policy on a noise block and price every path.

    Martingale-type policies (optimal, custom, static) run through the
    frictionless market equilibrium, computed by one kernel on firm sums
    (`_simulate_martingale`); the tax needs no market; the MSR integrates
    its coupled (average bank, price) system with Euler steps.  All
    policies draw from the same underlying shocks, so samples produced
    from the same ``noise`` are directly comparable path by path.  The
    block must have been drawn for the market's firms.  A run no kernel
    simulates raises `UnsupportedInputError` (`_describe`), and a path
    whose cost or terminal emissions overflow `DomainError`.
    """
    noise.require_firms(mkt.firms)
    [sample] = _simulate_stack([_describe(mkt, policy, noise.grid)], noise)
    return sample


def _simulate_stack(
    runs: Sequence[RunDescription], noise: NoisePaths
) -> Iterator[PolicyPathSample]:
    """The samples of the described ``runs`` on one noise block, in run order,
    each built when it is requested: MSR runs step as one stack
    (`_simulate_msr`); any other stack is one run."""
    if isinstance(runs[0].rows, MSRRows):
        yield from _simulate_msr(runs, noise)
    else:
        [run] = runs
        yield (_simulate_tax if run.rows is None else _simulate_martingale)(run, noise)


def _simulate_tax(run: RunDescription, noise: NoisePaths) -> PolicyPathSample:
    """A constant tax tau and no market: firm i abates at alpha_i, the cost is
    T sum_i (h_i alpha_i + alpha_i^2 / (2 eta_i)) plus tau times the terminal
    emissions (sum_i mu_i - sum_i alpha_i) T + sum_i sigma_i W_i(T)."""
    mkt, policy, grid = run.mkt, run.policy, noise.grid
    t, shape = grid.knots, (noise.n_paths, grid.n_steps + 1)
    mu_total = float(np.array([fp.mu for fp in mkt.firms]).sum())
    alpha = float(policy.alpha.sum())
    [shock_load] = run.totals  # sum_i sigma_i dW_i
    terminal_emissions = (mu_total - alpha) * t[-1] + noise.row_total(shock_load)
    hs = np.array([fp.h for fp in mkt.firms])
    etas = np.array([fp.eta for fp in mkt.firms])
    abate_cost = grid.horizon * float(np.sum(hs * policy.alpha + policy.alpha**2 / (2.0 * etas)))
    # the parts but the tax, the price, bank, abatement and net allocation are
    # the same on every path: read-only views
    zero_s = np.broadcast_to(0.0, shape[:1])
    parts = {
        "abatement": np.broadcast_to(abate_cost, shape[:1]),
        "trading": zero_s,
        "penalty": zero_s,
        "tax": policy.tau * terminal_emissions,
    }

    def trajectories() -> dict[str, np.ndarray]:
        zero = np.broadcast_to(0.0, shape)
        return dict(
            price=np.broadcast_to(policy.tau, shape),
            total_bank=zero,
            avg_abatement=np.broadcast_to(alpha / mkt.n_firms, shape),
            total_emissions=(mu_total - alpha) * t + integrate_increments(noise.row(shock_load)),
            net_allocation_minus_initial=zero,
        )

    return _sample(
        policy.kind,
        lambda: f"tax run ({grid.n_steps} steps)",
        parts,
        terminal_emissions,
        trajectories,
    )


@dataclass(frozen=True, eq=False)
class MSRRows:
    """The deterministic part of one MSR run on a time grid (`_msr_rows`).

    The price is in feedback form P_k = c0_k + c1_k Xbar_k, and the Euler
    step of the average bank is X_{k+1} = a_k X_k + b_k - dWbar_k.  The
    per-knot rows are (M+1,), and b_k (M,).
    """

    c0: np.ndarray   # euros/ton
    c1: np.ndarray   # euros/ton^2
    ramp: np.ndarray  # drawdown target (T - t) x_bar0 / T, tons
    a: np.ndarray    # 1 + (eta_bar c1_k - delta) dt
    b: np.ndarray    # (delta ramp_k + eta_bar (c0_k - h_bar)) dt, tons
    eta_bar: float
    h_bar: float
    x_bar0: float    # the average bank at t = 0, tons
    delta: float     # reversion speed, 1/year
    wbar_load: np.ndarray  # load of the weighted mean shock dWbar, (N+1,)


def _msr_rows(mkt: MarketParams, policy: MSRPolicy, grid: TimeGrid) -> MSRRows:
    """The rows of one MSR run: c1 = -F (1 - delta z) and
    c0 = F ((1 - delta z) ramp + z (eta_bar h_bar - x_bar0 / T)) with
    z = `msr_z` and F = `msr_F`; the Euler step
    x + (delta (ramp - x) + eta_bar (c0 + c1 x - h_bar)) dt - dW is
    a_k x_k + b_k - dW_k.  Every row is elementwise in the knots, so a
    run's rows have the same bits whichever runs it steps with."""
    t = grid.knots
    delta, dt = policy.delta, grid.dt
    eta, h_bar = mkt.agg.eta_bar, mkt.agg.h_bar
    z = msr_z(delta, t, grid.horizon)
    big_f = msr_F(mkt, delta, t)
    ramp = (grid.horizon - t) * policy.x_bar0 / grid.horizon
    c1 = -big_f * (1.0 - delta * z)
    c0 = big_f * ((1.0 - delta * z) * ramp + z * (eta * h_bar - policy.x_bar0 / grid.horizon))
    a = 1.0 + (eta * c1 - delta) * dt
    b = ((delta * ramp + eta * (c0 - h_bar)) * dt)[:-1]
    wbar_load = weighted_mean_load([fp.k for fp in mkt.firms], [fp.sigma for fp in mkt.firms])
    return MSRRows(c0, c1, ramp, a, b, eta, h_bar, policy.x_bar0, delta, wbar_load)


def _simulate_msr(
    runs: Sequence[RunDescription], noise: NoisePaths
) -> Iterator[PolicyPathSample]:
    """Euler integration of the coupled (average bank, price) system, for a
    stack of MSR runs on one noise block.

    Run r's price is P_t = c0(t) + c1(t) Xbar_t, and its average bank
    follows dXbar = (delta (ramp_t - Xbar_t) + eta (P_t - h_bar)) dt - dWbar_t
    (`_msr_rows`).  At t = T the coefficients collapse to P_T = -2 lambda Xbar_T,
    the terminal marginal penalty.  The runs may differ in every parameter
    but the weighted-mean load of the average shock dWbar, which the first
    run's rows give; they step together with the run index as an array axis
    (`_msr_sums`), so a stack costs the Python calls of one run.  The
    ``runs`` are described on the block's grid, which was drawn for their
    firms: `_stack_bounds` stacks only runs of one load, and the callers
    check the firms, `_simulate_runs` once per run and
    `simulate_policy_paths` on its block.  Yields one sample per run, in run
    order, each built when it is requested (`_msr_sample`), with the bits
    the run has alone.
    """
    grid, rows = noise.grid, [run.rows for run in runs]
    wbar_T, d_wbar = noise.row_total(rows[0].wbar_load), noise.row(rows[0].wbar_load)
    abated, alpha_sq, x_T = _msr_sums(rows, d_wbar, grid.dt)
    for r, run in enumerate(runs):
        yield _msr_sample(run.mkt, grid, rows[r], d_wbar, wbar_T, abated[r], alpha_sq[r], x_T[r])


def _msr_steps(
    a_t: np.ndarray, b_t: np.ndarray, d_wbar: np.ndarray, k0: int, x_t: np.ndarray
) -> None:
    """Step the time-major banks ``x_t``, (n+1, R, P), from knot ``k0`` in its
    row 0 to knot k0 + n in its last row, on the shocks ``d_wbar``, (P, M).

    The transposed shocks go into the first run's rows, and two bulk passes
    turn them into every run's u_k = b_k - dW_k; then each knot takes two
    in-place calls on (R, P) rows, x_{k+1} = u_k + a_k x_k.
    """
    n = len(x_t) - 1
    b_t = b_t[k0 : k0 + n]
    dw_t = x_t[1:, 0]
    np.copyto(dw_t, d_wbar[:, k0 : k0 + n].T)
    np.subtract(b_t[:, 1:], dw_t[:, None], out=x_t[1:, 1:])
    np.subtract(b_t[:, 0], dw_t, out=dw_t)
    ax = np.empty(x_t.shape[1:])
    for a_k, x, x_next in zip(a_t[k0 : k0 + n], x_t, x_t[1:]):
        np.multiply(a_k, x, out=ax)
        x_next += ax


def _time_sum(rows: np.ndarray, out: np.ndarray) -> None:
    """Sum time-major (n, ...) rows over time into ``out``, knot by knot.

    numpy sums an outer axis one row at a time, in the running order of
    `integrate_increments`, but a lone column pairwise; cumsum keeps the
    running order there, so a path's sums do not depend on its stack or
    block.
    """
    if rows[0].size == 1:
        out[...] = np.cumsum(rows, axis=0)[-1]
    else:
        np.add.reduce(rows, axis=0, out=out)


def _msr_sums(
    rows: Sequence[MSRRows], d_wbar: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each run's sums over the left knots of alpha_k dt = eta (P_k - h_bar) dt
    and of (alpha_k dt)^2, and its banks at T, each (R, P), for a stack of R
    runs with the `_msr_rows` ``rows`` on the shocks ``d_wbar``, (P, M).

    Every sum keeps the knot-by-knot order of one sum over all M knots
    (`_time_sum`), so a run's sums have the same bits in a stack as alone.
    """
    n_paths, m = d_wbar.shape
    # time-major (knots, R, 1)
    per_run = zip(*((r.a, r.b, r.c0, r.c1) for r in rows))
    a_t, b_t, c0, c1 = (np.stack(row, axis=1)[..., None] for row in per_run)
    eta, h_bar, x_bar0 = np.array([(r.eta_bar, r.h_bar, r.x_bar0) for r in rows]).T[..., None]
    # a rolling block of span + 1 knots, whose row 0 holds the last knot of
    # the block before, and a second of alpha_k dt, whose row 0 holds the
    # running total (-0.0 at first, which adds exactly)
    span = max(1, SCRATCH_DOUBLES // (2 * len(rows) * n_paths) - 1)
    x_t, alpha = pooled_empty((2, min(span, m) + 1, len(rows), n_paths))
    abated = np.full(x_t.shape[1:], -0.0)
    alpha_sq = np.full(x_t.shape[1:], -0.0)
    x_t[0] = x_bar0
    for k0 in range(0, m, span):
        n = min(span, m - k0)
        _msr_steps(a_t, b_t, d_wbar, k0, x_t[: n + 1])
        # the products alpha_k dt that left_integral sums in total_emissions,
        # from the price c0_k + c1_k x_k on the block's left knots
        alpha_dt = np.multiply(c1[k0 : k0 + n], x_t[:n], out=alpha[1 : n + 1])
        alpha_dt += c0[k0 : k0 + n]
        alpha_dt -= h_bar
        alpha_dt *= eta
        alpha_dt *= dt
        alpha[0] = abated
        _time_sum(alpha[: n + 1], abated)
        alpha_dt *= alpha_dt
        alpha[0] = alpha_sq
        _time_sum(alpha[: n + 1], alpha_sq)
        x_t[0] = x_t[n]
    return abated, alpha_sq, x_t[0].copy()


def _msr_sample(
    mkt: MarketParams,
    grid: TimeGrid,
    rows: MSRRows,
    d_wbar: np.ndarray,
    wbar_T: np.ndarray,
    abated: np.ndarray,
    alpha_sq: np.ndarray,
    x_T: np.ndarray,
) -> PolicyPathSample:
    """One MSR run's sample from its sums over the left knots of alpha_k dt
    and (alpha_k dt)^2 and its banks at T, each (P,) (`_msr_sums`), on the
    average shocks ``d_wbar``, (P, M), whose totals are ``wbar_T``
    (`NoisePaths.row_total`).

    The abatement cost is sum_k (h_bar alpha_k + alpha_k^2 / (2 eta)) dt.
    The trajectories come from the run's whole time-major banks, (M+1, P),
    stepped again from knot 0 (`_msr_steps`) with the bits of the sums; the
    price and bank are transposed views of them.  A cost part or terminal
    emission that is not finite, from an overflowing recursion or penalty,
    raises `DomainError` (`_sample`).
    """
    t, n, mu_bar = grid.knots, mkt.n_firms, mkt.agg.mu_bar
    eta, h_bar, dt = rows.eta_bar, rows.h_bar, grid.dt
    n_paths = len(x_T)
    terminal_emissions = n * (mu_bar * t[-1] - abated)
    terminal_emissions += n * wbar_T
    abatement = n * (h_bar * abated + alpha_sq / (2.0 * eta * dt))
    penalty = n * mkt.penalty * x_T**2
    zero_s = np.broadcast_to(0.0, (n_paths,))  # read-only, stride 0
    parts = {"abatement": abatement, "trading": zero_s, "penalty": penalty, "tax": zero_s}

    def trajectories() -> dict[str, np.ndarray]:
        x_t = np.empty((grid.n_steps + 1, 1, n_paths))
        x_t[0] = rows.x_bar0
        _msr_steps(rows.a[:, None, None], rows.b[:, None, None], d_wbar, 0, x_t)
        banks = x_t[:, 0]
        price = np.multiply(rows.c1[:, None], banks)
        price += rows.c0[:, None]
        avg_abatement = eta * (price.T - h_bar)
        alloc_rate = np.subtract(rows.ramp[:, None], banks).T
        alloc_rate *= rows.delta
        return dict(
            price=price.T,
            total_bank=(n * banks).T,
            avg_abatement=avg_abatement,
            total_emissions=(
                n * (mu_bar * t - left_integral(avg_abatement, grid))
                + n * integrate_increments(d_wbar)
            ),
            net_allocation_minus_initial=n * (left_integral(alloc_rate, grid) + mu_bar * t),
        )

    return _sample(
        PolicyKind.MSR,
        lambda: f"MSR run (eta_bar {eta:g}, delta {rows.delta:g}, {grid.n_steps} steps)",
        parts,
        terminal_emissions,
        trajectories,
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


def _stack_bounds(runs: list[RunDescription], cap: int) -> list[tuple[int, int]]:
    """Split the run indices into ranges [start, stop) that simulate together.

    Consecutive MSR runs with the same weighted-mean load, the one row a
    stack shares, form stacks of at most ``cap`` runs; every other run is a
    range of its own.  This is where a stack's shared row is enforced
    (`_simulate_msr` reads the first run's).  A stack steps through rolling
    blocks of about SCRATCH_DOUBLES doubles, so the cap bounds no buffer: it
    keeps the block's span of knots from shrinking.
    """
    bounds: list[tuple[int, int]] = []
    key = None
    for i, run in enumerate(runs):
        run_key = run.rows.wbar_load.tobytes() if isinstance(run.rows, MSRRows) else None
        start, stop = bounds[-1] if bounds else (0, 0)
        if run_key is not None and run_key == key and stop - start < cap:
            bounds[-1] = (start, i + 1)
        else:
            bounds.append((i, i + 1))
        key = run_key
    return bounds


def _simulate_runs(
    runs: list[tuple[MarketParams, Policy]], ensemble: PathEnsemble
) -> Iterator[tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]]:
    """Simulate every (market, policy) run on every chunk of one ensemble.

    Each chunk's noise is drawn once and serves every run, so the runs share
    shocks path by path.  The ensemble sets the chunks
    (`PathEnsemble.chunk_size`, by default sized by the grid), and no run's
    numbers depend on them.  Every run is checked against the ensemble's
    firms and described (`_describe`) before the first draw.  Consecutive
    MSR runs on the same weighted-mean load (the etas of a sweep) step as
    stacks of at most (N+1) M // (M+1) runs (`_stack_bounds`).  Yields, per
    run and in run order, the per-path cost summed from the concatenated
    cost parts (`_path_cost`, with the bits of the chunks' costs), the
    parts and the terminal emissions, each built when it is requested.
    README "How a chunk is computed" gives the reads and memory this takes.
    """
    for mkt, _ in runs:
        ensemble.require_firms(mkt.firms)
    described = [_describe(mkt, policy, ensemble.grid) for mkt, policy in runs]
    rows = [load for run in described for load in run.cost_rows]
    totals = [load for run in described for load in run.totals]
    m = ensemble.grid.n_steps
    bounds = _stack_bounds(described, max(1, (len(ensemble.firms) + 1) * m // (m + 1)))
    # per run, each chunk's (cost parts, terminal emissions)
    kept: list[list[tuple[dict[str, np.ndarray], np.ndarray]]] = [[] for _ in runs]

    with array_pool():
        for noise in ensemble.chunks(rows, totals):
            for start, stop in bounds:
                # neither enumerate nor zip: each caches its last item, which
                # would keep one sample alive while the next is built
                i = start
                for sample in _simulate_stack(described[start:stop], noise):
                    kept[i].append((sample.parts, sample.terminal_emissions))
                    i += 1
                    del sample  # free its trajectories before the next one is built
            del noise  # free its rows for the next draw
    kept.reverse()
    while kept:
        yield _joined(kept.pop())  # the run's pieces are freed as _joined returns


def _joined(
    pieces: list[tuple[dict[str, np.ndarray], np.ndarray]],
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """One run's per-path cost, cost parts and terminal emissions over all
    paths, from its per-chunk (cost parts, terminal emissions) ``pieces``."""
    parts = {
        key: np.concatenate([chunk_parts[key] for chunk_parts, _ in pieces])
        for key in ("abatement", "trading", "penalty", "tax")
    }
    return _path_cost(parts), parts, np.concatenate([emissions for _, emissions in pieces])


def run_ensemble(
    mkt: MarketParams, policies: list[Policy], ensemble: PathEnsemble
) -> ComparisonResult:
    """Simulate every policy on every chunk of a shared ensemble and report costs.

    Chunk by chunk, each policy runs on the same noise block
    (`_simulate_runs`).  Only the cost parts that vary by path and the
    terminal emissions are kept, so no trajectory outlives its chunk; each
    policy's per-path cost is summed from its concatenated parts, and only
    those costs are held for the deltas once its report is made.  A Monte Carlo
    estimate that misses its closed form only clears its report's
    ``consistent`` flag; `compare_policies` raises on it instead.
    """
    kinds = [p.kind for p in policies]
    if len(set(kinds)) != len(kinds):
        raise UnsupportedInputError("duplicate policy kinds in comparison")
    reports = []
    path_costs = {}
    runs = _simulate_runs([(mkt, p) for p in policies], ensemble)
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
