"""Seed-deterministic Brownian drivers, time grids, and path diagnostics.

The model is driven by N+1 independent Brownian motions: one common factor
and one idiosyncratic factor per firm.  Firm i's shock is the correlated
combination

    dW_i = sqrt(1 - k_i^2) * dTilde_i + k_i * dTilde_0,

so that corr(dW_i, dW_j) = k_i * k_j.

Path streams are derived per path index from the root seed via
``SeedSequence(seed, spawn_key=(path_index,))``, which makes every ensemble
bit-reproducible and independent of chunking or evaluation order.  All
quadrature is left-point (Ito); the default grid is 2000 uniform steps for
a 10-year horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .params import FirmParams


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_M = T with dt = T/M."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if not self.n_steps >= 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def knots(self) -> np.ndarray:
        # linspace pins the final knot to exactly T (no accumulation error)
        t = np.linspace(0.0, self.horizon, self.n_steps + 1)
        t.setflags(write=False)
        return t


@dataclass(frozen=True, eq=False)
class NoisePaths:
    """Increments of the driving Brownian motions for one or more paths.

    ``d_tilde`` holds the independent drivers, shape (n_paths, N+1, M), with
    the common factor in row 0; ``d_firm`` holds the correlated per-firm
    increments, shape (n_paths, N, M).  Each increment is Normal(0, dt).
    """

    seed: int
    path_offset: int
    grid: TimeGrid
    ks: tuple[float, ...]
    d_tilde: np.ndarray
    d_firm: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.d_tilde.shape[0]

    @property
    def n_firms(self) -> int:
        return self.d_firm.shape[1]

    def tilde_paths(self) -> np.ndarray:
        """Integrated independent drivers, shape (n_paths, N+1, M+1), zero at t=0."""
        return integrate_increments(self.d_tilde)

    def firm_paths(self) -> np.ndarray:
        """Integrated correlated firm shocks W_i, shape (n_paths, N, M+1)."""
        return integrate_increments(self.d_firm)

    def weighted_mean_increments(self, sigmas: Sequence[float]) -> np.ndarray:
        """(1/N) sum_i sigma_i dW_i, shape (n_paths, M)."""
        w = np.asarray(sigmas, dtype=float)
        return np.einsum("i,pim->pm", w, self.d_firm) / self.n_firms


def integrate_increments(d: np.ndarray) -> np.ndarray:
    """Running sums of increments (..., M) as knot values (..., M+1), 0 at t=0."""
    shape = d.shape[:-1] + (d.shape[-1] + 1,)
    out = np.empty(shape)
    out[..., 0] = 0.0
    np.cumsum(d, axis=-1, out=out[..., 1:])
    return out


def generate_noise(
    seed: int,
    grid: TimeGrid,
    firms: Sequence[FirmParams],
    n_paths: int = 1,
    path_offset: int = 0,
) -> NoisePaths:
    """Draw Brownian increments for paths [path_offset, path_offset + n_paths).

    Each path has its own generator spawned from the root seed, so the same
    (seed, path index) always yields the same increments no matter how the
    ensemble is chunked.
    """
    n = len(firms)
    m = grid.n_steps
    sqrt_dt = math.sqrt(grid.dt)
    d_tilde = np.empty((n_paths, n + 1, m))
    for p in range(n_paths):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(path_offset + p,))
        )
        d_tilde[p] = rng.standard_normal((n + 1, m))
    d_tilde *= sqrt_dt
    ks = np.array([f.k for f in firms])
    loadings = np.sqrt(1.0 - ks**2)
    d_firm = loadings[:, None] * d_tilde[:, 1:, :] + ks[:, None] * d_tilde[:, :1, :]
    return NoisePaths(
        seed=seed,
        path_offset=path_offset,
        grid=grid,
        ks=tuple(float(k) for k in ks),
        d_tilde=d_tilde,
        d_firm=d_firm,
    )


@dataclass(frozen=True)
class PathEnsemble:
    """A lazily generated ensemble of independent noise paths.

    Iterating ``chunks()`` yields NoisePaths blocks whose union is exactly the
    ensemble; ``path(i)`` materializes a single path.  Chunking never changes
    the numbers, only the memory profile.
    """

    seed: int
    grid: TimeGrid
    firms: tuple[FirmParams, ...]
    n_paths: int
    chunk_size: int = 256

    def chunks(self) -> Iterator[NoisePaths]:
        for start in range(0, self.n_paths, self.chunk_size):
            size = min(self.chunk_size, self.n_paths - start)
            yield generate_noise(self.seed, self.grid, self.firms, size, start)

    def path(self, index: int) -> NoisePaths:
        if not 0 <= index < self.n_paths:
            raise IndexError(index)
        return generate_noise(self.seed, self.grid, self.firms, 1, index)


def coarsen_noise(noise: NoisePaths, factor: int) -> NoisePaths:
    """Aggregate increments onto a grid coarser by ``factor`` (refinement tests).

    The returned object represents the same Brownian paths sampled on the
    coarse grid; it is derived data, not a fresh draw.
    """
    m = noise.grid.n_steps
    if m % factor:
        raise ValueError(f"n_steps {m} not divisible by factor {factor}")
    coarse = TimeGrid(noise.grid.horizon, m // factor)
    shape_t = noise.d_tilde.shape
    d_tilde = noise.d_tilde.reshape(shape_t[0], shape_t[1], m // factor, factor).sum(axis=-1)
    shape_f = noise.d_firm.shape
    d_firm = noise.d_firm.reshape(shape_f[0], shape_f[1], m // factor, factor).sum(axis=-1)
    return NoisePaths(
        seed=noise.seed,
        path_offset=noise.path_offset,
        grid=coarse,
        ks=noise.ks,
        d_tilde=d_tilde,
        d_firm=d_firm,
    )


# ---------------------------------------------------------------------------
# quadrature helpers and diagnostics
# ---------------------------------------------------------------------------

def left_integral(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Cumulative left-point integral of knot samples, shape-preserving.

    Input (..., M+1) knot values; output (..., M+1) with 0 at t=0 and
    sum_{j < k} values_j * dt at knot k.
    """
    out = np.empty_like(np.asarray(values, dtype=float))
    out[..., 0] = 0.0
    np.cumsum(values[..., :-1] * grid.dt, axis=-1, out=out[..., 1:])
    return out


def closing_martingale(alpha_path: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Project a martingale rate onto its horizon total: M_t = int_0^t a ds + (T-t) a_t.

    When ``alpha_path`` is a martingale this is the conditional expectation of
    int_0^T a ds given time t, and its increments satisfy the exact discrete
    identity dM_k = (T - t_{k+1}) da_k under left-point quadrature.
    """
    alpha = np.asarray(alpha_path, dtype=float)
    remaining = grid.horizon - grid.knots
    return left_integral(alpha, grid) + remaining * alpha


@dataclass(frozen=True, eq=False)
class DriftDiagnostic:
    """Per-knot z-scores of the ensemble mean increment from t=0.

    ``degenerate`` flags knots where the cross-sectional variance vanishes
    (the statistic is reported as 0 there, e.g. at t=0 or for constants).
    """

    z: np.ndarray
    degenerate: np.ndarray
    n_paths: int

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z)))

    def passed(self, threshold: float = 4.0) -> bool:
        return bool(np.all(np.abs(self.z) < threshold))


def martingale_drift_stat(ensemble: np.ndarray) -> DriftDiagnostic:
    """Test the null 'E[X_t - X_0] = 0 for all t' on an ensemble (n_paths, M+1).

    For a true martingale max_t |z| stays below ~4 with overwhelming
    probability at 10^4 paths; deterministic drift makes |z| grow like
    sqrt(n_paths).
    """
    x = np.asarray(ensemble, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need an (n_paths >= 2, n_knots) ensemble")
    n = x.shape[0]
    diff = x - x[:, :1]
    mean = diff.mean(axis=0)
    sd = diff.std(axis=0, ddof=1)
    degenerate = sd == 0.0
    z = np.zeros_like(mean)
    np.divide(mean, sd / math.sqrt(n), out=z, where=~degenerate)
    return DriftDiagnostic(z=z, degenerate=degenerate, n_paths=n)


def realized_qv(path: np.ndarray) -> np.ndarray:
    """Cumulative realized quadratic variation sum (dX)^2 along the last axis.

    Input (..., M+1) knot values; output matches, starting at 0.
    """
    x = np.asarray(path, dtype=float)
    out = np.empty_like(x)
    out[..., 0] = 0.0
    np.cumsum(np.diff(x, axis=-1) ** 2, axis=-1, out=out[..., 1:])
    return out
