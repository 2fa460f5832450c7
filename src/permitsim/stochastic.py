"""Seed-deterministic Brownian drivers, time grids, and path diagnostics.

The model is driven by N+1 independent Brownian motions: one common factor
and one idiosyncratic factor per firm.  Firm i's shock is the correlated
combination

    dW_i = sqrt(1 - k_i^2) * dTilde_i + k_i * dTilde_0,

so that corr(dW_i, dW_j) = k_i * k_j.

Path i's increments are

    sqrt(dt) * default_rng(SeedSequence(seed, spawn_key=(i,))).standard_normal((N+1, M)),

common factor in row 0, which makes every ensemble bit-reproducible and
independent of chunking or evaluation order.  ``generate_noise`` does not
build a SeedSequence per path: it computes the PCG64 seeding words of a
whole block of paths at once with NumPy's published SeedSequence hash
(NEP 19) on uint32 arrays, then seeds one PCG64 per path from them.  All
quadrature is left-point (Ito); the default grid is 2000 uniform steps for
a 10-year horizon.

The simulations read the shocks only through a few loading rows, fixed
combinations ``load @ d_tilde`` of the drivers (the firms' weighted mean
shock, the sum of a policy's allocation loadings).  Given those loads,
`generate_noise` draws a few paths of normals at a time into a small
scratch and keeps only the rows; the block's drivers,
``NoisePaths.d_tilde``, are then drawn from the same streams on first
access; a row's sum over time, on which every policy's emissions end, is
taken once per block (``NoisePaths.row_total``), in the draw for every load
drawn as a total, from its kept row or, for a row read only through it,
from the scratch.  `map_path_slices` draws
a large block of paths as contiguous path slices, one per CPU the process
may run on; the shocks are per-path streams, so the numbers do not depend
on the split.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import operator
import os
import sys
import threading
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import UnsupportedInputError
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


def weighted_mean_load(ks: Sequence[float], sigmas: Sequence[float]) -> np.ndarray:
    """The loading row of (1/N) sum_i sigma_i dW_i on the N+1 drivers."""
    w = np.array([float(s) for s in sigmas])
    ks = np.asarray(ks, dtype=float)
    return np.concatenate([[w @ ks], w * np.sqrt(1.0 - ks**2)]) / len(ks)


def _load_vector(load: Sequence[float], n_drivers: int) -> np.ndarray:
    load = np.ascontiguousarray(load, dtype=float)
    if load.shape != (n_drivers,):
        raise UnsupportedInputError(
            f"a loading row on {n_drivers} drivers needs shape ({n_drivers},), got {load.shape}"
        )
    return load


def _require_loadings(ks: Sequence[float], firms: Sequence[FirmParams]) -> None:
    want = tuple(float(f.k) for f in firms)
    if not np.array_equal(ks, want):
        raise UnsupportedInputError(
            f"noise block was drawn for firm loadings k = {tuple(map(float, ks))}, "
            f"not for the market's k = {want}"
        )


@dataclass(frozen=True, eq=False, init=False)
class NoisePaths:
    """Increments of the driving Brownian motions for paths
    [path_offset, path_offset + n_paths).

    ``row(load)`` is ``load @ d_tilde``, one (n_paths, M) combination of the
    drivers; the block keeps the rows it was drawn with (`generate_noise`)
    and caches any other on first use, read-only, keyed by the load's bits.
    ``d_tilde`` holds the independent drivers themselves, shape
    (n_paths, N+1, M), with the common factor in row 0; each increment is
    Normal(0, dt).  A block drawn with loads (``n_paths=`` and ``rows=``)
    draws them on first access from its own per-path streams, with the
    bits its rows were computed from; a block built from its increments
    (``d_tilde=``: `generate_noise` without loads, `coarsen_noise`) holds
    them from the start.  A firm's shock is a loading row times
    ``d_tilde``, and ``d_firm`` derives the per-firm increments on demand.
    ``row_total(load)``, a row's sum over time, is cached as the rows are
    (``totals=`` holds those summed in the draw, kept rows or not); both
    live as long as the block.
    """

    seed: int
    path_offset: int
    grid: TimeGrid
    ks: tuple[float, ...]
    n_paths: int

    def __init__(
        self,
        seed: int,
        path_offset: int,
        grid: TimeGrid,
        ks: Sequence[float],
        d_tilde: np.ndarray | None = None,
        *,
        n_paths: int | None = None,
        rows: Iterable[tuple[np.ndarray, np.ndarray]] = (),
        totals: Iterable[tuple[np.ndarray, np.ndarray]] = (),
    ) -> None:
        if (d_tilde is None) == (n_paths is None):
            raise TypeError("NoisePaths takes either d_tilde or n_paths")
        init = partial(object.__setattr__, self)
        init("seed", seed)
        init("path_offset", path_offset)
        init("grid", grid)
        init("ks", ks)
        init("n_paths", n_paths if d_tilde is None else d_tilde.shape[0])
        init("_rows", {})
        init("_totals", {})
        if d_tilde is not None:
            self.__dict__["d_tilde"] = d_tilde  # the cached_property's value
        for cache, drawn in ((self._rows, rows), (self._totals, totals)):
            for load, value in drawn:
                value.setflags(write=False)
                cache[load.tobytes()] = value

    @property
    def n_firms(self) -> int:
        return len(self.ks)

    @cached_property
    def d_tilde(self) -> np.ndarray:
        """The N+1 independent drivers, shape (n_paths, N+1, M), drawn on first access."""
        return _draw_drivers(self.seed, self.grid, self.n_firms + 1, self.n_paths, self.path_offset)

    @cached_property
    def d_firm(self) -> np.ndarray:
        """Correlated per-firm increments dW_i, shape (n_paths, N, M)."""
        ks = np.array(self.ks, dtype=float)[:, None]
        return np.sqrt(1.0 - ks**2) * self.d_tilde[:, 1:, :] + ks * self.d_tilde[:, :1, :]

    def require_firms(self, firms: Sequence[FirmParams]) -> None:
        """Raise UnsupportedInputError unless the block was drawn for ``firms``.

        The firm shocks are read from ``d_tilde`` with the firms' loadings
        ``k``, so a block drawn for other loadings or another firm count
        would give the market shocks it does not have.
        """
        _require_loadings(self.ks, firms)

    def firm_paths(self) -> np.ndarray:
        """Integrated correlated firm shocks W_i, shape (n_paths, N, M+1)."""
        return integrate_increments(self.d_firm)

    def _cached(self, cache: dict, load: Sequence[float], compute: Callable) -> np.ndarray:
        """``compute(load)`` on first use, read-only; ``cache`` keys it by the load's bits."""
        load = _load_vector(load, self.n_firms + 1)
        key = load.tobytes()
        value = cache.get(key)
        if value is None:
            value = compute(load)
            value.setflags(write=False)
            cache[key] = value
        return value

    def row(self, load: Sequence[float]) -> np.ndarray:
        """``load @ d_tilde`` for a loading row on the N+1 drivers, (n_paths, M), read-only.

        A row drawn with the block is served as drawn; any other is
        computed from ``d_tilde`` once and shared by every later caller.
        """
        return self._cached(self._rows, load, lambda load: load @ self.d_tilde)

    def row_total(self, load: Sequence[float]) -> np.ndarray:
        """``integrate_increments(row(load))[:, -1]`` bit for bit, (n_paths,), read-only,
        from the draw or summed once per load from the row, and shared as the row is."""
        return self._cached(
            self._totals, load, lambda load: np.cumsum(self.row(load), axis=-1)[:, -1].copy()
        )


#: Doubles in 64 KiB: every base of an `array_pool` is a whole number of them.
_POOL_GRAIN = 8192


class _ArrayPool:
    """Float arrays handed out again once nothing refers to them.

    Every array `pooled_empty` hands out is a view of one of the pool's
    flat bases, and so is every array derived from it by slicing,
    reshaping, transposing or broadcasting: each such view holds a
    reference to the base.  A base is handed out again only when the pool
    holds the last reference to it, so an array that is still read, e.g.
    by a sample kept past its chunk, is never written over.  A request
    takes the smallest free base that holds it, so a chunk smaller than
    the one before reuses its arrays.  A new base is rounded up to whole
    64 KiB, so that requests of nearly one size share a base whichever
    comes first: at 256 x 2000 the noise draw's scratch (65536 doubles),
    the martingale kernel's three row blocks (60030) and the MSR's two
    rolling blocks (65536), each sized by SCRATCH_DOUBLES, are one base.
    """

    def __init__(self) -> None:
        self._bases: list[np.ndarray] = []
        self._free_refs = 0

    def empty(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        best = None
        for base in self._bases:
            if size <= base.size and sys.getrefcount(base) == self._free_refs:
                if best is None or base.size < best.size:
                    best = base
        if best is None:
            best = np.empty(-(-size // _POOL_GRAIN) * _POOL_GRAIN)
            self._bases.append(best)
            # the list's, this name's and the call's own references: the
            # count the loop above sees for a base no view refers to
            self._free_refs = sys.getrefcount(best)
        return best[:size].reshape(shape)


_array_pool: contextvars.ContextVar[_ArrayPool | None] = contextvars.ContextVar(
    "permitsim_array_pool", default=None
)


@contextlib.contextmanager
def array_pool() -> Iterator[None]:
    """Let `pooled_empty` reuse arrays until the block exits.

    A simulation frees and reallocates the same multi-MB path arrays on
    every chunk, and glibc returned the freed heap to the system and
    faulted it back in on the next chunk; a pool keeps them.  Only the
    thread that entered the block may take arrays from it.
    """
    token = _array_pool.set(_ArrayPool())
    try:
        yield
    finally:
        _array_pool.reset(token)


def pooled_empty(shape: tuple[int, ...]) -> np.ndarray:
    """``np.empty(shape)`` of float64, C-ordered, from the active
    `array_pool` if there is one."""
    pool = _array_pool.get()
    return np.empty(shape) if pool is None else pool.empty(shape)


def integrate_increments(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Running sums of increments (..., M) as knot values (..., M+1), 0 at t=0.

    Every path on the time grid is built here, as its value at t=0 (added
    in place by the caller) plus the running sum of its left-point
    increments; identities such as exact market clearing rely on all paths
    sharing this one convention.  The sums go into ``out`` when it is
    given; ``d`` may be ``out[..., 1:]`` itself, so that increments written
    into a path are summed in place, with no second array.  Otherwise they
    go into a new array (`pooled_empty`).
    """
    if out is None:
        out = pooled_empty(d.shape[:-1] + (d.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(d, axis=-1, out=out[..., 1:])
    return out


#: A block splits across threads only when every path slice keeps at least
#: this many doubles: on smaller slices handing the GIL between threads
#: costs more than the second CPU wins.
MIN_SLICE_DOUBLES = 1 << 20

_T = TypeVar("_T")


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _slice_bounds(n_paths: int, path_doubles: int) -> list[int]:
    """The path bounds of the slices `map_path_slices` cuts a block into."""
    min_paths = -(-MIN_SLICE_DOUBLES // max(1, path_doubles))
    n_slices = max(1, min(_cpu_count(), n_paths // min_paths))
    return [n_paths * k // n_slices for k in range(n_slices + 1)]


def map_path_slices(fn: Callable[[int, int], _T], n_paths: int, path_doubles: int) -> list[_T]:
    """``fn(start, stop)`` on contiguous path slices covering [0, n_paths), in path order.

    A block of ``n_paths`` paths of ``path_doubles`` doubles each splits into
    one slice per CPU of the process, but only so far as every slice keeps
    at least MIN_SLICE_DOUBLES doubles; a block that does not split is one
    slice, and ``fn(0, n_paths)`` runs directly.  The calling thread runs
    slice 0, and one thread started per other slice runs it in a copy of the
    caller's context, so that its ``np.errstate`` holds there too (errstate
    is a context variable from numpy 2 on, the package's floor); every
    thread is joined before the call returns, so none outlives it.  ``fn``
    gains only where its array work releases the GIL; it must touch only
    its own paths and must not split again.  When a slice raises, the
    exception (the first in path order) propagates once every other slice
    has finished.
    """
    bounds = _slice_bounds(n_paths, path_doubles)
    if len(bounds) == 2:
        return [fn(0, n_paths)]
    results: list = [None] * (len(bounds) - 2)
    errors: list[BaseException | None] = [None] * len(results)

    def run(k: int, start: int, stop: int) -> None:
        try:
            results[k] = fn(start, stop)
        except BaseException as exc:  # raised again on the calling thread
            errors[k] = exc

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, k, start, stop))
        for k, (start, stop) in enumerate(zip(bounds[1:-1], bounds[2:]))
    ]
    try:
        for thread in threads:
            thread.start()
        first = fn(0, bounds[1])
    finally:
        for thread in threads:
            if thread.is_alive():  # a thread that failed to start never is
                thread.join()
    for error in errors:
        if error is not None:
            raise error
    return [first, *results]


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx, NEP 19)
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    """init * mult**j mod 2**32 for j < n, the constants the hash steps through."""
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & _M32)
    return consts


def _hashmix(value, const: int, next_const: int):
    """SeedSequence's hashmix of 32-bit words, one call's constants given."""
    value = (value ^ const) * next_const & _M32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return result ^ result >> _XSHIFT


def _pcg64_seed_words(seed: int, first: int, n_paths: int) -> np.ndarray:
    """PCG64 seeding words of paths first .. first + n_paths - 1, shape (n_paths, 4).

    Row p equals ``SeedSequence(seed, spawn_key=(first + p,)).generate_state(4,
    np.uint64)``.  The entropy is the seed's words, zero-padded to the pool
    size, then the path index's words.  The pool part is common to every
    path and is mixed once with Python integers; the path words are mixed in
    as uint32 arrays, and a path whose index has fewer words skips the
    higher ones.  Works for any seed and path index >= 0.
    """
    if first < 0:
        raise ValueError(f"path indices must be >= 0, got {first}")
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    n_spawn = len(_uint32_words(first + max(n_paths, 1) - 1))
    n_pool_calls = len(run) * _POOL_SIZE  # hashmix calls before the path words
    consts = _hash_constants(_INIT_A, _MULT_A, n_pool_calls + n_spawn * _POOL_SIZE + 1)
    steps = zip(consts, consts[1:])  # the (xor, multiply) constants of each call

    mixer = [_hashmix(w, *next(steps)) for w in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], *next(steps)))
    for w in run[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixer[dst] = _mix(mixer[dst], _hashmix(w, *next(steps)))

    pool = np.broadcast_to(np.array(mixer, dtype=np.uint32), (n_paths, _POOL_SIZE))
    const = np.array(consts[n_pool_calls:], dtype=np.uint32)
    index = np.arange(
        first, first + n_paths, dtype=np.uint64 if first + n_paths <= 2**64 else object
    )
    for k in range(n_spawn):
        word = ((index >> 32 * k) & _M32).astype(np.uint32)[:, None]
        c = const[k * _POOL_SIZE : (k + 1) * _POOL_SIZE + 1]
        mixed = _mix(pool, _hashmix(word, c[:-1], c[1:]))
        pool = mixed if k == 0 else np.where((index >= 1 << 32 * k)[:, None], mixed, pool)

    c = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1), dtype=np.uint32)
    state = _hashmix(np.tile(pool, 2), c[:-1], c[1:])
    return state.astype("<u4").view("<u8").astype(np.uint64)


@cache
def _seed_words_type() -> type:
    """An ISeedSequence that hands PCG64 seeding words computed ahead.

    Built on first use because numpy loads ``numpy.random`` lazily:
    importing it with this module would add its import time to every
    start-up, including runs that draw no noise.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


#: Doubles of every pooled scratch: the normals a row draw holds at a time
#: over all its path slices (a few paths, and never fewer than one per
#: slice), the static kernel's three row blocks, and the MSR's two rolling
#: blocks of knots.  One size, so that at a default chunk they share one base.
SCRATCH_DOUBLES = 1 << 16


def _path_filler(
    seed: int, grid: TimeGrid, n_paths: int, path_offset: int
) -> Callable[[np.ndarray, int], None]:
    """``fill(block, first)`` writes into ``block``, (n, N+1, M), the
    increments of the paths path_offset + first, ..., path_offset + first +
    n - 1: sqrt(dt) times each path's standard normals.  Raises ValueError
    for a negative seed or path index."""
    seed_words = _seed_words_type()
    all_words = _pcg64_seed_words(seed, path_offset, n_paths)
    sqrt_dt = math.sqrt(grid.dt)

    def fill(block: np.ndarray, first: int) -> None:
        for p, out in enumerate(block, first):
            rng = np.random.Generator(np.random.PCG64(seed_words(all_words[p])))
            rng.standard_normal(out=out)
        block *= sqrt_dt

    return fill


def _draw_drivers(
    seed: int, grid: TimeGrid, n_drivers: int, n_paths: int, path_offset: int
) -> np.ndarray:
    """The whole (n_paths, n_drivers, M) block of drivers, filled as path slices."""
    fill = _path_filler(seed, grid, n_paths, path_offset)
    d_tilde = np.empty((n_paths, n_drivers, grid.n_steps))
    map_path_slices(
        lambda start, stop: fill(d_tilde[start:stop], start), n_paths, n_drivers * grid.n_steps
    )
    return d_tilde


def _draw_rows(
    seed: int,
    grid: TimeGrid,
    n_drivers: int,
    n_paths: int,
    path_offset: int,
    loads: list[np.ndarray],
    totals: list[np.ndarray],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``load @ d_tilde``, (n_paths, M), for each of ``loads``, and its sum over
    time, (n_paths,), for each of ``totals``, without the whole block.

    Each path slice fills its share of one scratch of SCRATCH_DOUBLES
    doubles (at least one path) a few paths at a time and writes each
    load's rows from it.  A load times a stack of (N+1, M) blocks is the
    product ``row`` computes on the whole block, path by path, so the bits
    are the same; a (K, N+1) matrix of loads would be a matrix product,
    which may round differently.  A total is the last knot of the row's
    running sum, with the bits of `NoisePaths.row_total`: a kept load's from
    its rows just written, any other's from its rows in the scratch, which
    are never kept.  The calling thread takes the scratch from the active
    `array_pool`, which the slices' other threads may not use, and cuts it
    among the slices.
    """
    fill = _path_filler(seed, grid, n_paths, path_offset)
    m = grid.n_steps
    rows = [pooled_empty((n_paths, m)) for _ in loads]
    sums = [np.empty(n_paths) for _ in totals]
    # the kept row a total is summed from, None for a load drawn only as a total
    by_bits = {load.tobytes(): row for load, row in zip(loads, rows)}
    summed_rows = [by_bits.get(load.tobytes()) for load in totals]
    if not (loads or totals):
        return rows, sums
    bounds = _slice_bounds(n_paths, n_drivers * m)
    n_slices = len(bounds) - 1
    path_doubles = (n_drivers + bool(totals)) * m  # normals, and a total's row
    # one size however the block splits: the pool's bases do not depend on the CPUs
    doubles = max(n_slices * path_doubles, min(SCRATCH_DOUBLES, n_paths * path_doubles))
    widest = max(stop - start for start, stop in zip(bounds, bounds[1:]))
    per_pass = max(1, min(widest, doubles // (n_slices * path_doubles)))
    scratch = pooled_empty((doubles,))

    def draw(start: int, stop: int) -> None:
        k = bounds.index(start)
        slab = scratch[k * per_pass * path_doubles : (k + 1) * per_pass * path_doubles]
        normals = slab[: per_pass * n_drivers * m].reshape(per_pass, n_drivers, m)
        running = slab[per_pass * n_drivers * m :].reshape(-1, m)
        for first in range(start, stop, per_pass):
            b = min(per_pass, stop - first)
            block = normals[:b]
            fill(block, first)
            for load, row in zip(loads, rows):
                np.matmul(load, block, out=row[first : first + b])
            for load, row, total in zip(totals, summed_rows, sums):
                if row is None:
                    part = np.matmul(load, block, out=running[:b])
                else:
                    part = row[first : first + b]
                total[first : first + b] = np.cumsum(part, axis=-1, out=running[:b])[:, -1]

    map_path_slices(draw, n_paths, n_drivers * m)
    return rows, sums


def _distinct(loads: Iterable[Sequence[float]], n_drivers: int) -> dict[bytes, np.ndarray]:
    """``loads`` as float vectors on the drivers, keyed by their bits, first kept."""
    by_bits = {}
    for load in loads:
        load = _load_vector(load, n_drivers)
        by_bits.setdefault(load.tobytes(), load)
    return by_bits


def generate_noise(
    seed: int,
    grid: TimeGrid,
    firms: Sequence[FirmParams],
    n_paths: int = 1,
    path_offset: int = 0,
    loads: Sequence[Sequence[float]] | None = None,
    totals: Sequence[Sequence[float]] = (),
) -> NoisePaths:
    """Brownian increments of paths [path_offset, path_offset + n_paths).

    Path i's increments are sqrt(dt) times the first (N+1) * M standard
    normals of ``default_rng(SeedSequence(seed, spawn_key=(i,)))``, so the
    same (seed, path index) always yields the same increments no matter how
    the ensemble is chunked.  The seeding words of the whole block come from
    one vectorised pass; each path then gets its own PCG64.  Without
    ``loads`` the block holds all its drivers, ``d_tilde``.  With ``loads``
    (loading rows on the N+1 drivers) it keeps only ``load @ d_tilde`` for
    each, drawn without ever holding more than a few paths of normals
    (`_draw_rows`), and draws ``d_tilde`` on first access; of ``totals`` it
    keeps each row's sum over time (`NoisePaths.row_total`), summed in the
    draw, and no row unless the load is one of ``loads``.  A large
    block is drawn as path slices on the process's CPUs
    (`map_path_slices`), which gives the same numbers as one pass.
    """
    n_drivers = len(firms) + 1
    ks = tuple(float(f.k) for f in firms)
    if loads is None:
        return NoisePaths(
            seed, path_offset, grid, ks, _draw_drivers(seed, grid, n_drivers, n_paths, path_offset)
        )
    kept = _distinct(loads, n_drivers)
    summed = _distinct(totals, n_drivers)
    rows, sums = _draw_rows(
        seed, grid, n_drivers, n_paths, path_offset, [*kept.values()], [*summed.values()]
    )
    return NoisePaths(
        seed,
        path_offset,
        grid,
        ks,
        n_paths=n_paths,
        rows=zip(kept.values(), rows),
        totals=zip(summed.values(), sums),
    )


#: A default chunk holds enough paths that each of its (P, M+1) path arrays
#: reaches this many knots, so a chunk's fixed Python cost (seeding, ~40
#: numpy calls per run and kernel) is spread over the same work on any grid.
CHUNK_KNOTS = 1 << 16

#: The fewest paths a default chunk holds: every chunk from 255 steps up.
MIN_CHUNK_PATHS = 256


def row_blocks(n_rows: int, size: int) -> Iterator[tuple[slice, int]]:
    """(rows, length) of consecutive blocks of at most ``size`` rows covering ``n_rows``."""
    for start in range(0, n_rows, size):
        stop = min(start + size, n_rows)
        yield slice(start, stop), stop - start


@dataclass(frozen=True)
class PathEnsemble:
    """A lazily generated ensemble of independent noise paths.

    Iterating ``chunks()`` yields NoisePaths blocks whose union is exactly the
    ensemble.  Chunking never changes the numbers, only the memory profile.
    Without ``chunk_size`` a block holds CHUNK_KNOTS // (M+1) paths and never
    fewer than MIN_CHUNK_PATHS: 1285 paths at 50 steps, 256 from 255 steps
    up; ``chunk_size`` then reads that number.
    """

    seed: int
    grid: TimeGrid
    firms: tuple[FirmParams, ...]
    n_paths: int
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.chunk_size is None:
            paths = max(MIN_CHUNK_PATHS, CHUNK_KNOTS // (self.grid.n_steps + 1))
            object.__setattr__(self, "chunk_size", paths)
        for name in ("n_paths", "chunk_size"):
            if getattr(self, name) < 1:
                raise UnsupportedInputError(f"{name} must be >= 1, got {getattr(self, name)}")

    def require_firms(self, firms: Sequence[FirmParams]) -> None:
        """`NoisePaths.require_firms` for every block, checked before any draw."""
        _require_loadings([f.k for f in self.firms], firms)

    def chunks(
        self, loads: Sequence[Sequence[float]] | None = None, totals: Sequence[Sequence[float]] = ()
    ) -> Iterator[NoisePaths]:
        """The ensemble's blocks in path order, drawn by `generate_noise`:
        each keeps only the rows of ``loads`` and the sums of ``totals``
        when they are given."""
        for start in range(0, self.n_paths, self.chunk_size):
            size = min(self.chunk_size, self.n_paths - start)
            yield generate_noise(self.seed, self.grid, self.firms, size, start, loads, totals)


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
    return NoisePaths(noise.seed, noise.path_offset, coarse, noise.ks, d_tilde)


# ---------------------------------------------------------------------------
# quadrature helpers and diagnostics
# ---------------------------------------------------------------------------

def left_integral(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Cumulative left-point integral of knot samples, shape-preserving.

    Input (..., M+1) knot values; output (..., M+1) with 0 at t=0 and
    sum_{j < k} values_j * dt at knot k.
    """
    out = pooled_empty(values.shape)
    np.multiply(values[..., :-1], grid.dt, out=out[..., 1:])
    return integrate_increments(out[..., 1:], out=out)


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
    return integrate_increments(np.diff(np.asarray(path, dtype=float), axis=-1) ** 2)
