import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permitsim import TimeGrid, generate_noise
import permitsim.stochastic
from permitsim.equilibrium import frictionless_price
from permitsim.errors import UnsupportedInputError
from permitsim.stochastic import (
    PathEnsemble,
    array_pool,
    closing_martingale,
    coarsen_noise,
    integrate_increments,
    left_integral,
    map_path_slices,
    martingale_drift_stat,
    pooled_empty,
    realized_qv,
    weighted_mean_load,
)

from conftest import force_split, make_firms


# --- grid --------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(horizon=0.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(horizon=10.0, n_steps=0)
    with pytest.raises(ValueError):
        TimeGrid(horizon=-1.0, n_steps=10)


def test_grid_knots():
    grid = TimeGrid(horizon=10.0, n_steps=4)
    assert grid.dt == 2.5
    np.testing.assert_allclose(grid.knots, [0.0, 2.5, 5.0, 7.5, 10.0])
    assert grid.knots[-1] == 10.0


# --- noise generation ---------------------------------------------------------

def test_noise_shapes_and_linear_identity():
    firms = make_firms(4)
    grid = TimeGrid(horizon=10.0, n_steps=25)
    noise = generate_noise(123, grid, firms, n_paths=3)
    assert noise.d_tilde.shape == (3, 5, 25)
    assert noise.d_firm.shape == (3, 4, 25)
    # firm driver increments are an exact linear mix of the independent ones
    ks = np.array([f.k for f in firms])[:, None]
    mix = np.sqrt(1.0 - ks**2) * noise.d_tilde[:, 1:, :] + ks * noise.d_tilde[:, :1, :]
    np.testing.assert_array_equal(noise.d_firm, mix)


def test_integrated_paths_start_at_zero():
    firms = make_firms(3)
    grid = TimeGrid(horizon=5.0, n_steps=10)
    noise = generate_noise(7, grid, firms, n_paths=2)
    w = noise.firm_paths()
    assert w.shape == (2, 3, 11)
    assert np.all(w[:, :, 0] == 0.0)
    np.testing.assert_allclose(w[:, :, -1], noise.d_firm.sum(axis=-1), rtol=1e-12)


def test_weighted_mean_increment_variance():
    """Empirical variance of the aggregate driver increments matches the
    closed-form aggregate variance within Monte Carlo error."""
    firms = make_firms()
    grid = TimeGrid(horizon=10.0, n_steps=50)
    noise = generate_noise(31, grid, firms, n_paths=4000)
    sigmas = np.array([f.sigma for f in firms])
    dm = noise.row(weighted_mean_load(noise.ks, sigmas))
    from permitsim import compute_aggregates

    var_expected = compute_aggregates(firms).sigma_sq * grid.dt
    var_emp = dm.var()
    assert var_emp == pytest.approx(var_expected, rel=0.05)


def test_a_weighted_mean_row_is_computed_once_per_load():
    firms = make_firms(3)
    noise = generate_noise(8, TimeGrid(horizon=5.0, n_steps=10), firms, n_paths=4)
    sigmas = [f.sigma for f in firms]
    first = noise.row(weighted_mean_load(noise.ks, sigmas))
    assert noise.row(weighted_mean_load(noise.ks, np.array(sigmas))) is first
    assert not first.flags.writeable
    w = np.array(sigmas)
    want = np.einsum("i,pik->pk", w, noise.d_firm) / len(firms)
    np.testing.assert_allclose(first, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    doubled = noise.row(weighted_mean_load(noise.ks, 2.0 * w))
    assert doubled is not first and noise.row(weighted_mean_load(noise.ks, 2.0 * w)) is doubled
    np.testing.assert_array_equal(doubled, 2.0 * first)


def _loads(firms):
    """The firms' weighted mean load and a load with no structure."""
    return [
        weighted_mean_load([f.k for f in firms], [f.sigma for f in firms]),
        np.linspace(-1.0, 2.0, len(firms) + 1),
    ]


@pytest.mark.parametrize(
    "n_steps, scratch_paths, split",
    [(50, None, False), (300, None, False), (2000, None, False), (20, 3, False), (20, 3, True)],
    ids=["50-steps", "300-steps", "2000-steps", "partial-scratch", "split"],
)
def test_drawn_rows_are_the_loads_times_the_drivers(monkeypatch, n_steps, scratch_paths, split):
    """A block drawn with loads keeps load @ d_tilde of the whole block, bit
    for bit, and of a load drawn as a total only that row's running sum,
    whether the scratch divides a slice or not and whether the block splits,
    and draws no d_tilde.  A kept load drawn as a total too has its running
    sum from the draw, summed from the kept row, so no reader sums the row
    again.  At 2000 steps the scratch holds 4 of the block's
    40 paths (normals and a total's row); with 3 per slice, the 11-path
    block, and its 4-path slices when it splits in three, end on a partial
    pass."""
    firms = make_firms()
    grid = TimeGrid(horizon=10.0, n_steps=n_steps)
    loads = _loads(firms)
    total_load = np.arange(len(firms) + 1.0)
    n_paths = 40 if scratch_paths is None else 11
    whole = generate_noise(17, grid, firms, n_paths=n_paths, path_offset=3)
    if scratch_paths is not None:
        doubles = scratch_paths * (3 if split else 1) * (len(firms) + 2) * n_steps
        monkeypatch.setattr(permitsim.stochastic, "SCRATCH_DOUBLES", doubles)
    if split:
        force_split(monkeypatch)
    noise = generate_noise(
        17, grid, firms, n_paths=n_paths, path_offset=3, loads=loads,
        totals=[total_load, loads[1]],
    )
    drawn_totals = dict(noise._totals)
    for load in loads:
        assert noise.row(load).tobytes() == (load @ whole.d_tilde).tobytes()
    for load in (total_load, loads[1]):
        want = integrate_increments(load @ whole.d_tilde)[:, -1]
        assert drawn_totals[load.tobytes()].tobytes() == want.tobytes()
    assert total_load.tobytes() not in noise._rows
    assert loads[0].tobytes() not in noise._totals
    assert "d_tilde" not in noise.__dict__


@pytest.mark.parametrize(
    "n_paths, n_steps, drawn",
    [(1, 50, True), (40, 1, True), (289, 2000, True), (40, 300, False)],
    ids=["one-path", "one-step", "289x2000", "from-d_tilde"],
)
def test_row_totals_are_the_last_knots_of_the_rows(n_paths, n_steps, drawn):
    """`NoisePaths.row_total` is the last knot of the row's running sum, bit
    for bit, on a block drawn with loads or built from its drivers, and a
    second call serves the same read-only array, on one path, one step and
    289 paths at 2000 steps."""
    firms = make_firms()
    grid = TimeGrid(horizon=10.0, n_steps=n_steps)
    loads = _loads(firms)
    noise = generate_noise(18, grid, firms, n_paths, path_offset=2, loads=loads if drawn else None)
    for load in loads:
        total = noise.row_total(load)
        assert total.shape == (n_paths,) and not total.flags.writeable
        assert total.tobytes() == integrate_increments(noise.row(load))[:, -1].tobytes()
        assert noise.row_total(list(load)) is total
    assert ("d_tilde" in noise.__dict__) is not drawn


def test_a_row_that_was_not_drawn_is_served_with_the_same_bits():
    firms = make_firms()
    grid = TimeGrid(horizon=10.0, n_steps=30)
    drawn, other = _loads(firms)
    noise = generate_noise(8, grid, firms, n_paths=5, loads=[drawn])
    whole = generate_noise(8, grid, firms, n_paths=5)
    row = noise.row(other)
    assert row.tobytes() == (other @ whole.d_tilde).tobytes()
    assert noise.row(other) is row and not row.flags.writeable
    assert noise.d_tilde.tobytes() == whole.d_tilde.tobytes()
    for bad in (np.ones(3), np.ones((2, 7))):
        with pytest.raises(UnsupportedInputError, match="loading row"):
            noise.row(bad)
        with pytest.raises(UnsupportedInputError, match="loading row"):
            generate_noise(8, grid, firms, n_paths=5, loads=[bad])


def test_a_rows_only_draw_never_holds_the_drivers():
    """64 paths x 2000 steps of 7 drivers are 7.2 MB; a draw that keeps one
    row holds that row and its scratch, at most 0.4 of it."""
    firms = make_firms()
    grid = TimeGrid(horizon=10.0, n_steps=2000)
    load = _loads(firms)[0]
    tracemalloc.start()
    try:
        generate_noise(3, grid, firms, n_paths=64, loads=[load])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * 64 * (len(firms) + 1) * grid.n_steps * 8


def test_seed_determinism_and_chunk_independence():
    firms = make_firms(2)
    grid = TimeGrid(horizon=10.0, n_steps=8)
    a = generate_noise(42, grid, firms, n_paths=6)
    b = generate_noise(42, grid, firms, n_paths=6)
    np.testing.assert_array_equal(a.d_tilde, b.d_tilde)
    # generating the same paths in two chunks reproduces them byte for byte
    front = generate_noise(42, grid, firms, n_paths=2)
    back = generate_noise(42, grid, firms, n_paths=4, path_offset=2)
    np.testing.assert_array_equal(np.concatenate([front.d_tilde, back.d_tilde]), a.d_tilde)
    c = generate_noise(43, grid, firms, n_paths=6)
    assert not np.array_equal(a.d_tilde, c.d_tilde)


@pytest.mark.parametrize("seed", [0, 2020, 2**32 + 5, 2**64 + 3, 2**128 + 9])
@pytest.mark.parametrize("path_offset", [0, 2**32 - 1, 2**64 - 1])
def test_noise_stream_is_numpys_seed_sequence_per_path(seed, path_offset):
    """Path i's increments are sqrt(dt) * default_rng(SeedSequence(seed,
    spawn_key=(i,))).standard_normal((N+1, M)), bit for bit.  The blocks at
    2**32 - 1 and 2**64 - 1 straddle spawn keys of one and two words and of
    two and three words; the seeds span one to five words."""
    firms = make_firms(3)
    grid = TimeGrid(horizon=10.0, n_steps=7)
    noise = generate_noise(seed, grid, firms, n_paths=3, path_offset=path_offset)
    for p in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(path_offset + p,)))
        expected = math.sqrt(grid.dt) * rng.standard_normal((4, 7))
        assert noise.d_tilde[p].tobytes() == expected.tobytes()


def test_negative_seed_or_path_index_is_rejected():
    firms = make_firms(2)
    grid = TimeGrid(horizon=1.0, n_steps=3)
    with pytest.raises(ValueError):
        generate_noise(-1, grid, firms, n_paths=2)
    with pytest.raises(ValueError):
        generate_noise(1, grid, firms, n_paths=2, path_offset=-1)


def test_path_ensemble_chunks_and_single_path():
    firms = make_firms(2)
    grid = TimeGrid(horizon=10.0, n_steps=8)
    ens = PathEnsemble(seed=5, grid=grid, firms=firms, n_paths=10, chunk_size=4)
    sizes = []
    collected = []
    for chunk in ens.chunks():
        sizes.append(chunk.d_tilde.shape[0])
        collected.append(chunk.d_tilde)
    assert sizes == [4, 4, 2]
    whole = generate_noise(5, grid, firms, n_paths=10)
    np.testing.assert_array_equal(np.concatenate(collected), whole.d_tilde)


@pytest.mark.parametrize("n_steps, chunk_size", [(1, 32768), (50, 1285), (300, 256), (2000, 256)])
def test_path_ensemble_sizes_its_chunks_by_knots(n_steps, chunk_size):
    """A default chunk holds CHUNK_KNOTS // (M+1) paths and at least
    MIN_CHUNK_PATHS; an explicit chunk_size is kept."""
    firms = make_firms(2)
    grid = TimeGrid(horizon=10.0, n_steps=n_steps)
    ens = PathEnsemble(seed=5, grid=grid, firms=firms, n_paths=3 * chunk_size - 8)
    assert ens.chunk_size == chunk_size
    sizes = [c.n_paths for c in ens.chunks(loads=[])]
    assert sizes == [chunk_size, chunk_size, chunk_size - 8]
    explicit = PathEnsemble(seed=5, grid=grid, firms=firms, n_paths=600, chunk_size=256)
    assert explicit.chunk_size == 256
    assert [c.n_paths for c in explicit.chunks(loads=[])] == [256, 256, 88]


def test_array_pool_hands_an_array_out_again_only_once_nothing_refers_to_it():
    """Outside a pool every array is new.  Inside one, an array's memory is
    handed out again only once no view of it is alive, and to a request no
    larger than its base, which is rounded up to whole 64 KiB (8192 doubles)."""
    assert pooled_empty((4, 5)).flags.owndata
    with array_pool():
        a = pooled_empty((4, 5))
        assert a.shape == (4, 5) and a.flags.c_contiguous and not a.flags.owndata
        where_a = a.ctypes.data
        kept = np.broadcast_to(a[:, 1:].T, (2, 4, 4))
        del a
        b = pooled_empty((4, 5))
        where_b = b.ctypes.data
        assert where_b != where_a  # a's memory is still read through ``kept``
        del b
        assert pooled_empty((4, 5)).ctypes.data == where_b
        assert pooled_empty((5, 5)).ctypes.data == where_b
        assert pooled_empty((2, 4096)).ctypes.data == where_b
        assert pooled_empty((8193,)).ctypes.data not in (where_a, where_b)
        del kept
        c = pooled_empty((3, 5))
        assert c.shape == (3, 5) and c.ctypes.data == where_a


def test_a_freed_row_holds_the_next_path_array_of_its_chunk():
    """A freed (P, M) array's base takes the next (P, M+1) request: at 256 x
    2000 steps the 64 KiB rounding leaves room for it."""
    with array_pool():
        row = pooled_empty((256, 2000))
        where = row.ctypes.data
        del row
        assert pooled_empty((256, 2001)).ctypes.data == where


def test_only_the_calling_thread_takes_draw_scratch_from_the_pool(monkeypatch):
    """A split row draw takes one scratch from the pool on the calling thread,
    before the split, and cuts it among the slices: the slices on other
    threads may not use the pool and never call it, but every slice's
    blocks, theirs included, are views of the caller's pool base.  The rows
    have the bits of an unsplit draw."""
    firms = make_firms(3)
    grid = TimeGrid(horizon=10.0, n_steps=20)
    load = np.arange(4.0)
    want = generate_noise(31, grid, firms, n_paths=11, loads=[load]).row(load)
    force_split(monkeypatch)
    caller = threading.get_ident()
    takers = []
    blocks = []
    pool_empty = permitsim.stochastic._ArrayPool.empty
    path_filler = permitsim.stochastic._path_filler

    def empty(pool, shape):
        takers.append(threading.get_ident())
        return pool_empty(pool, shape)

    def filler(*args):
        fill = path_filler(*args)

        def spying(block, first):
            blocks.append((threading.get_ident(), block))
            fill(block, first)

        return spying

    monkeypatch.setattr(permitsim.stochastic._ArrayPool, "empty", empty)
    monkeypatch.setattr(permitsim.stochastic, "_path_filler", filler)
    with array_pool():
        noise = generate_noise(31, grid, firms, n_paths=11, loads=[load])
        bases = permitsim.stochastic._array_pool.get()._bases
    assert set(takers) == {caller}
    assert len({ident for ident, _ in blocks}) > 1  # the draw split
    for ident, block in blocks:
        assert any(block.base is base for base in bases)
    assert noise.row(load).tobytes() == want.tobytes()


def test_left_integral_in_a_pool_matches_outside():
    grid = TimeGrid(horizon=2.0, n_steps=6)
    values = np.random.default_rng(3).standard_normal((3, 7))
    want = left_integral(values, grid)
    with array_pool():
        np.testing.assert_array_equal(left_integral(values, grid), want)
        np.testing.assert_array_equal(left_integral(values.T.copy().T, grid), want)


def test_helpers_without_out_take_no_array_from_the_pool():
    """Called in an `array_pool` without ``out``, the running sum, the left
    integral and the frictionless price each return an array of their own:
    only the chunk loop's draw and kernels take arrays from the pool."""
    grid = TimeGrid(horizon=2.0, n_steps=6)
    values = np.random.default_rng(3).standard_normal((3, 7))
    with array_pool():
        arrays = [
            integrate_increments(values[:, 1:]),
            left_integral(values, grid),
            frictionless_price(2.0, -np.arange(1.0, 7.0), values[:, 1:]),
        ]
        assert permitsim.stochastic._array_pool.get()._bases == []
    for array in arrays:
        assert array.shape == (3, 7) and array.flags.owndata


def test_path_ensemble_rejects_no_paths():
    grid = TimeGrid(horizon=1.0, n_steps=3)
    for n_paths in (0, -2):
        with pytest.raises(UnsupportedInputError, match="n_paths must be >= 1"):
            PathEnsemble(seed=1, grid=grid, firms=make_firms(2), n_paths=n_paths)


def test_path_ensemble_rejects_empty_chunks():
    grid = TimeGrid(horizon=1.0, n_steps=3)
    for chunk_size in (0, -1):
        with pytest.raises(UnsupportedInputError, match="chunk_size must be >= 1"):
            PathEnsemble(seed=1, grid=grid, firms=make_firms(2), n_paths=4, chunk_size=chunk_size)


# --- path slices -------------------------------------------------------------

def _slice_log(calls):
    def fn(start, stop):
        calls.append((start, stop, threading.get_ident()))
        return list(range(start, stop))

    return fn


def test_path_slices_cover_the_block_in_path_order(monkeypatch):
    force_split(monkeypatch, min_slice_doubles=30, cpus=3)
    calls = []
    # 10 doubles per path: slices of at least 3 paths
    for n_paths, bounds in [(10, [0, 3, 6, 10]), (7, [0, 3, 7]), (5, [0, 5]), (1, [0, 1])]:
        calls.clear()
        results = map_path_slices(_slice_log(calls), n_paths, 10)
        assert results == [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        assert sorted(c[:2] for c in calls) == list(zip(bounds, bounds[1:]))
        # the calling thread runs slice 0
        assert [c[2] for c in calls if c[0] == 0] == [threading.get_ident()]


def test_a_block_that_does_not_split_runs_on_the_calling_thread(monkeypatch):
    """At the real slice size a small block is one slice, and on one CPU
    even a large one is: ``fn`` runs directly and no thread is started."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    calls = []
    assert map_path_slices(_slice_log(calls), 256, 7 * 50) == [list(range(256))]
    monkeypatch.setattr(permitsim.stochastic, "_cpu_count", lambda: 1)
    assert map_path_slices(_slice_log(calls), 256, 7 * 2000) == [list(range(256))]
    assert calls == [(0, 256, threading.get_ident())] * 2
    assert started == []


def test_noise_is_the_same_when_its_block_splits(monkeypatch):
    firms = make_firms(3)
    grid = TimeGrid(horizon=10.0, n_steps=20)
    whole = generate_noise(31, grid, firms, n_paths=11, path_offset=5)
    force_split(monkeypatch)
    split = generate_noise(31, grid, firms, n_paths=11, path_offset=5)
    assert split.d_tilde.tobytes() == whole.d_tilde.tobytes()


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_failing_slice_raises_after_every_slice_finished(monkeypatch, failing):
    force_split(monkeypatch)
    finished = []

    def fn(start, stop):
        if start == failing:
            raise ValueError(f"slice at {start}")
        time.sleep(0.05)
        finished.append(start)

    with pytest.raises(ValueError, match=f"slice at {failing}"):
        map_path_slices(fn, 3, 1)
    assert sorted(finished) == sorted({0, 1, 2} - {failing})


def test_a_slice_on_another_thread_keeps_the_callers_errstate(monkeypatch):
    force_split(monkeypatch)
    caller = threading.get_ident()

    def fn(start, stop):
        if threading.get_ident() != caller:
            np.float64(1e300) * np.float64(1e300)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            map_path_slices(fn, 3, 1)


def _split_in_child(queue):
    queue.put(map_path_slices(lambda start, stop: stop - start, 2, 1))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_a_forked_child_splits(monkeypatch):
    """A child forked after the parent split a block starts slice threads of
    its own: it has none of the parent's threads."""
    force_split(monkeypatch, cpus=2)
    map_path_slices(lambda start, stop: None, 2, 1)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_split_in_child, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == [1, 1]
    finally:
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_many_slices_on_few_cpus_each_fill_their_own_paths(monkeypatch):
    """More slices than this machine has CPUs, from several calling threads
    at once, with the interpreter switching threads as often as it can:
    every path is filled once, by the slice that owns it."""
    force_split(monkeypatch, cpus=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    failures = []

    def caller(n_paths):
        for _ in range(20):
            filled = np.zeros(n_paths, dtype=int)

            def fn(start, stop):
                for p in range(start, stop):
                    filled[p] += p + 1
                return start, stop

            slices = map_path_slices(fn, n_paths, 1)
            edges = [n_paths * k // 8 for k in range(9)]
            if filled.tolist() != list(range(1, n_paths + 1)) or slices != list(zip(edges, edges[1:])):
                failures.append((n_paths, slices))

    try:
        threads = [threading.Thread(target=caller, args=(n,)) for n in (8, 13, 40, 97)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


_SPLIT_DRAW = """
import sys, threading
import permitsim.stochastic as stochastic
from permitsim import FirmParams, TimeGrid, generate_noise

stochastic.MIN_SLICE_DOUBLES = 1
stochastic._cpu_count = lambda: 2
started = []
real_start = threading.Thread.start

def start(thread):
    started.append(thread)
    real_start(thread)

threading.Thread.start = start
firms = (FirmParams(mu=1.0, sigma=1.0, k=0.5, h=25.0, eta=6e8),)
before = threading.active_count()
generate_noise(1, TimeGrid(10.0, 20), firms, n_paths=4, loads=[[1.0, 0.0]])
print(len(started), before, threading.active_count(),
      "concurrent.futures" in sys.modules, "logging" in sys.modules)
"""


def test_a_split_draw_joins_its_threads_and_imports_no_executor():
    """A two-slice draw in a fresh interpreter starts one thread and joins
    it: afterwards as many threads run as before, and neither
    `concurrent.futures` nor the `logging` it imports was loaded."""
    src = Path(permitsim.stochastic.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _SPLIT_DRAW], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout.split()
    assert out == ["1", "1", "1", "False", "False"]


def test_coarsen_noise_aggregates_increments():
    firms = make_firms(2)
    grid = TimeGrid(horizon=10.0, n_steps=12)
    noise = generate_noise(11, grid, firms, n_paths=3)
    coarse = coarsen_noise(noise, 3)
    assert coarse.grid.n_steps == 4
    assert coarse.grid.horizon == 10.0
    np.testing.assert_allclose(
        coarse.d_tilde,
        noise.d_tilde.reshape(3, 3, 4, 3).sum(axis=-1),
        rtol=1e-12,
    )
    # terminal value of the integrated paths is refinement invariant
    np.testing.assert_allclose(
        coarse.firm_paths()[:, :, -1], noise.firm_paths()[:, :, -1], rtol=1e-12
    )
    with pytest.raises(ValueError):
        coarsen_noise(noise, 5)


# --- quadrature helpers --------------------------------------------------------

def test_left_integral_hand_check():
    grid = TimeGrid(horizon=2.0, n_steps=2)
    vals = np.array([[1.0, 3.0, 100.0]])  # terminal value must not contribute
    out = left_integral(vals, grid)
    np.testing.assert_allclose(out, [[0.0, 1.0, 4.0]])


def test_left_integral_constant():
    grid = TimeGrid(horizon=10.0, n_steps=40)
    vals = np.full((2, 41), 3.0)
    out = left_integral(vals, grid)
    np.testing.assert_allclose(out[:, -1], 30.0, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**31 - 1))
def test_closing_martingale_increment_identity(n_steps, seed):
    """dM_k = (T - t_{k+1}) dalpha_k exactly, where M_t = int_0^t alpha ds
    + (T - t) alpha_t."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(horizon=7.0, n_steps=n_steps)
    alpha = rng.normal(size=(2, n_steps + 1)).cumsum(axis=-1)
    m = closing_martingale(alpha, grid)
    t = grid.knots
    expected_inc = (grid.horizon - t[1:]) * np.diff(alpha, axis=-1)
    np.testing.assert_allclose(np.diff(m, axis=-1), expected_inc, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(m[:, 0], grid.horizon * alpha[:, 0], rtol=1e-12)
    # at the deadline the closing value is the plain time integral
    np.testing.assert_allclose(m[:, -1], left_integral(alpha, grid)[:, -1], rtol=1e-9, atol=1e-12)


# --- martingale drift diagnostic ------------------------------------------------

def _brownian(n_paths, n_steps, seed, drift=0.0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(horizon=10.0, n_steps=n_steps)
    dw = rng.normal(scale=np.sqrt(grid.dt), size=(n_paths, n_steps))
    w = np.concatenate([np.zeros((n_paths, 1)), dw.cumsum(axis=-1)], axis=-1)
    return w + drift * grid.knots


def test_drift_stat_accepts_brownian_motion():
    diag = martingale_drift_stat(_brownian(2000, 50, seed=3))
    assert diag.passed()
    assert diag.n_paths == 2000
    assert diag.degenerate[0]  # all paths share the starting value
    assert not diag.degenerate[1:].any()


def test_drift_stat_flags_linear_drift():
    diag = martingale_drift_stat(_brownian(2000, 50, seed=3, drift=0.2))
    assert not diag.passed()
    assert diag.max_abs_z > 4.0


def test_drift_stat_degenerate_constant():
    paths = np.full((100, 21), 2.5)
    diag = martingale_drift_stat(paths)
    assert diag.degenerate.all()
    assert diag.passed()


def test_drift_stat_requires_multiple_paths():
    with pytest.raises(ValueError):
        martingale_drift_stat(np.zeros(11))
    with pytest.raises(ValueError):
        martingale_drift_stat(np.zeros((1, 11)))


def test_realized_qv_hand_check():
    path = np.array([0.0, 1.0, -1.0, 2.0])
    qv = realized_qv(path)
    np.testing.assert_allclose(qv, [0.0, 1.0, 5.0, 14.0])
    two = realized_qv(np.stack([path, 2 * path]))
    np.testing.assert_allclose(two[1], 4 * qv)
