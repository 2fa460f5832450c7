import math

import pytest

import permitsim.stochastic
from permitsim import FRICTIONLESS, FirmParams, MarketParams, TimeGrid, generate_noise

N_FIRMS = 6


def make_firms(n=N_FIRMS, *, h=25.0, eta=6e8, sigma=0.2e9 / math.sqrt(6), k=0.92, mu=2e9 / N_FIRMS):
    return tuple(FirmParams(mu=mu, sigma=sigma, k=k, h=h, eta=eta) for _ in range(n))


def make_market(firms=None, *, depth=FRICTIONLESS, penalty=7.5e-7, horizon=10.0, rho=0.8):
    return MarketParams(
        firms=make_firms() if firms is None else firms,
        penalty=penalty,
        depth=depth,
        horizon=horizon,
        rho=rho,
    )


def force_split(monkeypatch, min_slice_doubles=1, cpus=3):
    """Make `map_path_slices` split small blocks, as on a machine of ``cpus`` CPUs.

    Every slice keeps at least ``min_slice_doubles`` doubles; with the
    default, every block of at least ``cpus`` paths splits into ``cpus``
    slices.
    """
    monkeypatch.setattr(permitsim.stochastic, "MIN_SLICE_DOUBLES", min_slice_doubles)
    monkeypatch.setattr(permitsim.stochastic, "_cpu_count", lambda: cpus)


def count_calls(monkeypatch, module, *names):
    """Count the calls of each function ``module.<name>`` from now on, in a
    dict by name that the counting wrappers update."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture(scope="session")
def base_market():
    """Frictionless six-firm market at the default calibration."""
    return make_market()


@pytest.fixture(scope="session")
def frictional_market():
    """Same calibration with a finite market depth."""
    return make_market(depth=1e6)


@pytest.fixture(scope="session")
def medium_noise(base_market):
    """A moderately sized shared shock ensemble (256 paths, 400 steps)."""
    grid = TimeGrid(base_market.horizon, 400)
    return generate_noise(99, grid, base_market.firms, 256)
