"""Random and malformed scenario configs through the `permitsim` entry point.

Every config either runs or fails with its documented exit code
(2 = config, 3 = numerical domain, 4 = diagnostic), never with a traceback,
and no output file ever holds a non-finite number.  A failed run leaves no
file behind.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from permitsim import PolicyKind
from permitsim.cli import main

N_MAX = 3

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def weighted(common, rare, odds):
    """``common`` ``odds`` times as often as ``rare``."""
    return st.sampled_from([common] * odds + [rare]).flatmap(lambda s: s)


def mostly(*good):
    """One of ``good`` nine times in ten, otherwise anything at all."""
    return weighted(st.one_of(*good), junk, 9)


def value(lo, hi):
    """Mostly a plausible number in [lo, hi]."""
    return mostly(st.floats(lo, hi))


def block(required=False, **fields):
    """Mostly an object with ``fields`` (all of them, or any subset unless
    ``required``), one time in six with an unknown key as well."""
    if required:
        keys = st.fixed_dictionaries(fields)
    else:
        keys = st.fixed_dictionaries({}, optional=fields)
    return mostly(weighted(keys, st.builds(lambda d: {**d, "bogus": 1}, keys), 5))


firm = block(
    required=True,
    mu=value(0.0, 1e9),
    sigma=value(0.0, 1e8),
    k=value(-1.0, 1.0),
    h=value(1e-3, 50.0),
    eta=value(1e6, 1e9),
)
market = block(
    T=value(1e-3, 30.0),
    rho=value(0.0, 1.0),
    **{"lambda": value(1e-9, 1e-4)},
    nu=mostly(weighted(st.just("inf"), st.floats(1e3, 1e9), 3)),
)
policy = block(
    kind=mostly(st.sampled_from([k.value for k in PolicyKind])),
    delta=value(1e-3, 5.0),
    m0=mostly(st.lists(st.floats(-1e9, 1e9), max_size=N_MAX)),
    gamma=mostly(
        st.lists(st.lists(st.floats(-1e8, 1e8), max_size=N_MAX + 1), max_size=N_MAX)
    ),
    target_compliance=mostly(st.booleans()),
)
simulation = block(
    n_paths=mostly(st.integers(1, 3)),
    n_steps=mostly(st.integers(1, 6)),
    seed=mostly(st.integers(0, 3)),
)
config = st.fixed_dictionaries(
    {"preset": st.sampled_from(["paper-2020-base", "paper-2020-low-h"])},
    optional={
        "market": market,
        "firms": mostly(st.lists(firm, min_size=1, max_size=N_MAX)),
        "policy": policy,
        "simulation": simulation,
    },
)
command = st.one_of(
    st.tuples(
        st.just("simulate"),
        st.sampled_from([[], ["--policy", "all"], ["--policy", "custom_martingale"]]),
    ),
    st.tuples(
        st.just("compare"),
        st.sampled_from([["--etas", "1e7,6e8"], ["--etas=1e-300"], ["--etas=-1"]]),
    ),
)


def _finite_numbers(path: Path) -> bool:
    if path.suffix == ".json":
        def finite(x):
            if isinstance(x, dict):
                return all(finite(v) for v in x.values())
            if isinstance(x, list):
                return all(finite(v) for v in x)
            return not isinstance(x, float) or math.isfinite(x)

        return finite(json.loads(path.read_text(), parse_constant=lambda c: math.nan))
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return all(math.isfinite(float(cell)) for row in rows[1:] for cell in row.split(","))


@settings(max_examples=60, deadline=None)
@given(cfg=config, cmd=command)
def test_every_config_runs_or_fails_with_its_exit_code(cfg, cmd):
    name, flags = cmd
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        # the small sizes apply whatever the simulation block says, so an
        # accepted config never runs at preset size
        argv = [name, "--config", str(cfg_path), *flags, "--out", str(out),
                "--paths", "3", "--steps", "6"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3, 4), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        if code != 0:
            assert files == [], (code, stderr.getvalue(), files)
        else:
            assert files
        for path in files:
            assert _finite_numbers(path), path
