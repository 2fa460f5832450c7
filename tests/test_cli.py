import gc
import json
import math
import threading
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import permitsim.cli
import permitsim.policies
import permitsim.stochastic
from permitsim import (
    FRICTIONLESS,
    ClearingError,
    ConfigError,
    DomainError,
    PathEnsemble,
    PolicyKind,
    PolicySpec,
    TimeGrid,
    build_policy,
    generate_noise,
)
from permitsim.cli import (
    PRESETS,
    TRAJECTORY_PATH_CAP,
    _fmt,
    _report_to_json,
    _trajectory_rows,
    _write_outputs,
    build_scenario,
    load_config,
    main,
    run_compare,
    run_simulate,
)
from permitsim.policies import run_ensemble

import oracles
from conftest import count_calls, force_split


def write_config(tmp_path, name="cfg.json", **blocks):
    cfg = {"preset": "paper-2020-base"}
    cfg.update(blocks)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def small_sim_block(n_paths=4, n_steps=50, seed=7):
    return {"n_paths": n_paths, "n_steps": n_steps, "seed": seed}


# --- config ingestion -----------------------------------------------------------

def test_presets_resolve():
    for name in ("paper-2020-base", "paper-2020-low-h"):
        cfg = build_scenario({"preset": name})
        assert cfg.market.n_firms == 6
        assert cfg.market.depth == FRICTIONLESS
        assert cfg.n_paths == 10000 and cfg.n_steps == 2000 and cfg.seed == 2020
    low = build_scenario({"preset": "paper-2020-low-h"})
    assert low.market.firms[0].h == pytest.approx(25.0 / 6.0, rel=1e-15)


def test_unknown_keys_are_rejected_with_their_path():
    with pytest.raises(ConfigError, match="config"):
        build_scenario({"preset": "paper-2020-base", "markett": {}})
    with pytest.raises(ConfigError, match=r"config\.market.*'depth'"):
        build_scenario({"preset": "paper-2020-base", "market": {"depth": 1e6}})
    with pytest.raises(ConfigError, match=r"config\.firms\[1\]"):
        build_scenario(
            {
                "preset": "paper-2020-base",
                "firms": [
                    {"mu": 1e8, "sigma": 1e7, "k": 0.5, "h": 20, "eta": 1e8},
                    {"mu": 1e8, "sigma": 1e7, "k": 0.5, "h": 20, "eta": 1e8, "beta": 1},
                ],
            }
        )
    with pytest.raises(ConfigError, match=r"config\.simulation\.n_paths"):
        build_scenario(
            {"preset": "paper-2020-base", "simulation": {"n_paths": 1.5}}
        )


def test_unknown_preset_lists_available():
    with pytest.raises(ConfigError, match="paper-2020-base"):
        build_scenario({"preset": "pape-2020-base"})


def test_overrides_merge_key_by_key():
    cfg = build_scenario(
        {
            "preset": "paper-2020-base",
            "market": {"rho": 0.5},
            "simulation": {"seed": 99},
        }
    )
    assert cfg.market.rho == 0.5
    assert cfg.market.horizon == 10.0  # untouched preset value survives
    assert cfg.seed == 99
    assert cfg.n_paths == 10000


def test_firms_block_replaces_wholesale():
    cfg = build_scenario(
        {
            "preset": "paper-2020-base",
            "firms": [{"mu": 1e8, "sigma": 0.0, "k": 0.0, "h": 20.0, "eta": 1e8}] * 2,
        }
    )
    assert cfg.market.n_firms == 2
    assert cfg.market.firms[0].sigma == 0.0


def test_market_nu_accepts_inf_string_only():
    assert build_scenario(
        {"preset": "paper-2020-base", "market": {"nu": "inf"}}
    ).market.depth == FRICTIONLESS
    for bad in ("deep", 1e6, 0, True, None):
        with pytest.raises(ConfigError, match=r"config\.market\.nu"):
            build_scenario({"preset": "paper-2020-base", "market": {"nu": bad}})


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--policy", "msr"],
        ["simulate", "--policy", "tax"],
        ["simulate", "--policy", "all"],
        ["compare", "--etas", "1e7,6e8"],
    ],
)
def test_finite_depth_exits_2_and_writes_nothing(tmp_path, capsys, command):
    """Every simulation is frictionless only, so a finite market depth is a
    config error instead of a run with the frictionless formulas."""
    cfg = write_config(tmp_path, market={"nu": 1e6}, simulation=small_sim_block())
    out = tmp_path / "deep"
    assert main([command[0], "--config", cfg, *command[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config.market.nu" in err and "Traceback" not in err
    assert not out.exists()


def test_output_directory_key_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    """--out is the only output directory; a config naming another is refused."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, output={"directory": "elsewhere"}, simulation=small_sim_block())
    assert main(["simulate", "--config", cfg, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert "config.output" in err and "'directory'" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "command, last_file",
    [(["simulate", "--policy", "all"], "summary.json"), (["compare", "--etas", "1e7,6e8"], "sweep.csv")],
    ids=["simulate", "compare"],
)
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, command, last_file):
    """An --out naming a file, or a path under one, exits 2 with a one-line
    error before the first chunk is drawn and leaves the file as it was.
    An OSError from writing the outputs, here a directory in the way of the
    last file, exits 2 too and leaves no output file."""
    real = permitsim.stochastic.generate_noise
    draws = []

    def drawing(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(permitsim.stochastic, "generate_noise", drawing)
    cfg = write_config(tmp_path, simulation=small_sim_block(n_steps=10))
    afile = tmp_path / "afile"
    afile.write_text("kept")
    for out in (afile, afile / "sub"):
        assert main([command[0], "--config", cfg, *command[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out:") and err.count("\n") == 1, err
        assert "not a directory" in err
    assert draws == [] and afile.read_text() == "kept"

    out = tmp_path / "out"
    (out / last_file).mkdir(parents=True)
    assert main([command[0], "--config", cfg, *command[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the outputs") and err.count("\n") == 1, err
    assert draws
    assert [p.name for p in out.iterdir()] == [last_file]


def test_invalid_firm_and_unit_scale_and_kind():
    with pytest.raises(ConfigError, match=r"config\.firms\[0\]"):
        build_scenario(
            {
                "preset": "paper-2020-base",
                "firms": [{"mu": 1e8, "sigma": -1.0, "k": 0.0, "h": 20.0, "eta": 1e8}],
            }
        )
    with pytest.raises(ConfigError, match="unit_scale"):
        build_scenario({"preset": "paper-2020-base", "output": {"unit_scale": "Mt"}})
    with pytest.raises(ConfigError, match=r"config\.policy\.kind"):
        build_scenario({"preset": "paper-2020-base", "policy": {"kind": "auction"}})
    with pytest.raises(ConfigError, match=r"config\.policy\.kind"):
        build_scenario({"market": {"T": 1, "rho": 0.5, "lambda": 1e-7},
                        "firms": [{"mu": 1e8, "sigma": 0.0, "k": 0.0, "h": 2.0, "eta": 1e8}],
                        "simulation": small_sim_block(), "policy": {}})


@pytest.mark.parametrize("preset", [[], {}, 1, True, "paper-2021"])
def test_a_preset_that_names_no_preset_is_a_config_error(preset):
    with pytest.raises(ConfigError, match=r"config\.preset: unknown preset"):
        build_scenario({"preset": preset})


def test_target_compliance_is_a_json_boolean():
    custom = {"kind": "custom_martingale", "m0": [0.0] * 6, "gamma": [[0.0] * 7] * 6}
    for flag in (True, False):
        cfg = build_scenario(
            {"preset": "paper-2020-base", "policy": {**custom, "target_compliance": flag}}
        )
        assert cfg.policy.target_compliance is flag
    for bad in ("no", "false", 0, 1, None):
        with pytest.raises(ConfigError, match=r"config\.policy\.target_compliance"):
            build_scenario(
                {"preset": "paper-2020-base", "policy": {**custom, "target_compliance": bad}}
            )


def test_non_finite_numbers_are_config_errors():
    for value in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ConfigError, match=r"config\.firms\[0\]\.mu.*finite"):
            build_scenario(
                {
                    "preset": "paper-2020-base",
                    "firms": [{"mu": value, "sigma": 1e7, "k": 0.5, "h": 20.0, "eta": 1e8}],
                }
            )
        with pytest.raises(ConfigError, match=r"config\.market\.T"):
            build_scenario({"preset": "paper-2020-base", "market": {"T": value}})
        with pytest.raises(ConfigError, match=r"config\.policy\.delta"):
            build_scenario({"preset": "paper-2020-base", "policy": {"kind": "msr", "delta": value}})
        custom = {"kind": "custom_martingale", "m0": [value] + [0.0] * 5, "gamma": [[0.0] * 7] * 6}
        with pytest.raises(ConfigError, match=r"config\.policy\.m0"):
            build_scenario({"preset": "paper-2020-base", "policy": custom})
    for bad in (["a"] * 6, [[1.0], [1.0, 2.0]], {"x": 1}):
        with pytest.raises(ConfigError, match=r"config\.policy\.gamma"):
            build_scenario(
                {
                    "preset": "paper-2020-base",
                    "policy": {"kind": "custom_martingale", "m0": [0.0] * 6, "gamma": bad},
                }
            )


@pytest.mark.parametrize(
    "key, bad",
    [
        ("m0", [True, False, 1, 1, 1, 1]),
        ("m0", ["1", 2, 1, 1, 1, 1]),
        ("m0", [None] * 6),
        ("gamma", [[0.0] * 6 + [False]] * 6),
        ("gamma", [["0"] * 7] * 6),
    ],
    ids=["bools", "string", "nulls", "nested-bool", "nested-strings"],
)
def test_config_arrays_take_json_numbers_only(tmp_path, capsys, key, bad):
    """An array element that float() would take but that is no JSON number,
    a bool or a numeric string, fails the run with exit 2 and the key's
    path, as it does for a scalar."""
    policy = {"kind": "custom_martingale", "m0": [0.0] * 6, "gamma": [[0.0] * 7] * 6}
    cfg = write_config(tmp_path, policy={**policy, key: bad}, simulation=small_sim_block())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert f"config.policy.{key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(bad)


# --- simulate ------------------------------------------------------------------------

def test_simulate_all_policies_end_to_end(tmp_path):
    cfg = write_config(tmp_path, simulation=small_sim_block())
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--policy", "all", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "trajectory_optimal_dynamic.csv",
        "trajectory_static.csv",
        "trajectory_msr.csv",
        "trajectory_tax.csv",
        "summary.json",
    }
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == "summary.v1"
    assert summary["seed"] == 7 and summary["n_paths"] == 4 and summary["n_steps"] == 50
    assert set(summary["policies"]) == {"optimal_dynamic", "static", "msr", "tax"}
    for kind, rep in summary["policies"].items():
        assert rep["consistent"] is True
        assert rep["n_paths"] == 4
        assert set(rep["breakdown"]) == {"abatement", "penalty", "tax", "trading"}
        if kind == "msr":
            assert rep["closed_form"] is None
        else:
            gap = abs(rep["mc_estimate"] - rep["closed_form"])
            assert gap <= 4 * rep["mc_stderr"] + 1e-9 * abs(rep["closed_form"])

    lines = (out / "trajectory_optimal_dynamic.csv").read_text().splitlines()
    assert lines[0] == "# trajectory.v1"
    assert lines[1].split(",") == [
        "path_id", "t", "price", "total_bank", "total_emissions",
        "avg_abatement", "net_allocation_minus_initial",
    ]
    body = [ln.split(",") for ln in lines[2:]]
    assert len(body) == 4 * 51
    prices = {row[2] for row in body}
    assert len(prices) == 1  # constant to all 17 printed digits
    assert float(prices.pop()) == pytest.approx(oracles.P0, rel=1e-15)
    banks = {row[3] for row in body if row[1] == "0"}
    assert float(banks.pop()) == pytest.approx(6 * oracles.ELL, rel=1e-12)


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, simulation=small_sim_block())
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    for out in (out1, out2):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    for name in ("trajectory_optimal_dynamic.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # a different seed changes the static-policy outputs
    cfg2 = write_config(tmp_path, name="cfg2.json",
                        simulation=small_sim_block(seed=8),
                        policy={"kind": "static"})
    cfg1 = write_config(tmp_path, name="cfg1.json",
                        simulation=small_sim_block(seed=7),
                        policy={"kind": "static"})
    outs = []
    for i, c in enumerate((cfg1, cfg2)):
        d = tmp_path / f"seed{i}"
        assert main(["simulate", "--config", c, "--out", str(d)]) == 0
        outs.append((d / "trajectory_static.csv").read_bytes())
    assert outs[0] != outs[1]


def test_trajectory_path_cap(tmp_path):
    cfg = write_config(tmp_path, simulation=small_sim_block(n_paths=12, n_steps=10))
    out = tmp_path / "capped"
    assert main(["simulate", "--config", cfg, "--policy", "static", "--out", str(out)]) == 0
    lines = (out / "trajectory_static.csv").read_text().splitlines()
    ids = {row.split(",", 1)[0] for row in lines[2:]}
    assert ids == {str(i) for i in range(TRAJECTORY_PATH_CAP)}
    assert len(lines) - 2 == TRAJECTORY_PATH_CAP * 11
    # the cost summary still uses all 12 paths
    summary = json.loads((out / "summary.json").read_text())
    assert summary["policies"]["static"]["n_paths"] == 12


def test_gigaton_scale_is_presentation_only(tmp_path):
    cfg_t = write_config(tmp_path, name="t.json", simulation=small_sim_block())
    cfg_g = write_config(
        tmp_path, name="g.json",
        simulation=small_sim_block(),
        output={"unit_scale": "Gt"},
    )
    out_t, out_g = tmp_path / "tons", tmp_path / "gt"
    assert main(["simulate", "--config", cfg_t, "--policy", "static", "--out", str(out_t)]) == 0
    assert main(["simulate", "--config", cfg_g, "--policy", "static", "--out", str(out_g)]) == 0
    rows_t = (out_t / "trajectory_static.csv").read_text().splitlines()[2:]
    rows_g = (out_g / "trajectory_static.csv").read_text().splitlines()[2:]
    for rt, rg in zip(rows_t[:200], rows_g[:200]):
        ft, fg = rt.split(","), rg.split(",")
        assert ft[:3] == fg[:3]  # ids, times, prices untouched
        for a, b in zip(ft[3:], fg[3:]):
            assert float(a) == pytest.approx(float(b) * 1e9, rel=1e-12, abs=1e-6)
    # costs in the summary stay in euros regardless of the volume scale
    s_t = json.loads((out_t / "summary.json").read_text())
    s_g = json.loads((out_g / "summary.json").read_text())
    assert s_t["policies"]["static"]["mc_estimate"] == s_g["policies"]["static"]["mc_estimate"]


@pytest.mark.parametrize("policy", ["tax", "msr"])
def test_nan_mu_exits_2_and_writes_no_summary(tmp_path, capsys, policy):
    firm = {"mu": math.nan, "sigma": 1e7, "k": 0.5, "h": 20.0, "eta": 1e8}
    cfg = write_config(tmp_path, firms=[firm] * 2, simulation=small_sim_block())
    out = tmp_path / "nan"
    assert main(["simulate", "--config", cfg, "--policy", policy, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_failed_simulate_leaves_no_trajectory_files(tmp_path, capsys, monkeypatch):
    """A run that fails in a cost chunk writes nothing; one whose written
    rows fail on a later path of a table, after the earlier paths of that
    file are on disk, removes that file and every one before it."""
    real = permitsim.policies._simulate_stack
    calls = []

    def fail_on_second_policy(runs, noise):
        calls.append(runs[0].policy.kind)
        if len(calls) == 2:
            raise ClearingError("synthetic clearing violation")
        return real(runs, noise)

    monkeypatch.setattr(permitsim.policies, "_simulate_stack", fail_on_second_policy)
    cfg = write_config(tmp_path, simulation=small_sim_block())
    out = tmp_path / "failed"
    assert main(["simulate", "--config", cfg, "--policy", "all", "--out", str(out)]) == 4
    assert "clearing" in capsys.readouterr().err
    assert len(calls) == 2
    assert list(out.glob("trajectory_*.csv")) == []
    assert not (out / "summary.json").exists()
    monkeypatch.undo()

    table = tmp_path / "half" / "trajectory_static.csv"
    on_disk = []

    class FailingRows(np.ndarray):
        """A trajectory whose third path fails when the writer reaches it."""

        def __iter__(self):
            for p, row in enumerate(self.view(np.ndarray)):
                if p == 2:
                    on_disk.append(table.stat().st_size)
                    raise DomainError("synthetic overflow on path 2")
                yield row

    written = permitsim.cli.simulate_policy_paths

    def failing_builder(policy, mkt, noise):
        sample = written(policy, mkt, noise)
        if policy.kind is PolicyKind.STATIC:
            build = sample.build

            def failing_build():
                paths = build()
                paths["total_emissions"] = paths["total_emissions"].view(FailingRows)
                return paths

            sample = replace(sample, build=failing_build)
        return sample

    monkeypatch.setattr(permitsim.cli, "simulate_policy_paths", failing_builder)
    cfg = write_config(tmp_path, simulation=small_sim_block(n_steps=300))
    argv = ["simulate", "--config", cfg, "--policy", "all", "--out", str(table.parent)]
    assert main(argv) == 3
    assert "synthetic overflow on path 2" in capsys.readouterr().err
    # the header and at least path 0's 301 rows were on disk when path 2 failed
    assert on_disk[0] > 301 * 20
    assert list(table.parent.iterdir()) == []


@pytest.mark.parametrize("horizon", [1e308, 1e-300])
def test_extreme_horizon_is_a_domain_error(tmp_path, capsys, horizon):
    """1e308 overflows the closed forms; 1e-300 divides by zero in the MSR
    sizing, where exp(-delta T) rounds to 1."""
    cfg = write_config(tmp_path, market={"T": horizon}, simulation=small_sim_block())
    out = tmp_path / "overflow"
    assert main(["simulate", "--config", cfg, "--policy", "all", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("command", [["simulate", "--policy", "msr"], ["compare", "--etas", "6e8"]])
@pytest.mark.parametrize("delta", [1e6, 1e3], ids=["recursion", "penalty-square"])
def test_an_overflowing_msr_exits_3(tmp_path, capsys, command, delta):
    """At 100 steps delta = 1e6 overflows the MSR recursion and 1e3 its penalty's square."""
    cfg = write_config(
        tmp_path, policy={"kind": "msr", "delta": delta}, simulation=small_sim_block(8, 100)
    )
    out = tmp_path / "overflow"
    assert main([command[0], "--config", cfg, *command[1:], "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [["simulate", "--policy", "tax"], ["simulate", "--policy", "all"], ["compare", "--etas", "1e7"]],
)
def test_refused_allocation_is_exit_3(tmp_path, capsys, command):
    """10^12 steps ask numpy for terabytes, which it refuses before allocating."""
    cfg = write_config(tmp_path)
    out = tmp_path / "huge"
    argv = [command[0], "--config", cfg, *command[1:], "--out", str(out),
            "--paths", "4", "--steps", str(10**12)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_simulate_records_an_inconsistent_estimate_and_succeeds(tmp_path):
    """The CLI records a Monte Carlo miss in the summary; only the library's
    compare_policies raises on it.  At 50 steps the static policy's Euler
    cost sits several standard errors above its closed form."""
    cfg = write_config(tmp_path)
    out = tmp_path / "coarse"
    assert main([
        "simulate", "--config", cfg, "--policy", "static", "--out", str(out),
        "--paths", "2000", "--steps", "50", "--seed", "2020",
    ]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["policies"]["static"]["consistent"] is False


def test_trajectory_rows_render_like_fmt():
    edge = [-0.0, 5e-324, 1e308, 1.0 / 3.0, -2.5e9, 123456789.123456789]
    grid = TimeGrid(horizon=10.0, n_steps=len(edge) - 1)
    noise = SimpleNamespace(grid=grid, path_offset=3)
    columns = {
        name: np.array([np.roll(edge, j), np.roll(edge[::-1], j)])
        for j, name in enumerate(
            ("price", "total_bank", "total_emissions", "avg_abatement",
             "net_allocation_minus_initial")
        )
    }
    sample = SimpleNamespace(**columns)
    for volume_scale in (1.0, 1e-9):  # unit_scale "tons" and "Gt"
        want = []
        for p in range(2):
            for k, t in enumerate(grid.knots):
                values = [columns["price"][p, k]] + [
                    columns[name][p, k] * volume_scale
                    for name in ("total_bank", "total_emissions", "avg_abatement",
                                 "net_allocation_minus_initial")
                ]
                want.append(",".join([str(3 + p), _fmt(t)] + [_fmt(v) for v in values]))
        pieces = list(_trajectory_rows(sample, noise, volume_scale))
        assert len(pieces) == 2  # one per path
        assert "".join(pieces) == "".join(row + "\n" for row in want)
        first = SimpleNamespace(**{name: column[:1] for name, column in columns.items()})
        assert "".join(_trajectory_rows(first, noise, volume_scale)) == "".join(
            row + "\n" for row in want[: grid.n_steps + 1]
        )


def test_trajectory_rows_write_constant_columns_as_text():
    """A column constant along a path goes into the row template as text;
    the rows read as if every value were formatted, and a column that only
    switches between 0.0 and -0.0 is not constant."""
    grid = TimeGrid(horizon=3.0, n_steps=3)
    noise = SimpleNamespace(grid=grid, path_offset=0)
    const = np.broadcast_to(1.0 / 3.0, (2, 4))
    signed_zero = np.array([[0.0, -0.0, 0.0, 0.0], [-0.0, -0.0, -0.0, -0.0]])
    ramp = np.array([[1.0, 2.0, 3.0, 4.0], [5e-324, 0.1, 0.2, 0.3]])
    sample = SimpleNamespace(
        price=const,
        total_bank=signed_zero,
        total_emissions=ramp,
        avg_abatement=np.zeros((2, 4)),
        net_allocation_minus_initial=np.full((2, 4), 2.5e9),
    )
    columns = (const, signed_zero, ramp, np.zeros((2, 4)), np.full((2, 4), 2.5e9))
    want = [
        ",".join([str(p), _fmt(t)] + [_fmt(c[p, k]) for c in columns])
        for p in range(2)
        for k, t in enumerate(grid.knots)
    ]
    assert "".join(_trajectory_rows(sample, noise, 1.0)) == "".join(row + "\n" for row in want)
    assert want[1] == "0,1,0.33333333333333331,-0,2,0,2500000000"


def test_writing_the_tables_never_holds_a_whole_table_text(tmp_path):
    """The four 8 x 2001 tables of `simulate --policy all` are written path
    by path: the traced peak of `_write_outputs`, with every trajectory
    built beforehand, stays below the size of the smallest table."""
    config = build_scenario({"preset": "paper-2020-base"})
    mkt = config.market
    grid = TimeGrid(mkt.horizon, 2000)
    kinds = [PolicyKind.OPTIMAL_DYNAMIC, PolicyKind.STATIC, PolicyKind.MSR, PolicyKind.TAX]
    policies = [build_policy(PolicySpec(kind=k), mkt) for k in kinds]
    noise = generate_noise(9, grid, mkt.firms, TRAJECTORY_PATH_CAP)
    samples = [permitsim.cli.simulate_policy_paths(p, mkt, noise) for p in policies]
    for sample in samples:
        for name in ("price", *permitsim.cli._TRAJECTORY_COLUMNS[3:]):
            getattr(sample, name)
    permitsim.cli._knots_text(grid)
    files = (
        (f"trajectory_{kind.value}.csv", _trajectory_rows(sample, noise, 1.0))
        for kind, sample in zip(kinds, samples)
    )
    tracemalloc.start()
    try:
        _write_outputs(tmp_path, files)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [path.stat().st_size for path in tmp_path.iterdir()]
    assert len(sizes) == 4
    assert peak < min(sizes), (peak, sizes)


# the sample's one cached trajectory build, and the price's QV
_LAZY_COLUMNS = ("_trajectories", "price_qv")


@pytest.mark.parametrize("n_paths", [5, 8, 9, 300])
def test_simulate_draws_the_written_paths_as_their_own_first_block(tmp_path, monkeypatch, n_paths):
    """The costs come first, from chunk-size blocks whose samples never
    build a trajectory; then the min(TRAJECTORY_PATH_CAP, n) written paths,
    the first ones, are drawn as a block of their own, whose samples build
    their trajectories and never price_qv.  The summary's costs are
    those of the default layout.  At 300 steps a chunk holds 256 paths, so
    300 paths are two chunks."""
    real = permitsim.cli.run_ensemble
    chunk_sizes = []
    blocks = []

    def spying(mkt, policies, ensemble):
        chunk_sizes.append(ensemble.chunk_size)
        return real(mkt, policies, ensemble)

    stack = permitsim.policies._simulate_stack
    simulate = permitsim.cli.simulate_policy_paths
    writing = []  # the policy of the written block's sample being built

    def stacking(runs, noise):
        # the written block's samples come out of the kernels too
        for sample in stack(runs, noise):
            if not writing:
                blocks.append(("costs", noise.path_offset, noise.n_paths, sample))
            yield sample

    def simulating(policy, mkt, noise):
        writing.append(policy)
        sample = simulate(policy, mkt, noise)
        writing.pop()
        blocks.append(("written", noise.path_offset, noise.n_paths, sample))
        return sample

    monkeypatch.setattr(permitsim.cli, "run_ensemble", spying)
    monkeypatch.setattr(permitsim.policies, "_simulate_stack", stacking)
    monkeypatch.setattr(permitsim.cli, "simulate_policy_paths", simulating)
    n_steps = 300
    config = build_scenario({
        "preset": "paper-2020-base",
        "simulation": small_sim_block(n_paths=n_paths, n_steps=n_steps),
    })
    kinds = [PolicyKind.OPTIMAL_DYNAMIC, PolicyKind.STATIC, PolicyKind.MSR, PolicyKind.TAX]
    run_simulate(config, tmp_path / "out", kinds)
    monkeypatch.undo()

    head = min(TRAJECTORY_PATH_CAP, n_paths)
    [chunk_size] = chunk_sizes
    roles = [role for role, _, _, _ in blocks]
    assert roles == ["costs"] * (len(roles) - len(kinds)) + ["written"] * len(kinds)
    bounds = sorted({(offset, size) for role, offset, size, _ in blocks if role == "costs"})
    assert [offset for offset, _ in bounds] == list(range(0, n_paths, chunk_size))
    assert sum(size for _, size in bounds) == n_paths
    if n_paths == 300:
        assert len(bounds) == 2
    assert len(blocks) == (len(bounds) + 1) * len(kinds)
    for role, offset, size, sample in blocks:
        built = [name for name in _LAZY_COLUMNS if name in sample.__dict__]
        if role == "written":
            assert (offset, size) == (0, head)
            # the written block builds its trajectories, never price_qv
            assert built == ["_trajectories"], sample.kind
        else:
            assert built == [], (offset, sample.kind)
    assert [s.kind for role, _, _, s in blocks if role == "written"] == kinds
    for kind in kinds:
        rows = (tmp_path / "out" / f"trajectory_{kind.value}.csv").read_text().splitlines()
        assert len(rows) == 2 + head * (n_steps + 1)

    mkt = config.market
    default = run_ensemble(
        mkt,
        [build_policy(PolicySpec(kind=k, delta=config.policy.delta), mkt) for k in kinds],
        PathEnsemble(config.seed, TimeGrid(mkt.horizon, n_steps), mkt.firms, n_paths),
    )
    want = {r.kind.value: _report_to_json(r) for r in default.reports}
    written = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert json.dumps(written["policies"], sort_keys=True) == json.dumps(want, sort_keys=True)


def test_simulate_draws_the_written_block_with_only_its_loading_rows(tmp_path, monkeypatch):
    """On 40 firms a block's (P, N+1, M) drivers weigh as much as 41 loading
    rows, so the written block keeps exactly the rows `_describe` declares
    for the runs' costs and trajectories and never draws d_tilde; its
    trajectory rows are, to the bit, those of paths 0-7 in a default
    256-path chunk."""
    firm = dict(PRESETS["paper-2020-base"]["firms"][0], mu=2.0e9 / 40, sigma=0.2e9 / math.sqrt(40))
    cfg = write_config(
        tmp_path, firms=[firm] * 40, simulation=small_sim_block(n_paths=300, n_steps=300, seed=11)
    )
    config = load_config(cfg)
    real = permitsim.cli.simulate_policy_paths
    noises = []

    def simulating(policy, mkt, noise):
        noises.append(noise)
        return real(policy, mkt, noise)

    monkeypatch.setattr(permitsim.cli, "simulate_policy_paths", simulating)
    assert main(["simulate", "--config", cfg, "--policy", "all", "--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()

    mkt = config.market
    kinds = [PolicyKind.OPTIMAL_DYNAMIC, PolicyKind.STATIC, PolicyKind.MSR, PolicyKind.TAX]
    policies = [build_policy(PolicySpec(kind=k, delta=config.policy.delta), mkt) for k in kinds]
    grid = TimeGrid(mkt.horizon, 300)
    described = [permitsim.policies._describe(mkt, p, grid) for p in policies]
    loads = [load for run in described for load in (*run.cost_rows, *run.trajectory_rows)]
    [noise] = {id(n): n for n in noises}.values()
    assert (noise.path_offset, noise.n_paths) == (0, TRAJECTORY_PATH_CAP)
    assert "d_tilde" not in noise.__dict__
    assert set(noise._rows) == {np.asarray(load, dtype=float).tobytes() for load in loads}

    ensemble = PathEnsemble(config.seed, grid, mkt.firms, 300)
    assert ensemble.chunk_size == 256
    chunk = next(ensemble.chunks(loads))
    for policy in policies:
        sample = permitsim.policies.simulate_policy_paths(policy, mkt, chunk)
        first = SimpleNamespace(**{
            name: getattr(sample, name)[:TRAJECTORY_PATH_CAP]
            for name in ("price", *permitsim.cli._TRAJECTORY_COLUMNS[3:])
        })
        rows = (tmp_path / "out" / f"trajectory_{policy.kind.value}.csv").read_text().splitlines()
        text = "".join(_trajectory_rows(first, chunk, 1.0))
        assert "".join(row + "\n" for row in rows[2:]) == text, policy.kind


@pytest.mark.parametrize("seed", [7, 2020])
def test_chunks_sized_by_knots_write_the_bytes_of_256_path_chunks(tmp_path, monkeypatch, seed):
    """On short grids a default chunk holds more than 256 paths; `simulate`
    and `compare` still write the same bytes as on 256-path chunks."""
    kinds = [PolicyKind.OPTIMAL_DYNAMIC, PolicyKind.STATIC, PolicyKind.MSR, PolicyKind.TAX]

    def run_both(out):
        sim = build_scenario({
            "preset": "paper-2020-base",
            "simulation": small_sim_block(n_paths=3000, n_steps=50, seed=seed),
        })
        run_simulate(sim, out / "simulate", kinds)
        sweep = build_scenario({
            "preset": "paper-2020-base",
            "simulation": small_sim_block(n_paths=3500, n_steps=20, seed=seed),
        })
        run_compare(sweep, [1e6, 1e7, 6e8, 1e9], out / "compare")

    real = permitsim.cli.PathEnsemble
    sizes = []

    def recording(*args, **kwargs):
        ensemble = real(*args, **kwargs)
        sizes.append(ensemble.chunk_size)
        return ensemble

    monkeypatch.setattr(permitsim.cli, "PathEnsemble", recording)
    run_both(tmp_path / "default")
    assert sizes == [1285, 3120]
    monkeypatch.setattr(permitsim.cli, "PathEnsemble", partial(real, chunk_size=256))
    run_both(tmp_path / "256")
    files = sorted(p.relative_to(tmp_path / "256") for p in (tmp_path / "256").rglob("*.*"))
    assert len(files) == 6
    for name in files:
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "256" / name).read_bytes()


def test_simulate_writes_the_same_bytes_when_blocks_split(tmp_path, monkeypatch):
    """Every output file is the same when each chunk's noise draw splits
    into three path slices; the trajectory rows of paths 6 and 7 then come
    from the second slice's draw."""
    cfg = write_config(tmp_path)
    args = ["simulate", "--config", cfg, "--policy", "all",
            "--paths", "20", "--steps", "20", "--seed", "7", "--out"]
    assert main(args + [str(tmp_path / "whole")]) == 0
    force_split(monkeypatch)
    assert main(args + [str(tmp_path / "split")]) == 0
    names = sorted(p.name for p in (tmp_path / "whole").iterdir())
    assert len(names) == 5
    for name in names:
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_an_overflow_on_a_slice_thread_exits_3(tmp_path, monkeypatch):
    """A noise-draw slice that overflows on a slice thread raises there as it
    would on the calling thread, and the run fails as a domain error."""
    force_split(monkeypatch)
    caller = threading.get_ident()
    real = permitsim.stochastic.map_path_slices

    def overflowing_slices(fn, n_paths, path_doubles):
        def slice_fn(start, stop):
            if threading.get_ident() != caller:
                np.float64(1e300) * np.float64(1e300)
            return fn(start, stop)

        return real(slice_fn, n_paths, path_doubles)

    monkeypatch.setattr(permitsim.stochastic, "map_path_slices", overflowing_slices)
    out = tmp_path / "out"
    assert main([
        "simulate", "--config", write_config(tmp_path), "--policy", "optimal_dynamic",
        "--paths", "6", "--steps", "20", "--out", str(out),
    ]) == 3
    assert not (out / "summary.json").exists()


def test_simulate_override_flags(tmp_path):
    cfg = write_config(tmp_path, simulation=small_sim_block())
    out = tmp_path / "ovr"
    assert main([
        "simulate", "--config", cfg, "--policy", "tax", "--out", str(out),
        "--seed", "11", "--paths", "3", "--steps", "20",
    ]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 11
    assert summary["n_paths"] == 3
    assert summary["n_steps"] == 20


def test_simulate_rejects_unknown_policy_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, simulation=small_sim_block())
    code = main(["simulate", "--config", cfg, "--policy", "grandfathering",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown kind" in capsys.readouterr().err


# --- compare -------------------------------------------------------------------------

def test_compare_sweep_end_to_end(tmp_path):
    cfg = write_config(tmp_path, simulation=small_sim_block(n_paths=64, n_steps=100))
    out = tmp_path / "sweep"
    assert main(["compare", "--config", cfg, "--etas", "1e7,6e8", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# sweep.v1"
    header = lines[1].split(",")
    assert header == ["eta", "cost_optimal", "cost_static", "cost_msr",
                      "cost_tax", "delta_stat", "mc_stderr_msr"]
    assert len(lines) == 4
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[2:]]
    assert rows[0]["eta"] == 1e7 and rows[1]["eta"] == 6e8
    for row in rows:
        assert row["cost_static"] - row["cost_optimal"] == pytest.approx(
            row["delta_stat"], rel=1e-9
        )
        assert row["cost_msr"] >= row["cost_optimal"] - 4 * row["mc_stderr_msr"]
        assert row["cost_tax"] > row["cost_static"]
    # less flexibility makes misallocation costlier
    assert rows[0]["delta_stat"] > rows[1]["delta_stat"]


def test_compare_with_zero_volatility_collapses_allowance_costs(tmp_path):
    firms = [{"mu": 2.0e9 / 6, "sigma": 0.0, "k": 0.92, "h": 25.0, "eta": 6.0e8}] * 6
    cfg = write_config(
        tmp_path, firms=firms, simulation=small_sim_block(n_paths=2, n_steps=200)
    )
    out = tmp_path / "quiet"
    assert main(["compare", "--config", cfg, "--etas", "1e8,6e8", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[1].split(",")
    for ln in lines[2:]:
        row = dict(zip(header, map(float, ln.split(","))))
        assert row["cost_static"] == row["cost_optimal"]  # delta_stat is exactly 0
        assert row["delta_stat"] == 0.0
        assert row["cost_msr"] == pytest.approx(row["cost_optimal"], rel=1e-3)
        assert row["cost_tax"] > 4 * row["cost_optimal"]


def test_compare_rejects_bad_etas(tmp_path, capsys):
    cfg = write_config(tmp_path, simulation=small_sim_block())
    assert main(["compare", "--config", cfg, "--etas", "1e7,zzz",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["compare", "--config", cfg, "--etas", ",",
                 "--out", str(tmp_path / "y")]) == 2
    assert main(["compare", "--config", cfg, "--etas=-1e7",
                 "--out", str(tmp_path / "z")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("eta", ["inf", "-inf", "nan"])
def test_compare_rejects_non_finite_etas(tmp_path, capsys, eta):
    cfg = write_config(tmp_path, simulation=small_sim_block())
    out = tmp_path / "sweep"
    assert main(["compare", "--config", cfg, f"--etas=1e7,{eta}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()


def _default_chunk_size(n_steps):
    mkt = build_scenario({"preset": "paper-2020-base"}).market
    return PathEnsemble(0, TimeGrid(mkt.horizon, n_steps), mkt.firms, 1).chunk_size


def test_compare_draws_each_chunk_once(tmp_path, monkeypatch):
    """One noise draw per chunk serves every eta: two chunks and 88 paths
    are three chunks."""
    real = permitsim.stochastic.generate_noise
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(permitsim.stochastic, "generate_noise", counting)
    n_paths = 2 * _default_chunk_size(20) + 88
    config = build_scenario({
        "preset": "paper-2020-base", "simulation": small_sim_block(n_paths=n_paths, n_steps=20),
    })
    rows = run_compare(config, [1e7, 6e8, 1e9], tmp_path / "sweep")
    assert len(rows) == 3
    assert len(calls) == 3


def _assert_rows_match_per_eta_ensembles(config, etas, rows):
    grid = TimeGrid(config.market.horizon, config.n_steps)
    assert [row["eta"] for row in rows] == etas
    for eta, row in zip(etas, rows):
        mkt_eta = replace(
            config.market,
            firms=tuple(replace(fp, eta=eta) for fp in config.market.firms),
        )
        msr = build_policy(PolicySpec(kind=PolicyKind.MSR), mkt_eta)
        ensemble = PathEnsemble(config.seed, grid, mkt_eta.firms, config.n_paths)
        report = run_ensemble(mkt_eta, [msr], ensemble).reports[0]
        assert row["cost_msr"] == report.mc_estimate
        assert row["mc_stderr_msr"] == report.mc_stderr


def test_compare_rows_match_per_eta_ensembles(tmp_path):
    """Each row is what a separate ensemble at that eta gives, to the bit."""
    config = build_scenario({
        "preset": "paper-2020-base", "simulation": small_sim_block(n_paths=300, n_steps=40),
    })
    etas = [1e6, 6e8, 1e9]
    rows = run_compare(config, etas, tmp_path / "sweep")
    _assert_rows_match_per_eta_ensembles(config, etas, rows)


@pytest.mark.parametrize(
    "n_etas, n_steps, stacks",
    [(9, 20, [6, 3]), (13, 4, [5, 5, 3])],
    ids=["9-etas-20-steps", "13-etas-4-steps"],
)
def test_compare_rows_from_several_stacks_match_per_eta_ensembles(
    tmp_path, monkeypatch, n_etas, n_steps, stacks
):
    """More etas than one stack holds, on a whole chunk and one of 44 paths:
    each row is still what a separate ensemble at that eta gives, to the
    bit."""
    real = permitsim.policies._simulate_msr
    sizes = []

    def spy(runs, noise):
        sizes.append(len(runs))
        yield from real(runs, noise)

    monkeypatch.setattr(permitsim.policies, "_simulate_msr", spy)
    config = build_scenario({
        "preset": "paper-2020-base",
        "simulation": small_sim_block(n_paths=_default_chunk_size(n_steps) + 44, n_steps=n_steps),
    })
    etas = [float(e) for e in np.geomspace(1e6, 1e9, n_etas)]
    rows = run_compare(config, etas, tmp_path / "sweep")
    assert sizes == stacks * 2
    _assert_rows_match_per_eta_ensembles(config, etas, rows)


def test_compare_describes_each_eta_once(tmp_path, monkeypatch):
    """A 13-eta sweep over two chunks builds each eta's `_msr_rows` once, and
    no martingale rows, and checks each eta's firms against the ensemble
    once, not again per chunk."""
    n_steps = 300
    config = build_scenario({
        "preset": "paper-2020-base",
        "simulation": small_sim_block(n_paths=_default_chunk_size(n_steps) + 44, n_steps=n_steps),
    })
    etas = [float(e) for e in np.geomspace(1e6, 1e9, 13)]
    draws = count_calls(monkeypatch, permitsim.stochastic, "generate_noise")
    built = count_calls(monkeypatch, permitsim.policies, "_martingale_rows", "_msr_rows")
    checked = count_calls(monkeypatch, permitsim.stochastic, "_require_loadings")
    rows = run_compare(config, etas, tmp_path / "sweep")
    assert draws == {"generate_noise": 2}
    assert built == {"_martingale_rows": 0, "_msr_rows": 13}
    assert checked == {"_require_loadings": 13}
    assert len(rows) == 13


def test_compare_frees_every_sample_and_stack_before_the_next_chunk(
    tmp_path, monkeypatch
):
    """A stack's rolling block of knots comes from the chunk loop's
    `array_pool`, which writes it again on a later chunk, so it must never
    be read after its chunk: no sweep sample and no view of the block is
    alive when the next chunk's noise is drawn, and each sample is gone
    before the next one is built.  enumerate or zip over the samples would
    keep the last one in their cached result tuple, and a stack left
    suspended after its last yield would keep its samples."""
    real_draw = permitsim.stochastic.generate_noise
    real_steps = permitsim.policies._msr_steps
    real_sample = permitsim.policies._msr_sample
    real_pool = permitsim.stochastic._ArrayPool
    pools, samples, views, stack_sizes, pooled = [], [], [], [], []
    live_at_draw, live_at_sample = [], []

    def live(refs):
        return sum(ref() is not None for ref in refs)

    def recording():
        pools.append(real_pool())
        return pools[-1]

    def drawing(*args, **kwargs):
        gc.collect()
        live_at_draw.append(live(samples) + live(views))
        return real_draw(*args, **kwargs)

    def stepping(a_t, b_t, d_wbar, k0, x_t):
        real_steps(a_t, b_t, d_wbar, k0, x_t)
        views.append(weakref.ref(x_t))
        if k0 == 0:
            stack_sizes.append(x_t.shape[1])
        pooled.append(any(x_t.base is base for base in pools[-1]._bases))

    def sampling(*args):
        gc.collect()
        live_at_sample.append(live(samples) + live(views))
        sample = real_sample(*args)
        samples.append(weakref.ref(sample))
        return sample

    monkeypatch.setattr(permitsim.stochastic, "_ArrayPool", recording)
    monkeypatch.setattr(permitsim.stochastic, "generate_noise", drawing)
    monkeypatch.setattr(permitsim.policies, "_msr_steps", stepping)
    monkeypatch.setattr(permitsim.policies, "_msr_sample", sampling)
    n_paths = 2 * _default_chunk_size(20) + 88
    config = build_scenario({
        "preset": "paper-2020-base", "simulation": small_sim_block(n_paths=n_paths, n_steps=20),
    })
    run_compare(config, [float(e) for e in np.geomspace(1e6, 1e9, 9)], tmp_path / "sweep")
    assert live_at_draw == [0, 0, 0]
    # the rolling block is released before a stack's first sample is built
    assert live_at_sample == [0] * (3 * 9)
    # each chunk steps a stack of 6 runs and one of 3, in blocks of the pool
    assert stack_sizes == [6, 3] * 3
    assert all(pooled) and len(pooled) >= len(stack_sizes)


def test_compare_never_writes_a_non_finite_row(tmp_path, monkeypatch):
    real = permitsim.policies._simulate_msr

    def infinite_cost(runs, noise):
        # the chunk loop keeps the cost parts, not the cost, and sums them per run
        for sample in real(runs, noise):
            inf = np.full_like(sample.parts["penalty"], np.inf)
            yield replace(sample, parts={**sample.parts, "penalty": inf})

    monkeypatch.setattr(permitsim.policies, "_simulate_msr", infinite_cost)
    config = build_scenario({"preset": "paper-2020-base", "simulation": small_sim_block()})
    out = tmp_path / "sweep"
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="cost_msr"):
        run_compare(config, [1e7, 6e8], out)
    assert not (out / "sweep.csv").exists()


# --- calibrate-eta ----------------------------------------------------------------------

def test_calibrate_eta_round_trip(capsys):
    code = main([
        "calibrate-eta",
        "--qv", repr(oracles.QV_T),
        "--sigma2", repr(oracles.SIGMA_SQ),
        "--lambda", "7.5e-7",
        "--horizon", "10",
    ])
    assert code == 0
    eta = float(capsys.readouterr().out.strip())
    assert eta == pytest.approx(6e8, rel=1e-9)


def test_calibrate_eta_infeasible_is_exit_3(capsys):
    upper = 4.0 * (7.5e-7) ** 2 * oracles.SIGMA_SQ * 10.0
    code = main([
        "calibrate-eta",
        "--qv", repr(2 * upper),
        "--sigma2", repr(oracles.SIGMA_SQ),
        "--lambda", "7.5e-7",
        "--horizon", "10",
    ])
    assert code == 3
    assert "feasible interval" in capsys.readouterr().err


def test_closed_form_overflow_is_exit_3(tmp_path, capsys):
    firms = [{"mu": 1e200, "sigma": 8.2e7, "k": 0.92, "h": 25.0, "eta": 6.0e8}] * 6
    out = tmp_path / "out"
    for command in (["simulate", "--policy", "all"], ["compare", "--etas", "1e7,6e8"]):
        cfg = write_config(tmp_path, firms=firms, simulation=small_sim_block())
        assert main([*command, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err and "Traceback" not in err
    assert not out.exists()


def test_calibrate_eta_overflow_is_exit_3(capsys):
    code = main(["calibrate-eta", "--qv", "1", "--sigma2", "1",
                 "--lambda", "1e200", "--horizon", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--lambda", "inf"),
        ("--lambda", "-1"),
        ("--lambda", "0"),
        ("--sigma2", "inf"),
        ("--sigma2", "-1"),
        ("--horizon", "nan"),
        ("--horizon", "0"),
        ("--qv", "inf"),
        ("--qv", "nan"),
    ],
)
def test_calibrate_eta_rejects_bad_flags_with_exit_2(capsys, flag, value):
    args = {"--qv": "1", "--sigma2": "1", "--lambda": "1", "--horizon": "1", flag: value}
    code = main(["calibrate-eta", *(x for kv in args.items() for x in kv)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} must be finite")
    assert captured.out == ""


@pytest.mark.parametrize("qv", ["-1", "0", "1e300"])
def test_calibrate_eta_finite_qv_outside_the_interval_is_exit_3(capsys, qv):
    code = main(["calibrate-eta", "--qv", qv, "--sigma2", "1", "--lambda", "1", "--horizon", "1"])
    assert code == 3
    assert "feasible interval" in capsys.readouterr().err


def test_calibrate_eta_non_finite_result_is_exit_3(capsys):
    """A subnormal QV divides a finite interval by almost nothing."""
    code = main(["calibrate-eta", "--qv", "1e-320", "--sigma2", "1", "--lambda", "1", "--horizon", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert "not finite" in captured.err and captured.out == ""


# --- exit-code translation ------------------------------------------------------------

def test_diagnostic_failures_exit_4(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, simulation=small_sim_block())

    def boom(*args, **kwargs):
        raise ClearingError("synthetic clearing violation")

    monkeypatch.setattr("permitsim.cli.run_simulate", boom)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 4
    assert "clearing" in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "paper-2020-base", "market": {"depth": 1}}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "config.market" in capsys.readouterr().err
