import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

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
)
from permitsim.cli import (
    PRESETS,
    TRAJECTORY_PATH_CAP,
    _fmt,
    _trajectory_rows,
    build_scenario,
    load_config,
    main,
    run_compare,
    run_simulate,
)
from permitsim.policies import run_ensemble

import oracles


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
            "market": {"nu": 1e6},
            "simulation": {"seed": 99},
        }
    )
    assert cfg.market.depth == 1e6
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
    with pytest.raises(ConfigError, match=r"config\.market\.nu"):
        build_scenario({"preset": "paper-2020-base", "market": {"nu": "deep"}})


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
    real = permitsim.policies.simulate_policy_paths
    calls = []

    def fail_on_second_policy(policy, mkt, noise):
        calls.append(policy.kind)
        if len(calls) == 2:
            raise ClearingError("synthetic clearing violation")
        return real(policy, mkt, noise)

    monkeypatch.setattr(permitsim.policies, "simulate_policy_paths", fail_on_second_policy)
    cfg = write_config(tmp_path, simulation=small_sim_block())
    out = tmp_path / "failed"
    assert main(["simulate", "--config", cfg, "--policy", "all", "--out", str(out)]) == 4
    assert "clearing" in capsys.readouterr().err
    assert len(calls) == 2
    assert list(out.glob("trajectory_*.csv")) == []
    assert not (out / "summary.json").exists()


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
        assert _trajectory_rows(sample, noise, volume_scale, 2) == want
        assert _trajectory_rows(sample, noise, volume_scale, 1) == want[: grid.n_steps + 1]


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


def test_compare_draws_each_chunk_once(tmp_path, monkeypatch):
    """One noise draw per chunk serves every eta: 600 paths are three chunks."""
    real = permitsim.stochastic.generate_noise
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(permitsim.stochastic, "generate_noise", counting)
    config = build_scenario({
        "preset": "paper-2020-base", "simulation": small_sim_block(n_paths=600, n_steps=20),
    })
    rows = run_compare(config, [1e7, 6e8, 1e9], tmp_path / "sweep")
    assert len(rows) == 3
    assert len(calls) == 3


def test_compare_rows_match_per_eta_ensembles(tmp_path):
    """Each row is what a separate ensemble at that eta gives, to the bit."""
    config = build_scenario({
        "preset": "paper-2020-base", "simulation": small_sim_block(n_paths=300, n_steps=40),
    })
    etas = [1e6, 6e8, 1e9]
    rows = run_compare(config, etas, tmp_path / "sweep")
    grid = TimeGrid(config.market.horizon, config.n_steps)
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


def test_compare_never_writes_a_non_finite_row(tmp_path, monkeypatch):
    real = permitsim.policies.simulate_policy_paths

    def infinite_cost(policy, mkt, noise):
        sample = real(policy, mkt, noise)
        return replace(sample, cost=np.full_like(sample.cost, np.inf))

    monkeypatch.setattr(permitsim.policies, "simulate_policy_paths", infinite_cost)
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


def test_calibrate_eta_overflow_is_exit_3(capsys):
    code = main(["calibrate-eta", "--qv", "1", "--sigma2", "1",
                 "--lambda", "1e200", "--horizon", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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
