"""Command-line interface: config-driven simulations, sweeps, calibration.

Three subcommands::

    permitsim simulate --config scenario.json --out outdir [--policy KIND]
    permitsim compare  --config scenario.json --etas 1e6,1e7 --out outdir
    permitsim calibrate-eta --qv 14.5 --sigma2 5.8e15 --lambda 7.5e-7 --horizon 10

Configs are JSON objects with blocks ``market``, ``firms``, ``policy``,
``simulation``, ``output``; a top-level ``"preset"`` key pulls in a named
parameter set which explicit blocks then override key by key.  Unknown
keys are rejected with their full path.  All outputs are CSV with a fixed,
versioned header (plus a JSON cost summary) and numbers at 17 significant
digits, so reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical singularity or
infeasible input, 4 diagnostic failure (e.g. market clearing violation).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, PermitSimError
from .params import FRICTIONLESS, FirmParams, MarketParams
from .policies import (
    DEFAULT_MSR_DELTA,
    CostReport,
    PolicyKind,
    PolicySpec,
    _describe,
    _simulate_runs,
    build_policy,
    cost_report_from_samples,
    estimate_eta_from_qv,
    optimal_dynamic_policy,
    run_ensemble,
    simulate_policy_paths,
    static_policy,
    tax_policy,
)
from .stochastic import PathEnsemble, TimeGrid, generate_noise

TRAJECTORY_SCHEMA = "trajectory.v1"
SWEEP_SCHEMA = "sweep.v1"
SUMMARY_SCHEMA = "summary.v1"

_TRAJECTORY_COLUMNS = (
    "path_id",
    "t",
    "price",
    "total_bank",
    "total_emissions",
    "avg_abatement",
    "net_allocation_minus_initial",
)
_SWEEP_COLUMNS = (
    "eta",
    "cost_optimal",
    "cost_static",
    "cost_msr",
    "cost_tax",
    "delta_stat",
    "mc_stderr_msr",
)

#: Trajectory tables carry at most this many paths (the first ones in path
#: order); cost summaries always use every simulated path.
TRAJECTORY_PATH_CAP = 8

_STANDARD_KINDS = (
    PolicyKind.OPTIMAL_DYNAMIC,
    PolicyKind.STATIC,
    PolicyKind.MSR,
    PolicyKind.TAX,
)


def _base_preset(h: float) -> dict:
    n = 6
    return {
        "market": {"T": 10.0, "rho": 0.8, "lambda": 7.5e-7, "nu": "inf"},
        "firms": [
            {
                "mu": 2.0e9 / n,
                "sigma": 0.2e9 / math.sqrt(n),
                "k": 0.92,
                "h": h,
                "eta": 6.0e8,
            }
            for _ in range(n)
        ],
        "policy": {"kind": "optimal_dynamic", "delta": DEFAULT_MSR_DELTA},
        "simulation": {"n_paths": 10000, "n_steps": 2000, "seed": 2020},
        "output": {"unit_scale": "tons"},
    }


# 2020-vintage EU-wide calibration: six equal firms, 2 Gt/yr total trend,
# 16 Gt emission target over a decade.  The low-h variant reads the average
# marginal cost level as 25/N euros/ton instead of 25.
PRESETS: dict[str, dict] = {
    "paper-2020-base": _base_preset(25.0),
    "paper-2020-low-h": _base_preset(25.0 / 6.0),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario: market, policy choice, and run settings."""

    market: MarketParams
    policy: PolicySpec
    n_paths: int
    n_steps: int
    seed: int
    unit_scale: str


# ---------------------------------------------------------------------------
# config ingestion


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(block: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {', '.join(repr(k) for k in unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _is_number(value: object) -> bool:
    """True for an int or a float that is not a bool: a JSON number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(block: dict, key: str, path: str) -> float:
    if key not in block:
        raise ConfigError(f"{path}.{key}: required value missing")
    value = block[key]
    if not _is_number(value):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
    return number


def _array(block: dict, key: str, path: str) -> np.ndarray | None:
    if block.get(key) is None:
        return None
    value = block[key]
    bad = ConfigError(f"{path}.{key}: expected an array of numbers, got {value!r}")
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise bad from exc
    # float() also takes bools and numeric strings: check each element as given
    if not all(map(_is_number, np.asarray(value, dtype=object).flat)):
        raise bad
    if not np.all(np.isfinite(array)):
        raise ConfigError(f"{path}.{key}: expected finite numbers, got {value!r}")
    return array


def _integer(block: dict, key: str, path: str, minimum: int) -> int:
    if key not in block:
        raise ConfigError(f"{path}.{key}: required value missing")
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _merge(base: dict, override: dict) -> dict:
    """Key-wise overlay for the block dicts; ``firms`` replaces wholesale."""
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for key, value in override.items():
        if key == "preset":
            continue
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    return merged


def load_config(path: str | Path) -> ScenarioConfig:
    """Read, overlay onto any preset, and validate a JSON scenario file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return build_scenario(raw)


def build_scenario(raw: object) -> ScenarioConfig:
    raw = _require_mapping(raw, "config")
    _reject_unknown(
        raw, {"preset", "market", "firms", "policy", "simulation", "output"}, "config"
    )
    base: dict = {}
    preset_name = raw.get("preset")
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            raise ConfigError(
                f"config.preset: unknown preset {preset_name!r}; "
                f"available: {', '.join(sorted(PRESETS))}"
            )
        base = PRESETS[preset_name]
    merged = _merge(base, raw)

    market_block = _require_mapping(merged.get("market", {}), "config.market")
    _reject_unknown(market_block, {"T", "rho", "lambda", "nu"}, "config.market")
    horizon = _number(market_block, "T", "config.market")
    rho = _number(market_block, "rho", "config.market")
    penalty = _number(market_block, "lambda", "config.market")
    # the simulations are frictionless only: reject a finite depth up front
    nu_raw = market_block.get("nu", "inf")
    if nu_raw != "inf":
        raise ConfigError(f'config.market.nu: only "inf" is supported, got {nu_raw!r}')

    firms_block = merged.get("firms")
    if not isinstance(firms_block, list) or not firms_block:
        raise ConfigError("config.firms: expected a non-empty array of firm objects")
    firms = []
    for idx, entry in enumerate(firms_block):
        path_i = f"config.firms[{idx}]"
        entry = _require_mapping(entry, path_i)
        _reject_unknown(entry, {"mu", "sigma", "k", "h", "eta"}, path_i)
        try:
            firms.append(
                FirmParams(
                    mu=_number(entry, "mu", path_i),
                    sigma=_number(entry, "sigma", path_i),
                    k=_number(entry, "k", path_i),
                    h=_number(entry, "h", path_i),
                    eta=_number(entry, "eta", path_i),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{path_i}: {exc}") from exc
    try:
        market = MarketParams(
            firms=tuple(firms), penalty=penalty, depth=FRICTIONLESS, horizon=horizon, rho=rho
        )
    except ValueError as exc:
        raise ConfigError(f"config.market: {exc}") from exc

    policy_block = _require_mapping(merged.get("policy", {}), "config.policy")
    _reject_unknown(
        policy_block, {"kind", "delta", "m0", "gamma", "target_compliance"}, "config.policy"
    )
    kind_raw = policy_block.get("kind")
    if kind_raw is None:
        raise ConfigError("config.policy.kind: required value missing")
    try:
        kind = PolicyKind(kind_raw)
    except ValueError as exc:
        raise ConfigError(
            f"config.policy.kind: unknown kind {kind_raw!r}; "
            f"valid: {', '.join(k.value for k in PolicyKind)}"
        ) from exc
    delta = policy_block.get("delta")
    if delta is not None:
        delta = _number(policy_block, "delta", "config.policy")
    target_compliance = policy_block.get("target_compliance", True)
    if not isinstance(target_compliance, bool):
        raise ConfigError(
            f"config.policy.target_compliance: expected true or false, "
            f"got {target_compliance!r}"
        )
    policy = PolicySpec(
        kind=kind,
        delta=delta,
        m0=_array(policy_block, "m0", "config.policy"),
        gamma=_array(policy_block, "gamma", "config.policy"),
        target_compliance=target_compliance,
    )

    sim_block = _require_mapping(merged.get("simulation", {}), "config.simulation")
    _reject_unknown(sim_block, {"n_paths", "n_steps", "seed"}, "config.simulation")
    n_paths = _integer(sim_block, "n_paths", "config.simulation", minimum=1)
    n_steps = _integer(sim_block, "n_steps", "config.simulation", minimum=1)
    seed = _integer(sim_block, "seed", "config.simulation", minimum=0)

    out_block = _require_mapping(merged.get("output", {}), "config.output")
    _reject_unknown(out_block, {"unit_scale"}, "config.output")
    unit_scale = out_block.get("unit_scale", "tons")
    if unit_scale not in ("tons", "Gt"):
        raise ConfigError(
            f'config.output.unit_scale: expected "tons" or "Gt", got {unit_scale!r}'
        )

    return ScenarioConfig(
        market=market,
        policy=policy,
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        unit_scale=unit_scale,
    )


# ---------------------------------------------------------------------------
# table rendering


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@lru_cache(maxsize=1)
def _knots_text(grid: TimeGrid) -> tuple[str, ...]:
    """The t column as text, formatted once per run (per grid)."""
    return tuple(_fmt(t) for t in grid.knots)


def _trajectory_rows(sample, noise, volume_scale: float) -> Iterator[str]:
    """Every path of a sample on the block ``noise`` as trajectory.v1 rows:
    yields one text per path, in path order, with a newline after each row.

    Each path renders with one ``%`` operation on a template of all its
    rows: the path id, t and every column that is constant along the path
    are text in the template, and only the varying columns are formatted
    (``%.17g`` and ``format(x, ".17g")`` print floats identically).  A
    column is constant when all its values have the same bits, so that
    0.0 and -0.0 stay apart.  The volume columns are scaled path by path,
    so no scaled copy of a whole column is made.
    """
    columns = [sample.price] + [getattr(sample, name) for name in _TRAJECTORY_COLUMNS[3:]]
    for p, path in enumerate(zip(*columns)):
        cells = []
        varying = []
        for column in (path[0], *(volumes * volume_scale for volumes in path[1:])):
            bits = column.view(np.int64)
            if (bits == bits[0]).all():
                cells.append(_fmt(column[0]))
            else:
                cells.append("%.17g")
                varying.append(column)
        head = f"{noise.path_offset + p},"
        tail = "," + ",".join(cells) + "\n"
        template = head + (tail + head).join(_knots_text(noise.grid)) + tail
        values = tuple(np.stack(varying, axis=-1).ravel().tolist()) if varying else ()
        yield template % values


def _report_to_json(report: CostReport) -> dict:
    return {
        "closed_form": report.closed_form,
        "mc_estimate": report.mc_estimate,
        "mc_stderr": report.mc_stderr,
        "n_paths": report.n_paths,
        "breakdown": dict(sorted(report.breakdown.items())),
        "expected_total_emissions": report.expected_total_emissions,
        "emissions_stderr": report.emissions_stderr,
        "consistent": report.consistent,
    }


# ---------------------------------------------------------------------------
# subcommand drivers


def _spec_for_kind(config: ScenarioConfig, kind: PolicyKind) -> PolicySpec:
    if kind is config.policy.kind:
        return config.policy
    return PolicySpec(kind=kind, delta=config.policy.delta)


def run_simulate(config: ScenarioConfig, out_dir: str | Path, kinds: list[PolicyKind]) -> dict:
    """Simulate the requested policies on shared shocks and write tables.

    Writes ``summary.json`` with closed-form and Monte Carlo costs over all
    ``n_paths`` paths, and ``trajectory_<kind>.csv`` per policy with the
    first TRAJECTORY_PATH_CAP paths.  The costs come first, from
    `run_ensemble` on `PathEnsemble`'s default chunks, which build no
    trajectory.  The written paths are then drawn again as one block with
    the rows and totals the runs read (`_describe`), and each policy's rows
    come from `simulate_policy_paths` on that block and are written path by
    path (`_trajectory_rows`).  A path's numbers do not depend on the block
    it is drawn in, so the rows are those of the same paths in any chunk.
    Returns the summary dict.  A failed run removes the
    trajectory files it wrote and writes no summary.  An ``out_dir`` that
    cannot be a directory fails before the first chunk is drawn, and an
    `OSError` from writing the outputs fails as a `ConfigError`
    (`_require_out_dir`, `_write_outputs`); the directory is made only once
    the costs are in.

    A Monte Carlo estimate more than four standard errors from its closed
    form is recorded as ``"consistent": false`` and the run still succeeds:
    a coarse time grid biases the static policy's Euler costs by design,
    and the summary is where that shows.  `compare_policies` raises a
    `DiagnosticError` on the same miss.
    """
    out = _require_out_dir(out_dir)
    mkt = config.market
    policies = [build_policy(_spec_for_kind(config, k), mkt) for k in kinds]
    grid = TimeGrid(mkt.horizon, config.n_steps)
    result = run_ensemble(mkt, policies, PathEnsemble(config.seed, grid, mkt.firms, config.n_paths))
    summary = {
        "schema": SUMMARY_SCHEMA,
        "seed": config.seed,
        "n_paths": config.n_paths,
        "n_steps": config.n_steps,
        "unit_scale": config.unit_scale,
        "policies": {r.kind.value: _report_to_json(r) for r in result.reports},
    }
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"summary holds a non-finite number: {exc}") from exc

    described = [_describe(mkt, policy, grid) for policy in policies]
    loads = [load for run in described for load in (*run.cost_rows, *run.trajectory_rows)]
    totals = [load for run in described for load in run.totals]
    n_written = min(TRAJECTORY_PATH_CAP, config.n_paths)
    noise = generate_noise(config.seed, grid, mkt.firms, n_written, loads=loads, totals=totals)
    volume_scale = 1e-9 if config.unit_scale == "Gt" else 1.0
    header = f"# {TRAJECTORY_SCHEMA}\n" + ",".join(_TRAJECTORY_COLUMNS) + "\n"

    def files() -> Iterator[tuple[str, Iterable[str]]]:
        for policy in policies:
            rows = _trajectory_rows(simulate_policy_paths(policy, mkt, noise), noise, volume_scale)
            yield f"trajectory_{policy.kind.value}.csv", itertools.chain([header], rows)
        yield "summary.json", [text + "\n"]

    _write_outputs(out, files())
    return summary


def _require_out_dir(out_dir: str | Path) -> Path:
    """``out_dir`` as a Path, or a `ConfigError` when it cannot be made a
    directory: it, or the nearest of its parents that exists, is not one."""
    out = Path(out_dir)
    try:
        for path in (out, *out.parents):
            if path.exists():
                if not path.is_dir():
                    raise ConfigError(f"--out: {path} exists and is not a directory")
                break
    except OSError as exc:  # e.g. a parent that may not be searched
        raise ConfigError(f"--out: cannot inspect {out}: {exc}") from exc
    return out


def _write_outputs(out: Path, files: Iterable[tuple[str, Iterable[str]]]) -> None:
    """Make the directory ``out`` and write each (name, pieces) of ``files``
    into it, the file's text being its pieces in order.

    ``files`` and each file's pieces may be rendered as they are iterated,
    so that no file's whole text is held at once.  A failure, in a write
    or in rendering, removes every file written so far, a partly written
    one included, as far as it can; an `OSError` from making the directory
    or writing a file raises `ConfigError`.
    """
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, pieces in files:
            written.append(out / name)
            with written[-1].open("w", newline="") as file:
                file.writelines(pieces)
    except BaseException as exc:
        for path in written:
            with contextlib.suppress(OSError):  # the error that stopped the writes is raised
                path.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write the outputs to {out}: {exc}") from exc
        raise


def run_compare(
    config: ScenarioConfig, etas: list[float], out_dir: str | Path
) -> list[dict]:
    """Sweep the flexibility eta and tabulate all four policy costs.

    Closed forms for optimal/static/tax; Monte Carlo (with stderr) for the
    MSR.  The shocks do not depend on eta, so one path ensemble serves the
    whole sweep: each chunk's noise is drawn once and the etas' MSR runs
    step on it together, in stacks of at most (N+1) M // (M+1) runs
    through a rolling block of knots, and the rows share shocks path by
    path.  Writes ``sweep.csv``;
    returns the rows as dicts in eta order.  A non-finite row value raises
    `DomainError` and writes no file; ``out_dir`` is checked and written as
    in `run_simulate`.
    """
    out = _require_out_dir(out_dir)
    if not etas:
        raise ConfigError("compare needs at least one eta value")
    for e in etas:
        if not (math.isfinite(e) and e > 0.0):
            raise ConfigError(f"eta values must be finite and > 0, got {e}")
    mkt = config.market
    msr_spec = PolicySpec(kind=PolicyKind.MSR, delta=config.policy.delta)
    markets = [
        replace(mkt, firms=tuple(replace(fp, eta=float(eta)) for fp in mkt.firms))
        for eta in etas
    ]
    rows = []
    for eta, mkt_eta in zip(etas, markets):
        stat = static_policy(mkt_eta)
        rows.append(
            {
                "eta": float(eta),
                "cost_optimal": optimal_dynamic_policy(mkt_eta).cost,
                "cost_static": stat.cost,
                "cost_tax": tax_policy(mkt_eta).cost,
                "delta_stat": stat.delta_stat,
            }
        )
    msrs = [build_policy(msr_spec, mkt_eta) for mkt_eta in markets]
    grid = TimeGrid(mkt.horizon, config.n_steps)
    ensemble = PathEnsemble(config.seed, grid, mkt.firms, config.n_paths)
    runs = _simulate_runs(list(zip(markets, msrs)), ensemble)
    for row, msr, sample in zip(rows, msrs, runs):
        msr_report = cost_report_from_samples(msr, *sample)
        row["cost_msr"] = msr_report.mc_estimate
        row["mc_stderr_msr"] = msr_report.mc_stderr
    lines = [f"# {SWEEP_SCHEMA}", ",".join(_SWEEP_COLUMNS)]
    for row in rows:
        bad = [c for c in _SWEEP_COLUMNS if not math.isfinite(row[c])]
        if bad:
            raise DomainError(
                f"sweep row at eta {row['eta']:g} holds a non-finite {', '.join(bad)}"
            )
        lines.append(",".join(_fmt(row[c]) for c in _SWEEP_COLUMNS))
    _write_outputs(out, [("sweep.csv", ["\n".join(lines) + "\n"])])
    return rows


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permitsim",
        description="Simulate and compare dynamic allowance-allocation policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate policies and write trajectory tables")
    sim.add_argument("--config", required=True, help="JSON scenario file")
    sim.add_argument(
        "--policy",
        default=None,
        help="policy kind override; 'all' runs optimal_dynamic, static, msr, tax",
    )
    sim.add_argument("--out", required=True, help="output directory")
    _add_run_overrides(sim)

    cmp_ = sub.add_parser("compare", help="sweep eta and tabulate policy costs")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--etas", required=True, help="comma-separated eta values")
    cmp_.add_argument("--out", required=True)
    _add_run_overrides(cmp_)

    cal = sub.add_parser("calibrate-eta", help="invert the price QV law for eta")
    cal.add_argument("--qv", required=True, type=float, help="observed terminal QV, (euros/ton)^2")
    cal.add_argument("--sigma2", required=True, type=float, help="squared average-firm volatility, tons^2/year")
    cal.add_argument("--lambda", required=True, type=float, dest="lam", help="terminal penalty, euros/ton^2")
    cal.add_argument("--horizon", required=True, type=float, help="horizon T, years")
    return parser


def _add_run_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="override simulation.seed")
    sub.add_argument("--paths", type=int, default=None, help="override simulation.n_paths")
    sub.add_argument("--steps", type=int, default=None, help="override simulation.n_steps")


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        updates["seed"] = args.seed
    if args.paths is not None:
        if args.paths < 1:
            raise ConfigError(f"--paths must be >= 1, got {args.paths}")
        updates["n_paths"] = args.paths
    if args.steps is not None:
        if args.steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {args.steps}")
        updates["n_steps"] = args.steps
    return replace(config, **updates) if updates else config


def _parse_etas(text: str) -> list[float]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError as exc:
            raise ConfigError(f"--etas: cannot parse {token!r} as a number") from exc
    if not values:
        raise ConfigError("--etas: no values given")
    return values


def _calibrate_eta(args: argparse.Namespace) -> float:
    """`estimate_eta_from_qv` on the calibrate-eta flags, checked first.

    ``--qv`` must be finite (a finite value outside the feasible interval
    is a domain error, exit 3); ``--sigma2``, ``--lambda`` and ``--horizon``
    must be finite and > 0.  A non-finite result is a domain error.
    """
    if not math.isfinite(args.qv):
        raise ConfigError(f"--qv must be finite, got {args.qv}")
    for flag, value in (("--sigma2", args.sigma2), ("--lambda", args.lam), ("--horizon", args.horizon)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{flag} must be finite and > 0, got {value}")
    eta = estimate_eta_from_qv(args.qv, args.sigma2, args.lam, args.horizon)
    if not math.isfinite(eta):
        raise DomainError(f"calibrated eta is not finite: {eta}")
    return eta


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # an overflow, an invalid operation (inf - inf, 0 * inf) or a division
        # by zero is a numerical domain error, not a NaN for a later check
        # to trip over
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "simulate":
                config = _apply_overrides(load_config(args.config), args)
                if args.policy is None:
                    kinds = [config.policy.kind]
                elif args.policy == "all":
                    kinds = list(_STANDARD_KINDS)
                else:
                    try:
                        kinds = [PolicyKind(args.policy)]
                    except ValueError as exc:
                        raise ConfigError(
                            f"--policy: unknown kind {args.policy!r}; valid: "
                            f"{', '.join(k.value for k in PolicyKind)} or 'all'"
                        ) from exc
                run_simulate(config, args.out, kinds)
            elif args.command == "compare":
                config = _apply_overrides(load_config(args.config), args)
                run_compare(config, _parse_etas(args.etas), args.out)
            elif args.command == "calibrate-eta":
                print(_fmt(_calibrate_eta(args)))
            else:  # pragma: no cover - argparse enforces the choices
                raise ConfigError(f"unknown command {args.command!r}")
    except ArithmeticError as exc:
        print(f"error: numerical domain error: {exc}", file=sys.stderr)
        return DomainError.exit_code
    except MemoryError as exc:  # numpy refuses an array too large for the machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return DomainError.exit_code
    except PermitSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
