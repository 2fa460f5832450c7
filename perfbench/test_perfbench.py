"""Tests of the benchmark itself: metric names, tracing hygiene, output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import child  # noqa: E402
import permitsim.cli  # noqa: E402
import permitsim.equilibrium  # noqa: E402
import permitsim.policies  # noqa: E402
import permitsim.stochastic  # noqa: E402
from checks import run_problems, same_seed_problems  # noqa: E402
from run import END_TO_END_UNITS, load_reference, summarize  # noqa: E402
from tracing import LAYER_TARGETS, LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, log_spaced  # noqa: E402

TINY_SIMULATE = Workload("tiny-simulate", "simulate", n_paths=20, n_steps=10)
TINY_COMPARE = Workload(
    "tiny-compare", "compare", n_paths=20, n_steps=10, etas=log_spaced(7.0, 8.0, 2)
)


def _benchmark_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _run(workload: Workload, tmp_path: Path, name: str, trace=False, memory=False, seed=3):
    spec = {"seed": seed, "out": str(tmp_path / name), "trace": trace, "memory": memory}
    record = child.run(workload, spec)
    record.update(role="measured", seed=seed, trace=trace, memory=memory, problems=[])
    return record


@pytest.fixture(scope="module")
def simulate_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("simulate")
    return [
        _run(TINY_SIMULATE, tmp, "plain"),
        _run(TINY_SIMULATE, tmp, "traced", trace=True),
        _run(TINY_SIMULATE, tmp, "memory", trace=True, memory=True),
    ]


def test_code_and_benchmark_json_name_the_same_metrics():
    assert END_TO_END_UNITS == _benchmark_units("end_to_end")
    assert LAYER_UNITS == _benchmark_units("per_layer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_emitted_metric_is_declared_with_its_unit(simulate_runs, trace):
    result = summarize(simulate_runs, TINY_SIMULATE, trace)
    declared = _benchmark_units("per_layer" if trace else "end_to_end")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrappers_are_removed_after_a_traced_run(simulate_runs):
    for target in LAYER_TARGETS:
        fn = getattr(sys.modules[target.module], target.attr)
        assert not hasattr(fn, "__wrapped__"), f"{target.module}.{target.attr} still wrapped"


def test_wrappers_are_removed_when_the_run_raises():
    originals = {t: getattr(sys.modules[t.module], t.attr) for t in LAYER_TARGETS}
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed(LAYER_TARGETS):
            1 / 0
    for t, fn in originals.items():
        assert getattr(sys.modules[t.module], t.attr) is fn


def test_traced_outputs_equal_untraced_outputs(simulate_runs):
    plain, traced, memory = simulate_runs
    assert same_seed_problems(traced, plain) == []
    assert same_seed_problems(memory, plain) == []


def test_self_times_account_for_the_traced_wall_time(simulate_runs):
    layers = simulate_runs[1]["layers"]
    # the root span opens a few microseconds before the timed call, which
    # is visible on a run this small
    assert layers["trace.self_time_share"] == pytest.approx(1.0, abs=1e-2)
    chunks = layers["policies.simulate_policy_paths.static.chunks"]
    n_firms = len(permitsim.cli.PRESETS["paper-2020-base"]["firms"])
    assert layers["firm.best_response_frictionless.calls"] == chunks * 2 * n_firms
    assert layers["stochastic.noise_regen_ratio"] == 1.0
    assert simulate_runs[2]["layers"]["equilibrium.equilibrium_frictionless.peak_alloc_mb"] > 0


def test_memory_spans_cannot_nest():
    tracer = Tracer(memory=True)
    with pytest.raises(RuntimeError):
        with tracer.span("outer", memory=True), tracer.span("inner", memory=True):
            pass


def test_compare_regenerates_noise_per_eta(tmp_path):
    layers = _run(TINY_COMPARE, tmp_path, "traced", trace=True)["layers"]
    assert layers["stochastic.noise_regen_ratio"] == len(TINY_COMPARE.etas)
    assert layers["equilibrium.equilibrium_frictionless.calls"] == 0


@pytest.mark.parametrize("workload", [TINY_SIMULATE, TINY_COMPARE])
def test_output_check_fails_on_a_perturbed_reference(tmp_path, workload):
    reference = _run(workload, tmp_path, "reference")["outputs"]
    record = _run(workload, tmp_path, "again")
    assert run_problems(record, reference, same_seed=True) == []

    perturbed = copy.deepcopy(reference)
    if "rows" in perturbed:
        perturbed["rows"][0]["cost_msr"] *= 1.0 + 1e-6
    else:
        perturbed["policies"]["msr"]["mc_estimate"] *= 1.0 + 1e-6
    problems = run_problems(record, perturbed, same_seed=True)
    assert problems

    record["problems"] = problems
    result = summarize([record, _run(workload, tmp_path, "third")], workload, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_output_check_rejects_non_finite_files(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text('{"cost": NaN}\n')
    (out / "sweep.csv").write_text("# sweep.v1\neta,cost\n1e6,inf\n")
    files, _ = child.describe_outputs(out)
    assert not files["summary.json"]["finite"]
    assert not files["sweep.csv"]["finite"]


def test_reference_matches_the_workloads():
    for workload in WORKLOADS.values():
        assert load_reference(workload)["params"] == workload.params()


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-eta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
