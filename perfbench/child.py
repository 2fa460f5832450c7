"""One measured benchmark run, in a process of its own.

    python3 perfbench/child.py '{"workload": "simulate-all", "seed": 7,
                                 "out": "dir", "trace": false, "memory": false}'

The run sets up, then makes one call into the CLI function the workload
names, writing into ``out``.  ``trace`` installs the layer wrappers and
``memory`` makes them trace allocations too.  The
process prints one JSON line: set-up and run times, its own peak RSS, the
outputs the run wrote and, when traced, the per-layer metrics and spans.
``permitsim`` must be importable (``PYTHONPATH=src``).

Set-up is everything before the first chunk: importing permitsim, building
the scenario and building each simulated policy (its closed forms).
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS, Workload

_TRAJECTORY_VALUE_COLUMNS = 5  # every trajectory.v1 column but path_id and t


def _setup(workload: Workload, seed: int):
    start = time.perf_counter()
    from permitsim import cli, policies

    config = cli.build_scenario(workload.config(seed))
    built = {
        kind: policies.build_policy(
            policies.PolicySpec(kind=kind, delta=config.policy.delta), config.market
        )
        for kind in workload.simulated_kinds
    }
    return config, built, time.perf_counter() - start


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _csv_finite(text: str) -> tuple[bool, int]:
    """Whether every numeric field is finite, and the number of data rows."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = lines[1:]  # the first line is the column header
    finite = all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    return finite, len(rows)


def describe_outputs(out: Path) -> tuple[dict, int]:
    """Per-file size, sha256 and finiteness; trajectory elements written."""
    files = {}
    written = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            finite = _all_finite(json.loads(data, parse_constant=lambda c: math.nan))
        else:
            finite, rows = _csv_finite(data.decode())
            if path.name.startswith("trajectory_"):
                written += rows * _TRAJECTORY_VALUE_COLUMNS
        files[path.name] = {
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "finite": finite,
        }
    return files, written


def _gap_in_se(report: dict) -> float | None:
    """|MC - closed form| in standard errors, as ``CostReport.gap_in_se``."""
    cf, mc, se = report["closed_form"], report["mc_estimate"], report["mc_stderr"]
    if cf is None:
        return None
    if se == 0.0:
        return 0.0 if mc == cf else math.inf
    return abs(mc - cf) / se


def run(workload: Workload, spec: dict) -> dict:
    """Carry out ``spec`` (seed, out, trace, memory) for ``workload``."""
    config, built, setup_s = _setup(workload, spec["seed"])

    import numpy as np
    from permitsim import cli
    from permitsim.policies import PolicyKind

    from tracing import LAYER_TARGETS, ROOT_SPANS, Tracer, layer_metrics

    out = Path(spec["out"])

    def call():
        if workload.command == "simulate":
            return cli.run_simulate(config, out, [PolicyKind(k) for k in workload.kinds])
        return cli.run_compare(config, list(workload.etas), out)

    tracer = Tracer(memory=spec["memory"]) if spec["trace"] else None
    if tracer is None:
        start = time.perf_counter()
        result = call()
        wall_s = time.perf_counter() - start
    else:
        with tracer.installed(LAYER_TARGETS), tracer.span(ROOT_SPANS[workload.command]):
            start = time.perf_counter()
            result = call()
            wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    files, written = describe_outputs(out)
    if workload.command == "simulate":
        policies = {
            kind: {
                key: report[key]
                for key in ("closed_form", "mc_estimate", "mc_stderr", "consistent")
            }
            | {"gap_in_se": _gap_in_se(report)}
            for kind, report in result["policies"].items()
        }
        outputs = {"policies": policies, "delta_stat": built["static"].delta_stat}
    else:
        outputs = {"rows": result}
    record = dict(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        numpy=np.__version__,
        files=files,
        outputs=outputs,
    )
    if tracer is not None:
        record["layers"] = layer_metrics(
            tracer, wall_s, written, sum(f["bytes"] for f in files.values())
        )
        record["spans"] = [asdict(s) for s in tracer.spans]
    return record


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print(json.dumps(run(WORKLOADS[spec["workload"]], spec)))
