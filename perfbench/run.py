"""permitsim benchmark: times the CLI subcommand functions end to end, one process per run.

    python3 perfbench/run.py --workload simulate-all --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the program is ``src/permitsim``
next to this directory, imported from source.  One invocation:

1. makes one warm-up run on the reference seed, which is checked against
   ``reference.json`` at same-seed tolerance and not timed;
2. makes measured runs with config seed ``--seed`` for ``--seconds`` (at
   least ``MIN_RUNS``), each in a fresh process so that its set-up time and
   peak RSS are its own.  With ``--trace 1`` the runs cycle through untraced,
   traced, and traced with tracemalloc; the per-layer metrics come from the
   traced run of median wall time, the allocation peaks from the
   tracemalloc runs, and the tracing overhead is the traced median wall
   time minus the untraced one.

Every run's outputs are checked (``checks.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).  A full
record, spans included, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import run_problems, same_seed_problems
from tracing import LAYER_UNITS
from workloads import REFERENCE_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "_work"

MIN_RUNS = 3
CHILD_TIMEOUT_S = 150

#: End-to-end metric name -> unit, as listed in BENCHMARK.json.
END_TO_END_UNITS = {
    "wall_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Thread pools of numpy's BLAS/OpenMP back ends, capped in every child so
#: that runs do not depend on how many threads a library picks.
THREAD_CAP = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: str(THREAD_CAP) for var in _THREAD_VARS})
    return env


def spawn(spec: dict, env: dict) -> dict:
    """Run ``child.py`` with ``spec``; return its record or ``{"error": ...}``."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(workload: Workload) -> dict:
    refs = json.loads((BENCH_DIR / "reference.json").read_text())
    ref = refs[workload.name]
    if ref["params"] != workload.params():
        raise SystemExit(
            f"reference.json for {workload.name} was recorded for other parameters; "
            "re-record it with perfbench/record_reference.py on the reference commit"
        )
    return ref


def machine_facts(numpy_version: str | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_cap": THREAD_CAP,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def git_revision() -> str | None:
    """HEAD's commit id read from ``.git``, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "permitsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Invocation:
    """The runs of one benchmark invocation and their checks."""

    def __init__(self, workload: Workload, reference: dict, tmp: Path) -> None:
        self.workload = workload
        self.reference = reference
        self.tmp = tmp
        self.env = child_env()
        self.runs: list[dict] = []
        self._first_by_seed: dict[int, dict] = {}

    def run(self, role: str, seed: int, trace: bool = False, memory: bool = False) -> None:
        out = self.tmp / f"run{len(self.runs)}"
        spec = {
            "workload": self.workload.name,
            "seed": seed,
            "out": str(out),
            "trace": trace,
            "memory": memory,
        }
        record = spawn(spec, self.env)
        record.update(role=role, seed=seed, trace=trace, memory=memory)
        if "error" in record:
            record["problems"] = [record["error"]]
        else:
            record["problems"] = run_problems(record, self.reference, seed == REFERENCE_SEED)
            first = self._first_by_seed.setdefault(seed, record)
            if first is not record:
                record["problems"] += same_seed_problems(record, first)
        self.runs.append(record)


def median_run(runs: list[dict]) -> dict:
    """The run of median wall time (the lower middle one for an even count)."""
    ordered = sorted(runs, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def summarize(runs: list[dict], workload: Workload, trace: bool) -> dict:
    """The result line: correctness, counts and metrics of the passing runs."""
    failed = [r for r in runs if r["problems"]]
    ok = [r for r in runs if not r["problems"]]
    measured = [r for r in ok if r["role"] == "measured"]
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {},
    }
    if trace:
        untraced = [r for r in measured if not r["trace"]]
        traced = [r for r in measured if r["trace"] and not r["memory"]]
        memory = [r for r in measured if r["memory"]]
        if not (untraced and traced and memory):
            return result
        layers = dict(median_run(traced)["layers"])
        layers.update(
            (name, value)
            for name, value in median_run(memory)["layers"].items()
            if name.endswith(".peak_alloc_mb")
        )
        layers["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced
        ) - statistics.median(r["wall_s"] for r in untraced)
        result["metrics"] = {
            name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()
        }
        return result
    if not measured:
        return result
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in measured),
        "path_steps_per_s": statistics.median(
            workload.path_steps / r["wall_s"] for r in measured
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
        "setup_s": statistics.median(r["setup_s"] for r in measured),
    }
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
    }
    return result


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, tmp: Path
) -> Invocation:
    invocation = Invocation(workload, load_reference(workload), tmp)
    invocation.run("warmup", REFERENCE_SEED)
    start = time.perf_counter()
    count = 0
    last = 0.0
    # stop before a run that would end after ``seconds``
    while count < MIN_RUNS or time.perf_counter() - start + last <= seconds:
        # with tracing: untraced, traced, traced with memory, and again
        phase = count % 3 if trace else 0
        began = time.perf_counter()
        invocation.run("measured", seed, trace=phase > 0, memory=phase == 2)
        last = time.perf_counter() - began
        count += 1
    return invocation


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "permitsim" / "__init__.py").is_file():
        print(f"error: no permitsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        invocation = measure(workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    runs = invocation.runs
    result = summarize(runs, workload, bool(args.trace))

    numpy_version = next((r["numpy"] for r in runs if "numpy" in r), None)
    record = {
        "workload": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(numpy_version),
        "result": result,
        "error_rate": result["failed"] / result["attempted"],
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
    }
    if args.trace and result["metrics"]:
        traced = [r for r in runs if r.get("trace") and not r["memory"] and not r["problems"]]
        record["spans"] = median_run(traced)["spans"]
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for r in runs:
        if r["problems"]:
            print(f"failed {r['role']} run: {'; '.join(r['problems'])}", file=sys.stderr)
    print(
        f"{workload.name}: {result['attempted']} runs, error rate "
        f"{record['error_rate']:.3f}; record in {out.relative_to(ROOT)}",
        file=sys.stderr,
    )
    if not result["metrics"]:
        print("error: no run passed its checks; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
