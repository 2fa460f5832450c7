#!/usr/bin/env python3
"""Compare perfbench's end-to-end metrics with those of a base revision.

The base revision is checked out with `git worktree` into a temporary
directory (`compare_outputs.base_worktree`) and removed afterwards.  For
each workload, single ``perfbench/child.py`` runs of the base and of this
checkout, with its uncommitted changes, alternate one at a time: one run
per side and pair, the base first in odd pairs and the checkout first in
even ones.  Each side runs its own child with ``PYTHONPATH`` at its own
``src`` and numpy's BLAS/OpenMP threads capped at one, as
``perfbench/run.py`` caps them.  The two runs of a pair must write files
of equal sha256, except the files named with ``--moved``: a change that
moves output bytes on purpose declares them, and such a file may differ
when the change's run passes perfbench's checks against the parent's
outputs at the same seed (``perfbench/checks.run_problems``).

Writes ``bench/BENCH_<name>_pairs.json``: every run's metrics and, per
workload and end-to-end metric of ``BENCHMARK.json``, the change's wins
over the pairs, both sides' quartiles, the base's interquartile range,
the median gap (positive when the change's median is better) and the
change's median relative to the base's.

    python scripts/compare_metrics.py --base HEAD~1 --pairs 10 --seed 7919 --name my_change
    python scripts/compare_metrics.py --base HEAD~1 --seed 7919 --name my_change \
        --moved summary.json --moved trajectory_static.csv

Exits 0 once the record is written, and 1 when a run fails, or the two runs
of a pair write different files other than declared ones, or a declared
file moves and the change's numbers fail the checks.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_outputs import base_worktree

CHECKOUT = Path(__file__).resolve().parents[1]

#: The thread-pool variables of numpy's BLAS/OpenMP back ends that
#: perfbench/run.py caps at one thread in every child.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _perfbench(name: str):
    """This checkout's ``perfbench/<name>.py``, loaded once."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, CHECKOUT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # where its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[key]


def _workloads() -> dict:
    """perfbench's workloads, from this checkout's ``perfbench/workloads.py``."""
    return _perfbench("workloads").WORKLOADS


def _gain(better: str, parent: float, change: float) -> float:
    """How much better ``change`` reads than ``parent``: positive when better."""
    return parent - change if better == "lower" else change - parent


def summarize_metric(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's summary over pairs: ``parent[i]`` and ``change[i]`` are pair i's runs."""
    parent_q = statistics.quantiles(parent, n=4)
    change_q = statistics.quantiles(change, n=4)
    return {
        "pairs": len(parent),
        "change_wins": sum(_gain(better, a, b) > 0 for a, b in zip(parent, change)),
        "parent_q1_median_q3": parent_q,
        "change_q1_median_q3": change_q,
        "parent_iqr": parent_q[2] - parent_q[0],
        "median_gap": _gain(better, parent_q[1], change_q[1]),
        "median_change_rel": (change_q[1] - parent_q[1]) / parent_q[1],
        "every_change_run_better": all(_gain(better, a, b) > 0 for a in parent for b in change),
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric (``better`` maps each name to "lower" or
    "higher"), the `summarize_metric` of the runs, in pair order."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sides = {
            side: sorted(
                (r for r in runs if r["workload"] == workload and r["side"] == side),
                key=lambda r: r["pair"],
            )
            for side in ("parent", "change")
        }
        if [r["pair"] for r in sides["parent"]] != [r["pair"] for r in sides["change"]]:
            raise ValueError(f"{workload}: the two sides' runs do not make pairs")
        summary[workload] = {
            metric: summarize_metric(
                *([r["metrics"][metric] for r in sides[side]] for side in ("parent", "change")),
                direction,
            )
            for metric, direction in better.items()
        }
    return summary


def output_digests(record: dict) -> dict[str, str]:
    """A child record's sha256 per output file."""
    return {name: file["sha256"] for name, file in record["files"].items()}


def pair_problems(parent: dict, change: dict, moved: frozenset[str]) -> tuple[list[str], list[str]]:
    """The output files whose sha256 differ between a pair's two child
    records, and what is wrong with the pair: a differing file not in
    ``moved``, or, when a declared file differs, the change's numbers
    failing perfbench's same-seed checks against the parent's outputs."""
    before, after = output_digests(parent), output_digests(change)
    differ = sorted(name for name in {*before, *after} if before.get(name) != after.get(name))
    undeclared = [name for name in differ if name not in moved]
    if undeclared:
        return differ, [f"the two sides' output files differ: {', '.join(undeclared)}"]
    if differ:
        return differ, _perfbench("checks").run_problems(change, parent["outputs"], same_seed=True)
    return differ, []


def _child_run(tree: Path, workload: str, seed: int, out: Path) -> dict:
    """One untraced ``perfbench/child.py`` run of ``tree``'s sources."""
    spec = {"workload": workload, "seed": seed, "out": str(out), "trace": False, "memory": False}
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    command = [sys.executable, str(tree / "perfbench" / "child.py"), json.dumps(spec)]
    proc = subprocess.run(command, env=env, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _run_pair(
    trees: dict[str, Path],
    workload,
    pair: int,
    seed: int,
    tmp: Path,
    moved: frozenset[str] = frozenset(),
) -> list[dict]:
    """Pair ``pair``'s two runs of ``workload``, the parent's first in odd pairs;
    exits on `pair_problems`.  The change's run lists the files that moved."""
    order = ("parent", "change") if pair % 2 else ("change", "parent")
    runs, records = [], {}
    for side in order:
        out = tmp / f"{workload.name}-{pair}-{side}"
        records[side] = record = _child_run(trees[side], workload.name, seed, out)
        shutil.rmtree(out)
        values = {m: record[m] for m in ("wall_s", "peak_rss_mb", "setup_s")}
        values["path_steps_per_s"] = workload.path_steps / record["wall_s"]
        runs.append(dict(workload=workload.name, pair=pair, seed=seed, side=side, metrics=values))
        print(f"{workload.name} pair {pair} {side}: {values}", flush=True)
    differ, problems = pair_problems(records["parent"], records["change"], moved)
    if problems:
        raise SystemExit(f"{workload.name} pair {pair}: {'; '.join(problems)}")
    for run in runs:
        if run["side"] == "change":
            run["moved"] = differ
    return runs


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--base", required=True, help="git revision to compare with")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload (at least 2)")
    ap.add_argument("--seed", type=int, required=True, help="the workloads' config seed")
    ap.add_argument("--name", required=True, help="writes bench/BENCH_<name>_pairs.json")
    workloads = _workloads()
    ap.add_argument(
        "--workload", action="append", choices=[*workloads], help="a workload (default: all)"
    )
    ap.add_argument("--what", default="", help="what the change does, for the record")
    ap.add_argument(
        "--moved", action="append", default=[], metavar="NAME",
        help="an output file the change moves on purpose (repeatable); it may differ "
        "within a pair when the change's numbers pass perfbench's same-seed checks",
    )
    args = ap.parse_args(argv)
    names = args.workload or [*workloads]
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, so that each side has quartiles")
    benchmark = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    base_sha = subprocess.run(
        ["git", "-C", str(CHECKOUT), "rev-parse", args.base],
        capture_output=True, text=True, check=True,
    ).stdout.strip()

    runs = []
    with tempfile.TemporaryDirectory(prefix="permitsim-metrics-") as tmp:
        tmp = Path(tmp)
        with base_worktree(CHECKOUT, args.base, tmp) as worktree:
            trees = {"parent": worktree, "change": CHECKOUT}
            for name in names:
                for pair in range(1, args.pairs + 1):
                    runs += _run_pair(
                        trees, workloads[name], pair, args.seed, tmp, frozenset(args.moved)
                    )

    record = {
        "what": args.what,
        "base": {"revision": args.base, "commit": base_sha},
        "command": (
            "python3 perfbench/child.py '{\"workload\": <w>, \"seed\": <s>, \"out\": <tmp>, "
            "\"trace\": false, \"memory\": false}' in each side's own directory, "
            "PYTHONPATH=<side>/src, BLAS/OpenMP threads capped at 1 as perfbench/run.py caps "
            "them; one child run per side and pair (scripts/compare_metrics.py)"
        ),
        "order": (
            f"single child runs alternated one at a time (odd pairs: parent first, even "
            f"pairs: change first); seed {args.seed}; every pair's output files had equal "
            f"sha256 on both sides, but the declared moved files, which may differ when the "
            f"change's run passes perfbench/checks.run_problems against the parent's outputs "
            f"at the same seed (each change run lists the files that moved)"
        ),
        "moved": sorted(args.moved),
        "machine": {
            "cpus": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "definitions": (
            "per metric: change_wins counts the pairs whose change run reads better than its "
            "parent run (ties count for neither); quartiles are statistics.quantiles(n=4); "
            "median_gap is how much better the change's median reads than the parent's "
            "(positive when better); median_change_rel is (change median - parent median) / "
            "parent median"
        ),
        "summary": summarize(runs, better),
        "runs": runs,
    }
    path = CHECKOUT / "bench" / f"BENCH_{args.name}_pairs.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(CHECKOUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
