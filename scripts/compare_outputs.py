#!/usr/bin/env python3
"""Compare permitsim's output files with those of a base revision.

Runs one matrix of `simulate` and `compare` cases on this checkout, with
its uncommitted changes, and on a base revision, which is checked out with
`git worktree` into a temporary directory and removed afterwards.  Each
case runs in a fresh ``python -m permitsim.cli`` process on the
``paper-2020-base`` preset, under all four standard policies or under a
custom martingale policy.  For every output file it prints "identical",
or the largest relative difference |a - b| / max(|a|, |b|) of each column
(CSV) or field (JSON) that differs.

    python scripts/compare_outputs.py --base HEAD~1

Exits 0 when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

#: The simulation seed of every case.
SEED = 4242

#: The 13 etas of the `sweep-eta` benchmark workload: 1e6 to 1e9, log spaced.
ETAS = ",".join(repr(10.0 ** (6.0 + 0.25 * i)) for i in range(13))

#: The config files the cases run on, by file name: the preset, and the preset
#: under a custom martingale policy whose loadings track no firm's shock
#: (gamma = 5e7 on the common driver and 2e7 on the firm's own), so that its
#: price, trading and penalty move on every path.
CONFIGS = {
    "preset.json": {"preset": "paper-2020-base"},
    "custom.json": {
        "preset": "paper-2020-base",
        "policy": {
            "kind": "custom_martingale",
            "target_compliance": False,
            "m0": [-7e8] * 6,
            "gamma": [[5e7, *(2e7 if j == i else 0.0 for j in range(6))] for i in range(6)],
        },
    },
}

#: (case name, config file, subcommand arguments), each run with ``--config``,
#: ``--seed`` and ``--out``.
CASES = [
    (f"{name}-{paths}x{steps}", config, [*command, "--paths", str(paths), "--steps", str(steps)])
    for name, config, command, shapes in (
        (
            "simulate",
            "preset.json",
            ["simulate", "--policy", "all"],
            # 287 = 256 + 31 paths: the tail chunk ends on a one-path row block
            ((1024, 2000), (20000, 50), (287, 2000), (8, 2000), (9, 1)),
        ),
        ("custom", "custom.json", ["simulate"], ((3000, 50), (300, 2000))),
        ("compare", "preset.json", ["compare", "--etas", ETAS], ((1000, 300), (257, 2000))),
    )
    for paths, steps in shapes
]


def relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values (two NaNs included), inf
    when only one is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _cell_difference(a, b) -> float:
    """The relative difference of two numbers, or 0/inf for equal/unequal other values."""
    try:
        return relative_difference(float(a), float(b))
    except (TypeError, ValueError):
        return 0.0 if a == b else math.inf


def _csv_columns(text: str) -> tuple[list[str], list[list[str]]]:
    """The header and the data rows of a CSV table, '#' comment lines skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header, *rows = (line.split(",") for line in lines)
    return header, rows


def _json_leaves(value, prefix: str = "") -> dict[str, object]:
    """Every leaf of a JSON value, keyed by its dotted path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    leaves = {}
    for key, item in items:
        leaves.update(_json_leaves(item, f"{prefix}.{key}" if prefix else str(key)))
    return leaves


def column_differences(base: Path, change: Path) -> dict[str, float]:
    """The largest relative difference per CSV column or JSON field that differs.

    Raises ValueError when the two files do not have the same columns, rows
    or fields, so that no difference can be given per column.
    """
    if base.suffix == ".json":
        a, b = (_json_leaves(json.loads(path.read_text())) for path in (base, change))
        if a.keys() != b.keys():
            raise ValueError(f"fields differ: {sorted(a.keys() ^ b.keys())}")
        diffs = {key: _cell_difference(a[key], b[key]) for key in a}
    else:
        (head_a, rows_a), (head_b, rows_b) = (
            _csv_columns(path.read_text()) for path in (base, change)
        )
        if head_a != head_b or len(rows_a) != len(rows_b):
            raise ValueError(
                f"{len(rows_a)} rows of {head_a} against {len(rows_b)} rows of {head_b}"
            )
        diffs = dict.fromkeys(head_a, 0.0)
        for row_a, row_b in zip(rows_a, rows_b):
            if len(row_a) != len(head_a) or len(row_b) != len(head_a):
                raise ValueError("a row has the wrong number of cells")
            for name, x, y in zip(head_a, row_a, row_b):
                diffs[name] = max(diffs[name], _cell_difference(x, y))
    return {name: diff for name, diff in diffs.items() if diff != 0.0}


def compare_file(base: Path, change: Path) -> str:
    """"identical", or what differs between two output files of one name."""
    if base.read_bytes() == change.read_bytes():
        return "identical"
    try:
        diffs = column_differences(base, change)
    except ValueError as exc:
        return f"differs: {exc}"
    if not diffs:  # e.g. 0.0 against -0.0, or another spelling of one number
        return "differs in text only"
    return "differs: " + ", ".join(f"{name} {diff:.3g}" for name, diff in diffs.items())


def compare_trees(base: Path, change: Path) -> list[tuple[str, str]]:
    """(relative path, `compare_file` verdict) of every file under either directory."""
    names = sorted(
        {
            path.relative_to(root).as_posix()
            for root in (base, change)
            for path in root.rglob("*")
            if path.is_file()
        }
    )
    verdicts = []
    for name in names:
        a, b = base / name, change / name
        if not a.is_file() or not b.is_file():
            verdicts.append((name, f"only in {'the change' if b.is_file() else 'the base'}"))
        else:
            verdicts.append((name, compare_file(a, b)))
    return verdicts


@contextlib.contextmanager
def base_worktree(checkout: Path, rev: str, tmp: Path) -> Iterator[Path]:
    """``rev`` of the repository at ``checkout``, checked out with `git
    worktree` under ``tmp`` and removed again when the block exits."""
    worktree = tmp / "base-tree"
    git = ["git", "-C", str(checkout)]
    subprocess.run([*git, "worktree", "add", "--detach", str(worktree), rev], check=True)
    try:
        yield worktree
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", str(worktree)], check=True)


def _run_cases(tree: Path, out: Path) -> None:
    """Every case of the matrix on the sources of ``tree``, written under ``out``."""
    out.mkdir(parents=True)
    for config, scenario in CONFIGS.items():
        (out / config).write_text(json.dumps(scenario) + "\n")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, config, args in CASES:
        command = [sys.executable, "-m", "permitsim.cli", *args]
        command += ["--config", str(out / config), "--seed", str(SEED), "--out", str(out / name)]
        subprocess.run(command, env=env, check=True)
    for config in CONFIGS:
        (out / config).unlink()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--base", default="HEAD", help="git revision to compare with (default HEAD)")
    args = ap.parse_args(argv)

    checkout = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory(prefix="permitsim-compare-") as tmp:
        tmp = Path(tmp)
        with base_worktree(checkout, args.base, tmp) as worktree:
            _run_cases(worktree, tmp / "base")
        _run_cases(checkout, tmp / "change")
        verdicts = compare_trees(tmp / "base", tmp / "change")
    for name, verdict in verdicts:
        print(f"{name}: {verdict}")
    return 0 if all(verdict == "identical" for _, verdict in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
