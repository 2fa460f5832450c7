"""Output checks applied to every benchmark run.

A run passes when all of these hold:

* every number in every output file is finite;
* the closed-form identity C_static - C_optimal = delta_stat holds to
  ``CLOSED_FORM_RTOL`` of C_static (per eta row for a sweep);
* closed forms (seed-independent) match the recorded reference to
  ``CLOSED_FORM_RTOL``;
* Monte Carlo cost means match the reference to ``SAME_SEED_RTOL`` when the
  run used the reference seed, and otherwise lie within ``CROSS_SEED_Z``
  combined standard errors of it;
* runs with the same seed wrote byte-identical files (``same_seed_problems``).

The tolerances: ``CLOSED_FORM_RTOL`` is the identity tolerance
``compare_policies`` uses.  ``SAME_SEED_RTOL`` is far above the roundoff of
a reordered sum over 10^3..10^4 paths (~1e-13 relative) and far below one
Monte Carlo standard error (~1e-2 relative), so a speed-up that reorders
arithmetic passes and one that moves an estimate fails.  ``CROSS_SEED_Z``
makes a false alarm on a correct program rarer than 1e-6 per comparison.
"""

from __future__ import annotations

import math

CLOSED_FORM_RTOL = 1e-12
SAME_SEED_RTOL = 1e-9
CROSS_SEED_Z = 6.0

_CLOSED_FORM_COLUMNS = ("eta", "cost_optimal", "cost_static", "cost_tax", "delta_stat")


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def _mc_close(mean: float, se: float, ref_mean: float, ref_se: float, same_seed: bool) -> bool:
    if same_seed:
        return _close(mean, ref_mean, SAME_SEED_RTOL)
    allowed = CROSS_SEED_Z * math.hypot(se, ref_se) + SAME_SEED_RTOL * abs(ref_mean)
    return abs(mean - ref_mean) <= allowed


def _identity_problem(label: str, c_static: float, c_opt: float, delta_stat: float) -> list[str]:
    gap = abs((c_static - c_opt) - delta_stat)
    if gap > CLOSED_FORM_RTOL * abs(c_static):
        return [f"{label}: C_static - C_optimal deviates from delta_stat by {gap:g}"]
    return []


def _simulate_problems(outputs: dict, ref: dict, same_seed: bool) -> list[str]:
    problems = []
    pol, ref_pol = outputs["policies"], ref["policies"]
    if sorted(pol) != sorted(ref_pol):
        return [f"policies {sorted(pol)} differ from reference {sorted(ref_pol)}"]
    for kind, r in ref_pol.items():
        got = pol[kind]
        if (got["closed_form"] is None) != (r["closed_form"] is None) or (
            r["closed_form"] is not None
            and not _close(got["closed_form"], r["closed_form"], CLOSED_FORM_RTOL)
        ):
            problems.append(f"{kind}: closed form {got['closed_form']!r} != {r['closed_form']!r}")
        if not _mc_close(
            got["mc_estimate"], got["mc_stderr"], r["mc_estimate"], r["mc_stderr"], same_seed
        ):
            problems.append(
                f"{kind}: Monte Carlo mean {got['mc_estimate']!r} vs reference "
                f"{r['mc_estimate']!r} (se {got['mc_stderr']:.3g}, same seed: {same_seed})"
            )
    if not _close(outputs["delta_stat"], ref["delta_stat"], CLOSED_FORM_RTOL):
        problems.append(f"delta_stat {outputs['delta_stat']!r} != {ref['delta_stat']!r}")
    problems += _identity_problem(
        "simulate",
        pol["static"]["closed_form"],
        pol["optimal_dynamic"]["closed_form"],
        outputs["delta_stat"],
    )
    return problems


def _compare_problems(outputs: dict, ref: dict, same_seed: bool) -> list[str]:
    rows, ref_rows = outputs["rows"], ref["rows"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} sweep rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, r) in enumerate(zip(rows, ref_rows)):
        for col in _CLOSED_FORM_COLUMNS:
            if not _close(row[col], r[col], CLOSED_FORM_RTOL):
                problems.append(f"row {i}: {col} {row[col]!r} != {r[col]!r}")
        if not _mc_close(
            row["cost_msr"], row["mc_stderr_msr"], r["cost_msr"], r["mc_stderr_msr"], same_seed
        ):
            problems.append(
                f"row {i}: cost_msr {row['cost_msr']!r} vs reference {r['cost_msr']!r} "
                f"(se {row['mc_stderr_msr']:.3g}, same seed: {same_seed})"
            )
        problems += _identity_problem(
            f"row {i}", row["cost_static"], row["cost_optimal"], row["delta_stat"]
        )
    return problems


def run_problems(record: dict, reference: dict, same_seed: bool) -> list[str]:
    """Everything wrong with one run's outputs; empty when it passes."""
    problems = [
        f"{name}: non-finite value" for name, f in record["files"].items() if not f["finite"]
    ]
    outputs = record["outputs"]
    if "rows" in outputs:
        return problems + _compare_problems(outputs, reference, same_seed)
    return problems + _simulate_problems(outputs, reference, same_seed)


def same_seed_problems(record: dict, first: dict) -> list[str]:
    """Files that differ from those of an earlier run with the same seed."""
    files, first_files = record["files"], first["files"]
    if sorted(files) != sorted(first_files):
        return [f"wrote {sorted(files)}, an earlier same-seed run wrote {sorted(first_files)}"]
    return [
        f"{name} differs from an earlier run with the same seed"
        for name in files
        if files[name]["sha256"] != first_files[name]["sha256"]
    ]
