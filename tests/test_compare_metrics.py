"""The pairs summary of scripts/compare_metrics.py, on synthetic run records:
no worktree and no child runs."""

import importlib
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def compare_metrics():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(_SCRIPTS))
        yield importlib.import_module("compare_metrics")


def _runs(workload, parent, change):
    """Run records of pairs 1, 2, ...: ``parent[i]`` and ``change[i]`` are
    pair i+1's metrics, the change's listed first in even pairs."""
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change), 1):
        sides = [("parent", a), ("change", b)]
        for side, metrics in sides if pair % 2 else sides[::-1]:
            runs.append(dict(workload=workload, pair=pair, seed=7, side=side, metrics=metrics))
    return runs


def test_the_summary_counts_wins_in_each_metrics_direction(compare_metrics):
    wall = ([1.0, 1.2, 0.9, 1.1, 1.0], [0.8, 1.3, 0.9, 1.0, 0.7])
    rate = ([10.0, 11.0, 12.0, 13.0, 14.0], [20.0, 21.0, 22.0, 23.0, 24.0])
    runs = _runs(
        "sim",
        [{"wall_s": w, "rate": r} for w, r in zip(wall[0], rate[0])],
        [{"wall_s": w, "rate": r} for w, r in zip(wall[1], rate[1])],
    )
    summary = compare_metrics.summarize(runs, {"wall_s": "lower", "rate": "higher"})
    assert list(summary) == ["sim"]
    got = summary["sim"]["wall_s"]
    parent_q, change_q = (statistics.quantiles(xs, n=4) for xs in wall)
    assert got == {
        "pairs": 5,
        "change_wins": 3,  # pair 3 is a tie and counts for neither
        "parent_q1_median_q3": parent_q,
        "change_q1_median_q3": change_q,
        "parent_iqr": parent_q[2] - parent_q[0],
        "median_gap": 1.0 - 0.9,
        "median_change_rel": (0.9 - 1.0) / 1.0,
        "every_change_run_better": False,
    }
    got = summary["sim"]["rate"]
    assert got["change_wins"] == 5
    assert got["median_gap"] == 22.0 - 12.0
    assert got["median_change_rel"] == (22.0 - 12.0) / 12.0
    assert got["every_change_run_better"] is True


def test_runs_that_do_not_make_pairs_are_refused(compare_metrics):
    runs = _runs("sim", [{"wall_s": 1.0}] * 3, [{"wall_s": 0.9}] * 3)[:-1]
    with pytest.raises(ValueError, match="do not make pairs"):
        compare_metrics.summarize(runs, {"wall_s": "lower"})


def test_a_pair_alternates_its_first_side_and_needs_equal_outputs(
    compare_metrics, monkeypatch, tmp_path
):
    trees = {"parent": Path("base"), "change": Path("change")}
    workload = SimpleNamespace(name="sim", path_steps=100)
    calls = []
    digests = {"base": "a", "change": "a"}

    def child_run(tree, name, seed, out):
        calls.append(tree.name)
        out.mkdir()  # the pair removes each run's outputs
        files = {"summary.json": {"sha256": digests[tree.name]}}
        return dict(wall_s=2.0, peak_rss_mb=40.0, setup_s=0.1, files=files)

    monkeypatch.setattr(compare_metrics, "_child_run", child_run)
    runs = [
        *compare_metrics._run_pair(trees, workload, 1, 7, tmp_path),
        *compare_metrics._run_pair(trees, workload, 2, 7, tmp_path),
    ]
    assert calls == ["base", "change", "change", "base"]
    assert [(r["pair"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent")
    ]
    assert runs[0]["metrics"] == {
        "wall_s": 2.0, "peak_rss_mb": 40.0, "setup_s": 0.1, "path_steps_per_s": 50.0
    }
    assert list(tmp_path.iterdir()) == []
    digests["change"] = "b"
    with pytest.raises(SystemExit, match="sim pair 3: the two sides' output files differ"):
        compare_metrics._run_pair(trees, workload, 3, 7, tmp_path)


def _sweep_record(sha: str, cost_msr: float) -> dict:
    """A child record of one compare run: one sweep row whose closed forms
    hold the identity C_static - C_optimal = delta_stat."""
    row = dict(
        eta=1e8, cost_optimal=1.0, cost_static=3.0, cost_tax=4.0, delta_stat=2.0,
        cost_msr=cost_msr, mc_stderr_msr=0.1,
    )
    files = {
        "summary.json": {"sha256": "s", "finite": True},
        "sweep.csv": {"sha256": sha, "finite": True},
    }
    return dict(wall_s=2.0, peak_rss_mb=40.0, setup_s=0.1, files=files, outputs={"rows": [row]})


@pytest.mark.parametrize(
    "moved, cost_msr, problem",
    [
        ({"sweep.csv"}, 5.0 * (1 + 1e-12), None),
        ({"summary.json"}, 5.0 * (1 + 1e-12), "the two sides' output files differ: sweep.csv"),
        ({"sweep.csv"}, 5.1, "row 0: cost_msr"),
    ],
    ids=["declared", "undeclared", "declared-but-off"],
)
def test_a_declared_file_may_move_when_its_numbers_pass_the_checks(
    compare_metrics, monkeypatch, tmp_path, moved, cost_msr, problem
):
    """A pair passes with files of different sha256 only when each is declared
    with ``--moved`` and the change's numbers pass perfbench's same-seed
    checks against the parent's; the change's run lists what moved."""
    trees = {"parent": Path("base"), "change": Path("change")}
    workload = SimpleNamespace(name="sweep", path_steps=100)
    records = {"base": _sweep_record("a", 5.0), "change": _sweep_record("b", cost_msr)}

    def child_run(tree, name, seed, out):
        out.mkdir()
        return records[tree.name]

    monkeypatch.setattr(compare_metrics, "_child_run", child_run)
    if problem is not None:
        with pytest.raises(SystemExit, match=f"sweep pair 1: {problem}"):
            compare_metrics._run_pair(trees, workload, 1, 7, tmp_path, frozenset(moved))
        return
    runs = compare_metrics._run_pair(trees, workload, 1, 7, tmp_path, frozenset(moved))
    assert [(r["side"], r.get("moved")) for r in runs] == [
        ("parent", None), ("change", ["sweep.csv"])
    ]
