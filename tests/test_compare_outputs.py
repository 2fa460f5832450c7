"""The file comparison of scripts/compare_outputs.py, on synthetic CSV and
JSON files: no worktree and no child runs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

_TABLE = "# trajectory.v1\npath,t,price,total_bank\n0,0,{price},1e9\n0,10,{end},-2.5e8\n"


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _tables(tmp_path, price, end):
    base = _write(tmp_path / "base" / "t.csv", _TABLE.format(price=40.0, end=41.5))
    change = _write(tmp_path / "change" / "t.csv", _TABLE.format(price=price, end=end))
    return base, change


def test_identical_files_are_reported_identical(tmp_path):
    assert compare_outputs.compare_file(*_tables(tmp_path, 40.0, 41.5)) == "identical"


def test_a_csv_column_reports_its_largest_relative_difference(tmp_path):
    one_ulp = math.nextafter(41.5, math.inf)
    verdict = compare_outputs.compare_file(*_tables(tmp_path, 40.0, one_ulp))
    assert verdict == f"differs: price {(one_ulp - 41.5) / one_ulp:.3g}"
    verdict = compare_outputs.compare_file(*_tables(tmp_path, 44.0, 41.5 * 1.5))
    assert verdict == "differs: price 0.333"


def test_the_same_numbers_in_other_text_are_named(tmp_path):
    assert compare_outputs.compare_file(*_tables(tmp_path, 40, 41.50)) == "differs in text only"


def test_a_table_of_another_shape_is_reported(tmp_path):
    base, change = _tables(tmp_path, 40.0, 41.5)
    change.write_text(change.read_text() + "1,0,40,1e9\n")
    assert compare_outputs.compare_file(base, change).startswith("differs: 2 rows")


def test_json_fields_are_compared_by_their_dotted_path(tmp_path):
    msr = {"mc_estimate": 1e11, "breakdown": {"tax": 0.0}}
    summary = {"schema": "summary.v1", "policies": {"msr": msr}}
    base = _write(tmp_path / "base" / "summary.json", json.dumps(summary))
    summary["policies"]["msr"]["mc_estimate"] = 1e11 * (1 + 1e-15)
    summary["policies"]["msr"]["breakdown"]["tax"] = -0.0
    change = _write(tmp_path / "change" / "summary.json", json.dumps(summary))
    diff = compare_outputs.column_differences(base, change)
    assert list(diff) == ["policies.msr.mc_estimate"]
    assert diff["policies.msr.mc_estimate"] == pytest.approx(1e-15, rel=0.2)
    summary["schema"] = "summary.v2"
    change.write_text(json.dumps(summary))
    assert compare_outputs.column_differences(base, change)["schema"] == math.inf


def test_trees_name_the_files_only_one_side_has(tmp_path):
    _tables(tmp_path, 40.0, 41.5)
    _write(tmp_path / "change" / "case" / "extra.csv", "a\n1\n")
    assert compare_outputs.compare_trees(tmp_path / "base", tmp_path / "change") == [
        ("case/extra.csv", "only in the change"),
        ("t.csv", "identical"),
    ]


def test_relative_differences_of_special_values():
    rel = compare_outputs.relative_difference
    assert rel(0.0, -0.0) == 0.0
    assert rel(math.nan, math.nan) == 0.0
    assert rel(math.nan, 1.0) == math.inf
    assert rel(1.0, -1.0) == 2.0
