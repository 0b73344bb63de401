"""The output-hash tool: what it hashes and how it reports differences."""

import importlib.util
import json
import os

_path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", _path)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_report_hash_ignores_timestamp_only(tmp_path):
    run = tmp_path / "run"
    (run / "fields").mkdir(parents=True)
    (run / "fields" / "u.csv").write_text("x,y,u\n0,0,1\n")
    report = {"h": 0.5, "timestamp": {"utc": "then"}}
    (run / "report.json").write_text(json.dumps(report))
    first = compare_outputs.tree_digests("r", str(run))
    assert sorted(first) == ["r/fields/u.csv", "r/report.json"]

    report["timestamp"] = {"utc": "now"}
    (run / "report.json").write_text(json.dumps(report, indent=2))
    assert compare_outputs.tree_digests("r", str(run)) == first
    report["h"] = 0.25
    (run / "report.json").write_text(json.dumps(report))
    assert compare_outputs.tree_digests("r", str(run)) != first


def test_differences_name_each_artifact():
    saved = {"artifacts": {"a": "1", "b": "2", "c": "3"}}
    current = {"artifacts": {"a": "1", "b": "9", "d": "4"}}
    assert compare_outputs.differences(saved, current) == [
        "differs: b", "missing: c", "new: d"]
    assert compare_outputs.differences(saved, saved) == []
