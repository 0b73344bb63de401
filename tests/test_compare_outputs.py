"""The output-hash tool: what it hashes and how it reports differences."""

import importlib.util
import json
import os
import subprocess
import sys

_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_path = os.path.join(_root, "tools", "compare_outputs.py")
_golden = os.path.join(_root, "tests", "golden", "manifest.json")
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


def test_outputs_match_the_golden_manifest():
    # every artifact of the eight reference runs keeps its committed hash;
    # a change of Python, numpy or scipy fails here too, naming both
    # version sets, since it alone can move solver roundoff
    proc = subprocess.run([sys.executable, _path, "--against", _golden],
                          capture_output=True, text=True, timeout=600)
    # the tool prints the manifest as indented JSON, then its verdict lines
    verdict = [line for line in proc.stdout.splitlines()
               if not line.startswith(("{", "}", " "))]
    with open(_golden, encoding="utf-8") as f:
        golden = json.load(f)
    assert not [v for v in verdict if v.startswith("versions differ")], \
        "\n".join(verdict)
    assert proc.returncode == 0, "\n".join(verdict) + proc.stderr
    assert verdict == ["%d artifacts match" % len(golden["artifacts"])]
