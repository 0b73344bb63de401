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


def test_key_differences_name_each_moved_added_and_removed_path():
    old = {"h": 0.5, "n": 3, "ok": True, "notes": [],
           "minimize": {"energy": 2.0, "iterations": 63, "zero": 0.0},
           "rows": [{"a": 1.0}, {"a": 2.0}]}
    new = {"h": 0.5, "n": 3.0, "ok": False, "notes": ["coarse"],
           "minimize": {"energy": 2.5, "descent_steps": 40, "zero": 1e-3},
           "rows": [{"a": 1.0}]}
    assert compare_outputs.key_differences("r/report.json", old, new) == [
        "added: r/report.json minimize.descent_steps: 40",
        "moved: r/report.json minimize.energy: 2.0 -> 2.5 (rel +2.5e-01)",
        "removed: r/report.json minimize.iterations: 63",
        "moved: r/report.json minimize.zero: 0.0 -> 0.001 (rel inf)",
        "moved: r/report.json n: 3 -> 3.0 (rel +0.0e+00)",
        "removed: r/report.json notes: []",
        "added: r/report.json notes[0]: 'coarse'",
        "moved: r/report.json ok: True -> False",
        "removed: r/report.json rows[1].a: 2.0",
    ]
    assert compare_outputs.key_differences("r", old, old) == []
    # nan reads as itself, as it does in the JSON
    nan = {"x": float("nan")}
    assert compare_outputs.key_differences("r", nan, nan) == []


def test_report_differences_need_reports_on_both_sides():
    saved = {"artifacts": {}, "reports": {"a/report.json": {"e": 1.0},
                                          "b/report.json": {"e": 1.0}}}
    current = {"artifacts": {}, "reports": {"a/report.json": {"e": 1.5}}}
    assert compare_outputs.report_differences(saved, current) == [
        "moved: a/report.json e: 1.0 -> 1.5 (rel +5.0e-01)"]
    assert compare_outputs.report_differences({"artifacts": {}}, current) \
        == []


def test_outputs_match_the_golden_manifest():
    # every artifact of the nine reference runs, and the printout of each
    # of the five demos, keeps its committed hash; a change of Python,
    # numpy or scipy fails here too, naming both version sets, since it
    # alone can move solver roundoff
    proc = subprocess.run([sys.executable, _path, "--against", _golden],
                          capture_output=True, text=True, timeout=600)
    # the tool prints the manifest as indented JSON, then its verdict lines
    verdict = [line for line in proc.stdout.splitlines()
               if not line.startswith(("{", "}", " "))]
    with open(_golden, encoding="utf-8") as f:
        golden = json.load(f)
    demos = sorted(n[:-3] for n in os.listdir(os.path.join(_root, "demos"))
                   if n.endswith(".py"))
    assert len(demos) == 5
    assert sorted(k for k in golden["artifacts"] if k.startswith("demos/")) \
        == ["demos/%s.txt" % n for n in demos]
    # each run's report is kept beside its hash, so a mismatch names keys
    assert sorted(golden["reports"]) == sorted(
        k for k in golden["artifacts"] if k.endswith("/report.json"))
    assert not [v for v in verdict if v.startswith("versions differ")], \
        "\n".join(verdict)
    assert proc.returncode == 0, "\n".join(verdict) + proc.stderr
    assert verdict == ["%d artifacts match" % len(golden["artifacts"])]
