#!/usr/bin/env python3
"""Hash every artifact of nine reference runs and the printout of the five
demos: "same outputs" as one command.

    python3 tools/compare_outputs.py [--save MANIFEST] [--against MANIFEST]

The runs, each in a fresh temporary directory:

    free_boundary_129  builtin iso_disk_small_c, all checks, at 129^2
    iso_disk_large_c   builtin iso_disk_large_c, all checks, at 129^2
    greens_audit_257   diag(2,1) greens and frehse at 257^2
    levels2_65         iso_disk_small_c from 65^2 with --levels 2
    rot_small_65       iso_disk_small_c with rot(0.7,2,1), all checks, at 65^2
    poly_greens_129    poly(1) greens and frehse on disk(1) at 129^2
    rect_poly_65       rect(2,1.5), diag(2,1), polynomial u0, all checks,
                       at 65^2
    rect_offnode_65    rect(1.3,0.7), rot(0.7,2,1), all checks, at 65^2
    rect_greens_129    rect(2,1.5), diag(2,1) greens and frehse at 129^2

rot_small_65 and poly_greens_129 pin arm weights that are not multiples
of the identity's: rot_small_65 the diagonal arms' constant a12/2 (NE)
and -a12/2 (SE), poly_greens_129 the E arm's a11, which varies along x.
rect_poly_65 pins the rectangle's projection and a boundary trace that
varies along the curve.  rect_offnode_65 pins a rectangle whose edges
are not at multiples of a power-of-two h: its long sides lie on nodes
only because the coordinates are exact at +-halfwidth.  rect_greens_129
pins the Hessian log fit on a rectangle, over the annuli of its centre
source's clearance.

The two benchmark runs read their configs from `benchmarks/configs/`.
Each script in `demos/` then runs in this process with no arguments, and
its standard output is the artifact `demos/<name>.txt`.  BLAS and OpenMP
run one thread each, as in the benchmark, because the thread count can
change a solve's last bits.  Every artifact is hashed with SHA-256: a CSV
or a demo's output by its bytes, `report.json` without its volatile
`timestamp` as `json.dumps(report, sort_keys=True)`.

The manifest, printed as JSON, holds the hashes, each run's report (the
values behind its hash) and the Python, numpy and scipy versions.
`--save` also writes it to a file.  `--against` compares it with a saved
manifest, names each artifact that differs, is missing or is new, and
exits 1 when any does; a version mismatch is reported, since it alone can
move solver roundoff.  For a report that differs it also names every key
path that moved, with its old and new value and the relative change, and
every key path that was added or removed:

    moved: free_boundary_129/report.json minimize.energy_final: 1.92 -> 1.93 (rel +5.2e-03)
    added: free_boundary_129/report.json minimize.descent_steps: 60
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_CONFIGS = os.path.join(ROOT, "benchmarks", "configs")
DEMOS = os.path.join(ROOT, "demos")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# name -> (config file or INI text, --levels or None)
RUNS = (
    ("free_boundary_129", os.path.join(BENCH_CONFIGS, "free_boundary_129.ini"),
     None),
    ("iso_disk_large_c", "[run]\nscenario = iso_disk_large_c\n", None),
    ("greens_audit_257", os.path.join(BENCH_CONFIGS, "greens_audit_257.ini"),
     None),
    ("levels2_65", "[run]\nscenario = iso_disk_small_c\n"
     "[grid]\nresolution = 65\n", 2),
    ("rot_small_65", "[run]\nscenario = iso_disk_small_c\n"
     "[grid]\nresolution = 65\n[field]\nkind = rot(0.7,2,1)\n", None),
    ("poly_greens_129", "[run]\nchecks = greens, frehse\n"
     "[grid]\nshape = disk(1)\nresolution = 129\n"
     "[field]\nkind = poly(1)\n[boundary]\nu0 = 0.05\n", None),
    ("rect_poly_65", "[grid]\nshape = rect(2,1.5)\nresolution = 65\n"
     "[field]\nkind = diag(2,1)\n"
     "[boundary]\nu0 = 0.04 + 0.01*x1^2 - 0.005*x1*x2\n", None),
    ("rect_offnode_65", "[grid]\nshape = rect(1.3,0.7)\nresolution = 65\n"
     "[field]\nkind = rot(0.7,2,1)\n[boundary]\nu0 = 0.05\n", None),
    ("rect_greens_129", "[run]\nchecks = greens, frehse\n"
     "[grid]\nshape = rect(2,1.5)\nresolution = 129\n"
     "[field]\nkind = diag(2,1)\n[boundary]\nu0 = 0.05\n", None),
)


def load_report(path):
    """A report.json without its volatile `timestamp`."""
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    report.pop("timestamp", None)
    return report


def file_digest(path):
    """SHA-256 of an artifact; report.json is hashed without `timestamp`."""
    if os.path.basename(path) == "report.json":
        data = json.dumps(load_report(path), sort_keys=True).encode("utf-8")
    else:
        with open(path, "rb") as f:
            data = f.read()
    return hashlib.sha256(data).hexdigest()


def tree_digests(prefix, top):
    """{prefix/relative path: digest} for every file under `top`."""
    out = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, top).replace(os.sep, "/")
            out[prefix + "/" + rel] = file_digest(path)
    return out


def demo_digests():
    """{demos/<name>.txt: digest of its standard output} for every demo,
    each run in this process as `__main__` with no arguments."""
    out = {}
    argv = sys.argv
    for name in sorted(os.listdir(DEMOS)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(DEMOS, name)
        buf = io.StringIO()
        sys.argv = [path]
        try:
            with contextlib.redirect_stdout(buf):
                runpy.run_path(path, run_name="__main__")
        finally:
            sys.argv = argv
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        out["demos/" + name[:-3] + ".txt"] = digest
    return out


def run_all(work):
    """Execute the reference runs under `work`, then the demos; returns
    their manifest."""
    import numpy
    import scipy
    from anisoplate.runner import convergence_study, load_config, run

    artifacts, reports = {}, {}
    for name, source, levels in RUNS:
        path = source
        if not source.endswith(".ini"):
            path = os.path.join(work, name + ".ini")
            with open(path, "w", encoding="utf-8") as f:
                f.write(source)
        out = os.path.join(work, name)
        cfg = load_config(path, out_dir=out)
        status = (run(cfg) if levels is None
                  else convergence_study(cfg, levels))
        if status != 0:
            raise SystemExit("%s: run exited with status %d" % (name, status))
        artifacts.update(tree_digests(name, out))
        reports[name + "/report.json"] = load_report(
            os.path.join(out, "report.json"))
    artifacts.update(demo_digests())
    return {
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "artifacts": dict(sorted(artifacts.items())),
        "reports": reports,
    }


def _leaves(value, path=""):
    """{key path: value} for every leaf of a JSON value; a dict key joins
    with '.', a list index is written [i], and an empty dict or list is a
    leaf."""
    if isinstance(value, dict) and value:
        items = (((path + "." if path else "") + str(k), v)
                 for k, v in value.items())
    elif isinstance(value, list) and value:
        items = (("%s[%d]" % (path, i), v) for i, v in enumerate(value))
    else:
        return {path: value}
    out = {}
    for sub, v in items:
        out.update(_leaves(v, sub))
    return out


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def key_differences(name, old, new):
    """Lines naming each key path of report `name` that moved, was added
    or was removed, with the values and, for numbers, the relative
    change (new - old) / |old|.  Values compare by repr, so 1 against
    1.0, -0.0 against 0.0 and nan against nan read as JSON writes them."""
    old, new = _leaves(old), _leaves(new)
    lines = []
    for path in sorted(set(old) | set(new)):
        if path not in new:
            lines.append("removed: %s %s: %r" % (name, path, old[path]))
        elif path not in old:
            lines.append("added: %s %s: %r" % (name, path, new[path]))
        elif repr(old[path]) != repr(new[path]):
            a, b = old[path], new[path]
            rel = ""
            if _is_number(a) and _is_number(b):
                rel = " (rel %+.1e)" % ((b - a) / abs(a)) if a else " (rel inf)"
            lines.append("moved: %s %s: %r -> %r%s" % (name, path, a, b, rel))
    return lines


def differences(saved, current):
    """Lines naming each artifact that differs, is missing or is new."""
    old, new = saved["artifacts"], current["artifacts"]
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in new:
            lines.append("missing: %s" % key)
        elif key not in old:
            lines.append("new: %s" % key)
        elif old[key] != new[key]:
            lines.append("differs: %s" % key)
    return lines


def report_differences(saved, current):
    """Key lines for every report present in both manifests; a manifest
    saved without reports gives none."""
    old, new = saved.get("reports", {}), current.get("reports", {})
    lines = []
    for name in sorted(set(old) & set(new)):
        lines.extend(key_differences(name, old[name], new[name]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="MANIFEST",
                        help="also write the manifest to this file")
    parser.add_argument("--against", metavar="MANIFEST",
                        help="compare with a saved manifest; exit 1 on any "
                             "difference")
    args = parser.parse_args(argv)

    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
        manifest = run_all(work)
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    print(text, end="")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            f.write(text)
    if not args.against:
        return 0

    with open(args.against, encoding="utf-8") as f:
        saved = json.load(f)
    if saved.get("versions") != manifest["versions"]:
        print("versions differ: saved %s, now %s"
              % (saved.get("versions"), manifest["versions"]))
    lines = differences(saved, manifest)
    for line in lines + report_differences(saved, manifest):
        print(line)
    if lines:
        print("%d of %d artifacts differ"
              % (len(lines), len(set(saved["artifacts"]) | set(manifest["artifacts"]))))
        return 1
    print("%d artifacts match" % len(manifest["artifacts"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
