"""Benchmark of the anisoplate laboratory: time to an audited result.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from `src/` next to this
directory.  Workloads are described in `workloads.py`; metric names and
units come from `BENCHMARK.json` at the checkout root.

--trace 0  An untimed warm-up set-up, then rounds of two set-ups timed in
           fresh interpreters and one main call, while the next round fits
           in S seconds.  `setup_s` and `wall_s` are the medians; spreading
           the set-ups over the whole run lets both see the same machine.
--trace 1  Alternates untraced and traced runs.  The traced run wraps the
           package's public functions from outside (`tracing.py`) and
           reports per-layer metrics as medians over traced runs;
           `trace.overhead_s` is the traced minus the untraced median wall
           time.  The spans are written to `.bench_out/` at the end.

BLAS and OpenMP run one thread each: every thread variable below is set
to 1 before numpy loads, whatever the caller set (the machine record keeps
the values found).  On a 2-core share a second OpenBLAS thread made the
minimizer's many small solves both slower and far noisier.

Every run gets a fresh output directory under `.bench_tmp/`, deleted after
its output checks.  A run fails if it raises, if its output check fails, or
if its `report.json` (without `timestamp`) differs from the first run's.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")

PROBES_PER_RUN = 2
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _blas(module):
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "%s %s" % (blas.get("name"), blas.get("version"))


def pin_threads():
    """Set every thread variable to 1; returns the values found."""
    found = {v: os.environ.get(v) for v in THREAD_VARS}
    os.environ.update({v: "1" for v in THREAD_VARS})
    return found


def machine_record(threads_found):
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_vars_found": threads_found,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def probe_setup(workload, seed):
    """Seconds of one set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=PROBE_TIMEOUT_S)
    return float(out.stdout.split()[-1])


def artifact_size(out_dir):
    files = nbytes = 0
    for base, _, names in os.walk(out_dir):
        for n in names:
            files += 1
            nbytes += os.path.getsize(os.path.join(base, n))
    return files, nbytes


class Runs:
    """Outcome of every run in this invocation, with the determinism check
    against the first run's report."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_report = None

    def one(self, inputs, tracer=None, seed=None):
        """One run; returns (wall s, cpu s, artifact files, artifact bytes)
        or None when it failed.  With a tracer, set-up is repeated inside
        the traced block so its layers are attributed too."""
        wl = self.workload
        self.attempted += 1
        out_dir = tempfile.mkdtemp(dir=TMP_DIR)
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                if tracer is not None:
                    inputs = wl.setup(seed)
                cpu0, t0 = time.process_time(), time.perf_counter()
                result = wl.main(inputs, out_dir)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
            outcome = wl.check(inputs, result, out_dir)
            files, nbytes = artifact_size(out_dir)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        problems = list(outcome.problems)
        if self.first_report is None:
            self.first_report = outcome.report_text
        elif outcome.report_text != self.first_report:
            problems.append("report.json differs from the first run's")
        if problems:
            print("run %d failed: %s" % (self.attempted, "; ".join(problems)),
                  file=sys.stderr)
            self.failed += 1
            return None
        return wall, cpu, files, nbytes


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(wl, seed, seconds):
    runs = Runs(wl)
    start = time.perf_counter()
    probe_setup(wl.name, seed)   # warm-up: byte-compiles, fills file cache
    inputs = wl.setup(seed)
    setup, walls, longest = [], [], 0.0
    while runs.attempted == 0 or (
            time.perf_counter() + longest <= start + seconds):
        t0 = time.perf_counter()
        setup.extend(probe_setup(wl.name, seed)
                     for _ in range(PROBES_PER_RUN))
        got = runs.one(inputs)
        longest = max(longest, time.perf_counter() - t0)
        if got is not None:
            walls.append(got[0])
            print("run %d: wall %.4f s, cpu %.4f s" % (runs.attempted, *got[:2]))
    values = {"setup_s": statistics.median(setup),
              "wall_s": median_or_none(walls)}
    print("%s seed=%d: setup_s=%.4f s over %d probes  wall_s=%s s over %d "
          "runs  error_rate=%.3f (%d of %d runs failed)"
          % (wl.name, seed, values["setup_s"], len(setup), values["wall_s"],
             len(walls), runs.failed / runs.attempted, runs.failed,
             runs.attempted))
    return runs, values


def measure_traced(wl, seed, seconds, machine):
    from tracing import Tracer

    runs = Runs(wl)
    start = time.perf_counter()
    inputs = wl.setup(seed)
    plain, traced, longest = [], [], 0.0
    while runs.attempted == 0 or (
            time.perf_counter() + longest <= start + seconds):
        t0 = time.perf_counter()
        plain.append(runs.one(inputs))
        tracer = Tracer()
        got = runs.one(inputs, tracer=tracer, seed=seed)
        if got is not None:
            traced.append((got, tracer))
        longest = max(longest, time.perf_counter() - t0)

    per_run = []
    for (_, _, files, nbytes), tracer in traced:
        m = tracer.layer_metrics()
        m.update({"runner.artifact_files": files,
                  "runner.artifact_bytes": nbytes})
        per_run.append(m)
    values = {k: median_or_none([m[k] for m in per_run])
              for k in (per_run[0] if per_run else {})}
    plain_ok = [p for p in plain if p is not None]
    wall_plain = median_or_none([p[0] for p in plain_ok])
    wall_traced = median_or_none([g[0] for g, _ in traced])
    values["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    values["process.cpu_s"] = median_or_none([p[1] for p in plain_ok])
    values["trace.overhead_s"] = (
        None if wall_plain is None or wall_traced is None
        else wall_traced - wall_plain)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (wl.name, seed))
    with open(path, "w") as f:
        json.dump({"workload": wl.name, "seed": seed,
                   "machine": machine,
                   "runs": [{"missing": sorted(t.missing),
                             "spans": [s.as_dict() for s in t.spans]}
                            for _, t in traced]}, f)
    print("%s seed=%d: %d traced runs, wall_s untraced %s s, traced %s s; "
          "spans in %s" % (wl.name, seed, len(traced), wall_plain,
                           wall_traced, os.path.relpath(path, ROOT)))
    return runs, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    threads_found = pin_threads()
    sys.path.insert(0, SRC)
    import anisoplate
    if (os.path.realpath(os.path.dirname(os.path.dirname(anisoplate.__file__)))
            != os.path.realpath(SRC)):
        raise SystemExit("anisoplate was imported from %s, not from %s"
                         % (anisoplate.__file__, SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit("unknown workload %r (have %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    wl = WORKLOADS[args.workload]
    machine = machine_record(threads_found)
    print("machine: %s" % json.dumps(machine, sort_keys=True))

    os.makedirs(TMP_DIR, exist_ok=True)
    if args.trace:
        runs, values = measure_traced(wl, args.seed, args.seconds,
                                      machine)
        wanted = spec["per_layer"]
    else:
        runs, values = measure(wl, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values.get(m["name"]),
                              "unit": m["unit"]}
        print("  %-28s %-14r %s" % (m["name"], values.get(m["name"]),
                                     m["unit"]))
    print(json.dumps({"correct": runs.failed == 0,
                      "attempted": runs.attempted, "failed": runs.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
