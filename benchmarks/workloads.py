"""The benchmark's two workloads: set-up, main call and output check.

Each workload is closed-loop: one run at a time, in one process.  This
module imports neither `anisoplate` nor numpy at load time, so a fresh
interpreter that calls `setup` pays for the whole package import, as a
user starting the laboratory does.

free_boundary_129
    The builtin `iso_disk_small_c` scenario with all five checks and its
    artifacts.  The paper's headline computation and the only workload
    that reaches the minimizer, `nodal` and the `el` identities.
greens_audit_257
    A custom `diag(2,1)` config at 257^2 with only the `greens` and
    `frehse` checks.  It bypasses the minimizer, so a change to the
    minimizer alone predicts no movement here.  A few tight solves on a
    stencil with nonzero corner coefficients, plus the CSV writers.

Both have fixed inputs: the seed is recorded, not used.
"""

import json
import os
from dataclasses import dataclass, replace

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "configs")

# reference values measured on the seed commit
_energy_reference = 1.8990357
_energy_rtol = 1e-4
_symmetry_bound = 1e-9
_frehse_decay_bound = 0.5


@dataclass
class Outcome:
    """What one main call produced: its `report.json` without `timestamp`,
    to compare across runs, and the output-check findings."""

    report_text: str
    problems: list


def _report_without_timestamp(out_dir):
    with open(os.path.join(out_dir, "report.json")) as f:
        report = json.load(f)
    report.pop("timestamp", None)
    return report, json.dumps(report, sort_keys=True)


class ScenarioWorkload:
    """A runner config: set-up is `load_config`, the main call `run`."""

    def __init__(self, name, config_file):
        self.name = name
        self.config_path = os.path.join(CONFIG_DIR, config_file)

    def setup(self, seed):
        from anisoplate.runner import load_config
        return load_config(self.config_path)

    def main(self, cfg, out_dir):
        from anisoplate import runner
        return runner.run(replace(cfg, out_dir=out_dir))

    def check(self, inputs, status, out_dir):
        report, text = _report_without_timestamp(out_dir)
        problems = []
        if status != 0:
            problems.append("run exited with status %d" % status)
        if report["failures"]:
            problems.append("report failures: %s" % report["failures"])
        problems.extend(self.check_report(report))
        return Outcome(text, problems)


class FreeBoundary(ScenarioWorkload):
    def check_report(self, report):
        energy = report["minimize"]["energy_final"]
        if abs(energy - _energy_reference) > _energy_rtol * _energy_reference:
            return ["energy_final %.9g is not %.9g within %g relative"
                    % (energy, _energy_reference, _energy_rtol)]
        return []


class GreensAudit(ScenarioWorkload):
    def check_report(self, report):
        problems = []
        sym = report["symmetry_max_err"]
        if not sym <= _symmetry_bound:
            problems.append("symmetry_max_err %.3e > %g"
                            % (sym, _symmetry_bound))
        ratios = report["frehse"]["ratios"]
        if not ratios[-1] <= _frehse_decay_bound * ratios[0]:
            problems.append("frehse finest/coarsest ratio %.3f > %g"
                            % (ratios[-1] / ratios[0], _frehse_decay_bound))
        return problems


WORKLOADS = {w.name: w for w in (
    FreeBoundary("free_boundary_129", "free_boundary_129.ini"),
    GreensAudit("greens_audit_257", "greens_audit_257.ini"),
)}
