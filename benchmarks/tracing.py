"""Spans around the laboratory's public functions, recorded from outside.

`Tracer.installed()` wraps each function in `TRACED` in every `anisoplate`
namespace that holds it (for example `solve_spd` is bound separately in
`linsolve`, `grid`, `greens` and `minimizer`) and restores the originals on
exit.  Each call becomes a span with its name, start, end and parent; spans
stay in memory until the caller writes them out.  A function that no longer
exists is listed in `missing` and the metrics drawn from it become None.
"""

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (module, function); the span name is "module.function"
TRACED = (
    ("anisotropy", "make_field"),
    ("anisotropy", "d1_quadrature"),
    ("grid", "build_domain"),
    ("grid", "assemble_operator"),
    ("linsolve", "solve_spd"),
    ("greens", "greens_column_L"),
    ("greens", "greens_column_L2"),
    ("greens", "singular_split"),
    ("greens", "log_bound_check"),
    ("greens", "frehse_residual"),
    ("minimizer", "minimize"),
    ("minimizer", "smoothed_energy"),
    ("nodal", "extract_nodal"),
    ("nodal", "measure_density"),
    ("nodal", "el_residual"),
    ("nodal", "domain_variation_residual"),
    ("runner", "load_config"),
    ("runner", "run"),
)


def _operator_counts(op):
    return {"interior_nodes": op.domain.n_interior, "nnz": op.matrix.nnz}


def _solve_counts(result):
    rep = result[1]
    return {"iterations": rep.iterations, "residual": rep.final_residual}


def _minimize_counts(state):
    return {"iterations": len(state.history),
            "stages": len({row[0] for row in state.history})}


def _nodal_counts(nodal):
    return {"vertices": sum(len(lp.vertices) for lp in nodal.loops)}


# counters read off a traced call's result, by span name
_COUNTERS = {
    "grid.assemble_operator": _operator_counts,
    "linsolve.solve_spd": _solve_counts,
    "minimizer.minimize": _minimize_counts,
    "nodal.extract_nodal": _nodal_counts,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = {}

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = set()
        self._open = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and n.split(".")[0] == "anisoplate"]
        patches = []
        for mod_name, fn_name in TRACED:
            home = sys.modules.get("anisoplate." + mod_name)
            orig = getattr(home, fn_name, None)
            if orig is None:
                self.missing.add(mod_name + "." + fn_name)
                continue
            wrapper = self._wrap(mod_name + "." + fn_name, orig)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is orig]:
                    patches.append((m, attr, orig))
                    setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            for m, attr, orig in reversed(patches):
                setattr(m, attr, orig)

    def _self_seconds(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, child)]

    def _under(self, span, ancestor):
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    def layer_metrics(self):
        """Per-layer metrics of every span recorded so far, by metric name.
        A layer no call reached reports zero; a metric whose function is
        missing reports None."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        layer_self = defaultdict(float)
        for s, own in zip(self.spans, self._self_seconds()):
            layer_self[s.name.split(".")[0]] += own

        def calls(name):
            return len(by_name[name])

        def seconds(name):
            return sum((s.seconds for s in by_name[name]), 0.0)

        def total(name, key):
            return sum(s.counts[key] for s in by_name[name])

        def peak(name, key):
            return max((s.counts[key] for s in by_name[name]), default=0)

        def ratio(num, den):
            return num / den if den else 0.0

        asm, solve = "grid.assemble_operator", "linsolve.solve_spd"
        mini, energy = "minimizer.minimize", "minimizer.smoothed_energy"
        nested = [s for s in by_name[solve] if self._under(s, mini)]
        table = [
            ("grid.build_domain_s", ["grid.build_domain"],
             seconds("grid.build_domain")),
            ("grid.assemble_operator_s", [asm], seconds(asm)),
            ("grid.assemble_calls", [asm], calls(asm)),
            ("grid.interior_nodes", [asm], peak(asm, "interior_nodes")),
            ("grid.operator_nnz", [asm], peak(asm, "nnz")),
            ("linsolve.solve_calls", [solve], calls(solve)),
            ("linsolve.solve_s", [solve], seconds(solve)),
            ("linsolve.cg_iterations", [solve], total(solve, "iterations")),
            ("linsolve.iters_per_solve", [solve],
             ratio(total(solve, "iterations"), calls(solve))),
            ("linsolve.max_rel_residual", [solve],
             peak(solve, "residual")),
            ("greens.column_L_calls", ["greens.greens_column_L"],
             calls("greens.greens_column_L")),
            ("greens.column_L_s", ["greens.greens_column_L"],
             seconds("greens.greens_column_L")),
            ("greens.column_L2_calls", ["greens.greens_column_L2"],
             calls("greens.greens_column_L2")),
            ("greens.column_L2_s", ["greens.greens_column_L2"],
             seconds("greens.greens_column_L2")),
            ("greens.split_s", ["greens.singular_split"],
             seconds("greens.singular_split")),
            ("greens.log_fit_s", ["greens.log_bound_check"],
             seconds("greens.log_bound_check")),
            ("greens.frehse_s", ["greens.frehse_residual"],
             seconds("greens.frehse_residual")),
            ("greens.self_s", [], layer_self["greens"]),
            ("minimizer.minimize_s", [mini], seconds(mini)),
            ("minimizer.self_s", [], layer_self["minimizer"]),
            ("minimizer.iterations", [mini], total(mini, "iterations")),
            ("minimizer.stages", [mini], total(mini, "stages")),
            ("minimizer.energy_evals", [energy], calls(energy)),
            ("minimizer.energy_eval_s", [energy], seconds(energy)),
            ("minimizer.evals_per_iter", [energy, mini],
             ratio(calls(energy), total(mini, "iterations"))),
            ("minimizer.solve_calls", [mini, solve], len(nested)),
            ("minimizer.solve_s", [mini, solve],
             sum((s.seconds for s in nested), 0.0)),
            ("nodal.extract_s", ["nodal.extract_nodal"],
             seconds("nodal.extract_nodal")),
            ("nodal.vertices", ["nodal.extract_nodal"],
             total("nodal.extract_nodal", "vertices")),
            ("nodal.density_calls", ["nodal.measure_density"],
             calls("nodal.measure_density")),
            ("nodal.density_s", ["nodal.measure_density"],
             seconds("nodal.measure_density")),
            ("nodal.el_s", ["nodal.el_residual"], seconds("nodal.el_residual")),
            ("nodal.dv_s", ["nodal.domain_variation_residual"],
             seconds("nodal.domain_variation_residual")),
            ("anisotropy.make_field_s", ["anisotropy.make_field"],
             seconds("anisotropy.make_field")),
            ("anisotropy.d1_quadrature_s", ["anisotropy.d1_quadrature"],
             seconds("anisotropy.d1_quadrature")),
            ("runner.load_config_s", ["runner.load_config"],
             seconds("runner.load_config")),
            ("runner.run_s", ["runner.run"], seconds("runner.run")),
            ("runner.self_s", [], layer_self["runner"]),
        ]
        return {metric: None if self.missing.intersection(sources) else value
                for metric, sources, value in table}
