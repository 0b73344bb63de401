"""Scenario runner: INI configs in, JSON report plus plot-ready CSV out.

Config grammar (UTF-8 ``key = value`` lines under bracketed sections):

    [run]       scenario (optional builtin name), checks (comma list)
    [grid]      shape = disk(r) | rect(w,h); resolution = 2^k + 1
    [field]     kind = identity | diag(a,b) | poly(alpha) | rot(theta,a,b)
    [boundary]  u0 = constant or polynomial in x1, x2 of degree <= 4
    [output]    dir = output directory

Shape and field share one ``name(args)`` grammar; RunConfig parses the
three specs once, however built, and rejects sizes outside the float range.
Any other section or key is rejected.  Builtin scenarios fill whatever
keys the file omits: ``iso_disk_small_c`` (disk(1), identity
coefficients, u0 = 0.05, resolution 129) and ``iso_disk_large_c`` (same
but u0 = 10).  A builtin's expectations (energy bound, constancy, zero-set
emptiness) apply only while its shape, field and u0 are unchanged.

Checks and their pass rules, recorded per section in ``report.json``:

    greens     reciprocity defect <= 1e-9 relative, columns >= -1e-12 (a
               column below that raises, failing the check; min_GL is
               the least interior value, the positivity margin);
               the L^2 Hessian log fit is not assessed below two annuli,
               and a split sup is null when no node is admissible for it
    frehse     remainder/singular ratio at the finest annulus at most
               half the coarsest one; assessed once four dyadic annuli
               fit between 4h and 1/2 (coarser runs report the trend)
    minimize   converged, sharp energy <= 1.02 * area, max L_h u <= 1e-6,
               plus any builtin expectation (energy bound, constancy)
    nodal      resolved gradients on closed loops; builtin emptiness match
    el         stationarity and domain-variation residuals <= 0.15 / 0.20,
               assessed at resolution >= 129 (coarser runs only report
               values, or a note when no test bump fits); with an empty
               zero set both identity sides must sit below 1e-8

Each value is reported once, in its check's section (``frehse`` holds the
per-annulus arrays), except the top-level ``symmetry_max_err``: a copy of
the greens section's, null when greens did not run, kept only because
``benchmarks/workloads.py`` reads it there.  Identical configs produce
byte-identical reports modulo the ``timestamp`` field.
"""

import argparse
import configparser
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .anisotropy import d1_quadrature, make_field
from .greens import (
    coarse_grid_note,
    frehse_residual,
    gradient_sup,
    greens_column_L,
    greens_column_L2,
    log_bound_check,
    node_near,
    singular_split,
    third_diff_sup,
)
from .grid import (EXTERIOR, INTERIOR, assemble_operator, build_domain,
                   open_fresh, parse_shape, write_table)
from .minimizer import (DivergenceError, minimize, supersolution_check,
                        write_history)
from .nodal import (
    bump_bank,
    domain_variation_residual,
    el_residual,
    extract_nodal,
    gradient_floor,
    measure_density,
    relative_defect,
    sample_on_grid,
    write_nodal_csv,
)

_all_checks = ("greens", "frehse", "minimize", "nodal", "el")
_check_deps = {
    "greens": (),
    "frehse": (),
    "minimize": (),
    "nodal": ("minimize",),
    "el": ("minimize", "nodal"),
}
# what a dependency leaves in the run context, and its name in errors
_products = {"minimize": ("state", "minimizer"),
             "nodal": ("nodal", "nodal set")}
# Green's sources as fractions of the bounding-box halfwidth
_source_fractions = ((0.0, 0.0), (0.31, 0.17), (-0.42, 0.11))
_max_poly_degree = 4
_trace_samples = 256
_symmetry_bound = 1e-9
_supersolution_bound = 1e-6
_energy_headroom = 1.02
_el_bound = 0.15
_dv_bound = 0.20
_residual_min_res = 129
_empty_identity_tol = 1e-8
_study_max_levels = 4
_study_max_resolution = 513
_known_keys = {
    "run": ("scenario", "checks"),
    "grid": ("shape", "resolution"),
    "field": ("kind",),
    "boundary": ("u0",),
    "output": ("dir",),
}

_builtins = {
    "iso_disk_small_c": {
        "shape": "disk(1)", "resolution": "129", "field": "identity",
        "u0": "0.05", "nonempty": True, "energy_bound": 2.2,
    },
    "iso_disk_large_c": {
        "shape": "disk(1)", "resolution": "129", "field": "identity",
        "u0": "10", "nonempty": False, "max_dev": 1e-3,
    },
}


class ConfigError(ValueError):
    """Configuration rejected; the message carries section/key context."""


# ---------------------------------------------------------------------------
# boundary datum grammar

_number_re = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_var_re = re.compile(r"^(x1|x2)(?:\^(\d+))?$")


def parse_datum(text):
    """Parse boundary data: signed products of numeric literals and
    x1/x2 powers, total degree <= 4.  Returns ((coeff, pow1, pow2), ...)."""
    s = str(text).strip().replace("**", "^").replace(" ", "")
    if not s:
        raise ConfigError("[boundary] u0: empty expression")
    cuts = [0]
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "eE+-*^":
            cuts.append(k)
    cuts.append(len(s))
    terms = []
    for a, b in zip(cuts, cuts[1:]):
        raw = s[a:b]
        body = raw.lstrip("+-")
        if not body:
            raise ConfigError("[boundary] u0: dangling sign in %r" % text)
        sign = -1.0 if raw[: len(raw) - len(body)].count("-") % 2 else 1.0
        coeff, p1, p2 = sign, 0, 0
        for factor in body.split("*"):
            if not factor:
                raise ConfigError("[boundary] u0: empty factor in %r" % raw)
            m = _var_re.match(factor)
            if m is not None:
                p = 1 if m.group(2) is None else int(m.group(2))
                if m.group(1) == "x1":
                    p1 += p
                else:
                    p2 += p
                continue
            if _number_re.match(factor) is None:
                raise ConfigError(
                    "[boundary] u0: cannot parse factor %r" % factor)
            coeff *= float(factor)
        if not math.isfinite(coeff):
            raise ConfigError("[boundary] u0: term %r is not finite" % raw)
        if p1 + p2 > _max_poly_degree:
            raise ConfigError("[boundary] u0: term %r exceeds degree %d"
                              % (raw, _max_poly_degree))
        terms.append((coeff, p1, p2))
    return tuple(terms)


def datum_constant(terms):
    """The constant value when every term is degree zero, else None."""
    if all(p == 0 and q == 0 for _, p, q in terms):
        return float(sum(c for c, _, _ in terms))
    return None


def datum_callable(terms):
    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        for c, p, q in terms:
            out = out + c * x ** p * y ** q
        return out if out.shape else float(out)
    return fn


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """A validated run: every constructor (load_config, a direct call,
    dataclasses.replace) parses the three specs once, into shape, coeff and
    terms, and raises ConfigError naming the key of any it rejects."""

    scenario: str
    shape_spec: str
    resolution: int
    field_spec: str
    u0_spec: str
    checks: tuple
    out_dir: str
    shape: object = field(init=False, repr=False, compare=False)
    coeff: object = field(init=False, repr=False, compare=False)
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.resolution
        if n < 5 or ((n - 1) & (n - 2)) != 0:
            raise ConfigError(
                "[grid] resolution: %d is not a power of two plus one" % n)
        if not self.checks:
            raise ConfigError("[run] checks: empty selection")
        for c in self.checks:
            if c not in _all_checks:
                raise ConfigError("[run] checks: unknown %r (choose from %s)"
                                  % (c, ", ".join(_all_checks)))
        try:
            shape = parse_shape(self.shape_spec)
        except ValueError as e:
            raise ConfigError("[grid] shape: %s" % e)
        # 1/h^2 enters apply and the Hessian, the area every bound, and
        # 2 h^3 (the third differences) is the highest power of h a run forms
        half = shape.bbox_halfwidth()
        h = 2.0 * half / (n - 1)
        h3 = h * h * h
        if not (0.0 < h3 and 2.0 * h3 < math.inf and 1.0 / h3 < math.inf
                and 4.0 * half * half < math.inf):
            raise ConfigError("[grid] shape: %s at resolution %d gives "
                              "h = %g, outside the float range"
                              % (self.shape_spec, n, h))
        try:
            coeff = make_field(self.field_spec, box=max(1.5, half + 0.1))
        except ValueError as e:
            raise ConfigError("[field] kind: %s" % e)
        terms = parse_datum(self.u0_spec)
        # u0 finite and positive on the curve, sampled at the projections
        # of a ring outside it (finite terms can still sum to inf)
        th = 2.0 * math.pi * np.arange(_trace_samples) / _trace_samples
        ring = 2.0 * half * np.stack([np.cos(th), np.sin(th)], axis=-1)
        pts = shape.project(ring)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(datum_callable(terms)(pts[:, 0], pts[:, 1]))
        if not np.all((vals > 0.0) & (vals < math.inf)):
            raise ConfigError(
                "[boundary] u0: not finite and positive on the boundary "
                "(sampled values in [%g, %g])"
                % (float(vals.min()), float(vals.max())))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "terms", terms)


def _get(cp, section, key, default=None):
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    return default


def load_config(path, checks=None, out_dir=None):
    """Read an INI file into a validated RunConfig.

    `checks` and `out_dir` override the file (command-line flags)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as f:
            cp.read_file(f, source=os.path.basename(path))
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))
    except configparser.Error as e:
        raise ConfigError("config syntax: %s" % e)
    for section in cp.sections():
        if section not in _known_keys:
            raise ConfigError("[%s]: unknown section (have %s)"
                              % (section, ", ".join(_known_keys)))
        for key in cp.options(section):
            if key not in _known_keys[section]:
                raise ConfigError("[%s] %s: unknown key (have %s)" % (
                    section, key, ", ".join(_known_keys[section])))

    scenario = _get(cp, "run", "scenario", "custom")
    base = _builtins.get(scenario, {})
    if scenario != "custom" and not base:
        raise ConfigError("[run] scenario: unknown builtin %r (have %s)"
                          % (scenario, ", ".join(sorted(_builtins))))

    shape_spec = _get(cp, "grid", "shape", base.get("shape"))
    res_text = _get(cp, "grid", "resolution", base.get("resolution"))
    field_spec = _get(cp, "field", "kind", base.get("field", "identity"))
    u0_spec = _get(cp, "boundary", "u0", base.get("u0"))
    for val, where in ((shape_spec, "[grid] shape"),
                       (res_text, "[grid] resolution"),
                       (u0_spec, "[boundary] u0")):
        if val is None:
            raise ConfigError("%s: required (no builtin default applies)"
                              % where)
    try:
        resolution = int(res_text)
    except ValueError:
        raise ConfigError("[grid] resolution: %r is not an integer"
                          % res_text)

    if checks is None:
        raw = _get(cp, "run", "checks", "")
        checks = tuple(t for t in re.split(r"[,\s]+", raw) if t)
        if not checks:
            checks = _all_checks
    else:
        checks = tuple(checks)
    out = out_dir if out_dir is not None else _get(cp, "output", "dir", "out")

    return RunConfig(scenario=scenario, shape_spec=shape_spec,
                     resolution=resolution, field_spec=field_spec,
                     u0_spec=u0_spec, checks=checks, out_dir=out)


# ---------------------------------------------------------------------------
# individual checks


def _kernel_log_slope(col, consts):
    """Regress the first-order column on -c1 * log(psi) over the mid
    annulus; 1.0 means the column tracks the explicit kernel."""
    d = col.domain
    half = d.shape.bbox_halfwidth()
    r = col.metric_mask[1]
    band = (d.mask == INTERIOR) & (r >= 0.2 * half) & (r <= 0.5 * half)
    if band.sum() < 8:
        return None
    x = -consts.c1 * np.log(col.psi[band])
    y = col.values[band]
    design = np.vstack([x, np.ones_like(x)]).T
    slope = np.linalg.lstsq(design, y, rcond=None)[0][0]
    return float(slope)


def _check_greens(ctx, sec):
    dom, op = ctx["domain"], ctx["op"]
    half = dom.shape.bbox_halfwidth()
    sources = []
    for fx, fy in _source_fractions:
        ij = node_near(dom, fx * half, fy * half)
        if dom.interior_map[ij] >= 0 and ij not in sources:
            sources.append(ij)
    cols = [greens_column_L(op, ij) for ij in sources]

    sym = float(max((relative_defect(ca.values[cb.source_ij], cb.values[ca.source_ij])
                     for ca, cb in combinations(cols, 2)), default=0.0))
    # the positivity margin over interior nodes (boundary and exterior nodes
    # are zero); greens_column_L has already raised on a column below its
    # floor
    inside = dom.mask == INTERIOR
    min_gl = min(float(c.values[inside].min()) for c in cols)

    consts = d1_quadrature(op.field, cols[0].source_xy)
    f1 = singular_split(cols[0], consts)
    # the centre L^2 column, left in the context for the frehse check
    col_l2 = ctx["col_l2"] = greens_column_L2(cols[0])
    f2 = singular_split(col_l2, consts)
    try:
        logrep = log_bound_check(col_l2)
        log_fit = {"slope": logrep.slope, "overshoot": logrep.overshoot}
    except RuntimeError as e:
        # too few annuli fit on a coarse grid
        log_fit = {"assessed": False, "note": str(e)}

    sec.update(
        symmetry_max_err=sym,
        min_GL=min_gl,
        f1_grad_sup=gradient_sup(cols[0], f1),
        f2_third_diff_sup=third_diff_sup(col_l2, f2),
        kernel_log_slope=_kernel_log_slope(cols[0], consts),
        hessian_log_fit=log_fit,
        sources=[[float(c.source_xy[0]), float(c.source_xy[1])]
                 for c in cols],
    )
    sec["pass"] = bool(sym <= _symmetry_bound)
    if ctx["write"]:
        fdir = os.path.join(ctx["out_dir"], "fields")
        for name, column, values in (("greens_L", "G", cols[0].values),
                                     ("greens_L2", "G", col_l2.values),
                                     ("split_f1", "f1", f1),
                                     ("split_f2", "f2", f2)):
            dom.write_field(os.path.join(fdir, name + ".csv"), column, values)


def _check_frehse(ctx, sec):
    note = coarse_grid_note(ctx["domain"])
    if note:
        sec.update(assessed=False, note=note)
        return
    col_l2 = ctx.get("col_l2")
    if col_l2 is None:   # greens did not run, or failed before building it
        col_l2 = greens_column_L2(
            greens_column_L(ctx["op"], node_near(ctx["domain"], 0.0, 0.0)))
    rep = frehse_residual(col_l2)
    ratios = rep.ratios()
    sec.update(
        radii=[float(r) for r in rep.radii],
        sup_singular=[float(v) for v in rep.sup_singular],
        sup_remainder=[float(v) for v in rep.sup_remainder],
        ratios=[float(v) for v in ratios],
        pairing=rep.pairing,
        notes=list(rep.notes),
    )
    # dichotomy: the remainder share must have collapsed by the finest ring.
    # The strict halving needs dynamic range (measured: three annuli land at
    # 0.52x on the identity field, four and more decay well past 0.5x), so
    # coarse ladders only report the trend.
    if len(ratios) >= 4:
        sec["pass"] = bool(ratios[-1] <= 0.5 * ratios[0])
    else:
        sec["assessed"] = False


def _record_descent(ctx, sec, history):
    """Report the descent steps per stage, without the probe row (iter 0)
    that opens each stage's history, and write history.csv; a failed
    descent records the rows it made before it raised."""
    steps_per_stage = [int(n) - 1 for n in
                       np.bincount([row[0] for row in history])]
    sec.update(descent_steps=sum(steps_per_stage),
               steps_per_stage=steps_per_stage)
    if ctx["write"]:
        write_history(history, os.path.join(ctx["out_dir"], "history.csv"))


def _check_minimize(ctx, sec):
    config, dom, op = ctx["config"], ctx["domain"], ctx["op"]
    try:
        state = minimize(op, dom.trace(datum_callable(config.terms)))
    except DivergenceError as e:
        _record_descent(ctx, sec, e.history)
        raise
    _record_descent(ctx, sec, state.history)
    ctx["state"] = state
    sup = supersolution_check(state)
    e_sharp = state.energy_sharp
    sel = dom.mask != EXTERIOR
    const = datum_constant(config.terms)
    max_dev = None if const is None else float(
        np.abs(state.u[sel] - const).max())

    sec.update(
        energy_final=e_sharp,
        energy_bending=state.energy_bending,
        energy_measure=state.energy_measure,
        epsilon_final=state.epsilon,
        converged=bool(state.converged),
        supersolution_max=sup,
        min_u=float(state.u[sel].min()),
        max_dev_from_const=max_dev,
    )
    ok = (state.converged
          and e_sharp <= _energy_headroom * ctx["area"]
          and sup <= _supersolution_bound)
    base = ctx["expected"]
    if "energy_bound" in base:
        sec["energy_bound"] = base["energy_bound"]
        ok = ok and e_sharp <= base["energy_bound"]
    if "max_dev" in base and max_dev is not None:
        sec["max_dev_bound"] = base["max_dev"]
        ok = ok and max_dev <= base["max_dev"]
    sec["pass"] = bool(ok)
    if ctx["write"]:
        fdir = os.path.join(ctx["out_dir"], "fields")
        dom.write_field(os.path.join(fdir, "u.csv"), "u", state.u)
        dom.write_field(os.path.join(fdir, "Lu.csv"), "Lu", dom.field(state.v))


def _check_nodal(ctx, sec):
    state, dom = ctx["state"], ctx["domain"]
    nod = extract_nodal(dom, state.u)
    nonempty = len(nod.loops) > 0
    sec.update(
        loops=len(nod.loops),
        components_negative=nod.components_negative,
        length=nod.length,
        min_grad=nod.min_grad() if nonempty else None,
    )
    # the one zero-set quadrature of the run, which the el check reuses
    dens = measure_density(dom, state.u, nod)
    ctx["nodal"], ctx["density"] = nod, dens
    ok = True
    if nonempty:
        verts = np.concatenate([lp.vertices for lp in nod.loops])
        sec["measure_mass"] = dens.total_mass()
        sec["boundary_clearance"] = float(-dom.shape.sdf(verts).max())
        ok = sec["min_grad"] > gradient_floor(dom, state.u)
    base = ctx["expected"]
    if "nonempty" in base:
        sec["expected_nonempty"] = base["nonempty"]
        ok = ok and nonempty == base["nonempty"]
    sec["pass"] = bool(ok)
    if ctx["write"]:
        ndir = os.path.join(ctx["out_dir"], "nodal")
        write_nodal_csv(nod, os.path.join(ndir, "loops.csv"))
        if nonempty:
            write_table(os.path.join(ndir, "density.csv"), "x,y,weight",
                        "%.17g,%.17g,%.17g",
                        (dens.vertices[:, 0], dens.vertices[:, 1],
                         dens.weights))


def _check_el(ctx, sec):
    config, state, dom, op = (ctx["config"], ctx["state"], ctx["domain"],
                              ctx["op"])
    nod, dens = ctx["nodal"], ctx["density"]
    try:
        bank = bump_bank(dom, nod)
    except RuntimeError as e:
        if config.resolution >= _residual_min_res:
            raise
        sec.update(assessed=False, note=str(e))
        return
    recs = el_residual(op, state, dens, bank.scalars)
    if not nod.loops:
        lhs = max(abs(r.lhs) for r in recs)
        rhs = max(abs(r.rhs) for r in recs)
        sec.update(el_lhs_max=lhs, el_rhs_max=rhs)
        sec["pass"] = bool(lhs <= _empty_identity_tol
                           and rhs <= _empty_identity_tol)
        return

    el_max = max(r.rel for r in recs)
    vrecs = domain_variation_residual(op, state, dens, bank.pushes)
    dv_max = max(r.rel for r in vrecs)

    # divergence-free control: both sides approximate an analytic zero,
    # so they must sit far below the live signal of the real bank
    crec = domain_variation_residual(op, state, dens, (bank.curl,))[0]
    px, py = sample_on_grid(dom, bank.curl)
    curl_scale = float(np.hypot(px, py).max()) * nod.length
    dv_signal = max(abs(r.lhs) for r in vrecs)

    sec.update(
        bank_centers=[[cx, cy] for cx, cy in bank.centers],
        bank_halfwidths=list(bank.halfwidths),
        el_max=el_max,
        el_residuals=[{"lhs": r.lhs, "rhs": r.rhs, "rel": r.rel}
                      for r in recs],
        dv_max=dv_max,
        dv_residuals=[{"lhs": r.lhs, "rhs": r.rhs, "rel": r.rel}
                      for r in vrecs],
        dv_curl={"lhs": crec.lhs, "rhs": crec.rhs, "scale": curl_scale,
                 "signal": dv_signal},
    )
    if config.resolution >= _residual_min_res:
        sec["pass"] = bool(el_max <= _el_bound and dv_max <= _dv_bound
                           and abs(crec.lhs) <= 0.05 * dv_signal
                           and abs(crec.rhs) <= 0.05 * curl_scale)
    else:
        sec["assessed"] = False


_check_fns = {
    "greens": _check_greens,
    "frehse": _check_frehse,
    "minimize": _check_minimize,
    "nodal": _check_nodal,
    "el": _check_el,
}


# ---------------------------------------------------------------------------
# execution


def _execute(config, write_outputs=True):
    """Run the configured checks; returns the report dict."""
    t0 = time.time()
    domain = build_domain(config.shape, config.resolution)
    try:
        op = assemble_operator(config.coeff, domain)
    except ValueError as e:
        raise ConfigError("[field] kind: %s on this grid" % e)

    requested = tuple(c for c in _all_checks if c in config.checks)
    needed = set(requested)
    for c in requested:
        needed.update(_check_deps[c])
    ordered = [c for c in _all_checks if c in needed]

    wi, wb = domain.measure_weights
    area = float(wi.sum() + wb.sum())
    # a builtin's expectations hold for its own problem at any resolution
    expected = _builtins.get(config.scenario, {})
    if expected and (config.shape, config.coeff.name, config.terms) != (
            parse_shape(expected["shape"]), make_field(expected["field"]).name,
            parse_datum(expected["u0"])):
        expected = {}

    # made before any computation, so a bad output path fails at once; each
    # writer makes its own subdirectory
    if write_outputs:
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as e:
            raise ConfigError("[output] dir (or --out): cannot create %r: %s"
                              % (config.out_dir, e.strerror or e))

    report = {
        "scenario": config.scenario,
        "config": {
            "shape": config.shape_spec,
            "resolution": config.resolution,
            "field": config.field_spec,
            "u0": config.u0_spec,
            "checks": list(requested),
        },
        "h": domain.h,
        "area_discrete": area,
        "area_exact": config.shape.area(),
        "symmetry_max_err": None,
        **dict.fromkeys(_all_checks),
        "failures": [],
    }

    ctx = {
        "config": config, "domain": domain, "op": op,
        "area": area, "write": write_outputs,
        "expected": expected, "out_dir": config.out_dir,
    }
    for name in ordered:
        sec = {"requested": name in requested}
        lost = [_products[d][1] for d in _check_deps[name]
                if _products[d][0] not in ctx]
        if lost:
            sec.update({"error": "%s: %s unavailable" % (name, lost[0]),
                        "pass": False})
        else:
            try:
                _check_fns[name](ctx, sec)
            except (ValueError, RuntimeError) as e:
                sec.update({"error": "%s: %s" % (name, e), "pass": False})
        report[name] = sec
        if name in requested and sec.get("pass") is False:
            report["failures"].append(name)

    if report["greens"]:
        # the one copy: benchmarks/workloads.py reads it at the top level
        report["symmetry_max_err"] = report["greens"].get("symmetry_max_err")

    report["timestamp"] = {
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_seconds": round(time.time() - t0, 3),
    }
    if write_outputs:
        with open_fresh(os.path.join(config.out_dir, "report.json")) as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return report


def run(config):
    """Execute the configured checks and write artifacts under the output
    directory; exit status 0 when every requested check passes."""
    report = _execute(config, write_outputs=True)
    return 1 if report["failures"] else 0


# ---------------------------------------------------------------------------
# convergence study

_study_metrics = (
    ("greens", "symmetry_max_err"),
    ("greens", "min_GL"),
    ("greens", "f1_grad_sup"),
    ("greens", "f2_third_diff_sup"),
    ("frehse", "finest_ratio"),
    ("minimize", "energy_final"),
    ("minimize", "supersolution_max"),
    ("minimize", "max_dev_from_const"),
    ("nodal", "length"),
    ("nodal", "min_grad"),
    ("el", "el_max"),
    ("el", "dv_max"),
)


def _level_metrics(report):
    out = {"area_err": abs(report["area_discrete"] - report["area_exact"])}
    for section, key in _study_metrics:
        s = report.get(section)
        if not s:
            continue
        if section == "frehse" and key == "finest_ratio":
            if s.get("ratios"):
                out[key] = s["ratios"][-1]
            continue
        if s.get(key) is not None:
            out[key] = s[key]
    return out


def convergence_study(config, levels):
    """Rerun the scenario while halving h; emit per-level metrics and
    level-to-level ratios to convergence.csv in the output directory."""
    if not 1 <= levels <= _study_max_levels:
        raise ConfigError("--levels: need 1..%d, got %d"
                          % (_study_max_levels, levels))
    resolutions = []
    r = config.resolution
    for _ in range(levels):
        if r > _study_max_resolution:
            raise ConfigError(
                "--levels: resolution %d exceeds the %d^2 memory guard"
                % (r, _study_max_resolution))
        resolutions.append(r)
        r = 2 * r - 1

    reports, failures = [], False
    for lvl, res in enumerate(resolutions):
        cfg = replace(config, resolution=res)
        rep = _execute(cfg, write_outputs=(lvl == 0))
        reports.append(rep)
        failures = failures or bool(rep["failures"])

    rows = []
    per_level = [_level_metrics(rep) for rep in reports]
    for lvl, (rep, met) in enumerate(zip(reports, per_level)):
        for key in sorted(met):
            rows.append((lvl, rep["config"]["resolution"], rep["h"],
                         key, met[key]))
            if lvl > 0 and key in per_level[lvl - 1]:
                prev = per_level[lvl - 1][key]
                if prev != 0.0:
                    rows.append((lvl, rep["config"]["resolution"], rep["h"],
                                 "ratio_" + key, met[key] / prev))

    write_table(os.path.join(config.out_dir, "convergence.csv"),
                "level,resolution,h,metric,value", "%d,%d,%.17g,%s,%.17g",
                list(zip(*rows)))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# command line


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anisoplate",
        description="Run free-boundary scenarios from INI configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario config")
    runp.add_argument("config", help="path to the INI config file")
    runp.add_argument("--check", action="append", metavar="NAME",
                      help="run only this check (repeatable; default all)")
    runp.add_argument("--out", metavar="DIR",
                      help="output directory (overrides [output] dir)")
    runp.add_argument("--levels", type=int, metavar="N",
                      help="convergence study over N resolutions")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, checks=args.check,
                             out_dir=args.out)
        if args.levels is not None:
            return convergence_study(config, args.levels)
        return run(config)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
