"""Config parsing, scenario execution, artifacts, and the CLI surface."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisoplate import (
    DivergenceError,
    assemble_operator,
    build_domain,
    disk_shape,
    greens,
    greens_column_L,
    greens_column_L2,
    grid,
    linsolve,
    make_field,
    minimize,
)
from anisoplate.runner import (
    ConfigError,
    RunConfig,
    convergence_study,
    datum_callable,
    datum_constant,
    load_config,
    main,
    parse_datum,
    run,
    _execute,
)
from anisoplate import minimizer, nodal, runner


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _cfg_text(scenario, res=None, extra=""):
    out = "[run]\nscenario = %s\n" % scenario
    if res is not None:
        out += "[grid]\nresolution = %d\n" % res
    return out + extra


# ---------------------------------------------------------------------------
# boundary datum grammar


def test_datum_constant_and_polynomial():
    t = parse_datum("0.05")
    assert datum_constant(t) == pytest.approx(0.05)
    t = parse_datum("2 + 0.5*x1^2 - x2*x1 + 1e-3*x2**4")
    assert datum_constant(t) is None
    f = datum_callable(t)
    x, y = 0.3, -0.7
    assert f(x, y) == pytest.approx(2 + 0.5 * x * x - y * x + 1e-3 * y ** 4)
    # vectorized evaluation matches pointwise
    xs = np.array([0.0, 0.5, -1.0])
    ys = np.array([1.0, -0.5, 0.25])
    np.testing.assert_allclose(f(xs, ys), [f(a, b) for a, b in zip(xs, ys)])


def test_datum_plain_variables_and_signs():
    f = datum_callable(parse_datum("x1 - x2"))
    assert f(2.0, 0.5) == pytest.approx(1.5)
    f = datum_callable(parse_datum("-3*x1^2"))
    assert f(2.0, 0.0) == pytest.approx(-12.0)


@pytest.mark.parametrize("bad", [
    "", "x1^5", "x1*x1*x1*x1*x1", "2//3", "sin(x1)", "3^x1", "x3", "+",
    "x1^2*x2^3",
])
def test_datum_rejects(bad):
    with pytest.raises(ConfigError):
        parse_datum(bad)


# ---------------------------------------------------------------------------
# config loading


def test_builtin_defaults_fill(tmp_path):
    cfg = load_config(_write(tmp_path, "a.ini",
                             _cfg_text("iso_disk_small_c")))
    assert cfg.shape_spec == "disk(1)"
    assert cfg.resolution == 129
    assert cfg.field_spec == "identity"
    assert cfg.u0_spec == "0.05"
    assert set(cfg.checks) == {"greens", "frehse", "minimize", "nodal", "el"}


def test_explicit_keys_override_builtin(tmp_path):
    text = _cfg_text("iso_disk_large_c", res=65,
                     extra="[output]\ndir = elsewhere\n")
    cfg = load_config(_write(tmp_path, "b.ini", text))
    assert cfg.resolution == 65
    assert cfg.u0_spec == "10"
    assert cfg.out_dir == "elsewhere"


def test_custom_scenario_requires_keys(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "c.ini", "[grid]\nshape = disk(1)\n"))


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "d.ini", _cfg_text("nope")))


@pytest.mark.parametrize("res", [100, 4, 2, 0])
def test_resolution_must_be_dyadic_plus_one(tmp_path, res):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "e%d.ini" % res,
                           _cfg_text("iso_disk_small_c", res=res)))


def test_checks_subset_validated(tmp_path):
    path = _write(tmp_path, "f.ini", _cfg_text("iso_disk_small_c"))
    with pytest.raises(ConfigError):
        load_config(path, checks=("bogus",))
    cfg = load_config(path, checks=("greens", "nodal"))
    assert cfg.checks == ("greens", "nodal")


def test_trace_positivity_sampled(tmp_path):
    text = _cfg_text("iso_disk_small_c") + "[boundary]\nu0 = x1\n"
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "g.ini", text))
    # strictly positive polynomial on the unit circle is fine
    text = _cfg_text("iso_disk_small_c") + "[boundary]\nu0 = 2 + x1\n"
    cfg = load_config(_write(tmp_path, "h.ini", text))
    assert cfg.u0_spec == "2 + x1"


def test_unknown_section_or_key_rejected(tmp_path):
    text = _cfg_text("iso_disk_small_c") + "[grid]\nstep_rule = fixed(0.1)\n"
    path = _write(tmp_path, "u.ini", text)
    with pytest.raises(ConfigError, match="step_rule"):
        load_config(path)
    assert main(["run", path, "--out", str(tmp_path / "u")]) == 2
    for section, line in (("solver", "tol = 1e-8"), ("energy", "max_outer = 50")):
        text = _cfg_text("iso_disk_small_c") + "[%s]\n%s\n" % (section, line)
        path = _write(tmp_path, section + ".ini", text)
        with pytest.raises(ConfigError, match=r"\[%s\]: unknown section" % section):
            load_config(path)
        assert main(["run", path, "--out", str(tmp_path / section)]) == 2


@pytest.mark.parametrize("section, key, value", [
    ("field", "kind", "diag(inf,1)"),
    ("field", "kind", "poly(nan)"),
    ("field", "kind", "poly(inf)"),
    ("field", "kind", "rot(nan,2,1)"),
    ("grid", "shape", "disk(nan)"),
    ("grid", "shape", "disk(inf)"),
    ("grid", "shape", "rect(inf,1)"),
    ("boundary", "u0", "1e999"),
    ("boundary", "u0", "1e308 + 1e308"),
    ("grid", "shape", "disk(1e-300)"),   # h^2 underflows to 0
    ("grid", "shape", "disk(1e155)"),    # the area overflows
    ("grid", "shape", "disk(1e300)"),
    ("field", "kind", "poly(1e308)"),    # 1 + alpha * box^2 overflows
    ("grid", "shape", "disk(1,2)"),      # a wrong argument count
])
def test_non_finite_spec_parameters_rejected(tmp_path, section, key, value):
    # a non-finite parameter, or a finite one whose sizes leave the float
    # range, is a config error naming its key, exit 2, not a traceback
    spec = {"grid": {"shape": "disk(1)", "resolution": "33"},
            "field": {"kind": "identity"},
            "boundary": {"u0": "0.05"},
            "run": {"checks": "greens"}}
    spec[section][key] = value
    text = "".join("[%s]\n" % sec + "".join("%s = %s\n" % kv for kv in kvs.items())
                   for sec, kvs in spec.items())
    path = _write(tmp_path, "n.ini", text)
    with pytest.raises(ConfigError, match=r"\[%s\] %s:" % (section, key)):
        load_config(path)
    assert main(["run", path, "--out", str(tmp_path / "n")]) == 2


def test_overflowing_operator_is_a_config_error(tmp_path):
    # diag(1e306,1) passes every spec check; its stencil overflows at
    # h = 1/16, so the run stops with exit 2 naming the key
    text = ("[run]\nchecks = greens\n[grid]\nshape = disk(1)\n"
            "resolution = 33\n[field]\nkind = diag(1e306,1)\n"
            "[boundary]\nu0 = 0.05\n")
    cfg = load_config(_write(tmp_path, "o.ini", text))
    with pytest.raises(ConfigError, match=r"\[field\] kind: stencil entry"):
        run(cfg)
    assert main(["run", _write(tmp_path, "o.ini", text),
                 "--out", str(tmp_path / "o")]) == 2


def _direct(**changes):
    base = dict(scenario="custom", shape_spec="disk(1)", resolution=33,
                field_spec="identity", u0_spec="0.05", checks=("greens",),
                out_dir="unused")
    return RunConfig(**dict(base, **changes))


@pytest.mark.parametrize("key, change", [
    ("[grid] shape", {"shape_spec": "blob(1)"}),
    ("[grid] shape", {"shape_spec": "disk(1e-300)"}),
    ("[field] kind", {"field_spec": "diag(2)"}),
    ("[field] kind", {"field_spec": "poly(-1)"}),
    ("[boundary] u0", {"u0_spec": "x1"}),
    ("[boundary] u0", {"u0_spec": "1e308 + 1e308"}),
])
def test_run_config_validates_however_built(key, change):
    # a direct RunConfig and dataclasses.replace pass the same checks as
    # load_config, and the parsed specs ride along unseen by == and repr
    with pytest.raises(ConfigError, match=re.escape(key)):
        _direct(**change)
    with pytest.raises(ConfigError, match=re.escape(key)):
        dataclasses.replace(_direct(), **change)
    cfg = _direct(field_spec="diag(2, 1)")
    assert cfg.shape == disk_shape(1.0) and cfg.coeff.name == "diag(2,1)"
    assert cfg.terms == ((0.05, 0, 0),)
    assert cfg == _direct(field_spec="diag(2, 1)") and "coeff" not in repr(cfg)


_fuzz_numbers = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e300, -1e300,
                     1e-300, -1e-300, 1e308, math.nan, math.inf, -math.inf]))
_fuzz_calls = st.builds(
    lambda kind, args, bare: (kind if bare and not args else
                              "%s(%s)" % (kind, ",".join(map(repr, args)))),
    st.sampled_from(("disk", "rect", "identity", "diag", "poly", "rot")),
    st.lists(_fuzz_numbers, max_size=4), st.booleans())
_fuzz_specs = st.one_of(
    _fuzz_calls, st.text(max_size=16),
    st.sampled_from(["", "(", ")", "disk(", "rect(1,2", "diag(1,2))",
                     "poly(1)(2)", "rot((1),2,1)", "disk(1e-300"]))


@settings(max_examples=150, deadline=None)
@given(shape=_fuzz_specs, kind=_fuzz_specs,
       res=st.sampled_from([5, 33, 1025]))
@example(shape="disk(1e-300)", kind="identity", res=33)
@example(shape="disk(1e155)", kind="identity", res=33)
@example(shape="disk(1e300)", kind="identity", res=33)
@example(shape="disk(1)", kind="poly(1e308)", res=33)
@example(shape="disk(1,2)", kind="identity", res=33)
def test_spec_grammar_fuzz(shape, kind, res):
    # any shape and field text either builds a config or is a ConfigError;
    # the configs are built, never run
    try:
        cfg = _direct(shape_spec=shape, field_spec=kind, resolution=res)
    except ConfigError:
        return
    assert cfg.shape is not None and cfg.coeff is not None


_datum_atoms = st.one_of(
    st.sampled_from(["0.05", "2", ".5", "5.", "-0", "1e308", "1e309",
                     "1e-320", "5e-324", "nan", "inf", "1e", "e5", "x1", "x2",
                     "x1^", "x1^5", "x2^2", "x1^0", "x1^99999999999", "\u0663",
                     "x2^\u0662", "\uff11", "(x1)", "x1x2", " "]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=4))
_datum_texts = st.lists(
    st.tuples(st.sampled_from(["", "+", "-", "--", "*", "**", " + ", "*-"]),
              _datum_atoms),
    min_size=1, max_size=5).map(lambda terms: "".join(j + a for j, a in terms))


@settings(max_examples=150, deadline=None)
@given(u0=_datum_texts,
       shape=st.sampled_from(["disk(1)", "rect(2,1.5)", "disk(1e100)",
                              "disk(1e-100)"]))
@example(u0="1e309", shape="disk(1)")
@example(u0="1e-320", shape="disk(1)")
@example(u0="1e200*x1^2", shape="disk(1e100)")
@example(u0="1 + x1^4", shape="disk(1e100)")
@example(u0="1 - 1e-320*x2", shape="disk(1e-100)")
def test_datum_fuzz(u0, shape):
    # any [boundary] u0 text either builds a config or is a ConfigError,
    # with no numpy warning on the way; the configs are built, never run
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cfg = _direct(shape_spec=shape, u0_spec=u0)
        except ConfigError:
            return
    assert cfg.terms and all(math.isfinite(c) for c, _, _ in cfg.terms)


@pytest.mark.parametrize("radius, status", [("1e150", 2), ("1e-150", 2),
                                            ("1e100", 0), ("1e-100", 0)])
def test_extreme_disk_greens_run_or_config_error(tmp_path, capsys, radius,
                                                 status):
    # 2 h^3, the third differences' divisor, is the highest power of h a
    # run forms: a disk whose h^3 or 1/h^3 leaves the float range is a
    # config error; inside it the greens check runs as on the unit disk,
    # whose Green's function it is up to a constant
    text = ("[run]\nchecks = greens\n[grid]\nshape = disk(%s)\n"
            "resolution = 33\n[boundary]\nu0 = 0.05\n" % radius)
    out = tmp_path / "x"
    assert main(["run", _write(tmp_path, "x.ini", text), "--out", str(out)]) == status
    if status == 2:
        assert "config error: [grid] shape: disk(%s)" % radius in capsys.readouterr().err
        assert not out.exists()
        return
    with open(out / "report.json") as f:
        rep = json.load(f)
    unit = _execute(_direct(), write_outputs=False)
    assert rep["symmetry_max_err"] <= 1e-12
    assert rep["greens"]["kernel_log_slope"] == pytest.approx(
        unit["greens"]["kernel_log_slope"], rel=1e-12)


def test_config_syntax_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "k.ini", "no sections here\n"))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))


# ---------------------------------------------------------------------------
# scenario execution (kept at resolution 65 for speed)


@pytest.fixture(scope="module")
def large65_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("large65")
    cfg = RunConfig(scenario="iso_disk_large_c", shape_spec="disk(1)",
                    resolution=65, field_spec="identity", u0_spec="10",
                    checks=("greens", "frehse", "minimize", "nodal", "el"),
                    out_dir=str(out))
    status = run(cfg)
    with open(out / "report.json") as f:
        return status, json.load(f), out


def test_large_scenario_exit_zero(large65_report):
    status, rep, _ = large65_report
    assert status == 0
    assert rep["failures"] == []


def test_report_contract_keys(large65_report):
    # each value once: the top level holds the run's own values, one
    # section per check and the one greens copy that benchmarks/ reads
    _, rep, _ = large65_report
    assert sorted(rep) == [
        "area_discrete", "area_exact", "config", "el", "failures", "frehse",
        "greens", "h", "minimize", "nodal", "scenario", "symmetry_max_err",
        "timestamp"]
    g = rep["greens"]
    assert rep["symmetry_max_err"] == g["symmetry_max_err"] <= 1e-9
    assert g["min_GL"] > 0.0
    assert rep["h"] == 2.0 / 64
    assert g["f1_grad_sup"] > 0
    assert g["f2_third_diff_sup"] > 0
    # too coarse for annulus metrics at h = 1/32: reported, not assessed
    assert rep["frehse"]["assessed"] is False
    assert "note" in rep["frehse"]
    assert "timestamp" in rep


def test_large_scenario_expectations(large65_report):
    _, rep, _ = large65_report
    m = rep["minimize"]
    assert m["converged"] is True
    assert m["max_dev_from_const"] <= 1e-3
    assert m["energy_final"] <= 1.02 * rep["area_exact"]
    n = rep["nodal"]
    assert n["loops"] == 0
    assert n["expected_nonempty"] is False
    e = rep["el"]
    assert n["loops"] == 0 and "el_max" not in e
    assert e["el_lhs_max"] <= 1e-8


def test_artifacts_written(large65_report):
    _, _, out = large65_report
    for rel in ("report.json", "history.csv", "fields/u.csv",
                "fields/Lu.csv", "fields/greens_L.csv", "fields/split_f1.csv",
                "nodal/loops.csv"):
        assert (out / rel).exists(), rel
    with open(out / "fields" / "u.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["x", "y", "u"]
    vals = np.array([[float(c) for c in r] for r in rows[1:]])
    assert np.all(np.isfinite(vals))
    assert np.abs(vals[:, 2] - 10.0).max() <= 1e-3


def test_check_gating_no_minimizer_artifacts(tmp_path):
    cfg = RunConfig(scenario="iso_disk_large_c", shape_spec="disk(1)",
                    resolution=65, field_spec="identity", u0_spec="10",
                    checks=("greens",), out_dir=str(tmp_path / "g"))
    assert run(cfg) == 0
    out = tmp_path / "g"
    assert (out / "fields" / "greens_L.csv").exists()
    assert not (out / "fields" / "u.csv").exists()
    assert not (out / "history.csv").exists()
    assert not (out / "nodal").exists()
    with open(out / "report.json") as f:
        rep = json.load(f)
    assert rep["minimize"] is None
    assert rep["nodal"] is None


def test_unwritable_output_dir_fails_before_any_check(tmp_path, monkeypatch):
    # the runner makes the output directory before any check runs; the
    # checks' writers make their own subdirectories
    calls = []
    monkeypatch.setattr(runner, "minimize", lambda *a: calls.append(a))
    (tmp_path / "file").write_text("")
    cfg = RunConfig(scenario="iso_disk_large_c", shape_spec="disk(1)",
                    resolution=17, field_spec="identity", u0_spec="10",
                    checks=("minimize",), out_dir=str(tmp_path / "file" / "o"))
    with pytest.raises(ConfigError, match=r"\[output\] dir .*Not a directory"):
        run(cfg)
    assert calls == []


def test_cli_unwritable_output_dir_exits_two(tmp_path, capsys):
    # an output directory that cannot be made is a config error naming the
    # key, like every other bad input, not a traceback
    (tmp_path / "afile").write_text("")
    path = _write(tmp_path, "o.ini", _cfg_text("iso_disk_large_c", res=17))
    bad = str(tmp_path / "afile" / "o")
    assert main(["run", path, "--check", "minimize", "--out", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [output] dir (or --out)")
    assert bad in err


def test_small_scenario_nonempty_nodal(tmp_path):
    cfg = RunConfig(scenario="iso_disk_small_c", shape_spec="disk(1)",
                    resolution=65, field_spec="identity", u0_spec="0.05",
                    checks=("minimize", "nodal"), out_dir=str(tmp_path / "s"))
    assert run(cfg) == 0
    with open(tmp_path / "s" / "report.json") as f:
        rep = json.load(f)
    assert rep["minimize"]["energy_final"] <= 2.2
    assert rep["nodal"]["loops"] > 0
    assert rep["nodal"]["components_negative"] == 1
    assert (tmp_path / "s" / "nodal" / "loops.csv").exists()
    # the descent steps per stage, without the probe row that opens each
    # stage's history
    m = rep["minimize"]
    with open(tmp_path / "s" / "history.csv") as f:
        stages = [int(row[0]) for row in list(csv.reader(f))[1:]]
    assert m["steps_per_stage"] == [stages.count(s) - 1
                                    for s in range(max(stages) + 1)]
    assert m["descent_steps"] == sum(m["steps_per_stage"]) == \
        len(stages) - len(m["steps_per_stage"]) > 0
    assert "iterations" not in m
    # greens never ran: contract keys stay null
    assert rep["symmetry_max_err"] is None
    assert rep["greens"] is None


def test_polynomial_trace_through_minimizer(tmp_path):
    cfg = RunConfig(scenario="custom", shape_spec="disk(1)", resolution=33,
                    field_spec="identity", u0_spec="0.05 + 0.01*x1",
                    checks=("minimize",), out_dir=str(tmp_path / "p"))
    assert run(cfg) == 0
    with open(tmp_path / "p" / "report.json") as f:
        rep = json.load(f)
    assert rep["minimize"]["converged"] is True
    assert rep["minimize"]["max_dev_from_const"] is None


@pytest.mark.parametrize("override", ["[field]\nkind = rot(0.7,2,1)\n",
                                      "[grid]\nshape = disk(0.5)\n"],
                         ids=["rot_field", "small_disk"])
def test_builtin_expectations_dropped_on_override(tmp_path, override):
    # a rotated field raises the energy past the identity's bound, and on
    # disk(0.5) the zero set is empty: neither is the builtin's problem
    cfg = load_config(_write(tmp_path, "o.ini",
                             _cfg_text("iso_disk_small_c") + override),
                      out_dir=str(tmp_path / "o"))
    assert run(cfg) == 0
    with open(tmp_path / "o" / "report.json") as f:
        rep = json.load(f)
    assert rep["failures"] == []
    for key in ("energy_bound", "max_dev_bound"):
        assert key not in rep["minimize"]
    assert "expected_nonempty" not in rep["nodal"]


def test_coarse_disk2_run_reports_not_assessed(tmp_path):
    # at h = 1/16 on disk(2) the Hessian log fit finds too few annuli and
    # the zero set leaves no room for a test bump: both are reported
    cfg = RunConfig(scenario="custom", shape_spec="disk(2)", resolution=65,
                    field_spec="identity", u0_spec="0.05",
                    checks=("greens", "frehse", "minimize", "nodal", "el"),
                    out_dir=str(tmp_path / "d2"))
    assert run(cfg) == 0
    with open(tmp_path / "d2" / "report.json") as f:
        rep = json.load(f)
    assert rep["failures"] == []
    assert rep["greens"]["pass"] is True
    assert rep["greens"]["hessian_log_fit"]["assessed"] is False
    assert "annuli" in rep["greens"]["hessian_log_fit"]["note"]
    assert rep["el"]["assessed"] is False
    assert "test-bump" in rep["el"]["note"]


def test_scaled_builtin_on_disk2_passes_el(tmp_path):
    # u_R(x) = R^2 u(x/R) maps the builtin onto disk(2) with u0 = 0.2; the
    # test bumps on its zero set scale with the domain, so the identity
    # holds as it does on the unit disk
    cfg = RunConfig(scenario="custom", shape_spec="disk(2)", resolution=129,
                    field_spec="identity", u0_spec="0.2",
                    checks=("minimize", "nodal", "el"),
                    out_dir=str(tmp_path / "d2"))
    assert run(cfg) == 0
    with open(tmp_path / "d2" / "report.json") as f:
        rep = json.load(f)
    assert rep["el"]["pass"] is True and rep["el"]["el_max"] <= 0.15


@pytest.mark.parametrize("shape, res", [("disk(1)", 5), ("disk(1)", 9),
                                        ("rect(100,1)", 33),
                                        ("rect(1e-6,1)", 33)])
def test_coarse_greens_run_reports_null_sups(tmp_path, shape, res):
    # no node is admissible for the split sups on these grids: the sups
    # are null, and reciprocity and positivity still decide the check
    cfg = RunConfig(scenario="custom", shape_spec=shape, resolution=res,
                    field_spec="identity", u0_spec="0.05",
                    checks=("greens",), out_dir=str(tmp_path / "g"))
    assert run(cfg) == 0
    with open(tmp_path / "g" / "report.json") as f:
        rep = json.load(f)
    assert rep["failures"] == [] and "error" not in rep["greens"]
    g = rep["greens"]
    assert g["f1_grad_sup"] is None and g["f2_third_diff_sup"] is None
    assert rep["symmetry_max_err"] <= 1e-9 and g["min_GL"] > 0.0
    level = runner._level_metrics(rep)
    assert "f1_grad_sup" not in level and "f2_third_diff_sup" not in level
    assert level["symmetry_max_err"] == rep["symmetry_max_err"]


def test_empty_set_el_bank_lies_inside_small_disk():
    # with an empty zero set the EL identity is tested on a bank placed
    # inside the domain, so on disk(0.5) it reads a roundoff-sized left
    # side rather than the exact 0 of bumps lying wholly outside it
    cfg = RunConfig(scenario="custom", shape_spec="disk(0.5)",
                    resolution=129, field_spec="identity", u0_spec="10",
                    checks=("el",), out_dir="unused")
    rep = _execute(cfg, write_outputs=False)
    e = rep["el"]
    assert rep["failures"] == []
    assert rep["nodal"]["loops"] == 0 and e["pass"] is True
    assert 0.0 < e["el_lhs_max"] <= 1e-8


def _stalled_minimize(op, u0):
    raise DivergenceError("descent stalled", ())


def _rim_nodal(domain, u):
    raise ValueError("field is nonpositive on a domain boundary node")


@pytest.mark.parametrize("checks", [("el",), ("minimize", "nodal", "el")])
@pytest.mark.parametrize("target,stub,errors", [
    ("minimize", _stalled_minimize,
     {"minimize": "minimize: descent stalled",
      "nodal": "nodal: minimizer unavailable",
      "el": "el: minimizer unavailable"}),
    ("extract_nodal", _rim_nodal,
     {"nodal": "nodal: field is nonpositive on a domain boundary node",
      "el": "el: nodal set unavailable"}),
])
def test_unavailable_dependency_fails_dependents(tmp_path, monkeypatch,
                                                 checks, target, stub, errors):
    # a check whose dependency raised does not run: it records why, fails,
    # and counts as a failure only when it was requested
    monkeypatch.setattr(runner, target, stub)
    cfg = RunConfig(scenario="iso_disk_large_c", shape_spec="disk(1)",
                    resolution=33, field_spec="identity", u0_spec="10",
                    checks=checks, out_dir=str(tmp_path / "out"))
    assert run(cfg) == 1
    with open(tmp_path / "out" / "report.json") as f:
        rep = json.load(f)
    for name, text in errors.items():
        sec = rep[name]
        assert sec["error"] == text
        assert sec["pass"] is False
        assert sec["requested"] is (name in checks)
        if name != target.replace("extract_", ""):
            assert sorted(sec) == ["error", "pass", "requested"]
    if target == "extract_nodal":
        assert rep["minimize"]["pass"] is True
    assert rep["failures"] == [c for c in ("minimize", "nodal", "el")
                               if c in errors and c in checks]


def test_stationary_start_reports_no_steps():
    # the harmonic extension of the large constant trace is already
    # stationary, so every stage ends on the gradient floor before a step
    cfg = RunConfig(scenario="iso_disk_large_c", shape_spec="disk(1)",
                    resolution=65, field_spec="identity", u0_spec="10",
                    checks=("minimize",), out_dir="unused")
    m = _execute(cfg, write_outputs=False)["minimize"]
    assert m["pass"] is True and m["descent_steps"] == 0
    assert m["steps_per_stage"] == [0] * len(m["steps_per_stage"])
    assert len(m["steps_per_stage"]) > 1


def test_failed_descent_reports_its_steps_and_history(tmp_path, monkeypatch):
    # no step can meet an Armijo slope this steep, so the first descent step
    # exhausts its halvings; the section still fails with the error, and
    # reports and writes the history rows that DivergenceError carries
    monkeypatch.setattr(minimizer, "_armijo_slope", 1e6)
    cfg = RunConfig(scenario="custom", shape_spec="disk(1)", resolution=17,
                    field_spec="identity", u0_spec="0.05",
                    checks=("minimize",), out_dir=str(tmp_path / "out"))
    rep = _execute(cfg)
    m = rep["minimize"]
    assert rep["failures"] == ["minimize"] and m["pass"] is False
    assert m["error"] == ("minimize: backtracking exhausted 50 halvings "
                          "without descent")
    assert m["steps_per_stage"] == [0] and m["descent_steps"] == 0
    with open(tmp_path / "out" / "history.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["stage", "iter", "E_eps", "E_sharp", "max_Lu"]
    assert [row[:2] for row in rows[1:]] == [["0", "0"]]


def test_el_reuses_the_nodal_density(tmp_path, monkeypatch):
    # the nodal check computes the run's one zero-set quadrature and el
    # reads it, midpoint gradients included: grad u is taken twice, for the
    # nodal set and for the quadrature; when that quadrature raises, el has
    # no nodal set to use
    calls, seen_u, grads = [], [], []
    real = runner.measure_density
    real_extract, real_gradient = runner.extract_nodal, nodal.central_gradient

    def counting(domain, u, nod):
        calls.append(len(nod.loops))
        return real(domain, u, nod)

    def extract(domain, u):
        seen_u.append(u)
        return real_extract(domain, u)

    def gradient(domain, values):
        grads.append(values)
        return real_gradient(domain, values)

    monkeypatch.setattr(runner, "measure_density", counting)
    monkeypatch.setattr(runner, "extract_nodal", extract)
    monkeypatch.setattr(nodal, "central_gradient", gradient)
    path = _write(tmp_path, "c.ini", _cfg_text("iso_disk_small_c", res=65))
    cfg = load_config(path, checks=("minimize", "nodal", "el"),
                      out_dir=str(tmp_path / "out"))
    rep = _execute(cfg, write_outputs=False)
    assert len(calls) == 1 and calls[0] > 0
    assert "error" not in rep["el"] and rep["nodal"]["loops"] > 0
    assert len(seen_u) == 1
    assert sum(g is seen_u[0] for g in grads) == 2

    def degenerate(domain, u, nodal):
        raise RuntimeError("degenerate gradient 0 on the zero set")

    monkeypatch.setattr(runner, "measure_density", degenerate)
    rep = _execute(cfg, write_outputs=False)
    assert rep["nodal"]["error"] == (
        "nodal: degenerate gradient 0 on the zero set")
    assert rep["nodal"]["loops"] > 0
    assert rep["el"] == {"requested": True, "pass": False,
                         "error": "el: nodal set unavailable"}


def test_negative_column_fails_the_greens_check(tmp_path, monkeypatch):
    # greens_column_L raises on a column below its positivity floor; with
    # the floor raised above the first (centre) column's interior minimum,
    # the greens section names that minimum in its error and the run exits 1
    dom = build_domain(disk_shape(1.0), 33)
    col = greens_column_L(assemble_operator(make_field("identity"), dom),
                          dom.center_ij)
    gmin = col.values.take(dom.flat_index[0]).min()
    assert 0.0 < gmin < 0.5
    monkeypatch.setattr(greens, "_positivity_floor", 0.5)
    cfg = RunConfig(scenario="custom", shape_spec="disk(1)", resolution=33,
                    field_spec="identity", u0_spec="0.05",
                    checks=("greens",), out_dir=str(tmp_path / "g"))
    assert run(cfg) == 1
    with open(tmp_path / "g" / "report.json") as f:
        rep = json.load(f)
    assert rep["greens"] == {
        "requested": True, "pass": False,
        "error": "greens: second-order Green's column went negative: "
                 "min %.3e" % gmin}
    assert rep["failures"] == ["greens"]
    assert rep["symmetry_max_err"] is None


@pytest.mark.parametrize("spec", ["diag(1e-40,1)", "diag(1e300,1)"])
def test_underflowing_cross_values_fail_the_greens_check(tmp_path, spec):
    # on these fields a pair of first-order columns can both read 0 at each
    # other's source; equal cross values have reciprocity defect 0, not
    # 0/0, so the run goes on to the check's own error, exits 1 and writes
    # its report
    text = ("[run]\nchecks = greens\n[grid]\nshape = disk(1)\n"
            "resolution = 33\n[field]\nkind = %s\n"
            "[boundary]\nu0 = 0.05\n" % spec)
    out = tmp_path / "g"
    assert main(["run", _write(tmp_path, "g.ini", text), "--out", str(out)]) == 1
    with open(out / "report.json") as f:
        rep = json.load(f)
    assert rep["failures"] == ["greens"]
    assert rep["greens"]["pass"] is False
    assert rep["greens"]["error"].startswith("greens: ")


def _plain_json(obj):
    """True when obj holds only dict (str keys), list, str, int, float,
    bool and None: the types json.dump writes without a default."""
    if isinstance(obj, dict):
        return all(type(k) is str and _plain_json(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(_plain_json(v) for v in obj)
    return obj is None or type(obj) in (str, int, float, bool)


@pytest.mark.parametrize("case", ["not_assessed_33", "failed_minimize",
                                  "empty_set_large_c"])
def test_reports_hold_plain_json_types(monkeypatch, case):
    # report.json is written with no default converter, so every value of
    # every report path must already be a plain Python type; these are
    # paths that no reference run of tools/compare_outputs.py takes
    checks = ("greens", "frehse", "minimize", "nodal", "el")
    scenario, res = "iso_disk_small_c", 33
    if case == "failed_minimize":
        monkeypatch.setattr(runner, "minimize", _stalled_minimize)
    elif case == "empty_set_large_c":
        scenario, res = "iso_disk_large_c", 65
    cfg = RunConfig(scenario=scenario, shape_spec="disk(1)", resolution=res,
                    field_spec="identity",
                    u0_spec="10" if scenario == "iso_disk_large_c" else "0.05",
                    checks=checks, out_dir="unused")
    rep = _execute(cfg, write_outputs=False)
    json.dumps(rep)
    assert _plain_json(rep)
    if case == "not_assessed_33":
        assert rep["frehse"]["assessed"] is False
        assert rep["greens"]["hessian_log_fit"]["assessed"] is False
        assert rep["el"]["assessed"] is False
    elif case == "failed_minimize":
        assert rep["failures"] == ["minimize", "nodal", "el"]
    else:
        assert "el_lhs_max" in rep["el"] and rep["nodal"]["loops"] == 0


def test_deterministic_report():
    cfg = RunConfig(scenario="iso_disk_large_c", shape_spec="disk(1)",
                    resolution=65, field_spec="identity", u0_spec="10",
                    checks=("minimize", "nodal"), out_dir="unused")
    a = _execute(cfg, write_outputs=False)
    b = _execute(cfg, write_outputs=False)
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_builtin_run_factorizes_once(tmp_path, monkeypatch):
    # every solve of a run goes through the one operator's sparse LU
    calls = []
    real_splu = linsolve.splu
    monkeypatch.setattr(linsolve, "splu", lambda m: calls.append(m) or real_splu(m))
    cfg = load_config(_write(tmp_path, "a.ini", _cfg_text("iso_disk_small_c")),
                      out_dir=str(tmp_path / "out"))
    assert len(cfg.checks) == 5
    assert run(cfg) == 0
    assert len(calls) == 1
    # the Dirichlet solve, the minimizer and both column kinds on one
    # operator share its factorization
    calls.clear()
    dom = build_domain(disk_shape(1.0), 33)
    fld = make_field("identity")
    op = assemble_operator(fld, dom)
    op.solve_dirichlet(np.ones(dom.n_interior), np.zeros(dom.n_boundary))
    minimize(op, 0.05)
    greens_column_L(op, dom.center_ij)
    greens_column_L2(greens_column_L(op, dom.center_ij))
    assert len(calls) == 1 and calls[0] is op.matrix


def test_greens_frehse_run_assembles_once(tmp_path, monkeypatch):
    # the Hessian-structure audit applies the column's own operator, so a
    # run assembles exactly one; every module binding is counted
    calls = []
    real = grid.assemble_operator

    def counting(field, domain):
        calls.append(domain.resolution)
        return real(field, domain)

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "anisoplate"
                and getattr(mod, "assemble_operator", None) is real):
            monkeypatch.setattr(mod, "assemble_operator", counting)
    text = ("[run]\nchecks = greens, frehse\n[grid]\nshape = disk(1)\n"
            "resolution = 129\n[field]\nkind = diag(2,1)\n"
            "[boundary]\nu0 = 0.05\n")
    cfg = load_config(_write(tmp_path, "g.ini", text),
                      out_dir=str(tmp_path / "out"))
    assert run(cfg) == 0
    assert calls == [129]


@pytest.mark.parametrize("checks, resolution, solves", [
    ("greens,frehse", 129, 4),
    ("frehse", 129, 2),
    ("frehse", 65, 0),      # h > 1/64: not assessed, nothing solved
])
def test_greens_frehse_solve_and_factorization_counts(
        tmp_path, monkeypatch, checks, resolution, solves):
    # greens solves three first-order columns and the centre L^2 column
    # from the first of them; frehse reuses that L^2 column, and alone
    # solves its own pair.  One factorization serves all; every module
    # binding of solve_spd is counted
    solve_calls, splu_calls = [], []
    real_solve, real_splu = linsolve.solve_spd, linsolve.splu

    def counting_solve(matrix, rhs):
        solve_calls.append(matrix)
        return real_solve(matrix, rhs)

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "anisoplate"
                and getattr(mod, "solve_spd", None) is real_solve):
            monkeypatch.setattr(mod, "solve_spd", counting_solve)
    monkeypatch.setattr(linsolve, "splu",
                        lambda m: splu_calls.append(m) or real_splu(m))
    text = ("[run]\nchecks = %s\n[grid]\nshape = disk(1)\n"
            "resolution = %d\n[field]\nkind = diag(2,1)\n"
            "[boundary]\nu0 = 0.05\n" % (checks, resolution))
    cfg = load_config(_write(tmp_path, "c.ini", text),
                      out_dir=str(tmp_path / "out"))
    assert run(cfg) == 0
    assert len(solve_calls) == solves
    assert len(splu_calls) == min(solves, 1)


def test_greens_run_builds_psi_once_per_source(tmp_path, monkeypatch):
    # the centre first-order column and the centre L^2 column share their
    # source and operator, so both splits, both sups, the kernel slope and
    # the frehse audit read one A^-1 grid (inverted once over the whole
    # grid), one psi and one admissible-node mask (grown once); the log fit
    # and the frehse audit read the L^2 column's one Hessian
    calls = {name: [] for name in ("invert_spd2", "grid_hessian", "grow")}
    for name, log in calls.items():
        real = getattr(greens, name)
        monkeypatch.setattr(greens, name, lambda *a, real=real, log=log:
                            log.append(a) or real(*a))
    for checks, resolution in (("greens", 65), ("greens, frehse", 129)):
        for log in calls.values():
            log.clear()
        text = ("[run]\nchecks = %s\n[grid]\nshape = disk(1)\n"
                "resolution = %d\n[field]\nkind = diag(2,1)\n"
                "[boundary]\nu0 = 0.05\n" % (checks, resolution))
        cfg = load_config(_write(tmp_path, "p.ini", text),
                          out_dir=str(tmp_path / "out"))
        assert run(cfg) == 0
        n = resolution + 2
        assert [a[0].shape for a in calls["invert_spd2"]] == [(n, n, 2, 2)]
        assert len(calls["grid_hessian"]) == len(calls["grow"]) == 1


@pytest.mark.parametrize("field", ["diag(2,1)", "rot(0.7,2,1)"])
def test_frehse_section_same_from_either_column_origin(field):
    # the frehse check audits the L^2 column that greens left behind, or
    # builds the same column itself when greens does not run
    sections = []
    for checks in (("frehse",), ("greens", "frehse")):
        cfg = RunConfig(scenario="custom", shape_spec="disk(1)",
                        resolution=129, field_spec=field, u0_spec="0.05",
                        checks=checks, out_dir="unused")
        sections.append(json.dumps(_execute(cfg, write_outputs=False)
                                   ["frehse"], sort_keys=True))
    assert sections[0] == sections[1]


def _leaves(value, path=""):
    """(path, value) of every scalar in a nest of report dicts and lists."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, "%s.%s" % (path, k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, "%s[%d]" % (path, i))
    else:
        yield path, value


@pytest.mark.parametrize("a, b", [
    (("disk(1)", "diag(2,1)"), ("disk(1)", "diag(1,2)")),
    (("rect(2,1.5)", "diag(2,1)"), ("rect(1.5,2)", "diag(1,2)")),
    (("disk(1)", "rot(0.7,2,1)"), ("disk(1)", "rot(-0.7,2,1)")),
], ids=["transpose-disk", "transpose-rect", "reflect-rot"])
def test_reports_agree_across_exact_symmetries(a, b):
    # transposing the plane (swapping the shape's and the field's axes) or
    # reflecting it (x1 -> -x1 turns rot(t,a,b) into rot(-t,a,b)) maps one
    # discrete problem exactly onto the other, so every minimize, nodal and
    # frehse value, and every greens value of the centre source, agrees:
    # counts and flags exactly, floats to 1e-10 relative.  Not compared:
    # el and failures (the bank takes loop vertices by index in marching
    # order), and min_GL and symmetry_max_err (the off-centre sources sit
    # at fixed fractions of the box and are not mapped)
    leaves = []
    for shape, field in (a, b):
        cfg = RunConfig(scenario="custom", shape_spec=shape, resolution=129,
                        field_spec=field, u0_spec="0.05",
                        checks=("greens", "frehse", "minimize", "nodal", "el"),
                        out_dir="unused")
        rep = _execute(cfg, write_outputs=False)
        rep["greens"] = {k: rep["greens"][k] for k in (
            "f1_grad_sup", "f2_third_diff_sup", "kernel_log_slope",
            "hessian_log_fit")}
        leaves.append(dict(_leaves({sec: rep[sec] for sec in (
            "minimize", "nodal", "frehse", "greens")})))
    la, lb = leaves
    assert la.keys() == lb.keys()
    for path, x in la.items():
        y = lb[path]
        if isinstance(x, float):
            assert abs(x - y) <= 1e-10 * max(abs(x), abs(y)), (path, x, y)
        else:
            assert x == y, path


# ---------------------------------------------------------------------------
# convergence study


def test_convergence_study_rows(tmp_path):
    cfg = RunConfig(scenario="iso_disk_large_c", shape_spec="disk(1)",
                    resolution=65, field_spec="identity", u0_spec="10",
                    checks=("greens",), out_dir=str(tmp_path / "c"))
    assert convergence_study(cfg, 2) == 0
    with open(tmp_path / "c" / "convergence.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["level", "resolution", "h", "metric", "value"]
    table = {}
    for lvl, res, h, metric, value in rows[1:]:
        table[(int(lvl), metric)] = float(value)
    assert (0, "area_err") in table and (1, "area_err") in table
    assert (0, "symmetry_max_err") in table
    # first-order masking: disk area error shrinks by 1.5-2.5x per halving
    assert 0.4 <= table[(1, "ratio_area_err")] <= 0.67
    # the subtracted-kernel gradient sup doubles per halving on this
    # degenerate configuration; the ratio row must see exactly that
    assert table[(1, "ratio_f1_grad_sup")] == pytest.approx(2.0, abs=0.05)
    assert table[(1, "symmetry_max_err")] <= 1e-9


def test_study_guards():
    cfg = RunConfig(scenario="iso_disk_large_c", shape_spec="disk(1)",
                    resolution=65, field_spec="identity", u0_spec="10",
                    checks=("greens",), out_dir="unused")
    with pytest.raises(ConfigError):
        convergence_study(cfg, 5)
    with pytest.raises(ConfigError):
        convergence_study(cfg, 0)
    big = RunConfig(scenario="iso_disk_large_c", shape_spec="disk(1)",
                    resolution=513, field_spec="identity", u0_spec="10",
                    checks=("greens",), out_dir="unused")
    with pytest.raises(ConfigError):
        convergence_study(big, 2)


# ---------------------------------------------------------------------------
# command line


def test_cli_run_and_flags(tmp_path):
    path = _write(tmp_path, "cli.ini", _cfg_text("iso_disk_large_c", res=65))
    out = tmp_path / "cli_out"
    assert main(["run", path, "--check", "minimize", "--check", "nodal",
                 "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert not (out / "fields" / "greens_L.csv").exists()


def test_setup_imports_leave_scipy_extras_unloaded(tmp_path):
    # importing the package and loading a config touch numpy and
    # scipy.sparse only: scipy.ndimage is not used, and csgraph and
    # sparse.linalg load at the first component count and factorization
    deferred = ("scipy.ndimage", "scipy.sparse.csgraph",
                "scipy.sparse.linalg")
    path = _write(tmp_path, "c.ini", _cfg_text("iso_disk_small_c"))
    code = ("import sys\n"
            "import anisoplate\n"
            "from anisoplate.runner import load_config\n"
            "load_config(sys.argv[1], out_dir=sys.argv[2])\n"
            "print(' '.join(m for m in %r if m in sys.modules))" % (deferred,))
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, path, str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cli_config_errors_exit_two(tmp_path):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    path = _write(tmp_path, "bad.ini", _cfg_text("iso_disk_small_c", res=100))
    assert main(["run", path]) == 2
    ok = _write(tmp_path, "ok.ini", _cfg_text("iso_disk_large_c", res=65))
    assert main(["run", ok, "--check", "bogus"]) == 2
    assert main(["run", ok, "--levels", "9", "--out",
                 str(tmp_path / "x")]) == 2
