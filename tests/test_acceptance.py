"""End-to-end acceptance battery: one test per shipped guarantee.

Each test computes its metrics first, files a one-line verdict through the
criterion reporter, and only then asserts, so the summary section carries a
complete pass/fail ledger even when a criterion fails.  Shared states and
Green's columns are module fixtures; tests with a wall-clock budget time
their own fresh computations instead.
"""

import math
import time

import numpy as np
import pytest

from anisoplate import (
    assemble_operator,
    build_domain,
    build_frame,
    bump_bank,
    d1_quadrature,
    disk_shape,
    domain_variation_residual,
    el_residual,
    extract_nodal,
    frehse_residual,
    greens_column_L,
    greens_column_L2,
    load_config,
    m0_matrix,
    make_field,
    measure_density,
    minimize,
    node_near,
    singular_split,
)
from anisoplate.greens import gradient_sup, third_diff_sup
from anisoplate.minimizer import smoothed_energy, supersolution_check
from anisoplate.runner import _execute

_INV_2PI = 1.0 / (2.0 * math.pi)
_INV_8PI = 1.0 / (8.0 * math.pi)
_SMALL_TRACE = 0.05


# ---------------------------------------------------------------------------
# shared fixtures (module scope: each costs sparse solves)


@pytest.fixture(scope="module")
def iso():
    return make_field("identity")


@pytest.fixture(scope="module")
def disk129():
    return build_domain(disk_shape(1.0), 129)


@pytest.fixture(scope="module")
def disk257():
    return build_domain(disk_shape(1.0), 257)


@pytest.fixture(scope="module")
def op129(iso, disk129):
    return assemble_operator(iso, disk129)


@pytest.fixture(scope="module")
def op257(iso, disk257):
    return assemble_operator(iso, disk257)


@pytest.fixture(scope="module")
def colL_129(disk129, op129):
    return greens_column_L(op129, disk129.center_ij)


@pytest.fixture(scope="module")
def colL_257(disk257, op257):
    return greens_column_L(op257, disk257.center_ij)


@pytest.fixture(scope="module")
def colL2_129(disk129, op129):
    return greens_column_L2(op129, disk129.center_ij)


@pytest.fixture(scope="module")
def colL2_257(disk257, op257):
    return greens_column_L2(op257, disk257.center_ij)


@pytest.fixture(scope="module")
def small129(op129):
    return minimize(op129, _SMALL_TRACE)


@pytest.fixture(scope="module")
def small257(op257):
    return minimize(op257, _SMALL_TRACE)


@pytest.fixture(scope="module")
def nodal129(disk129, small129):
    return extract_nodal(disk129, small129.u)


@pytest.fixture(scope="module")
def nodal257(disk257, small257):
    return extract_nodal(disk257, small257.u)


# ---------------------------------------------------------------------------
# 1: pointwise frame algebra


def test_criterion_01_frame_algebra(criterion_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    fields = [make_field("identity"), make_field("diag(4,9)"),
              make_field("rot(0.7,2,1)")]
    dev_frame = 0.0
    dev_m0 = 0.0
    for fld in fields:
        for y in rng.uniform(-1.0, 1.0, (100, 2)):
            s = fld.inverse(y)
            mats = build_frame(fld, y)
            gram = np.array([[np.trace(s @ m @ s @ n) for n in mats]
                             for m in mats])
            dev_frame = max(dev_frame, float(np.abs(gram - np.eye(3)).max()))
            dev_m0 = max(dev_m0,
                         float(np.abs(m0_matrix(fld, y) - s / math.sqrt(2.0)).max()))
    elapsed = time.perf_counter() - t0
    ok = dev_frame <= 1e-12 and dev_m0 <= 1e-12 and elapsed < 1.0
    criterion_report(1, "frame algebra", ok,
                     "orthonormality dev %.2e, projector dev %.2e, %.2f s"
                     % (dev_frame, dev_m0, elapsed))
    assert dev_frame <= 1e-12
    assert dev_m0 <= 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2: circle-average singularity constant


def test_criterion_02_singularity_constant(criterion_report):
    worst = 0.0
    for a, b in ((1.0, 1.0), (2.0, 1.0), (4.0, 9.0)):
        fld = make_field("diag(%g,%g)" % (a, b))
        consts = d1_quadrature(fld, np.zeros(2))
        worst = max(worst, abs(consts.d1 - 4.0 * math.pi * math.sqrt(a * b)))
    ok = worst <= 1e-10
    criterion_report(2, "singularity constant", ok,
                     "max |d1 - closed form| %.2e over three diagonal fields"
                     % worst)
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 3: first-order column structure on the unit disk


def test_criterion_03_first_order_column_structure(criterion_report, iso, disk129):
    t0 = time.perf_counter()
    op = assemble_operator(iso, disk129)
    pairs = [((74, 65), (65, 51)), ((85, 70), (58, 76)), ((68, 63), (40, 65))]
    sym = 0.0
    # the least interior value: boundary and exterior nodes are zero
    inside = disk129.mask == 2
    min_gl = math.inf
    for ija, ijb in pairs:
        ca = greens_column_L(op, ija)
        cb = greens_column_L(op, ijb)
        va, vb = ca.values[ijb], cb.values[ija]
        sym = max(sym, abs(va - vb) / max(abs(va), abs(vb)))
        min_gl = min(min_gl, float(ca.values[inside].min()),
                     float(cb.values[inside].min()))
    col = greens_column_L(op, disk129.center_ij)
    min_gl = min(min_gl, float(col.values[inside].min()))
    r = np.hypot(disk129.X - col.source_xy[0], disk129.Y - col.source_xy[1])
    band = inside & (r >= 0.2) & (r <= 0.5)
    design = np.vstack([-np.log(r[band]), np.ones(band.sum())]).T
    coef, *_ = np.linalg.lstsq(design, col.values[band], rcond=None)
    slope_err = abs(float(coef[0]) - _INV_2PI) / _INV_2PI
    elapsed = time.perf_counter() - t0
    ok = sym <= 1e-9 and min_gl > 0.0 and slope_err <= 0.03 and elapsed < 30.0
    criterion_report(3, "column structure on the disk", ok,
                     "symmetry %.2e, min value %.2e, log slope off by %.2f%%, %.1f s"
                     % (sym, min_gl, 100.0 * slope_err, elapsed))
    assert sym <= 1e-9
    assert min_gl > 0.0
    assert slope_err <= 0.03
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4: isotropic annulus oracle for the Hessian split


def test_criterion_04_isotropic_annulus_oracle(criterion_report, colL2_257):
    rep = frehse_residual(colL2_257, pairing="inverse")
    radii = np.asarray(rep.radii)
    order = np.argsort(radii)[::-1]          # coarse -> fine
    r_sorted = radii[order]
    sing = np.asarray(rep.sup_singular)[order]
    rem = np.asarray(rep.sup_remainder)[order]
    finest_rem = float(rem[-1])
    band_ok = 0.02 <= finest_rem <= 0.06
    sel = (r_sorted <= 0.25 + 1e-12) & (r_sorted >= 1.0 / 16.0 - 1e-12)
    growth = [float(b / a) for a, b in zip(sing[sel], sing[sel][1:])]
    rem_swing = float(rem[sel].max() / rem[sel].min())
    ok = (band_ok and len(growth) >= 2
          and all(g >= 1.3 for g in growth) and rem_swing <= 1.2)
    criterion_report(4, "isotropic Hessian-split oracle", ok,
                     "finest remainder %.4f vs analytic %.4f, growth %s, swing %.3f"
                     % (finest_rem, _INV_8PI,
                        "/".join("%.2f" % g for g in growth), rem_swing))
    assert band_ok
    assert len(growth) >= 2
    for g in growth:
        assert g >= 1.3
    assert rem_swing <= 1.2


# ---------------------------------------------------------------------------
# 5: pairing dichotomy for anisotropic fields


def _annulus_ratio_pair(col):
    out = []
    for pairing in ("inverse", "trace_identity"):
        rep = frehse_residual(col, pairing=pairing)
        radii = np.asarray(rep.radii)
        rr = np.asarray(rep.sup_remainder) / np.asarray(rep.sup_singular)
        out.append(float(rr[int(np.argmin(radii))] / rr[int(np.argmax(radii))]))
    return tuple(out)


def test_criterion_05_anisotropic_dichotomy(criterion_report):
    t0 = time.perf_counter()
    results = {}

    dom = build_domain(disk_shape(1.0), 257)
    fld = make_field("diag(2,1)")
    op = assemble_operator(fld, dom)
    results["diag(2,1)"] = _annulus_ratio_pair(
        greens_column_L2(op, dom.center_ij))

    # the polynomial field is isotropic at the origin, so the source sits
    # where the coefficient is genuinely anisotropic; the radius-2 disk
    # keeps five dyadic annuli admissible around it
    dom = build_domain(disk_shape(2.0), 1025)
    fld = make_field("poly(1)", box=2.1)
    op = assemble_operator(fld, dom)
    results["poly(1)"] = _annulus_ratio_pair(
        greens_column_L2(op, node_near(dom, 1.0, 0.0)))

    elapsed = time.perf_counter() - t0
    ok = (all(inv <= 0.5 and ctrl > 0.5 for inv, ctrl in results.values())
          and elapsed < 120.0)
    criterion_report(5, "anisotropic pairing dichotomy", ok,
                     ", ".join("%s inverse %.3f vs control %.3f" % (k, i, c)
                               for k, (i, c) in results.items())
                     + ", %.0f s" % elapsed)
    for inv, ctrl in results.values():
        assert inv <= 0.5
        assert ctrl > 0.5
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6: singularity-split refinement rates


def test_criterion_06_split_refinement(criterion_report, iso, colL_129, colL_257,
                                        colL2_129, colL2_257):
    consts = d1_quadrature(iso, np.zeros(2))
    f1_ratio = (gradient_sup(colL_257, singular_split(colL_257, consts))
                / gradient_sup(colL_129, singular_split(colL_129, consts)))
    f2_ratio = (third_diff_sup(colL2_257, singular_split(colL2_257, consts))
                / third_diff_sup(colL2_129, singular_split(colL2_129, consts)))
    raw_ratio = (gradient_sup(colL_257, colL_257.values)
                 / gradient_sup(colL_129, colL_129.values))
    # the split sups sit exactly at the benign 2x discretization rate, so
    # the comparison happens at the boundary value; 1e-6 absorbs solver noise
    ok = (f1_ratio <= 2.0 + 1e-6 and f2_ratio <= 2.0 + 1e-6
          and raw_ratio >= 1.5)
    criterion_report(6, "split refinement rates", ok,
                     "f1 x%.7f, f2 x%.7f (tame), raw x%.7f (singular)"
                     % (f1_ratio, f2_ratio, raw_ratio))
    assert f1_ratio <= 2.0 + 1e-6
    assert f2_ratio <= 2.0 + 1e-6
    assert raw_ratio >= 1.5


# ---------------------------------------------------------------------------
# 7: built-in scenario energy and nodal expectations


def test_criterion_07_scenario_bounds(criterion_report, tmp_path):
    t0 = time.perf_counter()
    area = math.pi
    parts = []
    ok = True
    for name in ("iso_disk_small_c", "iso_disk_large_c"):
        path = tmp_path / (name + ".ini")
        path.write_text("[run]\nscenario = %s\n" % name)
        config = load_config(str(path), checks=("minimize", "nodal"),
                             out_dir=str(tmp_path / name))
        report = _execute(config, write_outputs=False)
        mini, nod = report["minimize"], report["nodal"]
        e = mini["energy_final"]
        ok = ok and mini["converged"] and e <= 1.02 * area
        if name == "iso_disk_small_c":
            ok = ok and e <= 2.2 and nod["loops"] > 0
            parts.append("small c: E %.4f <= 2.2, nodal nonempty %s"
                         % (e, nod["loops"] > 0))
        else:
            dev = mini["max_dev_from_const"]
            ok = ok and dev <= 1e-3 and nod["loops"] == 0
            parts.append("large c: E %.4f, const dev %.1e, nodal empty %s"
                         % (e, dev, nod["loops"] == 0))
        parts[-1] += ", headroom %.3f" % (e / area)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    criterion_report(7, "scenario energy bounds", ok,
                     "; ".join(parts) + ", %.0f s" % elapsed)
    assert ok


# ---------------------------------------------------------------------------
# 8: one-sided sign structure of L_h u


def _boundary_ring_max(dom, state):
    # interior nodes with a boundary node among their 4-neighbors
    m = dom.mask
    near = np.zeros(m.shape, dtype=bool)
    for ax, sh in ((0, 1), (0, -1), (1, 1), (1, -1)):
        near |= np.roll(m, sh, axis=ax) == 1
    ring = (m == 2) & near
    return float(np.abs(dom.field(state.v)[ring]).max())


def test_criterion_08_supersolution_sign(criterion_report, disk129, disk257,
                                         small129, small257):
    sup_c = supersolution_check(small129)
    sup_f = supersolution_check(small257)
    ring_c = _boundary_ring_max(disk129, small129)
    ring_f = _boundary_ring_max(disk257, small257)
    ratio = ring_c / ring_f
    ok = (small129.converged and small257.converged
          and sup_c <= 1e-6 and sup_f <= 1e-6 and ratio >= 1.3)
    criterion_report(8, "one-sided sign of L_h u", ok,
                     "max L_h u %.2e / %.2e, boundary ring decay x%.2f"
                     % (sup_c, sup_f, ratio))
    assert small129.converged and small257.converged
    assert sup_c <= 1e-6
    assert sup_f <= 1e-6
    assert ratio >= 1.3


# ---------------------------------------------------------------------------
# 9: stationarity identities on the minimizer


def test_criterion_09_stationarity_identities(criterion_report, op129, op257,
                                              small129, small257,
                                              nodal129, nodal257):
    el = {}
    dv = {}
    for res, op, st, nod in ((129, op129, small129, nodal129),
                             (257, op257, small257, nodal257)):
        bank = bump_bank(op.domain, nod)
        assert len(bank.scalars) == 5 and len(bank.pushes) == 5
        dens = measure_density(op.domain, st.u, nod)
        el[res] = max(r.rel for r in el_residual(op, st, dens, bank.scalars))
        dv[res] = max(r.rel for r in domain_variation_residual(op, st, dens,
                                                               bank.pushes))
    el_ratio = el[257] / el[129]
    dv_ratio = dv[257] / dv[129]
    ok = (el[257] <= 0.10 and dv[257] <= 0.10
          and el_ratio <= 0.7 and dv_ratio <= 0.7)
    criterion_report(9, "stationarity identities", ok,
                     "EL %.4f (x%.2f), shift %.4f (x%.2f) at the fine level"
                     % (el[257], el_ratio, dv[257], dv_ratio))
    assert el[257] <= 0.10
    assert dv[257] <= 0.10
    assert el_ratio <= 0.7
    assert dv_ratio <= 0.7


# ---------------------------------------------------------------------------
# 10: nodal-set gradient and component stability


def test_criterion_10_nodal_stability(criterion_report, nodal129, nodal257):
    g_c = nodal129.min_grad()
    g_f = nodal257.min_grad()
    ratio = g_f / g_c
    same = nodal129.components_negative == nodal257.components_negative
    ok = ratio >= 0.5 and same
    criterion_report(10, "nodal gradient and components", ok,
                     "min |grad u| %.4f -> %.4f (x%.3f), components %d vs %d"
                     % (g_c, g_f, ratio,
                        nodal129.components_negative, nodal257.components_negative))
    assert ratio >= 0.5
    assert same


# ---------------------------------------------------------------------------
# 11: relaxed-energy gradient against finite differences


def test_criterion_11_gradient_correctness(criterion_report, iso):
    dom = build_domain(disk_shape(1.0), 17)
    op = assemble_operator(iso, dom)
    rng = np.random.default_rng(7)
    u = np.zeros(dom.mask.shape)
    u[dom.mask >= 1] = rng.uniform(-1.0, 1.0, int((dom.mask >= 1).sum()))
    eps = 0.5
    ij = dom.interior_ij

    def packed(u):
        return tuple(u.take(f) for f in dom.flat_index)

    _, grad, _ = smoothed_energy(op, *packed(u), eps)
    step = 1e-6
    worst = 0.0
    for _ in range(10):
        d = rng.standard_normal(dom.n_interior)
        d /= np.linalg.norm(d)
        up = u.copy()
        up[ij[:, 0], ij[:, 1]] += step * d
        um = u.copy()
        um[ij[:, 0], ij[:, 1]] -= step * d
        fd = (smoothed_energy(op, *packed(up), eps)[0]
              - smoothed_energy(op, *packed(um), eps)[0]) / (2.0 * step)
        worst = max(worst, abs(fd - float(grad @ d)) / max(1.0, abs(fd)))
    ok = worst <= 1e-6
    criterion_report(11, "energy gradient vs finite differences", ok,
                     "max relative mismatch %.2e over 10 directions" % worst)
    assert worst <= 1e-6
