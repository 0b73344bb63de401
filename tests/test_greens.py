"""Green's-column behavior: singularity structure, reciprocity, Hessian
splitting, and the annulus metrics built on top of them."""

import dataclasses

import numpy as np
import pytest

from anisoplate import (
    assemble_operator,
    build_domain,
    d1_quadrature,
    disk_shape,
    frehse_residual,
    greens_column_L,
    greens_column_L2,
    log_bound_check,
    make_field,
    node_near,
    singular_split,
)
from anisoplate import greens, linsolve
from anisoplate.greens import (
    dyadic_annuli,
    gradient_sup,
    grid_hessian,
    grid_third_diff,
    third_diff_sup,
)
from anisoplate.grid import EXTERIOR

_INV_2PI = 1.0 / (2.0 * np.pi)
_INV_8PI = 1.0 / (8.0 * np.pi)


# ---------------------------------------------------------------------------
# fixtures: shared columns (each costs a sparse solve, so reuse aggressively)


@pytest.fixture(scope="module")
def disk129():
    return build_domain(disk_shape(1.0), 129)


@pytest.fixture(scope="module")
def disk257():
    return build_domain(disk_shape(1.0), 257)


@pytest.fixture(scope="module")
def iso129(disk129):
    fld = make_field("identity")
    return assemble_operator(fld, disk129)


@pytest.fixture(scope="module")
def iso257(disk257):
    fld = make_field("identity")
    return assemble_operator(fld, disk257)


@pytest.fixture(scope="module")
def center_col_L(disk129, iso129):
    op = iso129
    return greens_column_L(op, disk129.center_ij)


@pytest.fixture(scope="module")
def center_col_L2(disk129, iso129):
    op = iso129
    return greens_column_L2(greens_column_L(op, disk129.center_ij))


@pytest.fixture(scope="module")
def center_col_L2_fine(disk257, iso257):
    op = iso257
    return greens_column_L2(greens_column_L(op, disk257.center_ij))


@pytest.fixture(scope="module")
def diag257_col_L2(disk257):
    fld = make_field("diag(2,1)")
    op = assemble_operator(fld, disk257)
    return greens_column_L2(greens_column_L(op, disk257.center_ij))


# ---------------------------------------------------------------------------
# first-order columns


def test_center_column_follows_log_profile(disk129, center_col_L):
    # unit disk, centered source: the exact kernel is -log(r)/(2*pi),
    # so regressing the column on that profile over the mid annulus
    # must give unit slope
    d = disk129
    r = np.hypot(d.X - center_col_L.source_xy[0], d.Y - center_col_L.source_xy[1])
    band = (d.mask == 2) & (r >= 0.2) & (r <= 0.5)
    x = -np.log(r[band]) * _INV_2PI
    y = center_col_L.values[band]
    design = np.vstack([x, np.ones_like(x)]).T
    slope, _ = np.linalg.lstsq(design, y, rcond=None)[0]
    assert abs(slope - 1.0) <= 0.03


def test_first_order_column_nonnegative(center_col_L):
    assert float(center_col_L.values.min()) >= -1e-12


def test_column_vanishes_on_boundary_and_outside(disk129, center_col_L):
    v = center_col_L.values
    assert np.all(v[disk129.mask == 1] == 0.0)
    assert np.all(v[disk129.mask == EXTERIOR] == 0.0)


def test_source_must_be_interior(disk129, iso129):
    op = iso129
    with pytest.raises(ValueError):
        greens_column_L(op, (0, 0))


# ---------------------------------------------------------------------------
# the column solve: one factorization per operator, checked residuals


def _rel_residual(op, x, rhs):
    return np.linalg.norm(op.matrix @ x - rhs) / np.linalg.norm(rhs)


def test_columns_on_one_operator_share_one_factorization(monkeypatch):
    calls = []

    def counting_splu(matrix):
        calls.append(matrix.shape)
        return real_splu(matrix)

    real_splu = linsolve.splu
    monkeypatch.setattr(linsolve, "splu", counting_splu)
    dom = build_domain(disk_shape(1.0), 65)
    fld = make_field("diag(2,1)")
    op = assemble_operator(fld, dom)
    greens_column_L(op, dom.center_ij)
    greens_column_L2(greens_column_L(op, dom.center_ij))
    greens_column_L2(greens_column_L(op, node_near(dom, 0.3, -0.2)))
    assert calls == [op.matrix.shape]
    # a new operator gets its own
    greens_column_L(assemble_operator(fld, dom), dom.center_ij)
    assert len(calls) == 2


def test_fourth_order_column_holds_its_first_order_stage(monkeypatch):
    # the fourth-order column is solved from the first-order column it is
    # given, in one solve; it keeps that column as its stage and shares the
    # grids of their common source, and nothing is left behind on the
    # operator
    calls = []
    real = greens.solve_spd

    def counting(matrix, rhs):
        calls.append(matrix)
        return real(matrix, rhs)

    monkeypatch.setattr(greens, "solve_spd", counting)
    dom = build_domain(disk_shape(1.0), 33)
    fld = make_field("diag(2,1)")
    op = assemble_operator(fld, dom)
    fields = set(vars(op))
    first = greens_column_L(op, dom.center_ij)
    assert len(calls) == 1 and first.stage is None
    col = greens_column_L2(first)
    assert len(calls) == 2 and all(m is op.matrix for m in calls)
    assert col.stage is first and col.op is op
    assert col.source_ij == first.source_ij
    for name in ("inverse_coeff", "psi", "metric_mask"):
        assert getattr(col, name) is getattr(first, name)
    # each column's Hessian is its own
    assert np.array_equal(col.hessian, grid_hessian(dom, col.values))
    assert not np.array_equal(col.hessian, first.hessian)
    assert set(vars(op)) == fields == {"field", "domain", "matrix", "coupling"}
    with pytest.raises(ValueError):
        greens_column_L2(col)
    # a fresh operator reproduces the column
    fresh = greens_column_L2(greens_column_L(assemble_operator(fld, dom),
                                             dom.center_ij))
    assert np.array_equal(fresh.values, col.values)


def test_columns_tied_to_their_operator():
    # a column reads its domain and field off the operator it was solved
    # on, so no column can pair that operator with another field
    dom = build_domain(disk_shape(1.0), 33)
    fld = make_field("diag(2,1)")
    op = assemble_operator(fld, dom)
    for col in (greens_column_L(op, dom.center_ij),
                greens_column_L2(greens_column_L(op, dom.center_ij))):
        assert col.op is op
        assert col.domain is dom and col.op.field is fld
        with pytest.raises(dataclasses.FrozenInstanceError):
            col.op = assemble_operator(make_field("identity"), dom)
        # every grid derived from the column is built once and read-only
        for arr in (col.inverse_coeff, col.psi, col.hessian,
                    *col.metric_mask):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0
        assert col.psi is col.psi and col.hessian is col.hessian


def test_column_true_residuals_within_bound(disk129, iso129, center_col_L, center_col_L2):
    # op.matrix is S = h^2 M: a first-order column solves S G = e_k, h^2
    # times the unit-mass delta, and the fourth-order one S G2 = h^2 G
    op = iso129
    delta = np.zeros(disk129.n_interior)
    delta[disk129.interior_map[disk129.center_ij]] = 1.0
    fi = disk129.flat_index[0]
    w = greens_column_L(op, disk129.center_ij).values.take(fi)
    assert _rel_residual(op, center_col_L.values.take(fi), delta) <= 1e-9
    assert _rel_residual(op, w, delta) <= 1e-9
    assert _rel_residual(op, center_col_L2.values.take(fi),
                         disk129.h ** 2 * w) <= 1e-9


def test_singular_operator_raises_instead_of_returning_a_column():
    dom = build_domain(disk_shape(1.0), 33)
    fld = make_field("identity")
    op = assemble_operator(fld, dom)
    k = dom.interior_map[dom.center_ij]
    m = op.matrix.tolil()
    m[k, :] = 0.0
    m[:, k] = 0.0
    singular = dataclasses.replace(op, matrix=m.tocsr())
    with pytest.raises(RuntimeError):
        greens_column_L(singular, node_near(dom, 0.5, 0.0))
    m = op.matrix.copy()
    m.data[0] = np.nan
    with pytest.raises(RuntimeError):
        greens_column_L2(greens_column_L(dataclasses.replace(op, matrix=m),
                                         dom.center_ij))


@pytest.mark.parametrize("miss", [1e-6, np.nan, np.inf])
def test_inaccurate_or_nonfinite_solve_raises(monkeypatch, miss):
    # factors that solve slightly wrong (or return non-finite entries)
    # must be caught by the residual recomputed from op.matrix
    class Off:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            x[len(x) // 2] += miss * np.abs(x).max()
            return x

    real_splu = linsolve.splu
    monkeypatch.setattr(linsolve, "splu", lambda matrix: Off(real_splu(matrix)))
    dom = build_domain(disk_shape(1.0), 33)
    fld = make_field("identity")
    op = assemble_operator(fld, dom)
    with pytest.raises(RuntimeError, match="residual"):
        greens_column_L(op, dom.center_ij)


def test_reciprocity_first_order_across_fields():
    # suite-level property: G(a)(b) == G(b)(a) for 5 source pairs on each
    # of three coefficient fields
    dom = build_domain(disk_shape(1.0), 65)
    rng = np.random.default_rng(7)
    inter = dom.interior_ij
    picks = rng.choice(len(inter), size=(5, 2), replace=False)
    for spec in ("identity", "diag(2,1)", "poly(1)"):
        fld = make_field(spec)
        op = assemble_operator(fld, dom)
        for ka, kb in picks:
            ija, ijb = tuple(inter[ka]), tuple(inter[kb])
            ca = greens_column_L(op, ija)
            cb = greens_column_L(op, ijb)
            va = ca.values[ijb]
            vb = cb.values[ija]
            assert abs(va - vb) <= 1e-10 * max(abs(va), abs(vb))


def test_reciprocity_fourth_order_across_fields():
    dom = build_domain(disk_shape(1.0), 65)
    rng = np.random.default_rng(11)
    inter = dom.interior_ij
    picks = rng.choice(len(inter), size=(5, 2), replace=False)
    for spec in ("identity", "diag(2,1)", "poly(1)"):
        fld = make_field(spec)
        op = assemble_operator(fld, dom)
        for ka, kb in picks:
            ija, ijb = tuple(inter[ka]), tuple(inter[kb])
            ca = greens_column_L2(greens_column_L(op, ija))
            cb = greens_column_L2(greens_column_L(op, ijb))
            va = ca.values[ijb]
            vb = cb.values[ija]
            assert abs(va - vb) <= 1e-9 * max(abs(va), abs(vb))


def test_symmetry_at_measurement_resolution(disk129, iso129):
    op = iso129
    pairs = [((74, 65), (65, 51)), ((85, 70), (58, 76)), ((68, 63), (40, 65))]
    for ija, ijb in pairs:
        ca = greens_column_L(op, ija)
        cb = greens_column_L(op, ijb)
        va, vb = ca.values[ijb], cb.values[ija]
        assert abs(va - vb) <= 1e-10 * max(abs(va), abs(vb))


# ---------------------------------------------------------------------------
# fourth-order columns


def test_nested_intermediate_equals_first_order_column(disk129, iso129, center_col_L, center_col_L2):
    # the intermediate stage of the nested solve is the same linear system
    # as the first-order column, so solving S G2 = h^2 G on that column
    # reproduces the fourth-order column bit for bit
    d = disk129
    fi = d.flat_index[0]
    g2, _ = linsolve.solve_spd(iso129.matrix,
                               d.h * d.h * center_col_L.values.take(fi))
    assert np.array_equal(g2, center_col_L2.values.take(fi))


@pytest.mark.parametrize("spec", ["identity", "rot(0.7,2,1)"])
def test_columns_scale_with_the_disk(spec):
    # on disk(R) the grid is the unit disk's scaled by R and S = h^2 M does
    # not depend on R, so G_R = G_1 bit for bit and G2_R = R^2 G2_1, whose
    # right-hand side h^2 G is the one place R enters
    fld = make_field(spec)

    def columns(radius):
        dom = build_domain(disk_shape(radius), 65)
        op = assemble_operator(fld, dom)
        out = []
        for ij in (dom.center_ij, (40, 25)):
            first = greens_column_L(op, ij)
            out.append((first.values, greens_column_L2(first).values))
        return out

    unit = columns(1.0)
    for radius in (0.01, 4.0, 1e-100):
        for (g, g2), (g_1, g2_1) in zip(columns(radius), unit):
            assert np.array_equal(g, g_1)
            assert np.abs(g2 / radius ** 2 - g2_1).max() \
                <= 1e-14 * np.abs(g2_1).max()


def test_fourth_order_profile_matches_radial_oracle(disk129, center_col_L2):
    # centered isotropic column ~ r^2 log(r)/(8 pi) plus a smooth part that
    # a quadratic in r^2 absorbs; after removing the fit the residual is
    # small against the oracle's dynamic range
    d = disk129
    r = np.hypot(d.X - center_col_L2.source_xy[0], d.Y - center_col_L2.source_xy[1])
    band = (d.mask == 2) & (r >= 0.1) & (r <= 0.4)
    rb = r[band]
    v_oracle = rb ** 2 * np.log(rb) * _INV_8PI
    y = center_col_L2.values[band] - v_oracle
    design = np.vstack([np.ones_like(rb), rb ** 2, rb ** 4]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    v_range = float(v_oracle.max() - v_oracle.min())
    assert float(np.abs(resid).max()) <= 0.02 * v_range


# ---------------------------------------------------------------------------
# singular split


def _iso_consts():
    return d1_quadrature(make_field("identity"), np.zeros(2))


def test_split_zeroes_source_and_exterior(disk129, center_col_L):
    f1 = singular_split(center_col_L, _iso_consts())
    si, sj = center_col_L.source_ij
    assert f1[si, sj] == 0.0
    assert np.all(f1[disk129.mask == EXTERIOR] == 0.0)


def test_split_refinement_keeps_regular_parts_tame(
        disk129, disk257, iso129, iso257, center_col_L, center_col_L2, center_col_L2_fine):
    # halving h doubles the raw column's gradient sup (log singularity)
    # but the split fields' sups must not grow faster than that benign
    # discretization rate; their level sits an order below the raw sup
    consts = _iso_consts()
    op = iso257
    col_L_fine = greens_column_L(op, disk257.center_ij)

    f1_c = gradient_sup(center_col_L, singular_split(center_col_L, consts))
    f1_f = gradient_sup(col_L_fine, singular_split(col_L_fine, consts))
    raw_c = gradient_sup(center_col_L, center_col_L.values)
    raw_f = gradient_sup(col_L_fine, col_L_fine.values)
    f2_c = third_diff_sup(center_col_L2, singular_split(center_col_L2, consts))
    f2_f = third_diff_sup(center_col_L2_fine, singular_split(center_col_L2_fine, consts))

    # 1e-6 allowance: the sup sits at the exact 2x scaling of the
    # near-source difference artifact, so the comparison happens at the
    # boundary value itself and only solver noise separates the sides
    assert f1_f / f1_c <= 2.0 + 1e-6
    assert f2_f / f2_c <= 2.0 + 1e-6
    assert raw_f / raw_c >= 1.5
    # substantive separation: the split removes an order of magnitude
    assert f1_c < 0.1 * raw_c
    assert f1_f < 0.1 * raw_f


# ---------------------------------------------------------------------------
# Hessian splitting on annuli


def test_remainder_annulus_band_and_growth_rates(center_col_L2_fine):
    rep = frehse_residual(center_col_L2_fine, pairing="inverse")
    radii = np.asarray(rep.radii)
    assert np.all(np.isfinite(rep.sup_remainder))
    assert np.all(np.isfinite(rep.sup_singular))
    # finest kept annulus: remainder close to the analytic level 1/(8 pi)
    k_fine = int(np.argmin(radii))
    assert 0.02 <= rep.sup_remainder[k_fine] <= 0.06
    # within [1/4, 1/16]: every halving grows the singular sup >= 1.3x
    # while the remainder moves by <= 1.2x in total
    order = np.argsort(radii)[::-1]   # coarse -> fine
    r_sorted = radii[order]
    sing = np.asarray(rep.sup_singular)[order]
    rem = np.asarray(rep.sup_remainder)[order]
    sel = (r_sorted <= 0.25 + 1e-12) & (r_sorted >= 1.0 / 16.0 - 1e-12)
    s = sing[sel]
    m = rem[sel]
    assert len(s) >= 3
    for a, b in zip(s, s[1:]):
        assert b / a >= 1.3
    assert m.max() / m.min() <= 1.2


def test_inverse_pairing_beats_trace_identity_control(disk257, diag257_col_L2):
    col = diag257_col_L2
    ratios = {}
    for pairing in ("inverse", "trace_identity"):
        rep = frehse_residual(col, pairing=pairing)
        radii = np.asarray(rep.radii)
        rr = np.asarray(rep.sup_remainder) / np.asarray(rep.sup_singular)
        ratios[pairing] = rr[int(np.argmin(radii))] / rr[int(np.argmax(radii))]
    assert ratios["inverse"] <= 0.5
    assert ratios["trace_identity"] > 0.5


def test_hessian_split_input_validation(disk129, center_col_L, center_col_L2, diag257_col_L2):
    fld = make_field("identity")
    with pytest.raises(ValueError):
        frehse_residual(center_col_L)                 # first-order
    with pytest.raises(ValueError):
        frehse_residual(center_col_L2, pairing="transpose")
    coarse = build_domain(disk_shape(1.0), 65)        # h = 1/32 too coarse
    op = assemble_operator(fld, coarse)
    col = greens_column_L2(greens_column_L(op, coarse.center_ij))
    with pytest.raises(ValueError):
        frehse_residual(col)


def test_frehse_takes_operator_from_column(center_col_L2):
    # the operator is col.op and the field col.op.field; a second field
    # can no longer be passed in and silently mixed with the column's own
    with pytest.raises(TypeError):
        frehse_residual(center_col_L2, make_field("diag(2,1)"))


# ---------------------------------------------------------------------------
# log-envelope fit


def test_log_envelope_isotropic(center_col_L2):
    rep = log_bound_check(center_col_L2)
    assert rep.slope > 0.0
    assert rep.overshoot <= 0.10


def test_log_envelope_anisotropic(diag257_col_L2):
    col = diag257_col_L2
    rep = log_bound_check(col)
    assert np.isfinite(rep.slope)
    assert rep.overshoot <= 0.15


def test_log_envelope_rejects_power_law_growth(center_col_L):
    # second differences of the first-order column blow up like 1/r^2,
    # which no log envelope can track: the fit overshoots severely
    rep = log_bound_check(center_col_L)
    assert rep.overshoot > 0.5


def test_log_envelope_needs_two_annuli():
    dom = build_domain(disk_shape(1.0), 33)
    fld = make_field("identity")
    op = assemble_operator(fld, dom)
    col = greens_column_L2(greens_column_L(op, dom.center_ij))
    with pytest.raises(RuntimeError):
        log_bound_check(col)


# ---------------------------------------------------------------------------
# metric plumbing


def test_dyadic_annuli_track_grid_spacing():
    assert dyadic_annuli(1.0 / 64.0) == [2, 3, 4]
    assert dyadic_annuli(1.0 / 128.0) == [2, 3, 4, 5]
    assert dyadic_annuli(1.0 / 256.0) == [2, 3, 4, 5, 6]


def test_metric_mask_exclusions(disk129, center_col_L):
    d = disk129
    ok, r = center_col_L.metric_mask
    assert not np.any(ok & (r <= 2.0 * d.h))
    sd = d.shape.sdf(np.stack([d.X, d.Y], axis=-1))
    assert not np.any(ok & (sd > -2.0 * d.h))
    assert np.all(d.mask[ok] == 2)
    # a window is the mask restricted on r itself
    ok_win = ok & (r >= 0.2) & (r < 0.3)
    assert ok_win.any() and np.all((r[ok_win] >= 0.2) & (r[ok_win] < 0.3))


def test_difference_stencils_exact_on_polynomials(disk129):
    d = disk129
    quad = d.X ** 2 + 3.0 * d.X * d.Y
    hess = grid_hessian(d, quad)
    inner = (slice(2, -2), slice(2, -2))
    assert np.allclose(hess[inner + (0,)], 2.0, atol=1e-8)
    assert np.allclose(hess[inner + (1,)], 3.0, atol=1e-8)
    assert np.allclose(hess[inner + (2,)], 0.0, atol=1e-8)
    cub = d.X ** 3
    d3 = grid_third_diff(d, cub)
    assert np.allclose(d3[inner + (0,)], 6.0, atol=1e-6)
    assert np.allclose(d3[inner + (1,)], 0.0, atol=1e-6)


def test_gradient_sup_on_linear_field(disk129, center_col_L):
    lin = 3.0 * disk129.X - 2.0 * disk129.Y
    assert abs(gradient_sup(center_col_L, lin) - np.sqrt(13.0)) <= 1e-9


def test_node_near_picks_nearest_grid_point(disk129):
    i, j = node_near(disk129, 0.701, -0.003)
    assert abs(disk129.xs[i] - 0.701) <= disk129.h / 2 + 1e-12
    assert abs(disk129.ys[j] - (-0.003)) <= disk129.h / 2 + 1e-12
