"""Grid classification and operator assembly against hand-computable
oracles."""

import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoplate.anisotropy import (CoefficientField, diag_field, identity_field,
                                   poly_field, rot_field)
from anisoplate import grid
from anisoplate.grid import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    assemble_operator,
    build_domain,
    central_gradient,
    disk_shape,
    parse_shape,
    rect_shape,
    write_table,
)


# ---------------------------------------------------------------------------
# domains


def test_disk_resolution_to_spacing():
    d = build_domain(disk_shape(1.0), 129)
    assert d.h == pytest.approx(1.0 / 64.0, abs=1e-15)
    d2 = build_domain(disk_shape(1.0), 257)
    assert d2.h == pytest.approx(1.0 / 128.0, abs=1e-15)


def test_rect_counts_exact():
    d = build_domain(rect_shape(1.0, 1.0), 33)
    assert d.h == pytest.approx(1.0 / 32.0, abs=1e-15)
    assert d.n_interior == 31 * 31
    assert d.n_boundary == 4 * 32  # full ring including corners


def test_disk_interior_area_close():
    # cell-counting area of the strictly-inside node set
    d = build_domain(disk_shape(1.0), 129)
    area = d.n_interior * d.h ** 2
    assert abs(area - math.pi) / math.pi < 0.02
    d2 = build_domain(disk_shape(1.0), 257)
    assert abs(d2.n_interior * d2.h ** 2 - math.pi) < abs(area - math.pi)


def test_grid_padded_one_cell():
    d = build_domain(disk_shape(1.0), 33)
    assert d.xs.shape == (35,)
    assert d.xs[0] == pytest.approx(-1.0 - d.h, abs=1e-15)
    assert d.xs[-1] == pytest.approx(1.0 + d.h, abs=1e-15)
    c = d.center_ij
    assert d.xs[c[0]] == pytest.approx(0.0, abs=1e-15)


def test_mask_codes_partition():
    d = build_domain(disk_shape(1.0), 33)
    n_codes = (d.mask == EXTERIOR).sum() + (d.mask == BOUNDARY).sum() + (d.mask == INTERIOR).sum()
    assert n_codes == 35 * 35
    # interior is strictly inside
    ij = d.interior_ij
    r = np.hypot(d.xs[ij[:, 0]], d.ys[ij[:, 1]])
    assert np.all(r < 1.0)
    # every boundary node has an interior 8-neighbor and is not inside
    for i, j in d.boundary_ij:
        assert math.hypot(d.xs[i], d.ys[j]) >= 1.0 - 1e-14
        block = d.mask[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
        assert np.any(block == INTERIOR)


@pytest.mark.parametrize("cells", [1, 2, 3])
def test_grow_sets_the_square_neighbourhood(cells):
    # a node is set when any node within `cells` steps along both axes is;
    # nodes off the array count as unset
    mask = np.random.default_rng(cells).random((9, 12)) < 0.1
    want = np.zeros_like(mask)
    for i, j in np.argwhere(mask):
        want[max(0, i - cells):i + cells + 1, max(0, j - cells):j + cells + 1] = True
    assert np.array_equal(grid.grow(mask, cells), want)


def test_boundary_projection_lands_on_curve():
    d = build_domain(disk_shape(1.0), 65)
    r = np.hypot(d.boundary_proj[:, 0], d.boundary_proj[:, 1])
    assert np.allclose(r, 1.0, atol=1e-14)
    dr = build_domain(rect_shape(2.0, 1.0), 65)
    sd = dr.shape.sdf(dr.boundary_proj)
    assert np.allclose(sd, 0.0, atol=1e-14)


def test_domain_input_validation():
    with pytest.raises(ValueError):
        build_domain(disk_shape(1.0), 4)
    with pytest.raises(ValueError):
        build_domain(disk_shape(1.0), 32)  # even
    with pytest.raises(ValueError):
        disk_shape(-1.0)
    with pytest.raises(ValueError):
        rect_shape(1.0, 0.0)
    with pytest.raises(ValueError):
        parse_shape("blob(1)")
    assert parse_shape("disk(1)").kind == "disk"
    assert parse_shape("rect(2, 1)").params == (2.0, 1.0)


def _manufactured(d, fn):
    """fn at the interior nodes, and the datum d.trace(fn) on the boundary
    nodes, as the operator's Dirichlet rule carries it."""
    return d.field(fn(d.interior_xy[:, 0], d.interior_xy[:, 1]), d.trace(fn))


def test_trace_evaluates_the_datum_at_projections():
    def fn(x, y):
        return np.exp(x) * np.sin(3 * y) + x * y

    # on rect(1.3, 0.7) at 33 the edges y = +-0.35 fall between nodes
    for shape in (disk_shape(1.0), rect_shape(1.3, 0.7)):
        d = build_domain(shape, 33)
        tr = d.trace(fn)
        p, xy = d.boundary_proj, d.boundary_xy
        assert tr.shape == (d.n_boundary,)
        assert np.array_equal(tr, fn(p[:, 0], p[:, 1]))
        # the nodes themselves are off the curve, so their own values differ
        assert d.shape.sdf(xy).max() > 1e-6
        assert not np.array_equal(tr, fn(xy[:, 0], xy[:, 1]))
        const = d.trace(lambda x, y: 0.5)
        assert const.shape == (d.n_boundary,) and np.all(const == 0.5)
    d = build_domain(disk_shape(1.0), 33)
    assert np.allclose(d.trace(lambda x, y: x**2 + y**2), 1.0, atol=1e-14)


@pytest.mark.parametrize("res", [5, 9, 33, 65, 129])
@pytest.mark.parametrize("shape", [disk_shape(1.0), rect_shape(2.0, 1.0),
                                   rect_shape(1.3, 0.7)],
                         ids=["disk", "rect_on_nodes", "rect_off_nodes"])
def test_boundary_nodes_meet_the_projection_precondition(shape, res):
    # project is defined for points outside or on the curve only; boundary
    # nodes are, and a rectangle's on-curve nodes project to themselves
    d = build_domain(shape, res)
    sd = d.shape.sdf(d.boundary_xy)
    assert np.all(sd >= 0.0)
    if shape.kind == "rect":
        on = sd == 0.0
        assert np.array_equal(d.boundary_proj[on], d.boundary_xy[on])
    if shape == rect_shape(2.0, 1.0):
        assert np.all(sd == 0.0)   # every boundary node lies on an edge


@pytest.mark.parametrize("res", [5, 33, 65])
def test_off_node_rect_is_mirror_symmetric(res):
    # h = 1.3 / (res - 1) is not a power of two, yet the nodes of the long
    # sides x = +-0.65 sit exactly on them and the classification mirrors
    d = build_domain(rect_shape(1.3, 0.7), res)
    assert np.array_equal(d.mask, d.mask[::-1, :])
    assert np.array_equal(d.mask, d.mask[:, ::-1])
    assert d.xs[1] == -0.65 and d.xs[-2] == 0.65
    edge = (np.abs(d.X) == 0.65) & (np.abs(d.Y) <= 0.35)
    assert edge.sum() == 2 * (np.abs(d.ys) <= 0.35).sum()
    assert np.all(d.mask[edge] == BOUNDARY)
    assert np.all(d.shape.sdf(np.stack([d.X[edge], d.Y[edge]], -1)) == 0.0)


def test_scalar_field_csv_roundtrip(tmp_path):
    d = build_domain(rect_shape(1.0, 1.0), 9)
    f = _manufactured(d, lambda x, y: x + 2 * y)
    p = tmp_path / "field.csv"
    d.write_field(p, "value", f)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) - 1 == int((d.mask != EXTERIOR).sum())
    arr = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.allclose(arr[:, 2], arr[:, 0] + 2 * arr[:, 1], atol=1e-14)


def test_domain_coordinates_cached_read_only():
    d = build_domain(disk_shape(1.0), 33)
    gx, gy = np.meshgrid(d.xs, d.ys, indexing="ij")
    assert d.X is d.X and d.Y is d.Y
    assert np.array_equal(d.X, gx) and np.array_equal(d.Y, gy)
    # cell-coverage weights: the clipped inside fraction of each node's cell
    assert d.measure_weights is d.measure_weights
    wi, wb = d.measure_weights
    for w, xy in ((wi, d.interior_xy), (wb, d.boundary_xy)):
        frac = np.clip(0.5 - d.shape.sdf(xy) / d.h, 0.0, 1.0)
        assert np.array_equal(w, d.h * d.h * frac)
    for arr in (d.X, d.Y, wi, wb):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _per_row_reference(header, row_format, columns):
    # the row-by-row writer that write_table replaced, kept as an oracle
    lines = [header + "\n"]
    for row in zip(*columns):
        lines.append((row_format + "\n") % row)
    return "".join(lines)


_special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308,
                     -1e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0,
                     -7.0, 1e16, 123456789.0, 2.0 ** 53 + 2.0])


@pytest.mark.parametrize("header,row_format,columns", [
    ("x,y,value", "%.17g,%.17g,%.17g",
     (_special, _special[::-1].copy(), np.roll(_special, 3))),
    ("a,b", "%.17g,%.17g",
     (np.arange(-5.0, 6.0), np.array([1e3 * k for k in range(11)]))),
    ("component,vertex_index,x,y,grad_mag", "%d,%d,%.17g,%.17g,%.17g",
     (np.full(4, 3, dtype=np.int64), np.arange(4, dtype=np.int32),
      _special[:4], _special[4:8], _special[8:12])),
    ("level,resolution,h,metric,value", "%d,%d,%.17g,%s,%.17g",
     ((0, 1), (33, 65), (0.0625, 0.03125), ("min_GL", "ratio_min_GL"),
      (np.float64(0.25), 1.0 / 3.0))),
], ids=["special_floats", "integer_valued", "int_columns", "str_column"])
def test_write_table_matches_per_row_format(tmp_path, header, row_format,
                                            columns):
    p = tmp_path / "t.csv"
    write_table(p, header, row_format, columns)
    want = _per_row_reference(header, row_format, columns)
    assert p.read_bytes() == want.encode()
    assert p.read_text().count("\n") == len(columns[0]) + 1


def test_write_table_empty_is_header_only(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, "x,y,weight", "%.17g,%.17g,%.17g",
                (np.zeros(0), np.zeros(0), np.zeros(0)))
    assert p.read_bytes() == b"x,y,weight\n"
    write_table(p, "stage,iter", "%d,%d", [])
    assert p.read_bytes() == b"stage,iter\n"


def test_write_table_replaces_an_existing_file(tmp_path):
    # the old file is removed, not truncated in place: another hard link to
    # it keeps the old bytes and the path gets a new file
    p = tmp_path / "t.csv"
    write_table(p, "a", "%d", [(1, 2)])
    link = tmp_path / "link.csv"
    os.link(p, link)
    write_table(p, "b", "%d", [(3,)])
    assert p.read_bytes() == b"b\n3\n"
    assert link.read_bytes() == b"a\n1\n2\n"


def test_write_table_makes_a_missing_directory(tmp_path):
    # each writer makes its own directory, so the runner makes only the
    # output directory itself
    p = tmp_path / "a" / "b" / "t.csv"
    write_table(p, "a", "%d", [(1,)])
    assert p.read_bytes() == b"a\n1\n"


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", "a,b", "%.17g,%.17g",
                    (np.zeros(3), np.zeros(2)))


def test_write_field_masked_disk(tmp_path):
    d = build_domain(disk_shape(1.0), 33)
    f = _manufactured(d, lambda x, y: np.exp(x) * np.sin(3 * y))
    f[d.center_ij] = -0.0
    p = tmp_path / "u.csv"
    d.write_field(p, "u", f)
    lines = ["x,y,u\n"]
    for i in range(d.mask.shape[0]):
        for j in range(d.mask.shape[1]):
            if d.mask[i, j] >= 1:
                lines.append("%.17g,%.17g,%.17g\n"
                             % (d.xs[i], d.ys[j], f[i, j]))
    assert p.read_bytes() == "".join(lines).encode()
    # exterior nodes are left out: the disk does not fill its box
    assert 1 < len(lines) - 1 < d.mask.size


@pytest.mark.parametrize("shape", [disk_shape(1.0), rect_shape(2.0, 1.0)])
def test_flat_gathers_match_fancy_indexing(shape):
    d = build_domain(shape, 33)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(d.mask.shape)
    ij, bj = d.interior_ij, d.boundary_ij
    fi, fb = d.flat_index
    assert np.array_equal(f.take(fi), f[ij[:, 0], ij[:, 1]])
    assert np.array_equal(f.take(fb), f[bj[:, 0], bj[:, 1]])
    # apply_field gathers a strided view as fancy indexing does
    op = assemble_operator(identity_field(), d)
    t = f.T
    assert np.array_equal(op.apply_field(t), op.apply(t[ij[:, 0], ij[:, 1]],
                                                      t[bj[:, 0], bj[:, 1]]))
    assert d.flat_index is d.flat_index
    for arr in (fi, fb):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_field_places_packed_values_in_a_new_array():
    d = build_domain(disk_shape(1.0), 33)
    rng = np.random.default_rng(4)
    vec = rng.standard_normal(d.n_interior)
    bvec = rng.standard_normal(d.n_boundary)
    g = d.field(vec, bvec)
    assert g.shape == d.mask.shape and g.dtype == float
    assert not np.shares_memory(g, vec) and not np.shares_memory(g, bvec)
    ij, bj = d.interior_ij, d.boundary_ij
    want = vec.copy()
    vec[:] = 0.0
    assert np.array_equal(g[ij[:, 0], ij[:, 1]], want)
    assert np.array_equal(g[bj[:, 0], bj[:, 1]], bvec)
    assert np.all(g[d.mask == EXTERIOR] == 0.0)
    # the boundary defaults to zero, and a scalar fills every boundary node
    assert np.all(d.field(want)[d.mask != INTERIOR] == 0.0)
    assert np.all(d.field(want, 0.5)[d.mask == BOUNDARY] == 0.5)
    # a vector of the wrong length raises instead of being repeated
    for args in ((np.zeros(3),), (np.zeros(d.n_interior + 1),),
                 (want, np.zeros(3))):
        with pytest.raises(ValueError):
            d.field(*args)


def test_node_text_built_once_and_immutable(tmp_path, monkeypatch):
    d = build_domain(disk_shape(1.0), 17)
    calls = []
    real = grid.format_rows

    def counting(row_format, columns):
        calls.append(row_format)
        return real(row_format, columns)

    monkeypatch.setattr(grid, "format_rows", counting)
    for k, column in enumerate(("u", "Lu", "G")):
        f = _manufactured(d, lambda x, y: k + x * y)
        d.write_field(tmp_path / ("%s.csv" % column), column, f)
    # one coordinate formatting per axis for the domain, one value column
    # per file
    assert calls == ["%.17g,", "%.17g"] + ["%s,%.17g"] * 3
    text = d.node_text
    assert text is d.node_text and isinstance(text, tuple)
    i, j = np.nonzero(d.mask != EXTERIOR)
    assert text == tuple("%.17g,%.17g" % (d.xs[a], d.ys[b])
                         for a, b in zip(i, j))
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.node_text = ()
    with pytest.raises(TypeError):
        text[0] = "0,0"


def test_central_gradient_exact_for_linear():
    d = build_domain(rect_shape(1.0, 1.0), 17)
    vals = 3.0 * d.xs[:, None] - 2.0 * d.ys[None, :]
    g = central_gradient(d, vals)
    assert np.allclose(g[..., 0], 3.0, atol=1e-12)
    assert np.allclose(g[..., 1], -2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# operator


def _turning(kx=0.8, ky=0.0):
    """A = R(theta) diag(2,1) R(theta)^T with theta = kx x + ky y + 0.3: an
    eigenframe that turns in space, so a11, a22 and a12 all vary.  With
    c = cos(theta), s = sin(theta): a11 = 1 + c^2, a22 = 1 + s^2, a12 = c s.
    Returns the evaluation map and its analytic gradient, of shape
    (..., 2, 2, 2) with the derivative direction first."""

    def frame(x):
        x = np.asarray(x, dtype=float)
        theta = kx * x[..., 0] + ky * x[..., 1] + 0.3
        return np.cos(theta), np.sin(theta)

    def ev(x):
        c, s = frame(x)
        out = np.empty(c.shape + (2, 2))
        out[..., 0, 0] = 1.0 + c * c
        out[..., 1, 1] = 1.0 + s * s
        out[..., 0, 1] = out[..., 1, 0] = c * s
        return out

    def gr(x):
        c, s = frame(x)
        d_theta = np.empty(c.shape + (2, 2))
        d_theta[..., 0, 0] = -2.0 * c * s
        d_theta[..., 1, 1] = 2.0 * c * s
        d_theta[..., 0, 1] = d_theta[..., 1, 0] = c * c - s * s
        return np.stack([kx * d_theta, ky * d_theta], axis=-3)

    return ev, gr


def _turning_field(kx=0.8, ky=0.0):
    return CoefficientField("turning", _turning(kx, ky)[0])


def test_row_sums_vanish():
    d = build_domain(disk_shape(1.0), 65)
    ones_i = np.ones(d.n_interior)
    ones_b = np.ones(d.n_boundary)
    # a12 varies along both axes in the turning field, so the four cell
    # samples of a row differ and its diagonal must balance its corners
    for f in (poly_field(0.5), _turning_field(0.8, 0.5)):
        op = assemble_operator(f, d)
        assert np.max(np.abs(op.apply(ones_i, ones_b))) < 1e-9


def test_symmetry_after_assembly():
    # every pair of nodes shares one coefficient sample, so M = M^T holds
    # exactly, also where the eigenframe turns
    d = build_domain(disk_shape(1.0), 65)
    for f in (identity_field(), poly_field(0.5), rot_field(0.6, 2, 1),
              _turning_field()):
        op = assemble_operator(f, d)
        defect = op.matrix - op.matrix.T
        assert abs(defect).max() == 0.0


def test_assembly_names_an_overflowing_stencil_entry():
    # a finite coefficient can still overflow a / h^2; the first such
    # entry is named, with no overflow warning on the way
    d = build_domain(disk_shape(1.0), 33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"stencil entry 0 of the "
                           r"interior node at \(-0.9375, -0.3125\) is inf"):
            assemble_operator(diag_field(1e306, 1.0), d)


def test_bilinear_oracle_constant_shear():
    # u = x*y and constant A: L u = -2*a12, and the stencil reproduces it
    # exactly on a grid whose boundary nodes sit on the curve
    d = build_domain(rect_shape(1.0, 1.0), 33)
    f = rot_field(0.6, 2.0, 1.0)
    a12 = f.matrix([0.0, 0.0])[0, 1]
    assert abs(a12) > 0.1
    u = _manufactured(d, lambda x, y: x * y)
    lu = assemble_operator(f, d).apply_field(u)
    assert np.allclose(lu, -2.0 * a12, atol=1e-8)


def test_quadratic_oracle_diagonal():
    d = build_domain(rect_shape(1.0, 1.0), 33)
    f = diag_field(2.0, 1.0)
    u = _manufactured(d, lambda x, y: x**2 + 3.0 * y**2)
    lu = assemble_operator(f, d).apply_field(u)
    assert np.allclose(lu, -10.0, atol=1e-8)


def test_variable_coefficient_second_order_consistency():
    # L u = -(a11 u_xx + da11/dx u_x + u_yy) for the polynomial diagonal
    # field; truncation error must shrink like h^2
    f = poly_field(0.5)

    def exact_lu(x, y):
        a11 = 1.0 + 0.5 * x**2
        ux = math.pi * np.cos(math.pi * x) * np.cos(math.pi * y)
        uxx = -math.pi**2 * np.sin(math.pi * x) * np.cos(math.pi * y)
        uyy = -math.pi**2 * np.sin(math.pi * x) * np.cos(math.pi * y)
        return -(a11 * uxx + 1.0 * x * ux + uyy)

    errs = []
    for res in (33, 65):
        d = build_domain(rect_shape(1.0, 1.0), res)
        u = _manufactured(d, lambda x, y: np.sin(math.pi * x) * np.cos(math.pi * y))
        lu = assemble_operator(f, d).apply_field(u)
        want = exact_lu(d.interior_xy[:, 0], d.interior_xy[:, 1])
        errs.append(np.max(np.abs(lu - want)))
    assert errs[1] < errs[0] / 3.0


def test_discrete_eigenfunction_ratio():
    # cos(pi x) cos(pi y) is an exact discrete eigenfunction of the
    # five-point stencil on the aligned unit square
    d = build_domain(rect_shape(1.0, 1.0), 33)
    u = _manufactured(d, lambda x, y: np.cos(math.pi * x) * np.cos(math.pi * y))
    lu = assemble_operator(identity_field(), d).apply_field(u)
    ratio = lu / u.take(d.flat_index[0])
    lam_h = 4.0 * (1.0 - math.cos(math.pi * d.h)) / d.h**2
    assert np.allclose(ratio, lam_h, rtol=1e-10)
    assert lam_h == pytest.approx(2.0 * math.pi**2, rel=5e-3)


def test_maximum_principle():
    d = build_domain(disk_shape(1.0), 65)
    op = assemble_operator(poly_field(0.5), d)
    g = d.trace(lambda x, y: np.sin(3.0 * np.arctan2(y, x)))
    u = op.solve_dirichlet(np.zeros(d.n_interior), g)
    assert u.max() <= g.max() + 1e-9
    assert u.min() >= g.min() - 1e-9


def test_dirichlet_reproduces_smooth_solution():
    # manufactured solution evaluated at the boundary nodes themselves, so
    # only the O(h^2) stencil truncation is visible
    f = diag_field(2.0, 1.0)
    errs = []
    for res in (33, 65):
        d = build_domain(rect_shape(1.0, 1.0), res)
        exact = _manufactured(d, lambda x, y: np.cos(math.pi * x) * np.cos(math.pi * y))
        fi, fb = d.flat_index
        rhs = (2.0 + 1.0) * math.pi**2 * exact.take(fi)
        op = assemble_operator(f, d)
        u = op.solve_dirichlet(rhs, exact.take(fb))
        errs.append(np.max(np.abs(u - exact.take(fi))))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 5e-3


def test_navier_biharmonic_disk_profile():
    # L(L u) = 1 with both traces zero on the unit disk: the radial solution
    # is r^4/64 - r^2/16 + 3/64, value 3/64 at the center
    d = build_domain(disk_shape(1.0), 129)
    op = assemble_operator(identity_field(), d)
    zero = np.zeros(d.n_boundary)
    w = op.solve_dirichlet(np.ones(d.n_interior), zero)
    u = op.solve_dirichlet(w, zero)
    ci, cj = d.center_ij
    center = d.interior_map[ci, cj]
    assert center >= 0
    assert u[center] == pytest.approx(3.0 / 64.0, rel=0.03)
    # the intermediate field is -Delta u = (1 - r^2)/4 at the center
    assert w[center] == pytest.approx(0.25, rel=0.03)


def test_navier_zero_rhs_gives_zero():
    d = build_domain(disk_shape(1.0), 33)
    op = assemble_operator(identity_field(), d)
    zero = np.zeros(d.n_boundary)
    w = op.solve_dirichlet(np.zeros(d.n_interior), zero)
    u = op.solve_dirichlet(w, zero)
    assert np.max(np.abs(u)) == 0.0 and np.max(np.abs(w)) == 0.0


def test_nested_solve_operator_symmetric_by_probing():
    # probe the composed fourth-order solve on a small disk grid: the map
    # rhs -> u must be symmetric since both factors are the same SPD inverse
    d = build_domain(disk_shape(1.0), 17)
    op = assemble_operator(identity_field(), d)
    n = d.n_interior
    zero = np.zeros(d.n_boundary)
    cols = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        w = op.solve_dirichlet(e, zero)
        cols[:, j] = op.solve_dirichlet(w, zero)
    defect = np.max(np.abs(cols - cols.T)) / np.max(np.abs(cols))
    assert defect <= 1e-10


def test_nonnegative_rhs_maximum_principle():
    d = build_domain(disk_shape(1.0), 49)
    op = assemble_operator(identity_field(), d)
    rng = np.random.default_rng(12)
    f = rng.uniform(0.0, 1.0, d.n_interior)
    u = op.solve_dirichlet(f, np.zeros(d.n_boundary))
    assert u.min() >= -1e-12


def test_consistency_ratio_three_fields():
    # interior cosine mode; residual against the analytic image shrinks at
    # second order (ratio in [3.4, 4.6]) for three coefficient fields and a
    # turning frame, whose a12 varies
    cases = []

    def make_exact(f, grad):
        # L u = -(a11 u_xx + 2 a12 u_xy + a22 u_yy
        #         + (d_x a11 + d_y a12) u_x + (d_x a12 + d_y a22) u_y)
        def exact_lu(x, y):
            pts = np.stack([x, y], axis=-1)
            a, g = f.matrix(pts), grad(pts)
            c = np.cos(math.pi * x) * np.cos(math.pi * y)
            sx = np.sin(math.pi * x) * np.cos(math.pi * y)
            sy = np.cos(math.pi * x) * np.sin(math.pi * y)
            ss = np.sin(math.pi * x) * np.sin(math.pi * y)
            div_x = g[..., 0, 0, 0] + g[..., 1, 0, 1]
            div_y = g[..., 0, 0, 1] + g[..., 1, 1, 1]
            return ((a[..., 0, 0] + a[..., 1, 1]) * math.pi**2 * c
                    - 2.0 * a[..., 0, 1] * math.pi**2 * ss
                    + div_x * math.pi * sx + div_y * math.pi * sy)
        return exact_lu

    # coefficient gradients, (..., 2, 2, 2) with the derivative direction first
    def zero_grad(x):
        return np.zeros(np.asarray(x).shape[:-1] + (2, 2, 2))

    def poly_grad(x):
        out = zero_grad(x)
        out[..., 0, 0, 0] = 2.0 * 0.5 * x[..., 0]
        return out

    for f, grad in ((identity_field(), zero_grad), (diag_field(2, 1), zero_grad),
                    (poly_field(0.5), poly_grad), (_turning_field(), _turning()[1])):
        errs = []
        for res in (33, 65):
            d = build_domain(rect_shape(1.0, 1.0), res)
            u = _manufactured(
                d, lambda x, y: np.cos(math.pi * x) * np.cos(math.pi * y))
            lu = assemble_operator(f, d).apply_field(u)
            want = make_exact(f, grad)(d.interior_xy[:, 0], d.interior_xy[:, 1])
            errs.append(np.max(np.abs(lu - want)))
        cases.append(errs[0] / errs[1])
    assert all(3.4 <= ratio <= 4.6 for ratio in cases)


def test_incompatible_coefficients_rejected():
    def bad_eval(x):
        out = np.zeros(np.asarray(x).shape[:-1] + (2, 2))
        out[..., 0, 0] = -1.0
        out[..., 1, 1] = 1.0
        return out

    f = CoefficientField("broken", bad_eval)
    d = build_domain(rect_shape(1.0, 1.0), 17)
    with pytest.raises(ValueError):
        assemble_operator(f, d)


def test_stencil_is_nine_point():
    d = build_domain(disk_shape(1.0), 33)
    f = rot_field(0.3, 2, 1)
    op = assemble_operator(f, d)
    per_row = np.diff(op.matrix.indptr)
    assert per_row.max() <= 9
    # the centre row's neighbours in S = h^2 M, bit for bit: -a11 and -a22
    # on the axes, -a12/2 at NE and SW, +a12/2 at SE and NW
    a = f.matrix([0.0, 0.0])
    ci, cj = d.center_ij
    want = {(1, 0): -a[0, 0], (-1, 0): -a[0, 0],
            (0, 1): -a[1, 1], (0, -1): -a[1, 1],
            (1, 1): -a[0, 1] / 2, (-1, -1): -a[0, 1] / 2,
            (1, -1): a[0, 1] / 2, (-1, 1): a[0, 1] / 2}
    row = d.interior_map[ci, cj]
    for (di, dj), value in want.items():
        assert op.matrix[row, d.interior_map[ci + di, cj + dj]] == value


def test_every_pair_weight_on_a_turning_field():
    # a11, a22 and a12 all vary along both axes, so a pair that read the
    # wrong face or cell moves its entry: each neighbour of the centre row
    # of S = h^2 M is -w bit for bit, w sampled at the midpoint of the
    # pair's box (its lower-left node plus 0.5 h along each axis it spans);
    # E/W and N/S take a11 and a22 of their faces, NE/SW a12/2 and NW/SE
    # -a12/2 of their cells
    d = build_domain(rect_shape(1.0, 1.0), 33)
    f = _turning_field(0.8, 0.5)
    op = assemble_operator(f, d)
    h = d.h
    ci, cj = d.center_ij
    row = d.interior_map[ci, cj]
    weight = {(1, 0): (0, 0, 1.0), (-1, 0): (0, 0, 1.0),
              (0, 1): (1, 1, 1.0), (0, -1): (1, 1, 1.0),
              (1, 1): (0, 1, 0.5), (-1, -1): (0, 1, 0.5),
              (1, -1): (0, 1, -0.5), (-1, 1): (0, 1, -0.5)}
    # the diagonal sums the axial pairs, then the diagonal ones, in this order
    sums = [0.0, 0.0]
    for (di, dj), (k, l, scale) in weight.items():
        li, lj = ci + min(di, 0), cj + min(dj, 0)
        x = [d.xs[li] + 0.5 * h * abs(di), d.ys[lj] + 0.5 * h * abs(dj)]
        w = scale * f.matrix(x)[k, l]
        assert op.matrix[row, d.interior_map[ci + di, cj + dj]] == -w
        sums[di != 0 and dj != 0] += w
    assert op.matrix[row, row] == sums[0] + sums[1]


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, math.pi, exclude_max=True),
       lam1=st.floats(1.0, 1e3), lam2=st.floats(1.0, 1e3))
def test_arm_weights_reproduce_a(theta, lam1, lam2):
    # read each arm's weight off the centre row, w_e = -S[c, c + e]:
    # the +e and -e entries agree and sum_e w_e e e^T = A; no sign is
    # required (the diagonal arm against a12 is negative)
    d = build_domain(rect_shape(1.0, 1.0), 17)
    f = rot_field(theta, lam1, lam2)
    m = assemble_operator(f, d).matrix
    ci, cj = d.center_ij
    row = d.interior_map[ci, cj]
    got = np.zeros((2, 2))
    for e in ((1, 0), (0, 1), (1, 1), (1, -1)):
        plus, minus = (m[row, d.interior_map[ci + s * e[0], cj + s * e[1]]]
                       for s in (1, -1))
        assert plus == minus
        got += -plus * np.outer(e, e)
    a = f.matrix([0.0, 0.0])
    assert np.abs(got - a).max() <= 1e-15 * np.abs(a).max()
