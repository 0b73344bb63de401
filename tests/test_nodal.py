"""Zero-set extraction, measure quadrature, and variational identities."""

import csv

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest
from scipy import ndimage

from anisoplate import build_domain, disk_shape, make_field, minimize, rect_shape
from anisoplate.grid import (BOUNDARY, EXTERIOR, INTERIOR, assemble_operator,
                             central_gradient)
from anisoplate.minimizer import MinimizerState
from anisoplate.nodal import (
    NodalLoop,
    NodalSet,
    bilinear_sample,
    bump_bank,
    bump_profile,
    domain_variation_residual,
    el_residual,
    extract_nodal,
    measure_density,
    sample_on_grid,
    tensor_bump,
    write_nodal_csv,
    _label_components,
    _saddle_pairs,
)

SMALL_C = 0.05


@pytest.fixture(scope="module")
def iso():
    return make_field("identity")


@pytest.fixture(scope="module")
def dom129():
    return build_domain(disk_shape(1.0), 129)


@pytest.fixture(scope="module")
def op129(iso, dom129):
    return assemble_operator(iso, dom129)


@pytest.fixture(scope="module")
def small129(op129):
    return minimize(op129, SMALL_C)


@pytest.fixture(scope="module")
def nodal129(dom129, small129):
    return extract_nodal(dom129, small129.u)


@pytest.fixture(scope="module")
def dens129(dom129, small129, nodal129):
    return measure_density(dom129, small129.u, nodal129)


@pytest.fixture(scope="module")
def bank129(dom129, nodal129):
    return bump_bank(dom129, nodal129)


def _circle_field(res):
    dom = build_domain(rect_shape(2.0, 2.0), res)
    return dom, dom.X ** 2 + dom.Y ** 2 - 0.25


def _state_of(dom, u):
    """A state with the full-grid u and L_h u = 0."""
    return MinimizerState(u, np.zeros(dom.n_interior), 0.0, 0.0, 1.0, (),
                          True)


def _constant_field(dom, value):
    """value at the non-exterior nodes, zero elsewhere."""
    return np.where(dom.mask != EXTERIOR, value, 0.0)


# ---------------------------------------------------------------------------
# extraction


@pytest.mark.parametrize("res,tol", [(129, 0.02), (257, 0.02)])
def test_circle_oracle(res, tol):
    dom, u = _circle_field(res)
    nod = extract_nodal(dom, u)
    assert len(nod.loops) == 1
    assert nod.components_negative == 1
    assert abs(nod.length - np.pi) <= tol * np.pi
    # |grad| = 2r = 1 on the curve
    assert abs(nod.min_grad() - 1.0) <= 0.05
    # vertices re-interpolate to zero
    scale = np.abs(u).max()
    for lp in nod.loops:
        reint = np.abs(bilinear_sample(dom, u, lp.vertices))
        assert reint.max() <= 1e-8 * scale


def test_empty_nodal_set():
    dom = build_domain(rect_shape(2.0, 2.0), 33)
    nod = extract_nodal(dom, _constant_field(dom, 1.0))
    assert nod.loops == ()
    assert nod.length == 0.0
    assert nod.components_negative == 0


def test_two_wells_two_components():
    dom = build_domain(rect_shape(2.0, 2.0), 129)
    b1 = tensor_bump(-0.5, 0.0, 0.35)
    b2 = tensor_bump(0.5, 0.0, 0.35)
    u = 0.1 - 0.5 * b1(dom.X, dom.Y) - 0.5 * b2(dom.X, dom.Y)
    nod = extract_nodal(dom, u)
    assert nod.components_negative == 2
    assert len(nod.loops) == 2
    assert len({lp.component for lp in nod.loops}) == 2


def _checkerboard(n, m):
    return (np.add.outer(np.arange(n), np.arange(m)) % 2).astype(bool)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                         min_side=1, max_side=24)))
@example(np.zeros((5, 7), dtype=bool))
@example(np.ones((6, 4), dtype=bool))
@example(np.array([[True, False, True, True, False, True]]))
@example(np.array([[True], [True], [False], [True]]))
@example(_checkerboard(7, 8))
@example(~_checkerboard(6, 5))
def test_label_components_matches_ndimage(mask):
    # scipy.ndimage.label with the 4-neighbour structure is the reference:
    # the same labels, numbered by first node in row-major order, and the
    # same count; a checkerboard's diagonal neighbours stay separate
    ref, n_ref = ndimage.label(mask, structure=[[0, 1, 0], [1, 1, 1],
                                                [0, 1, 0]])
    labels, n = _label_components(mask)
    assert n == n_ref
    assert np.array_equal(labels, ref)


def test_boundary_touch_raises():
    dom = build_domain(rect_shape(2.0, 2.0), 33)
    with pytest.raises(ValueError):
        extract_nodal(dom, dom.X.copy())


def test_saddle_pairing_rules():
    # negative corners on the main diagonal: joined when the average dips
    assert _saddle_pairs(True, -0.1) == ((0, 1), (2, 3))
    assert _saddle_pairs(True, 0.1) == ((0, 3), (1, 2))
    assert _saddle_pairs(False, -0.1) == ((0, 3), (1, 2))
    assert _saddle_pairs(False, 0.1) == ((0, 1), (2, 3))


def test_saddle_cell_end_to_end():
    # two isolated negative nodes sharing one cell diagonally; the positive
    # average keeps them apart: two loops, two components
    dom = build_domain(rect_shape(2.0, 2.0), 17)
    u = _constant_field(dom, 2.0)
    u[8, 8] = -1.0
    u[9, 9] = -1.0
    nod = extract_nodal(dom, u)
    assert nod.components_negative == 2
    assert len(nod.loops) == 2


def _dict_extract_nodal(domain, u):
    # the dictionary-based extraction that extract_nodal replaced, kept as
    # an oracle: vertices made per cell through a vertex-of-edge dict, and
    # loops stitched through a vertex -> segments dict
    d = domain
    inside = d.mask != EXTERIOR
    neg = (u < 0.0) & inside
    if np.any(neg & (d.mask == BOUNDARY)):
        raise ValueError("field is nonpositive on a domain boundary node")
    labels, n_comp = _label_components(neg)
    c_neg = neg[:-1, :-1].astype(int) + neg[1:, :-1] + neg[1:, 1:] + neg[:-1, 1:]
    cells = np.argwhere((c_neg > 0) & (c_neg < 4))
    corner_off = ((0, 0), (1, 0), (1, 1), (0, 1))
    edges = ((0, 1), (1, 2), (3, 2), (0, 3))
    vert_pos = []
    vert_of_edge = {}
    segments = []
    seg_label = []

    def edge_vertex(i0, j0, i1, j1):
        key = (i0, j0, i1, j1)
        idx = vert_of_edge.get(key)
        if idx is not None:
            return idx
        a = u[i0, j0]
        b = u[i1, j1]
        t = a / (a - b)
        x = d.xs[i0] + t * (d.xs[i1] - d.xs[i0])
        y = d.ys[j0] + t * (d.ys[j1] - d.ys[j0])
        idx = len(vert_pos)
        vert_pos.append((x, y))
        vert_of_edge[key] = idx
        return idx

    for i, j in cells:
        nodes = [(i + di, j + dj) for di, dj in corner_off]
        if not all(inside[p] for p in nodes):
            raise ValueError("zero set crosses a cell on the domain rim")
        flags = [bool(neg[p]) for p in nodes]
        crossing = [k for k, (a, b) in enumerate(edges) if flags[a] != flags[b]]
        neg_node = nodes[flags.index(True)]
        if len(crossing) == 2:
            pairs = (tuple(crossing),)
        else:
            avg = float(sum(u[p] for p in nodes)) / 4.0
            pairs = _saddle_pairs(flags[0], avg)
        for ea, eb in pairs:
            va = edge_vertex(*nodes[edges[ea][0]], *nodes[edges[ea][1]])
            vb = edge_vertex(*nodes[edges[eb][0]], *nodes[edges[eb][1]])
            segments.append((va, vb))
            seg_label.append(int(labels[neg_node]))

    if not segments:
        return NodalSet((), 0.0, int(n_comp))
    incident = {}
    for s, (va, vb) in enumerate(segments):
        incident.setdefault(va, []).append(s)
        incident.setdefault(vb, []).append(s)
    for v, ss in incident.items():
        if len(ss) != 2:
            raise RuntimeError("zero set is not a closed curve at vertex %d" % v)
    vert_pos = np.asarray(vert_pos)
    gx, gy = np.moveaxis(central_gradient(d, u), -1, 0)
    used = [False] * len(segments)
    loops = []
    total_len = 0.0
    for s0 in range(len(segments)):
        if used[s0]:
            continue
        chain = [segments[s0][0]]
        cur_v = segments[s0][1]
        cur_s = s0
        used[s0] = True
        while cur_v != chain[0]:
            chain.append(cur_v)
            a, b = incident[cur_v]
            nxt = b if a == cur_s else a
            used[nxt] = True
            va, vb = segments[nxt]
            cur_v = vb if va == cur_v else va
            cur_s = nxt
        pts = vert_pos[chain]
        gm = np.hypot(bilinear_sample(d, gx, pts), bilinear_sample(d, gy, pts))
        loops.append(NodalLoop(seg_label[s0], pts, gm))
        total_len += float(np.linalg.norm(
            pts - np.roll(pts, -1, axis=0), axis=1).sum())
    return NodalSet(tuple(loops), total_len, int(n_comp))


_block_values = (-1.0, -0.5, 0.0, 0.25, 1.0)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, (9, 9), elements=st.one_of(
    st.floats(-1.0, 1.0), st.sampled_from(_block_values))))
@example(np.where(_checkerboard(9, 9), -1.0, 1.0))
@example(np.where(_checkerboard(9, 9), 0.0, 0.25))
@example(np.full((9, 9), -0.5))
def test_extraction_matches_the_dict_oracle(block):
    # a 9x9 block of signs, saddles and exact zeros amid a field of 1 on
    # rect(2,2) at 17^2 must give the oracle's loops bit for bit, in the
    # same order and direction.  No golden reference run has a saddle cell
    # or a second loop, so the golden manifest alone cannot see a pairing
    # or stitching error; this test can
    dom = build_domain(rect_shape(2.0, 2.0), 17)
    u = np.ones(dom.mask.shape)
    u[5:14, 5:14] = block
    got, ref = extract_nodal(dom, u), _dict_extract_nodal(dom, u)
    assert got.components_negative == ref.components_negative
    assert got.length == ref.length
    assert len(got.loops) == len(ref.loops)
    for a, b in zip(got.loops, ref.loops):
        assert a.component == b.component
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.grad_mag.tobytes() == b.grad_mag.tobytes()


def test_loops_are_closed_cycles(nodal129):
    for lp in nodal129.loops:
        assert len(lp.vertices) >= 4
        # consecutive vertices stay within one cell diagonal
        d = lp.vertices - np.roll(lp.vertices, -1, axis=0)
        assert np.linalg.norm(d, axis=1).max() <= 2 * 2.0 / 128


def test_nodal_interior_collar(nodal129):
    for lp in nodal129.loops:
        r = np.hypot(lp.vertices[:, 0], lp.vertices[:, 1])
        assert (1.0 - r).min() >= 0.05


def test_min_grad_positive(nodal129):
    assert nodal129.min_grad() > 0.1


# ---------------------------------------------------------------------------
# measure quadrature


def _per_segment_density(d, u, nodal):
    # the per-segment loop that measure_density replaced, kept as an oracle;
    # returns the midpoints, weights and gradients in segment order
    gx = np.gradient(u, d.h, axis=0, edge_order=1)
    gy = np.gradient(u, d.h, axis=1, edge_order=1)
    mids, wts, grads = [], [], []
    for lp in nodal.loops:
        pts = lp.vertices
        for k in range(len(pts)):
            p0, p1 = pts[k], pts[(k + 1) % len(pts)]
            mid = 0.5 * (p0 + p1)
            g = float(np.hypot(bilinear_sample(d, gx, mid)[0],
                               bilinear_sample(d, gy, mid)[0]))
            mids.append(mid)
            grads.append(g)
            wts.append(float(np.linalg.norm(p1 - p0)) / (2.0 * g))
    return np.asarray(mids), np.asarray(wts), grads


def test_measure_density_circle():
    dom, u = _circle_field(129)
    nod = extract_nodal(dom, u)
    dens = measure_density(dom, u, nod)
    assert np.all(dens.weights > 0)
    assert np.all(np.isfinite(dens.weights))
    # mass = len / (2 |grad|) = pi / 2 on the circle
    assert abs(dens.total_mass() - 0.5 * np.pi) <= 0.01 * np.pi


def test_degenerate_gradient_guard():
    # the guard is relative to max(u) / bbox_halfwidth: a regular field
    # scaled down by 1e-12 passes, while one whose zero set is as flat but
    # which rises to O(1) away from it (past r = 0.75, beyond every
    # difference footprint of the r = 0.5 zero set) is degenerate
    dom = build_domain(rect_shape(2.0, 2.0), 33)
    r = np.hypot(dom.X, dom.Y)
    u = 1e-12 * (r ** 2 - 0.25)
    nod = extract_nodal(dom, u)
    assert measure_density(dom, u, nod).total_mass() > 0.0
    u = u + np.maximum(r - 0.75, 0.0) ** 2
    nod = extract_nodal(dom, u)
    with pytest.raises(RuntimeError) as err:
        measure_density(dom, u, nod)
    # the first offending segment is the one reported
    first = _per_segment_density(dom, u, nod)[2][0]
    assert str(err.value) == "degenerate gradient %g on the zero set" % first


def test_measure_density_matches_per_segment_loop(dom129, small129,
                                                  nodal129):
    cdom, circle = _circle_field(129)
    for d, u, nod in ((dom129, small129.u, nodal129),
                      (cdom, circle, extract_nodal(cdom, circle))):
        dens = measure_density(d, u, nod)
        mids, wts, _ = _per_segment_density(d, u, nod)
        assert len(wts) > 100
        assert np.array_equal(dens.vertices, mids)
        assert dens.weights.tobytes() == wts.tobytes()


def test_strip_ratio_matches_curve_quadrature(dom129, small129, nodal129):
    # coarea: |{0 < u < eps}| / eps -> int_{u=0} ds / |grad u|, twice the
    # curve measure; the strip area is the weighted node count
    dens = measure_density(dom129, small129.u, nodal129)
    curve = 2.0 * dens.total_mass()
    eps = 0.02
    wi, wb = dom129.measure_weights
    ui, ub = (small129.u.take(f) for f in dom129.flat_index)
    strip = (float(wi @ ((ui > 0.0) & (ui < eps)))
             + float(wb @ ((ub > 0.0) & (ub < eps)))) / eps
    assert abs(strip - curve) <= 0.2 * curve


# ---------------------------------------------------------------------------
# variational identities


def test_el_residual_scenario(op129, small129, dens129, bank129):
    recs = el_residual(op129, small129, dens129, bank129.scalars)
    assert max(r.rel for r in recs) <= 0.15
    # both sides carry real signal for the on-set bumps
    assert min(abs(r.lhs) for r in recs) > 0.3


def test_el_residual_empty_trivial(op129, dom129):
    u = _constant_field(dom129, 1.0)
    state = _state_of(dom129, u)
    nod = extract_nodal(dom129, u)
    recs = el_residual(op129, state, measure_density(dom129, u, nod),
                       bump_bank(dom129, nod).scalars)
    for r in recs:
        assert abs(r.lhs) <= 1e-8
        assert abs(r.rhs) <= 1e-8


def test_el_residual_linearity(op129, small129, dens129):
    f = tensor_bump(0.76, 0.0, 0.2)
    f7 = lambda x, y: 7.0 * f(x, y)
    r1, r7 = el_residual(op129, small129, dens129, (f, f7))
    assert r7.lhs == pytest.approx(7.0 * r1.lhs, rel=1e-12)
    assert r7.rhs == pytest.approx(7.0 * r1.rhs, rel=1e-12)


def test_domain_variation_scenario(op129, small129, dens129, bank129):
    recs = domain_variation_residual(op129, small129, dens129,
                                     bank129.pushes)
    assert max(r.rel for r in recs) <= 0.2


def test_domain_variation_divergence_free(op129, small129, nodal129,
                                          dens129):
    # psi = curl of a scalar bump: discrete divergence cancels exactly
    w = 0.25

    def dbump(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) < 1.0, -6.0 * t * (1.0 - t * t) ** 2, 0.0)

    def psi(x, y):
        px = -bump_profile((x - 0.7) / w) * dbump(y / w) / w
        py = dbump((x - 0.7) / w) * bump_profile(y / w) / w
        return px, py

    recs = domain_variation_residual(op129, small129, dens129, (psi,))
    dom = op129.domain
    px, py = psi(dom.X, dom.Y)
    scale = float(np.hypot(px, py).max()) * nodal129.length
    assert abs(recs[0].lhs) <= 1e-10 * scale
    assert abs(recs[0].rhs) <= 0.05 * scale


def test_domain_variation_support_off_the_set(op129, small129, dens129):
    # support inside the positive annulus, clear of the zero set: the curve
    # side vanishes identically and the bulk side telescopes away
    def psi(x, y):
        r = np.hypot(x, y)
        eta = bump_profile((r - 0.9) / 0.05)
        return eta * np.asarray(x, dtype=float), eta * np.asarray(y, dtype=float)

    recs = domain_variation_residual(op129, small129, dens129, (psi,))
    assert recs[0].rhs == 0.0
    assert abs(recs[0].lhs) <= 1e-10


@pytest.mark.parametrize("shape", [None, disk_shape(0.5), rect_shape(2.0, 1.0)],
                         ids=["builtin", "disk_half", "rect_2x1"])
def test_bank_vanishes_on_boundary_and_exterior(dom129, bank129, shape):
    # a tensor bump's square support reaches sqrt(2) w at its corners; every
    # bank function must read exactly 0 off the interior nodes.  u0 = 10
    # leaves the zero set empty on disk(0.5) and rect(2,1)
    dom, bank = dom129, bank129
    if shape is not None:
        dom = build_domain(shape, 129)
        bank = bump_bank(dom, NodalSet((), 0.0, 0))
    assert len(bank.scalars) >= 1
    off = dom.mask != INTERIOR
    for fn in bank.scalars + bank.pushes + (bank.curl,):
        got = sample_on_grid(dom, fn)
        for comp in (got if isinstance(got, tuple) else (got,)):
            assert not np.any(comp[off])


def test_loop_bank_scales_with_the_domain(dom129, nodal129, bank129):
    # the zero set of the builtin mapped onto disk(2) by x -> 2x gets the
    # unit disk's bank with centres and half-widths doubled
    dom2 = build_domain(disk_shape(2.0), 129)
    loops2 = tuple(NodalLoop(lp.component, 2.0 * lp.vertices, lp.grad_mag)
                   for lp in nodal129.loops)
    bank2 = bump_bank(dom2, NodalSet(loops2, 2.0 * nodal129.length,
                                     nodal129.components_negative))
    assert np.array_equal(np.array(bank2.centers), 2.0 * np.array(bank129.centers))
    assert np.array_equal(bank2.halfwidths, 2.0 * np.array(bank129.halfwidths))


@pytest.mark.parametrize("shape", [disk_shape(1.0), rect_shape(2.0, 1.0)])
def test_axis_sampling_matches_full_grid(shape):
    # every bank function is elementwise, so evaluating it on the node axes
    # and broadcasting gives the full-grid evaluation bit for bit
    d = build_domain(shape, 65)
    bank = bump_bank(d, NodalSet((), 0.0, 0))
    scalars = bank.scalars + (tensor_bump(0.3, -0.2, 0.25), lambda x, y: 0.5)
    vectors = bank.pushes + (bank.curl,)

    def same_bits(sampled, full):
        full = np.broadcast_to(np.asarray(full, dtype=float), d.mask.shape)
        assert sampled.shape == d.mask.shape and sampled.dtype == float
        assert sampled.tobytes() == np.ascontiguousarray(full).tobytes()

    for fn in scalars:
        same_bits(sample_on_grid(d, fn), fn(d.X, d.Y))
    for psi in vectors:
        got = sample_on_grid(d, psi)
        assert isinstance(got, tuple) and len(got) == 2
        for sampled, full in zip(got, psi(d.X, d.Y)):
            same_bits(sampled, full)


# ---------------------------------------------------------------------------
# output


def test_write_nodal_csv(nodal129, tmp_path):
    path = tmp_path / "nodal.csv"
    write_nodal_csv(nodal129, str(path))
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["component", "vertex_index", "x", "y", "grad_mag"]
    n_vertices = sum(len(lp.vertices) for lp in nodal129.loops)
    assert len(rows) - 1 == n_vertices
    k = 1
    for lp in nodal129.loops:
        for idx in range(len(lp.vertices)):
            row = rows[k]
            assert int(row[1]) == idx
            assert float(row[2]) == lp.vertices[idx, 0]
            assert float(row[3]) == lp.vertices[idx, 1]
            k += 1
