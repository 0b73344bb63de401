"""Zero-set extraction and first-variation identity checks.

Minimizers of the bending-plus-measure energy cross zero transversally, so
their zero level set is a union of closed curves inside the domain.  This
module extracts those curves by marching squares, counts the components of
the negative region, builds the curve-supported measure that the energy's
stationarity conditions pair test functions against, and evaluates both
variational identities as falsifiable residuals.
"""

from dataclasses import dataclass
import math

import numpy as np

from .grid import BOUNDARY, EXTERIOR, central_gradient, write_table

_degenerate_grad = 2e-7   # x max(u) / bbox_halfwidth: 1e-8 on the builtin

# a cell's corners 0=(i,j) 1=(i+1,j) 2=(i+1,j+1) 3=(i,j+1) as offsets, and
# its edges 0-1, 1-2, 3-2, 0-3 as (axis, di, dj): the grid edge along axis
# from node (i+di, j+dj)
_corners = ((0, 0), (1, 0), (1, 1), (0, 1))
_edges = ((0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 0, 0))

_bump_count = 5
_bump_halfwidth = 0.2
# half-widths (and the empty-set spots) are in units of the bounding-box
# halfwidth, so the bank scales with the domain.  loop-vertex bumps take
# _bump_halfwidth; with an empty zero set the spots are (x, y, halfwidth):
# on the unit disk these straddle the radius-0.76 zero set of
# the small-trace minimizer, where both identity sides carry O(1) signal
_empty_set_spots = ((0.76, 0.0, 0.2), (-0.76, 0.0, 0.2), (0.0, 0.76, 0.2),
                    (0.0, -0.76, 0.2), (0.537, 0.537, 0.15))
# directions of the domain-variation pushes, cycled over the centres
_push_patterns = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (1.0, 0.0))


@dataclass(frozen=True)
class NodalLoop:
    """One closed polyline of the zero set.

    component: label of the negative region this loop bounds.
    vertices: (m, 2) points; the segment from vertex m-1 back to vertex 0
        closes the loop.
    grad_mag: |grad u| at each vertex, bilinearly sampled.
    """

    component: int
    vertices: np.ndarray
    grad_mag: np.ndarray


@dataclass(frozen=True)
class NodalSet:
    loops: tuple
    length: float
    components_negative: int

    def min_grad(self):
        if not self.loops:
            return float("inf")
        return min(float(lp.grad_mag.min()) for lp in self.loops)


@dataclass(frozen=True)
class MeasureDensity:
    """Curve quadrature of dH1/(2 |grad u|): midpoint rule per segment."""

    vertices: np.ndarray   # (n, 2) segment midpoints
    weights: np.ndarray    # (n,) segment_length / (2 |grad u|)
    grad: np.ndarray       # (n, 2) grad u at the midpoints

    def total_mass(self):
        return float(self.weights.sum())


def bilinear_sample(domain, values, pts):
    """Sample a full-grid array at arbitrary points inside the grid box."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = domain.h
    fx = (pts[:, 0] - domain.xs[0]) / h
    fy = (pts[:, 1] - domain.ys[0]) / h
    n = values.shape[0]
    i0 = np.clip(np.floor(fx).astype(int), 0, n - 2)
    j0 = np.clip(np.floor(fy).astype(int), 0, n - 2)
    tx = fx - i0
    ty = fy - j0
    v = ((1 - tx) * (1 - ty) * values[i0, j0]
         + tx * (1 - ty) * values[i0 + 1, j0]
         + (1 - tx) * ty * values[i0, j0 + 1]
         + tx * ty * values[i0 + 1, j0 + 1])
    return v


def _saddle_pairs(neg00, avg):
    # four crossing edges; pair them so same-sign corners stay connected
    # according to the cell-average sign
    if neg00:
        return ((0, 1), (2, 3)) if avg < 0.0 else ((0, 3), (1, 2))
    return ((0, 3), (1, 2)) if avg < 0.0 else ((0, 1), (2, 3))


def _label_components(mask):
    """4-connected components of a boolean grid: (labels, count), labels
    1..count on the mask and 0 off it, each component numbered by its first
    node in row-major order.  scipy.sparse.csgraph is imported here, at the
    first count, not at package import."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    n = int(np.count_nonzero(mask))
    node = np.full(mask.shape, -1)
    node[mask] = np.arange(n)
    # edges from each masked node to its masked lower and right neighbours
    down = mask[:-1] & mask[1:]
    right = mask[:, :-1] & mask[:, 1:]
    rows = np.concatenate([node[:-1][down], node[:, :-1][right]])
    cols = np.concatenate([node[1:][down], node[:, 1:][right]])
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    count, comp = connected_components(graph, directed=False)
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = comp + 1
    return labels, int(count)


def extract_nodal(domain, u):
    """Marching-squares zero contour plus negative-component census.

    input : the domain and a full-grid array on it, positive on the
            domain's boundary nodes.
    output: NodalSet.  Loops are closed; each carries the label of the
            negative region it bounds.
    raises: ValueError when the zero set reaches the domain boundary (a
            nonpositive boundary node, or a sign change in a rim cell).
    """
    d = domain
    inside = d.mask != EXTERIOR
    neg = (u < 0.0) & inside
    if np.any(neg & (d.mask == BOUNDARY)):
        raise ValueError("field is nonpositive on a domain boundary node")

    labels, n_comp = _label_components(neg)

    # one vertex on every grid edge whose end nodes differ in sign, numbered
    # in vid[axis, i, j] for the edge from node (i, j) along that axis
    cross = np.zeros((2,) + u.shape, dtype=bool)
    cross[0, :-1] = np.diff(neg, axis=0)
    cross[1, :, :-1] = np.diff(neg, axis=1)
    axis, i0, j0 = np.nonzero(cross)
    vid = np.full(cross.shape, -1)
    vid[cross] = np.arange(len(axis))
    i1, j1 = i0 + (axis == 0), j0 + (axis == 1)
    a, b = u[i0, j0], u[i1, j1]
    t = a / (a - b)
    vert_pos = np.stack([d.xs[i0] + t * (d.xs[i1] - d.xs[i0]),
                         d.ys[j0] + t * (d.ys[j1] - d.ys[j0])], axis=1)

    # candidate cells: any corner sign differs
    c_neg = neg[:-1, :-1].astype(int) + neg[1:, :-1] + neg[1:, 1:] + neg[:-1, 1:]
    cells = np.argwhere((c_neg > 0) & (c_neg < 4))

    segments, seg_label = [], []
    for i, j in cells.tolist():
        nodes = [(i + di, j + dj) for di, dj in _corners]
        if not all(inside[p] for p in nodes):
            raise ValueError("zero set crosses a cell on the domain rim")
        flags = [bool(neg[p]) for p in nodes]
        edge = [vid[axis, i + di, j + dj] for axis, di, dj in _edges]
        crossing = [k for k in range(4) if edge[k] >= 0]
        if len(crossing) == 2:
            pairs = (crossing,)
        else:
            avg = float(sum(u[p] for p in nodes)) / 4.0
            pairs = _saddle_pairs(flags[0], avg)
        label = int(labels[nodes[flags.index(True)]])
        for ea, eb in pairs:
            segments.append((edge[ea], edge[eb]))
            seg_label.append(label)

    if not segments:
        return NodalSet((), 0.0, int(n_comp))

    # stitch segments into closed loops: every vertex must end exactly two,
    # so the next segment at v is the sum of v's two minus the current one,
    # and the next vertex the sum of that segment's ends minus v
    segments = np.array(segments)
    ends = segments.ravel()
    bad = np.flatnonzero(np.bincount(ends, minlength=len(vert_pos)) != 2)
    if bad.size:
        raise RuntimeError("zero set is not a closed curve at vertex %d" % bad[0])
    seg_sum = np.bincount(ends, np.arange(ends.size) // 2).astype(int).tolist()
    end_sum = segments.sum(axis=1).tolist()
    segments = segments.tolist()

    gx, gy = np.moveaxis(central_gradient(d, u), -1, 0)
    used = [False] * len(segments)
    loops = []
    total_len = 0.0
    for s0 in range(len(segments)):
        if used[s0]:
            continue
        chain, cur_v, cur_s = [segments[s0][0]], segments[s0][1], s0
        used[s0] = True
        while cur_v != chain[0]:
            chain.append(cur_v)
            cur_s = seg_sum[cur_v] - cur_s
            used[cur_s] = True
            cur_v = end_sum[cur_s] - cur_v
        pts = vert_pos[chain]
        gm = np.hypot(bilinear_sample(d, gx, pts), bilinear_sample(d, gy, pts))
        loops.append(NodalLoop(seg_label[s0], pts, gm))
        total_len += float(np.linalg.norm(
            pts - np.roll(pts, -1, axis=0), axis=1).sum())

    return NodalSet(tuple(loops), total_len, int(n_comp))


def gradient_floor(domain, u):
    """The least |grad u| on the zero set of u that is not degenerate."""
    return (_degenerate_grad * float(u[domain.mask != EXTERIOR].max())
            / domain.shape.bbox_halfwidth())


def measure_density(domain, u, nodal):
    """Quadrature of the stationarity measure of the full-grid array u:
    weight len/(2|grad u|) at each segment midpoint of its zero set."""
    if not nodal.loops:
        return MeasureDensity(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)))
    d = domain
    gx, gy = np.moveaxis(central_gradient(d, u), -1, 0)
    # segment k of a loop runs from vertex k to vertex k+1, wrapping round
    p0 = np.concatenate([lp.vertices for lp in nodal.loops])
    p1 = np.concatenate([np.roll(lp.vertices, -1, axis=0) for lp in nodal.loops])
    mids = 0.5 * (p0 + p1)
    grad = np.stack([bilinear_sample(d, gx, mids), bilinear_sample(d, gy, mids)],
                    axis=-1)
    g = np.hypot(grad[:, 0], grad[:, 1])
    bad = np.flatnonzero(g < gradient_floor(d, u))
    if bad.size:
        raise RuntimeError("degenerate gradient %g on the zero set" % g[bad[0]])
    # sqrt of each segment's own dot product: bit-identical to a
    # per-segment np.linalg.norm, which norm(axis=1) and hypot are not
    seg = p1 - p0
    length = np.sqrt((seg[:, None, :] @ seg[:, :, None])[:, 0, 0])
    return MeasureDensity(mids, length / (2.0 * g), grad)


# ---------------------------------------------------------------------------
# variational identities


@dataclass(frozen=True)
class ResidualRecord:
    lhs: float
    rhs: float
    rel: float


def relative_defect(a, b):
    """|a - b| / max(|a|, |b|), and 0 for two equal values, zeros too."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if a != b else 0.0


def sample_on_grid(domain, fn):
    """fn(x, y) at every node as read-only float grids (a tuple of them
    for a vector field).  fn runs once on the node axes, x a column and y a
    row, and is broadcast: for an elementwise fn, as every test-bank
    function is, that equals fn(domain.X, domain.Y) bit for bit, and a
    tensor bump's factors cost O(n), not O(n^2)."""
    out = fn(domain.xs[:, None], domain.ys[None, :])
    shape = domain.mask.shape
    if isinstance(out, tuple):
        return tuple(np.broadcast_to(np.asarray(c, dtype=float), shape)
                     for c in out)
    return np.broadcast_to(np.asarray(out, dtype=float), shape)


def el_residual(op, state, dens, test_bank):
    """First variation against scalar test functions.

    For each test function f (vanishing on the domain boundary) the inner
    variation of the energy gives

        2 sum (L_h u)(L_h f) h^2  =  - sum_segments f * len / |grad u|

    with the right side read off dens, the zero-set quadrature of state.u
    (measure_density).  Returns one ResidualRecord per test function.
    """
    d = op.domain
    out = []
    for fn in test_bank:
        lf = op.apply_field(sample_on_grid(d, fn))
        lhs = 2.0 * d.h ** 2 * float(state.v @ lf)
        f_mid = np.asarray(fn(dens.vertices[:, 0], dens.vertices[:, 1]),
                           dtype=float)
        rhs = -2.0 * float(f_mid @ dens.weights)
        out.append(ResidualRecord(lhs, rhs, relative_defect(lhs, rhs)))
    return out


def domain_variation_residual(op, state, dens, psi_bank):
    """Outer variation against vector fields with interior support.

    Sliding the domain by psi trades the measure of the positive region
    against transport across the zero set:

        - sum_{u>0} div_h(psi) w_node  =  2 sum (psi . grad u) * weight

    with the weights and midpoint gradients of dens, the zero-set
    quadrature of state.u (measure_density).  Returns one ResidualRecord
    per field.
    """
    d = op.domain
    w_grid = d.field(*d.measure_weights)
    pos = (state.u > 0.0) & (d.mask != EXTERIOR)

    out = []
    for psi in psi_bank:
        px, py = sample_on_grid(d, psi)
        div = (central_gradient(d, px)[..., 0]
               + central_gradient(d, py)[..., 1])
        lhs = -float((div * w_grid)[pos].sum())
        pxm, pym = psi(dens.vertices[:, 0], dens.vertices[:, 1])
        dot = (np.asarray(pxm, dtype=float) * dens.grad[:, 0]
               + np.asarray(pym, dtype=float) * dens.grad[:, 1])
        rhs = 2.0 * float(dot @ dens.weights)
        out.append(ResidualRecord(lhs, rhs, relative_defect(lhs, rhs)))
    return out


# ---------------------------------------------------------------------------
# test bank and output


def bump_profile(t):
    """C2 compact profile (1 - t^2)^3 on |t| < 1."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, (1.0 - t * t) ** 3, 0.0)


def bump_profile_deriv(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, -6.0 * t * (1.0 - t * t) ** 2, 0.0)


def tensor_bump(cx, cy, halfwidth):
    def fn(x, y):
        return bump_profile((x - cx) / halfwidth) * \
            bump_profile((y - cy) / halfwidth)
    return fn


def _axis_push(bump, ax, ay):
    def fn(x, y):
        b = bump(x, y)
        return ax * b, ay * b
    return fn


def _curl_field(cx, cy, w):
    def fn(x, y):
        px = -bump_profile((x - cx) / w) * bump_profile_deriv((y - cy) / w) / w
        py = bump_profile_deriv((x - cx) / w) * bump_profile((y - cy) / w) / w
        return px, py
    return fn


@dataclass(frozen=True)
class BumpBank:
    """Test functions of both stationarity identities on shared supports."""

    centers: tuple      # ((x, y), ...) as Python floats
    halfwidths: tuple   # one Python float per centre
    scalars: tuple      # tensor bumps, for el_residual
    pushes: tuple       # axis pushes, the patterns cycled over the centres
    curl: object        # divergence-free control on the first centre


def bump_bank(domain, nodal):
    """The test bank of a state's zero set: five centres spread over the
    loop vertices, or five fixed placements when the zero set is empty.
    Half-widths and fixed placements scale with the domain's
    bbox_halfwidth; half-widths are clipped to 0.95 x clearance / sqrt(2),
    so each square support lies strictly inside the domain, and a centre
    narrower than 4h is dropped.
    raises: RuntimeError when no centre is admissible.
    """
    half = domain.shape.bbox_halfwidth()
    if nodal.loops:
        verts = np.concatenate([lp.vertices for lp in nodal.loops])
        picks = verts[(np.arange(_bump_count) * len(verts)) // _bump_count]
        spots = [(float(x), float(y), half * _bump_halfwidth)
                 for x, y in picks]
    else:
        spots = [(half * x, half * y, half * w)
                 for x, y, w in _empty_set_spots]
    centers, widths = [], []
    for cx, cy, cap in spots:
        clearance = -float(domain.shape.sdf(np.array([cx, cy])))
        w = min(cap, 0.95 * clearance / math.sqrt(2.0))
        if w >= 4.0 * domain.h:
            centers.append((cx, cy))
            widths.append(w)
    if not centers:
        raise RuntimeError(
            "no admissible test-bump centers: none sits far enough inside "
            "the boundary at this resolution")
    scalars = tuple(tensor_bump(cx, cy, w)
                    for (cx, cy), w in zip(centers, widths))
    pushes = tuple(_axis_push(scalars[k % len(scalars)], ax, ay)
                   for k, (ax, ay) in enumerate(_push_patterns))
    return BumpBank(tuple(centers), tuple(widths), scalars, pushes,
                    _curl_field(*centers[0], widths[0]))


def write_nodal_csv(nodal, path):
    """Dump loops as rows component,vertex_index,x,y,grad_mag."""
    blocks = [(np.full(len(lp.vertices), lp.component),
               np.arange(len(lp.vertices)), lp.vertices[:, 0],
               lp.vertices[:, 1], lp.grad_mag) for lp in nodal.loops]
    write_table(path, "component,vertex_index,x,y,grad_mag",
                "%d,%d,%.17g,%.17g,%.17g",
                [np.concatenate(c) for c in zip(*blocks)])
