"""Uniform-grid discretization of divergence-form operators on disks and
rectangles.

Nodes are classified interior (strictly inside), boundary (outside-or-on
nodes 8-adjacent to an interior node, carrying data at their exact
projection onto the curve) or exterior.  The operator L u = -div(A grad u)
is assembled in flux form on the interior nodes with a nine-point stencil
and symmetrized; Dirichlet solves go through the sparse LU of linsolve,
factored once per operator."""

from dataclasses import dataclass
from functools import cached_property
import math
import os

import numpy as np
import scipy.sparse as sparse

from .linsolve import solve_spd

_min_resolution = 5

# mask codes
EXTERIOR = 0
BOUNDARY = 1
INTERIOR = 2


@dataclass(frozen=True)
class DomainShape:
    """Disk of given radius or axis-aligned rectangle, centered at the
    origin."""

    kind: str
    params: tuple

    def sdf(self, pts):
        """Signed distance in the loose sense: negative strictly inside,
        zero on the curve, positive outside."""
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        if self.kind == "disk":
            return np.hypot(x, y) - self.params[0]
        w, h = self.params
        return np.maximum(np.abs(x) - 0.5 * w, np.abs(y) - 0.5 * h)

    def project(self, pts):
        """Closest point on the curve, for points outside or on it."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "disk":
            r = np.hypot(pts[..., 0], pts[..., 1])
            r = np.where(r == 0.0, 1.0, r)
            return pts * (self.params[0] / r)[..., None]
        w, h = self.params
        out = np.empty_like(pts)
        out[..., 0] = np.clip(pts[..., 0], -0.5 * w, 0.5 * w)
        out[..., 1] = np.clip(pts[..., 1], -0.5 * h, 0.5 * h)
        # points on or inside the rectangle: push the closest coordinate
        # out to the nearest edge so the result lies on the curve
        inside = self.sdf(pts) <= 0.0
        if np.any(inside):
            gx = 0.5 * w - np.abs(out[..., 0])
            gy = 0.5 * h - np.abs(out[..., 1])
            push_x = inside & (gx <= gy)
            push_y = inside & ~push_x
            sx = np.where(out[..., 0] >= 0.0, 1.0, -1.0)
            sy = np.where(out[..., 1] >= 0.0, 1.0, -1.0)
            out[..., 0] = np.where(push_x, sx * 0.5 * w, out[..., 0])
            out[..., 1] = np.where(push_y, sy * 0.5 * h, out[..., 1])
        return out

    def bbox_halfwidth(self):
        if self.kind == "disk":
            return float(self.params[0])
        return 0.5 * max(self.params)

    def area(self):
        if self.kind == "disk":
            return math.pi * self.params[0] ** 2
        return self.params[0] * self.params[1]


def disk_shape(radius):
    if radius <= 0.0:
        raise ValueError("disk radius must be positive, got %g" % radius)
    return DomainShape("disk", (float(radius),))


def rect_shape(width, height):
    if width <= 0.0 or height <= 0.0:
        raise ValueError("rectangle sides must be positive, got (%g, %g)" % (width, height))
    return DomainShape("rect", (float(width), float(height)))


def parse_shape(spec):
    """'disk(R)' or 'rect(W,H)'."""
    spec = spec.strip()
    if spec.startswith("disk(") and spec.endswith(")"):
        return disk_shape(float(spec[5:-1]))
    if spec.startswith("rect(") and spec.endswith(")"):
        parts = spec[5:-1].split(",")
        if len(parts) != 2:
            raise ValueError("rect needs two sides, got %r" % spec)
        return rect_shape(float(parts[0]), float(parts[1]))
    raise ValueError("cannot parse domain shape %r" % spec)


@dataclass(frozen=True)
class DiscreteDomain:
    """Square grid over the shape's bounding box, padded by one cell.

    h = bounding-box extent / (resolution - 1), so the padded grid holds
    resolution + 2 nodes per side; an odd resolution puts a node exactly at
    the origin.  interior_map / boundary_map give each node its packed
    ordinal or -1; boundary_proj holds the on-curve projection of each
    boundary node."""

    shape: DomainShape
    resolution: int
    h: float
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray
    interior_ij: np.ndarray
    boundary_ij: np.ndarray
    interior_map: np.ndarray
    boundary_map: np.ndarray
    interior_xy: np.ndarray
    boundary_xy: np.ndarray
    boundary_proj: np.ndarray

    @property
    def n_interior(self):
        return self.interior_ij.shape[0]

    @property
    def n_boundary(self):
        return self.boundary_ij.shape[0]

    @property
    def center_ij(self):
        """Grid index of the node at the origin (resolution is odd)."""
        c = (self.resolution + 1) // 2
        return c, c

    @cached_property
    def X(self):
        """Node x-coordinates on the full grid, ij indexing; built once and
        read-only, so no caller can change the cache in place."""
        return _read_only(np.meshgrid(self.xs, self.ys, indexing="ij")[0])

    @cached_property
    def Y(self):
        """Node y-coordinates on the full grid, ij indexing; read-only."""
        return _read_only(np.meshgrid(self.xs, self.ys, indexing="ij")[1])

    @cached_property
    def measure_weights(self):
        """Cell-coverage weights (interior, boundary) for area sums: each
        node's square cell counts by the (linearized) fraction of it lying
        inside the shape, so a node exactly on the curve counts half and
        rim cells taper off smoothly.  Exact for straight edges through
        nodes; O(h^2) for smooth curves.  Built once and read-only."""
        h = self.h
        frac_i, frac_b = (np.clip(0.5 - self.shape.sdf(xy) / h, 0.0, 1.0)
                          for xy in (self.interior_xy, self.boundary_xy))
        return _read_only(h * h * frac_i), _read_only(h * h * frac_b)

    @cached_property
    def flat_index(self):
        """Flat (row-major) grid indices of the (interior, boundary) nodes,
        in packed order, for take/put gathers; built once and read-only."""
        n = self.mask.shape[1]
        return tuple(_read_only(ij[:, 0] * n + ij[:, 1])
                     for ij in (self.interior_ij, self.boundary_ij))

    @cached_property
    def node_text(self):
        """The "x,y" text of every non-exterior node, row-major; a tuple, so
        no caller can change it.  Each axis's coordinates are formatted once
        through format_rows and joined per node."""
        i, j = np.nonzero(self.mask != EXTERIOR)
        xt = format_rows("%.17g,", (self.xs,)).splitlines()
        yt = format_rows("%.17g", (self.ys,)).splitlines()
        return tuple([xt[a] + yt[b] for a, b in zip(i.tolist(), j.tolist())])

    def interior_area(self):
        """Cell-counting area of the strictly-inside node set."""
        return self.n_interior * self.h ** 2


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def build_domain(shape, resolution):
    """Classify the nodes of a (resolution x resolution) grid on the shape's
    bounding box.

    input : DomainShape or spec string, odd resolution >= 5.
    output: DiscreteDomain.
    """
    if isinstance(shape, str):
        shape = parse_shape(shape)
    resolution = int(resolution)
    if resolution < _min_resolution:
        raise ValueError("resolution must be at least %d, got %d" % (_min_resolution, resolution))
    if resolution % 2 == 0:
        raise ValueError("resolution must be odd so a node sits at the center, got %d"
                         % resolution)
    half = shape.bbox_halfwidth()
    h = 2.0 * half / (resolution - 1)
    # bounding box padded by one cell on every side
    xs = np.linspace(-half - h, half + h, resolution + 2)
    ys = np.linspace(-half - h, half + h, resolution + 2)

    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx, gy], axis=-1)
    inside = shape.sdf(pts) < 0.0

    if np.any(inside[0, :]) or np.any(inside[-1, :]) or np.any(inside[:, 0]) or np.any(inside[:, -1]):
        raise ValueError("interior reaches the edge of the grid; bounding box too tight")

    # 8-adjacency dilation of the inside set via shifted copies
    adj = np.zeros_like(inside)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            src = inside[max(0, -di):inside.shape[0] - max(0, di),
                         max(0, -dj):inside.shape[1] - max(0, dj)]
            adj[max(0, di):adj.shape[0] - max(0, -di),
                max(0, dj):adj.shape[1] - max(0, -dj)] |= src

    n_nodes = xs.shape[0]
    mask = np.zeros((n_nodes, n_nodes), dtype=np.int8)
    mask[inside] = INTERIOR
    mask[(~inside) & adj] = BOUNDARY

    interior_ij = np.argwhere(mask == INTERIOR)
    boundary_ij = np.argwhere(mask == BOUNDARY)
    if interior_ij.shape[0] == 0:
        raise ValueError("no interior nodes; resolution too coarse for the shape")

    interior_map = np.full((n_nodes, n_nodes), -1, dtype=np.int64)
    boundary_map = np.full((n_nodes, n_nodes), -1, dtype=np.int64)
    interior_map[interior_ij[:, 0], interior_ij[:, 1]] = np.arange(interior_ij.shape[0])
    boundary_map[boundary_ij[:, 0], boundary_ij[:, 1]] = np.arange(boundary_ij.shape[0])

    interior_xy = np.stack([xs[interior_ij[:, 0]], ys[interior_ij[:, 1]]], axis=-1)
    boundary_xy = np.stack([xs[boundary_ij[:, 0]], ys[boundary_ij[:, 1]]], axis=-1)
    boundary_proj = shape.project(boundary_xy)

    return DiscreteDomain(shape, resolution, h, xs, ys, mask,
                          interior_ij, boundary_ij, interior_map, boundary_map,
                          interior_xy, boundary_xy, boundary_proj)


# ---------------------------------------------------------------------------
# scalar fields on the grid


class ScalarField:
    """Node values on the full grid; exterior entries are kept at zero.
    interior(), boundary() and replace_interior() index through the
    domain's cached flat indices."""

    def __init__(self, domain, values=None):
        self.domain = domain
        n = domain.xs.shape[0]
        if values is None:
            values = np.zeros((n, n))
        values = np.asarray(values, dtype=float)
        if values.shape != (n, n):
            raise ValueError("values shape %r does not match grid %d" % (values.shape, n))
        self.values = values

    @classmethod
    def from_function(cls, domain, fn):
        """Evaluate fn(x, y) at interior nodes and boundary projections."""
        out = cls(domain)
        ii, jj = domain.interior_ij[:, 0], domain.interior_ij[:, 1]
        out.values[ii, jj] = fn(domain.interior_xy[:, 0], domain.interior_xy[:, 1])
        bi, bj = domain.boundary_ij[:, 0], domain.boundary_ij[:, 1]
        out.values[bi, bj] = fn(domain.boundary_proj[:, 0], domain.boundary_proj[:, 1])
        return out

    def interior(self):
        return self.values.take(self.domain.flat_index[0])

    def boundary(self):
        return self.values.take(self.domain.flat_index[1])

    def replace_interior(self, vec):
        """A new field with interior values vec (one per interior node);
        boundary and exterior entries are copied, self is unchanged."""
        values = self.values.copy()
        values.reshape(-1)[self.domain.flat_index[0]] = vec
        return ScalarField(self.domain, values)

    def copy(self):
        return ScalarField(self.domain, self.values.copy())

    def write_csv(self, path, column="value"):
        """CSV x,y,<column> over non-exterior nodes, row-major in x then y;
        only the value column is formatted, the x,y text is node_text."""
        d = self.domain
        write_table(path, "x,y," + column, "%s,%.17g",
                    (d.node_text, self.values[d.mask != EXTERIOR]))


def format_rows(row_format, columns):
    """The rows of a table as one string: one row_format line, "\n"
    terminated, per row.  This is the package's one row formatter.

    columns are equal-length sequences (arrays are taken as .tolist(), so
    numpy scalars format exactly as Python's).  The whole table is
    formatted at once: row_format repeated n times, % the columns
    interleaved row by row into one flat tuple.  No columns, or empty
    ones, give the empty string; ragged ones raise ValueError."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c)
            for c in columns]
    n = len(cols[0]) if cols else 0
    flat = [None] * (n * len(cols))
    for k, c in enumerate(cols):
        flat[k::len(cols)] = c
    return (row_format + "\n") * n % tuple(flat)


def open_fresh(path):
    """open(path, "w") on a new file: an existing one is removed, not
    truncated in place, which can cost tens of ms per rewritten artifact
    (measured on ext4) and would also rewrite every hard link to it."""
    if os.path.lexists(path):
        os.remove(path)
    return open(path, "w")


def write_table(path, header, row_format, columns):
    """Write a CSV: the header line, then format_rows(row_format, columns).
    No columns, or empty ones, give the header alone."""
    rows = format_rows(row_format, columns)
    with open_fresh(path) as f:
        f.write(header + "\n")
        f.write(rows)


def central_gradient(domain, values):
    """Central-difference gradient of a full grid array, one-sided at the
    array edge; returns (res, res, 2)."""
    return np.stack(np.gradient(values, domain.h), axis=-1)


# ---------------------------------------------------------------------------
# operator assembly


@dataclass(frozen=True)
class SparseOperator:
    """L restricted to interior nodes: apply is M @ u_int + B @ u_bnd.

    The one handle on a discretized problem: it carries the coefficient
    field it was assembled from and its domain, so nothing downstream
    takes either separately."""

    field: object
    domain: DiscreteDomain
    matrix: sparse.csr_matrix
    coupling: sparse.csr_matrix
    asymmetry_defect: float

    def apply(self, u_interior, u_boundary):
        return self.matrix @ u_interior + self.coupling @ u_boundary

    def apply_field(self, fld):
        """L_h of a ScalarField, as an interior vector."""
        return self.apply(fld.interior(), fld.boundary())

    def solve_dirichlet(self, rhs_interior, boundary_values, tol=1e-10):
        """Interior solve of L u = rhs with prescribed boundary values;
        raises when the relative residual exceeds tol."""
        rhs = np.asarray(rhs_interior, dtype=float) - self.coupling @ np.asarray(
            boundary_values, dtype=float)
        return solve_spd(self.matrix, rhs, tol=tol)[0]


# stencil offsets, paired with their coefficient builders
_offsets = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (-1, 1), (1, -1))


def assemble_operator(field, domain):
    """Nine-point flux-form stencil for L u = -div(A grad u).

    Face values of A enter through one-dimensional differences for the
    diagonal entries and four-point transverse averages for the off-diagonal
    entry.  The interior block is symmetrized by averaging with its
    transpose; the pre-averaging defect is recorded and must stay at
    roundoff scale for the built-in coefficient fields.  Raises ValueError
    unless A is positive definite (a11 > 0, det > 0) at every face sample,
    since the sparse LU solve would not notice an indefinite operator.
    """
    d = domain
    h = d.h
    xy = d.interior_xy
    ex = np.array([0.5 * h, 0.0])
    ey = np.array([0.0, 0.5 * h])

    faces = np.stack([field.matrix(xy + e) for e in (ex, -ex, ey, -ey)])
    det = faces[..., 0, 0] * faces[..., 1, 1] - faces[..., 0, 1] * faces[..., 1, 0]
    if not (np.all(faces[..., 0, 0] > 0.0) and np.all(det > 0.0)):
        raise ValueError("coefficient matrix not positive definite at a face sample")
    a_e, a_w, a_n, a_s = faces

    ae, be = a_e[:, 0, 0], a_e[:, 0, 1]
    aw, bw = a_w[:, 0, 0], a_w[:, 0, 1]
    an, bn = a_n[:, 1, 1], a_n[:, 0, 1]
    as_, bs = a_s[:, 1, 1], a_s[:, 0, 1]

    h2 = h * h
    coef = {
        (0, 0): (ae + aw + an + as_) / h2,
        (1, 0): -ae / h2 - (bn - bs) / (4 * h2),
        (-1, 0): -aw / h2 + (bn - bs) / (4 * h2),
        (0, 1): -an / h2 - (be - bw) / (4 * h2),
        (0, -1): -as_ / h2 + (be - bw) / (4 * h2),
        (1, 1): -(be + bn) / (4 * h2),
        (-1, -1): -(bw + bs) / (4 * h2),
        (-1, 1): (bw + bn) / (4 * h2),
        (1, -1): (be + bs) / (4 * h2),
    }

    ii, jj = d.interior_ij[:, 0], d.interior_ij[:, 1]
    rows_m, cols_m, vals_m = [], [], []
    rows_b, cols_b, vals_b = [], [], []
    n_int = d.n_interior
    row_idx = np.arange(n_int)

    for (di, dj) in _offsets:
        ni, nj = ii + di, jj + dj
        im = d.interior_map[ni, nj]
        bm = d.boundary_map[ni, nj]
        into_interior = im >= 0
        into_boundary = (~into_interior) & (bm >= 0)
        orphan = ~(into_interior | into_boundary)
        if np.any(orphan):
            raise RuntimeError("stencil of an interior node reaches an exterior node; "
                               "classification violated 8-adjacency")
        v = coef[(di, dj)]
        rows_m.append(row_idx[into_interior])
        cols_m.append(im[into_interior])
        vals_m.append(v[into_interior])
        rows_b.append(row_idx[into_boundary])
        cols_b.append(bm[into_boundary])
        vals_b.append(v[into_boundary])

    m = sparse.coo_matrix(
        (np.concatenate(vals_m), (np.concatenate(rows_m), np.concatenate(cols_m))),
        shape=(n_int, n_int)).tocsr()
    b = sparse.coo_matrix(
        (np.concatenate(vals_b), (np.concatenate(rows_b), np.concatenate(cols_b))),
        shape=(n_int, d.n_boundary)).tocsr()

    defect_mat = (m - m.T).tocoo()
    defect = float(np.max(np.abs(defect_mat.data))) if defect_mat.nnz else 0.0
    m = ((m + m.T) * 0.5).tocsr()
    return SparseOperator(field, d, m, b, defect * h2)
