"""Uniform-grid discretization of divergence-form operators on disks and
rectangles.

Nodes are classified interior (strictly inside), boundary (outside-or-on
nodes 8-adjacent to an interior node, carrying the datum of their
projection onto the curve: DiscreteDomain.trace) or exterior.  The
operator L u = -div(A grad u) is assembled in flux form on the interior
nodes with a nine-point stencil, symmetric by construction; Dirichlet
solves go through the sparse LU of linsolve, factored once per operator."""

from dataclasses import dataclass
from functools import cached_property
import math
import os

import numpy as np
import scipy.sparse as sparse

from .anisotropy import parse_spec
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
        """Closest point on the curve, for points outside or on it only
        (sdf >= 0, as boundary nodes are by construction; an inside point
        gets no projection).  A rectangle's on-curve points come back as is."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "disk":
            r = np.hypot(pts[..., 0], pts[..., 1])
            return pts * (self.params[0] / r)[..., None]
        w, h = self.params
        return np.clip(pts, [-0.5 * w, -0.5 * h], [0.5 * w, 0.5 * h])

    def bbox_halfwidth(self):
        if self.kind == "disk":
            return float(self.params[0])
        return 0.5 * max(self.params)

    def area(self):
        if self.kind == "disk":
            return math.pi * self.params[0] ** 2
        return self.params[0] * self.params[1]


def disk_shape(radius):
    if not 0.0 < radius < math.inf:
        raise ValueError("disk radius must be positive and finite, got %g" % radius)
    return DomainShape("disk", (float(radius),))


def rect_shape(width, height):
    if not (0.0 < width < math.inf and 0.0 < height < math.inf):
        raise ValueError("rectangle sides must be positive and finite, got (%g, %g)"
                         % (width, height))
    return DomainShape("rect", (float(width), float(height)))


def parse_shape(spec):
    """A DomainShape from its spec, ``disk(R)`` or ``rect(W,H)``."""
    return parse_spec(spec, "domain shape", {"disk": (1, disk_shape), "rect": (2, rect_shape)})


@dataclass(frozen=True)
class DiscreteDomain:
    """Square grid over the shape's bounding box, padded by one cell.

    h = bounding-box extent / (resolution - 1), so the padded grid holds
    resolution + 2 nodes per side; an odd resolution puts a node exactly at
    the origin.  interior_map / boundary_map give each node its packed
    ordinal or -1; boundary_proj holds the on-curve projection of each
    boundary node, where trace evaluates the boundary datum.  A field on
    the grid is a plain full-grid array: field builds one from packed
    values and write_field writes one as CSV."""

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

    def trace(self, fn):
        """The boundary datum as the operator's boundary nodes carry it: one
        float per boundary node (read-only), fn(x, y) evaluated, vectorized,
        at the node's closest-point projection onto the curve.  A constant
        fn is broadcast.  A node can lie about a cell outside a curved
        boundary, so this rule is first order there; this method is the
        one place it lives."""
        p = self.boundary_proj
        vals = np.asarray(fn(p[:, 0], p[:, 1]), dtype=float)
        return np.broadcast_to(vals, (self.n_boundary,))

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
        in packed order, for gathers (take) and field; built once and
        read-only."""
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

    def field(self, interior, boundary=0.0):
        """A new full-grid array holding the packed values at their nodes:
        interior one per interior node, boundary a scalar or one per
        boundary node, and zero at exterior nodes.  A vector of the wrong
        length raises ValueError."""
        out = np.zeros(self.mask.shape)
        flat = out.reshape(-1)
        flat[self.flat_index[0]] = interior
        flat[self.flat_index[1]] = boundary
        return out

    def write_field(self, path, column, values):
        """CSV x,y,<column> of a full-grid array over the non-exterior
        nodes, row-major in x then y; only the value column is formatted,
        the x,y text is node_text."""
        write_table(path, "x,y," + column, "%s,%.17g",
                    (self.node_text, values[self.mask != EXTERIOR]))


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def grow(mask, cells):
    """A boolean node mask dilated by the (2*cells+1)-square: a node is set
    when any node within `cells` steps along both axes is, nodes outside
    the array counting as unset.  Built from shifted copies."""
    out = mask.copy()
    n0, n1 = mask.shape
    for di in range(-cells, cells + 1):
        for dj in range(-cells, cells + 1):
            out[max(0, di):n0 + min(0, di), max(0, dj):n1 + min(0, dj)] |= \
                mask[max(0, -di):n0 - max(0, di), max(0, -dj):n1 - max(0, dj)]
    return out


def build_domain(shape, resolution):
    """Classify the nodes of a (resolution x resolution) grid on the shape's
    bounding box.

    input : DomainShape, odd resolution >= 5.
    output: DiscreteDomain.
    """
    resolution = int(resolution)
    if resolution < _min_resolution:
        raise ValueError("resolution must be at least %d, got %d" % (_min_resolution, resolution))
    if resolution % 2 == 0:
        raise ValueError("resolution must be odd so a node sits at the center, got %d"
                         % resolution)
    half = shape.bbox_halfwidth()
    h = 2.0 * half / (resolution - 1)
    # bounding box padded by one cell on every side; built from exact
    # ratios, so the nodes are mirror-symmetric bit for bit and exact at
    # +-half, where a rectangle's long sides lie (one read-only array)
    k = (resolution - 1) // 2
    xs = ys = _read_only(half * (np.arange(-k - 1, k + 2) / k))

    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx, gy], axis=-1)
    inside = shape.sdf(pts) < 0.0

    if np.any(inside[0, :]) or np.any(inside[-1, :]) or np.any(inside[:, 0]) or np.any(inside[:, -1]):
        raise ValueError("interior reaches the edge of the grid; bounding box too tight")

    n_nodes = xs.shape[0]
    mask = np.zeros((n_nodes, n_nodes), dtype=np.int8)
    mask[inside] = INTERIOR
    mask[(~inside) & grow(inside, 1)] = BOUNDARY

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
    """open(path, "w") on a new file, making a missing parent directory: an
    existing file is removed, not truncated in place, which can cost tens of
    ms per rewritten artifact (measured on ext4) and would also rewrite
    every hard link to it."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
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
    takes either separately.  M is symmetric by construction (see
    assemble_operator)."""

    field: object
    domain: DiscreteDomain
    matrix: sparse.csr_matrix
    coupling: sparse.csr_matrix

    def apply(self, u_interior, u_boundary):
        return self.matrix @ u_interior + self.coupling @ u_boundary

    def apply_field(self, values):
        """L_h of a full-grid array, as an interior vector."""
        fi, fb = self.domain.flat_index
        return self.apply(values.take(fi), values.take(fb))

    def solve_dirichlet(self, rhs_interior, boundary_values):
        """Interior solve of L u = rhs with prescribed boundary values;
        raises when the relative residual exceeds solve_spd's one bound."""
        rhs = np.asarray(rhs_interior, dtype=float) - self.coupling @ np.asarray(
            boundary_values, dtype=float)
        return solve_spd(self.matrix, rhs)[0]


# stencil offsets: centre, E, W, N, S, NE, SW, NW, SE
_offsets = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                     (1, 1), (-1, -1), (-1, 1), (1, -1)])


def assemble_operator(field, domain):
    """Nine-point flux-form stencil for L u = -div(A grad u), symmetric by
    construction: both entries of a node pair come from one coefficient
    sample, so no averaging with the transpose is needed.

    a11 is sampled once per x-face and a22 once per y-face, at the face
    midpoint, and enters through the difference across that face.  a12 is
    sampled once per cell, at its centre, and enters through the cell's
    2 a12 (D_x u)(D_y u), written as a difference of squared diagonal
    differences: -a12/(2h^2) at the NE and SW corners of a row, +a12/(2h^2)
    at SE and NW, (b_NE + b_SW - b_SE - b_NW)/(2h^2) on the diagonal and
    nothing on the axes.  Only faces and cells touching an interior node
    are sampled.  Raises ValueError unless A is positive definite (a11 > 0,
    det > 0) at every sample, since the sparse LU solve would not notice an
    indefinite operator, and names the first stencil entry (in the offset
    order centre, E, W, N, S, NE, SW, NW, SE) that overflows.
    """
    d = domain
    h = d.h

    def sample(touch, dx, dy, k, l):
        """A_kl at (x + dx, y + dy) for the marked grid nodes, 0 elsewhere."""
        si, sj = np.nonzero(touch)
        a = field.matrix(np.stack([d.xs[si] + dx, d.ys[sj] + dy], axis=-1))
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        if not (np.all(a[:, 0, 0] > 0.0) and np.all(det > 0.0)):
            raise ValueError("coefficient matrix not positive definite at a face or cell sample")
        out = np.zeros(touch.shape)
        out[si, sj] = a[:, k, l]
        return out

    # face (i, j)-(i+1, j), face (i, j)-(i, j+1) and the cell with lower-left
    # node (i, j), each indexed by (i, j)
    inner = d.mask == INTERIOR
    x_faces = inner[:-1] | inner[1:]
    a11 = sample(x_faces, 0.5 * h, 0.0, 0, 0)
    a22 = sample(inner[:, :-1] | inner[:, 1:], 0.0, 0.5 * h, 1, 1)
    a12 = sample(x_faces[:, :-1] | x_faces[:, 1:], 0.5 * h, 0.5 * h, 0, 1)

    i, j = d.interior_ij[:, 0], d.interior_ij[:, 1]
    ae, aw, an, as_ = a11[i, j], a11[i - 1, j], a22[i, j], a22[i, j - 1]
    b_ne, b_sw, b_nw, b_se = a12[i, j], a12[i - 1, j - 1], a12[i - 1, j], a12[i, j - 1]
    h2 = h * h
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.stack([
            (ae + aw + an + as_) / h2 + (b_ne + b_sw - b_se - b_nw) / (2 * h2),
            -ae / h2, -aw / h2, -an / h2, -as_ / h2,
            -b_ne / (2 * h2), -b_sw / (2 * h2), b_nw / (2 * h2), b_se / (2 * h2)])
    if not np.isfinite(vals).all():
        r, k = np.argwhere(~np.isfinite(vals.T))[0]
        raise ValueError("stencil entry %d of the interior node at (%g, %g) is %g"
                         % (k, *d.interior_xy[r], vals[k, r]))

    ni, nj = i + _offsets[:, :1], j + _offsets[:, 1:]
    im, bm = d.interior_map[ni, nj], d.boundary_map[ni, nj]
    if np.any((im < 0) & (bm < 0)):
        raise RuntimeError("stencil of an interior node reaches an exterior node; "
                           "classification violated 8-adjacency")
    rows = np.broadcast_to(np.arange(d.n_interior), im.shape)
    inn = im >= 0
    m = sparse.csr_matrix((vals[inn], (rows[inn], im[inn])),
                          shape=(d.n_interior, d.n_interior))
    m.eliminate_zeros()
    b = sparse.csr_matrix((vals[~inn], (rows[~inn], bm[~inn])),
                          shape=(d.n_interior, d.n_boundary))
    return SparseOperator(field, d, m, b)
