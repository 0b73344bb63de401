"""Uniform-grid discretization of divergence-form operators on disks and
rectangles.

Nodes are classified interior (strictly inside), boundary (outside-or-on
nodes an arm of the stencil reaches from an interior node, carrying the
datum of their projection onto the curve: DiscreteDomain.trace) or
exterior.  The operator L u = -div(A grad u) is assembled on the interior
nodes as one weighted pair term per arm of the nine-point footprint, with
weights w_e such that sum_e w_e e e^T = A, symmetric by construction, and
kept dimensionless, as h^2 times the matrix of L_h; Dirichlet solves go
through the sparse LU of linsolve, factored once per operator."""

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

# the arms of the nine-point footprint, E, N, NE and SE; a row's diagonal
# sums the weights of each arm's +e and -e pairs in this order
_arms = ((1, 0), (0, 1), (1, 1), (1, -1))


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
    # the boundary ring is as wide as the longest arm reaches
    mask[(~inside) & grow(inside, max(abs(c) for e in _arms for c in e))] = BOUNDARY

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
    """L restricted to interior nodes, held as matrix S = h^2 M and coupling
    C = h^2 B: apply, L_h u = (S u_int + C u_bnd) / h^2, divides by h^2.

    The one handle on a discretized problem: it carries the coefficient
    field it was assembled from and its domain, so nothing downstream
    takes either separately.  S is symmetric (see assemble_operator)."""

    field: object
    domain: DiscreteDomain
    matrix: sparse.csr_matrix
    coupling: sparse.csr_matrix

    def apply(self, u_interior, u_boundary):
        h = self.domain.h
        return (self.matrix @ u_interior + self.coupling @ u_boundary) / (h * h)

    def apply_field(self, values):
        """L_h of a full-grid array, as an interior vector."""
        fi, fb = self.domain.flat_index
        return self.apply(values.take(fi), values.take(fb))

    def solve_dirichlet(self, rhs_interior, boundary_values):
        """Interior solve S u = h^2 rhs - C u_bnd of L u = rhs with prescribed
        boundary values; raises above solve_spd's one residual bound."""
        h = self.domain.h
        rhs = h * h * np.asarray(rhs_interior, dtype=float)
        return solve_spd(self.matrix, rhs - self.coupling @ boundary_values)[0]


def _arm_weights(a):
    """The weight of each arm of _arms at coefficient matrices a, (..., 2, 2):
    a11, a22, a12/2 and -a12/2, so that sum_e w_e e e^T = A."""
    return a[..., 0, 0], a[..., 1, 1], 0.5 * a[..., 0, 1], -0.5 * a[..., 0, 1]


def assemble_operator(field, domain):
    """Nine-point stencil for L u = -div(A grad u), one pair term per arm e
    of _arms: (L u)(x) = sum_e w_e [2 u(x) - u(x + h e) - u(x - h e)] / h^2
    with the weights of _arm_weights, each from one sample of A at the
    midpoint of the pair's box (an x-face for E, a y-face for N, a cell
    centre for NE and SE), taken only where a corner of the box is
    interior.  S = h^2 M holds the weights: a row's diagonal sums them, an
    off-diagonal entry is -w, and both entries of a pair share w, so S is
    symmetric.  Raises ValueError unless A is positive definite (a11 > 0,
    det > 0) at every sample, since the sparse LU solve would not notice an
    indefinite operator, and names the first entry w / h^2 of L_h (row
    order centre, E, W, N, S, NE, SW, SE, NW) that overflows."""
    d, h = domain, domain.h
    inner = d.mask == INTERIOR
    n0, n1 = inner.shape
    fi = d.flat_index[0]
    box, offsets, weights = None, [0], []
    for k, (e0, e1) in enumerate(_arms):
        # a pair's box spans (bx, by) cells and keeps its weight at its lower-left
        # node; arms of one box size are adjacent in _arms and share its samples
        if (abs(e0), abs(e1)) != box:
            box = bx, by = abs(e0), abs(e1)
            si, sj = np.nonzero(inner[:n0 - bx, :n1 - by] | inner[bx:, by:]
                                | inner[bx:, :n1 - by] | inner[:n0 - bx, by:])
            a = field.matrix(np.stack([d.xs[si] + 0.5 * h * bx,
                                       d.ys[sj] + 0.5 * h * by], axis=-1))
            det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
            if not (np.all(a[:, 0, 0] > 0.0) and np.all(det > 0.0)):
                raise ValueError("coefficient matrix not positive definite at a face or cell sample")
        w = np.zeros(inner.shape)
        w[si, sj] = _arm_weights(a)[k]
        for s0, s1 in ((e0, e1), (-e0, -e1)):
            # the pair (x, x + s) has its box's lower-left node at x + min(s, 0)
            offsets.append(s0 * n1 + s1)
            weights.append(w.take(fi + (min(s0, 0) * n1 + min(s1, 0))))

    with np.errstate(over="ignore", invalid="ignore"):
        # the axial arms' pairs, then the diagonal arms', each summed first
        vals = np.stack([sum(weights[:4]) + sum(weights[4:]),
                         *(-w for w in weights)])
        lh = vals / (h * h)   # the entries of L_h, which apply forms
    if not np.isfinite(lh).all():
        r, k = np.argwhere(~np.isfinite(lh.T))[0]
        raise ValueError("stencil entry %d of the interior node at (%g, %g) is %g"
                         % (k, *d.interior_xy[r], lh[k, r]))

    nbr = fi + np.array(offsets)[:, None]
    im, bm = d.interior_map.take(nbr), d.boundary_map.take(nbr)
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
