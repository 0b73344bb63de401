"""Discrete Green's functions of the divergence-form operator and its
square, their logarithmic dissection, and the Hessian-structure residual.

A column solves L G = delta/h^2 as S G = e_k, S = h^2 M (or the nested
fourth-order S G2 = h^2 G, both traces zero).  The dissection subtracts
the explicit logarithmic kernels built from the anisotropic squared
distance; the Hessian-structure residual pairs the scalar log singularity
with the inverse coefficient matrix and measures what is left on dyadic
annuli.  Columns solve through linsolve.solve_spd, so all columns on one
operator share the sparse LU factorization kept on its matrix; every
column solve checks its true residual against solve_spd's one bound.  A
column's order is its stage: a fourth-order column holds the first-order
column it was solved from, and takes the grids of their source from it.
Every grid is built once; the report builders only read the columns.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .anisotropy import invert_spd2
from .grid import EXTERIOR, INTERIOR, _read_only, central_gradient, grow
from .linsolve import solve_spd

_positivity_floor = -1e-12
_metric_margin_cells = 2
# split sups are taken within this radius of the source, and the innermost
# dyadic annulus starts at least this many cells out
_sup_radius = 0.5
_annulus_floor_cells = 4


@dataclass(frozen=True)
class GreensColumn:
    """One Green's function column with its source bookkeeping; its domain
    and coefficient field are those of the operator it was solved on.  Its
    grids are read-only and built on first read."""

    op: object
    source_ij: tuple
    source_xy: np.ndarray
    values: np.ndarray      # the column on the full grid
    stage: object = None    # fourth-order: the first-order column solved from

    @property
    def domain(self):
        return self.op.domain

    @cached_property
    def inverse_coeff(self):
        """A(y)^-1 at every node, shape grid+(2, 2)."""
        if self.stage is not None:
            return self.stage.inverse_coeff
        d = self.domain
        return _read_only(invert_spd2(
            self.op.field.matrix(np.stack([d.X, d.Y], axis=-1))))

    @cached_property
    def psi(self):
        """Anisotropic squared distance to the source at every node."""
        if self.stage is not None:
            return self.stage.psi
        d = self.domain
        z = np.stack([d.X, d.Y], axis=-1) - self.source_xy
        return _read_only(
            np.einsum("...i,...ij,...j->...", z, self.inverse_coeff, z))

    @cached_property
    def metric_mask(self):
        """(ok, r): interior nodes admissible for sup metrics, and every
        node's distance r to the source.  Admissible: farther than 2h from
        the source and the boundary, with the full difference footprint (no
        exterior node in the (2*_metric_margin_cells+1)-square around it)."""
        if self.stage is not None:
            return self.stage.metric_mask
        d = self.domain
        r = np.hypot(d.X - self.source_xy[0], d.Y - self.source_xy[1])
        sd = d.shape.sdf(np.stack([d.X, d.Y], axis=-1))
        ok = (d.mask == INTERIOR) & (r > 2.0 * d.h) & (sd <= -2.0 * d.h)
        ok &= ~grow(d.mask == EXTERIOR, _metric_margin_cells)
        return _read_only(ok), _read_only(r)

    @cached_property
    def hessian(self):
        return _read_only(grid_hessian(self.domain, self.values))


@dataclass(frozen=True)
class FrehseReport:
    """Per-annulus sups of the Hessian-structure remainder and of the
    paired singular term."""

    radii: np.ndarray
    sup_remainder: np.ndarray
    sup_singular: np.ndarray
    pairing: str
    notes: tuple = ()

    def ratios(self):
        return self.sup_remainder / self.sup_singular


@dataclass(frozen=True)
class LogFitReport:
    slope: float
    overshoot: float


def node_near(domain, x, y):
    """Grid index (i, j) of the node nearest (x, y)."""
    i = int(np.argmin(np.abs(domain.xs - x)))
    j = int(np.argmin(np.abs(domain.ys - y)))
    return i, j


def greens_column_L(op, source_ij):
    """Column of the second-order Green's function, zero Dirichlet trace."""
    d = op.domain
    key = tuple(source_ij)
    if d.interior_map[key] < 0:
        raise ValueError("source node %r is not interior" % (key,))
    rhs = np.zeros(d.n_interior)
    rhs[d.interior_map[key]] = 1.0   # h^2 times the unit-mass Dirac
    g = solve_spd(op.matrix, rhs)[0]
    gmin = float(g.min())
    if gmin < _positivity_floor:
        raise RuntimeError("second-order Green's column went negative: min %.3e" % gmin)
    src = np.array([d.xs[key[0]], d.ys[key[1]]])
    return GreensColumn(op, key, src, d.field(g))


def greens_column_L2(first):
    """Column of the fourth-order Green's function with both traces zero,
    solved from the first-order column first, which it keeps as its stage."""
    if first.stage is not None:
        raise ValueError("the L^2 column needs a first-order column")
    op, d = first.op, first.domain
    g2, _ = solve_spd(op.matrix, d.h * d.h * first.values.take(d.flat_index[0]))
    return GreensColumn(op, first.source_ij, first.source_xy, d.field(g2),
                        stage=first)


# ---------------------------------------------------------------------------
# logarithmic dissection


def singular_split(col, consts):
    """Remove the explicit logarithmic kernel from a column; returns a new
    full-grid array.

    First-order (no stage): G + c1 log psi; fourth-order (solved from its
    stage): G - c1 psi log psi.  The source node itself is set to zero
    (first-order) or kept at the raw column value (fourth-order, where the
    kernel vanishes in the limit); metric helpers exclude it by radius
    either way.
    """
    d = col.domain
    psi = col.psi.copy()
    si, sj = col.source_ij
    psi[si, sj] = 1.0   # placeholder; the true kernel value is excluded
    if col.stage is None:
        out = col.values + consts.c1 * np.log(psi)
        out[si, sj] = 0.0
    else:
        out = col.values - consts.c1 * psi * np.log(psi)
        out[si, sj] = col.values[si, sj]
    out[d.mask == EXTERIOR] = 0.0
    return out


# ---------------------------------------------------------------------------
# sup metrics on the grid


def grid_hessian(domain, values):
    """Central second differences; entries (11, 12, 22) of shape grid+(3,)."""
    h2 = domain.h ** 2
    v = values
    out = np.zeros(v.shape + (3,))
    out[1:-1, :, 0] = (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / h2
    out[:, 1:-1, 2] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / h2
    out[1:-1, 1:-1, 1] = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4.0 * h2)
    return out


def grid_third_diff(domain, values):
    """Pure third differences along each axis, shape grid+(2,)."""
    h3 = domain.h ** 3
    v = values
    out = np.zeros(v.shape + (2,))
    out[2:-2, :, 0] = (v[4:, :] - 2.0 * v[3:-1, :] + 2.0 * v[1:-3, :] - v[:-4, :]) / (2.0 * h3)
    out[:, 2:-2, 1] = (v[:, 4:] - 2.0 * v[:, 3:-1] + 2.0 * v[:, 1:-3] - v[:, :-4]) / (2.0 * h3)
    return out


def _admissible_sup(col, nodal):
    """Max of |nodal| over the column's admissible nodes within _sup_radius,
    or None when a coarse grid leaves none admissible."""
    ok, r = col.metric_mask
    ok = ok & (r < _sup_radius)
    return float(np.abs(nodal[ok]).max()) if ok.any() else None


def gradient_sup(col, values):
    """Sup of the central-difference gradient of a full-grid array over the
    admissible region."""
    g = central_gradient(col.domain, values)
    return _admissible_sup(col, np.hypot(g[..., 0], g[..., 1]))


def third_diff_sup(col, values):
    """Sup of the pure third differences of a full-grid array over the
    admissible region."""
    return _admissible_sup(col, grid_third_diff(col.domain, values))


# ---------------------------------------------------------------------------
# dyadic annulus protocol


def dyadic_annuli(h):
    """Inner radii 2^-k, k = 2..K, with the innermost at least
    _annulus_floor_cells*h; each annulus spans [2^-k, 2^-k+1)."""
    ks = []
    k = 2
    while 2.0 ** (-k) >= _annulus_floor_cells * h:
        ks.append(k)
        k += 1
    return ks


def _annulus_sups(col, nodal_quantities, h):
    """Max of each quantity over the valid nodes of every dyadic annulus."""
    ok, r = col.metric_mask
    radii, sups, notes = [], [], []
    for k in dyadic_annuli(h):
        inner, outer = 2.0 ** (-k), 2.0 ** (-k + 1)
        sel = ok & (r >= inner) & (r < outer)
        if not np.any(sel):
            notes.append("annulus k=%d has no admissible nodes, skipped" % k)
            continue
        radii.append(inner)
        sups.append([float(np.max(q[sel])) for q in nodal_quantities])
    return np.array(radii), np.array(sups), notes


def _spectral_norm_sym2(mats):
    """Spectral norm of symmetric 2x2 matrices, closed form."""
    half_tr = 0.5 * (mats[..., 0, 0] + mats[..., 1, 1])
    half_diff = 0.5 * (mats[..., 0, 0] - mats[..., 1, 1])
    root = np.hypot(half_diff, mats[..., 0, 1])
    return np.maximum(np.abs(half_tr + root), np.abs(half_tr - root))


def coarse_grid_note(domain):
    """Why the annulus metrics refuse a grid coarser than 1/64, else None."""
    if domain.h > 1.0 / 64.0 + 1e-12:
        return "grid too coarse for annulus metrics: h = %g > 1/64" % domain.h
    return None


def frehse_residual(col_l2, *, pairing="inverse"):
    """Split the Hessian of a fourth-order column (one with a stage) into
    the scalar log singularity times a matrix, plus a remainder, on dyadic
    annuli.  The column's own operator col_l2.op is applied, and its own
    Hessian and A^-1 grids are read.

    pairing = "inverse" uses A(y)^-1 (the structural claim being tested);
    pairing = "trace_identity" uses the trace-matched multiple of the
    identity, a deliberately wrong matrix serving as negative control.
    """
    if col_l2.stage is None:
        raise ValueError("Hessian-structure residual needs a fourth-order column")
    d = col_l2.domain
    note = coarse_grid_note(d)
    if note:
        raise ValueError(note)

    # div(A grad G) = -L G
    div_grid = d.field(-col_l2.op.apply_field(col_l2.values))

    hess = col_l2.hessian
    s = col_l2.inverse_coeff
    if pairing == "inverse":
        pair_mat = s
    elif pairing == "trace_identity":
        half_tr = 0.5 * (s[..., 0, 0] + s[..., 1, 1])
        pair_mat = np.zeros_like(s)
        pair_mat[..., 0, 0] = half_tr
        pair_mat[..., 1, 1] = half_tr
    else:
        raise ValueError("unknown pairing %r" % pairing)

    resid = np.empty(hess.shape[:-1] + (2, 2))
    resid[..., 0, 0] = hess[..., 0] - 0.5 * div_grid * pair_mat[..., 0, 0]
    resid[..., 1, 1] = hess[..., 2] - 0.5 * div_grid * pair_mat[..., 1, 1]
    resid[..., 0, 1] = hess[..., 1] - 0.5 * div_grid * pair_mat[..., 0, 1]
    resid[..., 1, 0] = resid[..., 0, 1]

    remainder_inf = np.max(np.abs(resid.reshape(resid.shape[:-2] + (4,))), axis=-1)
    singular = 0.5 * np.abs(div_grid) * _spectral_norm_sym2(pair_mat)

    radii, sups, notes = _annulus_sups(col_l2, [remainder_inf, singular], d.h)
    if radii.size == 0:
        raise RuntimeError("no admissible annuli; grid too coarse")
    rep = FrehseReport(radii, sups[:, 0], sups[:, 1], pairing, tuple(notes))
    if not (np.all(np.isfinite(rep.sup_remainder)) and np.all(np.isfinite(rep.sup_singular))):
        raise RuntimeError("non-finite annulus sups")
    return rep


def log_bound_check(col):
    """Least-squares slope of per-annulus sup |second differences| against
    |log r| + 1, plus the worst relative overshoot above the fitted line.

    Meaningful for fourth-order columns; calling it on a second-order column
    is the standard negative control (the fit overshoots badly because the
    Hessian there grows like a power of 1/r, not a log)."""
    hess_inf = np.max(np.abs(col.hessian), axis=-1)
    radii, sups, _ = _annulus_sups(col, [hess_inf], col.domain.h)
    if radii.size < 2:
        raise RuntimeError("need at least two annuli for the log fit")
    y = sups[:, 0]
    x = np.abs(np.log(radii)) + 1.0
    slope = float((x * y).sum() / (x * x).sum())
    overshoot = float(np.max((y - slope * x) / (slope * x)))
    return LogFitReport(slope, overshoot)
