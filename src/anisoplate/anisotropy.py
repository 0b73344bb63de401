"""Coefficient matrices, the matrix frame, and the singularity constant.

The objects here are pointwise-algebraic: a symmetric uniformly elliptic 2x2
coefficient map A(x), an orthonormal frame of symmetric matrices under the
metric g(y)(M, N) = tr(A(y)^{-1} M A(y)^{-1} N), and the circle-average
constant d1 that normalizes the logarithmic kernel of the divergence-form
operator.  The squared distance psi_x(y) = A(y)^{-1}(y-x).(y-x) that A
induces is evaluated on the grid by greens.GreensColumn.psi.

Everything is a pure function of immutable inputs and safe to call
concurrently.
"""

from dataclasses import dataclass
import math
import re

import numpy as np

_det_floor = 1e-14
_pivot_floor = 1e-10
_sqrt2 = math.sqrt(2.0)
_d1_nodes = 256


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric uniformly elliptic 2x2 coefficient map.

    Parameters
    ----------
    name : str
        Display name, e.g. ``"diag(2,1)"``.
    eval : callable
        Maps points of shape (..., 2) to matrices of shape (..., 2, 2).
    """

    name: str
    eval: object

    def matrix(self, x):
        """A(x) for a single point or an array of points."""
        a = np.asarray(self.eval(np.asarray(x, dtype=float)), dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficient field produced non-finite entries at %r" % (x,))
        return a

    def inverse(self, x):
        """Closed-form 2x2 inverse of A(x) (adjugate over determinant)."""
        return invert_spd2(self.matrix(x))


def invert_spd2(a):
    """Invert symmetric 2x2 matrices of shape (..., 2, 2) in closed form."""
    a = np.asarray(a, dtype=float)
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if np.any(np.abs(det) < _det_floor):
        raise ValueError("coefficient matrix determinant underflow (< %g)" % _det_floor)
    inv = np.empty_like(a)
    inv[..., 0, 0] = a[..., 1, 1]
    inv[..., 1, 1] = a[..., 0, 0]
    inv[..., 0, 1] = -a[..., 0, 1]
    inv[..., 1, 0] = -a[..., 1, 0]
    return inv / det[..., None, None]


def _constant_field(name, a):
    a = np.asarray(a, dtype=float)
    if np.linalg.eigvalsh(a)[0] <= 0.0:
        raise ValueError("%s is not positive definite" % name)

    def ev(x):
        return np.broadcast_to(a, np.asarray(x).shape[:-1] + (2, 2)).copy()

    return CoefficientField(name, ev)


def identity_field():
    return _constant_field("identity", np.eye(2))


def diag_field(a, b):
    return _constant_field("diag(%g,%g)" % (a, b), np.diag([float(a), float(b)]))


def rot_field(theta, a, b):
    """Rotated diagonal field R(theta) diag(a,b) R(theta)^T (constant)."""
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    return _constant_field(
        "rot(%g,%g,%g)" % (theta, a, b), r @ np.diag([float(a), float(b)]) @ r.T)


def poly_field(alpha, box=1.5):
    """A(x) = diag(1 + alpha*x1^2, 1), elliptic on the square of halfwidth
    box."""
    alpha = float(alpha)
    if not 0.0 < 1.0 + alpha * box * box < math.inf:
        raise ValueError("poly(%g) is not finite and elliptic on the box |x| <= %g" % (alpha, box))

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + alpha * x[..., 0] ** 2
        out[..., 1, 1] = 1.0
        return out

    return CoefficientField("poly(%g)" % alpha, ev)


_spec_pattern = re.compile(r"^\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_spec(spec, what, kinds):
    """The one grammar of shapes and fields: ``name`` or ``name(a,b,...)``
    with finite float arguments, built by kinds[name] = (arity,
    constructor).  Raises ValueError naming `what` on any other text."""
    m = _spec_pattern.match(str(spec))
    if m is None:
        raise ValueError("cannot parse %s %r" % (what, spec))
    kind, inner = m.groups()
    if kind not in kinds:
        raise ValueError("unknown %s kind %r (have %s)" % (what, kind, ", ".join(kinds)))
    arity, build = kinds[kind]
    args = inner.split(",") if inner else []
    if len(args) != arity:
        raise ValueError("%s takes %d parameter(s), got %r" % (kind, arity, spec))
    try:
        args = [float(t) for t in args]
    except ValueError:
        raise ValueError("non-numeric parameter in %s %r" % (what, spec))
    if not all(math.isfinite(t) for t in args):
        raise ValueError("non-finite parameter in %s %r" % (what, spec))
    return build(*args)


def make_field(spec, box=1.5):
    """Build a coefficient field from its spec: ``identity``, ``diag(a,b)``,
    ``poly(alpha)`` (elliptic on the square of halfwidth box) or
    ``rot(theta,a,b)``."""
    return parse_spec(spec, "coefficient field", {
        "identity": (0, identity_field), "diag": (2, diag_field),
        "poly": (1, lambda alpha: poly_field(alpha, box)), "rot": (3, rot_field)})


# ---------------------------------------------------------------------------
# matrix frame


@dataclass(frozen=True)
class MatrixFrame:
    """g-orthonormal triple of symmetric 2x2 matrices; a1 = A/sqrt(2)."""

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray

    def __iter__(self):
        return iter((self.a1, self.a2, self.a3))


def metric_product(s, m, n):
    """g(M, N) = tr(S M S N) with S the inverse coefficient matrix."""
    return float(np.trace(s @ m @ s @ n))


_seed_matrices = (
    None,  # slot for A(y)
    np.array([[1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
)


def build_frame(field, y):
    """Modified Gram-Schmidt on {A(y), diag(1,-1), offdiag(1,1)} under g(y).

    The first output is pinned to A(y)/sqrt(2) exactly (its g-norm is
    sqrt(tr(I)) = sqrt(2) identically, so this is the plain normalization).
    A near-singular pivot signals loss of independence, which cannot happen
    for a positive definite coefficient matrix; it is reported as input
    corruption.
    """
    y = np.asarray(y, dtype=float)
    a = field.matrix(y)
    s = invert_spd2(a)
    basis = [a / _sqrt2]
    for seed in _seed_matrices[1:]:
        v = seed.copy()
        for b in basis:
            v = v - metric_product(s, v, b) * b
        norm2 = metric_product(s, v, v)
        if norm2 < _pivot_floor:
            raise ValueError("Gram-Schmidt pivot %.3e below %.0e; coefficient matrix corrupt"
                             % (norm2, _pivot_floor))
        basis.append(v / math.sqrt(norm2))
    return MatrixFrame(basis[0], basis[1], basis[2])


def m0_matrix(field, y):
    """Dual of the first frame direction under the Hilbert-Schmidt pairing.

    Builds the Gram matrix h_ij = tr(A_i A_j) of the frame, inverts it and
    returns sum_i h^{i1} A_i.  This equals A(y)^{-1}/sqrt(2) identically,
    which callers may use as an oracle.
    """
    frame = build_frame(field, y)
    mats = list(frame)
    h = np.array([[np.trace(mi @ mj) for mj in mats] for mi in mats])
    if np.linalg.cond(h) > 1e12:
        raise ValueError("frame Gram matrix numerically degenerate (cond > 1e12)")
    coeff = np.linalg.solve(h, np.array([1.0, 0.0, 0.0]))
    return coeff[0] * mats[0] + coeff[1] * mats[1] + coeff[2] * mats[2]


# ---------------------------------------------------------------------------
# singularity constants


@dataclass(frozen=True)
class SingularityConstants:
    d1: float
    c1: float


def d1_quadrature(field, x):
    """Circle average 4*pi * avg_{|z|=1} 1/(A(x)^{-1} z . z), trapezoid rule.

    _d1_nodes equispaced nodes on the unit circle; the integrand is smooth
    and periodic, so the rule converges spectrally.  For constant diag(a,b)
    the closed form is 4*pi*sqrt(a*b).
    """
    x = np.asarray(x, dtype=float)
    s = field.inverse(x)
    theta = 2.0 * math.pi * np.arange(_d1_nodes) / _d1_nodes
    z = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    quad = np.einsum("ki,ij,kj->k", z, s, z)
    d1 = 4.0 * math.pi * float(np.mean(1.0 / quad))
    if d1 <= 0.0:
        raise ValueError("circle average came out nonpositive; field not elliptic")
    return SingularityConstants(d1=d1, c1=1.0 / d1)
