"""Sparse direct solver: exactness oracles, the factorization kept on the
operator, and failure reporting."""

import numpy as np
import pytest
import scipy.sparse as sparse

from anisoplate import linsolve
from anisoplate.anisotropy import CoefficientField, make_field
from anisoplate.greens import greens_column_L, greens_column_L2
from anisoplate.grid import (SparseOperator, assemble_operator, build_domain,
                             disk_shape)
from anisoplate.linsolve import SolveReport, solve_spd
from anisoplate.minimizer import _lbfgs_direction


def _thomas(lower, diag, upper, rhs):
    """Direct tridiagonal elimination, written as an independent oracle."""
    n = len(diag)
    c = np.zeros(n)
    d = np.zeros(n)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        m = diag[i] - lower[i - 1] * c[i - 1]
        c[i] = upper[i] / m if i < n - 1 else 0.0
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / m
    x = np.zeros(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def _op(mat):
    """An operator over a bare matrix: all that a solve reads of it."""
    return SparseOperator(None, None, mat, None)


def test_identity_converges_immediately():
    rhs = np.array([3.0, -1.0, 2.0])
    x, rep = solve_spd(_op(sparse.eye(3, format="csr")), rhs)
    assert np.allclose(x, rhs, atol=1e-14)
    assert rep.final_residual <= 1e-10 and rep.iterations <= 1


def test_zero_rhs_short_circuits():
    x, rep = solve_spd(_op(sparse.eye(4, format="csr")), np.zeros(4))
    assert np.all(x == 0.0) and rep == SolveReport(0, 0.0)


def test_tridiagonal_matches_thomas():
    n = 200
    rng = np.random.default_rng(7)
    diag = 4.0 + rng.uniform(0, 1, n)
    off = -1.0 + 0.2 * rng.uniform(0, 1, n - 1)
    mat = sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
    rhs = rng.standard_normal(n)
    want = _thomas(off, diag, off, rhs)
    got, rep = solve_spd(_op(mat), rhs)
    assert rep.final_residual <= 1e-12
    assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_scaled_system_solves_like_the_unscaled_one(scale):
    # a delta right-hand side on a disk of radius 1e100 is 2.56e-198: its
    # squared norm underflows and the zero-rhs test must not see zero,
    # nor may the residual norms over- or underflow on either scale
    n = 200
    rng = np.random.default_rng(11)
    diag = 4.0 + rng.uniform(0, 1, n)
    off = -1.0 + 0.2 * rng.uniform(0, 1, n - 1)
    mat = sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
    rhs = rng.standard_normal(n)
    x, rep = solve_spd(_op(mat), rhs)
    xs, reps = solve_spd(_op(scale * mat), scale * rhs)
    assert rep.final_residual <= 1e-12 and reps.final_residual <= 1e-12
    assert np.abs(xs - x).max() <= 1e-14 * np.abs(x).max()


def test_true_residual_reported_relative():
    n = 50
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = q @ np.diag(np.linspace(1, 100, n)) @ q.T
    rhs = rng.standard_normal(n)
    x, rep = solve_spd(_op(mat), rhs)
    want = float(np.linalg.norm(mat @ x - rhs) / np.linalg.norm(rhs))
    assert rep.final_residual == pytest.approx(want, rel=1e-12)
    assert rep.final_residual <= 1e-10


def test_poisson_seven_matches_thomas():
    n = 7
    mat = sparse.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                       [-1, 0, 1], format="csr")
    rhs = np.ones(n)
    want = _thomas(np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0), rhs)
    got, rep = solve_spd(_op(mat), rhs)
    assert rep.final_residual <= 1e-10
    assert np.allclose(got, want, atol=1e-10)


def test_laplacian_31_squared_matches_dense_solve():
    # 2-D five-point Laplacian on a 31x31 interior grid
    n = 31
    one = sparse.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                       [-1, 0, 1])
    eye = sparse.eye(n)
    mat = (sparse.kron(one, eye) + sparse.kron(eye, one)).tocsr()
    rhs = np.random.default_rng(11).standard_normal(n * n)
    x, rep = solve_spd(_op(mat), rhs)
    assert rep.final_residual <= 1e-10 and rep.iterations == 0
    want = np.linalg.solve(mat.toarray(), rhs)
    assert np.allclose(x, want, rtol=0.0, atol=1e-10 * np.abs(want).max())


def test_round_trip_idempotence():
    n = 120
    mat = sparse.diags([np.full(n - 1, -1.0), np.full(n, 2.5), np.full(n - 1, -1.0)],
                       [-1, 0, 1], format="csr")
    rhs = np.cos(np.arange(n))
    op = _op(mat)
    x, rep = solve_spd(op, rhs)
    x2, rep2 = solve_spd(op, mat @ x)
    assert rep.final_residual <= 1e-12 and rep2.final_residual <= 1e-12
    assert np.allclose(x2, x, atol=1e-9)


def test_wrong_factors_raise(monkeypatch):
    # factors that solve slightly wrong (or return non-finite entries) are
    # caught by the residual recomputed from the matrix
    n = 100
    mat = sparse.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                       [-1, 0, 1], format="csr")
    rhs = np.ones(n)
    real_splu = linsolve.splu
    for miss in (1e-6, np.nan, np.inf):
        class Off:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                x = self.lu.solve(b)
                x[n // 2] += miss * np.abs(x).max()
                return x

        monkeypatch.setattr(linsolve, "splu", lambda m: Off(real_splu(m)))
        with pytest.raises(RuntimeError, match="residual"):
            solve_spd(_op(mat), rhs)


_SOLVE_SITES = {
    "dirichlet": lambda op: op.solve_dirichlet(1.0, np.ones(op.domain.n_boundary)),
    "descent": lambda op: _lbfgs_direction(op, np.ones(op.domain.n_interior), []),
    "column_L": lambda op: greens_column_L(op, op.domain.center_ij),
    "column_L2": lambda op: greens_column_L2(
        greens_column_L(op, op.domain.center_ij)),
}


@pytest.mark.parametrize("site", sorted(_SOLVE_SITES))
def test_every_solve_site_checks_the_one_bound(monkeypatch, site):
    # factors whose solution is scaled by 1 + s leave relative residual s:
    # every site raises at s = 1e-9, above the one 1e-10 bound, and passes
    # at s = 1e-11
    real_splu = linsolve.splu

    def scaled_splu(s):
        class Scaled:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return (1.0 + s) * self.lu.solve(b)

        return lambda m: Scaled(real_splu(m))

    dom = build_domain(disk_shape(1.0), 33)
    fld = make_field("diag(2,1)")
    monkeypatch.setattr(linsolve, "splu", scaled_splu(1e-9))
    with pytest.raises(RuntimeError, match=r"residual 1\.000e-09 above 1\.0e-10"):
        _SOLVE_SITES[site](assemble_operator(fld, dom))
    monkeypatch.setattr(linsolve, "splu", scaled_splu(1e-11))
    _SOLVE_SITES[site](assemble_operator(fld, dom))


def test_indefinite_operator_raises():
    # the direct solve does not notice an indefinite operator, so assembly
    # must refuse a coefficient that is not positive definite: a11 < 0 ...
    def neg_a11(x):
        out = np.zeros(np.asarray(x).shape[:-1] + (2, 2))
        out[..., 0, 0] = -1.0
        out[..., 1, 1] = 3.0
        return out

    # ... or a11 > 0 with a negative determinant
    def neg_det(x):
        out = np.ones(np.asarray(x).shape[:-1] + (2, 2))
        out[..., 0, 1] = out[..., 1, 0] = 2.0
        return out

    dom = build_domain(disk_shape(1.0), 17)
    for fn in (neg_a11, neg_det):
        with pytest.raises(ValueError, match="positive definite"):
            assemble_operator(CoefficientField("indefinite", fn), dom)


def test_factorization_reused_per_operator(monkeypatch):
    # a second solve on the same operator reuses its factorization, also
    # when the operator holds a dense ndarray; an operator over a copy of
    # the matrix gets its own, and a zero right-hand side factors nothing
    n = 30
    csr = sparse.diags([np.full(n - 1, -1.0), np.full(n, 3.0), np.full(n - 1, -1.0)],
                       [-1, 0, 1], format="csr")
    calls = []
    real_splu = linsolve.splu
    monkeypatch.setattr(linsolve, "splu", lambda m: calls.append(1) or real_splu(m))
    want = np.sin(np.arange(n))
    for mat in (csr, csr.toarray()):
        calls.clear()
        op = _op(mat)
        solve_spd(op, np.zeros(n))
        assert calls == [] and "factors" not in vars(op)
        x, rep = solve_spd(op, mat @ want)
        x2, rep2 = solve_spd(op, mat @ (2.0 * want))
        assert len(calls) == 1
        assert rep.final_residual <= 1e-10 and rep2.final_residual <= 1e-10
        assert np.allclose(x, want) and np.allclose(x2, 2.0 * want)
        solve_spd(_op(mat.copy()), mat @ want)   # a new operator gets its own
        assert len(calls) == 2


def test_dense_spd_matches_dense_solve():
    # dense SPD matrix: the direct solve agrees with dense elimination
    n = 40
    rng = np.random.default_rng(9)
    a = rng.standard_normal((n, n))
    mat = a @ a.T + n * np.eye(n)
    rhs = rng.standard_normal(n)
    x, rep = solve_spd(_op(mat), rhs)
    assert rep.final_residual <= 1e-9 and rep.iterations == 0
    assert np.allclose(x, np.linalg.solve(mat, rhs), rtol=1e-10, atol=1e-12)
