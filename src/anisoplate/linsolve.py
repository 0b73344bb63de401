"""Sparse direct solves of symmetric positive definite systems, with an
honest residual report.

Every solve is on an operator: the first nonzero solve on a
SparseOperator builds its SuperLU factorization (op.factors, kept on the
operator), so every later solve on it reuses that and it is freed with the
operator.  Each solve recomputes its true relative residual from
op.matrix and raises when it is non-finite or above _residual_bound, one
bound for every caller."""

from dataclasses import dataclass

import numpy as np

# bound on the true relative residual ||M x - b|| / ||b|| of every solve.
# a backward-stable solve leaves about eps ||M|| ||x|| / ||b||: roundoff for
# a delta or constant right-hand side, but up to eps cond(M) ~ eps h^-2 for
# a smooth one (the second solve of a nested pair): 8.5e-12 at 513^2 and
# 1.4e-11 at 1025^2
_residual_bound = 1e-10


@dataclass
class SolveReport:
    iterations: int         # always 0: a direct solve
    final_residual: float   # relative, 2-norm


def splu(matrix):
    """SuperLU factors of a symmetric sparse (or dense) matrix, with a
    fill-reducing ordering on M + M^T and diagonal pivots preferred.
    scipy.sparse.linalg is imported here, at the first factorization, not
    at package import."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu as superlu
    return superlu(csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                   options=dict(SymmetricMode=True))


def solve_spd(op, rhs):
    """Solve S x = rhs for the SPD matrix S = op.matrix by sparse LU.

    input : op (a SparseOperator: its matrix and its factors), rhs (n,).
            A zero rhs returns zero before anything is factored.
    output: (x, SolveReport).  Raises RuntimeError when the true relative
            residual ||S x - rhs|| / ||rhs|| is non-finite or above
            _residual_bound (or SuperLU finds the matrix singular).  Both
            norms are taken of vectors divided by max|rhs| first, so
            neither under- nor overflows however large or small the
            system's entries are.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not rhs.any():
        return np.zeros(rhs.shape[0]), SolveReport(0, 0.0)
    x = op.factors.solve(rhs)
    s = np.abs(rhs).max()
    res = float(np.linalg.norm((op.matrix @ x - rhs) / s)
                / np.linalg.norm(rhs / s))
    if not res <= _residual_bound:   # false for NaN as well
        raise RuntimeError("sparse LU solve left relative residual %.3e above %.1e"
                           % (res, _residual_bound))
    return x, SolveReport(0, res)
