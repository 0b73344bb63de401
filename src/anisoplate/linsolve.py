"""Sparse direct solves of symmetric positive definite systems, with an
honest residual report.

The first nonzero solve on a matrix builds a SuperLU factorization and
keeps it on the matrix object, so every later solve on that matrix (every
solve on one SparseOperator) reuses it and it is freed with the matrix.
Each solve recomputes its true relative residual from the matrix and
raises when it is non-finite or above _residual_bound, one bound for
every caller."""

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


def _factors(matrix):
    """The factorization of matrix, built on first use and kept in its
    __dict__ when it has one (a scipy sparse matrix; not an ndarray)."""
    cache = getattr(matrix, "__dict__", {})
    lu = cache.get("_superlu")
    if lu is None:
        lu = cache["_superlu"] = splu(matrix)
    return lu


def solve_spd(matrix, rhs):
    """Solve matrix @ x = rhs for SPD matrix by sparse LU.

    input : matrix (n x n), rhs (n,).  The factorization is cached on the
            matrix, which must not be changed in place after its first
            solve.
    output: (x, SolveReport).  Raises RuntimeError when the true relative
            residual ||matrix x - rhs|| / ||rhs|| is non-finite or above
            _residual_bound (or SuperLU finds the matrix singular).  Both
            norms are taken of vectors divided by max|rhs| first, so
            neither under- nor overflows however large or small the
            system's entries are.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not rhs.any():
        return np.zeros(rhs.shape[0]), SolveReport(0, 0.0)
    x = _factors(matrix).solve(rhs)
    s = np.abs(rhs).max()
    res = float(np.linalg.norm((matrix @ x - rhs) / s)
                / np.linalg.norm(rhs / s))
    if not res <= _residual_bound:   # false for NaN as well
        raise RuntimeError("sparse LU solve left relative residual %.3e above %.1e"
                           % (res, _residual_bound))
    return x, SolveReport(0, res)
