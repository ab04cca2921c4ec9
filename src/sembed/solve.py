"""Direct sparse solves and conditioning diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SVD_LIMIT = 2000  # above this, the default is the 1-norm estimator
DENSE_LIMIT = 32  # up to this, 'svd' is a dense SVD: cheap, and ARPACK needs n > k
EIGSH_TOL = 1e-10
SINGULAR_KAPPA = np.inf


@dataclass(frozen=True)
class SolveReport:
    u: np.ndarray
    cond: float  # nan when not computed
    cond_method: str  # "svd", "one_norm_estimate", or "none" when not computed
    factorization: str
    residual_inf: float
    ill_conditioned: bool


def _default_method(n: int) -> str:
    """The condition-number method used for an n x n system by default."""
    return "svd" if n <= SVD_LIMIT else "one_norm_estimate"


def _largest_eigenvalue(n, matvec) -> float:
    """Largest eigenvalue of a symmetric positive operator, by ARPACK."""
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    return float(spla.eigsh(op, k=1, which="LA", tol=EIGSH_TOL, v0=v0,
                            return_eigenvectors=False)[0])


def condition_number(matrix, method: str | None = None, lu=None) -> float:
    """Condition number of a square matrix.

    'svd' is the exact 2-norm value sigma_max / sigma_min, computed as
    sqrt(lambda_max(A^T A) * lambda_max(A^-1 A^-T)) with ARPACK on two
    operators; the second one applies A^-1 A^-T through the LU factors.
    Matrices up to DENSE_LIMIT take a dense SVD instead. 'one_norm_estimate'
    is a Hager-style 1-norm estimate of ||A|| * ||A^-1|| (order-of-magnitude
    accurate). Default: svd up to SVD_LIMIT DOF, the estimator beyond.
    `lu` is a scipy `splu` factorization of the matrix; without it the
    matrix is factorized here. A matrix that LU finds singular has
    condition number SINGULAR_KAPPA.
    """
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if method is None:
        method = _default_method(n)
    if method not in ("svd", "one_norm_estimate"):
        raise ValueError(f"unknown method {method!r}")
    a = sp.csc_matrix(matrix)
    if lu is None:
        try:
            lu = spla.splu(a)
        except RuntimeError:
            return SINGULAR_KAPPA
    if method == "one_norm_estimate":
        inv = spla.LinearOperator(
            a.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="T")
        )
        # onenormest draws its start vectors from numpy's global RNG: seed
        # it, so the estimate is reproducible, and leave the caller's state
        state = np.random.get_state()
        np.random.seed(0)
        try:
            return float(spla.onenormest(a) * spla.onenormest(inv))
        finally:
            np.random.set_state(state)
    if n <= DENSE_LIMIT:
        sv = np.linalg.svd(a.toarray(), compute_uv=False)
        return float(sv[0] / sv[-1]) if sv[-1] > 0 else SINGULAR_KAPPA
    at = a.T
    sigma_max_sq = _largest_eigenvalue(n, lambda v: at @ (a @ v))
    sigma_min_inv_sq = _largest_eigenvalue(
        n, lambda v: lu.solve(lu.solve(v, trans="T")))
    return float(np.sqrt(sigma_max_sq * sigma_min_inv_sq))


def solve_direct(system, compute_cond: bool = True) -> SolveReport:
    """LU solve of an AssembledSystem (or anything with .matrix/.rhs).

    The condition number, when asked for, reuses the solve's LU."""
    a = sp.csc_matrix(system.matrix)
    b = np.asarray(system.rhs, dtype=float)
    if a.shape[0] != a.shape[1] or a.shape[0] != b.size:
        raise ValueError("system dimensions are inconsistent")
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:
        raise RuntimeError(f"singular system matrix: {exc}") from exc
    u = lu.solve(b)
    residual = float(np.abs(a @ u - b).max())
    if compute_cond:
        cond_method = _default_method(a.shape[0])
        cond = condition_number(a, cond_method, lu=lu)
    else:
        cond, cond_method = float("nan"), "none"
    scale = float(np.abs(a.data).max() * max(np.abs(u).max(), 1.0)
                  + np.abs(b).max())
    return SolveReport(
        u=u,
        cond=cond,
        cond_method=cond_method,
        factorization="splu",
        residual_inf=residual,
        ill_conditioned=residual > 1e-8 * scale,
    )
