"""Direct sparse solves and conditioning diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SVD_LIMIT = 2000  # above this, fall back to the 1-norm estimator
SINGULAR_KAPPA = np.inf


@dataclass(frozen=True)
class SolveReport:
    u: np.ndarray
    cond: float  # nan when not computed
    cond_method: str  # "svd", "one_norm_estimate", or "none" when not computed
    factorization: str
    residual_inf: float
    ill_conditioned: bool


def condition_number(matrix, method: str | None = None) -> float:
    """Condition number of a square matrix.

    'svd' is the exact 2-norm value; 'one_norm_estimate' is a Hager-style
    1-norm estimate of ||A|| * ||A^-1|| (order-of-magnitude accurate).
    Default: svd up to 2000 DOF, estimator beyond.
    """
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if method is None:
        method = "svd" if n <= SVD_LIMIT else "one_norm_estimate"
    if method == "svd":
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
        sv = np.linalg.svd(dense, compute_uv=False)
        if sv[-1] <= 0:
            return SINGULAR_KAPPA
        return float(sv[0] / sv[-1])
    if method == "one_norm_estimate":
        a = sp.csc_matrix(matrix)
        try:
            lu = spla.splu(a)
        except RuntimeError:
            return SINGULAR_KAPPA
        inv = spla.LinearOperator(
            a.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="T")
        )
        return float(spla.onenormest(a) * spla.onenormest(inv))
    raise ValueError(f"unknown method {method!r}")


def solve_direct(system, compute_cond: bool = True) -> SolveReport:
    """LU solve of an AssembledSystem (or anything with .matrix/.rhs)."""
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
        cond = condition_number(a)
        cond_method = "svd" if a.shape[0] <= SVD_LIMIT else "one_norm_estimate"
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
