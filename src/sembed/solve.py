"""Direct sparse solves and conditioning diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import _scatter
from .refelem import lattice_weights

SVD_LIMIT = 2000  # above this, the default is the 1-norm estimator
DENSE_LIMIT = 32  # up to this, 'svd' is a dense SVD: cheap, and ARPACK needs n > k
EIGSH_TOL = 1e-10
# Krylov space of the 'svd' path's inverse half, A^-1 A^-T. ARPACK checks
# convergence once per ncv-step restart cycle, so scipy's default ncv = 20
# costs 20 solve pairs even where the isolated 1 / sigma_min^2 has converged
# after a few. Over 961 systems (random_embedding seeds 0-31 and the 828-DOF
# disk_lowp_cond cell) ncv = 6 takes 8206 applies instead of 20181 (at most
# 19 per system instead of 21); sigma_min stays within 1.0e-8 relative of a
# dense SVD, as at the default, and cond moves by at most 1.2e-15 relative.
# The A^T A half keeps the default: its top spectrum is clustered, and
# ncv 6 / 8 cost up to 910 / 137 applies on one system against 71.
INVERSE_NCV = 6
SINGULAR_KAPPA = np.inf
# The Schur complement S, and the full matrix of a system without element
# matrices, are structurally symmetric: a minimum-degree ordering of A^T + A
# with pivots taken from the diagonal about halves the fill of splu's default
# COLAMD with partial pivoting (README "Solving"). Neither supernode
# relaxation nor column panels pay on these 2-D patterns: relax = 1 and
# panel_size = 1 give the same L + U nnz as SuperLU's defaults (10, 20) and
# factor disk_lowp_cond's three A in 73 ms against 103, disk_highp's three S
# in 85 ms against 101 (single-threaded, median of 10 processes per setting;
# the README of commit 17a05b9 has the sweep's tables)
SYMMETRIC_SPLU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 1e-3,
                  "relax": 1, "panel_size": 1, "options": {"SymmetricMode": True}}
MAX_REFINEMENT_STEPS = 5


@dataclass(frozen=True)
class SolveReport:
    u: np.ndarray
    cond: float  # nan when not computed
    cond_method: str  # "svd", "one_norm_estimate", or "none" when not computed
    factorization: str
    residual_inf: float
    ill_conditioned: bool
    refinement_steps: int = 0  # corrections of a symmetric-mode factor; 0 if none ran


def _default_method(n: int) -> str:
    """The condition-number method used for an n x n system by default."""
    return "svd" if n <= SVD_LIMIT else "one_norm_estimate"


def _largest_eigenvalue(n, matvec, ncv=None) -> float:
    """Largest eigenvalue of a symmetric positive operator, by ARPACK with
    `ncv` Lanczos vectors (None: scipy's default)."""
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    return float(spla.eigsh(op, k=1, which="LA", tol=EIGSH_TOL, v0=v0, ncv=ncv,
                            return_eigenvectors=False)[0])


def condition_number(matrix, method: str | None = None, lu=None) -> float:
    """Condition number of a square matrix.

    'svd' is the exact 2-norm value sigma_max / sigma_min, computed as
    sqrt(lambda_max(A^T A) * lambda_max(A^-1 A^-T)) with ARPACK on two
    operators; the second one applies A^-1 A^-T through the LU factors.
    Matrices up to DENSE_LIMIT take a dense SVD instead. 'one_norm_estimate'
    is ||A||_1, exact from the column sums, times a block 1-norm estimate of
    ||A^-1||_1 that solves for a whole block of columns at once
    (order-of-magnitude accurate). Default: svd up to SVD_LIMIT DOF, the
    estimator beyond.
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
        # onenormest multiplies by the operator and its transpose only in
        # n x t blocks, and each block takes one solve
        inv = spla.LinearOperator(a.shape, matvec=lu.solve, matmat=lu.solve,
                                  rmatmat=lambda x: lu.solve(x, trans="T"), dtype=float)
        # onenormest draws its start vectors from numpy's global RNG: seed
        # it, so the estimate is reproducible, and leave the caller's state
        state = np.random.get_state()
        np.random.seed(0)
        try:
            return float(abs(a).sum(axis=0).max() * spla.onenormest(inv))
        finally:
            np.random.set_state(state)
    if n <= DENSE_LIMIT:
        sv = np.linalg.svd(a.toarray(), compute_uv=False)
        return float(sv[0] / sv[-1]) if sv[-1] > 0 else SINGULAR_KAPPA
    at = a.T
    sigma_max_sq = _largest_eigenvalue(n, lambda v: at @ (a @ v))
    sigma_min_inv_sq = _largest_eigenvalue(
        n, lambda v: lu.solve(lu.solve(v, trans="T")), ncv=INVERSE_NCV)
    return float(np.sqrt(sigma_max_sq * sigma_min_inv_sq))


def _factorize(matrix, **options):
    try:
        return spla.splu(sp.csc_matrix(matrix), **options)
    except RuntimeError as exc:
        raise RuntimeError(f"singular system matrix: {exc}") from exc


def _condensed_solver(system):
    """Solver for A x = r that eliminates the element-interior nodes.

    An interior node (all three lattice weights positive) couples only
    inside its element, so each element's summed block splits into the
    interior (I) and element-boundary (B) nodes. One batched inverse of the
    K_II blocks gives the Schur complements K_BB - K_BI K_II^-1 K_IB, which
    are scattered into S over the boundary DOFs; only S is factorized, with
    the symmetric-mode options SYMMETRIC_SPLU. The explicit inverses cost
    less than repeated batched solves, and the caller's refinement absorbs
    their larger rounding error and that of the diagonal pivots.
    Raises LinAlgError when a K_II block is singular.
    """
    blocks, loc2glob = system.elem_matrices, system.loc2glob
    n_p = blocks.shape[1]
    # n_p = (P + 1)(P + 2) / 2
    interior = (lattice_weights(math.isqrt(2 * n_p) - 1) > 0).all(axis=1)
    ii, bb = np.flatnonzero(interior), np.flatnonzero(~interior)
    k_inv = np.linalg.inv(blocks[:, ii[:, None], ii])
    k_bi = blocks[:, bb[:, None], ii]
    x_ib = k_inv @ blocks[:, ii[:, None], bb]
    schur = blocks[:, bb[:, None], bb]
    schur -= k_bi @ x_ib
    glob_i = loc2glob[:, ii]
    dofs, local = np.unique(loc2glob[:, bb], return_inverse=True)
    local = local.reshape(-1, bb.size)
    lu = _factorize(_scatter(dofs.size, [(local, schur)], "csc"), **SYMMETRIC_SPLU)

    def solve(r):
        y = k_inv @ r[glob_i][..., None]
        g = r[dofs] - np.bincount(local.ravel(), weights=(k_bi @ y).ravel(),
                                  minlength=dofs.size)
        u_b = lu.solve(g)
        u = np.empty_like(r)
        u[dofs] = u_b
        u[glob_i] = (y - x_ib @ u_b[local][..., None])[..., 0]
        return u

    return solve


def _refine(solver, a, b):
    """Solve A u = b with `solver`, then refine in the style of LAPACK's
    xGERFS: apply a first correction u += solver(b - A u), and another one
    after each that at least halved the max-norm residual, at most
    MAX_REFINEMENT_STEPS in all. Returns u, the max norm of the last
    residual taken and the number of corrections applied."""
    u = solver(b)
    r = b - a @ u
    residual, last, steps = float(np.abs(r).max()), np.inf, 0
    while steps < MAX_REFINEMENT_STEPS and 0 < residual <= last / 2:
        u += solver(r)
        r = b - a @ u
        last, residual = residual, float(np.abs(r).max())
        steps += 1
    return u, residual, steps


def _residual_scale(a, u, b) -> float:
    """max|A| max(max|u|, 1) + max|b|: the size of the terms of b - A u."""
    # max(max, -min) is max|A| without an nnz-sized temporary
    return float(max(a.data.max(), -a.data.min()) * max(np.abs(u).max(), 1.0)
                 + np.abs(b).max())


def _ill_conditioned(residual, scale) -> bool:
    return residual > 1e-8 * scale


def solve_direct(system, compute_cond: bool = True) -> SolveReport:
    """Direct solve of an AssembledSystem (or anything with .matrix/.rhs).

    A system without element matrices (P <= 2) factors its full matrix in
    symmetric mode (`SYMMETRIC_SPLU`). Without a condition number, a system
    that carries element matrices (P >= 3) is solved by static condensation:
    the element-interior nodes are eliminated element by element, and only
    the Schur complement on the element-boundary DOFs is factorized, in the
    same mode. Either factor is refined against the
    full matrix (`_refine`), which brings the error back to that of a plain
    LU. A system with element matrices that asks for a condition number
    takes `splu` of the full matrix with its default COLAMD ordering. The
    condition number reuses the LU the solution came from.
    `factorization` names the path taken, including a fallback to plain
    `splu` when an interior block is singular or when the refined residual
    stalls above n eps / 2 (the unit roundoff) times the size of its terms,
    short of a plain LU's accuracy; `refinement_steps` counts the
    corrections applied, also before such a fallback.
    `residual_inf` and `ill_conditioned` always refer to the full system.
    """
    b = np.asarray(system.rhs, dtype=float)
    a = system.matrix
    if a.shape[0] != a.shape[1] or a.shape[0] != b.size:
        raise ValueError("system dimensions are inconsistent")
    solver, factorization, steps, csc = None, "splu", 0, None
    if getattr(system, "elem_matrices", None) is None:
        # one CSC copy serves the factorization and the condition number
        csc = sp.csc_matrix(a)
        lu = _factorize(csc, **SYMMETRIC_SPLU)
        solver, factorization = lu.solve, "splu-symmetric"
    elif not compute_cond:
        try:
            solver, factorization = _condensed_solver(system), "splu-condensed"
        except np.linalg.LinAlgError as exc:
            factorization = f"splu (condensation failed: {exc})"
    if solver is not None:
        # the refined paths only multiply by A, which assemble builds in CSR
        u, residual, steps = _refine(solver, a, b)
        scale = _residual_scale(a, u, b)
        ill_conditioned = _ill_conditioned(residual, scale)
        if residual > a.shape[0] * np.finfo(float).eps / 2 * scale:
            factorization = (f"splu ({factorization.removeprefix('splu-')} "
                             f"refinement stalled at residual {residual:.1e})")
            solver = None
    if solver is None:
        csc = sp.csc_matrix(a) if csc is None else csc
        lu = _factorize(csc)
        u = lu.solve(b)
        residual = float(np.abs(csc @ u - b).max())
        ill_conditioned = _ill_conditioned(residual, _residual_scale(csc, u, b))
    if compute_cond:
        cond_method = _default_method(a.shape[0])
        cond = condition_number(csc, cond_method, lu=lu)
    else:
        cond, cond_method = float("nan"), "none"
    return SolveReport(
        u=u,
        cond=cond,
        cond_method=cond_method,
        factorization=factorization,
        residual_inf=residual,
        ill_conditioned=ill_conditioned,
        refinement_steps=steps,
    )
