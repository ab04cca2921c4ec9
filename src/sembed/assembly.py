"""Global assembly of the Poisson-reaction system with weak boundary
conditions on a (surrogate or conformal) domain.

One assembly path serves every method: conformal records have x = x_bar and
d = 0, so the shifted terms degenerate to the body-fitted ones entrywise.
Trial traces u(x) and grad(u)(x) . n are the owning element's polynomial
evaluated at the mapped point; test traces live at x_bar except where a
formulation explicitly pairs with v(x).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# callers and perfbench's tracer name the DOF map sembed.assembly.build_dof_map
from .embedding import SurrogateDomain, build_dof_map  # noqa: F401
from .refelem import barycentric, build_reference_element

DIRICHLET_FORMS = ("nitsche_nonsym", "nitsche_sym", "aubin")
NEUMANN_FORMS = ("standard", "with_symmetric_penalty")
ROBIN_FORMS = (
    "inconsistent",
    "nitsche_corrected_coeffs",
    "nitsche_full_condition",
    "aubin",
)

EXTRAPOLATION_GUARD = 10.0
MIN_NORMAL_ALIGNMENT = 0.05


@dataclass(frozen=True)
class DirichletBC:
    data: object  # callable(x)->values, (n_rec, nq) array, or scalar
    form: str = "nitsche_nonsym"
    where: int | None = None  # boundary segment id; None matches every record

    def __post_init__(self):
        if self.form not in DIRICHLET_FORMS:
            raise ValueError(f"unknown Dirichlet form {self.form!r}")


@dataclass(frozen=True)
class NeumannBC:
    data: object  # callable(x, n)->values, (n_rec, nq) array, or scalar
    form: str = "standard"
    where: int | None = None

    def __post_init__(self):
        if self.form not in NEUMANN_FORMS:
            raise ValueError(f"unknown Neumann form {self.form!r}")


@dataclass(frozen=True)
class RobinBC:
    u_data: object
    q_data: object  # as NeumannBC.data
    eps: float  # positive number
    form: str = "nitsche_full_condition"
    where: int | None = None

    def __post_init__(self):
        if self.form not in ROBIN_FORMS:
            raise ValueError(f"unknown Robin form {self.form!r}")
        if not (isinstance(self.eps, numbers.Real) and self.eps > 0):
            raise ValueError(f"Robin eps must be a positive number, got {self.eps!r}")


@dataclass(frozen=True)
class BoundaryProblem:
    conditions: tuple
    forcing: object = 0.0
    alpha: float = 0.0
    gamma: float | None = None  # default: SurrogateDomain.h_avg / 2
    gamma_scaling: str = "avg"  # 'avg' or 'local'

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.gamma_scaling not in ("avg", "local"):
            raise ValueError("gamma_scaling must be 'avg' or 'local'")
        for c in self.conditions:
            if c.where is not None and not isinstance(c.where, (int, np.integer)):
                raise ValueError(f"where must be None or a segment id, got {c.where!r}")
        essential = any(
            isinstance(c, (DirichletBC, RobinBC)) for c in self.conditions
        )
        if not essential and self.alpha == 0.0:
            raise ValueError("pure Neumann problem needs alpha > 0")


@dataclass
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dof_coords: np.ndarray
    loc2glob: np.ndarray  # (n_active, n_ep) global DOF per element-local node
    gamma: float
    # (n_active, n_p, n_p) summed volume and boundary block of each active
    # element, kept at P >= 3 for the condensed solve; else None
    elem_matrices: np.ndarray | None = None


def _eval_field(data, records, sel):
    """Boundary data at the mapped points of the records `sel` of the
    domain's `records`: `data` is a callable of (m, 2) points, an
    (n_rec, nq) array over all records, or a scalar. An array of any other
    shape raises ValueError."""
    x = records.x[sel]
    if callable(data):
        return np.asarray(data(x.reshape(-1, 2)), dtype=float).reshape(x.shape[:2])
    data = np.asarray(data, dtype=float)
    if not data.ndim:
        return np.full(x.shape[:2], float(data))
    if data.shape != records.w.shape:
        raise ValueError(f"boundary data of shape {data.shape}, expected "
                         f"{records.w.shape} (n_rec, nq)")
    return data[sel]


def _eval_flux(data, records, sel):
    """Flux data q = grad(u) . n: a callable is called as q(x, n) with the
    records' normals, so the conformal path gets the surrogate normal and
    the shifted path the true one; other data as in _eval_field."""
    if callable(data):
        x, n = records.x[sel], records.n[sel]
        q = data(x.reshape(-1, 2), n.reshape(-1, 2))
        return np.asarray(q, dtype=float).reshape(x.shape[:2])
    return _eval_field(data, records, sel)


def _scatter(n, batches, fmt="csr"):
    """Sum of element blocks into one n x n sparse matrix: blocks[e] of each
    batch (gdofs, blocks) couples the global DOFs gdofs[e].

    Writes the unsorted compressed arrays that scipy's coo_tocsr would make
    from the triples (row, col, value) of every batch in turn, each in its
    blocks' C order, without forming the triples. In that sequence, block
    row k of batch entry e (block column k in CSC) is a run of n_p values in
    the line gdofs[e, k], and the rank of these (entry, k) occurrences in
    the stable order of lines is the run's slot. scipy's duplicate sum then
    sorts and adds each line as it would for the triples, so the summation
    order is that of any construction of them.

    Callers give every block of one matrix the same size n_p, and put no
    DOF twice in one gdofs[e]: loc2glob rows and the condensation's local
    indices are distinct by construction. In CSC, coo_tocsr interleaves the
    block columns of such a repeat within their shared run and the slots do
    not, so the sums would differ at rounding.
    """
    cls = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
    batches = [(g, b) for g, b in batches if b.size]
    if not batches:
        return cls((n, n))
    n_p = batches[0][0].shape[1]
    lines = np.concatenate([g.ravel() for g, _ in batches], dtype=np.int64)
    size = lines.size * n_p
    # the index dtype scipy picks for `size` triples of an n x n matrix
    idx_dtype = np.int32 if max(size, n) <= np.iinfo(np.int32).max else np.int64
    # the stable argsort of lines, as a sort of the unique keys (line, occurrence)
    order = np.sort(lines * lines.size + np.arange(lines.size)) % lines.size
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    indptr = np.zeros(n + 1, idx_dtype)
    indptr[1:] = n_p * np.cumsum(np.bincount(lines, minlength=n))
    indices, data = np.empty(size, idx_dtype), np.empty(size)
    done = 0
    for gdofs, blocks in batches:
        slot = rank[done:done + gdofs.size].reshape(gdofs.shape)
        done += gdofs.size
        indices.reshape(-1, n_p)[slot] = gdofs[:, None, :]
        data.reshape(-1, n_p)[slot] = blocks if fmt == "csr" else blocks.transpose(0, 2, 1)
    a = cls((data, indices, indptr), shape=(n, n))
    del data, indices
    a.sum_duplicates()
    # scipy's prune keeps views onto the size-long arrays while nnz > size / 2;
    # copied one at a time, each buffer is freed before the next copy
    if a.data.base is not None and a.nnz < size:
        a.data = a.data.copy()
        a.indices = a.indices.copy()
    return a


def _elem_traces(domain, elem, rec):
    """Basis values/normal derivatives at x_bar and at the mapped x: the
    record's rows of the domain's trace table, found from its edge, as the
    records are in ascending edge order. `assemble` takes every record's
    traces through this one function."""
    traces = domain.traces
    i = np.searchsorted(domain.records.edge, rec.edge)
    return traces.vbar[i], traces.vmap[i], traces.gbarn[i], traces.gmapn[i]


def _condition_terms(cond, records, sel, traces, gamma):
    """Boundary blocks (m, n_p, n_p) and load vectors (m, n_p, 1) of the m
    records rec = records[sel] on which `cond` holds, from their traces
    (m, nq, n_p) and penalties gamma (m,). np.matmul over the record axis
    keeps each record's products, and every expression keeps the operation
    order of one record's, so a batch is bitwise equal to its records."""
    vbar, vmap, gbarn, gmapn = traces
    m, _, n_p = vbar.shape
    rec = records[sel]
    w = rec.w

    def col(v):
        return v[..., None]

    def tr(a):
        return np.swapaxes(a, 1, 2)

    g = gamma[:, None, None]
    block = np.zeros((m, n_p, n_p))
    bvec = np.zeros((m, n_p, 1))
    block -= tr(vbar * col(w)) @ gbarn

    if isinstance(cond, DirichletBC):
        ud = _eval_field(cond.data, records, sel)
        test = vmap if cond.form == "nitsche_sym" else vbar
        block += tr(test * col(w)) @ vmap / g
        load = tr(test) @ col(w * ud) / g
        if cond.form != "aubin":
            block -= tr(gbarn * col(w)) @ vmap
            load = load - tr(gbarn) @ col(w * ud)
        bvec += load
        return block, bvec

    nn = (rec.nbar[:, None] * rec.n).sum(axis=2)
    if isinstance(cond, NeumannBC):
        qn = _eval_flux(cond.data, records, sel)
        block += tr(vbar * col(w * nn)) @ gmapn
        bvec += tr(vbar) @ col(w * nn * qn)
        if cond.form == "with_symmetric_penalty":
            block -= g * tr(gbarn * col(w * nn)) @ gmapn
            bvec -= g * tr(gbarn) @ col(w * nn * qn)
        return block, bvec

    ud = _eval_field(cond.u_data, records, sel)
    qn = _eval_flux(cond.q_data, records, sel)
    test = vmap / g
    if cond.form != "aubin":
        test = test - gbarn
    gq = gamma[:, None]  # per quadrature point
    if cond.form == "nitsche_corrected_coeffs":
        if np.any(nn < MIN_NORMAL_ALIGNMENT):
            raise ValueError(
                "corrected-coefficients Robin needs nbar.n >= "
                f"{MIN_NORMAL_ALIGNMENT}; use nitsche_full_condition"
            )
        gq = nn * gq
    c1 = gq / (gq + cond.eps)
    c2 = gq * cond.eps / (gq + cond.eps)
    if cond.form == "inconsistent":
        c2 = c2 * nn
    qdat = c2 * qn
    block += tr(test * col(w * c1)) @ vmap
    block += tr(test * col(w * c2)) @ gmapn
    bvec += tr(test) @ col(w * c1 * ud) + tr(test) @ col(w * qdat)
    return block, bvec


def assemble(
    domain: SurrogateDomain, problem: BoundaryProblem
) -> AssembledSystem:
    """Assemble A, b over the active set of `domain`.

    Volume terms: (grad u, grad v) + alpha (u, v) - (f, v). Boundary terms
    follow each condition's formulation with polynomial-correction traces.
    """
    mesh = domain.mesh
    elem = build_reference_element(domain.order)
    loc2glob, dof_coords = domain.dof_map
    n_dof = dof_coords.shape[0]

    # An affine element's volume block is |J| (sum_ab G_ab S_ab + alpha M)
    # with G = B^-1 B^-T, S_ab = (d_a phi, d_b phi) and M on the reference.
    cw = elem.cub_w[:, None]
    dr, ds, phi = elem.cub_dr, elem.cub_ds, elem.cub_basis
    pairs = ((dr, dr), (dr, ds), (ds, dr), (ds, ds), (phi, phi))
    ref = np.stack([(a * cw).T @ b for a, b in pairs]).reshape(len(pairs), -1)
    active = domain.active
    binv = mesh.affine_b_inv[active]
    jac = np.abs(mesh.jacobian[active])
    g = (binv @ binv.transpose(0, 2, 1)).reshape(-1, 4)
    coeffs = np.column_stack([g, np.full(active.size, problem.alpha)])
    volume = ((jac[:, None] * coeffs) @ ref).reshape(-1, elem.n_points, elem.n_points)

    rs_cub = np.column_stack([elem.cub_r, elem.cub_s])
    xq = mesh.to_physical(active, rs_cub).reshape(-1, 2)
    f = problem.forcing
    fq = np.asarray(f(xq) if callable(f) else f, dtype=float)
    fq = np.broadcast_to(fq, xq.shape[:1]).reshape(active.size, -1)
    local = (jac[:, None] * elem.cub_w * fq) @ phi
    rhs = np.bincount(loc2glob.ravel(), weights=local.ravel(), minlength=n_dof)

    gamma_global = problem.gamma if problem.gamma is not None else domain.h_avg / 2.0
    records = domain.records
    # a record takes the first condition whose `where` is None or the
    # segment of its middle quadrature point; -1 for none
    seg = records.segment[:, records.segment.shape[1] // 2]
    matched = np.full(len(records), -1)
    for k, cond in enumerate(problem.conditions):
        free = matched < 0
        matched[free if cond.where is None else free & (seg == cond.where)] = k
    tagged = matched >= 0
    traces = [_elem_traces(domain, elem, rec) for rec in records]
    traces = [np.stack(t) for t in zip(*traces)]

    lam = np.abs(barycentric(records.rs_map.reshape(-1, 2)))
    lam = lam.reshape(len(records), -1).max(axis=1)
    far = np.flatnonzero(tagged & (lam > EXTRAPOLATION_GUARD))
    if far.size:
        i = far[0]
        raise ValueError(
            f"edge {records.edge[i]}: mapped point far outside element "
            f"{records.elem[i]} (barycentric magnitude "
            f"{lam[i]:.2f} > {EXTRAPOLATION_GUARD})"
        )

    if problem.gamma_scaling == "local":
        c_gamma = problem.gamma if problem.gamma is not None else 0.5
        gamma = c_gamma * mesh.h_elem[records.elem]
    else:
        gamma = np.full(len(records), gamma_global)

    blocks = np.zeros((len(records), elem.n_points, elem.n_points))
    bvecs = np.zeros((len(records), elem.n_points, 1))
    for k, cond in enumerate(problem.conditions):
        sel = np.flatnonzero(matched == k)
        if sel.size:
            blocks[sel], bvecs[sel] = _condition_terms(
                cond, records, sel, [t[sel] for t in traces], gamma[sel]
            )

    if not tagged.all():
        raise ValueError(
            f"surrogate boundary edges without a boundary condition: "
            f"{records.edge[~tagged].tolist()}"
        )
    rows = domain.active_row[records.elem]
    gdofs = loc2glob[rows]
    np.add.at(rhs, gdofs, bvecs[..., 0])

    matrix = _scatter(n_dof, [(loc2glob, volume), (gdofs, blocks)])
    elem_matrices = None
    if domain.order >= 3:
        # the matrix is built, so `volume` can take the boundary blocks
        np.add.at(volume, rows, blocks)
        elem_matrices = volume

    return AssembledSystem(
        matrix=matrix,
        rhs=rhs,
        dof_coords=dof_coords,
        loc2glob=loc2glob,
        gamma=gamma_global,
        elem_matrices=elem_matrices,
    )
