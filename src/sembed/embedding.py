"""Surrogate domain construction for unfitted meshes.

Given a background mesh and an implicit geometry, classify elements by the
level-set sign at their vertices, extract the surrogate boundary, and build
per-quadrature-point mapping records (x_bar on the surrogate edge, the mapped
point x on the true boundary, the distance vector d, and both normal frames).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .geometry import Circle, ImplicitGeometry
from .meshing import TriMesh
from .refelem import barycentric, build_reference_element

log = logging.getLogger(__name__)

INSIDE, CUT, OUTSIDE = "inside", "cut", "outside"


def classify_elements(mesh: TriMesh, geometry: ImplicitGeometry) -> np.ndarray:
    """Label each element inside / cut / outside by vertex level-set signs.

    A vertex exactly on the boundary (phi = 0) counts as inside, so
    tangentially touching elements stay in the extrapolation-mode set.
    """
    phi = geometry.phi(mesh.vertices)
    pos = phi >= 0.0
    vert_pos = pos[mesh.elements]
    labels = np.full(mesh.n_elements, CUT, dtype="<U7")
    labels[vert_pos.all(axis=1)] = INSIDE
    labels[~vert_pos.any(axis=1)] = OUTSIDE
    return labels


@dataclass(frozen=True)
class EdgeRecords:
    """Mapping records for one surrogate boundary edge."""

    edge: int
    elem: int
    length: float
    nbar: np.ndarray  # outward surrogate normal, constant on the edge
    w: np.ndarray  # arc-length quadrature weights, sum = length
    xbar: np.ndarray  # (nq, 2) quadrature points on the edge
    x: np.ndarray  # (nq, 2) mapped points on the true boundary
    d: np.ndarray  # x - xbar
    n: np.ndarray  # true outward normal at x
    t: np.ndarray  # tangent at x
    rs_bar: np.ndarray  # reference image of xbar in the owning element
    rs_map: np.ndarray  # reference image of x in the owning element
    segment: np.ndarray  # boundary segment ids at x


@dataclass(frozen=True)
class BoundaryTraces:
    """Owner-element basis traces at every record's quadrature points.

    Rows stack the records in order, one row per quadrature point; columns
    are the owner's nodal basis functions. `rows[edge]` is the slice of the
    record on surrogate edge `edge`.
    """

    rows: dict  # surrogate edge -> slice of its record's rows
    owner: np.ndarray  # (nq_total,) owning element of each row
    vbar: np.ndarray  # basis values at x_bar
    vmap: np.ndarray  # basis values at the mapped x
    gbarn: np.ndarray  # grad(basis) . nbar at x_bar
    gmapn: np.ndarray  # grad(basis) . n at the mapped x


def _boundary_traces(domain: SurrogateDomain) -> BoundaryTraces:
    elem = build_reference_element(domain.order)
    records = domain.records
    counts = [rec.w.size for rec in records]
    bounds = np.cumsum([0] + counts).tolist()
    rows = {rec.edge: slice(lo, hi) for rec, lo, hi in zip(records, bounds, bounds[1:])}
    owner = np.repeat([rec.elem for rec in records], counts)
    binv = domain.mesh.affine_b_inv[owner]
    nbar = np.repeat([rec.nbar for rec in records], counts, axis=0)
    n = np.concatenate([rec.n for rec in records])
    rs_bar = np.concatenate([rec.rs_bar for rec in records])
    rs_map = np.concatenate([rec.rs_map for rec in records])

    def normal_derivative(rs, normal):
        gr, gs = elem.eval_basis_grad(rs[:, 0], rs[:, 1])
        gx = gr * binv[:, 0, 0:1] + gs * binv[:, 1, 0:1]
        gy = gr * binv[:, 0, 1:2] + gs * binv[:, 1, 1:2]
        return gx * normal[:, 0:1] + gy * normal[:, 1:2]

    return BoundaryTraces(
        rows=rows,
        owner=owner,
        vbar=elem.eval_basis(rs_bar[:, 0], rs_bar[:, 1]),
        vmap=elem.eval_basis(rs_map[:, 0], rs_map[:, 1]),
        gbarn=normal_derivative(rs_bar, nbar),
        gmapn=normal_derivative(rs_map, n),
    )


@dataclass(frozen=True)
class SurrogateDomain:
    mesh: TriMesh
    geometry: ImplicitGeometry | None
    mode: str  # extrapolation | interpolation | conformal
    mapping_kind: str
    order: int
    active: np.ndarray  # active element indices
    records: list

    @property
    def n_active(self) -> int:
        return self.active.size

    @cached_property
    def traces(self) -> BoundaryTraces:
        """Basis traces of all records, evaluated on first use and kept for
        the life of the domain (the records must not change after that)."""
        return _boundary_traces(self)

    @cached_property
    def active_row(self) -> np.ndarray:
        """Each mesh element's row in `active` (and in an assembled system's
        `loc2glob`); -1 for elements outside the active set."""
        row = np.full(self.mesh.n_elements, -1, dtype=np.int64)
        row[self.active] = np.arange(self.n_active)
        return row

    def h_stats(self) -> tuple[float, float, float]:
        h = self.mesh.h_elem[self.active]
        return float(h.min()), float(h.mean()), float(h.max())

    def active_edge_lengths(self) -> np.ndarray:
        keep = np.zeros(self.mesh.edges.shape[0], dtype=bool)
        keep[self.mesh.elem_edges[self.active]] = True
        return self.mesh.edge_lengths[keep]

    @property
    def h_avg(self) -> float:
        return float(self.active_edge_lengths().mean())

    def dump_csv(self, path):
        with open(path, "w") as f:
            f.write("edge,elem,xbar_x,xbar_y,x_x,x_y,nbar_x,nbar_y,n_x,n_y\n")
            for rec in self.records:
                for k in range(rec.xbar.shape[0]):
                    f.write(
                        f"{rec.edge},{rec.elem},"
                        f"{rec.xbar[k, 0]},{rec.xbar[k, 1]},"
                        f"{rec.x[k, 0]},{rec.x[k, 1]},"
                        f"{rec.nbar[0]},{rec.nbar[1]},"
                        f"{rec.n[k, 0]},{rec.n[k, 1]}\n"
                    )


def _check_connected(mesh: TriMesh, active: np.ndarray) -> None:
    if active.size == 0:
        raise ValueError("active element set is empty")
    # active elements joined by the edges they share
    e0, e1 = mesh.edge_elems[np.isin(mesh.edge_elems, active).all(axis=1)].T
    n = mesh.n_elements
    graph = sp.coo_matrix((np.ones(e0.size), (e0, e1)), shape=(n, n))
    label = connected_components(graph, directed=False)[1]
    reached = int(np.count_nonzero(label[active] == label[active[0]]))
    if reached != active.size:
        raise ValueError(
            f"active element set is disconnected "
            f"({reached} of {active.size} reachable)"
        )


def _surrogate_edges(mesh: TriMesh, keep_elem: np.ndarray):
    """Edges of kept elements facing a non-kept element or the mesh hull,
    in edge order. Returns (edge index, owning element) pairs."""
    e0, e1 = mesh.edge_elems.T
    k0 = keep_elem[e0]
    edges = np.flatnonzero(k0 != ((e1 >= 0) & keep_elem[e1]))
    owners = np.where(k0, e0, e1)[edges]
    return list(zip(edges.tolist(), owners.tolist()))


def _edge_frame(mesh: TriMesh, edge: int, elem: int):
    a = mesh.vertices[mesh.edges[edge, 0]]
    b = mesh.vertices[mesh.edges[edge, 1]]
    v = b - a
    length = float(np.linalg.norm(v))
    nbar = np.array([v[1], -v[0]]) / length
    centroid = mesh.vertices[mesh.elements[elem]].mean(axis=0)
    if nbar @ (0.5 * (a + b) - centroid) < 0:
        nbar = -nbar
    return a, b, length, nbar


def _element_boundary_intersections(mesh, geometry, elem, h_max):
    """Roots of phi along the three element edges, by bisection."""
    pts = []
    verts = mesh.vertices[mesh.elements[elem]]
    tol = 1e-12 * h_max
    for i in range(3):
        pa, pb = verts[i], verts[(i + 1) % 3]
        fa = float(geometry.phi(pa)[0])
        fb = float(geometry.phi(pb)[0])
        if fa * fb > 0:
            continue
        lo, hi = 0.0, 1.0
        flo = fa
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            pm = pa + mid * (pb - pa)
            fm = float(geometry.phi(pm)[0])
            if abs(fm) < tol:
                lo = hi = mid
                break
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        pts.append(pa + 0.5 * (lo + hi) * (pb - pa))
    # merge duplicates from a root sitting on a shared vertex
    uniq = []
    for p in pts:
        if all(np.linalg.norm(p - q) > 1e-9 * h_max for q in uniq):
            uniq.append(p)
    return uniq


def _point_in_element(mesh, elem, p, tol=1e-9):
    return barycentric(mesh.to_reference(elem, p)).min() >= -tol


def _arc_points(geometry, p0, p1, fractions):
    """Equal chord-length points on the boundary between p0 and p1 for
    geometries without an exact arc parametrization."""
    lin = p0 + np.linspace(0.0, 1.0, 65)[:, None] * (p1 - p0)
    samples = geometry.project(lin)
    samples[0], samples[-1] = p0, p1
    seg = np.linalg.norm(np.diff(samples, axis=0), axis=1)
    arc = np.concatenate(([0.0], np.cumsum(seg)))
    if arc[-1] <= 0:
        return np.repeat(p0[None, :], fractions.size, axis=0)
    want = fractions * arc[-1]
    out = np.empty((fractions.size, 2))
    for k, target in enumerate(want):
        j = min(np.searchsorted(arc, target), len(arc) - 1)
        j = max(j, 1)
        f = (target - arc[j - 1]) / max(arc[j] - arc[j - 1], 1e-300)
        out[k] = samples[j - 1] + f * (samples[j] - samples[j - 1])
    return out


def build_surrogate(
    mesh: TriMesh,
    geometry: ImplicitGeometry,
    mode: str = "extrapolation",
    mapping_kind: str = "closest_point",
    order: int = 1,
) -> SurrogateDomain:
    """Active set + surrogate boundary + mapping records.

    mode 'extrapolation' keeps fully-inside elements (SBM-e); 'interpolation'
    keeps inside and cut elements (SBM-ei / SBM-i). mapping_kind
    'closest_point' projects along the true normal; 'in_element_equidistant'
    (interpolation mode only) spreads the points over the boundary arc cut
    out by the owning element.
    """
    if mode not in ("extrapolation", "interpolation"):
        raise ValueError(f"unknown mode {mode!r}")
    if mapping_kind not in ("closest_point", "in_element_equidistant"):
        raise ValueError(f"unknown mapping_kind {mapping_kind!r}")
    if mapping_kind == "in_element_equidistant" and mode != "interpolation":
        raise ValueError("in-element mapping requires interpolation mode")

    labels = classify_elements(mesh, geometry)
    if mode == "extrapolation":
        keep = labels == INSIDE
    else:
        keep = labels != OUTSIDE
    active = np.flatnonzero(keep)
    _check_connected(mesh, active)

    elem = build_reference_element(order)
    gq, gw = elem.edge_q, elem.edge_w
    fractions = 0.5 * (gq + 1.0)

    records = []
    for edge, owner in _surrogate_edges(mesh, keep):
        a, b, length, nbar = _edge_frame(mesh, edge, owner)
        xbar = a + fractions[:, None] * (b - a)
        w = 0.5 * length * gw

        x = None
        if mapping_kind == "in_element_equidistant":
            pts = _element_boundary_intersections(
                mesh, geometry, owner, mesh.h_max
            )
            if len(pts) == 2:
                p0, p1 = pts
                if (p1 - p0) @ (b - a) < 0:
                    p0, p1 = p1, p0
                if isinstance(geometry, Circle):
                    x = geometry.arc_param(
                        p0,
                        p1,
                        fractions,
                        prefer=lambda m: _point_in_element(mesh, owner, m, 1e-6),
                    )
                if x is None:
                    x = _arc_points(geometry, p0, p1, fractions)
            if x is None:
                log.warning(
                    "edge %d: no boundary arc in element %d, "
                    "falling back to closest-point mapping",
                    edge,
                    owner,
                )
        if x is None:
            x = geometry.project(xbar)

        n = geometry.normal(x)
        records.append(
            EdgeRecords(
                edge=edge,
                elem=owner,
                length=length,
                nbar=nbar,
                w=w,
                xbar=xbar,
                x=x,
                d=x - xbar,
                n=n,
                t=geometry.tangent(x),
                rs_bar=mesh.to_reference(owner, xbar),
                rs_map=mesh.to_reference(owner, x),
                segment=geometry.segment(x),
            )
        )
    return SurrogateDomain(
        mesh=mesh,
        geometry=geometry,
        mode=mode,
        mapping_kind=mapping_kind,
        order=order,
        active=active,
        records=records,
    )


def conformal_surrogate(
    mesh: TriMesh,
    geometry: ImplicitGeometry | None = None,
    order: int = 1,
) -> SurrogateDomain:
    """Body-fitted path: every element is active, the surrogate boundary is
    the mesh hull, and the mapping degenerates (x = x_bar, d = 0, n = n_bar),
    so conformal and shifted assemblies share one code path."""
    elem = build_reference_element(order)
    fractions = 0.5 * (elem.edge_q + 1.0)
    records = []
    for edge in mesh.boundary_edges:
        owner = int(mesh.edge_elems[edge, 0])
        a, b, length, nbar = _edge_frame(mesh, edge, owner)
        xbar = a + fractions[:, None] * (b - a)
        n = np.repeat(nbar[None, :], xbar.shape[0], axis=0)
        seg = (
            geometry.segment(xbar)
            if geometry is not None
            else np.zeros(xbar.shape[0], dtype=np.int64)
        )
        rs = mesh.to_reference(owner, xbar)
        records.append(
            EdgeRecords(
                edge=int(edge),
                elem=owner,
                length=length,
                nbar=nbar,
                w=0.5 * length * elem.edge_w,
                xbar=xbar,
                x=xbar.copy(),
                d=np.zeros_like(xbar),
                n=n,
                t=np.column_stack([-n[:, 1], n[:, 0]]),
                rs_bar=rs,
                rs_map=rs.copy(),
                segment=seg,
            )
        )
    return SurrogateDomain(
        mesh=mesh,
        geometry=geometry,
        mode="conformal",
        mapping_kind="identity",
        order=order,
        active=np.arange(mesh.n_elements),
        records=records,
    )
