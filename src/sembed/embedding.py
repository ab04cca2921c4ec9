"""Surrogate domain construction for unfitted meshes.

Given a background mesh and an implicit geometry, classify elements by the
level-set sign at their vertices, extract the surrogate boundary, and build
per-quadrature-point mapping records (x_bar on the surrogate edge, the mapped
point x on the true boundary, the distance vector d, and both normal frames).
A domain also numbers its DOFs and tabulates its boundary traces; domains
built together share what they have in common (`SharedTables`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
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
    """Mapping records of the surrogate boundary edges, one per edge in
    ascending edge order, every field stacked with the record on axis 0.
    `records[i]` is record i (axis 0 dropped) and `records[sel]` the
    sub-table of the records `sel`."""

    edge: np.ndarray  # (n_rec,) surrogate edge
    elem: np.ndarray  # (n_rec,) owning element
    length: np.ndarray  # (n_rec,)
    nbar: np.ndarray  # (n_rec, 2) outward surrogate normal, constant on the edge
    w: np.ndarray  # (n_rec, nq) arc-length quadrature weights, sum = length
    xbar: np.ndarray  # (n_rec, nq, 2) quadrature points on the edge
    x: np.ndarray  # (n_rec, nq, 2) mapped points on the true boundary
    d: np.ndarray  # x - xbar
    n: np.ndarray  # true outward normal at x
    rs_bar: np.ndarray  # reference image of xbar in the owning element
    rs_map: np.ndarray  # reference image of x in the owning element
    segment: np.ndarray  # (n_rec, nq) boundary segment ids at x

    def __len__(self):
        return len(self.edge)

    def __getitem__(self, sel):
        return EdgeRecords(*(getattr(self, f.name)[sel] for f in fields(self)))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True)
class BoundaryTraces:
    """Owner-element basis traces at every record's quadrature points,
    shaped (n_rec, nq, n_p): records, their quadrature points, the owner's
    nodal basis functions."""

    vbar: np.ndarray  # basis values at x_bar
    vmap: np.ndarray  # basis values at the mapped x
    gbarn: np.ndarray  # grad(basis) . nbar at x_bar
    gmapn: np.ndarray  # grad(basis) . n at the mapped x


def _traces_at(domain: SurrogateDomain, rs, normal):
    """Basis values and normal derivatives (n_rec, nq, n_p) of the owners of
    the domain's records at their reference points rs (n_rec, nq, 2), with
    normals (n_rec * nq, 2), from one tabulation."""
    elem = build_reference_element(domain.order)
    n_rec, nq = rs.shape[:2]
    binv = np.repeat(domain.mesh.affine_b_inv[domain.records.elem], nq, axis=0)
    rs = rs.reshape(-1, 2)
    v, gr, gs = elem.eval_basis_grad(rs[:, 0], rs[:, 1])
    gx = gr * binv[:, 0, 0:1] + gs * binv[:, 1, 0:1]
    gy = gr * binv[:, 0, 1:2] + gs * binv[:, 1, 1:2]
    gn = gx * normal[:, 0:1] + gy * normal[:, 1:2]
    return v.reshape(n_rec, nq, -1), gn.reshape(n_rec, nq, -1)


def build_dof_map(domain: SurrogateDomain):
    """C0 global numbering from mesh topology.

    An element-local node is keyed by the (vertex id, lattice weight) pairs
    of its element's vertices with nonzero weight, sorted by vertex id, so
    elements sharing a vertex or an edge share the nodes on it. DOFs are
    numbered in order of first appearance (active elements in order, nodes
    in node order) and placed at their first appearance's point.
    """
    elem = build_reference_element(domain.order)
    verts = domain.mesh.elements[domain.active][:, None, :]
    weights = elem.lattice
    # one integer per pair, ordered as the vertex ids; 0 for a zero weight
    pairs = np.where(weights > 0, (verts + 1) * (domain.order + 1) + weights, 0)
    keys = np.sort(pairs, axis=2).reshape(-1, 3)
    # a stable sort puts each key's first appearance at the head of its run
    order = np.lexsort(keys.T)
    run = np.r_[True, (np.diff(keys[order], axis=0) != 0).any(axis=1)]
    head = np.empty_like(order)
    head[order] = order[run][np.cumsum(run) - 1]
    is_head = head == np.arange(head.size)
    loc2glob = (np.cumsum(is_head) - 1)[head].reshape(pairs.shape[:2])
    points = domain.mesh.to_physical(domain.active, np.column_stack([elem.r, elem.s]))
    return loc2glob, points.reshape(-1, 2)[is_head]


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class SharedTables:
    """What the domains of one (mode, order) built together have in common:
    the DOF numbering and the x_bar half (vbar, gbarn) of the trace table.
    Each is computed on first use, from whichever domain asks first, and is
    read-only, as every domain holding it reads the same arrays."""

    def __init__(self):
        self._dof_map = self._bar_traces = None

    def dof_map(self, domain: SurrogateDomain):
        if self._dof_map is None:
            self._dof_map = _read_only(*build_dof_map(domain))
        return self._dof_map

    def bar_traces(self, domain: SurrogateDomain):
        if self._bar_traces is None:
            records = domain.records
            nbar = np.repeat(records.nbar, records.w.shape[1], axis=0)
            self._bar_traces = _read_only(*_traces_at(domain, records.rs_bar, nbar))
        return self._bar_traces


@dataclass(frozen=True)
class SurrogateDomain:
    mesh: TriMesh
    geometry: ImplicitGeometry | None
    mode: str  # extrapolation | interpolation | conformal
    mapping_kind: str
    order: int
    active: np.ndarray  # active element indices
    records: EdgeRecords
    # not an __init__ field, so dataclasses.replace starts a fresh one;
    # build_surrogates hands one to all domains of a (mode, order)
    shared: SharedTables = field(default_factory=SharedTables, init=False,
                                 repr=False, compare=False)

    @property
    def n_active(self) -> int:
        return self.active.size

    @property
    def dof_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(loc2glob, dof_coords) of `build_dof_map`, shared as `shared`
        is."""
        return self.shared.dof_map(self)

    @cached_property
    def traces(self) -> BoundaryTraces:
        """Basis traces of all records, evaluated on first use and kept for
        the life of the domain (the records must not change after that). The
        x_bar half comes from `shared`."""
        vbar, gbarn = self.shared.bar_traces(self)
        vmap, gmapn = _traces_at(self, self.records.rs_map,
                                 self.records.n.reshape(-1, 2))
        return BoundaryTraces(vbar=vbar, vmap=vmap, gbarn=gbarn, gmapn=gmapn)

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
    in edge order. Returns the arrays (edge indices, owning elements)."""
    e0, e1 = mesh.edge_elems.T
    k0 = keep_elem[e0]
    edges = np.flatnonzero(k0 != ((e1 >= 0) & keep_elem[e1]))
    return edges, np.where(k0, e0, e1)[edges]


def _edge_records(mesh: TriMesh, geometry, mapping_kind, edges, owners,
                  order: int, crossings=None) -> EdgeRecords:
    """The record table of the surrogate edges `edges` owned by `owners`,
    in that order. Every field is computed once over all edges. The
    'identity' mapping keeps x = x_bar and n = n_bar; the in-element mapping
    takes `crossings`, the owners' `_boundary_crossings`."""
    ref = build_reference_element(order)
    fractions = 0.5 * (ref.edge_q + 1.0)
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    v = b - a
    length = np.linalg.norm(v, axis=1)
    nbar = np.column_stack([v[:, 1], -v[:, 0]]) / length[:, None]
    centroid = mesh.vertices[mesh.elements[owners]].mean(axis=1)
    inward = np.einsum("ij,ij->i", nbar, 0.5 * (a + b) - centroid) < 0
    nbar[inward] = -nbar[inward]
    xbar = a[:, None, :] + fractions[:, None] * v[:, None, :]
    flat = xbar.reshape(-1, 2)
    if mapping_kind == "identity":
        x = xbar.copy()
        n = np.repeat(nbar[:, None], fractions.size, axis=1)
    else:
        x = geometry.project(flat).reshape(xbar.shape)
        if mapping_kind == "in_element_equidistant":
            _map_in_element(mesh, geometry, edges, owners, v, fractions, x,
                            crossings)
        flat = x.reshape(-1, 2)
        n = geometry.normal(flat).reshape(x.shape)
    segment = (
        geometry.segment(flat).reshape(x.shape[:2])
        if geometry is not None
        else np.zeros(x.shape[:2], dtype=np.int64)
    )
    return EdgeRecords(
        edges, owners, length, nbar, 0.5 * length[:, None] * ref.edge_w, xbar, x,
        x - xbar, n, mesh.to_reference(owners, xbar),
        mesh.to_reference(owners, x), segment,
    )


def _boundary_crossings(mesh: TriMesh, geometry, elems):
    """Roots of phi along the three sides of each element in `elems`, found
    by one bisection over all sides at once. Returns the first two distinct
    roots per element, (len(elems), 2, 2), and the mask of elements with
    exactly two."""
    h_max = mesh.h_max
    tol = 1e-12 * h_max
    verts = mesh.vertices[mesh.elements[elems]]
    pa = verts.reshape(-1, 2)
    pb = np.roll(verts, -1, axis=1).reshape(-1, 2)
    fa = geometry.phi(pa)
    fb = np.roll(fa.reshape(-1, 3), -1, axis=1).ravel()
    crossed = fa * fb <= 0
    lo, hi, flo = np.zeros(fa.size), np.ones(fa.size), fa.copy()
    live = np.flatnonzero(crossed)
    for _ in range(200):
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        fm = geometry.phi(pa[live] + mid[:, None] * (pb[live] - pa[live]))
        done = np.abs(fm) < tol
        left = ~done & (flo[live] * fm <= 0)
        right = ~done & ~left
        lo[live[done]] = hi[live[done]] = mid[done]
        hi[live[left]] = mid[left]
        lo[live[right]], flo[live[right]] = mid[right], fm[right]
        live = live[~done]
    roots = (pa + (0.5 * (lo + hi))[:, None] * (pb - pa)).reshape(-1, 3, 2)
    # merge duplicates from a root sitting on a shared vertex, keeping the
    # first of each in side order
    gap = np.linalg.norm(roots[:, :, None] - roots[:, None, :], axis=-1)
    near = gap <= 1e-9 * h_max
    keep = crossed.reshape(-1, 3).copy()
    keep[:, 1] &= ~(keep[:, 0] & near[:, 1, 0])
    keep[:, 2] &= ~(keep[:, 0] & near[:, 2, 0]) & ~(keep[:, 1] & near[:, 2, 1])
    first = np.argsort(~keep, axis=1, kind="stable")[:, :2]
    pairs = np.take_along_axis(roots, first[:, :, None], axis=1)
    return pairs, keep.sum(axis=1) == 2


def _arc_points(geometry, p0, p1, fractions):
    """Equal chord-length points (m, nf, 2) on the boundary between each
    p0 (m, 2) and p1 (m, 2), for geometries without an exact arc
    parametrization."""
    lin = p0[:, None] + np.linspace(0.0, 1.0, 65)[:, None] * (p1 - p0)[:, None]
    samples = geometry.project(lin.reshape(-1, 2)).reshape(lin.shape)
    samples[:, 0], samples[:, -1] = p0, p1
    seg = np.linalg.norm(np.diff(samples, axis=1), axis=2)
    arc = np.concatenate([np.zeros((seg.shape[0], 1)), np.cumsum(seg, axis=1)], axis=1)
    want = fractions * arc[:, -1:]
    # searchsorted per row: the first sample at or past each target
    j = np.clip((arc[:, None, :] < want[:, :, None]).sum(axis=2), 1, arc.shape[1] - 1)
    a0, a1 = np.take_along_axis(arc, j - 1, axis=1), np.take_along_axis(arc, j, axis=1)
    s0 = np.take_along_axis(samples, (j - 1)[:, :, None], axis=1)
    s1 = np.take_along_axis(samples, j[:, :, None], axis=1)
    f = (want - a0) / np.maximum(a1 - a0, 1e-300)
    out = s0 + f[:, :, None] * (s1 - s0)
    no_arc = arc[:, -1] <= 0
    out[no_arc] = p0[no_arc, None]
    return out


def _map_in_element(mesh, geometry, edges, owners, v, fractions, x, crossings):
    """Overwrite x, in place, with points spread evenly over the boundary
    arc that cuts each record's owner at exactly two points, oriented like
    the edge vector v; `crossings` are the owners' `_boundary_crossings`.
    Records whose owner is not cut that way keep their closest-point x, and
    each logs a warning."""
    pairs, two = crossings
    p0, p1 = pairs[:, 0], pairs[:, 1]
    swap = np.einsum("ij,ij->i", p1 - p0, v) < 0
    p0, p1 = np.where(swap[:, None], p1, p0), np.where(swap[:, None], p0, p1)
    todo = np.flatnonzero(two)
    if isinstance(geometry, Circle):
        cut = owners[todo]

        def in_owner(mid):
            rs = mesh.to_reference(cut, mid[:, None])
            return barycentric(rs.reshape(-1, 2)).min(axis=1) >= -1e-6

        arc, found = geometry.arc_param(p0[todo], p1[todo], fractions, in_owner)
        x[todo[found]] = arc[found]
        todo = todo[~found]
    x[todo] = _arc_points(geometry, p0[todo], p1[todo], fractions)
    for edge, owner in zip(edges[~two].tolist(), owners[~two].tolist()):
        log.warning(
            "edge %d: no boundary arc in element %d, "
            "falling back to closest-point mapping",
            edge,
            owner,
        )


def build_surrogates(mesh: TriMesh, geometry: ImplicitGeometry,
                     variants) -> list[SurrogateDomain]:
    """One surrogate domain per (mode, mapping_kind, order) of `variants`,
    in variant order, each bitwise equal to the one a call with that
    variant alone builds.

    The mesh classification is computed once; each mode's active set,
    connectivity check and surrogate edges once; and its in-element crossing
    search once, for every order. The conformal mode keeps every element,
    with neither classification nor connectivity check, so its surrogate
    edges are the mesh hull; `geometry` may be None when every variant is
    conformal. Domains of one (mode, order) share their DOF numbering and
    x_bar traces (`SurrogateDomain.shared`). Variants are checked and built
    in order, so the first that fails raises, after the warnings of those
    before it.
    """
    labels = None
    per_mode = {}  # mode -> (active, surrogate edges, owners)
    crossings = {}  # mode -> _boundary_crossings of its owners
    shared = {}  # (mode, order) -> SharedTables
    domains = []
    for mode, mapping_kind, order in variants:
        if mode not in ("extrapolation", "interpolation", "conformal"):
            raise ValueError(f"unknown mode {mode!r}")
        if mapping_kind not in ("closest_point", "in_element_equidistant", "identity"):
            raise ValueError(f"unknown mapping_kind {mapping_kind!r}")
        if mapping_kind == "in_element_equidistant" and mode != "interpolation":
            raise ValueError("in-element mapping requires interpolation mode")
        if mode == "conformal" and mapping_kind != "identity":
            raise ValueError("conformal mode takes only the identity mapping")

        if mode not in per_mode:
            if mode == "conformal":
                keep = np.ones(mesh.n_elements, dtype=bool)
            else:
                if labels is None:
                    labels = classify_elements(mesh, geometry)
                keep = labels == INSIDE if mode == "extrapolation" else labels != OUTSIDE
            active = np.flatnonzero(keep)
            if mode != "conformal":
                _check_connected(mesh, active)
            per_mode[mode] = (active, *_surrogate_edges(mesh, keep))
        active, edges, owners = per_mode[mode]
        if mapping_kind == "in_element_equidistant" and mode not in crossings:
            crossings[mode] = _boundary_crossings(mesh, geometry, owners)

        records = _edge_records(mesh, geometry, mapping_kind, edges, owners,
                                order, crossings.get(mode))
        domain = SurrogateDomain(
            mesh=mesh,
            geometry=geometry,
            mode=mode,
            mapping_kind=mapping_kind,
            order=order,
            active=active,
            records=records,
        )
        object.__setattr__(domain, "shared",
                           shared.setdefault((mode, order), domain.shared))
        domains.append(domain)
    return domains


def build_surrogate(
    mesh: TriMesh,
    geometry: ImplicitGeometry,
    mode: str = "extrapolation",
    mapping_kind: str = "closest_point",
    order: int = 1,
) -> SurrogateDomain:
    """Active set + surrogate boundary + mapping records: `build_surrogates`
    with one variant.

    mode 'extrapolation' keeps fully-inside elements (SBM-e); 'interpolation'
    keeps inside and cut elements (SBM-ei / SBM-i); 'conformal' keeps every
    element (CBM). mapping_kind 'closest_point' projects along the true
    normal; 'in_element_equidistant' (interpolation mode only) spreads the
    points over the boundary arc cut out by the owning element; 'identity'
    (the only one of conformal mode) keeps x = x_bar and n = n_bar.
    """
    return build_surrogates(mesh, geometry, [(mode, mapping_kind, order)])[0]


def conformal_surrogate(
    mesh: TriMesh,
    geometry: ImplicitGeometry | None = None,
    order: int = 1,
) -> SurrogateDomain:
    """Body-fitted path: `build_surrogates` with the one variant
    ('conformal', 'identity', order). Every element is active, the surrogate
    boundary is the mesh hull, and the mapping degenerates (x = x_bar,
    d = 0, n = n_bar), so conformal and shifted assemblies share one code
    path."""
    return build_surrogates(mesh, geometry, [("conformal", "identity", order)])[0]
