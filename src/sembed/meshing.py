"""Affine triangular meshes: built-in generators, connectivity.

The built-in generators exist so no external mesher is needed; a mesh from
elsewhere enters as `TriMesh(vertices, elements)`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay


@dataclass
class TriMesh:
    """Conforming triangulation with edge connectivity and affine maps.

    `elements` rows are counterclockwise. Edge k joins vertices
    `edges[k]`; `edge_elems[k]` holds the one or two adjacent element
    indices (second slot is -1 on the boundary).
    """

    vertices: np.ndarray
    elements: np.ndarray
    edges: np.ndarray = field(init=False)
    edge_elems: np.ndarray = field(init=False)
    elem_edges: np.ndarray = field(init=False)
    boundary_edges: np.ndarray = field(init=False)
    # affine data: x = B r + c maps reference -> physical
    affine_b: np.ndarray = field(init=False)
    affine_c: np.ndarray = field(init=False)
    affine_b_inv: np.ndarray = field(init=False)
    jacobian: np.ndarray = field(init=False)
    h_elem: np.ndarray = field(init=False)

    def __post_init__(self):
        # copies: the mesh neither writes into nor follows its caller's arrays
        self.vertices = np.array(self.vertices, dtype=float)
        elements = np.asarray(self.elements)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (N, 2)")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must be finite")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise ValueError("elements must be (N, 3)")
        if not np.issubdtype(elements.dtype, np.integer):
            raise ValueError("elements must hold integer vertex ids")
        self.elements = np.array(elements, dtype=np.int64)
        n_v = self.vertices.shape[0]
        if ((self.elements < 0) | (self.elements >= n_v)).any():
            raise ValueError(f"vertex ids must lie in [0, {n_v})")
        self._orient_ccw()
        self._build_edges()
        self._build_affine()

    def _orient_ccw(self):
        p = self.vertices[self.elements]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(np.abs(cross) < 1e-14 * np.max(np.abs(p))):
            raise ValueError("degenerate (zero-area) element present")
        flip = cross < 0
        self.elements[flip] = self.elements[flip][:, [0, 2, 1]]

    def _build_edges(self):
        e = self.elements
        # local edge m of an element joins local vertices m and (m+1)%3
        raw = np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
        key = np.sort(raw, axis=1)
        # lo * n_v + hi orders the pairs as their rows sort, so a 1-D unique
        # gives what np.unique(key, axis=0) does, without comparing rows
        n_v = self.vertices.shape[0]
        code, inv = np.unique(key[:, 0] * n_v + key[:, 1], return_inverse=True)
        self.edges = np.stack(np.divmod(code, n_v), axis=1)
        n_elm = e.shape[0]
        self.elem_edges = inv.reshape(3, n_elm).T.copy()
        self.edge_elems = np.full((code.size, 2), -1, dtype=np.int64)
        # visiting the sides local edge by local edge, an edge's first visit
        # fills slot 0 and its second slot 1
        visits = self.elem_edges.T.ravel()
        order = np.argsort(visits, kind="stable")
        slot = np.arange(visits.size) - np.searchsorted(visits[order], visits[order])
        if slot.max() > 1:
            k = visits[order[slot > 1].min()]
            raise ValueError(f"edge {k} shared by more than two elements")
        self.edge_elems[visits[order], slot] = order % n_elm
        self.boundary_edges = np.flatnonzero(self.edge_elems[:, 1] < 0)

    def _build_affine(self):
        p = self.vertices[self.elements]
        v0, v1, v2 = p[:, 0], p[:, 1], p[:, 2]
        # reference vertices (-1,-1), (1,-1), (-1,1)
        b = np.empty((p.shape[0], 2, 2))
        b[:, :, 0] = (v1 - v0) / 2.0
        b[:, :, 1] = (v2 - v0) / 2.0
        self.affine_b = b
        self.affine_c = (v1 + v2) / 2.0
        self.jacobian = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
        self.affine_b_inv = np.empty_like(b)
        self.affine_b_inv[:, 0, 0] = b[:, 1, 1] / self.jacobian
        self.affine_b_inv[:, 0, 1] = -b[:, 0, 1] / self.jacobian
        self.affine_b_inv[:, 1, 0] = -b[:, 1, 0] / self.jacobian
        self.affine_b_inv[:, 1, 1] = b[:, 0, 0] / self.jacobian
        lengths = np.linalg.norm(
            np.stack([v1 - v0, v2 - v1, v0 - v2], axis=1), axis=2
        )
        self.h_elem = lengths.max(axis=1)

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.linalg.norm(d, axis=1)

    @property
    def h_min(self) -> float:
        return float(self.edge_lengths.min())

    @property
    def h_max(self) -> float:
        return float(self.edge_lengths.max())

    @property
    def h_avg(self) -> float:
        return float(self.edge_lengths.mean())

    def to_reference(self, elem, x: np.ndarray) -> np.ndarray:
        """Physical points (n, 2) -> reference coordinates for element
        `elem`, or (len(elem), n, 2) for an array of element indices (x may
        then hold one (n, 2) block per element)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        b_inv = np.swapaxes(self.affine_b_inv[elem], -1, -2)
        return (x - self.affine_c[elem][..., None, :]) @ b_inv

    def to_physical(self, elem, rs: np.ndarray) -> np.ndarray:
        """Reference points (n, 2) -> physical points (n, 2) in element
        `elem`, or (len(elem), n, 2) for an array of element indices."""
        rs = np.atleast_2d(np.asarray(rs, dtype=float))
        b = np.swapaxes(self.affine_b[elem], -1, -2)
        return rs @ b + self.affine_c[elem][..., None, :]


def _delaunay_triangles(points, keep_centroid=None) -> np.ndarray:
    tri = Delaunay(points)
    simplices = tri.simplices
    p = points[simplices]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    lengths = np.stack(
        [
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ]
    ).max(axis=0)
    # drop slivers produced by nearly-collinear boundary points
    good = area > 0.05 * lengths**2
    if keep_centroid is not None:
        cent = p.mean(axis=1)
        good &= keep_centroid(cent)
    return simplices[good]


def generate_structured_square(
    lc: float, lx: float = 1.0, ly: float = 1.0
) -> TriMesh:
    """Quasi-uniform triangulation of [0, lx] x [0, ly].

    Vertex rows are offset by half a spacing so the Delaunay triangles come
    out near-equilateral, as a frontal mesher would produce.
    """
    if lc <= 0 or lx <= 0 or ly <= 0:
        raise ValueError("lc and box dimensions must be positive")
    nx = max(1, round(lx / lc))
    ny = max(1, round(ly / (lc * np.sqrt(3.0) / 2.0)))
    dx = lx / nx
    ys = np.linspace(0.0, ly, ny + 1)
    pts = []
    for j, y in enumerate(ys):
        if 0 < j < ny and j % 2 == 1:
            xs = np.concatenate(([0.0], dx / 2.0 + dx * np.arange(nx), [lx]))
        else:
            xs = np.linspace(0.0, lx, nx + 1)
        pts.extend((x, y) for x in xs)
    pts = np.array(pts)
    return TriMesh(pts, _delaunay_triangles(pts))


def generate_structured_disk(
    lc: float,
    radius: float = 1.0,
    center: tuple[float, float] = (0.0, 0.0),
) -> TriMesh:
    """Quasi-uniform disk triangulation; boundary vertices land on the circle
    to round-off and never outside it: radius - |x - center| >= 0 holds
    exactly (snapping contract for conformal fixtures)."""
    if lc <= 0 or radius <= 0:
        raise ValueError("lc and radius must be positive")
    cx, cy = center
    n_rings = max(1, round(radius / lc))
    dr = radius / n_rings
    pts = [(cx, cy)]
    for k in range(1, n_rings + 1):
        r = k * dr
        n_theta = max(6, round(2.0 * np.pi * r / lc))
        offset = (np.pi / n_theta) * (k % 2)
        theta = offset + 2.0 * np.pi * np.arange(n_theta) / n_theta
        pts.extend(zip(cx + r * np.cos(theta), cy + r * np.sin(theta)))
    pts = np.array(pts)
    # snap the outer ring exactly onto the circle
    rad = np.linalg.norm(pts - (cx, cy), axis=1)
    outer = rad > radius - 0.5 * dr
    pts[outer] = (
        np.array(center)
        + (pts[outer] - (cx, cy)) * (radius / rad[outer])[:, None]
    )

    def inside(cent):
        return np.linalg.norm(cent - (cx, cy), axis=1) < radius

    tris = _delaunay_triangles(pts, keep_centroid=inside)
    # then step each vertex that rounded outside toward the centre, one ulp
    # per coordinate at a time, until it is on or inside the circle; the
    # triangulation is the one of the snapped points
    while (out := np.linalg.norm(pts - (cx, cy), axis=1) > radius).any():
        pts[out] = np.nextafter(pts[out], center)
    return TriMesh(pts, tris)
