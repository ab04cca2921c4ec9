"""Affine triangular meshes: Gmsh I/O, built-in generators, connectivity.

Only the ASCII MSH subset actually needed is supported: v2.2 and v4.1 files
with 2-node lines and 3-node triangles. The built-in generators exist so the
test suite needs no external mesher.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay


class MeshParseError(ValueError):
    """Malformed or unsupported mesh file; message carries the line number."""


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
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.elements = np.asarray(self.elements, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (N, 2)")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise ValueError("elements must be (N, 3)")
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
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

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


def _lines(stream):
    # undecodable bytes (a binary MSH body) become U+FFFD, so the parser
    # reports them instead of the decoder
    if isinstance(stream, os.PathLike):
        stream = os.fspath(stream)
    if isinstance(stream, (str, bytes)):
        with open(stream, encoding="utf-8", errors="replace") as f:
            return f.read().splitlines()
    if isinstance(stream, io.IOBase):
        data = stream.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8", errors="replace")
        return data.splitlines()
    raise TypeError("expected path or stream")


def read_gmsh(path_or_stream) -> TriMesh:
    """Parse an ASCII MSH v2.2 or v4.1 file; keep triangles and drop lines.

    Any truncated or malformed input raises MeshParseError, naming the line
    where the fault is known.
    """
    lines = _lines(path_or_stream)
    if not lines or lines[0].strip() != "$MeshFormat":
        raise MeshParseError("line 1: expected $MeshFormat header")
    fmt = lines[1].split() if len(lines) > 1 else []
    if len(fmt) < 3:
        raise MeshParseError("line 2: malformed format record")
    version, ftype = fmt[0], fmt[1]
    if ftype != "0":
        raise MeshParseError("line 2: binary MSH files are not supported")
    if version.startswith("2"):
        return _read_v2(lines)
    if version.startswith("4"):
        return _read_v4(lines)
    raise MeshParseError(f"line 2: unsupported MSH version {version}")


def _section(lines, name):
    try:
        start = lines.index(f"${name}")
    except ValueError:
        raise MeshParseError(f"missing ${name} section") from None
    try:
        end = lines.index(f"$End{name}", start)
    except ValueError:
        raise MeshParseError(
            f"line {start + 1}: ${name} section is not closed"
        ) from None
    return start, end


class _Section:
    """Reads the records of one $Name ... $EndName section in order; every
    error names the line of the record being read."""

    def __init__(self, lines, name):
        self.lines = lines
        self.name = name
        self.pos, self.end = _section(lines, name)

    def error(self, message):
        return MeshParseError(f"line {self.pos + 1}: {message}")

    def record(self, what, n_min=1, n_max=None):
        """The tokens of the next line, which must be a `what` of
        n_min..n_max tokens inside the section."""
        self.pos += 1
        if self.pos >= self.end:
            raise self.error(f"${self.name} section ends before the {what}")
        parts = self.lines[self.pos].split()
        if len(parts) < n_min or (n_max is not None and len(parts) > n_max):
            raise self.error(f"malformed {what}")
        return parts

    def int(self, token, what, minimum=None):
        try:
            value = int(token)
        except ValueError:
            raise self.error(f"{what} {token!r} is not an integer") from None
        if minimum is not None and value < minimum:
            raise self.error(f"{what} {value} is below {minimum}")
        return value

    def point(self, tokens):
        try:
            x, y = float(tokens[0]), float(tokens[1])
        except ValueError:
            raise self.error("coordinate is not a number") from None
        if not (np.isfinite(x) and np.isfinite(y)):
            raise self.error("coordinate is not finite")
        return x, y

    def triangle(self, tokens, coords):
        tri = [self.int(t, "node tag") for t in tokens]
        for tag in tri:
            if tag not in coords:
                raise self.error(f"triangle refers to unknown node {tag}")
        return tri


def _read_v2(lines):
    nodes = _Section(lines, "Nodes")
    n_nodes = nodes.int(nodes.record("node count", 1, 1)[0], "node count", 0)
    coords = {}
    for _ in range(n_nodes):
        parts = nodes.record("node record", 4)
        coords[nodes.int(parts[0], "node tag")] = nodes.point(parts[1:3])

    elems = _Section(lines, "Elements")
    n_elems = elems.int(elems.record("element count", 1, 1)[0], "element count", 0)
    tris = []
    for _ in range(n_elems):
        parts = elems.record("element record", 3)
        etype = elems.int(parts[1], "element type")
        n_tags = elems.int(parts[2], "tag count", 0)
        conn = parts[3 + n_tags :]
        if etype == 2:
            if len(conn) != 3:
                raise elems.error("triangle needs 3 nodes")
            tris.append(elems.triangle(conn, coords))
        elif etype not in (1, 15):  # lines and points are ignored
            raise elems.error(f"unsupported element type {etype}")
    return _from_tagged(coords, tris)


def _read_v4(lines):
    nodes = _Section(lines, "Nodes")
    n_blocks = nodes.int(nodes.record("node section header")[0], "block count", 0)
    coords = {}
    for _ in range(n_blocks):
        blk = nodes.record("node block header", 4, 4)
        n_in_block = nodes.int(blk[3], "block size", 0)
        tags = [
            nodes.int(nodes.record("node tag", 1, 1)[0], "node tag")
            for _ in range(n_in_block)
        ]
        for tag in tags:
            coords[tag] = nodes.point(nodes.record("node coordinates", 2))

    elems = _Section(lines, "Elements")
    n_blocks = elems.int(
        elems.record("element section header")[0], "block count", 0
    )
    tris = []
    for _ in range(n_blocks):
        blk = elems.record("element block header", 4, 4)
        etype = elems.int(blk[2], "element type")
        n_in_block = elems.int(blk[3], "block size", 0)
        for _ in range(n_in_block):
            parts = elems.record("element record")
            if etype == 2:
                if len(parts) != 4:
                    raise elems.error("triangle needs 3 nodes")
                tris.append(elems.triangle(parts[1:], coords))
            elif etype not in (1, 15):
                raise elems.error(f"unsupported element type {etype}")
    return _from_tagged(coords, tris)


def _from_tagged(coords, tris):
    if not tris:
        raise MeshParseError("no triangles found in file")
    tags = sorted(coords)
    index = {t: i for i, t in enumerate(tags)}
    vertices = np.array([coords[t] for t in tags])
    elements = np.array([[index[a] for a in tri] for tri in tris])
    used = np.zeros(len(tags), dtype=bool)
    used[elements.ravel()] = True
    remap = -np.ones(len(tags), dtype=np.int64)
    remap[used] = np.arange(used.sum())
    try:
        return TriMesh(vertices[used], remap[elements])
    except ValueError as exc:
        raise MeshParseError(f"invalid mesh: {exc}") from None


def write_gmsh(mesh: TriMesh, path) -> None:
    """Serialize as ASCII MSH v2.2 (triangles only)."""
    with open(path, "w") as f:
        f.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        f.write(f"$Nodes\n{mesh.n_vertices}\n")
        for i, (x, y) in enumerate(mesh.vertices, start=1):
            f.write(f"{i} {float(x)!r} {float(y)!r} 0\n")
        f.write("$EndNodes\n")
        f.write(f"$Elements\n{mesh.n_elements}\n")
        for i, (a, b, c) in enumerate(mesh.elements + 1, start=1):
            f.write(f"{i} 2 2 0 0 {a} {b} {c}\n")
        f.write("$EndElements\n")


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
    lc: float,
    lx: float = 1.0,
    ly: float = 1.0,
    origin: tuple[float, float] = (0.0, 0.0),
) -> TriMesh:
    """Quasi-uniform triangulation of [x0, x0+lx] x [y0, y0+ly].

    Vertex rows are offset by half a spacing so the Delaunay triangles come
    out near-equilateral, as a frontal mesher would produce.
    """
    if lc <= 0 or lx <= 0 or ly <= 0:
        raise ValueError("lc and box dimensions must be positive")
    x0, y0 = origin
    nx = max(1, round(lx / lc))
    ny = max(1, round(ly / (lc * np.sqrt(3.0) / 2.0)))
    dx = lx / nx
    ys = np.linspace(y0, y0 + ly, ny + 1)
    pts = []
    for j, y in enumerate(ys):
        if 0 < j < ny and j % 2 == 1:
            xs = np.concatenate(
                ([x0], x0 + dx / 2.0 + dx * np.arange(nx), [x0 + lx])
            )
        else:
            xs = np.linspace(x0, x0 + lx, nx + 1)
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
