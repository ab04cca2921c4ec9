"""Mesh container, MSH I/O, structured generators."""

import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sembed.meshing import (
    MeshParseError,
    TriMesh,
    generate_structured_disk,
    generate_structured_square,
    read_gmsh,
    write_gmsh,
)


def unit_triangle():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return TriMesh(v, np.array([[0, 1, 2]]))


def test_orientation_forced_ccw():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(v, np.array([[0, 2, 1]]))  # clockwise input
    a, b, c = mesh.vertices[mesh.elements[0]]
    e1, e2 = b - a, c - a
    assert e1[0] * e2[1] - e1[1] * e2[0] > 0


def test_degenerate_element_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        TriMesh(v, np.array([[0, 1, 2]]))


def test_edge_tables_consistent():
    mesh = generate_structured_square(0.3, 1.0, 1.0)
    # every element lists 3 edges; every edge borders 1 or 2 elements
    assert mesh.elem_edges.shape == (mesh.elements.shape[0], 3)
    counts = np.sum(mesh.edge_elems >= 0, axis=1)
    assert set(counts.tolist()) <= {1, 2}
    # boundary edges are exactly the single-element ones
    assert np.array_equal(np.flatnonzero(counts == 1), np.sort(mesh.boundary_edges))


def _edge_elems_by_visit(mesh):
    # The per-side loop the sorted visit order replaced, kept as reference.
    edge_elems = np.full((mesh.edges.shape[0], 2), -1, dtype=np.int64)
    for local in range(3):
        for n, k in enumerate(mesh.elem_edges[:, local]):
            slot = 0 if edge_elems[k, 0] < 0 else 1
            edge_elems[k, slot] = n
    return edge_elems


def test_edge_elems_match_visit_order():
    rng = np.random.default_rng(11)
    for mesh in (generate_structured_disk(0.1, 0.5),
                 generate_structured_square(0.15, 1.0, 1.0)):
        rows = rng.permutation(mesh.n_elements)
        shuffled = TriMesh(mesh.vertices, mesh.elements[rows])
        for m in (mesh, shuffled):
            assert np.array_equal(m.edge_elems, _edge_elems_by_visit(m))


def _edges_by_row_unique(mesh):
    # The row-wise np.unique the integer edge key replaced, kept as reference.
    e = mesh.elements
    raw = np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
    edges, inv = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    return edges, inv.reshape(3, -1).T


def _gmsh_roundtrip_disk():
    mesh = generate_structured_disk(0.05, 1.0)
    rows = np.random.default_rng(5).permutation(mesh.n_elements)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "disk.msh")
        write_gmsh(TriMesh(mesh.vertices, mesh.elements[rows]), path)
        return read_gmsh(path)


@pytest.mark.parametrize("make_mesh", [
    lambda: generate_structured_disk(0.0125, 1.0),
    lambda: generate_structured_square(0.05, 2.0, 1.0),
    lambda: read_gmsh(io.StringIO(V41_TEXT)),
    _gmsh_roundtrip_disk,
], ids=["disk", "square", "gmsh-v4.1", "gmsh-v2.2-shuffled"])
def test_edge_numbering_matches_row_unique(make_mesh):
    mesh = make_mesh()
    edges, elem_edges = _edges_by_row_unique(mesh)
    assert mesh.edges.dtype == edges.dtype
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.elem_edges, elem_edges)
    # elem_edges equal, so the visit loop gives the reference edge_elems
    assert np.array_equal(mesh.edge_elems, _edge_elems_by_visit(mesh))


def test_edge_shared_by_three_elements_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [2.0, 0.5]])
    with pytest.raises(ValueError, match="edge 0 shared by more than two"):
        TriMesh(v, np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]]))


def test_euler_characteristic_disk_topology():
    for mesh in (generate_structured_square(0.21, 1.0, 1.0),
                 generate_structured_disk(0.2, 0.5)):
        v = mesh.vertices.shape[0]
        e = mesh.edges.shape[0]
        f = mesh.elements.shape[0]
        assert v - e + f == 1  # simply connected surface with boundary


def test_affine_roundtrip():
    mesh = generate_structured_square(0.3, 1.0, 1.0)
    rng = np.random.default_rng(0)
    rs = rng.uniform(-1.0, -0.1, size=(4, 2))
    for k in range(mesh.elements.shape[0]):
        xy = mesh.to_physical(k, rs)
        back = mesh.to_reference(k, xy)
        assert np.allclose(back, rs, atol=1e-12)


def test_h_stats_ordering():
    mesh = generate_structured_disk(0.1, 0.5)
    assert mesh.h_min <= mesh.h_avg <= mesh.h_max
    assert mesh.h_min > 0


def test_disk_boundary_vertices_on_circle():
    radius = 0.375
    mesh = generate_structured_disk(0.1, radius, center=(0.5, 0.5))
    bnd = np.unique(mesh.edges[mesh.boundary_edges])
    r = np.hypot(*(mesh.vertices[bnd] - np.array([0.5, 0.5])).T)
    assert np.abs(r - radius).max() < 1e-12


@pytest.mark.parametrize("lc", [0.3, 0.25, 0.2, 0.1, 0.05])
@pytest.mark.parametrize("radius, center", [(0.375, (0.5, 0.5)), (1.0, (0.0, 0.0))])
def test_disk_vertices_never_outside_the_circle(lc, radius, center):
    # the snapping contract an aligned circle fixture relies on: phi >= 0
    # at every vertex, so no element touching the circle is classified cut
    from sembed.geometry import Circle

    mesh = generate_structured_disk(lc, radius, center)
    assert Circle(center, radius).phi(mesh.vertices).min() >= 0.0


def test_square_covers_requested_box():
    mesh = generate_structured_square(0.15, 2.0, 1.0, origin=(-1.0, 0.5))
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    assert np.allclose(lo, [-1.0, 0.5], atol=1e-12)
    assert np.allclose(hi, [1.0, 1.5], atol=1e-12)


def test_msh_roundtrip(tmp_path):
    mesh = generate_structured_disk(0.2, 0.5)
    path = tmp_path / "disk.msh"
    write_gmsh(mesh, path)
    back = read_gmsh(path)
    assert np.allclose(back.vertices, mesh.vertices)
    # connectivity equal up to the parser's vertex ordering
    assert np.array_equal(np.sort(back.elements, axis=1),
                          np.sort(mesh.elements, axis=1))


def test_msh_v2_minimal(tmp_path):
    text = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0 0 0
2 1 0 0
3 0 1 0
$EndNodes
$Elements
1
1 2 2 0 1 1 2 3
$EndElements
"""
    path = tmp_path / "tri.msh"
    path.write_text(text)
    mesh = read_gmsh(path)
    assert mesh.elements.shape == (1, 3)


def test_msh_parse_error_has_line_number(tmp_path):
    path = tmp_path / "broken.msh"
    path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Nodes\nnope\n")
    with pytest.raises(MeshParseError):
        read_gmsh(path)


def test_unused_vertices_dropped(tmp_path):
    text = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 0 1 0
4 9 9 0
$EndNodes
$Elements
1
1 2 2 0 1 1 2 3
$EndElements
"""
    path = tmp_path / "extra.msh"
    path.write_text(text)
    mesh = read_gmsh(path)
    assert mesh.vertices.shape[0] == 3


def _two_triangles():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return TriMesh(v, np.array([[0, 1, 2], [0, 2, 3]]))


def _v22_text():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "two.msh")
        write_gmsh(_two_triangles(), path)
        with open(path) as fh:
            return fh.read()


# One surface node block, a line block (ignored) and a triangle block.
V41_TEXT = """$MeshFormat
4.1 0 8
$EndMeshFormat
$Nodes
1 4 1 4
2 1 0 4
1
2
3
4
0 0 0
1 0 0
1 1 0
0 1 0
$EndNodes
$Elements
2 3 1 3
1 1 1 1
1 1 2
2 1 2 2
2 1 2 3
3 1 3 4
$EndElements
"""

MSH_TEXTS = {"v2.2": _v22_text(), "v4.1": V41_TEXT}


def _parses_or_rejects(text):
    try:
        mesh = read_gmsh(io.StringIO(text))
    except MeshParseError:
        return
    assert isinstance(mesh, TriMesh)


def test_msh_fixture_texts_parse():
    for text in MSH_TEXTS.values():
        assert read_gmsh(io.StringIO(text)).n_elements == 2


@pytest.mark.parametrize("version", sorted(MSH_TEXTS))
def test_msh_every_prefix_parses_or_raises_parse_error(version):
    text = MSH_TEXTS[version]
    for n in range(len(text) + 1):
        _parses_or_rejects(text[:n])
    # every proper line prefix lacks $EndElements
    lines = text.splitlines(keepends=True)
    for n in range(len(lines)):
        with pytest.raises(MeshParseError):
            read_gmsh(io.StringIO("".join(lines[:n])))


def test_msh_truncated_header_raises_parse_error():
    with pytest.raises(MeshParseError, match="line 2"):
        read_gmsh(io.StringIO("$MeshFormat"))


def test_msh_binary_file_raises_parse_error(tmp_path):
    path = tmp_path / "binary.msh"
    path.write_bytes(b"$MeshFormat\n2.2 1 8\n$EndMeshFormat\n\xff\xfe\x00\x01")
    with pytest.raises(MeshParseError, match="binary"):
        read_gmsh(path)
    with pytest.raises(MeshParseError, match="binary"):
        read_gmsh(io.BytesIO(path.read_bytes()))


@pytest.mark.parametrize("text, line", [
    ("$Nodes\n1\n1 0 0 0\n$EndNodes\n$Elements\nx\n$EndElements\n", 9),
    ("$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
     "$Elements\n1\n1 2 0 1 2 7\n$EndElements\n", 12),
    ("$Nodes\n2\n1 0 0 0\n$EndNodes\n$Elements\n0\n$EndElements\n", 7),
    ("$Nodes\n1\n1 nan 0 0\n$EndNodes\n$Elements\n0\n$EndElements\n", 6),
])
def test_msh_v2_faults_name_their_line(text, line):
    with pytest.raises(MeshParseError, match=f"^line {line}:"):
        read_gmsh(io.StringIO("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n" + text))


def _tokens(text):
    """(line index, token index) of every whitespace-separated token."""
    return [(i, k) for i, ln in enumerate(text.splitlines())
            for k in range(len(ln.split()))]


def _corrupt(text, position, token):
    i, k = position
    lines = text.splitlines()
    parts = lines[i].split()
    parts[k] = token
    lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


# empty, signs, counts too small and too large, floats where integers
# belong, non-finite values, words and misplaced section markers
BAD_TOKENS = ("", "0", "-1", "1", "2", "3", "4", "5", "99999999", "1.5",
              "nan", "inf", "1e308", "x", "$EndNodes", "$EndElements",
              "$Nodes", "2.2", "4.1")


@pytest.mark.parametrize("version", sorted(MSH_TEXTS))
def test_msh_every_token_corruption_parses_or_raises_parse_error(version):
    text = MSH_TEXTS[version]
    for position in _tokens(text):
        for token in BAD_TOKENS:
            _parses_or_rejects(_corrupt(text, position, token))


@settings(max_examples=200, deadline=None)
@given(version=st.sampled_from(sorted(MSH_TEXTS)), data=st.data(),
       token=st.text(max_size=6))
def test_msh_any_text_token_parses_or_raises_parse_error(version, data, token):
    text = MSH_TEXTS[version]
    positions = _tokens(text)
    position = positions[data.draw(st.integers(0, len(positions) - 1))]
    _parses_or_rejects(_corrupt(text, position, token))


def test_to_reference_takes_an_array_of_elements():
    mesh = generate_structured_disk(0.2, 0.5)
    rng = np.random.default_rng(1)
    elems = rng.integers(0, mesh.n_elements, size=7)
    shared = rng.uniform(-1.0, 1.0, size=(4, 2))
    per_elem = rng.uniform(-1.0, 1.0, size=(7, 4, 2))
    for x in (shared, per_elem):
        got = mesh.to_reference(elems, x)
        assert got.shape == (7, 4, 2)
        for k, e in enumerate(elems):
            want = mesh.to_reference(e, x if x.ndim == 2 else x[k])
            np.testing.assert_allclose(got[k], want, rtol=1e-15, atol=1e-15)
