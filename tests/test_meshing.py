"""Mesh container, its input checks, structured generators."""

import numpy as np
import pytest

from sembed.meshing import (
    TriMesh,
    generate_structured_disk,
    generate_structured_square,
)


def test_orientation_forced_ccw():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(v, np.array([[0, 2, 1]]))  # clockwise input
    a, b, c = mesh.vertices[mesh.elements[0]]
    e1, e2 = b - a, c - a
    assert e1[0] * e2[1] - e1[1] * e2[0] > 0


def test_mesh_keeps_its_own_copy_of_the_input_arrays():
    # an int64 clockwise input is flipped in the mesh's copy, not the
    # caller's array, and a later edit of the caller's vertices does not
    # reach the mesh (whose affine data were computed from the old ones)
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    e = np.array([[0, 2, 1]], dtype=np.int64)
    mesh = TriMesh(v, e)
    assert e.tolist() == [[0, 2, 1]]
    assert mesh.elements.tolist() == [[0, 1, 2]]
    assert not np.shares_memory(mesh.elements, e)
    assert not np.shares_memory(mesh.vertices, v)
    v[1, 0] = 5.0
    assert mesh.vertices[1, 0] == 1.0
    assert mesh.jacobian[0] == 0.25


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


def _relabelled_disk():
    # rows shuffled and vertex ids permuted, as a mesh numbered by another
    # mesher would arrive
    mesh = generate_structured_disk(0.05, 1.0)
    rng = np.random.default_rng(5)
    rows = rng.permutation(mesh.n_elements)
    perm = rng.permutation(mesh.vertices.shape[0])
    relabel = np.argsort(perm)
    return TriMesh(mesh.vertices[perm], relabel[mesh.elements[rows]])


@pytest.mark.parametrize("make_mesh", [
    lambda: generate_structured_disk(0.0125, 1.0),
    lambda: generate_structured_square(0.05, 2.0, 1.0),
    _relabelled_disk,
], ids=["disk", "square", "relabelled"])
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
    mesh = generate_structured_square(0.15, 2.0, 1.0)
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    assert np.array_equal(lo, [0.0, 0.0])
    assert np.allclose(hi, [2.0, 1.0], atol=1e-12)


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


@pytest.mark.parametrize("vertices, elements, match", [
    ([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]], [[0, 1, 2]], "finite"),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, np.inf]], [[0, 1, 2]], "finite"),
    (SQUARE, [[0.0, 1.0, 2.7]], "integer"),
    (SQUARE, [[0, 1, -1]], r"\[0, 4\)"),
    (SQUARE, [[0, 1, 4]], r"\[0, 4\)"),
], ids=["nan", "inf", "float-ids", "negative-id", "id-past-end"])
def test_malformed_arrays_rejected(vertices, elements, match):
    # -1 would wrap to the last vertex, 2.7 truncate to 2, and 4 index past
    # the end: TriMesh is where a mesh from outside enters
    with pytest.raises(ValueError, match=match):
        TriMesh(vertices, elements)


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
