"""Implicit geometries and surrogate-domain construction."""

import logging

import numpy as np
import pytest

from sembed.geometry import Circle, Difference, Rectangle
from sembed.embedding import (
    _check_connected,
    _surrogate_edges,
    build_surrogate,
    classify_elements,
    conformal_surrogate,
)
from sembed.meshing import generate_structured_disk, generate_structured_square

CENTER = (0.5, 0.5)
RADIUS = 0.375


def test_circle_phi_sign_convention():
    geo = Circle(CENTER, RADIUS)
    inside = np.array([[0.5, 0.5], [0.5, 0.7]])
    outside = np.array([[0.95, 0.95], [0.0, 0.0]])
    assert np.all(geo.phi(inside) > 0)
    assert np.all(geo.phi(outside) < 0)


def test_circle_projection_and_normal():
    geo = Circle(CENTER, RADIUS)
    pts = np.array([[0.8, 0.5], [0.5, 0.1], [0.6, 0.6]])
    proj = geo.project(pts)
    assert np.allclose(np.hypot(*(proj - CENTER).T), RADIUS, atol=1e-13)
    n = geo.normal(proj)
    # outward normal is radial
    radial = (proj - CENTER) / RADIUS
    assert np.allclose(n, radial, atol=1e-12)


def test_rectangle_signed_distance():
    geo = Rectangle((0.0, 0.0), (2.0, 1.0))
    assert geo.phi(np.array([[1.0, 0.5]]))[0] == pytest.approx(0.5)
    assert geo.phi(np.array([[1.0, -0.25]]))[0] == pytest.approx(-0.25)
    proj = geo.project(np.array([[1.0, 1.4]]))
    assert np.allclose(proj[0], [1.0, 1.0])


def test_difference_hole_sign():
    geo = Difference(Rectangle((0.0, 0.0), (2.0, 2.0)), Circle((1.0, 1.0), 0.5))
    assert geo.phi(np.array([[1.0, 1.0]]))[0] < 0  # inside the hole
    assert geo.phi(np.array([[0.2, 0.2]]))[0] > 0
    # hole boundary normal points into the hole (outward of the domain)
    p = np.array([[1.5, 1.0]])
    n = geo.normal(p)
    assert np.allclose(n[0], [-1.0, 0.0], atol=1e-12)


def test_difference_segment_ids_disjoint():
    geo = Difference(Rectangle((0.0, 0.0), (2.0, 2.0)), Circle((1.0, 1.0), 0.5))
    outer = geo.segment(np.array([[1.0, 0.0]]))
    inner = geo.segment(np.array([[1.5, 1.0]]))
    assert inner[0] >= Difference.INNER_OFFSET > outer[0]


def test_classification_partitions_mesh():
    mesh = generate_structured_square(0.15, 1.0, 1.0)
    labels = classify_elements(mesh, Circle(CENTER, RADIUS))
    assert set(np.unique(labels)) <= {"inside", "cut", "outside"}
    assert labels.shape == (mesh.elements.shape[0],)


def _domain(mode, mapping, order=3, lc=0.12):
    mesh = generate_structured_square(lc, 1.0, 1.0)
    return build_surrogate(mesh, Circle(CENTER, RADIUS), mode, mapping, order)


def test_surrogate_closed_loop_divergence():
    # sum of w * nbar over a closed surrogate boundary integrates the
    # divergence of a constant field: must vanish
    for mode, mapping in (("extrapolation", "closest_point"),
                          ("interpolation", "in_element_equidistant")):
        dom = _domain(mode, mapping)
        total = sum((rec.w[:, None] * np.broadcast_to(
            rec.nbar, (rec.w.size, 2))).sum(axis=0) for rec in dom.records)
        assert np.allclose(total, 0.0, atol=1e-12)


def test_mapped_points_on_boundary():
    for mode, mapping in (("extrapolation", "closest_point"),
                          ("interpolation", "closest_point"),
                          ("interpolation", "in_element_equidistant")):
        dom = _domain(mode, mapping)
        for rec in dom.records:
            r = np.hypot(*(rec.x - np.array(CENTER)).T)
            assert np.abs(r - RADIUS).max() < 1e-10


def test_distance_vector_is_consistent():
    dom = _domain("interpolation", "closest_point")
    for rec in dom.records:
        assert np.allclose(rec.xbar + rec.d, rec.x, atol=1e-12)


def test_extrapolation_active_set_smaller():
    mesh = generate_structured_square(0.12, 1.0, 1.0)
    geo = Circle(CENTER, RADIUS)
    e = build_surrogate(mesh, geo, "extrapolation", "closest_point", 2)
    i = build_surrogate(mesh, geo, "interpolation", "closest_point", 2)
    assert e.n_active < i.n_active
    assert set(e.active) <= set(i.active)


def test_in_element_mapping_requires_interpolation():
    mesh = generate_structured_square(0.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_surrogate(mesh, Circle(CENTER, RADIUS), "extrapolation",
                        "in_element_equidistant", 2)


def test_conformal_records_degenerate():
    mesh = generate_structured_disk(0.15, RADIUS, CENTER)
    dom = conformal_surrogate(mesh, Circle(CENTER, RADIUS), 3)
    assert dom.n_active == mesh.elements.shape[0]
    for rec in dom.records:
        assert np.allclose(rec.d, 0.0)
        assert np.allclose(rec.x, rec.xbar)
        assert np.allclose(rec.n, np.broadcast_to(rec.nbar, rec.n.shape))


def test_surrogate_normals_point_outward():
    dom = _domain("interpolation", "closest_point")
    centroids = dom.mesh.vertices[dom.mesh.elements].mean(axis=1)
    for rec in dom.records:
        mid = rec.xbar.mean(axis=0)
        assert np.dot(rec.nbar, mid - centroids[rec.elem]) > 0


def _surrogate_edges_loop(mesh, keep_elem):
    # The per-edge loop the boolean expression replaced, kept as reference.
    out = []
    for k in range(mesh.edges.shape[0]):
        e0, e1 = mesh.edge_elems[k]
        k0 = keep_elem[e0]
        k1 = keep_elem[e1] if e1 >= 0 else False
        if k0 and not k1:
            out.append((k, e0))
        elif k1 and not k0:
            out.append((k, e1))
    return out


def _reachable_by_search(mesh, active):
    # Depth-first search over shared edges, the reference for the count.
    in_active = np.zeros(mesh.n_elements, dtype=bool)
    in_active[active] = True
    seen, stack = {active[0]}, [active[0]]
    while stack:
        for k in mesh.elem_edges[stack.pop()]:
            for other in mesh.edge_elems[k]:
                if other >= 0 and in_active[other] and other not in seen:
                    seen.add(other)
                    stack.append(other)
    return len(seen)


def test_surrogate_edges_match_per_edge_loop():
    rng = np.random.default_rng(3)
    mesh = generate_structured_square(0.15, 1.0, 1.0)
    labels = classify_elements(mesh, Circle(CENTER, RADIUS))
    masks = [labels == "inside", labels != "outside",
             np.ones(mesh.n_elements, dtype=bool)]
    masks += [rng.random(mesh.n_elements) < 0.5 for _ in range(5)]
    for keep in masks:
        edges, owners = _surrogate_edges(mesh, keep)
        want = np.array(_surrogate_edges_loop(mesh, keep), dtype=np.int64).reshape(-1, 2)
        assert np.array_equal(edges, want[:, 0])
        assert np.array_equal(owners, want[:, 1])


def test_check_connected_counts_reachable_elements():
    rng = np.random.default_rng(5)
    mesh = generate_structured_square(0.2, 1.0, 1.0)
    with pytest.raises(ValueError, match="empty"):
        _check_connected(mesh, np.array([], dtype=np.int64))
    _check_connected(mesh, np.arange(mesh.n_elements))
    for _ in range(10):
        active = np.flatnonzero(rng.random(mesh.n_elements) < 0.6)
        reached = _reachable_by_search(mesh, active)
        if reached == active.size:
            _check_connected(mesh, active)
        else:
            with pytest.raises(ValueError, match=(
                    f"disconnected \\({reached} of {active.size} reachable")):
                _check_connected(mesh, active)


def test_active_edge_lengths_cover_active_elements():
    mesh = generate_structured_square(0.2, 1.0, 1.0)
    domain = build_surrogate(mesh, Circle(CENTER, RADIUS), "extrapolation")
    edges = np.unique(mesh.elem_edges[domain.active])
    assert np.array_equal(domain.active_edge_lengths(), mesh.edge_lengths[edges])
