"""Property-based invariants for the element toolkit, geometry, and meshes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sembed.geometry import Circle, Rectangle
from sembed.meshing import generate_structured_disk, generate_structured_square
from sembed.refelem import build_reference_element, gauss_lobatto_1d

MANY = settings(max_examples=100, deadline=None)

orders = st.integers(min_value=1, max_value=6)


def _bary_point(draw_l1, draw_l2):
    # barycentric sample mapped to the (-1,-1)/(1,-1)/(-1,1) triangle
    l1, l2 = draw_l1, draw_l2 * (1.0 - draw_l1)
    l3 = 1.0 - l1 - l2
    r = -l1 - l2 + l3
    s = -l1 + l2 - l3
    return r, s


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@MANY
@given(orders, unit, unit)
def test_partition_of_unity(order, a, b):
    elem = build_reference_element(order)
    r, s = _bary_point(a, b)
    vals = elem.eval_basis(np.array([r]), np.array([s]))
    assert abs(vals.sum() - 1.0) < 1e-10


@MANY
@given(orders, st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6))
def test_derivative_exact_on_monomials(order, i, j):
    if i + j > order:
        i = min(i, order)
        j = min(j, order - i)
    elem = build_reference_element(order)
    f = elem.r**i * elem.s**j
    dr = i * elem.r ** max(i - 1, 0) * elem.s**j if i else np.zeros_like(f)
    ds = j * elem.r**i * elem.s ** max(j - 1, 0) if j else np.zeros_like(f)
    _, d_r, d_s = elem.eval_basis_grad(elem.r, elem.s)
    assert np.allclose(d_r @ f, dr, atol=1e-8)
    assert np.allclose(d_s @ f, ds, atol=1e-8)


@MANY
@given(orders, st.integers(min_value=0, max_value=13))
def test_cubature_positive_and_exact(order, k):
    elem = build_reference_element(order)
    assert (elem.cub_w > 0).all()
    deg = min(k, 2 * order + 1)
    val = (elem.cub_w * (1 + elem.cub_r) ** deg).sum()
    # moment of (1+r)^deg over the reference triangle
    exact = 2.0 ** (deg + 2) / ((deg + 1) * (deg + 2))
    assert abs(val - exact) < 1e-10 * max(1.0, exact)


@MANY
@given(st.integers(min_value=2, max_value=14))
def test_gauss_lobatto_symmetric_in_range(n):
    x = gauss_lobatto_1d(n)
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)
    assert np.allclose(x, -x[::-1], atol=1e-12)


circle_params = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=3.0),
)
points = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)


@MANY
@given(circle_params, points)
def test_circle_projection_invariants(params, pt):
    cx, cy, radius = params
    geo = Circle((cx, cy), radius)
    x = np.array([pt], dtype=float)
    if np.hypot(*(x[0] - [cx, cy])) < 1e-6:
        x[0, 0] += 0.5  # projection undefined at the center
    p = geo.project(x)
    assert abs(np.hypot(*(p[0] - [cx, cy])) - radius) < 1e-9
    # idempotent and consistent with the level set
    assert np.allclose(geo.project(p), p, atol=1e-9)
    assert abs(geo.phi(p)[0]) < 1e-9
    n = geo.normal(p)
    assert abs(np.hypot(*n[0]) - 1.0) < 1e-12
    # phi is positive inside and negative outside
    assert geo.phi(x)[0] * (radius - np.hypot(*(x[0] - [cx, cy]))) >= -1e-12


@MANY
@given(points)
def test_rectangle_distance_sign(pt):
    geo = Rectangle((0.0, 0.0), (1.0, 2.0))
    x = np.array([pt], dtype=float)
    inside = 0.0 < pt[0] < 1.0 and 0.0 < pt[1] < 2.0
    phi = geo.phi(x)[0]
    if abs(phi) > 1e-9:
        assert (phi > 0) == inside


@MANY
@given(st.floats(min_value=0.12, max_value=0.4))
def test_disk_mesh_invariants(lc):
    mesh = generate_structured_disk(lc, 0.375, (0.5, 0.5))
    # CCW orientation: positive signed areas
    assert (mesh.jacobian > 0).all()
    # Euler characteristic of a disk
    assert len(mesh.vertices) - len(mesh.edges) + len(mesh.elements) == 1
    # boundary edges form a single closed loop
    assert len(mesh.boundary_edges) >= 3


@MANY
@given(st.floats(min_value=0.12, max_value=0.5),
       st.floats(min_value=0.5, max_value=2.0))
def test_square_mesh_covers_box(lc, side):
    mesh = generate_structured_square(lc, side, side)
    assert (mesh.jacobian > 0).all()
    # reference triangle has area 2, so element area is 2 * det(B)
    assert abs(2.0 * mesh.jacobian.sum() - side * side) < 1e-9 * side * side
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    assert np.allclose(lo, 0.0, atol=1e-12)
    assert np.allclose(hi, side, atol=1e-12)


def _project_by_loop(box, x):
    # the per-point face snap that the batched Rectangle.project replaced
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = np.clip(x, box.lower, box.upper)
    inside = np.all((x > box.lower) & (x < box.upper), axis=-1)
    gaps = np.stack(
        [
            x[..., 1] - box.lower[1],
            box.upper[0] - x[..., 0],
            box.upper[1] - x[..., 1],
            x[..., 0] - box.lower[0],
        ],
        axis=-1,
    )
    face = np.argmin(gaps, axis=-1)
    for i in np.flatnonzero(inside):
        f = face[i]
        if f == 0:
            p[i, 1] = box.lower[1]
        elif f == 1:
            p[i, 0] = box.upper[0]
        elif f == 2:
            p[i, 1] = box.upper[1]
        else:
            p[i, 0] = box.lower[0]
    return p


# coordinates inside, outside and exactly on the box [0.25, 1.5] x [-1, 0.5]
box_x = st.one_of(st.floats(-1.0, 3.0), st.sampled_from([0.25, 1.5, 0.875]))
box_y = st.one_of(st.floats(-2.0, 1.5), st.sampled_from([-1.0, 0.5, -0.25]))


@MANY
@given(st.lists(st.tuples(box_x, box_y), min_size=1, max_size=40))
def test_rectangle_project_matches_per_point_snap(points):
    box = Rectangle((0.25, -1.0), (1.5, 0.5))
    x = np.array(points)
    got = box.project(x)
    want = _project_by_loop(box, x)
    assert got.tobytes() == want.tobytes()
