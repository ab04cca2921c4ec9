"""Reference element: basis, nodes, cubature, Lebesgue constants."""

import numpy as np
import pytest

from sembed.refelem import (
    MAX_ORDER,
    build_reference_element,
    _grad_simplex_mode,
    _rs_to_ab,
    _simplex_mode,
    gauss_lobatto_1d,
    grad_jacobi_p_all,
    jacobi_p_all,
    lebesgue_constant,
    modal_basis,
    modal_basis_grad,
    triangle_cubature,
    vandermonde_1d,
    vandermonde_shift_study_1d,
    warp_blend_nodes,
)


# The per-mode reference: each Jacobi degree and each mode (i, j) on its
# own, the oracle the tabulations must match bit for bit.

def jacobi_p(x, alpha, beta, n):
    """Orthonormal Jacobi polynomial of degree n on [-1, 1]."""
    return jacobi_p_all(x, alpha, beta, n)[n]


def grad_jacobi_p(x, alpha, beta, n):
    return grad_jacobi_p_all(x, alpha, beta, n)[n]


def simplex_2d(a, b, i, j):
    """Mode (i, j) at collapsed coordinates (a, b)."""
    return _simplex_mode(
        b, i, jacobi_p(a, 0.0, 0.0, i), jacobi_p(b, 2.0 * i + 1.0, 0.0, j)
    )


def grad_simplex_2d(a, b, i, j):
    """(d/dr, d/ds) of mode (i, j) at collapsed coordinates (a, b)."""
    return _grad_simplex_mode(
        a,
        b,
        i,
        jacobi_p(a, 0.0, 0.0, i),
        grad_jacobi_p(a, 0.0, 0.0, i),
        jacobi_p(b, 2.0 * i + 1.0, 0.0, j),
        grad_jacobi_p(b, 2.0 * i + 1.0, 0.0, j),
    )


# Independently computed from scipy.special.eval_jacobi plus the closed
# form L2 norm, frozen here as oracles.
JACOBI_ORACLE = {
    # (n, alpha, beta, x): value
    (0, 0.0, 0.0, 0.3): 0.7071067811865475,
    (3, 0.0, 0.0, 0.5): -0.8184875533567997,
    (2, 1.0, 0.0, -0.2): -0.7348469228349537,
    (4, 2.0, 1.0, 0.7): 0.908968576382902,
}


@pytest.mark.parametrize("key,val", sorted(JACOBI_ORACLE.items()))
def test_jacobi_oracle(key, val):
    n, a, b, x = key
    got = jacobi_p(np.array([x]), a, b, n)[0]
    assert got == pytest.approx(val, abs=1e-12)


def test_jacobi_orthonormal_quadrature():
    # int_-1^1 P_m P_n dx = delta_mn for alpha = beta = 0
    x, w = np.polynomial.legendre.leggauss(20)
    for m in range(5):
        for n in range(5):
            val = np.sum(w * jacobi_p(x, 0.0, 0.0, m) * jacobi_p(x, 0.0, 0.0, n))
            assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-13)


def test_grad_jacobi_matches_fd():
    x = np.linspace(-0.9, 0.9, 7)
    h = 1e-6
    for n in range(1, 6):
        fd = (jacobi_p(x + h, 1.0, 0.0, n) - jacobi_p(x - h, 1.0, 0.0, n)) / (2 * h)
        assert np.allclose(grad_jacobi_p(x, 1.0, 0.0, n), fd, atol=1e-7)


def test_gauss_lobatto_endpoints_and_symmetry():
    for n in range(2, 12):
        x = gauss_lobatto_1d(n)
        assert x[0] == pytest.approx(-1.0)
        assert x[-1] == pytest.approx(1.0)
        assert np.allclose(x, -x[::-1], atol=1e-14)
        assert np.all(np.diff(x) > 0)


def test_node_count_formula():
    for order in range(1, MAX_ORDER + 1):
        r, s = warp_blend_nodes(order)
        n_ep = (order + 1) * (order + 2) // 2
        assert r.size == n_ep and s.size == n_ep


def test_nodes_inside_reference_triangle():
    for order in range(1, MAX_ORDER + 1):
        r, s = warp_blend_nodes(order)
        assert np.all(r >= -1 - 1e-12)
        assert np.all(s >= -1 - 1e-12)
        assert np.all(r + s <= 1e-12)


def test_vandermonde_well_conditioned():
    for order in range(1, MAX_ORDER + 1):
        elem = build_reference_element(order)
        kappa = np.linalg.cond(modal_basis(order, elem.r, elem.s))
        assert kappa < 30.0  # warp-and-blend keeps the basis tame


def test_cardinal_property():
    for order in (1, 3, 6):
        elem = build_reference_element(order)
        lag = modal_basis(order, elem.r, elem.s) @ elem.vandermonde_inv
        assert np.allclose(lag, np.eye(elem.n_points), atol=1e-12)


def test_differentiation_exact_on_polynomials():
    # nodal differentiation must be exact for any polynomial the basis spans
    for order in (2, 4, 7):
        elem = build_reference_element(order)
        r, s = elem.r, elem.s
        _, d_r, d_s = elem.eval_basis_grad(r, s)
        f = r**order + s**order + r * s
        fr = order * r ** (order - 1) + s
        fs = order * s ** (order - 1) + r
        assert np.allclose(d_r @ f, fr, atol=1e-9)
        assert np.allclose(d_s @ f, fs, atol=1e-9)


def test_cubature_exactness():
    # moments of r^i s^j over the reference triangle; exact value via the
    # bivariate beta integral
    from math import gamma

    def moment(i, j):
        # int_T (1+r)^i (1+s)^j dr ds with T = {r,s >= -1, r+s <= 0}
        return 2.0 ** (i + j + 2) * gamma(i + 1) * gamma(j + 1) / gamma(i + j + 3)

    for degree in (3, 6, 9):
        r, s, w = triangle_cubature(degree)
        assert w.sum() == pytest.approx(2.0, rel=1e-13)  # reference area
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                val = np.sum(w * (1 + r) ** i * (1 + s) ** j)
                assert val == pytest.approx(moment(i, j), rel=1e-12)


def test_modal_gradient_consistency():
    r = np.array([-0.41, 0.12, -0.77])
    s = np.array([-0.3, -0.5, 0.1])
    h = 1e-6
    for order in (2, 5):
        _, vr, vs = modal_basis_grad(order, r, s)
        fd_r = (modal_basis(order, r + h, s) - modal_basis(order, r - h, s)) / (2 * h)
        fd_s = (modal_basis(order, r, s + h) - modal_basis(order, r, s - h)) / (2 * h)
        assert np.allclose(vr, fd_r, atol=1e-6)
        assert np.allclose(vs, fd_s, atol=1e-6)


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_modal_basis_bitwise_matches_per_mode_reference(order):
    # The shared Jacobi tables must give exactly the bits of one recurrence
    # per mode, inside and outside the reference triangle (the collapsed
    # vertex s = 1 included), so the Lebesgue table stays exact.
    rng = np.random.default_rng(order)
    inside = rng.dirichlet(np.ones(3), size=40) @ np.array(
        [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]
    )
    outside = rng.uniform(-3.0, 2.0, size=(40, 2))
    r, s = np.concatenate([inside, outside, [[-1.0, 1.0]]]).T
    a, b = _rs_to_ab(r, s)
    modes = [(i, j) for i in range(order + 1) for j in range(order - i + 1)]
    grads = [grad_simplex_2d(a, b, i, j) for i, j in modes]
    assert np.array_equal(
        modal_basis(order, r, s),
        np.column_stack([simplex_2d(a, b, i, j) for i, j in modes]),
    )
    _, vr, vs = modal_basis_grad(order, r, s)
    assert np.array_equal(vr, np.column_stack([g[0] for g in grads]))
    assert np.array_equal(vs, np.column_stack([g[1] for g in grads]))


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_gradient_tabulation_values_equal_values_only_tabulation(order):
    # the boundary traces take values and gradients from one tabulation;
    # its values must be the bits of the values-only one, and the cached
    # cubature table those of eval_basis at the cubature points
    rng = np.random.default_rng(order)
    r, s = rng.uniform(-3.0, 2.0, size=(2, 50))
    elem = build_reference_element(order)
    assert np.array_equal(modal_basis_grad(order, r, s)[0], modal_basis(order, r, s))
    assert np.array_equal(elem.eval_basis_grad(r, s)[0], elem.eval_basis(r, s))
    assert np.array_equal(elem.cub_basis, elem.eval_basis(elem.cub_r, elem.cub_s))


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_nodal_basis_reproduces_degree_p_on_the_collapsed_line(order):
    # Off the triangle on s = 1, and within 1e-14 of it, a = -1 is wrong and
    # the collapsed-line recurrence takes over. Values and gradients must
    # then be a degree-P polynomial's to roundoff: the error of a sum of
    # products sum_k f_k phi_k(x) is bounded by a few eps * sum_k |f_k
    # phi_k(x)|. With a = -1 they were off by 0.6 to 4e4 in those units.
    rng = np.random.default_rng(order)
    c = rng.normal(size=3)
    p = order

    def f(r, s):
        return (c[0] + c[1] * r + c[2] * s) ** p + r ** (p - 1) * s

    def f_r(r, s):
        return p * c[1] * (c[0] + c[1] * r + c[2] * s) ** (p - 1) + (
            (p - 1) * r ** max(p - 2, 0) * s)

    def f_s(r, s):
        return p * c[2] * (c[0] + c[1] * r + c[2] * s) ** (p - 1) + r ** (p - 1)

    line_r = np.array([-3.0, -2.0, -1.5, -0.999, 0.0, 0.5, 1.0, 2.0])
    r = np.tile(line_r, 3)
    s = np.repeat([1.0, 1.0 + 9e-16, 1.0 - 5e-15], line_r.size)
    elem = build_reference_element(order)
    nodal = f(elem.r, elem.s)
    for table, exact in zip(elem.eval_basis_grad(r, s), (f, f_r, f_s)):
        bound = 1e-13 * np.abs(table * nodal).sum(axis=1)
        assert np.all(np.abs(table @ nodal - exact(r, s)) <= bound)


def test_eval_basis_interpolates():
    elem = build_reference_element(4)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.9, -0.1, size=(5, 2))
    f = lambda r, s: (1 + r) ** 2 * (1 - s) - 2 * r * s
    nodal = f(elem.r, elem.s)
    interp = elem.eval_basis(pts[:, 0], pts[:, 1]) @ nodal
    assert np.allclose(interp, f(pts[:, 0], pts[:, 1]), atol=1e-11)


def test_lebesgue_interior_low_orders():
    # P=1 barycentric sum of |lambda_i| is exactly 1 inside
    elem = build_reference_element(1)
    assert lebesgue_constant(elem, "interior", density=150) == pytest.approx(
        1.0, abs=1e-10
    )


def test_lebesgue_extrapolation_p1_analytic():
    # linear basis on the circle r = 1.75 about the barycenter: the sup of
    # sum |lambda_i| has the closed form 1/3 + 1.75 * sqrt(2)
    elem = build_reference_element(1)
    got = lebesgue_constant(elem, "extrap_circle", radius=1.75, density=300)
    assert got == pytest.approx(1.0 / 3.0 + 1.75 * np.sqrt(2.0), rel=1e-6)


def test_vandermonde_1d_shape():
    x = gauss_lobatto_1d(5)
    v = vandermonde_1d(4, x)
    assert v.shape == (5, 5)
    assert np.linalg.cond(v) < 10


def test_shift_study_collision_is_singular():
    nodes = gauss_lobatto_1d(6)
    hit = nodes[-2] - 1.0  # lands the moved endpoint on its neighbor
    assert vandermonde_shift_study_1d(5, hit) == np.inf


def test_shift_study_rejects_out_of_range():
    with pytest.raises(ValueError):
        vandermonde_shift_study_1d(10, 0.5)
    with pytest.raises(ValueError):
        vandermonde_shift_study_1d(3, 2.5)


def test_build_reference_element_is_cached():
    assert build_reference_element(3) is build_reference_element(3)


@pytest.mark.parametrize("order", [2.5, "3", 3.0, None])
def test_build_reference_element_rejects_non_integer_order(order):
    with pytest.raises(ValueError, match=repr(order)):
        build_reference_element(order)


def test_numpy_integer_order_names_the_cached_element():
    assert build_reference_element(np.int64(3)) is build_reference_element(3)
