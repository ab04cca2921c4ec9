"""Order-P polynomial machinery on the reference triangle.

The reference triangle is R = {(r, s) : r >= -1, s >= -1, r + s <= 0}.
Nodes are Gauss-Lobatto-type warp-and-blend points, the modal basis is the
orthonormal Koornwinder-Dubiner family, and cubature is a collapsed-coordinate
Gauss rule exact well beyond degree 2P.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, roots_jacobi

MAX_ORDER = 10

# Blending exponents minimizing the interpolation Lebesgue constant for the
# warped node sets, indexed by P-1 up to MAX_ORDER.
_ALPHA_OPT = [
    0.0000, 0.0000, 1.4152, 0.1001, 0.2751,
    0.9800, 1.0999, 1.2832, 1.3648, 1.4773,
]


def _jacobi_norm_log(n: int, alpha: float, beta: float) -> float:
    # log of ||P_n^{(a,b)}||_{L2(-1,1; (1-x)^a (1+x)^b)}^2
    return (
        (alpha + beta + 1) * np.log(2.0)
        - np.log(2 * n + alpha + beta + 1)
        + gammaln(n + alpha + 1)
        + gammaln(n + beta + 1)
        - gammaln(n + alpha + beta + 1)
        - gammaln(n + 1)
    )


def jacobi_p_all(x: np.ndarray, alpha: float, beta: float, n: int) -> np.ndarray:
    """Orthonormal Jacobi polynomials of degrees 0..n on [-1, 1], from one
    three-term recurrence; row k of the (n + 1, *x.shape) result is degree k."""
    x = np.asarray(x, dtype=float)
    p = np.empty((n + 1,) + x.shape)
    p[0] = np.exp(-0.5 * _jacobi_norm_log(0, alpha, beta))
    if n == 0:
        return p
    f1 = 0.5 * np.sqrt((alpha + beta + 3) / ((alpha + 1) * (beta + 1)))
    p[1] = p[0] * f1 * ((alpha + beta + 2) * x + alpha - beta)
    aold = (
        2.0 / (2 + alpha + beta)
        * np.sqrt((alpha + 1) * (beta + 1) / (alpha + beta + 3))
    )
    for i in range(1, n):
        h1 = 2 * i + alpha + beta
        anew = (
            2.0 / (h1 + 2)
            * np.sqrt(
                (i + 1)
                * (i + 1 + alpha + beta)
                * (i + 1 + alpha)
                * (i + 1 + beta)
                / ((h1 + 1) * (h1 + 3))
            )
        )
        bnew = -(alpha * alpha - beta * beta) / (h1 * (h1 + 2))
        p[i + 1] = ((x - bnew) * p[i] - aold * p[i - 1]) / anew
        aold = anew
    return p


def grad_jacobi_p_all(x: np.ndarray, alpha: float, beta: float, n: int) -> np.ndarray:
    """Derivatives of `jacobi_p_all(x, alpha, beta, n)`, row k degree k, from
    one recurrence on the (alpha + 1, beta + 1) family."""
    x = np.asarray(x, dtype=float)
    d = np.zeros((n + 1,) + x.shape)
    if n > 0:
        k = np.arange(1, n + 1).reshape((-1,) + (1,) * x.ndim)
        d[1:] = np.sqrt(k * (k + alpha + beta + 1)) * jacobi_p_all(
            x, alpha + 1, beta + 1, n - 1
        )
    return d


def gauss_lobatto_1d(n_points: int) -> np.ndarray:
    """Gauss-Lobatto nodes on [-1, 1] (endpoints included)."""
    if n_points < 2:
        raise ValueError("Gauss-Lobatto rule needs at least 2 points")
    if n_points == 2:
        return np.array([-1.0, 1.0])
    interior, _ = roots_jacobi(n_points - 2, 1.0, 1.0)
    return np.concatenate(([-1.0], np.sort(interior), [1.0]))


def vandermonde_1d(order: int, points: np.ndarray) -> np.ndarray:
    return jacobi_p_all(points, 0.0, 0.0, order).T.copy()


def _rs_to_ab(r: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # within 1e-14 of s = 1, a takes the collapsed vertex's value -1, which
    # is exact only at r = -1; _modal_tables mends the other points there
    keep = np.abs(1.0 - s) > 1e-14
    a = np.where(keep, 2.0 * (1.0 + r) / np.where(keep, 1.0 - s, 1.0) - 1.0, -1.0)
    return a, s.copy()


def _collapsed_line_factors(order, r, s):
    """P_i(a) (1 - s)^i for i = 0..order, with its d/dr and d/ds, where a =
    (1 + 2r + s) / (1 - s) cannot be formed: near the line s = 1. Legendre's
    recurrence scaled by (1 - s)^(k + 1) runs in u = 1 + 2r + s and
    w2 = (1 - s)^2 only; rows are normalized as jacobi_p_all's."""
    u = 1.0 + 2.0 * r + s
    w2 = (1.0 - s) ** 2
    dw2 = -2.0 * (1.0 - s)  # d(w2)/ds; u has d/dr 2 and d/ds 1
    q, qr, qs = np.zeros((3, order + 1) + r.shape)
    q[0] = 1.0
    if order > 0:
        q[1], qr[1], qs[1] = u, 2.0, 1.0
    for k in range(1, order):
        q[k + 1] = ((2 * k + 1) * u * q[k] - k * w2 * q[k - 1]) / (k + 1)
        qr[k + 1] = ((2 * k + 1) * (2.0 * q[k] + u * qr[k])
                     - k * w2 * qr[k - 1]) / (k + 1)
        qs[k + 1] = ((2 * k + 1) * (q[k] + u * qs[k])
                     - k * (dw2 * q[k - 1] + w2 * qs[k - 1])) / (k + 1)
    norm = np.sqrt(np.arange(order + 1) + 0.5).reshape((-1,) + (1,) * r.ndim)
    return norm * q, norm * qr, norm * qs


def _in_triangle(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Whether each (r, s) lies in the closed reference triangle."""
    return (r >= -1.0) & (s >= -1.0) & (r + s <= 0.0)


# Mode (i, j) is sqrt(2) P_i(a) P_j^(2i+1,0)(b) (1-b)^i. The _mode helpers
# take the a-factor of degree i and b-factors that may stack several j along
# axis 0, so _modal_tables evaluates every j of one i from one table.

def _simplex_mode(b, i, fa, gb):
    return np.sqrt(2.0) * fa * gb * (1.0 - b) ** i


def _grad_simplex_mode(a, b, i, fa, dfa, gb, dgb):
    h = 0.5 * (1.0 - b)
    dmodedr = dfa * gb
    dmodeds = dfa * (gb * (0.5 * (1.0 + a)))
    tmp = dgb * (h**i)
    if i > 0:
        dmodedr = dmodedr * (h ** (i - 1))
        dmodeds = dmodeds * (h ** (i - 1))
        tmp = tmp - 0.5 * i * gb * (h ** (i - 1))
    norm = 2.0 ** (i + 0.5)
    return norm * dmodedr, norm * (dmodeds + fa * tmp)


def _modal_tables(order, r, s, grad):
    """The modal basis at (r, s), columns ordered (i, j), and with `grad`
    its d/dr and d/ds: one Jacobi table in a, and one in b per i, give
    every mode; the derivative tables are built only when asked for."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    a, b = _rs_to_ab(r, s)
    pa = jacobi_p_all(a, 0.0, 0.0, order)
    dpa = grad_jacobi_p_all(a, 0.0, 0.0, order) if grad else None
    # off r = -1 on the collapsed line, a = -1 is wrong: there the factor
    # P_i(a) (1 - b)^i of each mode comes from the scaled recurrence
    line = (np.abs(1.0 - s) <= 1e-14) & (r != -1.0)
    if line.any():
        q, qr, qs = _collapsed_line_factors(order, r[line], s[line])
    tables = ([], [], []) if grad else ([],)
    for i in range(order + 1):
        pb = jacobi_p_all(b, 2.0 * i + 1.0, 0.0, order - i)
        modes = [_simplex_mode(b, i, pa[i], pb)]
        if grad:
            dpb = grad_jacobi_p_all(b, 2.0 * i + 1.0, 0.0, order - i)
            modes += _grad_simplex_mode(a, b, i, pa[i], dpa[i], pb, dpb)
        if line.any():
            gb = np.sqrt(2.0) * pb[:, line]
            modes[0][:, line] = q[i] * gb
            if grad:
                modes[1][:, line] = qr[i] * gb
                modes[2][:, line] = qs[i] * gb + np.sqrt(2.0) * q[i] * dpb[:, line]
        for table, mode in zip(tables, modes):
            table.append(mode)
    # Row-major, like a column stack: a matrix product with a transposed
    # layout can round differently, and callers rely on exact values.
    return tuple(np.concatenate(t).T.copy() for t in tables)


def modal_basis(order: int, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Orthonormal modal basis evaluated at (r, s); columns ordered (i, j).
    Each column equals, bit for bit, its mode evaluated on its own from its
    own Jacobi polynomials."""
    return _modal_tables(order, r, s, grad=False)[0]


def modal_basis_grad(order: int, r: np.ndarray, s: np.ndarray):
    """(values, d/dr, d/ds) of the modal basis at (r, s), from the same walk
    as `modal_basis`; the values equal `modal_basis` bit for bit."""
    return _modal_tables(order, r, s, grad=True)


def _warp_factor(order: int, rout: np.ndarray) -> np.ndarray:
    lgl = gauss_lobatto_1d(order + 1)
    req = np.linspace(-1.0, 1.0, order + 1)
    veq = vandermonde_1d(order, req)
    pmat = vandermonde_1d(order, rout)
    lmat = np.linalg.solve(veq.T, pmat.T)
    warp = lmat.T @ (lgl - req)
    zerof = (np.abs(rout) < 1.0 - 1e-10).astype(float)
    sf = 1.0 - (zerof * rout) ** 2
    return warp / sf + warp * (zerof - 1.0)


def barycentric(rs: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (n, 3) of reference points rs (n, 2) on the
    vertices (-1, -1), (1, -1), (-1, 1)."""
    return np.stack(
        [
            -(rs[:, 0] + rs[:, 1]) / 2.0,
            (1.0 + rs[:, 0]) / 2.0,
            (1.0 + rs[:, 1]) / 2.0,
        ],
        axis=1,
    )


def lattice_weights(order: int) -> np.ndarray:
    """Integer barycentric weights (n_p, 3) of the order-P node lattice on
    the reference vertices (-1, -1), (1, -1), (-1, 1), in node order; each
    row sums to P. This loop is the one statement of the node order."""
    ij = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    i, j = np.array(ij, dtype=np.int64).T
    return np.column_stack([order - i - j, j, i])


def warp_blend_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Warp-and-blend nodal set on the reference triangle, (r, s) arrays."""
    alpha = _ALPHA_OPT[order - 1]

    weights = lattice_weights(order)
    l1 = weights[:, 2] / order
    l3 = weights[:, 1] / order
    l2 = 1.0 - l1 - l3

    x = -l2 + l3
    y = (-l2 - l3 + 2.0 * l1) / np.sqrt(3.0)

    blend1 = 4.0 * l2 * l3
    blend2 = 4.0 * l1 * l3
    blend3 = 4.0 * l1 * l2

    warpf1 = _warp_factor(order, l3 - l2)
    warpf2 = _warp_factor(order, l1 - l3)
    warpf3 = _warp_factor(order, l2 - l1)

    warp1 = blend1 * warpf1 * (1.0 + (alpha * l1) ** 2)
    warp2 = blend2 * warpf2 * (1.0 + (alpha * l2) ** 2)
    warp3 = blend3 * warpf3 * (1.0 + (alpha * l3) ** 2)

    x = x + 1.0 * warp1 + np.cos(2 * np.pi / 3) * warp2 + np.cos(4 * np.pi / 3) * warp3
    y = y + 0.0 * warp1 + np.sin(2 * np.pi / 3) * warp2 + np.sin(4 * np.pi / 3) * warp3

    # equilateral -> reference coordinates
    l1e = (np.sqrt(3.0) * y + 1.0) / 3.0
    l2e = (-3.0 * x - np.sqrt(3.0) * y + 2.0) / 6.0
    l3e = (3.0 * x - np.sqrt(3.0) * y + 2.0) / 6.0
    r = -l2e + l3e - l1e
    s = -l2e - l3e + l1e
    return r, s


def triangle_cubature(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapsed-coordinate Gauss rule on R exact for total degree >= `degree`.

    Tensor Gauss-Legendre x Gauss-Jacobi(1,0) through the Duffy map; positive
    weights at any order.
    """
    n = max(1, (degree + 2) // 2 + 1)
    ga, wa = np.polynomial.legendre.leggauss(n)
    gb, wb = roots_jacobi(n, 1.0, 0.0)
    a, b = np.meshgrid(ga, gb, indexing="ij")
    r = 0.5 * (1.0 + a) * (1.0 - b) - 1.0
    s = b
    w = np.outer(wa, wb) * 0.5
    return r.ravel(), s.ravel(), w.ravel()


@dataclass(frozen=True)
class ReferenceElement:
    """Immutable order-P nodal/modal toolkit on the reference triangle."""

    order: int
    r: np.ndarray
    s: np.ndarray
    lattice: np.ndarray  # integer barycentric weights of the nodes
    vandermonde_inv: np.ndarray
    cub_r: np.ndarray
    cub_s: np.ndarray
    cub_w: np.ndarray
    edge_q: np.ndarray  # 1D Gauss points on [-1, 1]
    edge_w: np.ndarray
    # cached basis/derivative tables at the cubature points
    cub_basis: np.ndarray = field(repr=False)
    cub_dr: np.ndarray = field(repr=False)
    cub_ds: np.ndarray = field(repr=False)

    @property
    def n_points(self) -> int:
        return (self.order + 1) * (self.order + 2) // 2

    def eval_basis(self, r, s) -> np.ndarray:
        """Nodal Lagrange basis values at arbitrary (r, s), including points
        outside the reference triangle (extrapolation is first-class)."""
        return modal_basis(self.order, r, s) @ self.vandermonde_inv

    def eval_basis_grad(self, r, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodal basis values, d/dr and d/ds at (r, s), from one modal
        tabulation; the values equal `eval_basis` bit for bit."""
        return tuple(m @ self.vandermonde_inv for m in modal_basis_grad(self.order, r, s))


@lru_cache(maxsize=None)
def build_reference_element(order: int) -> ReferenceElement:
    if not (isinstance(order, numbers.Integral) and 1 <= order <= MAX_ORDER):
        raise ValueError(f"order must be an integer in [1, {MAX_ORDER}], got {order!r}")
    if type(order) is not int:
        # any integer type names the one element of its order
        return build_reference_element(int(order))
    r, s = warp_blend_nodes(order)
    v_inv = np.linalg.inv(modal_basis(order, r, s))
    cr, cs, cw = triangle_cubature(2 * order + 1)
    cub_basis, cub_dr, cub_ds = (m @ v_inv for m in modal_basis_grad(order, cr, cs))
    eq, ew = np.polynomial.legendre.leggauss(order + 2)
    return ReferenceElement(
        order=order,
        r=r,
        s=s,
        lattice=lattice_weights(order),
        vandermonde_inv=v_inv,
        cub_r=cr,
        cub_s=cs,
        cub_w=cw,
        edge_q=eq,
        edge_w=ew,
        cub_basis=cub_basis,
        cub_dr=cub_dr,
        cub_ds=cub_ds,
    )


def _lattice_interior(density: int) -> tuple[np.ndarray, np.ndarray]:
    n = int(2 * density)
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = ii + jj <= n
    r = -1.0 + 2.0 * ii[keep] / n
    s = -1.0 + 2.0 * jj[keep] / n
    return r, s


def _lattice_annulus(density: int, radius: float, center: tuple[float, float]):
    cr, cs = center
    radii = np.arange(0.0, radius + 0.5 / density, 1.0 / density)
    pts_r, pts_s = [], []
    for rad in radii:
        n_theta = max(8, int(np.ceil(2 * np.pi * rad * density)))
        theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
        pts_r.append(cr + rad * np.cos(theta))
        pts_s.append(cs + rad * np.sin(theta))
    r = np.concatenate(pts_r)
    s = np.concatenate(pts_s)
    outside_tri = ~_in_triangle(r, s)
    return r[outside_tri], s[outside_tri]


def _lebesgue_function(elem: ReferenceElement, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    total = np.empty(r.size)
    chunk = 200_000
    for lo in range(0, r.size, chunk):
        hi = min(lo + chunk, r.size)
        total[lo:hi] = np.abs(elem.eval_basis(r[lo:hi], s[lo:hi])).sum(axis=1)
    return total


def lebesgue_constant(
    elem: ReferenceElement,
    domain: str = "interior",
    radius: float = 1.75,
    center: tuple[float, float] = (-1.0 / 3.0, -1.0 / 3.0),
    density: int = 400,
) -> float:
    """Max of the Lebesgue function over the reference triangle (interior) or
    over the circle-minus-triangle region (extrap_circle)."""
    if domain == "interior":
        r, s = _lattice_interior(density)
    elif domain == "extrap_circle":
        r, s = _lattice_annulus(density, radius, center)
    else:
        raise ValueError(f"unknown domain {domain!r}")

    vals = _lebesgue_function(elem, r, s)
    best = vals.argmax()
    best_val = vals[best]
    r0, s0 = r[best], s[best]

    # local polish around the lattice argmax
    h = 1.0 / density
    for _ in range(3):
        rr = np.linspace(r0 - h, r0 + h, 21)
        ss = np.linspace(s0 - h, s0 + h, 21)
        gr, gs = np.meshgrid(rr, ss, indexing="ij")
        gr, gs = gr.ravel(), gs.ravel()
        keep = _in_triangle(gr, gs)
        if domain != "interior":
            inside_circle = (gr - center[0]) ** 2 + (gs - center[1]) ** 2 <= radius**2
            keep = inside_circle & ~keep
        gr, gs = gr[keep], gs[keep]
        if gr.size == 0:
            break
        vals = _lebesgue_function(elem, gr, gs)
        k = vals.argmax()
        if vals[k] > best_val:
            best_val = vals[k]
            r0, s0 = gr[k], gs[k]
        h /= 8.0
    return float(best_val)


def vandermonde_shift_study_1d(order: int, shift: float) -> float:
    """2-norm condition number of the 1D Gauss-Lobatto Vandermonde after the
    right endpoint node is moved to 1 + shift. Returns inf when the shifted
    node lands on a retained node."""
    if not 1 <= order <= 9:
        raise ValueError("order must be in [1, 9]")
    if not -2.0 <= shift <= 2.0:
        raise ValueError("shift must be in [-2, 2]")
    nodes = gauss_lobatto_1d(order + 1).copy()
    shifted = 1.0 + shift
    if np.min(np.abs(shifted - nodes[:-1])) < 1e-12:
        return np.inf
    nodes[-1] = shifted
    v = vandermonde_1d(order, nodes)
    sv = np.linalg.svd(v, compute_uv=False)
    if sv[-1] < 1e-300:
        return np.inf
    return float(sv[0] / sv[-1])
