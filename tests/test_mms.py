"""Manufactured solutions, error norms, and the asymptotic cascade."""

import numpy as np
import pytest

from sembed import ap_cascade
from sembed.assembly import BoundaryProblem, DirichletBC, NeumannBC, assemble
from sembed.embedding import conformal_surrogate
from sembed.geometry import Circle
from sembed.meshing import generate_structured_disk
from sembed.experiments import ap_cascade_slopes, disk_fixture
from sembed.mms import ManufacturedSolution, l1_error
from sembed.solve import solve_direct

CENTER = (0.5, 0.5)
RADIUS = 0.375


def test_gradient_matches_fd():
    mms = ManufacturedSolution(wavenumber=3)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.1, 0.9, size=(20, 2))
    h = 1e-6
    gx = (mms.u(x + [h, 0]) - mms.u(x - [h, 0])) / (2 * h)
    gy = (mms.u(x + [0, h]) - mms.u(x - [0, h])) / (2 * h)
    g = mms.grad(x)
    assert np.allclose(g[:, 0], gx, atol=1e-6)
    assert np.allclose(g[:, 1], gy, atol=1e-6)


def test_laplacian_matches_fd():
    mms = ManufacturedSolution(wavenumber=2)
    x = np.array([[0.3, 0.4], [0.7, 0.2]])
    h = 1e-4
    lap_fd = (
        mms.u(x + [h, 0]) + mms.u(x - [h, 0])
        + mms.u(x + [0, h]) + mms.u(x - [0, h]) - 4 * mms.u(x)
    ) / h**2
    assert np.allclose(mms.laplacian(x), lap_fd, atol=1e-5)


def test_forcing_is_minus_laplacian_plus_reaction():
    mms = ManufacturedSolution(wavenumber=2)
    x = np.array([[0.25, 0.65]])
    for alpha in (0.0, 2.5):
        f = mms.forcing(alpha)
        assert f(x)[0] == pytest.approx(
            -mms.laplacian(x)[0] + alpha * mms.u(x)[0], rel=1e-12
        )


def test_forcing_without_reaction_skips_the_solution():
    # alpha = 0 gives -laplacian(x) exactly, the value -laplacian(x) + 0 u(x)
    # has, without evaluating u; other alphas still add alpha u(x)
    class NoU(ManufacturedSolution):
        def u(self, x):
            raise AssertionError("u evaluated at alpha = 0")

    x = np.random.default_rng(0).uniform(-0.5, 1.5, (500, 2))
    mms = ManufacturedSolution()
    assert np.array_equal(NoU().forcing(0.0)(x), -mms.laplacian(x))
    assert np.array_equal(mms.forcing(0.0)(x), -mms.laplacian(x) + 0.0 * mms.u(x))
    assert np.array_equal(mms.forcing(1.0)(x), -mms.laplacian(x) + 1.0 * mms.u(x))


def test_normal_derivative_uses_supplied_normal():
    mms = ManufacturedSolution(wavenumber=1)
    geo = Circle(CENTER, RADIUS)
    q = mms.normal_derivative(geo)
    x = geo.project(np.array([[0.8, 0.6]]))
    n = geo.normal(x)
    assert q(x, n)[0] == pytest.approx((mms.grad(x) * n).sum(), rel=1e-12)
    # without an explicit normal the geometry's is used
    assert q(x)[0] == pytest.approx(q(x, n)[0], rel=1e-12)


def _system(order=3, lc=0.15, wavenumber=1):
    mesh = generate_structured_disk(lc, RADIUS, CENTER)
    domain = conformal_surrogate(mesh, Circle(CENTER, RADIUS), order)
    mms = ManufacturedSolution(wavenumber=wavenumber)
    problem = BoundaryProblem(conditions=[DirichletBC(mms.u)],
                              forcing=mms.forcing(0.0))
    return domain, assemble(domain, problem), mms


def test_l1_error_of_exact_interpolant_small():
    domain, system, mms = _system(order=4)
    u_i = mms.u(system.dof_coords)
    err = l1_error(domain, system, u_i, mms.u)
    # interpolation error only: far below the solve error scale
    assert err < 1e-5
    # and exactly zero for a field in the space
    lin = lambda x: 1.0 + 2.0 * x[..., 0] - 0.5 * x[..., 1]
    assert l1_error(domain, system, lin(system.dof_coords), lin) < 1e-13


def test_l1_error_scales_with_area():
    # constant offset integrates to offset * |domain|
    domain, system, mms = _system(order=2)
    u_i = mms.u(system.dof_coords)
    off = l1_error(domain, system, u_i + 1.0, mms.u)
    # polygonal facets undercut the circle, so only a loose match
    assert off == pytest.approx(np.pi * RADIUS**2, rel=5e-2)


def test_ap_cascade_validates_args():
    domain, system, mms = _system(order=2, lc=0.2)
    q = mms.normal_derivative(Circle(CENTER, RADIUS))
    with pytest.raises(ValueError):
        ap_cascade(domain, mms.u, q, mms.forcing(0.0), limit="sideways")


@pytest.mark.parametrize("limit", ["dirichlet", "neumann"])
@pytest.mark.parametrize("which", ["u", "q"])
def test_ap_cascade_rejects_array_data_of_the_wrong_shape(limit, which):
    # the cascade reads its data as assemble does, shape check included
    domain = disk_fixture("sbm-i", 0.2, 2)
    mms = ManufacturedSolution(wavenumber=1)
    n_rec, nq = domain.records.w.shape
    data = {"u": mms.u, "q": mms.normal_derivative(Circle(CENTER, RADIUS))}
    data[which] = np.zeros((n_rec + 7, nq))
    with pytest.raises(ValueError, match=rf"\({n_rec + 7}, {nq}\), expected "
                                         rf"\({n_rec}, {nq}\)"):
        ap_cascade(domain, data["u"], data["q"], mms.forcing(0.0), limit=limit)


def test_ap_cascade_zeroth_mode_is_limit_solution():
    domain, system, mms = _system(order=3, lc=0.15)
    q = mms.normal_derivative(Circle(CENTER, RADIUS))
    modes, base = ap_cascade(domain, mms.u, q, mms.forcing(0.0),
                             limit="dirichlet")
    # with mutually consistent data the correction is only as large as
    # the discretization error of the limit solve
    assert len(modes) == 3
    scale = np.abs(modes[0]).max()
    assert np.abs(modes[1]).max() < 0.1 * scale
    # and u_0 approximates the exact solution
    err = np.abs(modes[0] - mms.u(base.dof_coords)).max()
    assert err < 1e-2 * max(scale, 1.0)


@pytest.mark.parametrize("method", ["cbm", "sbm-i"])
def test_ap_cascade_neumann_limit_zeroth_mode_is_neumann_solution(method):
    # the dual cascade poses u_0 as the standard Neumann problem on the
    # flux data, and u_1, u_2 on the Dirichlet data's residual
    domain = disk_fixture(method, 0.125, 3)
    mms = ManufacturedSolution(wavenumber=1)
    q = mms.normal_derivative(Circle(CENTER, RADIUS))
    modes, _ = ap_cascade(domain, mms.u, q, mms.forcing(1.0), alpha=1.0,
                          limit="neumann")
    assert len(modes) == 3
    assert all(np.isfinite(mode).all() for mode in modes)
    problem = BoundaryProblem(conditions=[NeumannBC(q, form="standard")],
                              forcing=mms.forcing(1.0), alpha=1.0)
    limit = solve_direct(assemble(domain, problem), compute_cond=False)
    assert np.array_equal(modes[0], limit.u)


def test_cbm_cascade_expands_the_discrete_robin_solution():
    # the Robin solves read q_RN with the records' normals, which on cbm
    # are the surrogate edges'; a cascade that read it with the circle's
    # normal stalled at slopes 0.99 / 1.47 / 0.93 here
    slopes, _ = ap_cascade_slopes("cbm", lc=0.0625, order=6)
    assert slopes[0] >= 0.9
    assert slopes[1] >= 1.8
    assert slopes[2] >= 2.7
