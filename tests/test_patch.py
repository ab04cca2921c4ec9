"""Patch test: a degree-P solution is reproduced to roundoff.

Every trial trace is the owning element's polynomial evaluated at the mapped
point, so a u of degree <= P satisfies every discrete form exactly, on any
mesh and wherever the mapped point lies. The discrete solution then differs
from u at the nodes by roundoff only: the relative error of a backward-stable
solve is bounded by a modest constant times eps * cond (Higham 2002, ch. 7).
A trace, quadrature, normal, DOF-map, scatter or condensation error breaks
that bound by orders of magnitude. A wrong mapped point does not: u and u_h
agree at any point.
"""

from functools import cache

import numpy as np
import pytest

from sembed.assembly import (
    DIRICHLET_FORMS,
    NEUMANN_FORMS,
    ROBIN_FORMS,
    BoundaryProblem,
    DirichletBC,
    NeumannBC,
    RobinBC,
    assemble,
)
from sembed.embedding import build_surrogate
from sembed.experiments import (
    FIXTURE_RADIUS,
    METHODS,
    RANDOM_EMBEDDING_LC,
    SQUARE_SIDE,
    disk_fixture,
    square_with_hole_fixture,
)
from sembed.geometry import Circle, Difference
from sembed.meshing import generate_structured_square
from sembed.solve import condition_number, solve_direct

EPS = np.finfo(float).eps
# Bound on error / (eps * cond). The worst case seen over every case below
# is 0.4 (2 vCPU, OpenBLAS, numpy 2.4.6, scipy 1.17.1).
C = 10.0
ROBIN_EPS = 0.3
ALPHA = 1.0
SBM_METHODS = ("sbm-e", "sbm-ei", "sbm-i")
FORM_CASES = (
    [("dirichlet", f) for f in DIRICHLET_FORMS]
    + [("neumann", f) for f in NEUMANN_FORMS]
    + [("robin", f) for f in ROBIN_FORMS]
)


def exact(p):
    """u = (0.3 + x + 0.7 y)^p + x^(p-1) y, of degree p, with its flux
    grad(u) . n and the forcing -lap(u) + alpha u. Exponents below zero only
    ever meet a zero factor, so they are clipped to keep 0 ** -1 out."""

    def u(x):
        X, Y = x[..., 0], x[..., 1]
        return (0.3 + X + 0.7 * Y) ** p + X ** (p - 1) * Y

    def grad(x):
        X, Y = x[..., 0], x[..., 1]
        g = p * (0.3 + X + 0.7 * Y) ** (p - 1)
        return np.stack(
            [g + (p - 1) * X ** max(p - 2, 0) * Y, 0.7 * g + X ** (p - 1)], axis=-1
        )

    def laplacian(x):
        X, Y = x[..., 0], x[..., 1]
        return (
            1.49 * p * (p - 1) * (0.3 + X + 0.7 * Y) ** max(p - 2, 0)
            + (p - 1) * (p - 2) * X ** max(p - 3, 0) * Y
        )

    def flux(x, n):
        return np.sum(grad(x) * n, axis=-1)

    def forcing(x):
        return -laplacian(x) + ALPHA * u(x)

    return u, flux, forcing


def condition(bc, u, flux, **form):
    if bc == "dirichlet":
        return DirichletBC(u, **form)
    if bc == "neumann":
        return NeumannBC(flux, **form)
    return RobinBC(u, flux, eps=ROBIN_EPS, **form)


def assert_reproduced(domain, conditions, u, forcing):
    problem = BoundaryProblem(conditions=conditions, forcing=forcing, alpha=ALPHA)
    system = assemble(domain, problem)
    u_h = solve_direct(system, compute_cond=False).u
    u_exact = u(system.dof_coords)
    error = np.abs(u_h - u_exact).max() / np.abs(u_exact).max()
    cond = condition_number(system.matrix)
    assert error <= C * EPS * cond, (error, cond)


@cache
def disk(method, order):
    return disk_fixture(method, 0.2, order)


@cache
def plate(method):
    # some of sbm-e's closest points on the straight sides land on the line
    # s = 1 of their owner's reference coordinates (to 1e-15), off the
    # collapsed vertex
    return square_with_hole_fixture(method, 0.2, 3)


@pytest.mark.parametrize("order", (1, 2, 4, 6))
@pytest.mark.parametrize("bc,form", FORM_CASES)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_disk_reproduces_degree_p(method, bc, form, order):
    u, flux, forcing = exact(order)
    conditions = [condition(bc, u, flux, form=form)]
    assert_reproduced(disk(method, order), conditions, u, forcing)


@pytest.mark.parametrize("bc", ("dirichlet", "neumann", "robin"))
@pytest.mark.parametrize("method", SBM_METHODS)
def test_plate_with_hole_reproduces_degree_p(method, bc):
    # each condition in its default form
    u, flux, forcing = exact(3)
    assert_reproduced(plate(method), [condition(bc, u, flux)], u, forcing)


@pytest.mark.parametrize("method", SBM_METHODS)
def test_plate_with_hole_mixed_where_reproduces_degree_p(method):
    # Dirichlet on the hole, picked by segment id; Neumann elsewhere
    u, flux, forcing = exact(3)
    conditions = [
        DirichletBC(u, where=Difference.INNER_OFFSET),
        NeumannBC(flux),
    ]
    assert_reproduced(plate(method), conditions, u, forcing)


@pytest.mark.parametrize("order", (3, 5))
@pytest.mark.parametrize("method", SBM_METHODS)
def test_random_embedding_circle_reproduces_degree_p(method, order):
    # the first circle random_embedding_assessment draws at seed 0
    lc = RANDOM_EMBEDDING_LC
    lo = FIXTURE_RADIUS + 2.0 * lc
    rng = np.random.default_rng(np.random.PCG64(0))
    center = rng.uniform(lo, SQUARE_SIDE - lo, size=2)
    mesh = generate_structured_square(lc, SQUARE_SIDE, SQUARE_SIDE)
    domain = build_surrogate(mesh, Circle(tuple(center), FIXTURE_RADIUS),
                             *METHODS[method][:2], order)
    u, flux, forcing = exact(order)
    assert_reproduced(domain, [DirichletBC(u)], u, forcing)
