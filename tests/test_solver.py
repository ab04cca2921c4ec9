"""Linear solve and condition number estimation."""

import numpy as np
import pytest
import scipy.sparse as sp

from sembed.assembly import BoundaryProblem, DirichletBC, assemble
from sembed.embedding import conformal_surrogate
from sembed.geometry import Circle
from sembed.meshing import generate_structured_disk
from sembed.mms import ManufacturedSolution
from sembed.solve import SVD_LIMIT, condition_number, solve_direct


def small_system(order=2, lc=0.2):
    mesh = generate_structured_disk(lc, 0.375, (0.5, 0.5))
    domain = conformal_surrogate(mesh, Circle((0.5, 0.5), 0.375), order)
    mms = ManufacturedSolution(wavenumber=1)
    problem = BoundaryProblem(conditions=[DirichletBC(mms.u)],
                              forcing=mms.forcing(0.0))
    return assemble(domain, problem), mms


def test_condition_number_diagonal_exact():
    d = sp.diags([1.0, 2.0, 10.0]).tocsr()
    assert condition_number(d, "svd") == pytest.approx(10.0, rel=1e-12)
    assert condition_number(d, "one_norm_estimate") == pytest.approx(10.0, rel=1e-12)


def test_condition_methods_agree_in_order_of_magnitude():
    system, _ = small_system()
    svd = condition_number(system.matrix, "svd")
    est = condition_number(system.matrix, "one_norm_estimate")
    assert 0.1 < est / svd < 10.0


def test_method_auto_switch():
    system, _ = small_system()
    n = system.rhs.size
    assert n < SVD_LIMIT  # this fixture goes down the dense path
    report = solve_direct(system)
    assert report.cond_method == "svd"


def test_cond_method_none_when_not_computed():
    system, _ = small_system()
    report = solve_direct(system, compute_cond=False)
    assert report.cond_method == "none"
    assert np.isnan(report.cond)


def test_solve_residual_small():
    system, mms = small_system()
    report = solve_direct(system)
    assert report.residual_inf < 1e-10
    assert report.factorization == "splu"
    assert not report.ill_conditioned


def test_solution_matches_mms():
    system, mms = small_system(order=4, lc=0.15)
    report = solve_direct(system, compute_cond=False)
    assert report.cond is None or np.isnan(report.cond)
    err = np.abs(report.u - mms.u(system.dof_coords)).max()
    assert err < 1e-4


def test_unknown_cond_method_rejected():
    d = sp.eye(3, format="csr")
    with pytest.raises(ValueError):
        condition_number(d, "magic")
