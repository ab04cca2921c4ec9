"""Weak forms and system assembly."""

import numpy as np
import pytest

from sembed import assembly as assembly_mod
from sembed.assembly import (
    BoundaryProblem,
    DirichletBC,
    NeumannBC,
    RobinBC,
    DIRICHLET_FORMS,
    NEUMANN_FORMS,
    ROBIN_FORMS,
    assemble,
)
from sembed.embedding import build_surrogate, conformal_surrogate
from sembed.experiments import disk_fixture
from sembed.geometry import Circle
from sembed.meshing import generate_structured_disk, generate_structured_square
from sembed.mms import ManufacturedSolution
from sembed.refelem import ReferenceElement
from sembed.solve import solve_direct

CENTER = (0.5, 0.5)
RADIUS = 0.375


def conformal_domain(order=2, lc=0.15):
    mesh = generate_structured_disk(lc, RADIUS, CENTER)
    return conformal_surrogate(mesh, Circle(CENTER, RADIUS), order)


def embedded_domain(order=2, lc=0.15):
    mesh = generate_structured_square(lc, 1.0, 1.0)
    return build_surrogate(mesh, Circle(CENTER, RADIUS), "interpolation",
                           "in_element_equidistant", order)


def test_form_registries():
    assert DIRICHLET_FORMS == ("nitsche_nonsym", "nitsche_sym", "aubin")
    assert NEUMANN_FORMS == ("standard", "with_symmetric_penalty")
    assert set(ROBIN_FORMS) == {
        "inconsistent", "nitsche_corrected_coeffs",
        "nitsche_full_condition", "aubin",
    }


def test_unknown_forms_rejected():
    with pytest.raises(ValueError):
        DirichletBC(lambda x: x[..., 0], form="weird")
    with pytest.raises(ValueError):
        NeumannBC(lambda x: x[..., 0], form="weird")
    with pytest.raises(ValueError):
        RobinBC(lambda x: x[..., 0], lambda x: x[..., 0], eps=1.0, form="weird")


def test_pure_neumann_needs_anchor():
    with pytest.raises(ValueError):
        BoundaryProblem(conditions=[NeumannBC(lambda x: 0.0 * x[..., 0])])
    # alpha or a pin makes it well posed
    BoundaryProblem(conditions=[NeumannBC(lambda x: 0.0 * x[..., 0])], alpha=1.0)
    BoundaryProblem(conditions=[NeumannBC(lambda x: 0.0 * x[..., 0])],
                    pin=((0.5, 0.5), 0.0))


def test_untagged_boundary_edge_errors():
    domain = conformal_domain()
    problem = BoundaryProblem(
        conditions=[DirichletBC(lambda x: x[..., 0], where=lambda mid: False)],
        forcing=0.0,
    )
    with pytest.raises(ValueError, match="edge"):
        assemble(domain, problem)


def test_symmetric_nitsche_matrix_symmetry():
    domain = conformal_domain()
    problem = BoundaryProblem(
        conditions=[DirichletBC(lambda x: x[..., 0], form="nitsche_sym")],
    )
    a = assemble(domain, problem).matrix.toarray()
    assert np.abs(a - a.T).max() < 1e-12 * np.abs(a).max()


def test_linear_exactness_conformal_dirichlet():
    # u = 2x - y is in every trial space; conformal Dirichlet must
    # reproduce it to solver precision
    domain = conformal_domain(order=1, lc=0.2)
    exact = lambda x: 2.0 * x[..., 0] - x[..., 1]
    problem = BoundaryProblem(conditions=[DirichletBC(exact)], forcing=0.0)
    system = assemble(domain, problem)
    report = solve_direct(system, compute_cond=False)
    assert np.abs(report.u - exact(system.dof_coords)).max() < 1e-10


def test_linear_exactness_conformal_neumann():
    # u = x with q_N = n_x and a pin to fix the constant
    domain = conformal_domain(order=1, lc=0.2)
    exact = lambda x: x[..., 0]
    q = lambda x, n=None: n[..., 0] if n is not None else 0.0 * x[..., 0]
    problem = BoundaryProblem(
        conditions=[NeumannBC(q)], forcing=0.0,
        pin=((0.5, 0.5), 0.5),
    )
    system = assemble(domain, problem)
    report = solve_direct(system, compute_cond=False)
    assert np.abs(report.u - exact(system.dof_coords)).max() < 1e-9


def test_linear_exactness_sbm_dirichlet():
    # polynomial correction evaluates the trial polynomial at the mapped
    # point, so linears stay exact on the embedded fixture too
    domain = embedded_domain(order=1, lc=0.15)
    exact = lambda x: 2.0 * x[..., 0] - x[..., 1]
    problem = BoundaryProblem(conditions=[DirichletBC(exact)], forcing=0.0)
    system = assemble(domain, problem)
    report = solve_direct(system, compute_cond=False)
    assert np.abs(report.u - exact(system.dof_coords)).max() < 1e-9


def test_dirichlet_forms_consistent_for_mms():
    # residual of the exact interpolant shrinks with order
    mms = ManufacturedSolution(wavenumber=1)
    for form in DIRICHLET_FORMS:
        errs = []
        for order in (2, 4):
            domain = conformal_domain(order=order, lc=0.15)
            problem = BoundaryProblem(
                conditions=[DirichletBC(mms.u, form=form)],
                forcing=mms.forcing(0.0),
            )
            system = assemble(domain, problem)
            report = solve_direct(system, compute_cond=False)
            errs.append(np.abs(report.u - mms.u(system.dof_coords)).max())
        assert errs[1] < errs[0] * 0.05


def test_robin_matches_dirichlet_at_small_eps():
    mms = ManufacturedSolution(wavenumber=1)
    domain = conformal_domain(order=3, lc=0.15)
    q = mms.normal_derivative(Circle(CENTER, RADIUS))
    d_sys = assemble(domain, BoundaryProblem(
        conditions=[DirichletBC(mms.u, form="aubin")],
        forcing=mms.forcing(0.0)))
    r_sys = assemble(domain, BoundaryProblem(
        conditions=[RobinBC(mms.u, q, eps=1e-12, form="aubin")],
        forcing=mms.forcing(0.0)))
    ud = solve_direct(d_sys, compute_cond=False).u
    ur = solve_direct(r_sys, compute_cond=False).u
    assert np.abs(ud - ur).max() < 1e-8 * np.abs(ud).max()


def test_corrected_coeffs_guard_on_oblique_record():
    # fabricate a record with nbar.n below the guard threshold
    import dataclasses

    domain = embedded_domain(order=2, lc=0.15)
    rec = domain.records[0]
    bad_n = np.tile(rec.nbar * -1.0, (rec.n.shape[0], 1))  # anti-parallel
    records = (dataclasses.replace(rec, n=bad_n),) + tuple(domain.records[1:])
    domain = dataclasses.replace(domain, records=records)
    mms = ManufacturedSolution(wavenumber=1)
    q = mms.normal_derivative(Circle(CENTER, RADIUS))
    problem = BoundaryProblem(
        conditions=[RobinBC(mms.u, q, eps=1.0, form="nitsche_corrected_coeffs")],
    )
    with pytest.raises(ValueError, match="full"):
        assemble(domain, problem)


def test_gamma_validation():
    with pytest.raises(ValueError):
        BoundaryProblem(conditions=[DirichletBC(lambda x: x[..., 0])], gamma=-1.0)
    with pytest.raises(ValueError):
        BoundaryProblem(conditions=[DirichletBC(lambda x: x[..., 0])],
                        gamma_scaling="weird")


def test_assembly_deterministic():
    mms = ManufacturedSolution(wavenumber=1)
    domain = embedded_domain(order=3, lc=0.15)
    problem = BoundaryProblem(conditions=[DirichletBC(mms.u)],
                              forcing=mms.forcing(0.0))
    s1 = assemble(domain, problem)
    s2 = assemble(domain, problem)
    assert (s1.matrix != s2.matrix).nnz == 0
    assert np.array_equal(s1.rhs, s2.rhs)


def test_matrix_market_export(tmp_path):
    domain = conformal_domain(order=1, lc=0.25)
    problem = BoundaryProblem(conditions=[DirichletBC(lambda x: x[..., 0])])
    system = assemble(domain, problem)
    path = tmp_path / "system.mtx"
    system.export_matrix_market(path)
    from scipy.io import mmread

    back = mmread(str(path)).tocsr()
    assert np.abs((back - system.matrix)).max() < 1e-15


def _per_record_traces(domain, elem, rec):
    # The per-record basis evaluation that the domain's shared trace table
    # replaced, kept as the reference for it.
    binv = domain.mesh.affine_b_inv[rec.elem]
    vbar = elem.eval_basis(rec.rs_bar[:, 0], rec.rs_bar[:, 1])
    vmap = elem.eval_basis(rec.rs_map[:, 0], rec.rs_map[:, 1])
    gr, gs = elem.eval_basis_grad(rec.rs_bar[:, 0], rec.rs_bar[:, 1])
    gx = gr * binv[0, 0] + gs * binv[1, 0]
    gy = gr * binv[0, 1] + gs * binv[1, 1]
    gbarn = gx * rec.nbar[0] + gy * rec.nbar[1]
    gr, gs = elem.eval_basis_grad(rec.rs_map[:, 0], rec.rs_map[:, 1])
    gx = gr * binv[0, 0] + gs * binv[1, 0]
    gy = gr * binv[0, 1] + gs * binv[1, 1]
    gmapn = gx * rec.n[:, 0:1] + gy * rec.n[:, 1:2]
    return vbar, vmap, gbarn, gmapn


def _bc_problems(bc):
    mms = ManufacturedSolution(wavenumber=1)
    q = mms.normal_derivative(Circle(CENTER, RADIUS))
    if bc == "dirichlet":
        conds = [DirichletBC(mms.u, form=f) for f in DIRICHLET_FORMS]
    elif bc == "neumann":
        conds = [NeumannBC(q, form=f) for f in NEUMANN_FORMS]
    else:
        conds = [RobinBC(mms.u, q, eps=0.1, form=f) for f in ROBIN_FORMS]
    alpha = 1.0 if bc == "neumann" else 0.0
    return [
        BoundaryProblem(conditions=[c], forcing=mms.forcing(alpha), alpha=alpha)
        for c in conds
    ]


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin"])
@pytest.mark.parametrize("method", ["cbm", "sbm-e", "sbm-ei", "sbm-i"])
def test_trace_table_matches_per_record_oracle(monkeypatch, method, bc):
    domain = disk_fixture(method, 0.15, 3)
    problems = _bc_problems(bc)
    table = [assemble(domain, p) for p in problems]
    monkeypatch.setattr(assembly_mod, "_elem_traces", _per_record_traces)
    for problem, new in zip(problems, table):
        old = assemble(domain, problem)
        a_scale = abs(old.matrix).max()
        assert abs(new.matrix - old.matrix).max() <= 1e-12 * a_scale
        b_scale = np.abs(old.rhs).max()
        assert np.abs(new.rhs - old.rhs).max() <= 1e-12 * b_scale


def test_elem_traces_is_the_boundary_seam(monkeypatch):
    # Criterion 06 swaps assembly._elem_traces for its Taylor oracle; if
    # assemble stopped taking its traces from that name, the criterion
    # would compare a system with itself.
    domain = embedded_domain(order=2)
    problem = BoundaryProblem(conditions=[DirichletBC(lambda x: x[..., 0])])
    base = assemble(domain, problem)

    def zero_traces(dom, elem, rec):
        zero = np.zeros((rec.w.size, elem.n_points))
        return zero, zero, zero, zero

    monkeypatch.setattr(assembly_mod, "_elem_traces", zero_traces)
    hollow = assemble(domain, problem)
    assert abs(hollow.matrix - base.matrix).max() > 0
    assert np.abs(hollow.rhs - base.rhs).max() > 0


def test_traces_evaluated_once_per_domain(monkeypatch):
    calls = []
    eval_basis = ReferenceElement.eval_basis

    def counting(self, r, s):
        calls.append(np.size(r))
        return eval_basis(self, r, s)

    monkeypatch.setattr(ReferenceElement, "eval_basis", counting)
    domain = embedded_domain(order=2)
    for form in DIRICHLET_FORMS:
        assemble(domain, BoundaryProblem(
            conditions=[DirichletBC(lambda x: x[..., 0], form=form)]))
    n_points = sum(rec.w.size for rec in domain.records)
    assert calls == [n_points, n_points]  # x_bar and mapped x, all records


def test_flux_type_error_propagates_without_retry():
    calls = []

    def q(x, n):
        calls.append(n)
        raise TypeError("fault inside the flux data")

    domain = conformal_domain(order=1, lc=0.25)
    problem = BoundaryProblem(conditions=[NeumannBC(q)], alpha=1.0)
    with pytest.raises(TypeError, match="fault inside"):
        assemble(domain, problem)
    assert len(calls) == 1


def test_flux_arity_from_signature():
    # normal_derivative(None) has no geometry to fall back on, so it only
    # evaluates when assemble passes the quadrature normals
    mms = ManufacturedSolution(wavenumber=1)
    q = mms.normal_derivative(None)
    domain = embedded_domain(order=2)
    for cond in (NeumannBC(q), RobinBC(mms.u, q, eps=1.0)):
        assemble(domain, BoundaryProblem(conditions=[cond], alpha=1.0))
    # data taking points only is still called with points only
    only_x = NeumannBC(lambda x: np.zeros(len(x)))
    assemble(domain, BoundaryProblem(conditions=[only_x], alpha=1.0))
