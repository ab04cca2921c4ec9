"""Weak forms and system assembly."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

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
    build_dof_map,
)
from sembed.embedding import build_surrogate, conformal_surrogate
from sembed.experiments import disk_fixture, embedded_disk_fixture
from sembed.geometry import Circle
from sembed.meshing import (
    TriMesh,
    generate_structured_disk,
    generate_structured_square,
)
from sembed.mms import ManufacturedSolution, l1_error
from sembed.refelem import ReferenceElement, build_reference_element
from sembed.solve import solve_direct


def geometric_dof_map(domain):
    # The geometric-hash numbering that topological numbering replaced,
    # kept as the reference for it: element-local nodes merged when their
    # physical points agree to 1e-10 h_min.
    mesh = domain.mesh
    elem = build_reference_element(domain.order)
    rs = np.column_stack([elem.r, elem.s])
    tol = max(1e-10 * mesh.h_min, 1e-14)
    inv_cell = 1.0 / tol

    table: dict[tuple[int, int], int] = {}
    coords: list[np.ndarray] = []
    loc2glob = np.empty((domain.n_active, elem.n_points), dtype=np.int64)
    for row, n in enumerate(domain.active):
        pts = mesh.to_physical(n, rs)
        for k, p in enumerate(pts):
            ci = int(np.floor(p[0] * inv_cell))
            cj = int(np.floor(p[1] * inv_cell))
            found = -1
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    g = table.get((ci + di, cj + dj))
                    if g is not None and np.linalg.norm(coords[g] - p) <= tol:
                        found = g
                        break
                if found >= 0:
                    break
            if found < 0:
                found = len(coords)
                coords.append(p)
                table[(ci, cj)] = found
            loc2glob[row, k] = found
    return loc2glob, np.array(coords)

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


@pytest.mark.parametrize("eps", [0.0, -1.0, lambda x: 1.0 + 0.0 * x[..., 0]])
def test_robin_eps_must_be_a_positive_number(eps):
    with pytest.raises(ValueError, match="eps"):
        RobinBC(lambda x: x[..., 0], lambda x, n: 0.0 * x[..., 0], eps=eps)


def test_where_must_be_a_segment_id():
    with pytest.raises(ValueError, match="where"):
        BoundaryProblem(conditions=[DirichletBC(lambda x: x[..., 0], where=lambda mid: True)])


def test_pure_neumann_needs_anchor():
    with pytest.raises(ValueError):
        BoundaryProblem(conditions=[NeumannBC(lambda x: 0.0 * x[..., 0])])
    # a reaction term makes it well posed
    BoundaryProblem(conditions=[NeumannBC(lambda x: 0.0 * x[..., 0])], alpha=1.0)


def test_untagged_boundary_edge_errors():
    domain = conformal_domain()
    problem = BoundaryProblem(
        # no record lies on segment 7
        conditions=[DirichletBC(lambda x: x[..., 0], where=7)],
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
    # u = x with q_N = n_x; the reaction term alpha u = f fixes the constant
    domain = conformal_domain(order=1, lc=0.2)
    exact = lambda x: x[..., 0]
    q = lambda x, n: n[..., 0]
    problem = BoundaryProblem(conditions=[NeumannBC(q)], forcing=exact, alpha=1.0)
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
    records = domain.records
    bad_n = records.n.copy()
    bad_n[0] = records.nbar[0] * -1.0  # anti-parallel on the first record
    records = dataclasses.replace(records, n=bad_n)
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


def _per_record_traces(domain, elem, rec):
    # The per-record basis evaluation that the domain's shared trace table
    # replaced, kept as the reference for it.
    binv = domain.mesh.affine_b_inv[rec.elem]
    vbar = elem.eval_basis(rec.rs_bar[:, 0], rec.rs_bar[:, 1])
    vmap = elem.eval_basis(rec.rs_map[:, 0], rec.rs_map[:, 1])
    _, gr, gs = elem.eval_basis_grad(rec.rs_bar[:, 0], rec.rs_bar[:, 1])
    gx = gr * binv[0, 0] + gs * binv[1, 0]
    gy = gr * binv[0, 1] + gs * binv[1, 1]
    gbarn = gx * rec.nbar[0] + gy * rec.nbar[1]
    _, gr, gs = elem.eval_basis_grad(rec.rs_map[:, 0], rec.rs_map[:, 1])
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


def test_elem_traces_called_once_per_record(monkeypatch):
    calls = []
    elem_traces = assembly_mod._elem_traces

    def counting(dom, elem, rec):
        calls.append(int(rec.edge))
        return elem_traces(dom, elem, rec)

    monkeypatch.setattr(assembly_mod, "_elem_traces", counting)
    domain = embedded_domain(order=2)
    for form in DIRICHLET_FORMS:
        calls.clear()
        assemble(domain, BoundaryProblem(
            conditions=[DirichletBC(lambda x: x[..., 0], form=form)]))
        assert calls == domain.records.edge.tolist()


def test_traces_evaluated_once_per_domain(monkeypatch):
    calls = []
    eval_basis_grad = ReferenceElement.eval_basis_grad

    def counting(self, r, s):
        calls.append(np.size(r))
        return eval_basis_grad(self, r, s)

    monkeypatch.setattr(ReferenceElement, "eval_basis_grad", counting)
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


@pytest.mark.parametrize("kind", ["scalar", "array"])
def test_flux_values_assemble_like_a_callable_returning_them(kind):
    # NeumannBC.data may be a scalar or an (n_rec, nq) array over all
    # records instead of a callable q(x, n)
    mms = ManufacturedSolution(wavenumber=1)
    domain = disk_fixture("sbm-i", 0.2, 2)
    rec = domain.records
    if kind == "scalar":
        data = 0.7
        values = np.full(rec.w.shape, 0.7)
    else:
        q = mms.normal_derivative(Circle(CENTER, RADIUS))
        data = q(rec.x.reshape(-1, 2), rec.n.reshape(-1, 2)).reshape(rec.w.shape)
        values = data
    for form in NEUMANN_FORMS:
        got, want = (
            assemble(domain, BoundaryProblem(
                conditions=[NeumannBC(d, form=form)],
                forcing=mms.forcing(1.0), alpha=1.0))
            for d in (data, lambda x, n: values.ravel())
        )
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got.matrix, name), getattr(want.matrix, name)
            assert a.tobytes() == b.tobytes(), (form, name)
        assert got.rhs.tobytes() == want.rhs.tobytes(), form


@pytest.mark.parametrize("extra", [(7, 0), (0, 1), (-1, 0)])
@pytest.mark.parametrize("make", [
    lambda a: DirichletBC(a),
    lambda a: NeumannBC(a),
    lambda a: RobinBC(a, 0.0, eps=1.0),
    lambda a: RobinBC(0.0, a, eps=1.0),
], ids=["dirichlet", "neumann", "robin-u", "robin-q"])
def test_array_data_of_the_wrong_shape_is_rejected(make, extra):
    # an array data table must be (n_rec, nq); a longer one used to
    # assemble from its first n_rec rows
    domain = disk_fixture("sbm-i", 0.2, 2)
    n_rec, nq = domain.records.w.shape
    shape = (n_rec + extra[0], nq + extra[1])
    problem = BoundaryProblem(conditions=[make(np.zeros(shape))], alpha=1.0)
    with pytest.raises(ValueError, match=re.escape(
            f"boundary data of shape {shape}, expected {(n_rec, nq)}")):
        assemble(domain, problem)


def test_mapped_point_past_the_extrapolation_guard_is_rejected():
    domain = disk_fixture("sbm-e", 0.2, 2)
    rec = domain.records
    i = len(rec) // 2
    rs_map = rec.rs_map.copy()
    rs_map[i] += (30.0, 0.0)  # barycentric magnitude about 16
    far = replace(domain, records=replace(rec, rs_map=rs_map))
    problem = BoundaryProblem(conditions=[DirichletBC(lambda x: x[..., 0])])
    assemble(domain, problem)
    with pytest.raises(ValueError, match=(
            rf"^edge {rec.edge[i]}: mapped point far outside element "
            rf"{rec.elem[i]} \(barycentric magnitude")):
        assemble(far, problem)


def test_flux_arity_from_signature():
    # normal_derivative(None) has no geometry to fall back on, so it only
    # evaluates because assemble always passes the quadrature normals
    mms = ManufacturedSolution(wavenumber=1)
    q = mms.normal_derivative(None)
    domain = embedded_domain(order=2)
    for cond in (NeumannBC(q), RobinBC(mms.u, q, eps=1.0)):
        assemble(domain, BoundaryProblem(conditions=[cond], alpha=1.0))


METHODS = ["cbm", "sbm-e", "sbm-ei", "sbm-i"]


def _assert_matches_geometric_oracle(domain):
    loc2glob, coords = build_dof_map(domain)
    ref_l2g, ref_coords = geometric_dof_map(domain)
    assert loc2glob.dtype == ref_l2g.dtype
    assert np.array_equal(loc2glob, ref_l2g)
    assert np.array_equal(coords, ref_coords)  # bitwise, not to a tolerance


@pytest.mark.parametrize("order", range(1, 11))
@pytest.mark.parametrize("method", METHODS)
def test_dof_map_matches_geometric_oracle(method, order):
    _assert_matches_geometric_oracle(disk_fixture(method, 0.3, order))
    if method != "cbm":
        _assert_matches_geometric_oracle(
            embedded_disk_fixture(method, 0.3, order)
        )


def test_dof_map_on_shuffled_relabelled_mesh():
    # element rows shuffled and each rotated, vertex ids permuted: the
    # numbering follows the element order and vertex ids it is given
    rng = np.random.default_rng(7)
    base = generate_structured_square(0.25, 1.0, 1.0)
    rows = rng.permutation(base.n_elements)
    shift = rng.integers(0, 3, base.n_elements)
    rotated = np.take_along_axis(
        base.elements[rows], (np.arange(3) + shift[:, None]) % 3, axis=1
    )
    perm = rng.permutation(base.vertices.shape[0])
    relabel = np.argsort(perm)
    mesh = TriMesh(base.vertices[perm], relabel[rotated])
    circle = Circle(CENTER, RADIUS)
    for order in (1, 3, 6):
        _assert_matches_geometric_oracle(conformal_surrogate(mesh, None, order))
        for mode in ("extrapolation", "interpolation"):
            _assert_matches_geometric_oracle(
                build_surrogate(mesh, circle, mode, "closest_point", order)
            )


@pytest.mark.parametrize("method", METHODS)
def test_dof_positions_agree_across_elements(method):
    # C0: every element holding a global DOF places it at the same point
    for order in (2, 7, 10):
        domain = disk_fixture(method, 0.3, order)
        loc2glob, coords = build_dof_map(domain)
        elem = build_reference_element(order)
        points = domain.mesh.to_physical(
            domain.active, np.column_stack([elem.r, elem.s])
        )
        gap = np.abs(points - coords[loc2glob]).max()
        assert gap <= 1e-12 * domain.mesh.h_min
        # and no two DOFs share a point
        assert np.unique(coords, axis=0).shape[0] == coords.shape[0]


def test_dof_numbering_follows_connectivity_not_coordinates():
    # two triangles on one square; the second's corners are separate
    # vertex ids at the same points, so the shared edge is two sets of DOFs
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    joined = TriMesh(v, [[0, 1, 2], [0, 2, 3]])
    split = TriMesh(np.vstack([v, v[[0, 2]]]), [[0, 1, 2], [4, 5, 3]])
    for mesh, n_dof in ((joined, 9), (split, 12)):
        domain = conformal_surrogate(mesh, None, 2)
        assert build_dof_map(domain)[1].shape[0] == n_dof


def _per_element_volume(domain, problem, loc2glob, n_dof):
    # The per-element volume loop that the batched reference-matrix form
    # replaced, kept as the reference for it.
    mesh = domain.mesh
    elem = build_reference_element(domain.order)
    rows, cols, vals = [], [], []
    rhs = np.zeros(n_dof)
    phi, cw = elem.cub_basis, elem.cub_w
    rs_cub = np.column_stack([elem.cub_r, elem.cub_s])
    for row, n in enumerate(domain.active):
        binv = mesh.affine_b_inv[n]
        jac = abs(mesh.jacobian[n])
        gx = elem.cub_dr * binv[0, 0] + elem.cub_ds * binv[1, 0]
        gy = elem.cub_dr * binv[0, 1] + elem.cub_ds * binv[1, 1]
        block = jac * (
            (gx * cw[:, None]).T @ gx
            + (gy * cw[:, None]).T @ gy
            + problem.alpha * (phi * cw[:, None]).T @ phi
        )
        r, c = np.meshgrid(loc2glob[row], loc2glob[row], indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(block.ravel())
        fq = np.asarray(problem.forcing(mesh.to_physical(n, rs_cub)))
        rhs[loc2glob[row]] += jac * phi.T @ (cw * fq)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_dof, n_dof),
    ).tocsr()
    return matrix, rhs


def _per_element_l1(domain, system, u_vec, exact_u):
    mesh = domain.mesh
    elem = build_reference_element(domain.order)
    rs = np.column_stack([elem.cub_r, elem.cub_s])
    total = 0.0
    for row, n in enumerate(domain.active):
        uh = elem.cub_basis @ u_vec[system.loc2glob[row]]
        ue = np.asarray(exact_u(mesh.to_physical(n, rs)), dtype=float)
        total += abs(mesh.jacobian[n]) * float(elem.cub_w @ np.abs(uh - ue))
    return total


@pytest.mark.parametrize("method", METHODS)
def test_volume_terms_and_l1_match_per_element_oracle(monkeypatch, method):
    mms = ManufacturedSolution(wavenumber=1)
    for order in (1, 4):
        domain = disk_fixture(method, 0.2, order)
        problem = BoundaryProblem(
            conditions=[DirichletBC(mms.u)], forcing=mms.forcing(0.5),
            alpha=0.5,
        )
        system = assemble(domain, problem)
        u = solve_direct(system, compute_cond=False).u
        got = l1_error(domain, system, u, mms.u)
        want = _per_element_l1(domain, system, u, mms.u)
        assert abs(got - want) <= 1e-12 * want

        # zero boundary traces leave only the volume terms
        with monkeypatch.context() as m:
            m.setattr(assembly_mod, "_elem_traces", lambda dom, el, rec: (
                (np.zeros((rec.w.size, el.n_points)),) * 4))
            volume = assemble(domain, problem)
        matrix, rhs = _per_element_volume(
            domain, problem, volume.loc2glob, volume.rhs.size
        )
        assert abs(volume.matrix - matrix).max() <= 1e-12 * abs(matrix).max()
        assert np.abs(volume.rhs - rhs).max() <= 1e-12 * np.abs(rhs).max()
