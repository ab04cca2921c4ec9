"""The batched boundary assembly against the per-record loop it replaced:
matrices and right-hand sides must agree bit for bit."""

import numpy as np
import pytest

from sembed import experiments
from sembed.assembly import (
    DIRICHLET_FORMS,
    EXTRAPOLATION_GUARD,
    MIN_NORMAL_ALIGNMENT,
    NEUMANN_FORMS,
    ROBIN_FORMS,
    AssembledSystem,
    BoundaryProblem,
    DirichletBC,
    NeumannBC,
    RobinBC,
    _scatter,
    assemble,
    build_dof_map,
)
from sembed.experiments import (
    FIXTURE_CENTER,
    FIXTURE_RADIUS,
    PLATE_WITH_HOLE,
    disk_fixture,
    square_with_hole_fixture,
)
from sembed.geometry import Circle, Difference
from sembed.mms import ManufacturedSolution
from sembed.refelem import barycentric, build_reference_element

# ---------------------------------------------------------------------------
# The per-record assembly: one record at a time, each record's traces read
# from its rows of the domain's trace table, array data indexed by record.


def _condition_of(problem, rec):
    # the segment id at the record's middle quadrature point picks the
    # first condition whose `where` is None or that id
    seg = rec.segment[len(rec.segment) // 2]
    for cond in problem.conditions:
        if cond.where is None or cond.where == seg:
            return cond
    return None


def _eval_field(data, i, points):
    if callable(data):
        return np.asarray(data(points), dtype=float)
    data = np.asarray(data, dtype=float)
    return data[i] if data.ndim else np.full(points.shape[0], float(data))


def _eval_flux(data, i, rec):
    if callable(data):
        return np.asarray(data(rec.x, rec.n), dtype=float)
    return _eval_field(data, i, rec.x)


def per_record_assemble(domain, problem):
    mesh = domain.mesh
    elem = build_reference_element(domain.order)
    loc2glob, dof_coords = build_dof_map(domain)
    n_dof = dof_coords.shape[0]

    cw = elem.cub_w[:, None]
    dr, ds, phi = elem.cub_dr, elem.cub_ds, elem.cub_basis
    pairs = ((dr, dr), (dr, ds), (ds, dr), (ds, ds), (phi, phi))
    ref = np.stack([(a * cw).T @ b for a, b in pairs]).reshape(len(pairs), -1)
    active = domain.active
    binv = mesh.affine_b_inv[active]
    jac = np.abs(mesh.jacobian[active])
    g = (binv @ binv.transpose(0, 2, 1)).reshape(-1, 4)
    coeffs = np.column_stack([g, np.full(active.size, problem.alpha)])
    blocks = (jac[:, None] * coeffs) @ ref
    batches = [(loc2glob, blocks.reshape(-1, elem.n_points, elem.n_points))]

    rs_cub = np.column_stack([elem.cub_r, elem.cub_s])
    xq = mesh.to_physical(active, rs_cub).reshape(-1, 2)
    f = problem.forcing
    fq = np.asarray(f(xq) if callable(f) else f, dtype=float)
    fq = np.broadcast_to(fq, xq.shape[:1]).reshape(active.size, -1)
    local = (jac[:, None] * elem.cub_w * fq) @ phi
    rhs = np.bincount(loc2glob.ravel(), weights=local.ravel(), minlength=n_dof)

    gamma_global = problem.gamma if problem.gamma is not None else domain.h_avg / 2.0
    traces = domain.traces

    for i, rec in enumerate(domain.records):
        cond = _condition_of(problem, rec)
        assert cond is not None
        assert np.abs(barycentric(rec.rs_map)).max() <= EXTRAPOLATION_GUARD

        if problem.gamma_scaling == "local":
            c_gamma = problem.gamma if problem.gamma is not None else 0.5
            gamma = c_gamma * float(mesh.h_elem[rec.elem])
        else:
            gamma = gamma_global

        vbar, vmap = traces.vbar[i], traces.vmap[i]
        gbarn, gmapn = traces.gbarn[i], traces.gmapn[i]
        gdofs = loc2glob[domain.active_row[rec.elem]]
        w = rec.w
        block = np.zeros((elem.n_points, elem.n_points))
        bvec = np.zeros(elem.n_points)

        if isinstance(cond, DirichletBC):
            ud = _eval_field(cond.data, i, rec.x)
            block -= (vbar * w[:, None]).T @ gbarn
            if cond.form == "nitsche_nonsym":
                block += (vbar * w[:, None]).T @ vmap / gamma
                block -= (gbarn * w[:, None]).T @ vmap
                bvec += vbar.T @ (w * ud) / gamma - gbarn.T @ (w * ud)
            elif cond.form == "nitsche_sym":
                block += (vmap * w[:, None]).T @ vmap / gamma
                block -= (gbarn * w[:, None]).T @ vmap
                bvec += vmap.T @ (w * ud) / gamma - gbarn.T @ (w * ud)
            else:  # aubin
                block += (vbar * w[:, None]).T @ vmap / gamma
                bvec += vbar.T @ (w * ud) / gamma

        elif isinstance(cond, NeumannBC):
            qn = _eval_flux(cond.data, i, rec)
            nn = (rec.nbar * rec.n).sum(axis=1)
            block -= (vbar * w[:, None]).T @ gbarn
            block += (vbar * (w * nn)[:, None]).T @ gmapn
            bvec += vbar.T @ (w * nn * qn)
            if cond.form == "with_symmetric_penalty":
                block -= gamma * (gbarn * (w * nn)[:, None]).T @ gmapn
                bvec -= gamma * gbarn.T @ (w * nn * qn)

        else:
            ud = _eval_field(cond.u_data, i, rec.x)
            qn = _eval_flux(cond.q_data, i, rec)
            eps = _eval_field(cond.eps, i, rec.x)
            nn = (rec.nbar * rec.n).sum(axis=1)

            test = vmap / gamma
            if cond.form != "aubin":
                test = test - gbarn
            block -= (vbar * w[:, None]).T @ gbarn

            if cond.form == "inconsistent":
                c1 = gamma / (gamma + eps)
                c2 = gamma * eps / (gamma + eps) * nn
                qdat = c2 * qn
            elif cond.form == "nitsche_corrected_coeffs":
                assert np.all(nn >= MIN_NORMAL_ALIGNMENT)
                gb = nn * gamma
                c1 = gb / (gb + eps)
                c2 = gb * eps / (gb + eps)
                qdat = c2 * qn
            else:  # nitsche_full_condition, aubin
                c1 = gamma / (gamma + eps)
                c2 = gamma * eps / (gamma + eps)
                qdat = c2 * qn

            block += (test * (w * c1)[:, None]).T @ vmap
            block += (test * (w * c2)[:, None]).T @ gmapn
            bvec += test.T @ (w * c1 * ud) + test.T @ (w * qdat)

        batches.append((gdofs[None], block[None]))
        rhs[gdofs] += bvec

    return AssembledSystem(
        matrix=_scatter(n_dof, batches), rhs=rhs, dof_coords=dof_coords,
        loc2glob=loc2glob, gamma=gamma_global,
    )


# ---------------------------------------------------------------------------


def assert_bitwise_equal(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.rhs.tobytes() == want.rhs.tobytes()


@pytest.fixture
def checked(monkeypatch):
    """Route the experiment drivers' assemblies through a check against the
    per-record loop; returns the list of checked systems."""
    systems = []

    def assemble_and_check(domain, problem):
        got = assemble(domain, problem)
        assert_bitwise_equal(got, per_record_assemble(domain, problem))
        systems.append(got)
        return got

    monkeypatch.setattr(experiments, "assemble", assemble_and_check)
    return systems


def _conditions():
    mms = ManufacturedSolution(wavenumber=1)
    q = mms.normal_derivative(Circle(FIXTURE_CENTER, FIXTURE_RADIUS))
    for form in DIRICHLET_FORMS:
        yield DirichletBC(mms.u, form=form), 0.0
    for form in NEUMANN_FORMS:
        yield NeumannBC(q, form=form), 1.0
    for form in ROBIN_FORMS:
        yield RobinBC(mms.u, q, eps=0.1, form=form), 0.0


@pytest.mark.parametrize("scaling", ["avg", "local"])
@pytest.mark.parametrize("method", ["cbm", "sbm-e", "sbm-ei", "sbm-i"])
def test_every_form_matches_per_record_loop(method, scaling):
    mms = ManufacturedSolution(wavenumber=1)
    domain = disk_fixture(method, 0.2, 3)
    for cond, alpha in _conditions():
        problem = BoundaryProblem(
            conditions=[cond], forcing=mms.forcing(alpha), alpha=alpha,
            gamma_scaling=scaling,
        )
        assert_bitwise_equal(assemble(domain, problem),
                             per_record_assemble(domain, problem))


def test_high_order_disk_cells_match_per_record_loop():
    mms = ManufacturedSolution(wavenumber=5)
    problem = BoundaryProblem(
        conditions=[DirichletBC(mms.u, form="nitsche_nonsym")],
        forcing=mms.forcing(0.0),
    )
    for order, lc in ((4, 0.05), (4, 0.025), (8, 0.05)):
        domain = disk_fixture("sbm-i", lc, order)
        assert_bitwise_equal(assemble(domain, problem),
                             per_record_assemble(domain, problem))


def test_random_circles_match_per_record_loop(checked):
    experiments.random_embedding_assessment(n_circles=6, orders=(3, 5))
    assert len(checked) == 6 * 6


@pytest.mark.parametrize("swap", [False, True])
def test_mixed_conditions_match_per_record_loop(checked, swap):
    # two Robin conditions picked per record by segment id
    experiments.mixed_dirichlet_neumann(swap=swap)
    assert len(checked) == 3


def test_cascade_data_arrays_match_per_record_loop(checked):
    # the cascade's modes 1 and 2 take (n_rec, nq) data arrays
    experiments.ap_cascade_slopes()
    assert len(checked) == 6


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin"])
def test_degenerate_records_match_per_record_loop(checked, bc):
    experiments.aligned_degeneration(bc=bc)
    assert len(checked) == 4


@pytest.mark.parametrize("hole_first", [True, False])
def test_condition_order_matches_per_record_loop(hole_first):
    # the hole's condition before a catch-all takes the hole's records;
    # after it, the catch-all has taken every record already
    mms = ManufacturedSolution(wavenumber=1)
    q = mms.normal_derivative(PLATE_WITH_HOLE)
    hole = RobinBC(mms.u, q, eps=1e10, where=Difference.INNER_OFFSET)
    catch_all = RobinBC(mms.u, q, eps=1e-10)
    domain = square_with_hole_fixture("sbm-i", 0.2, 2)
    mid = domain.records.segment[:, domain.records.segment.shape[1] // 2]
    assert (mid == Difference.INNER_OFFSET).any()
    assert (mid != Difference.INNER_OFFSET).any()

    conditions = [hole, catch_all] if hole_first else [catch_all, hole]
    problem = BoundaryProblem(conditions=conditions, forcing=mms.forcing(0.0))
    got = assemble(domain, problem)
    assert_bitwise_equal(got, per_record_assemble(domain, problem))

    only = assemble(domain, BoundaryProblem(conditions=[catch_all],
                                            forcing=mms.forcing(0.0)))
    if hole_first:
        assert got.rhs.tobytes() != only.rhs.tobytes()
    else:
        assert_bitwise_equal(got, only)
