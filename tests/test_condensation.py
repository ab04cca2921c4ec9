"""Static condensation of element-interior nodes in the condition-free solve,
and the symmetric-mode factor of systems without element matrices.

The plain LU of the full matrix stays the oracle: the refined solution of
either path must match it, and must be no less accurate than it where the
systems are worst conditioned.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sembed.experiments as experiments
import sembed.solve as solve
from sembed.assembly import BoundaryProblem, DirichletBC, NeumannBC, assemble
from sembed.mms import ManufacturedSolution
from sembed.solve import MAX_REFINEMENT_STEPS, solve_direct

MMS = ManufacturedSolution(wavenumber=1)
DIRICHLET = BoundaryProblem(conditions=[DirichletBC(MMS.u)], forcing=MMS.forcing(0.0))


def plain_splu(system):
    """The oracle: splu of the full matrix."""
    return spla.splu(sp.csc_matrix(system.matrix)).solve(system.rhs)


def scatter(system):
    """The element matrices summed into one global matrix."""
    blocks, loc2glob = system.elem_matrices, system.loc2glob
    rows = np.broadcast_to(loc2glob[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(loc2glob[:, None, :], blocks.shape).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=system.matrix.shape).tocsr()


METHODS = ["cbm", "sbm-e", "sbm-ei", "sbm-i"]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("order", [3, 5, 8])
def test_condensed_matches_plain_splu(method, order):
    system = assemble(experiments.disk_fixture(method, 0.1, order), DIRICHLET)
    report = solve_direct(system, compute_cond=False)
    assert report.factorization == "splu-condensed"
    assert 1 <= report.refinement_steps <= MAX_REFINEMENT_STEPS
    expected = plain_splu(system)
    # the largest difference seen is 1.1e-11 relative, at sbm-e P 8
    assert np.abs(report.u - expected).max() <= 1e-9 * np.abs(expected).max()
    assert not report.ill_conditioned


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("order", [3, 8])
def test_element_matrices_scatter_to_the_system_matrix(method, order):
    domain = experiments.disk_fixture(method, 0.1, order)
    system = assemble(domain, DIRICHLET)
    assert system.elem_matrices.shape == (domain.active.size,) + system.loc2glob.shape[1:] * 2
    difference = abs(scatter(system) - system.matrix).max()
    assert difference <= 1e-13 * abs(system.matrix).max()


def test_low_order_systems_take_the_plain_path():
    # without element matrices the full matrix is factored in symmetric mode
    # and refined; plain LU stays the oracle
    for domain in (experiments.disk_fixture("sbm-i", 0.1, 2),
                   experiments.disk_fixture("cbm", 0.1, 1)):
        system = assemble(domain, DIRICHLET)
        assert system.elem_matrices is None
        report = solve_direct(system, compute_cond=False)
        assert report.factorization == "splu-symmetric"
        assert 1 <= report.refinement_steps <= MAX_REFINEMENT_STEPS
        expected = plain_splu(system)
        assert np.abs(report.u - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("order, path", [(2, "splu-symmetric"), (4, "splu-condensed")])
def test_symmetric_mode_blocking_keeps_the_fill_and_the_solution(order, path, monkeypatch):
    # A of the P 2 disk and S of the P 4 disk at lc 0.05: SYMMETRIC_SPLU's
    # relax / panel_size fill no more than SuperLU's defaults, and the
    # refined solution stays on plain LU's
    system = assemble(experiments.disk_fixture("sbm-i", 0.05, order), DIRICHLET)
    factored = []
    factorize = solve._factorize
    monkeypatch.setattr(solve, "_factorize", lambda matrix, **options: (
        factored.append(matrix) or factorize(matrix, **options)))
    report = solve_direct(system, compute_cond=False)
    assert report.factorization == path
    (matrix,) = factored

    def fill(**options):
        lu = spla.splu(sp.csc_matrix(matrix), **options)
        return lu.L.nnz + lu.U.nnz

    defaults = {k: v for k, v in solve.SYMMETRIC_SPLU.items()
                if k not in ("relax", "panel_size")}
    assert fill(**solve.SYMMETRIC_SPLU) <= fill(**defaults)
    expected = plain_splu(system)
    assert np.abs(report.u - expected).max() <= 1e-12 * np.abs(expected).max()


def test_condition_number_solve_with_element_matrices_stays_on_colamd():
    system = assemble(experiments.disk_fixture("sbm-i", 0.05, 4), DIRICHLET)
    assert system.elem_matrices is not None
    report = solve_direct(system)
    assert report.factorization == "splu"
    assert report.refinement_steps == 0
    assert np.array_equal(report.u, plain_splu(system))


def test_dimensions_are_checked_before_any_factorization(monkeypatch):
    system = assemble(experiments.disk_fixture("sbm-i", 0.1, 3), DIRICHLET)
    system.rhs = system.rhs[:-1]
    calls = []
    monkeypatch.setattr(solve.spla, "splu", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="inconsistent"):
        solve_direct(system, compute_cond=False)
    assert calls == []


def test_singular_interior_block_falls_back_to_plain_splu():
    system = assemble(experiments.disk_fixture("sbm-i", 0.1, 3), DIRICHLET)
    system.elem_matrices = system.elem_matrices.copy()
    system.elem_matrices[0] = 0.0
    report = solve_direct(system, compute_cond=False)
    assert report.factorization.startswith("splu (condensation failed:")
    assert report.refinement_steps == 0
    assert np.array_equal(report.u, plain_splu(system))


def damped_solver(system, damping):
    """A solver that returns `damping` times the exact solution, so that
    each refinement step leaves 1 - damping of the residual."""
    lu = spla.splu(sp.csc_matrix(system.matrix))
    return lambda r: damping * lu.solve(r)


@pytest.mark.parametrize("damping, steps", [(0.75, MAX_REFINEMENT_STEPS), (0.1, 1)])
def test_refinement_continues_while_the_residual_halves(damping, steps):
    # a residual cut to 1/4 per step refines up to the cap; one cut to 0.9
    # stops after the first correction
    system = assemble(experiments.disk_fixture("sbm-i", 0.1, 3), DIRICHLET)
    a, b = system.matrix, system.rhs
    u, residual, taken = solve._refine(damped_solver(system, damping), a, b)
    assert taken == steps
    assert residual == np.abs(b - a @ u).max()
    assert residual == pytest.approx((1 - damping) ** (steps + 1) * np.abs(b).max(),
                                     rel=1e-6)


def assert_falls_back_to_plain_splu(system, path):
    report = solve_direct(system, compute_cond=False)
    assert report.factorization.startswith(f"splu ({path} refinement stalled at residual")
    assert report.refinement_steps == 1
    assert np.array_equal(report.u, plain_splu(system))
    assert report.residual_inf == np.abs(system.matrix @ report.u - system.rhs).max()
    assert not report.ill_conditioned


def test_stalled_refinement_falls_back_to_plain_splu(monkeypatch):
    system = assemble(experiments.disk_fixture("sbm-i", 0.1, 3), DIRICHLET)
    monkeypatch.setattr(solve, "_condensed_solver",
                        lambda system: damped_solver(system, 0.1))
    assert_falls_back_to_plain_splu(system, "condensed")


def test_stalled_symmetric_refinement_falls_back_to_plain_splu(monkeypatch):
    # a correction of a tenth of the solve leaves 0.9 of the residual, so
    # the refinement stops after one step, far above the bound
    system = assemble(experiments.disk_fixture("sbm-i", 0.1, 2), DIRICHLET)
    refine = solve._refine
    monkeypatch.setattr(solve, "_refine",
                        lambda solver, a, b: refine(lambda r: 0.1 * solver(r), a, b))
    assert_falls_back_to_plain_splu(system, "symmetric")


def recorded_systems(keep, study, *args, **kwargs):
    """Run `study` and return, assembled again, the systems of its solves
    for which keep(domain, problem) holds."""
    systems = []
    study_solve = experiments._solve

    def record(domain, problem, exact_u=None, compute_cond=False):
        if keep(domain, problem):
            systems.append(assemble(domain, problem))
        return study_solve(domain, problem, exact_u, compute_cond)

    mp = pytest.MonkeyPatch()
    mp.setattr(experiments, "_solve", record)
    try:
        study(*args, **kwargs)
    finally:
        mp.undo()
    return systems


@pytest.fixture(scope="module")
def sbm_e_p5_systems():
    """The sbm-e P 5 systems of random_embedding_assessment(n_circles=5,
    seed=1), condition numbers up to ~3e7."""
    return recorded_systems(
        lambda domain, problem: domain.mode == "extrapolation" and domain.order == 5,
        experiments.random_embedding_assessment, n_circles=5, orders=(3, 5), seed=1)


def extended_precision_solution(system, steps=5):
    """Reference solution: plain LU refined with residuals in np.longdouble."""
    lu = spla.splu(sp.csc_matrix(system.matrix))
    a = system.matrix.astype(np.longdouble)
    b = system.rhs.astype(np.longdouble)
    u = lu.solve(system.rhs).astype(np.longdouble)
    for _ in range(steps):
        u += lu.solve((b - a @ u).astype(float))
    return u


def assert_as_accurate_as_plain_lu(system, path="splu-condensed"):
    reference = extended_precision_solution(system)
    report = solve_direct(system, compute_cond=False)
    assert report.factorization.startswith(path)
    plain_error = np.abs(plain_splu(system) - reference).max()
    refined_error = np.abs(report.u - reference).max()
    assert refined_error <= 2.0 * plain_error


def test_refined_condensed_solve_is_as_accurate_as_plain_lu(sbm_e_p5_systems):
    # without refinement the condensed error is 3e-10 to 4e-9, 13 to 400
    # times plain LU's, and this test fails
    assert len(sbm_e_p5_systems) == 5
    for system in sbm_e_p5_systems:
        assert_as_accurate_as_plain_lu(system)


def test_refinement_reaches_plain_lu_accuracy_on_robin_p7():
    # nitsche_full_condition of robin_delta_study("sbm-i") at lc 0.05, P 7:
    # 11341 DOF, 1-norm condition estimate 6e8. The refined condensed solve
    # ends 8.8e-12 from the reference, plain LU 8.2e-12; a single fixed
    # refinement step ends 3.1e-11 away, and this test fails
    (system,) = recorded_systems(
        lambda domain, problem: problem.conditions[0].form == "nitsche_full_condition",
        experiments.robin_delta_study, "sbm-i", (0.05,), (7,))
    assert_as_accurate_as_plain_lu(system)


def test_refinement_stalled_far_from_plain_lu_falls_back():
    # nitsche_full_condition of robin_delta_study("sbm-e") at lc 0.05, P 7:
    # 8772 DOF, 1-norm condition estimate 2.8e17. The condensed solve stalls
    # after one step at residual 0.048, 1.68 from the reference, where plain
    # LU ends 2.2e-4 away. That residual is under the ill_conditioned bound
    # (~10) but about 50 n eps / 2 of the same scale, so plain LU takes over
    (system,) = recorded_systems(
        lambda domain, problem: problem.conditions[0].form == "nitsche_full_condition",
        experiments.robin_delta_study, "sbm-e", (0.05,), (7,))
    assert_as_accurate_as_plain_lu(
        system, path="splu (condensed refinement stalled at residual")


NEUMANN_PENALTY = BoundaryProblem(
    conditions=[NeumannBC(MMS.normal_derivative(experiments.FIXTURE_CIRCLE),
                          form="with_symmetric_penalty")],
    forcing=MMS.forcing(1.0), alpha=1.0)


def robin_p2_system():
    """nitsche_full_condition of robin_delta_study("sbm-e") at lc 0.025, P 2."""
    (system,) = recorded_systems(
        lambda domain, problem: problem.conditions[0].form == "nitsche_full_condition",
        experiments.robin_delta_study, "sbm-e", (0.025,), (2,))
    return system


@pytest.mark.parametrize("system", [
    # measured ratios of the refined symmetric error to plain LU's: 0.63,
    # 0.52 and 0.25
    lambda: assemble(experiments.disk_fixture("sbm-i", 0.025, 2), DIRICHLET),
    lambda: assemble(experiments.disk_fixture("sbm-e", 0.025, 2), NEUMANN_PENALTY),
    robin_p2_system,
], ids=["sbm-i-dirichlet", "sbm-e-neumann-penalty", "sbm-e-robin"])
def test_refined_symmetric_solve_is_as_accurate_as_plain_lu(system):
    system = system()
    assert system.elem_matrices is None
    assert_as_accurate_as_plain_lu(system, path="splu-symmetric")
