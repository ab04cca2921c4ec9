"""Linear solve and condition number estimation."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sembed.experiments as experiments
import sembed.solve as solve_module
from sembed.assembly import BoundaryProblem, DirichletBC, assemble
from sembed.embedding import conformal_surrogate
from sembed.geometry import Circle
from sembed.meshing import generate_structured_disk
from sembed.mms import ManufacturedSolution
from sembed.solve import SVD_LIMIT, condition_number, solve_direct
from test_accumulator import HIGHP
from test_condensation import DIRICHLET, sbm_e_p5_systems  # noqa: F401 (a fixture)


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
    assert report.factorization == "splu-symmetric"
    expected = spla.splu(sp.csc_matrix(system.matrix)).solve(system.rhs)
    assert np.abs(report.u - expected).max() <= 1e-12 * np.abs(expected).max()
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


# -- condition numbers from the solve's LU ---------------------------------

def dense_svd_cond(matrix):
    """Test oracle: the exact 2-norm condition number from a dense SVD."""
    sv = np.linalg.svd(matrix.toarray(), compute_uv=False)
    return sv[0] / sv[-1]


@pytest.fixture(scope="module")
def embedding_matrices():
    """The 30 systems of the benchmark's random_embedding pass (seed 0)."""
    matrices = []

    def record(system, compute_cond=True):
        matrices.append(system.matrix)
        return solve_direct(system, compute_cond=False)

    mp = pytest.MonkeyPatch()
    mp.setattr(experiments, "solve_direct", record)
    try:
        experiments.random_embedding_assessment(n_circles=5, orders=(3, 5), seed=0)
    finally:
        mp.undo()
    return matrices


@pytest.fixture(scope="module")
def large_system():
    system, _ = small_system(order=2, lc=0.025)
    assert system.rhs.size > SVD_LIMIT
    return system


def test_exact_cond_matches_dense_svd(embedding_matrices):
    assert len(embedding_matrices) == 30
    conds = []
    for matrix in embedding_matrices:
        assert matrix.shape[0] > solve_module.DENSE_LIMIT  # the ARPACK path
        cond = condition_number(matrix, "svd")
        assert cond == pytest.approx(dense_svd_cond(matrix), rel=1e-8)
        conds.append(cond)
    assert max(conds) > 1e7


def test_exact_cond_is_deterministic(embedding_matrices):
    matrix = embedding_matrices[-1]
    first = condition_number(matrix, "svd")
    assert condition_number(matrix, "svd") == first
    lu = spla.splu(sp.csc_matrix(matrix))
    assert condition_number(matrix, "svd", lu=lu) == first


def test_one_norm_estimate_is_deterministic(large_system):
    # the estimator's random start vectors come from a fixed seed, and the
    # caller's global numpy RNG state is left as it was
    values = []
    for seed in (1, 2):
        np.random.seed(seed)
        before = np.random.get_state()
        values.append(condition_number(large_system.matrix, "one_norm_estimate"))
        after = np.random.get_state()
        assert after[0] == before[0] and after[2:] == before[2:]
        assert np.array_equal(after[1], before[1])
    assert values[0] == values[1]


def test_dense_cutoff_paths_agree():
    rng = np.random.default_rng(1)
    for n in (solve_module.DENSE_LIMIT, solve_module.DENSE_LIMIT + 1):
        matrix = sp.csr_matrix(rng.standard_normal((n, n)) + 4.0 * np.eye(n))
        assert condition_number(matrix, "svd") == pytest.approx(
            dense_svd_cond(matrix), rel=1e-8)


def test_svd_cond_from_the_symmetric_factor_matches_dense_svd():
    system, _ = small_system(order=2, lc=0.05)
    assert solve_module.DENSE_LIMIT < system.rhs.size <= SVD_LIMIT
    report = solve_direct(system)
    assert report.factorization == "splu-symmetric"
    assert report.cond_method == "svd"
    assert report.cond == pytest.approx(dense_svd_cond(system.matrix), rel=1e-8)


@pytest.mark.parametrize("size", ["small", "large"])
def test_solve_direct_factorizes_once(monkeypatch, size, large_system):
    system = small_system()[0] if size == "small" else large_system
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(solve_module.spla, "splu", counting_splu)
    report = solve_direct(system)
    assert len(calls) == 1
    expected = "svd" if size == "small" else "one_norm_estimate"
    assert report.cond_method == expected
    assert np.isfinite(report.cond)


def test_solution_bitwise_equal_to_plain_splu():
    # with a condition number the solve is splu of the full matrix, bit for
    # bit; without one, P 3 is condensed and refined, and on this
    # well-conditioned system matches the same oracle to 1e-12 relative
    system, _ = small_system(order=3)
    a = sp.csc_matrix(system.matrix)
    expected = spla.splu(a).solve(np.asarray(system.rhs, dtype=float))
    report = solve_direct(system, compute_cond=True)
    assert report.factorization == "splu"
    assert np.array_equal(report.u, expected)
    report = solve_direct(system, compute_cond=False)
    assert report.factorization == "splu-condensed"
    assert np.abs(report.u - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("size", ["small", "large"])
def test_solve_direct_reports_condition_number_call(monkeypatch, size, large_system):
    system = small_system()[0] if size == "small" else large_system
    seen = []

    def spy(*args, **kwargs):
        seen.append((args, kwargs))
        return 123.5

    monkeypatch.setattr(solve_module, "condition_number", spy)
    report = solve_direct(system)
    assert len(seen) == 1
    args, kwargs = seen[0]
    assert sp.issparse(args[0]) and args[0].shape == system.matrix.shape
    assert abs(args[0] - system.matrix).max() == 0
    assert args[1] == report.cond_method
    assert isinstance(kwargs["lu"], spla.SuperLU)
    assert report.cond == 123.5


class CountingLU:
    """A splu factorization that records the shape of every right-hand
    side passed to its solve."""

    def __init__(self, matrix):
        self.lu = spla.splu(sp.csc_matrix(matrix))
        self.shapes = []

    def solve(self, rhs, trans="N"):
        self.shapes.append(np.shape(rhs))
        return self.lu.solve(rhs, trans=trans)


def test_svd_cond_sizes_the_inverse_krylov_space(sbm_e_p5_systems):
    # with scipy's default ncv the inverse half took 21 applies, 42 solves,
    # on each of these systems; with INVERSE_NCV it takes 14 to 32, and the
    # largest difference from the dense SVD is 4.8e-11 relative either way
    for system in sbm_e_p5_systems:
        lu = CountingLU(system.matrix)
        cond = condition_number(system.matrix, "svd", lu=lu)
        assert len(lu.shapes) < 42
        assert cond == pytest.approx(dense_svd_cond(system.matrix), rel=1e-9)


def test_one_norm_estimate_solves_blocks(large_system):
    lu = CountingLU(large_system.matrix)
    assert np.isfinite(condition_number(large_system.matrix, "one_norm_estimate", lu=lu))
    assert lu.shapes
    assert all(len(shape) == 2 and shape[1] >= 2 for shape in lu.shapes)


def test_one_norm_estimate_takes_the_exact_norm_of_the_matrix(monkeypatch):
    system, _ = small_system()
    dense = system.matrix.toarray()
    kappa = (np.abs(dense).sum(axis=0).max()
             * np.abs(np.linalg.inv(dense)).sum(axis=0).max())
    estimate = condition_number(system.matrix, "one_norm_estimate")
    # the estimate of ||A^-1||_1 is a lower bound up to rounding
    assert kappa / 3 <= estimate <= kappa * (1 + 1e-12)
    operators = []
    onenormest = spla.onenormest

    def spy(operator, *args, **kwargs):
        operators.append(operator)
        return onenormest(operator, *args, **kwargs)

    monkeypatch.setattr(solve_module.spla, "onenormest", spy)
    assert condition_number(system.matrix, "one_norm_estimate") == estimate
    assert len(operators) == 1
    assert isinstance(operators[0], spla.LinearOperator)


def test_explicit_svd_above_limit_within_estimate(large_system):
    exact = condition_number(large_system.matrix, "svd")
    estimate = condition_number(large_system.matrix, "one_norm_estimate")
    assert estimate / 10.0 <= exact <= estimate


@pytest.mark.parametrize("method", ["svd", "one_norm_estimate"])
@pytest.mark.parametrize("n", [3, 50])
def test_singular_matrix_is_infinite(method, n):
    diagonal = np.arange(n, dtype=float)  # a zero pivot in the first column
    assert condition_number(sp.diags(diagonal).tocsr(), method) == np.inf


def disk_systems():
    """disk_highp's three systems and disk_lowp_cond's P 2 ladder."""
    cells = [(HIGHP, 4, 0.05), (HIGHP, 4, 0.025), (HIGHP, 8, 0.05),
             (DIRICHLET, 2, 0.05), (DIRICHLET, 2, 0.025), (DIRICHLET, 2, 0.0125)]
    for problem, order, lc in cells:
        yield assemble(experiments.disk_fixture("sbm-i", lc, order), problem)


def test_residual_scale_takes_max_abs_without_a_temporary():
    for system in disk_systems():
        a, b = system.matrix, system.rhs
        u = np.linspace(-2.0, 3.0, b.size)
        expected = np.abs(a.data).max() * max(np.abs(u).max(), 1.0) + np.abs(b).max()
        assert solve_module._residual_scale(a, u, b) == expected
        assert solve_module._residual_scale(sp.csc_matrix(a), u, b) == expected


@pytest.mark.parametrize("lc, method", [(0.05, "svd"), (0.025, "one_norm_estimate")])
def test_symmetric_solve_converts_to_csc_once(monkeypatch, lc, method):
    system = assemble(experiments.disk_fixture("sbm-i", lc, 2), DIRICHLET)
    # the condition number of the factor the solve takes, from the CSR
    lu = spla.splu(sp.csc_matrix(system.matrix), **solve_module.SYMMETRIC_SPLU)
    expected = condition_number(system.matrix, method, lu=lu)
    conversions = []
    tocsc = sp.csr_matrix.tocsc
    monkeypatch.setattr(sp.csr_matrix, "tocsc", lambda self, copy=False: (
        conversions.append(self.shape) or tocsc(self, copy=copy)))
    report = solve_direct(system)
    assert report.factorization == "splu-symmetric"
    assert report.cond_method == method
    assert conversions == [system.matrix.shape]
    assert report.cond == expected
