"""`assembly._scatter`, which writes the compressed arrays straight from
the blocks, against the concatenating accumulator it replaced: the
matrices it builds must be equal array for array, dtypes included, and
`assemble` must stay within a bound on its transient memory."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import sembed.assembly as assembly
import sembed.solve as solve
from sembed import experiments
from sembed.assembly import BoundaryProblem, DirichletBC, NeumannBC, assemble
from sembed.mms import ManufacturedSolution


class ConcatenatingAccumulator:
    """The oracle: each batch broadcast and raveled into int64 indices, all
    batches concatenated, and the indices downcast inside coo_matrix."""

    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, gdofs, blocks):
        self.rows.append(np.broadcast_to(gdofs[:, :, None], blocks.shape).ravel())
        self.cols.append(np.broadcast_to(gdofs[:, None, :], blocks.shape).ravel())
        self.vals.append(blocks.ravel())

    def matrix(self, n, fmt="csr"):
        a = sp.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=(n, n),
        )
        return a.asformat(fmt)


def recorded(run):
    """The (n, batches) of every matrix scattered during run(). The batches
    are copied, as the callers may overwrite them after that."""
    built, plain = [], assembly._scatter

    def scatter(n, batches, fmt="csr"):
        built.append((n, [(g.copy(), b.copy()) for g, b in batches]))
        return plain(n, batches, fmt)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_scatter", scatter)
        mp.setattr(solve, "_scatter", scatter)
        run()
    return built


def concatenated(n, batches, fmt):
    old = ConcatenatingAccumulator()
    for gdofs, blocks in batches:
        old.add(gdofs, blocks)
    return old.matrix(n, fmt)


def assert_same_matrices(n, batches):
    for fmt in ("csr", "csc"):
        a, b = assembly._scatter(n, batches, fmt), concatenated(n, batches, fmt)
        assert a.format == b.format == fmt
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, (fmt, name)
            assert np.array_equal(x, y), (fmt, name)


HIGHP_MMS = ManufacturedSolution(wavenumber=5)
HIGHP = BoundaryProblem(
    conditions=[DirichletBC(HIGHP_MMS.u, form="nitsche_nonsym")],
    forcing=HIGHP_MMS.forcing(0.0))
MMS = ManufacturedSolution(wavenumber=1)


def highp_a_and_s():
    # disk_highp's three systems: each A, then the Schur complement S
    for order, lc in ((4, 0.05), (4, 0.025), (8, 0.05)):
        system = assemble(experiments.disk_fixture("sbm-i", lc, order), HIGHP)
        solve._condensed_solver(system)


def random_embedding():
    experiments.random_embedding_assessment(n_circles=5, orders=(3, 5), seed=0)


def lowp_cond():
    experiments.run(experiments.ExperimentSpec(
        kind="conditioning", method="sbm-i", p_ladder=(2,), lc_ladder=(0.05, 0.025)))


def reaction_neumann():
    problem = BoundaryProblem(
        conditions=[NeumannBC(MMS.normal_derivative(experiments.FIXTURE_CIRCLE))],
        forcing=MMS.forcing(1.0), alpha=1.0)
    assemble(experiments.disk_fixture("cbm", 0.1, 3), problem)


def plate_mixed():
    # two Robin conditions, picked per segment: A at P 2 and 4, S at P 4
    experiments.mixed_dirichlet_neumann("sbm-i", lc=0.2, orders=(2, 4))


@pytest.mark.parametrize("run, count", [
    (highp_a_and_s, 6),
    (random_embedding, 30),
    (lowp_cond, 2),
    (reaction_neumann, 1),
    (plate_mixed, 3),
], ids=["disk_highp-a-and-s", "random_embedding-seed0", "disk_lowp_cond-p2",
        "reaction-neumann", "plate-mixed"])
def test_scatter_matches_the_concatenating_accumulator(run, count):
    built = recorded(run)
    assert len(built) == count
    for n, batches in built:
        assert_same_matrices(n, batches)


def distinct_dofs(rng, n, n_elem, n_p):
    """(n_elem, n_p) DOFs below n, distinct within each row, as `_scatter`
    requires of its callers."""
    return rng.permuted(np.tile(np.arange(n), (n_elem, 1)), axis=1)[:, :n_p]


def test_scatter_of_random_repeated_blocks_matches():
    # per block size, several batches of random blocks on random DOFs; every
    # third element is added twice, so the duplicate sum meets runs of equal
    # triples
    rng = np.random.default_rng(7)
    n = 300
    for n_p in (3, 6, 10):
        batches = []
        for n_elem in (60, 25, 1, 40):
            gdofs = distinct_dofs(rng, n, n_elem, n_p)
            gdofs = np.concatenate([gdofs, gdofs[::3]])
            batches.append((gdofs, rng.standard_normal((gdofs.shape[0], n_p, n_p))))
        assert_same_matrices(n, batches)


def test_scatter_of_a_repeat_inside_a_block_matches_to_rounding():
    # a DOF twice in one block: CSR is still bitwise, while CSC sums the
    # repeated columns in another order, so only its data may round apart
    rng = np.random.default_rng(3)
    n, n_p = 20, 6
    gdofs = rng.integers(0, n, size=(30, n_p))
    assert (np.diff(np.sort(gdofs, axis=1), axis=1) == 0).any()
    blocks = rng.standard_normal((30, n_p, n_p))
    for fmt in ("csr", "csc"):
        batches = [(gdofs, blocks)]
        a, b = assembly._scatter(n, batches, fmt), concatenated(n, batches, fmt)
        assert a.format == b.format == fmt
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        if fmt == "csr":
            assert np.array_equal(a.data, b.data)
        else:
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-13)


@st.composite
def block_batches(draw):
    """(n, batches): one block size per matrix, a few DOFs drawn from a
    small range, distinct inside a block but repeated across blocks,
    batches of zero blocks, and DOFs above that range that no block
    touches."""
    touched = draw(st.integers(1, 8))
    n = touched + draw(st.integers(0, 3))
    n_p = draw(st.integers(1, min(6, touched)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batches = []
    for n_elem in draw(st.lists(st.integers(0, 5), min_size=1, max_size=4)):
        gdofs = distinct_dofs(rng, touched, n_elem, n_p)
        batches.append((gdofs, rng.standard_normal((n_elem, n_p, n_p))))
    return n, batches


@settings(max_examples=300, deadline=None)
@given(block_batches())
def test_scatter_of_any_batches_matches(case):
    n, batches = case
    assert_same_matrices(n, batches)
    for fmt in ("csr", "csc"):
        a = assembly._scatter(n, batches, fmt)
        # the matrix holds no buffer beyond its nnz entries
        for x in (a.indices, a.data):
            assert x.size == a.nnz
            assert x.base is None or x.base.size == a.nnz


# tracemalloc's peak of assemble() over the bytes of the matrix,
# elem_matrices and rhs it returns, for sbm-i at lc 0.05, P 8 (15.4 MB):
# 3.4 with the concatenating accumulator (52.8 MB), 2.3 with the triples
# written once (35.1 MB), 1.8 with the compressed arrays written straight
# from the blocks (27.6 MB); 2.0 if those arrays outlive the duplicate sum
ASSEMBLE_PEAK_RATIO = 1.9


def test_assemble_peak_memory_is_bounded_by_its_output():
    domain = experiments.disk_fixture("sbm-i", 0.05, 8)
    tracemalloc.start()
    try:
        system = assemble(domain, HIGHP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    a = system.matrix
    returned = (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
                + system.elem_matrices.nbytes + system.rhs.nbytes)
    assert peak <= ASSEMBLE_PEAK_RATIO * returned
