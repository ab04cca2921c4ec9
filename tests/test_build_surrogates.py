"""`build_surrogates` against one `build_surrogate` per variant: bitwise
equal records, DOF numbering and traces, the same errors and the same
warnings, and domains of one (mode, order) sharing what they have in
common. Its conformal mode and identity mapping against the builds they
replaced."""

import dataclasses
import logging

import numpy as np
import pytest

from sembed import experiments
from sembed.assembly import build_dof_map
from sembed.embedding import (
    BoundaryTraces,
    EdgeRecords,
    SurrogateDomain,
    _edge_records,
    build_surrogate,
    build_surrogates,
    conformal_surrogate,
)
from sembed.experiments import (
    FIXTURE_CENTER,
    FIXTURE_CIRCLE,
    FIXTURE_RADIUS,
    METHODS,
    PLATE_WITH_HOLE,
    RANDOM_EMBEDDING_LC,
    SQUARE_SIDE,
)
from sembed.geometry import Circle
from sembed.meshing import generate_structured_disk, generate_structured_square

# the six cells of one random embedding, in random_embedding_assessment's
# order, and a mixed order that revisits modes and orders
CELLS = [(*METHODS[m][:2], p) for m in ("sbm-e", "sbm-ei", "sbm-i") for p in (3, 5)]
MIXED = [CELLS[4], CELLS[0], CELLS[3], CELLS[5], CELLS[2]]
SQUARE = generate_structured_square(RANDOM_EMBEDDING_LC, SQUARE_SIDE, SQUARE_SIDE)
# at lc 0.125 the plate's sbm-i records fall back to closest point, with a
# warning each
PLATE_MESH = generate_structured_square(0.125, SQUARE_SIDE, SQUARE_SIDE)


def random_circle(seed):
    """The first circle random_embedding_assessment draws at `seed`."""
    lo = FIXTURE_RADIUS + 2.0 * RANDOM_EMBEDDING_LC
    rng = np.random.default_rng(np.random.PCG64(seed))
    return Circle(tuple(rng.uniform(lo, SQUARE_SIDE - lo, size=2)), FIXTURE_RADIUS)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


def build_both(mesh, geometry, variants, caplog):
    """(together, alone, their warnings): the domains of one build_surrogates
    call and of one build_surrogate per variant."""
    with caplog.at_level(logging.WARNING, logger="sembed.embedding"):
        together = build_surrogates(mesh, geometry, variants)
        warned_together = [r.getMessage() for r in caplog.records]
        caplog.clear()
        alone = [build_surrogate(mesh, geometry, *v) for v in variants]
        warned_alone = [r.getMessage() for r in caplog.records]
    return together, alone, warned_together, warned_alone


@pytest.mark.parametrize("variants", [CELLS, MIXED], ids=["cells", "mixed"])
@pytest.mark.parametrize("case", ["circle-0", "circle-1", "circle-7", "plate"])
def test_shared_build_equals_one_build_per_variant(case, variants, caplog):
    if case == "plate":
        mesh, geometry = PLATE_MESH, PLATE_WITH_HOLE
    else:
        mesh, geometry = SQUARE, random_circle(int(case.split("-")[1]))
    together, alone, warned_together, warned_alone = build_both(
        mesh, geometry, variants, caplog)
    assert warned_together == warned_alone
    if case == "plate":
        assert len(warned_alone) > 0
    assert len(together) == len(variants)
    for got, want, variant in zip(together, alone, variants):
        assert (got.mode, got.mapping_kind, got.order) == variant
        assert_bitwise(got.active, want.active)
        for field in dataclasses.fields(EdgeRecords):
            assert_bitwise(getattr(got.records, field.name),
                           getattr(want.records, field.name))
        for a, b in zip(got.dof_map, build_dof_map(want)):
            assert_bitwise(a, b)
        for field in dataclasses.fields(BoundaryTraces):
            assert_bitwise(getattr(got.traces, field.name),
                           getattr(want.traces, field.name))


def test_domains_of_one_mode_and_order_share_dof_map_and_bar_traces():
    e3, e5, ei3, ei5, i3, i5 = build_surrogates(SQUARE, random_circle(0), CELLS)
    assert ei3.shared is i3.shared and ei5.shared is i5.shared
    assert len({id(d.shared) for d in (e3, e5, ei3, ei5)}) == 4
    assert ei3.dof_map[0] is i3.dof_map[0]
    assert ei3.traces.vbar is i3.traces.vbar
    assert ei3.traces.gbarn is i3.traces.gbarn
    assert ei3.traces.vmap is not i3.traces.vmap
    # nothing may write through one domain into another's tables
    for table in (*i3.dof_map, i3.traces.vbar, i3.traces.gbarn):
        assert not table.flags.writeable


def test_replaced_records_take_their_own_traces():
    e3, _, ei3, _, i3, _ = build_surrogates(SQUARE, random_circle(0), CELLS)
    i3.traces, i3.dof_map  # fill the tables i3 shares with ei3
    replaced = dataclasses.replace(i3, records=e3.records)
    assert replaced.shared is not i3.shared
    for field in dataclasses.fields(BoundaryTraces):
        assert_bitwise(getattr(replaced.traces, field.name),
                       getattr(e3.traces, field.name))
    for a, b in zip(replaced.dof_map, i3.dof_map):
        assert_bitwise(a, b)
    assert_bitwise(ei3.traces.vbar, i3.traces.vbar)


@pytest.mark.parametrize("variants, message", [
    # the circle is small and passes through a mesh vertex: sbm-e's active
    # set is empty, and the sbm-i variant first logs two fallback warnings
    ([CELLS[4], CELLS[2], CELLS[0]], "active element set is empty"),
    ([CELLS[4], ("conforming", "identity", 3)], "unknown mode 'conforming'"),
    ([CELLS[4], ("extrapolation", "in_element_equidistant", 3)],
     "in-element mapping requires interpolation mode"),
    ([CELLS[4], ("conformal", "closest_point", 3)],
     "conformal mode takes only the identity mapping"),
])
def test_failing_variant_raises_the_same_error_after_the_same_warnings(
        variants, message, caplog):
    mesh = generate_structured_square(0.25, SQUARE_SIDE, SQUARE_SIDE)
    circle = Circle((0.741, 1.1111111111111112), 0.116)
    with caplog.at_level(logging.WARNING, logger="sembed.embedding"):
        with pytest.raises(ValueError) as together:
            build_surrogates(mesh, circle, variants)
        warned_together = [r.getMessage() for r in caplog.records]
        caplog.clear()
        with pytest.raises(ValueError) as alone:
            for variant in variants:
                build_surrogate(mesh, circle, *variant)
        warned_alone = [r.getMessage() for r in caplog.records]
    assert str(together.value) == str(alone.value) == message
    assert len(warned_alone) == 2 and warned_together == warned_alone


def assert_domains_bitwise(got, want):
    """Active set, records, DOF numbering and traces, bit for bit."""
    assert_bitwise(got.active, want.active)
    for field in dataclasses.fields(EdgeRecords):
        assert_bitwise(getattr(got.records, field.name),
                       getattr(want.records, field.name))
    for a, b in zip(got.dof_map, build_dof_map(want)):
        assert_bitwise(a, b)
    for field in dataclasses.fields(BoundaryTraces):
        assert_bitwise(getattr(got.traces, field.name),
                       getattr(want.traces, field.name))


def old_conformal_surrogate(mesh, geometry, order):
    """The conformal builder that the conformal mode replaced."""
    edges = mesh.boundary_edges
    owners = mesh.edge_elems[edges, 0]
    records = _edge_records(mesh, geometry, "identity", edges, owners, order)
    return SurrogateDomain(
        mesh=mesh,
        geometry=geometry,
        mode="conformal",
        mapping_kind="identity",
        order=order,
        active=np.arange(mesh.n_elements),
        records=records,
    )


DISK = generate_structured_disk(0.2, FIXTURE_RADIUS, FIXTURE_CENTER)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("case", ["disk", "square-no-geometry"])
def test_conformal_mode_equals_the_old_conformal_builder(case, order):
    if case == "disk":
        mesh, geometry = DISK, FIXTURE_CIRCLE
    else:
        mesh, geometry = generate_structured_square(0.25, 1.0, 1.0), None
    want = old_conformal_surrogate(mesh, geometry, order)
    together = build_surrogates(mesh, geometry, [("conformal", "identity", p)
                                                  for p in (1, 3)])
    for got in (conformal_surrogate(mesh, geometry, order),
                build_surrogate(mesh, geometry, "conformal", "identity", order),
                together[(1, 3).index(order)]):
        assert (got.mode, got.mapping_kind, got.order) == ("conformal", "identity", order)
        assert got.geometry is geometry
        assert_domains_bitwise(got, want)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("case", ["disk", "circle-0"])
def test_identity_variants_equal_mapped_builds_with_identity_records(
        case, order):
    # the oracle: the mapped build with identity records rebuilt on its
    # own edges and owners
    mesh, geometry = (DISK, FIXTURE_CIRCLE) if case == "disk" else (
        SQUARE, random_circle(0))
    methods = ("sbm-e", "sbm-ei", "sbm-i")
    together = build_surrogates(mesh, geometry, [(METHODS[m][0], "identity", order)
                                                 for m in methods])
    for method, got in zip(methods, together):
        mapped = build_surrogate(mesh, geometry, *METHODS[method][:2], order)
        rec = mapped.records
        want = dataclasses.replace(mapped, records=_edge_records(
            mesh, geometry, "identity", rec.edge, rec.elem, order))
        assert (got.mode, got.mapping_kind) == (METHODS[method][0], "identity")
        assert_domains_bitwise(got, want)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_aligned_degeneration_logs_no_warning(order, bc, caplog):
    # sbm-i's mapped records on this mesh fall back to closest point on
    # edges 34 and 35, with a warning each; identity records never do
    with caplog.at_level(logging.WARNING):
        gaps = experiments.aligned_degeneration(0.2, order, bc)
    assert caplog.records == []
    assert max(gaps.values()) <= 1e-12
