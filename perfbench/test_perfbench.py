"""Self-time arithmetic of the tracer and the fingerprint comparator.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import math

import pytest

import fingerprint
import tracer
from tracer import Span


def _spans(*rows):
    return [Span(name, start, end, parent, 0) for name, start, end, parent in rows]


def test_self_time_subtracts_children():
    spans = _spans(
        ("pass", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
    )
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = _spans(
        ("pass", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 3.0, 7.0, 0),
        ("c", 4.0, 6.0, 0),
    )
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_parent():
    spans = _spans(("pass", 0.0, 2.0, -1), ("a", 1.0, 3.0, 0))
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_totals_by_root_groups_passes():
    spans = [
        Span("pass", 0.0, 4.0, -1, 0),
        Span("a", 1.0, 2.0, 0, 0),
        Span("a", 2.0, 3.0, 0, 0),
        Span("pass", 5.0, 6.0, -1, 3),
        Span("a", 5.0, 5.5, 3, 3),
    ]
    totals = tracer.totals_by_root(spans)
    assert totals[0]["a"] == pytest.approx([2.0, 2])
    assert totals[0]["pass"] == pytest.approx([2.0, 1])
    assert totals[3]["a"] == pytest.approx([0.5, 1])


REF = {"n_dof": 828, "nnz": 17000, "l1": 2.2e-5, "cond": 957.0, "cond_method": "svd"}


def _cell(**changes):
    cell = dict(REF)
    cell.update(changes)
    return cell


def test_fingerprint_accepts_roundoff_changes():
    assert fingerprint.cell_mismatches(REF, _cell(l1=2.2e-5 * (1 + 1e-9))) == []
    assert fingerprint.cell_mismatches(REF, _cell(cond=957.0 * (1 + 1e-6))) == []
    tiny = dict(REF, l1=1e-14)
    assert fingerprint.cell_mismatches(tiny, _cell(l1=3e-14)) == []


@pytest.mark.parametrize("changes", [
    {"n_dof": 829},
    {"nnz": 17001},
    {"l1": 2.3e-5},
    {"l1": math.nan},
    {"cond": 960.0},
])
def test_fingerprint_rejects_changed_results(changes):
    assert fingerprint.cell_mismatches(REF, _cell(**changes))


def test_fingerprint_requires_cond_when_reference_has_it():
    got = {k: v for k, v in REF.items() if k not in ("cond", "cond_method")}
    assert fingerprint.cell_mismatches(REF, got)
    ref = dict(got)
    assert fingerprint.cell_mismatches(ref, dict(REF)) == []


def test_estimated_cond_admits_exact_value_within_factor():
    ref = dict(REF, cond=50796.0, cond_method="estimate")
    assert fingerprint.cell_mismatches(ref, _cell(cond=7644.2)) == []
    assert fingerprint.cell_mismatches(ref, _cell(cond=4000.0))
    assert fingerprint.cell_mismatches(ref, _cell(cond=6e5))


def test_compare_counts_missing_and_extra_cells():
    assert fingerprint.compare([REF, REF], [REF, REF])[:2] == (2, 0)
    assert fingerprint.compare([REF, REF, REF], [REF])[:2] == (3, 2)
    assert fingerprint.compare([REF], [REF, REF])[:2] == (2, 1)
    attempted, failed, messages = fingerprint.compare([REF], [_cell(nnz=1)])
    assert (attempted, failed) == (1, 1) and "nnz" in messages[0]
