"""Experiment driver and command line front end."""

import csv
import json
import logging

import numpy as np
import pytest

import sembed
from sembed import cli, experiments
from sembed.experiments import (
    CSV_COLUMNS,
    KINDS,
    ExperimentSpec,
    fitted_rate,
    run,
    write_artifacts,
)


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec(kind="nope")


def test_spec_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        ExperimentSpec(kind="h_convergence", method="fdm")


def test_spec_rejects_bad_orders():
    with pytest.raises(ValueError, match="orders"):
        ExperimentSpec(kind="h_convergence", p_ladder=(0,))
    with pytest.raises(ValueError):
        ExperimentSpec(kind="h_convergence", p_ladder=())


@pytest.mark.parametrize("order", [2.5, "3"])
def test_spec_rejects_non_integer_orders(order):
    # caught when the spec is built, not as a TypeError inside run
    with pytest.raises(ValueError, match=repr(order)):
        ExperimentSpec(kind="h_convergence", p_ladder=(2, order))


def test_spec_accepts_numpy_integer_orders():
    spec = ExperimentSpec(kind="h_convergence", p_ladder=(np.int64(2),))
    assert spec.p_ladder == (2,)


def test_spec_rejects_invalid_form_for_bc():
    with pytest.raises(ValueError, match="form"):
        ExperimentSpec(kind="h_convergence", bc="neumann",
                       form="nitsche_nonsym")


def test_form_aliases_resolve_per_condition():
    assert ExperimentSpec(kind="h_convergence",
                          bc="dirichlet").resolve_form() == "nitsche_nonsym"
    assert ExperimentSpec(kind="h_convergence", bc="neumann",
                          form="aubin").resolve_form() == "standard"
    assert ExperimentSpec(kind="h_convergence",
                          bc="robin").resolve_form() == "nitsche_full_condition"
    # concrete form names pass through unchanged
    assert ExperimentSpec(kind="h_convergence", bc="dirichlet",
                          form="nitsche_sym").resolve_form() == "nitsche_sym"


def test_fitted_rate_recovers_exact_power():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    assert fitted_rate(h, 3.0 * h**2) == pytest.approx(2.0, abs=1e-12)


def test_h_convergence_rows_and_rate():
    spec = ExperimentSpec(kind="h_convergence", method="cbm",
                          lc_ladder=(0.3, 0.15), p_ladder=(2,))
    rows, rates = run(spec)
    assert len(rows) == 2
    for row in rows:
        assert set(CSV_COLUMNS) >= set(row)
        assert row["l1_error"] > 0
    assert rows[1]["l1_error"] < rows[0]["l1_error"]
    assert rates  # one fitted slope per order


def test_artifacts_round_trip(tmp_path):
    out = tmp_path / "study"
    spec = ExperimentSpec(kind="p_convergence", method="cbm",
                          lc_ladder=(0.3,), p_ladder=(1, 2),
                          out=str(out))
    rows, rates = run(spec)
    with open(out.with_suffix(".csv")) as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == len(rows)
    assert got[0]["kind"] == "p_convergence"
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["schema_version"] == 1
    assert meta["seed"] == 0
    assert meta["spec"]["method"] == "cbm"


def test_csv_rows_deterministic(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        spec = ExperimentSpec(kind="h_convergence", method="sbm-i",
                              lc_ladder=(0.3,), p_ladder=(2,), out=str(out))
        run(spec)
        with open(out.with_suffix(".csv")) as fh:
            rows = [{k: v for k, v in row.items() if k != "wall_time"}
                    for row in csv.DictReader(fh)]
        runs.append(rows)
    assert runs[0] == runs[1]


def test_every_public_name_resolves():
    # __all__ is kept by hand beside the imports, so a stale entry would
    # fail only at first use
    for name in sembed.__all__:
        assert callable(getattr(sembed, name)), name
    with pytest.raises(AttributeError):
        sembed.no_such_name


def test_cli_smoke(capsys):
    rc = cli.main(["--experiment", "h_convergence", "--method", "cbm",
                   "--lc-ladder", "0.3", "0.15", "--p-ladder", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rate" in out.lower()


def test_cli_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "res"
    rc = cli.main(["--experiment", "p_convergence", "--method", "cbm",
                   "--lc-ladder", "0.3", "--p-ladder", "1", "2",
                   "--out", str(out)])
    assert rc == 0
    assert out.with_suffix(".csv").exists()
    assert out.with_suffix(".json").exists()


def _capture_specs(monkeypatch):
    """Stand in for the run behind the CLI; returns the specs it gets."""
    specs = []

    def record(spec):
        specs.append(spec)
        return [], {}

    monkeypatch.setattr(cli, "run", record)
    return specs


@pytest.mark.parametrize("kind", KINDS)
def test_cli_defaults_are_the_spec_defaults(kind, monkeypatch):
    specs = _capture_specs(monkeypatch)
    assert cli.main(["--experiment", kind]) == 0
    assert specs == [ExperimentSpec(kind=kind)]


def test_cli_gamma_scaling_local_h_is_the_per_element_penalty(monkeypatch):
    specs = _capture_specs(monkeypatch)
    assert cli.main(["--experiment", "conditioning",
                     "--gamma-scaling", "local-h"]) == 0
    assert specs == [ExperimentSpec(kind="conditioning", gamma_scaling="local")]


def test_cli_reports_invalid_combo(capsys):
    rc = cli.main(["--experiment", "h_convergence", "--bc", "neumann",
                   "--form", "nitsche_nonsym"])
    assert rc == 2
    assert "form" in capsys.readouterr().err.lower()


# The cheapest spec that runs each kind's driver end to end.
CHEAPEST = {
    "h_convergence": dict(method="cbm", lc_ladder=(0.3,), p_ladder=(1,)),
    "p_convergence": dict(method="cbm", lc_ladder=(0.3,), p_ladder=(1,)),
    "conditioning": dict(method="cbm", lc_ladder=(0.3,), p_ladder=(1,)),
    "aligned_verification": dict(lc_ladder=(0.2,), p_ladder=(1,)),
    "random_embedding_assessment": dict(p_ladder=(1,)),
    "robin_consistency_delta": dict(lc_ladder=(0.3,), p_ladder=(1, 2)),
    "robin_limits": dict(method="cbm", lc_ladder=(0.3,), p_ladder=(1,)),
    "mixed_dirichlet_neumann": dict(lc_ladder=(0.3,), p_ladder=(1,)),
    "ap_cascade": dict(lc_ladder=(0.3,), p_ladder=(2,)),
    "lebesgue_table": {},
    "vandermonde_1d": {},
}
INT_COLUMNS = ("order", "n_elm", "n_dof")
STR_COLUMNS = ("kind", "method", "form", "extra")


def test_kinds_follow_the_dispatch_table():
    assert KINDS == (
        "h_convergence", "p_convergence", "conditioning",
        "aligned_verification", "random_embedding_assessment",
        "robin_consistency_delta", "robin_limits", "mixed_dirichlet_neumann",
        "ap_cascade", "lebesgue_table", "vandermonde_1d",
    )
    assert set(CHEAPEST) == set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_rows_have_exactly_the_csv_schema(kind, monkeypatch):
    # the table's values are the acceptance gate's; its rows need only a
    # float stand-in for the slow P = 1..10 maximum search
    monkeypatch.setattr(experiments, "lebesgue_constant",
                        lambda elem, where: 1.0)
    rows, _ = run(ExperimentSpec(kind=kind, **CHEAPEST[kind]))
    assert rows
    for row in rows:
        assert tuple(row) == CSV_COLUMNS
        assert row["kind"] == kind
        for col in CSV_COLUMNS:
            value = row[col]
            if col in INT_COLUMNS:
                assert isinstance(value, (int, np.integer)), (col, value)
            elif col in STR_COLUMNS:
                assert isinstance(value, str), (col, value)
            else:
                assert isinstance(value, float), (col, value)


def test_aggregate_kind_csv_writes_typed_defaults(tmp_path, capsys):
    out = tmp_path / "limits"
    rc = cli.main(["--experiment", "robin_limits", "--method", "cbm",
                   "--lc-ladder", "0.3", "--p-ladder", "1", "--out", str(out)])
    assert rc == 0
    with open(out.with_suffix(".csv")) as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        got = list(reader)
    assert [row["extra"] for row in got] == ["limit=dirichlet", "limit=neumann"]
    for row in got:
        assert (row["n_elm"], row["n_dof"], row["wall_time"]) == ("0", "0", "0.0")
        assert row["h_min"] == row["cond"] == "nan"
        assert float(row["l1_error"]) <= 1e-6


def _count_builds(monkeypatch):
    calls = []
    real = experiments.build_surrogate

    def counting(mesh, geometry, *args):
        calls.append((tuple(geometry.center), args))
        return real(mesh, geometry, *args)

    monkeypatch.setattr(experiments, "build_surrogate", counting)
    return calls


def test_random_embedding_builds_each_surrogate_once(monkeypatch):
    single = _count_builds(monkeypatch)
    calls = []
    real = experiments.build_surrogates

    def counting(mesh, geometry, variants):
        calls.append((tuple(geometry.center), list(variants)))
        return real(mesh, geometry, variants)

    monkeypatch.setattr(experiments, "build_surrogates", counting)
    _, samples, centers = experiments.random_embedding_assessment(
        n_circles=2, seed=0, orders=(1, 2)
    )
    assert all(len(cell["log_err"]) == 2 for cell in samples.values())
    assert single == []
    for center in centers:
        mine = [variants for c, variants in calls if c == tuple(center)]
        # one call builds three methods x two orders, each once
        assert len(mine) == 1
        assert len(set(mine[0])) == len(mine[0]) == 6


def test_robin_delta_study_shares_one_surrogate_per_cell(monkeypatch):
    calls = _count_builds(monkeypatch)
    lc_ladder, orders = (0.3, 0.25), (1, 2)
    errors, _ = experiments.robin_delta_study("sbm-i", lc_ladder, orders)
    assert len(calls) == len(lc_ladder) * len(orders)
    assert all(len(errors[form][lc]) == len(orders)
               for form in errors for lc in lc_ladder)


def test_embedded_fixtures_reject_the_conformal_method():
    with pytest.raises(ValueError, match="shifted-boundary"):
        experiments.embedded_disk_fixture("cbm", 0.3, 1)
    with pytest.raises(ValueError, match="embedded only"):
        experiments.square_with_hole_fixture("cbm", 0.3, 1)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin"])
def test_aligned_degeneration_on_one_ring_disk(bc):
    # at lc 0.3 an outer vertex used to round to phi = -5.6e-17, so the
    # sbm-e active set lost its element and the gap could not be formed
    gaps = experiments.aligned_degeneration(0.3, 2, bc)
    assert set(gaps) == {"sbm-e", "sbm-ei", "sbm-i"}
    assert max(gaps.values()) <= 1e-12


@pytest.mark.parametrize("kind", ["robin_consistency_delta",
                                  "mixed_dirichlet_neumann"])
def test_cli_reports_fixture_that_rejects_the_method(kind, capsys):
    rc = cli.main(["--experiment", kind, "--method", "cbm",
                   "--lc-ladder", "0.3", "--p-ladder", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "embedded" in err or "shifted-boundary" in err


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin"])
def test_aligned_degeneration_gaps_equal_dense_comparison(bc, monkeypatch):
    # the gaps are formed on the sparse systems; the dense arrays they
    # replaced must give the same numbers, bit for bit
    systems = []
    assemble = experiments.assemble

    def keep(domain, problem):
        systems.append(assemble(domain, problem))
        return systems[-1]

    monkeypatch.setattr(experiments, "assemble", keep)
    gaps = experiments.aligned_degeneration(0.2, 2, bc)
    reference, *others = systems
    ref = reference.matrix.toarray()
    scale = np.abs(ref).max()
    for method, system in zip(gaps, others):
        gap_a = np.abs(system.matrix.toarray() - ref).max() / scale
        gap_b = np.abs(system.rhs - reference.rhs).max() / max(
            np.abs(reference.rhs).max(), 1.0
        )
        assert gaps[method] == max(gap_a, gap_b)


def test_random_embedding_logs_each_resampled_center(monkeypatch, caplog):
    real = experiments.build_surrogates
    rejected = []

    def fail_once(mesh, geometry, variants):
        if not rejected:
            rejected.append(tuple(geometry.center))
            raise ValueError("empty active set")
        return real(mesh, geometry, variants)

    monkeypatch.setattr(experiments, "build_surrogates", fail_once)
    with caplog.at_level(logging.WARNING, logger="sembed.experiments"):
        _, _, centers = experiments.random_embedding_assessment(
            n_circles=1, orders=(1,)
        )
    warnings = [r for r in caplog.records if r.name == "sembed.experiments"]
    assert len(warnings) == 1
    assert "resampling" in warnings[0].getMessage()
    assert "empty active set" in warnings[0].getMessage()
    assert len(centers) == 1 and tuple(centers[0]) != rejected[0]


@pytest.mark.parametrize("kwargs, message", [
    (dict(orders=(0,)), "order must be an integer"),
    (dict(orders=(3, 11)), "order must be an integer"),
    (dict(n_circles=0), "n_circles must be a positive integer"),
    (dict(n_circles=-2), "n_circles must be a positive integer"),
])
def test_random_embedding_rejects_bad_arguments_before_any_draw(
        kwargs, message, monkeypatch, caplog):
    # a bad order used to be taken for a degenerate embedding, resampled
    # 50 times and reported as such; no circle at all gave NaN statistics
    def no_build(*args):
        raise AssertionError("a surrogate was built")

    monkeypatch.setattr(experiments, "build_surrogates", no_build)
    with caplog.at_level(logging.WARNING):
        with pytest.raises(ValueError, match=message):
            experiments.random_embedding_assessment(**kwargs)
    assert caplog.records == []
