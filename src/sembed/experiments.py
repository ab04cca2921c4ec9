"""Scripted verification experiments with CSV/JSON artifacts.

Each experiment runs a family of solves on bundled fixtures (an embedded
circle of radius 0.375, or a square-with-hole geometry) and emits one row
per (mesh, order, method, form) cell. Row order is canonical (sorted by the
loop nesting below), independent of any scheduling, and re-running a spec
with the same seed reproduces the CSV bytes in every column but
`wall_time`: the measured seconds of each solve in the convergence and
conditioning kinds, 0.0 in the other kinds. Timestamps live only in the
JSON metadata.
"""

from __future__ import annotations

import csv
import json
import logging
import numbers
import time
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from .assembly import (
    BoundaryProblem,
    DirichletBC,
    NeumannBC,
    RobinBC,
    DIRICHLET_FORMS,
    NEUMANN_FORMS,
    ROBIN_FORMS,
    _eval_field,
    _eval_flux,
    assemble,
)
from .embedding import build_surrogate, build_surrogates
from .geometry import Circle, Rectangle, Difference
from .meshing import generate_structured_disk, generate_structured_square
from .mms import ManufacturedSolution, l1_error
from .refelem import (
    MAX_ORDER,
    build_reference_element,
    lebesgue_constant,
    vandermonde_shift_study_1d,
)
from .solve import solve_direct

SCHEMA_VERSION = 1

log = logging.getLogger(__name__)

# method -> (active-set mode, mapping kind, mesh radius offset in units of l_c)
METHODS = {
    "cbm": ("conformal", "identity", 0.0),
    "sbm-e": ("extrapolation", "closest_point", -0.25),
    "sbm-ei": ("interpolation", "closest_point", 0.25),
    "sbm-i": ("interpolation", "in_element_equidistant", 0.25),
}

# bc -> (its assembly forms, the assembly forms the CLI-level names
# `nitsche` and `aubin` stand for)
FORMS = {
    "dirichlet": (DIRICHLET_FORMS, {"nitsche": "nitsche_nonsym", "aubin": "aubin"}),
    "neumann": (NEUMANN_FORMS, {"nitsche": "with_symmetric_penalty", "aubin": "standard"}),
    "robin": (ROBIN_FORMS, {"nitsche": "nitsche_full_condition", "aubin": "aubin"}),
}

FIXTURE_RADIUS = 0.375
FIXTURE_CENTER = (0.5, 0.5)
FIXTURE_CIRCLE = Circle(FIXTURE_CENTER, FIXTURE_RADIUS)
SQUARE_SIDE = 2.0  # background mesh of the random embeddings and the plate
# a 1.5-wide plate centred in the background square, with a hole of the
# fixture radius at its centre
PLATE_WITH_HOLE = Difference(Rectangle((0.25, 0.25), (1.75, 1.75)),
                             Circle((1.0, 1.0), FIXTURE_RADIUS))
RANDOM_EMBEDDING_LC = 0.15
MAX_RESAMPLE = 50  # redraws of degenerate centres before giving up
AP_CASCADE_EPS = (1e-2, 1e-3, 1e-4)

CSV_COLUMNS = (
    "kind",
    "method",
    "form",
    "order",
    "lc",
    "n_elm",
    "n_dof",
    "h_min",
    "h_avg",
    "h_max",
    "l1_error",
    "residual_inf",
    "cond",
    "extra",
    "wall_time",
)
# counts stay int so the CSV reads 0, not 0.0; unset measurements are NaN
_ROW_DEFAULTS = {
    **dict.fromkeys(CSV_COLUMNS, np.nan),
    "n_elm": 0, "n_dof": 0, "extra": "", "wall_time": 0.0,
}


def _row(spec, **fields):
    """One CSV row of `spec`'s kind; columns not in `fields` take their
    defaults."""
    return {**_ROW_DEFAULTS, "kind": spec.kind, **fields}


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    method: str = "sbm-i"
    form: str = "nitsche"
    bc: str = "dirichlet"
    eps: float = 1.0
    lc_ladder: tuple = (0.2, 0.1, 0.05)
    p_ladder: tuple = (2,)
    seed: int = 0
    gamma: float | None = None
    gamma_scaling: str = "avg"
    wavenumber: int = 1
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "lc_ladder", tuple(self.lc_ladder))
        object.__setattr__(self, "p_ladder", tuple(self.p_ladder))
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {sorted(METHODS)}"
            )
        if self.bc not in FORMS:
            raise ValueError(f"unknown bc {self.bc!r}")
        if not self.lc_ladder or not self.p_ladder:
            raise ValueError("mesh and order ladders must be nonempty")
        for p in self.p_ladder:
            if not (isinstance(p, numbers.Integral) and 1 <= p <= MAX_ORDER):
                raise ValueError(f"orders must be integers in [1, {MAX_ORDER}], got {p!r}")
        self.resolve_form()  # validate eagerly

    def resolve_form(self) -> str:
        full, alias = FORMS[self.bc]
        if self.form in alias:
            return alias[self.form]
        if self.form in full:
            return self.form
        raise ValueError(
            f"form {self.form!r} is not valid for {self.bc} conditions "
            f"(choose from {sorted(set(alias) | set(full))})"
        )


def _surrogate(method, mesh, geometry, order):
    """The surrogate domain `method` builds on `mesh`."""
    return build_surrogate(mesh, geometry, *METHODS[method][:2], order)


def disk_fixture(method, lc, order):
    """Aligned circle fixture: a structured disk mesh sized per method."""
    mesh = generate_structured_disk(lc, FIXTURE_RADIUS + METHODS[method][2] * lc,
                                    FIXTURE_CENTER)
    return _surrogate(method, mesh, FIXTURE_CIRCLE, order)


def _make_problem(mms, bc, form, eps=1.0, gamma=None, gamma_scaling="avg"):
    """One `bc` condition on the fixture circle with the manufactured data;
    the Neumann problem carries a unit reaction term so it is well posed."""
    q = mms.normal_derivative(FIXTURE_CIRCLE)
    if bc == "dirichlet":
        cond = DirichletBC(mms.u, form=form)
    elif bc == "neumann":
        cond = NeumannBC(q, form=form)
    else:
        cond = RobinBC(mms.u, q, eps=eps, form=form)
    alpha = 1.0 if bc == "neumann" else 0.0
    return BoundaryProblem(
        conditions=[cond],
        forcing=mms.forcing(alpha),
        alpha=alpha,
        gamma=gamma,
        gamma_scaling=gamma_scaling,
    )


def _solve(domain, problem, exact_u=None, compute_cond=False):
    """Assemble and solve `problem` on `domain`. Returns the SolveReport
    and the L1 error against `exact_u` (NaN without one). Every driver
    solve but ap_cascade's comes here, and both call through this module's
    names, so a patch of `assemble` or `solve_direct` here sees all of
    them."""
    system = assemble(domain, problem)
    report = solve_direct(system, compute_cond=compute_cond)
    if exact_u is None:
        return report, np.nan
    return report, l1_error(domain, system, report.u, exact_u)


def _solve_row(spec, mms, problem, form, order, lc, compute_cond):
    t0 = time.perf_counter()
    domain = disk_fixture(spec.method, lc, order)
    report, err = _solve(domain, problem, mms.u, compute_cond)
    h_min, h_avg, h_max = domain.h_stats()
    return _row(
        spec, method=spec.method, form=form, order=order, lc=lc,
        n_elm=domain.n_active, n_dof=report.u.size,
        h_min=h_min, h_avg=h_avg, h_max=h_max, l1_error=err,
        residual_inf=report.residual_inf,
        cond=report.cond,
        wall_time=time.perf_counter() - t0,
    )


def fitted_rate(h_values, errors) -> float:
    """Least-squares slope of log error vs log h over the last 3 points."""
    h = np.asarray(h_values, dtype=float)[-3:]
    e = np.asarray(errors, dtype=float)[-3:]
    if h.size < 2 or np.any(e <= 0):
        return float("nan")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def _h_convergence(spec):
    """Convergence and conditioning ladders on the aligned disk, one solve
    per (order, lc) cell. p_convergence runs lc-outer and fits no rates; the
    other kinds run order-outer and fit rates per order."""
    mms = ManufacturedSolution(wavenumber=spec.wavenumber)
    form = spec.resolve_form()
    problem = _make_problem(mms, spec.bc, form, spec.eps, spec.gamma,
                            spec.gamma_scaling)
    want_cond = spec.kind == "conditioning"
    if spec.kind == "p_convergence":
        cells = [(p, lc) for lc in spec.lc_ladder for p in spec.p_ladder]
    else:
        cells = [(p, lc) for p in spec.p_ladder for lc in spec.lc_ladder]
    rows = [_solve_row(spec, mms, problem, form, order, lc, want_cond)
            for order, lc in cells]
    if spec.kind == "p_convergence":
        return rows, {}
    rates = {}
    n_lc = len(spec.lc_ladder)
    for i, order in enumerate(spec.p_ladder):
        ladder = rows[i * n_lc:(i + 1) * n_lc]
        hs = [c["h_avg"] for c in ladder]
        rates[f"l1_rate_P{order}"] = fitted_rate(hs, [c["l1_error"] for c in ladder])
        if want_cond:
            rates[f"cond_slope_P{order}"] = fitted_rate(hs, [c["cond"] for c in ladder])
    return rows, rates


def aligned_degeneration(lc=0.2, order=2, bc="dirichlet"):
    """Max entrywise matrix/rhs gap between each degenerate SBM assembly
    and the conformal assembly on the same boundary-aligned mesh.

    Every method's domain is built with the identity mapping on its own
    surrogate edges, so all mapping distances are zero and every variant
    must reproduce the conformal operator exactly.
    """
    mesh = generate_structured_disk(lc, FIXTURE_RADIUS, FIXTURE_CENTER)
    form = {"dirichlet": "nitsche_nonsym", "neumann": "standard",
            "robin": "nitsche_full_condition"}[bc]
    problem = _make_problem(ManufacturedSolution(wavenumber=1), bc, form)

    domains = build_surrogates(
        mesh, FIXTURE_CIRCLE, [(METHODS[m][0], "identity", order) for m in METHODS])
    systems = {m: assemble(d, problem) for m, d in zip(METHODS, domains)}
    reference = systems.pop("cbm")
    scale = abs(reference.matrix).max()
    gaps = {}
    for method, system in systems.items():
        gap_a = abs(system.matrix - reference.matrix).max() / scale
        gap_b = np.abs(system.rhs - reference.rhs).max() / max(
            np.abs(reference.rhs).max(), 1.0
        )
        gaps[method] = max(gap_a, gap_b)
    return gaps


def _aligned_verification(spec):
    lc = spec.lc_ladder[0]
    rows = []
    for order in spec.p_ladder:
        for bc in FORMS:
            gaps = aligned_degeneration(lc, order, bc)
            rows += [
                _row(spec, method=method, form=bc, order=order, lc=lc,
                     l1_error=gap, extra="degeneration_gap")
                for method, gap in sorted(gaps.items())
            ]
    return rows, {}


def random_embedding_assessment(n_circles=100, lc=RANDOM_EMBEDDING_LC, seed=0,
                                orders=(3, 5), wavenumber=1):
    """Random circles of the fixture radius in the background square: error
    and conditioning statistics per SBM variant.

    Centers are drawn uniformly so the circle stays inside the square with
    a margin of 2 lc, from a PCG64 generator seeded explicitly, so the
    assessment reproduces across platforms. A circle is accepted when all
    its (method, order) surrogates build; they are built together by one
    `build_surrogates` call, and each is solved once.
    Returns per-(method, order) medians and variances of log10 L1 error and
    log10 cond, plus the raw samples. A count n_circles below 1 or an order
    `build_reference_element` rejects raises ValueError before any draw.
    """
    if not (isinstance(n_circles, numbers.Integral) and n_circles >= 1):
        raise ValueError(f"n_circles must be a positive integer, got {n_circles!r}")
    for p in orders:
        build_reference_element(p)
    rng = np.random.default_rng(np.random.PCG64(seed))
    mesh = generate_structured_square(lc, SQUARE_SIDE, SQUARE_SIDE)
    mms = ManufacturedSolution(wavenumber=wavenumber)
    problem = _make_problem(mms, "dirichlet", "nitsche_nonsym")
    lo = FIXTURE_RADIUS + 2.0 * lc
    hi = SQUARE_SIDE - FIXTURE_RADIUS - 2.0 * lc

    cells = [(m, p) for m in ("sbm-e", "sbm-ei", "sbm-i") for p in orders]
    samples = {cell: {"log_err": [], "log_cond": []} for cell in cells}
    centers = []
    attempts = 0
    while len(centers) < n_circles:
        if attempts > MAX_RESAMPLE + n_circles:
            raise RuntimeError("too many degenerate embeddings resampled")
        attempts += 1
        center = rng.uniform(lo, hi, size=2)
        geometry = Circle(tuple(center), FIXTURE_RADIUS)
        try:
            domains = build_surrogates(
                mesh, geometry, [(*METHODS[m][:2], p) for m, p in cells])
        except ValueError as exc:
            # empty or disconnected active set
            log.warning("random embedding: resampling the circle at "
                        "(%.6f, %.6f): %s", *center, exc)
            continue
        centers.append(center)
        for cell, domain in zip(cells, domains):
            report, err = _solve(domain, problem, mms.u, compute_cond=True)
            samples[cell]["log_err"].append(np.log10(max(err, 1e-300)))
            samples[cell]["log_cond"].append(np.log10(report.cond))

    stats = {}
    for (method, order), cell in samples.items():
        le = np.array(cell["log_err"])
        lk = np.array(cell["log_cond"])
        stats[(method, order)] = {
            "median_log_err": float(np.median(le)),
            "var_log_err": float(np.var(le)),
            "median_log_cond": float(np.median(lk)),
            "var_log_cond": float(np.var(lk)),
        }
    return stats, samples, np.array(centers)


def _random_embedding(spec):
    n = 30  # desk-scale default; call the function directly for other sizes
    stats, _, _ = random_embedding_assessment(
        n_circles=n, seed=spec.seed, orders=spec.p_ladder,
        wavenumber=spec.wavenumber,
    )
    rows = [
        _row(spec, method=method, form="nitsche_nonsym", order=order,
             lc=RANDOM_EMBEDDING_LC, n_elm=n,
             l1_error=10.0 ** s["median_log_err"],
             cond=10.0 ** s["median_log_cond"],
             extra=json.dumps(s, sort_keys=True))
        for (method, order), s in sorted(stats.items())
    ]
    return rows, {}


def embedded_disk_fixture(method, lc, order):
    """Fixture circle embedded in a non-aligned unit-square background mesh.

    Unlike the aligned disk fixture, surrogate edges here are genuinely
    oblique to the boundary (1 - nbar.n = O(h)), which is what the
    consistency studies probe.
    """
    if method == "cbm":
        raise ValueError("embedded disk fixture needs a shifted-boundary method")
    return _surrogate(method, generate_structured_square(lc), FIXTURE_CIRCLE,
                      order)


def robin_delta_study(
    method="sbm-i",
    lc_ladder=(0.2, 0.1, 0.05),
    orders=range(1, 9),
    delta=1.0,
    eps=1.0,
    wavenumber=1,
):
    """p-convergence with Robin data perturbed by (u_RD - delta,
    q_RN + delta/eps); the combined Robin condition is unchanged, so only
    an inconsistent formulation feels the perturbation.

    Each (lc, order) surrogate is built once and solved in every form.
    Returns the L1 error table errors[form][lc] -> list over orders.
    """
    mms = ManufacturedSolution(wavenumber=wavenumber)
    q = mms.normal_derivative(FIXTURE_CIRCLE)

    def u_pert(x):
        return mms.u(x) - delta

    def q_pert(x, n):
        return q(x, n) + delta / eps

    problems = {
        form: BoundaryProblem(
            conditions=[RobinBC(u_pert, q_pert, eps=eps, form=form)],
            forcing=mms.forcing(0.0),
        )
        for form in ("inconsistent", "nitsche_full_condition", "aubin")
    }
    errors = {form: {lc: [] for lc in lc_ladder} for form in problems}
    h_avg = {}
    for lc in lc_ladder:
        for order in orders:
            domain = embedded_disk_fixture(method, lc, order)
            h_avg[lc] = domain.h_stats()[1]
            for form, problem in problems.items():
                errors[form][lc].append(_solve(domain, problem, mms.u)[1])
    return errors, h_avg


def _robin_consistency_delta(spec):
    orders = spec.p_ladder if len(spec.p_ladder) > 1 else tuple(range(1, 9))
    errors, h_avg = robin_delta_study(
        spec.method, spec.lc_ladder, orders, wavenumber=spec.wavenumber
    )
    rows = [
        _row(spec, method=spec.method, form=form, order=order, lc=lc,
             h_avg=h_avg[lc], l1_error=err, extra="delta=1")
        for form in sorted(errors)
        for lc in spec.lc_ladder
        for order, err in zip(orders, errors[form][lc])
    ]
    plateau = [min(errors["inconsistent"][lc]) for lc in spec.lc_ladder]
    hs = [h_avg[lc] for lc in spec.lc_ladder]
    rates = {"inconsistent_plateau_slope": fitted_rate(hs, plateau)}
    return rows, rates


def robin_limit_gaps(method="cbm", lc=0.1, orders=(2, 5), form="aubin",
                     wavenumber=1):
    """Relative gap between extreme-eps Robin solves and the pure
    Dirichlet / Neumann solves on one fixed mesh per order."""
    mms = ManufacturedSolution(wavenumber=wavenumber)
    q = mms.normal_derivative(FIXTURE_CIRCLE)
    problems = (
        _make_problem(mms, "dirichlet", "aubin"),
        _make_problem(mms, "neumann", "standard"),
        _make_problem(mms, "robin", form, eps=1e-10),
        BoundaryProblem(
            conditions=[RobinBC(mms.u, q, eps=1e10, form=form)],
            forcing=mms.forcing(1.0), alpha=1.0,
        ),
    )
    gaps = {}
    for order in orders:
        domain = disk_fixture(method, lc, order)
        dirichlet, neumann, robin_d, robin_n = (
            _solve(domain, problem)[0].u for problem in problems
        )
        norm_d = np.abs(dirichlet).max()
        norm_n = np.abs(neumann).max()
        gaps[order] = {
            "dirichlet": float(np.abs(robin_d - dirichlet).max() / norm_d),
            "neumann": float(np.abs(robin_n - neumann).max() / norm_n),
        }
    return gaps


def _robin_form(spec):
    """The Robin studies take the spec's form under --bc robin, else aubin."""
    return spec.resolve_form() if spec.bc == "robin" else "aubin"


def _robin_limits(spec):
    form = _robin_form(spec)
    gaps = robin_limit_gaps(spec.method, spec.lc_ladder[0], spec.p_ladder,
                            form, spec.wavenumber)
    rows = [
        _row(spec, method=spec.method, form=form, order=order,
             lc=spec.lc_ladder[0], l1_error=gaps[order][limit],
             extra=f"limit={limit}")
        for order in sorted(gaps)
        for limit in ("dirichlet", "neumann")
    ]
    return rows, {}


def _mapped_values(domain, system, u_vec, table):
    """u_h's trace (n_rec, nq) at the mapped points, taken from the owning
    element's polynomial: its values for `table` = the domain's
    `traces.vmap`, grad(u_h) . n for `traces.gmapn`."""
    local = u_vec[system.loc2glob[domain.active_row[domain.records.elem]]]
    return np.einsum("rqk,rk->rq", table, local)


def ap_cascade(
    domain,
    u_data,
    q_data,
    forcing,
    alpha: float = 0.0,
    limit: str = "dirichlet",
    gamma: float | None = None,
):
    """Asymptotic expansion modes u_0, u_1, u_2 of the Robin problem.

    Dirichlet limit (eps -> 0): u_0 solves the Dirichlet problem with data
    u_RD; u_m (m >= 1, zero forcing) with data q_RN - dn(u_0) then -u_1's
    normal derivative. Neumann limit (1/eps -> 0) is the dual cascade on
    the Neumann data. The data are read at the records' mapped points as
    assemble reads them, q_RN with the records' normals. Returns the list
    of mode vectors and the reference system (for error evaluation).
    """
    if limit == "dirichlet":
        condition, data = partial(DirichletBC, form="aubin"), u_data
        other = _eval_flux(q_data, domain.records, slice(None))
        table = domain.traces.gmapn
    elif limit == "neumann":
        condition, data = partial(NeumannBC, form="standard"), q_data
        other = _eval_field(u_data, domain.records, slice(None))
        table = domain.traces.vmap
        alpha = alpha if alpha > 0 else 1.0
    else:
        raise ValueError(f"unknown limit {limit!r}")

    modes = []
    base = None
    for m in range(3):
        if m > 0:
            trace = _mapped_values(domain, base, modes[-1], table)
            data = -trace if m > 1 else other - trace
        problem = BoundaryProblem(
            conditions=[condition(data)],
            forcing=forcing if m == 0 else 0.0,
            alpha=alpha,
            gamma=gamma,
        )
        system = assemble(domain, problem)
        report = solve_direct(system, compute_cond=False)
        modes.append(report.u)
        if base is None:
            base = system
    return modes, base


def ap_cascade_slopes(method="sbm-i", lc=0.0625, order=6,
                      eps_values=AP_CASCADE_EPS, wavenumber=1, gamma=None):
    """Fitted slopes of ||u_eps - sum_{k<=m} eps^k u_k||_L1 vs eps.

    u_eps solves the full Robin problem (Aubin form); the cascade modes come
    from the recursive Dirichlet-limit (eps -> 0) problems. The flux data
    carries an offset so the data pair is not mutually consistent
    (otherwise every correction mode vanishes and the expansion is
    trivial). Expected slopes 1, 2, 3 for m = 0, 1, 2, with the cubic fit
    allowed to sit on the discretization floor at the smallest eps.
    """
    mms = ManufacturedSolution(wavenumber=wavenumber)
    q_mms = mms.normal_derivative(FIXTURE_CIRCLE)

    def q(x, n):
        # spatially varying data mismatch; a constant would make u_1
        # constant and kill the higher correction modes
        x = np.asarray(x, dtype=float)
        return q_mms(x, n) + np.cos(2.0 * np.pi * (x[..., 0] - x[..., 1]))

    domain = disk_fixture(method, lc, order)
    modes, base = ap_cascade(
        domain, mms.u, q, mms.forcing(0.0), alpha=0.0, gamma=gamma,
    )

    residuals = np.empty((len(eps_values), 3))
    for i, eps in enumerate(eps_values):
        problem = BoundaryProblem(
            conditions=[RobinBC(mms.u, q, eps=eps, form="aubin")],
            forcing=mms.forcing(0.0), gamma=gamma,
        )
        u_eps = _solve(domain, problem)[0].u
        expansion = np.zeros_like(u_eps)
        for m, mode in enumerate(modes):
            expansion = expansion + (eps ** m) * mode
            diff = u_eps - expansion
            # L1 of the gap field via the cascade's reference system layout
            residuals[i, m] = l1_error(domain, base, diff, lambda x: 0.0 * x[..., 0])
    log_eps = np.log(np.asarray(eps_values))
    slopes = []
    for m in range(3):
        r = residuals[:, m]
        # drop points that sit on the discretization floor
        keep = r > 10.0 * r.min() if m == 2 else np.ones_like(r, bool)
        if keep.sum() < 2:
            keep = np.ones_like(r, bool)
        slopes.append(float(np.polyfit(log_eps[keep], np.log(r[keep]), 1)[0]))
    return slopes, residuals


def _ap_cascade(spec):
    order = spec.p_ladder[-1]
    slopes, residuals = ap_cascade_slopes(
        spec.method, spec.lc_ladder[0], order,
        wavenumber=spec.wavenumber, gamma=spec.gamma,
    )
    rows = [
        _row(spec, method=spec.method, form="aubin", order=order,
             lc=spec.lc_ladder[0], l1_error=residuals[i, m],
             extra=f"eps={eps:g} m={m}")
        for i, eps in enumerate(AP_CASCADE_EPS)
        for m in range(3)
    ]
    rates = {f"ap_slope_m{m}": slopes[m] for m in range(3)}
    return rows, rates


def square_with_hole_fixture(method, lc, order):
    """PLATE_WITH_HOLE embedded in the square background mesh."""
    if method == "cbm":
        raise ValueError("square-with-hole fixture is embedded only")
    mesh = generate_structured_square(lc, SQUARE_SIDE, SQUARE_SIDE)
    return _surrogate(method, mesh, PLATE_WITH_HOLE, order)


def mixed_dirichlet_neumann(
    method="sbm-i",
    lc=0.125,
    orders=(2, 4, 6),
    form="aubin",
    wavenumber=1,
    swap=False,
):
    """Square-with-hole solved with Robin conditions only: eps = 1e-10 on
    the outer boundary (Dirichlet-like) and 1e10 on the hole
    (Neumann-like), or the reverse with swap=True. The hole's records are
    picked by their segment id."""
    mms = ManufacturedSolution(wavenumber=wavenumber)
    q = mms.normal_derivative(PLATE_WITH_HOLE)
    eps_outer, eps_inner = (1e10, 1e-10) if swap else (1e-10, 1e10)
    inner = RobinBC(mms.u, q, eps=eps_inner, form=form,
                    where=Difference.INNER_OFFSET)
    outer = RobinBC(mms.u, q, eps=eps_outer, form=form)
    alpha = 1.0 if swap else 0.0  # swapped outer Neumann needs reaction
    problem = BoundaryProblem(
        conditions=[inner, outer], forcing=mms.forcing(alpha), alpha=alpha
    )
    return {
        order: _solve(square_with_hole_fixture(method, lc, order), problem,
                      mms.u)[1]
        for order in orders
    }


def _mixed(spec):
    form = _robin_form(spec)
    errors = mixed_dirichlet_neumann(
        spec.method, spec.lc_ladder[0], spec.p_ladder, form, spec.wavenumber
    )
    rows = [
        _row(spec, method=spec.method, form=form, order=order,
             lc=spec.lc_ladder[0], l1_error=errors[order])
        for order in sorted(errors)
    ]
    return rows, {}


def _lebesgue_table(spec):
    rows = []
    for order in range(1, MAX_ORDER + 1):
        elem = build_reference_element(order)
        interior = lebesgue_constant(elem, "interior")
        extrap = lebesgue_constant(elem, "extrap_circle")
        rows.append(_row(
            spec, method="-", form="-", order=order, n_dof=elem.n_points,
            l1_error=interior, cond=extrap, extra="interior|extrapolation",
        ))
    return rows, {}


def _vandermonde_1d(spec):
    rows = [
        _row(spec, method="-", form="-", order=order, n_dof=order + 1,
             cond=vandermonde_shift_study_1d(order, shift),
             extra=f"shift={shift:.3f}")
        for order in range(1, 10)
        for shift in np.linspace(0.1, 2.0, 20)
    ]
    return rows, {}


_DISPATCH = {
    "h_convergence": _h_convergence,
    "p_convergence": _h_convergence,
    "conditioning": _h_convergence,
    "aligned_verification": _aligned_verification,
    "random_embedding_assessment": _random_embedding,
    "robin_consistency_delta": _robin_consistency_delta,
    "robin_limits": _robin_limits,
    "mixed_dirichlet_neumann": _mixed,
    "ap_cascade": _ap_cascade,
    "lebesgue_table": _lebesgue_table,
    "vandermonde_1d": _vandermonde_1d,
}
KINDS = tuple(_DISPATCH)


def run(spec: ExperimentSpec):
    """Execute a spec; returns (rows, rates) and writes CSV + JSON when
    spec.out is set."""
    rows, rates = _DISPATCH[spec.kind](spec)
    if spec.out is not None:
        write_artifacts(spec, rows, rates)
    return rows, rates


def write_artifacts(spec, rows, rates):
    base = str(spec.out).removesuffix(".csv")
    with open(base + ".csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
    meta = {
        "schema_version": SCHEMA_VERSION,
        "spec": asdict(spec),
        "seed": spec.seed,
        "rates": rates,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(base + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
