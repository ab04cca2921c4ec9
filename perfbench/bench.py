"""One benchmark run of one sembed workload.

Start it through ``run.py``, which pins the BLAS/OpenMP pools to one thread,
puts ``src/`` on the import path and runs this file in a fresh process.

A run does one warm-up pass, then repeats the workload's pass until
``--seconds`` have gone by. An untraced run also times set-up (cold import
plus reference-element builds, in child interpreters) between passes.
Every cell of every pass is checked against ``reference.json``. The last line printed is the result object; the full
record (provenance, pass times, failures and, when traced, all spans) goes to
``out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from sembed import assembly, experiments, mms, refelem, solve

import fingerprint
import tracer
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

# Child interpreters timed per untraced run; setup_s is their median. They
# run between passes, so they sample the same phases of host speed as the
# passes do, not only the first seconds of the run.
SETUP_REPEATS = 9
BUILD_REPEATS = 3  # traced cold builds per run; refelem.build_s is their median
REFERENCE_SEEDS = 32  # --seed selects one of this many committed embeddings

HIGHP_CELLS = ((4, 0.05), (4, 0.025), (8, 0.05))  # (order, lc)
LOWP_LC_LADDER = (0.05, 0.025, 0.0125)


def disk_highp(seed):
    """sbm-i Dirichlet at P = 4 and 8; trace- and LU-heavy, no conditioning."""
    exact = mms.ManufacturedSolution(wavenumber=5)
    problem = assembly.BoundaryProblem(
        conditions=[assembly.DirichletBC(exact.u, form="nitsche_nonsym")],
        forcing=exact.forcing(0.0),
    )
    for order, lc in HIGHP_CELLS:
        domain = experiments.disk_fixture("sbm-i", lc, order)
        system = assembly.assemble(domain, problem)
        report = solve.solve_direct(system, compute_cond=False)
        mms.l1_error(domain, system, report.u, exact.u)


def random_embedding(seed):
    """30 small solves with dense-SVD conditioning, 45 surrogate builds."""
    experiments.random_embedding_assessment(n_circles=5, orders=(3, 5), seed=seed)


def disk_lowp_cond(seed):
    """P = 2 conditioning ladder; volume loop, cut detection, DOF map and
    the 1-norm estimator (the two finer meshes exceed SVD_LIMIT)."""
    experiments.run(experiments.ExperimentSpec(
        kind="conditioning", method="sbm-i", p_ladder=(2,), lc_ladder=LOWP_LC_LADDER,
    ))


# name -> (pass function, reference-element orders it uses, takes the seed)
WORKLOADS = {
    "disk_highp": (disk_highp, (4, 8), False),
    "random_embedding": (random_embedding, (1, 3, 5), True),
    "disk_lowp_cond": (disk_lowp_cond, (2,), False),
}


def reference_key(workload, seed):
    return workload if seed is None else f"{workload}/seed={seed}"


def input_seed(workload, seed):
    return seed % REFERENCE_SEEDS if WORKLOADS[workload][2] else None


# -- per-layer metrics of the traced run --------------------------------

def _sum(*names):
    return lambda s, c: sum((s[n] for n in names), 0.0)


def _calls(*names):
    return lambda s, c: sum(c[n + ".calls"] for n in names)


def _count(key):
    return lambda s, c: c[key]


def _accept_ratio(s, c):
    calls = c["embedding.build_surrogate.calls"]
    return 1.0 - c["embedding.build_surrogate.value_errors"] / calls if calls else 1.0


_BASIS = ("refelem.eval_basis", "refelem.eval_basis_grad")
_MESH = ("meshing.generate_structured_disk", "meshing.generate_structured_square")
_DRIVER = ("experiments.run", "experiments.random_embedding_assessment",
           "experiments.disk_fixture")

# metric -> (unit, wrap targets it needs, value from one traced pass's
# self seconds by span name `s` and counters `c`). Times are self times.
LAYER_METRICS = {
    "refelem.eval_basis_s": ("s", _BASIS, _sum(*_BASIS)),
    "refelem.eval_basis_calls": ("count", _BASIS, _calls(*_BASIS)),
    "assembly.assemble_s": ("s", ("assembly.assemble",), _sum("assembly.assemble")),
    "assembly.dof_map_s": ("s", ("assembly.dof_map",), _sum("assembly.dof_map")),
    "assembly.n_dof": ("count", ("assembly.assemble",), _count("assembly.n_dof")),
    "assembly.nnz": ("count", ("assembly.assemble",), _count("assembly.nnz")),
    "solve.lu_s": ("s", ("solve.solve_direct",), _sum("solve.solve_direct")),
    "solve.cond_s": ("s", ("solve.condition_number",), _sum("solve.condition_number")),
    "solve.cond_svd_calls": (
        "count", ("solve.condition_number",), _count("solve.cond_svd_calls")),
    "solve.cond_estimate_calls": (
        "count", ("solve.condition_number",), _count("solve.cond_estimate_calls")),
    "embedding.build_surrogate_s": (
        "s", ("embedding.build_surrogate",), _sum("embedding.build_surrogate")),
    "embedding.classify_s": ("s", ("embedding.classify",), _sum("embedding.classify")),
    "embedding.build_surrogate_calls": (
        "count", ("embedding.build_surrogate",), _calls("embedding.build_surrogate")),
    "embedding.records": (
        "count", ("embedding.build_surrogate",), _count("embedding.records")),
    "embedding.accept_ratio": ("fraction", ("embedding.build_surrogate",), _accept_ratio),
    "embedding.fallbacks": (
        "count", ("embedding.build_surrogate",), _count("embedding.fallbacks")),
    "mms.l1_error_s": ("s", ("mms.l1_error",), _sum("mms.l1_error")),
    "meshing.generate_s": ("s", _MESH, _sum(*_MESH)),
    "experiments.driver_s": ("s", _DRIVER, _sum(*_DRIVER)),
    "trace.unattributed_s": ("s", (), _sum(tracer.PASS_SPAN)),
}


def layer_metrics(probe, traced, untraced, build_s):
    """Per-layer medians over the traced passes; metrics whose wrap target
    is gone are left out, so a rename shows as a missing metric."""
    totals = tracer.totals_by_root(probe.spans)
    per_pass = []
    for p in traced:
        s = Counter({name: v[0] for name, v in totals[p["root"]].items()})
        c = Counter(p["counts"])
        per_pass.append({m: fn(s, c) for m, (_, _, fn) in LAYER_METRICS.items()})
    metrics = {}
    for name, (unit, needs, _) in LAYER_METRICS.items():
        if all(n in probe.installed for n in needs):
            value = statistics.median(v[name] for v in per_pass)
            metrics[name] = {"value": value, "unit": unit}
    if build_s:
        metrics["refelem.build_s"] = {"value": statistics.median(build_s), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(p["wall"] for p in traced)
        - statistics.median(p["wall"] for p in untraced),
        "unit": "s",
    }
    return metrics


# -- set-up ---------------------------------------------------------------

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import sembed.experiments
from sembed.refelem import build_reference_element
for order in sys.argv[1:]:
    build_reference_element(int(order))
print(time.perf_counter() - t0)
"""


def setup_probe(orders):
    """Seconds a fresh interpreter spends importing sembed and building
    the reference elements of `orders`."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *map(str, orders)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def cold_builds(probe, orders):
    """Traced reference-element builds with the cache cleared each time."""
    if "refelem.build" not in probe.installed:
        return []
    build = refelem.build_reference_element
    out = []
    for _ in range(BUILD_REPEATS):
        build.__wrapped__.cache_clear()
        root = probe.begin_pass(traced=True)
        for order in orders:
            refelem.build_reference_element(order)
        probe.end_pass(root)
        spans = probe.spans[root:]
        out.append(sum(t for sp, t in zip(spans, tracer.self_times(spans))
                       if sp.name == "refelem.build"))
    return out


# -- provenance -----------------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return None


def provenance():
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# -- passes ---------------------------------------------------------------

def run_pass(probe, workload, seed, traced):
    probe.cells.clear()
    root = probe.begin_pass(traced)
    error = None
    t0 = perf_counter()
    try:
        workload(seed)
    except Exception:  # a failing cell is counted, the run goes on
        error = traceback.format_exc()
    wall = perf_counter() - t0
    counts = probe.end_pass(root)
    return {"wall": wall, "root": root, "counts": counts,
            "cells": list(probe.cells), "error": error, "traced": traced}


def halves(walls):
    """Median of the first and of the second half of the passes."""
    mid = len(walls) // 2
    if mid == 0:
        return None
    first = statistics.median(walls[:mid])
    second = statistics.median(walls[-mid:])
    return {"first_s": first, "second_s": second, "drift": second / first - 1.0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload, orders, _ = WORKLOADS[args.workload]
    seed = input_seed(args.workload, args.seed)
    with open(REFERENCE) as fh:
        ref_cells = json.load(fh)["cells"][reference_key(args.workload, seed)]

    probe = tracer.Probe()
    targets = {t[2] for t in tracer.TARGETS} if args.trace else set(tracer.CELL_TARGETS)
    probe.install(targets)
    setup_runs = []
    try:
        build_s = cold_builds(probe, orders) if args.trace else []
        warm = run_pass(probe, workload, seed, traced=False)
        passes = []
        start = perf_counter()
        while (perf_counter() - start < args.seconds
               or (args.trace and len(passes) < 2)):
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(probe, workload, seed, traced))
            if not args.trace and len(setup_runs) < SETUP_REPEATS:
                setup_runs.append(setup_probe(orders))
    finally:
        probe.uninstall()
    while not args.trace and len(setup_runs) < SETUP_REPEATS:
        setup_runs.append(setup_probe(orders))

    attempted = failed = 0
    messages = []
    for i, p in enumerate([warm] + passes):
        a, f, msgs = fingerprint.compare(ref_cells, p["cells"])
        attempted += a
        failed += f
        messages += [f"pass {i}: {m}" for m in msgs]
        if p["error"]:
            messages.append(f"pass {i} raised:\n{p['error']}")

    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall"] for p in untraced]
    if args.trace:
        metrics = layer_metrics(probe, [p for p in passes if p["traced"]],
                                untraced, build_s)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_runs), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "unit": "MB",
            },
            "pass_frac": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }
    expected = set(LAYER_METRICS) | {"refelem.build_s", "trace.overhead_s"}
    missing_metrics = sorted(expected - set(metrics)) if args.trace else []

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "setup_runs_s": setup_runs,
        "refelem_build_runs_s": build_s,
        "warmup_s": warm["wall"],
        "pass_walls_s": walls,
        "traced_pass_walls_s": [p["wall"] for p in passes if p["traced"]],
        "halves": halves(walls),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": messages,
        "missing_wrap_targets": probe.missing,
        "missing_metrics": missing_metrics,
        "metrics": metrics,
        "spans": [s.as_list() for s in probe.spans],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh)

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"passes {len(walls)} untraced, {len(record['traced_pass_walls_s'])} traced; "
          f"wall min {min(walls):.4f} s, max {max(walls):.4f} s; halves {record['halves']}")
    print(f"cells attempted {attempted}, failed {failed}, "
          f"failed_frac {record['failed_frac']}")
    for line in messages[:20]:
        print("FAIL " + line)
    for name in probe.missing:
        print(f"MISSING wrap target {name}")
    for name in missing_metrics:
        print(f"MISSING metric {name}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"record written to {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
