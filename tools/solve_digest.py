"""Digest of every solve in the benchmark's workload passes and in the
Robin studies, and of the reference element's tables.

Runs one pass of each workload in ``perfbench/bench.py`` (``random_embedding``
at every committed seed, 0 to ``bench.REFERENCE_SEEDS`` - 1), then the Robin
delta study at sbm-i, lc 0.1, P 1-8, the asymptotic cascade of acceptance
criterion 09 and the plate-with-hole Robin solves that pick conditions by
segment id (sbm-i, lc 0.2, P 2 and 4, as posed and swapped), then the
conformal (cbm) h-convergence ladder at lc 0.2 and 0.1, P 1, 3 and 6, under
each boundary condition, with ``solve_direct`` and ``l1_error`` wrapped. It
prints one line per solve: the sha256 of the solution ``u``, then ``cond``,
``residual_inf`` and the L1 errors taken after it (``-`` for none,
comma-separated for several) by ``repr``. Next come the degenerate-record gaps of ``aligned_degeneration``
(no solve) at lc 0.2, one line per order P 1-4 and boundary condition, each
method's gap by ``repr``. Last, for each order P 1-10, one line with the
sha256 of the reference element's ``vandermonde_inv``, ``cub_basis``,
``cub_dr`` and ``cub_ds`` and of the ``modal_basis`` and ``modal_basis_grad``
tables at a fixed seeded point set inside and outside the reference
triangle, and one line with the interior and ``extrap_circle`` Lebesgue
constants at density 50 by ``repr``: no solve reaches the values-only
tabulation, so these lines are what covers it. Two trees whose digests
differ in any byte do not solve bitwise alike.

    python tools/solve_digest.py [ROOT]

ROOT is the source tree to import ``src/`` and ``perfbench/`` from (default:
this script's repository), so the script can digest a tree that predates
it. Pin BLAS to one thread (OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1
MKL_NUM_THREADS=1) when comparing two trees.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from functools import partial
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1])
    root = parser.parse_args(argv).root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import bench
    import numpy as np
    from sembed import experiments, mms, refelem, solve

    cells = []
    solve_direct, l1_error = solve.solve_direct, mms.l1_error

    def solve_and_record(*args, **kwargs):
        report = solve_direct(*args, **kwargs)
        digest = hashlib.sha256(report.u.tobytes()).hexdigest()
        cells.append([digest, repr(report.cond), repr(report.residual_inf), []])
        return report

    def l1_and_record(*args, **kwargs):
        err = l1_error(*args, **kwargs)
        cells[-1][3].append(repr(err))
        return err

    # a tree whose cascade solves in mms has solve_direct there too
    for module in (solve, mms, experiments):
        if hasattr(module, "solve_direct"):
            module.solve_direct = solve_and_record
        if hasattr(module, "l1_error"):
            module.l1_error = l1_and_record

    runs = {
        name if seed is None else f"{name}/seed={seed}": partial(run_pass, seed)
        for name, (run_pass, _, takes_seed) in bench.WORKLOADS.items()
        for seed in (range(bench.REFERENCE_SEEDS) if takes_seed else (None,))
    }
    runs["robin_delta_study"] = partial(
        experiments.robin_delta_study, "sbm-i", lc_ladder=(0.1,),
        orders=range(1, 9))
    runs["ap_cascade_slopes"] = experiments.ap_cascade_slopes
    for swap in (False, True):
        runs[f"mixed_dirichlet_neumann/swap={swap}"] = partial(
            experiments.mixed_dirichlet_neumann, "sbm-i", lc=0.2,
            orders=(2, 4), swap=swap)
    for bc in experiments.FORMS:
        runs[f"h_convergence/cbm/bc={bc}"] = partial(
            experiments.run, experiments.ExperimentSpec(
                kind="h_convergence", method="cbm", bc=bc,
                lc_ladder=(0.2, 0.1), p_ladder=(1, 3, 6)))
    for label, run in runs.items():
        cells.clear()
        run()
        for i, (*cell, errors) in enumerate(cells):
            print(label, i, *cell, ",".join(errors) or "-")
    for order in range(1, 5):
        for bc in experiments.FORMS:
            gaps = experiments.aligned_degeneration(0.2, order, bc)
            print(f"aligned_degeneration/lc=0.2/P={order}/bc={bc}",
                  *(f"{method}={float(gap)!r}" for method, gap in sorted(gaps.items())))

    # points inside the triangle, in a box around it, at the collapsed
    # vertex (-1, 1) and on the line s = 1 off it
    rng = np.random.default_rng(0)
    inside = rng.dirichlet(np.ones(3), size=100) @ np.array(
        [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    outside = rng.uniform(-3.0, 2.0, size=(100, 2))
    r, s = np.concatenate([inside, outside, [[-1.0, 1.0], [-2.0, 1.0]]]).T
    for order in range(1, refelem.MAX_ORDER + 1):
        elem = refelem.build_reference_element(order)
        tables = {
            "vandermonde_inv": elem.vandermonde_inv, "cub_basis": elem.cub_basis,
            "cub_dr": elem.cub_dr, "cub_ds": elem.cub_ds,
            "modal_basis": refelem.modal_basis(order, r, s),
        }
        for name, table in zip(("values", "dr", "ds"),
                               refelem.modal_basis_grad(order, r, s)):
            tables[f"modal_basis_grad/{name}"] = table
        print(f"refelem/P={order}", *(
            f"{name}={hashlib.sha256(table.tobytes()).hexdigest()}"
            for name, table in tables.items()))
        print(f"lebesgue/P={order}/density=50",
              *(f"{domain}={refelem.lebesgue_constant(elem, domain, density=50)!r}"
                for domain in ("interior", "extrap_circle")))


if __name__ == "__main__":
    main()
