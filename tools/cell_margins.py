"""How near each committed benchmark cell's L1 error is to its bound.

Runs one pass of each workload in ``perfbench/bench.py`` (``random_embedding``
at every committed seed, 0 to ``bench.REFERENCE_SEEDS`` - 1) and, for every
cell in ``perfbench/reference.json``, prints two distances from the
reference L1, each in units of the cell's bound ``L1_RTOL * |ref| +
L1_ATOL`` from ``perfbench/fingerprint.py``:

- today: the L1 of the solve as the workload runs it;
- extended: the L1 of the same system solved by plain LU refined with
  residuals in ``np.longdouble`` (as in ``tests/test_condensation.py``),
  nearly free of the solve's roundoff.

A distance above 1 is a fingerprint miss. Lines are sorted by today's
distance, then the extended one, largest first:

    today extended workload[/seed=S] cell I l1=... extended=... reference=...

    python tools/cell_margins.py [ROOT]

ROOT is the source tree to import ``src/`` and ``perfbench/`` from (default:
this script's repository). BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REFINEMENT_STEPS = 5  # as tests/test_condensation.py


def extended_precision_solution(system, steps=REFINEMENT_STEPS):
    """Plain LU of the system, refined with residuals in np.longdouble."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    lu = spla.splu(sp.csc_matrix(system.matrix))
    a = system.matrix.astype(np.longdouble)
    b = system.rhs.astype(np.longdouble)
    u = lu.solve(system.rhs).astype(np.longdouble)
    for _ in range(steps):
        u += lu.solve((b - a @ u).astype(float))
    return u.astype(float)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1])
    root = parser.parse_args(argv).root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    from run import THREAD_VARS

    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads

    import bench
    import fingerprint
    from sembed import experiments, mms

    cells = []
    l1_error = mms.l1_error

    def l1_and_extended(domain, system, u_vec, exact_u):
        err = l1_error(domain, system, u_vec, exact_u)
        refined = extended_precision_solution(system)
        cells.append((err, l1_error(domain, system, refined, exact_u)))
        return err

    # bench calls mms.l1_error; the experiments call their module's binding
    mms.l1_error = experiments.l1_error = l1_and_extended

    with open(root / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)["cells"]
    lines = []
    for name, (run_pass, _, takes_seed) in bench.WORKLOADS.items():
        for seed in range(bench.REFERENCE_SEEDS) if takes_seed else (None,):
            key = bench.reference_key(name, seed)
            cells.clear()
            run_pass(seed)
            if len(cells) != len(reference[key]):
                raise SystemExit(f"{key}: {len(cells)} cells, "
                                 f"{len(reference[key])} in the reference")
            for i, ((l1, ext), ref) in enumerate(zip(cells, reference[key])):
                ref = ref["l1"]
                bound = fingerprint.L1_RTOL * abs(ref) + fingerprint.L1_ATOL
                lines.append((abs(l1 - ref) / bound, abs(ext - ref) / bound,
                              f"{key} cell {i} l1={l1!r} extended={ext!r} "
                              f"reference={ref!r}"))
    for today, extended, label in sorted(lines, reverse=True):
        print(f"{today:.3f} {extended:.3f} {label}")


if __name__ == "__main__":
    main()
