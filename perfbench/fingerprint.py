"""Compare solved cells against committed reference values.

A cell is one mesh/order/method solve: its DOF count, matrix nonzeros, L1
error and, where one was computed, condition number.

Tolerances:
- ``n_dof`` and ``nnz`` match exactly.
- The L1 error matches to ``L1_RTOL`` relative plus ``L1_ATOL`` absolute.
  The absolute part sits well above the roundoff floor (about 1e-14 on these
  fixtures), so summing in another order does not count as a miss.
- An exact (dense SVD) condition number matches to ``SVD_COND_RTOL``, which
  also admits an iterative exact method accurate to 1e-6.
- A 1-norm estimate is only order-of-magnitude accurate, and it is
  randomized. It matches within a factor ``ESTIMATE_COND_FACTOR``, which
  also admits the exact 2-norm value: on the two estimator-path
  disk_lowp_cond cells it is 3.8 and 6.6 times smaller than the committed
  estimate.
"""

from __future__ import annotations

import math

L1_RTOL = 1e-6
L1_ATOL = 1e-12
SVD_COND_RTOL = 1e-4
ESTIMATE_COND_FACTOR = 10.0


def cell_mismatches(ref: dict, got: dict | None) -> list[str]:
    """Reasons why `got` misses the fingerprint `ref`; empty if it matches."""
    if got is None:
        return ["cell missing (the workload raised before reaching it)"]
    problems = []
    for key in ("n_dof", "nnz"):
        if got.get(key) != ref[key]:
            problems.append(f"{key} {got.get(key)} != {ref[key]}")
    l1 = got.get("l1", math.nan)
    if not abs(l1 - ref["l1"]) <= L1_RTOL * abs(ref["l1"]) + L1_ATOL:
        problems.append(f"l1 {l1!r} != {ref['l1']!r}")
    if "cond" in ref:
        cond = got.get("cond", math.nan)
        if ref["cond_method"] == "svd":
            ok = abs(cond - ref["cond"]) <= SVD_COND_RTOL * ref["cond"]
        else:
            ok = ref["cond"] / ESTIMATE_COND_FACTOR <= cond <= (
                ref["cond"] * ESTIMATE_COND_FACTOR
            )
        if not ok:
            problems.append(f"cond {cond!r} != {ref['cond']!r} ({ref['cond_method']})")
    return problems


def compare(ref_cells: list[dict], got_cells: list[dict]):
    """Check cells in order; returns (attempted, failed, messages).

    Every reference cell counts as attempted. A cell not produced, because
    the workload raised first, fails; so does every cell beyond the
    reference's count.
    """
    attempted = max(len(ref_cells), len(got_cells))
    failed = 0
    messages = []
    for i in range(attempted):
        if i >= len(ref_cells):
            problems = ["cell not in the reference"]
        else:
            got = got_cells[i] if i < len(got_cells) else None
            problems = cell_mismatches(ref_cells[i], got)
        if problems:
            failed += 1
            messages.append(f"cell {i}: " + "; ".join(problems))
    return attempted, failed, messages
