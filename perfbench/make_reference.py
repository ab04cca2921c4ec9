"""Regenerate reference.json, the committed fingerprint of every cell.

    python3 perfbench/make_reference.py

Run from the root of a source checkout. It runs one pass of each workload
(every committed seed for random_embedding) on the code under ``src/`` and
records each cell's DOF count, nonzeros, L1 error and condition number.
Only regenerate on purpose: a change that moves these numbers beyond the
tolerances in fingerprint.py changes the program's results.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads its BLAS

import bench  # noqa: E402
import tracer  # noqa: E402


def main():
    probe = tracer.Probe()
    probe.install(set(tracer.CELL_TARGETS))
    cells = {}
    try:
        for name, (workload, _, seeded) in bench.WORKLOADS.items():
            for seed in range(bench.REFERENCE_SEEDS) if seeded else (None,):
                p = bench.run_pass(probe, workload, seed, traced=False)
                if p["error"]:
                    raise RuntimeError(f"{name} seed {seed} raised:\n{p['error']}")
                cells[bench.reference_key(name, seed)] = p["cells"]
                print(f"{bench.reference_key(name, seed)}: {len(p['cells'])} cells")
    finally:
        probe.uninstall()
    # one cell per line keeps the file small and its diffs readable
    lines = [f'{{"provenance": {json.dumps(bench.provenance())},', ' "cells": {']
    for i, (key, rows) in enumerate(cells.items()):
        lines.append(f"  {json.dumps(key)}: [")
        lines += [f"   {json.dumps(c)}," for c in rows[:-1]] + [f"   {json.dumps(rows[-1])}"]
        lines.append("  ]" + ("," if i < len(cells) - 1 else ""))
    lines.append(" }\n}\n")
    bench.REFERENCE.write_text("\n".join(lines))


if __name__ == "__main__":
    main()
