"""Launch one sembed benchmark run in a fresh, single-threaded process.

    python3 perfbench/run.py --workload disk_highp --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout. The package is imported from
``src/`` (it need not be installed), every BLAS/OpenMP pool is pinned to one
thread, and ``bench.py`` runs in a child process whose last output line is
the result object. The exit code is non-zero, with no result printed, when
``src/sembed`` is absent, the child fails, or the run exceeds its time limit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def main(argv):
    started = monotonic()
    if not (ROOT / "src" / "sembed" / "__init__.py").is_file():
        print(f"no sembed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    child = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py"), *argv],
        cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        code = child.wait(timeout=TIME_LIMIT_S - (monotonic() - started))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # the child's own children (set-up probes) share its process group
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code is None:
        print(f"benchmark exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
