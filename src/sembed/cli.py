"""Command line front end: `sembed --experiment <kind> [options]`."""

from __future__ import annotations

import argparse
import sys

from .experiments import FORMS, KINDS, METHODS, ExperimentSpec, artifact_base, run


def build_parser() -> argparse.ArgumentParser:
    # an option left out is absent from the parsed namespace, so the spec
    # takes ExperimentSpec's own default for it
    parser = argparse.ArgumentParser(
        prog="sembed",
        description="Spectral element verification experiments for the "
        "shifted-boundary Poisson-reaction solver.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--experiment", required=True, choices=KINDS)
    parser.add_argument("--method", choices=sorted(METHODS))
    parser.add_argument("--form",
                        help="weak form (nitsche, aubin, or an explicit "
                        "per-condition form name)")
    parser.add_argument("--bc", choices=tuple(FORMS))
    parser.add_argument("--eps", type=float, help="Robin coefficient")
    parser.add_argument("--lc-ladder", type=float, nargs="+", metavar="LC")
    parser.add_argument("--p-ladder", type=int, nargs="+", metavar="P")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--gamma", type=float,
                        help="penalty scale (default: h_avg / 2)")
    parser.add_argument("--gamma-scaling", choices=("avg", "local-h"),
                        help="global h_avg penalty or per-element h")
    parser.add_argument("--wavenumber", type=int,
                        help="manufactured solution wavenumber")
    parser.add_argument("--out",
                        help="output basename; writes <out>.csv and "
                        "<out>.json")
    parser.add_argument("--dat", action="store_true",
                        help="also write a gnuplot-ready <out>.dat")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    opts = vars(parser.parse_args(argv))
    kind, dat = opts.pop("experiment"), opts.pop("dat", False)
    if dat and "out" not in opts:
        parser.error("--dat writes <out>.dat and needs --out")
    if opts.get("gamma_scaling") == "local-h":
        opts["gamma_scaling"] = "local"
    try:
        spec = ExperimentSpec(kind=kind, **opts)
        # a spec valid field by field can still ask a fixture for what it
        # cannot build (say, cbm on an embedded fixture); it says so here
        rows, rates = run(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if dat:
        _write_dat(spec.out, rows)

    for row in rows:
        print(
            f"{row['kind']} {row['method']:>7} {row['form']:>22} "
            f"P={row['order']} lc={row['lc']} "
            f"l1={row['l1_error']:.4e} cond={row['cond']:.4e}"
        )
    for name, value in sorted(rates.items()):
        print(f"{name} = {value:.3f}")
    return 0


def _write_dat(out, rows):
    with open(artifact_base(out) + ".dat", "w") as fh:
        fh.write("# order lc l1_error cond\n")
        for row in rows:
            fh.write(
                f"{row['order']} {row['lc']} "
                f"{row['l1_error']} {row['cond']}\n"
            )


if __name__ == "__main__":
    sys.exit(main())
