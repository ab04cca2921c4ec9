"""Command line front end: `sembed --experiment <kind> [options]`."""

from __future__ import annotations

import argparse
import sys

from .experiments import KINDS, METHODS, ExperimentSpec, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sembed",
        description="Spectral element verification experiments for the "
        "shifted-boundary Poisson-reaction solver.",
    )
    parser.add_argument("--experiment", required=True, choices=KINDS)
    parser.add_argument("--method", default="sbm-i", choices=sorted(METHODS))
    parser.add_argument("--form", default="nitsche",
                        help="weak form (nitsche, aubin, or an explicit "
                        "per-condition form name)")
    parser.add_argument("--bc", default="dirichlet",
                        choices=("dirichlet", "neumann", "robin"))
    parser.add_argument("--eps", type=float, default=1.0,
                        help="Robin coefficient")
    parser.add_argument("--lc-ladder", type=float, nargs="+",
                        default=[0.2, 0.1, 0.05], metavar="LC")
    parser.add_argument("--p-ladder", type=int, nargs="+", default=[2],
                        metavar="P")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--gamma", type=float, default=None,
                        help="penalty scale (default: h_avg / 2)")
    parser.add_argument("--gamma-scaling", default="avg",
                        choices=("avg", "local-h"),
                        help="global h_avg penalty or per-element h")
    parser.add_argument("--wavenumber", type=int, default=1,
                        help="manufactured solution wavenumber")
    parser.add_argument("--out", default=None,
                        help="output basename; writes <out>.csv and "
                        "<out>.json")
    parser.add_argument("--dat", action="store_true",
                        help="also write a gnuplot-ready <out>.dat")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec(
            kind=args.experiment,
            method=args.method,
            form=args.form,
            bc=args.bc,
            eps=args.eps,
            lc_ladder=tuple(args.lc_ladder),
            p_ladder=tuple(args.p_ladder),
            seed=args.seed,
            gamma=args.gamma,
            gamma_scaling="local" if args.gamma_scaling == "local-h" else "avg",
            wavenumber=args.wavenumber,
            out=args.out,
        )
        # a spec valid field by field can still ask a fixture for what it
        # cannot build (say, cbm on an embedded fixture); it says so here
        rows, rates = run(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dat and args.out is not None:
        _write_dat(args.out, rows)

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
    base = out[:-4] if out.endswith(".csv") else out
    with open(base + ".dat", "w") as fh:
        fh.write("# order lc l1_error cond\n")
        for row in rows:
            fh.write(
                f"{row['order']} {row['lc']} "
                f"{row['l1_error']} {row['cond']}\n"
            )


if __name__ == "__main__":
    sys.exit(main())
