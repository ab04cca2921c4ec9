"""Command line front end: `sembed --experiment <kind> [options]`."""

from __future__ import annotations

import argparse
import sys

from .experiments import FORMS, KINDS, METHODS, ExperimentSpec, run


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
                        help="penalty scale (default: h_avg / 2, with h_avg "
                        "the mean edge length of the active elements)")
    parser.add_argument("--gamma-scaling", choices=("avg", "local-h"),
                        help="one global penalty, or per element its "
                        "longest edge times the scale (default 0.5)")
    parser.add_argument("--wavenumber", type=int,
                        help="manufactured solution wavenumber")
    parser.add_argument("--out",
                        help="output basename; writes <out>.csv and "
                        "<out>.json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    opts = vars(parser.parse_args(argv))
    kind = opts.pop("experiment")
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

    for row in rows:
        print(
            f"{row['kind']} {row['method']:>7} {row['form']:>22} "
            f"P={row['order']} lc={row['lc']} "
            f"l1={row['l1_error']:.4e} cond={row['cond']:.4e}"
        )
    for name, value in sorted(rates.items()):
        print(f"{name} = {value:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
