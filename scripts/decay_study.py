"""Residual decay study: max PDE residual against sigma_max and K.

Reproduces the truncation-order scaling table. The expected exponent of
the max residual in sigma_max is 2K + n - 1; float64 resolves it up to
K ~ 4, beyond that run with SLAG_PRECISION=mp40 (the default here).

Exits 1 when a fitted slope is NaN or below 2K - 1, the decay bound of
acceptance criterion 6, so a broken decay law fails the run.
"""
import argparse
import math
import sys

import numpy as np

from slagext.arcs import graph_arc, normalize_at
from slagext.engine import extend_series, pde_residual
from slagext.precision import context_named


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 4, 6, 8])
    ap.add_argument("--sigma-max", type=float, nargs="+",
                    default=[0.025, 0.05, 0.1], dest="sigma_max")
    ap.add_argument("--t-halfwidth", type=float, default=0.1,
                    dest="t_halfwidth")
    ap.add_argument("--extra-cap", type=int, default=32,
                    help="t-degrees beyond 2K, controls the truncation floor")
    ap.add_argument("--precision", default="mp40")
    args = ap.parse_args()

    ctx = context_named(args.precision)
    arc = graph_arc(["0", "0", "0.5"], ctx=ctx)
    print(f"# n={args.n} precision={args.precision} "
          f"t window +-{args.t_halfwidth}")
    print("K  " + "  ".join(f"res({sm:g})" for sm in args.sigma_max)
          + "  slope  expected")
    failed = []
    for K in args.orders:
        na = normalize_at(arc, ctx.real(0), args.n,
                          cap=2 * K + args.extra_cap, ctx=ctx)
        exp = extend_series(na.f0, args.n, K)
        vals = []
        for sm in args.sigma_max:
            ts = [ctx.real(-args.t_halfwidth + 2 * args.t_halfwidth * j / 6)
                  for j in range(7)]
            ss = [ctx.real(sm * (j + 1) / 4) for j in range(4)]
            vals.append(pde_residual(exp, ts, ss).max_pde)
        # a zero, infinite or NaN residual has no logarithm to fit
        slope = (np.polyfit(np.log(args.sigma_max), np.log(vals), 1)[0]
                 if all(0 < v < math.inf for v in vals) else math.nan)
        print(f"{K}  " + "  ".join(f"{v:.3e}" for v in vals)
              + f"  {slope:.2f}  {2 * K + args.n - 1}")
        if not slope >= 2 * K - 1:
            failed.append(K)
    if failed:
        print(f"error: slope below 2K - 1 at K = {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
