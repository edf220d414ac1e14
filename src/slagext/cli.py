"""Command-line surface.

Every subcommand emits one machine-readable JSON report with the config
echo, per-check pass/fail flags, and residuals as decimal strings. Reports
go to stdout, or to --out (written atomically) with a one-line summary on
stdout. Exit status 0 means every check in the report passed.

The SLAG_PRECISION environment variable ("float64" or "mp<digits>")
selects the working scalar type for series construction.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import oracles
from .arcs import ArcSpec, existence_gate, load_arc, unit_circle_arc
from .chartio import (
    dump_chart,
    encode_real,
    export_mesh,
    load_chart,
    read_json,
    write_json,
)
from .engine import build_atlas, extend_arc, gt_hypotheses_check, overlap_agreement
from .errors import GateObstructionError
from .precision import Context, from_env


def _enc_tree(value):
    """Floats to decimal strings, recursively, for report payloads."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return encode_real(value)
    if isinstance(value, dict):
        return {k: _enc_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_enc_tree(v) for v in value]
    return value


def _load_arc_arg(spec: str, ctx: Context) -> ArcSpec:
    if spec == "circle":
        return unit_circle_arc(ctx)
    return load_arc(read_json(spec), ctx)


def _emit(report: dict, out: Optional[str]) -> int:
    passed = bool(report.get("passed", True))
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        write_json(out, report)
        print(f"{report['command']}: {'ok' if passed else 'FAILED'} -> {out}")
    else:
        print(text)
    return 0 if passed else 2


def _oracle_payload(res: oracles.OracleResult) -> dict:
    return {
        "name": res.name,
        "max_residual": encode_real(res.max_residual),
        "tolerance": encode_real(res.tolerance),
        "samples": res.samples,
        "passed": res.passed,
        "details": _enc_tree(res.details),
    }


def cmd_extend(args) -> int:
    ctx = from_env()
    D = 2 * args.K + 8 if args.D is None else args.D
    arc = _load_arc_arg(args.arc, ctx)
    branches = [args.branch] if args.branch is not None else list(range(args.n))
    charts, files = [], []
    for j in branches:
        ch = extend_arc(arc, ctx.real(args.s0), n=args.n, K=args.K, D=D,
                        branch=j, ctx=ctx)
        charts.append(ch)
        if args.out:
            path = args.out if len(branches) == 1 else (
                f"{args.out}.b{j}.json")
            dump_chart(ch, path)
            files.append(path)
    report = {
        "command": "extend",
        "config": {"n": args.n, "K": args.K, "D": D, "branch": args.branch},
        "precision": ctx.name,
        "arc": args.arc,
        "s0": encode_real(float(args.s0)),
        "charts": [
            {
                "branch": ch.branch,
                "frame_theta": encode_real(float(ch.frame.theta)),
                "radius": None if ch.radius is None else {
                    "rho_sigma": encode_real(ch.radius.rho_sigma),
                    "fit_quality": encode_real(ch.radius.fit_quality),
                },
            }
            for ch in charts
        ],
        "outputs": files,
        "passed": True,
    }
    return _emit(report, args.report)


def cmd_residual(args) -> int:
    checks = []
    tol = args.tolerance
    for path in args.chart:
        ch = load_chart(path)
        rep = oracles.chart_residual_report(ch, args.sigma_max,
                                            nt=args.nt, ns=args.ns)
        ok = (rep["max_pde"] <= tol and rep["max_omega"] <= tol
              and rep["max_upsilon"] <= tol
              and rep["max_momentum"] <= 1e-10)
        checks.append({"chart": path, "passed": ok, **_enc_tree(rep)})
    report = {
        "command": "residual",
        "config": {"sigma_max": encode_real(args.sigma_max),
                   "tolerance": encode_real(tol),
                   "grid": [args.nt, args.ns]},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    return _emit(report, args.out)


def cmd_gt_check(args) -> int:
    ctx = from_env()
    arc = _load_arc_arg(args.arc, ctx)
    from .arcs import normalize_at

    na = normalize_at(arc, ctx.real(args.s0), args.n, cap=args.D, ctx=ctx)
    rep = gt_hypotheses_check(na.f0, args.n)
    report = {
        "command": "gt-check",
        "config": {"n": args.n, "D": args.D, "s0": encode_real(float(args.s0))},
        "precision": ctx.name,
        "arc": args.arc,
        "arc_identity_max": encode_real(rep.cond1_max),
        "first_order_partials_max": encode_real(rep.cond2_max),
        "base_partials": [encode_real(p) for p in rep.partials],
        "base_partials_expected": [encode_real(float(p))
                                   for p in rep.expected],
        "indicial_min": encode_real(rep.cond4_min),
        "passed": rep.passed,
    }
    return _emit(report, args.out)


def cmd_oracle(args) -> int:
    which = args.which
    if which == "harvey-lawson":
        res = oracles.harvey_lawson_sample(args.m, args.c, count=args.count,
                                           tolerance=args.tolerance)
        config = {"m": args.m, "c": encode_real(args.c), "count": args.count}
    elif which == "circle":
        ctx = from_env()
        ch = extend_arc(unit_circle_arc(ctx), ctx.real(0.0), n=args.n,
                        K=args.K, D=args.D or max(4 * args.K, 2 * args.K + 16),
                        ctx=ctx, with_radius=False)
        res = oracles.unit_circle_residual(args.n, ch, args.sigma_max,
                                           samples=args.samples,
                                           tolerance=args.tolerance)
        config = {"n": args.n, "K": args.K, "D": ch.D,
                  "sigma_max": encode_real(args.sigma_max)}
    elif which == "planes":
        res = oracles.plane_oracle(args.n, trials=args.trials,
                                   tolerance=args.tolerance, seed=args.seed)
        config = {"n": args.n, "trials": args.trials, "seed": args.seed}
    elif which == "branches":
        ctx = from_env()
        arc = _load_arc_arg(args.arc, ctx)
        res = oracles.branch_separation(arc, args.n, K=args.K,
                                        tolerance=args.tolerance, ctx=ctx)
        config = {"n": args.n, "K": args.K, "arc": args.arc}
    else:
        raise ValueError(f"unknown oracle {which!r}")
    report = {
        "command": f"oracle {which}",
        "config": config,
        "oracle": _oracle_payload(res),
        "passed": res.passed,
    }
    if which == "branches":
        report["precision"] = ctx.name
    return _emit(report, args.out)


def cmd_atlas(args) -> int:
    # also when the atlas has a single chart and so no overlap to check
    if not args.sigma_max > 0:
        raise ValueError("sigma_max must be positive")
    ctx = from_env()
    D = 2 * args.K + 8 if args.D is None else args.D
    branch = args.branch or 0
    config = {"n": args.n, "K": args.K, "D": D,
              "sigma_max": encode_real(args.sigma_max), "branch": branch,
              "spacing": encode_real(args.spacing)}
    arc = _load_arc_arg(args.arc, ctx)
    g = gate = None
    if arc.closed:
        g = existence_gate(arc, args.n)
        gate = {"ok": g.ok, "branch_shift": g.shift, "turns": g.turns}
    try:
        charts = build_atlas(arc, args.n, args.K, D, args.spacing,
                             branch=branch, ctx=ctx, gate=g)
    except GateObstructionError as exc:
        report = {
            "command": "atlas",
            "config": config,
            "arc": args.arc,
            "gate": gate,
            "error": str(exc),
            "passed": False,
        }
        return _emit(report, args.out)
    overlaps = []
    worst = 0.0
    m = len(charts)
    # windows must reach past the midpoint between neighbouring centers
    halfwidth = max(4 * args.sigma_max, 0.75 * args.spacing)
    for i in range(m if arc.closed else m - 1):
        a, b = charts[i], charts[(i + 1) % m]
        v = overlap_agreement(a, b, args.sigma_max, ctx=ctx,
                              t_halfwidth=halfwidth,
                              t_halfwidth_other=halfwidth)
        worst = max(worst, v)
        overlaps.append({"pair": [i, (i + 1) % m], "sup": encode_real(v)})
    files = []
    if args.chart_out:
        for i, ch in enumerate(charts):
            path = f"{args.chart_out}.c{i}.json"
            dump_chart(ch, path)
            files.append(path)
    report = {
        "command": "atlas",
        "config": config,
        "precision": ctx.name,
        "arc": args.arc,
        "gate": gate,
        "chart_count": m,
        "overlaps": overlaps,
        "max_overlap_sup": encode_real(worst),
        "tolerance": encode_real(args.tolerance),
        "outputs": files,
        "passed": worst <= args.tolerance,
    }
    return _emit(report, args.out)


def cmd_mesh(args) -> int:
    charts = [load_chart(p) for p in args.chart]
    path = export_mesh(charts, args.mode, args.resolution, args.sigma_max,
                       args.out, directions=args.directions)
    report = {
        "command": "mesh",
        "config": {"mode": args.mode, "resolution": args.resolution,
                   "sigma_max": encode_real(args.sigma_max),
                   "charts": args.chart},
        "outputs": [path],
        "passed": True,
    }
    return _emit(report, args.report)


def _add_common(p, *names):
    if "n" in names:
        p.add_argument("--n", type=int, default=2,
                       help="number of rotating complex coordinates")
    if "K" in names:
        p.add_argument("--K", type=int, default=4,
                       help="truncation order in sigma^2")
    if "D" in names:
        p.add_argument("--D", type=int, default=None,
                       help="total degree budget (default 2K+8)")
    if "sigma-max" in names:
        p.add_argument("--sigma-max", type=float, default=0.1, dest="sigma_max")
    if "branch" in names:
        p.add_argument("--branch", type=int, default=None,
                       help="branch index in [0, n); default: all branches")
    if "spacing" in names:
        p.add_argument("--spacing", type=float, default=0.2,
                       help="parameter distance between chart centers")
    if "out" in names:
        p.add_argument("--out", default=None, help="report JSON path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slagext",
        description="Rotationally invariant special Lagrangian extensions "
                    "of planar arcs: construction, residuals, and oracles.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", help="extend an arc into charts")
    p.add_argument("--arc", required=True,
                   help="arc JSON path, or 'circle' for the unit circle")
    p.add_argument("--s0", type=float, default=0.0,
                   help="arc parameter of the chart center")
    _add_common(p, "n", "K", "D", "branch")
    p.add_argument("--out", default=None,
                   help="chart JSON path (suffixed .b<j> when all branches)")
    p.add_argument("--report", default=None, help="report JSON path")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("residual", help="PDE/form residuals of saved charts")
    p.add_argument("--chart", action="append", required=True)
    _add_common(p, "sigma-max", "out")
    p.add_argument("--nt", type=int, default=9)
    p.add_argument("--ns", type=int, default=7)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("gt-check",
                       help="singular normal form hypotheses at a point")
    p.add_argument("--arc", required=True)
    p.add_argument("--s0", type=float, default=0.0)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--D", type=int, default=24)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gt_check)

    p = sub.add_parser("oracle", help="closed-form verification families")
    os_sub = p.add_subparsers(dest="which", required=True)

    q = os_sub.add_parser("harvey-lawson")
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--c", type=float, default=1.0)
    q.add_argument("--count", type=int, default=200)
    q.add_argument("--tolerance", type=float, default=1e-9)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_oracle)

    q = os_sub.add_parser("circle")
    _add_common(q, "n", "K", "sigma-max", "out")
    q.add_argument("--D", type=int, default=None,
                   help="total degree budget (default max(4K, 2K+16), "
                        "so f_k keep at least 16 t-degrees)")
    q.add_argument("--samples", type=int, default=500)
    q.add_argument("--tolerance", type=float, default=1e-8)
    q.set_defaults(func=cmd_oracle)

    q = os_sub.add_parser("planes")
    q.add_argument("--n", type=int, default=2)
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--tolerance", type=float, default=1e-12)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_oracle)

    q = os_sub.add_parser("branches")
    q.add_argument("--arc", required=True)
    q.add_argument("--n", type=int, default=2)
    q.add_argument("--K", type=int, default=3)
    q.add_argument("--tolerance", type=float, default=1e-13)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_oracle)

    p = sub.add_parser("atlas", help="chart cover of an arc with overlaps")
    p.add_argument("--arc", required=True)
    _add_common(p, "n", "K", "D", "sigma-max", "branch", "spacing", "out")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--chart-out", default=None, dest="chart_out",
                   help="path prefix for chart JSON dumps")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("mesh", help="export charts as OBJ mesh or CSV cloud")
    p.add_argument("--chart", action="append", required=True)
    p.add_argument("--mode", choices=("reduced", "embedded"),
                   default="reduced")
    p.add_argument("--resolution", type=int, default=16)
    _add_common(p, "sigma-max")
    p.add_argument("--directions", type=int, default=6,
                   help="sphere directions per grid node (embedded mode)")
    p.add_argument("--out", required=True, help="mesh output path")
    p.add_argument("--report", default=None, help="report JSON path")
    p.set_defaults(func=cmd_mesh)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, GateObstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
