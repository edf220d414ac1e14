"""slagext benchmark: time to a verified chart, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload extend-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see workloads.py): extend-deep, atlas-circle, decay-mp40,
verify-batch. Every process this script starts is a fresh interpreter,
single-threaded (numpy/BLAS thread variables pinned to 1), running the
library from ``src`` through the public calls the ``slagext`` commands use.

Times are rescaled to a nominal machine speed. On a shared 2-vCPU virtual
machine (Intel Xeon, 2.1 GHz) the speed drifts by 15-30 % over tens of
seconds, as other tenants load the host, which is more than any bound could
absorb. Each worker process therefore times a fixed float loop ten times a
second (the speed probe, worker.py). Every time measured in a pass is
multiplied by PROBE_NOMINAL_S over the median probe chunk of that pass, and
an item's latency by the chunks that ran during the item when there are
any, so times read as seconds at the speed where one chunk takes
PROBE_NOMINAL_S. On that machine, over ten seeds per workload, this cut the
spread of solve_s from about 20 % to about 5 %. The result files keep the raw wall times and
the probe readings.

``--trace 0`` measures end to end, untraced. Set-up is measured in seven
fresh processes (six that stop after set-up, then the timed one) and
reported as their median; the timed process then runs passes for
``--seconds``. Metrics: setup_s, solve_s (median pass), item_ms.p50,
item_ms.tail (the highest percentile with at least ten item samples beyond
it), accuracy_digits (min over checks of log10(limit / residual)) and
peak_rss_mb.

``--trace 1`` reports the per-layer metrics. It runs one untraced process
and one traced process for half of ``--seconds`` each, and a second traced
process for one pass. Per-layer times are per-pass medians; counts are per
pass and must repeat exactly between passes and between the two traced
processes. The tracing overhead is the traced over the untraced median
pass, minus one.

Each run writes ``perfbench/results/<workload>-seed<seed>-trace<t>.json``
with the environment (nproc, loadavg, versions, commit, seed) and the raw
pass and item data. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 only when every output check passed.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKDIR = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
import tracing  # noqa: E402  (no slagext import at module level)

WORKLOADS = ("extend-deep", "atlas-circle", "decay-mp40", "verify-batch")
SETUP_PROBES = 6
RUN_BUDGET_S = 170.0   # every process of one workload run ends within this
PROBE_NOMINAL_S = 0.005  # fixes the unit of rescaled times only

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

# (span, ancestor) counts a traced pass must find nonzero: proof that the
# wrappers reached the namespaces that imported the wrapped names
REQUIRED_ANCESTRY = {
    "extend-deep": ("series.poly_mul<engine.step",
                    "series.poly_mul<engine.extend_series"),
    "atlas-circle": ("series.poly_mul<engine.step",
                     "engine.point<engine.overlap"),
    "decay-mp40": ("series.poly_mul<engine.step",
                   "series.poly_mul<engine.extend_series"),
    "verify-batch": ("series.poly_mul<engine.step",
                     "ambient.chart_point<oracles.unit_circle_residual",
                     "ambient.chart_point<oracles.chart_residual_report",
                     "ambient.chart_point<chartio.export"),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SLAG_PRECISION", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float,
          seconds: float = 0.0, max_passes: int = 1000,
          spans_out: str = None) -> dict:
    """Run worker.py in a fresh interpreter; returns its JSON document."""
    workdir = os.path.join(WORKDIR, f"{workload}-{seed}-{os.getpid()}-"
                                    f"{time.monotonic_ns()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(seconds), "--max-passes", str(max_passes),
           "--workdir", workdir]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"{workload}: out of time before the {mode} process")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: {mode} process exceeded "
                       f"{timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload}: {mode} process exited with "
                       f"{proc.returncode}")
    return json.loads(lines[-1])


def git_commit():
    """Commit of the checkout from .git files, or None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(seed: int, seconds: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def speed_scale(probe_s) -> float:
    """Factor from raw seconds to seconds at the nominal probe speed."""
    return PROBE_NOMINAL_S / statistics.median(probe_s)


def pass_scales(passes) -> list:
    """Each pass's factor, from the probe chunks taken during it."""
    every = [x for p in passes for x in p["probe_s"]]
    return [speed_scale(p["probe_s"] or every) for p in passes]


def pass_seconds(passes) -> list:
    return [p["pass_s"] * k for p, k in zip(passes, pass_scales(passes))]


def failure_counts(passes) -> tuple:
    failures = [f for p in passes for f in p["failures"]]
    return len(failures), sum(1 for f in failures if f)


def item_latency(passes) -> dict:
    lat = []
    for p, k in zip(passes, pass_scales(passes)):
        for ms, chunks in zip(p["items_ms"], p["items_probe_s"]):
            if ms is not None:
                lat.append(ms * (speed_scale(chunks) if chunks else k))
    lat.sort()
    if not lat:
        raise RunError("no item completed")
    n = len(lat)
    # highest percentile with at least ten samples beyond it; with fewer
    # than eleven items the maximum stands in, flagged by beyond < 10
    idx = n - 11 if n >= 11 else n - 1
    return {
        "p50": statistics.median(lat),
        "tail": lat[idx],
        "tail_percentile": 100.0 * (idx + 1) / n,
        "tail_beyond": n - 1 - idx,
        "samples": n,
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    probes = [spawn(workload, seed, "setup", deadline)
              for _ in range(SETUP_PROBES)]
    main = spawn(workload, seed, "run", deadline, seconds=seconds)
    passes = main["passes"]
    raw_setups = [p["setup_s"] for p in probes + [main]]
    k = speed_scale([x for p in probes for x in p["setup_probe_s"]])
    setups = [x * k for x in raw_setups]
    attempted, failed = failure_counts(passes)
    items = item_latency(passes)
    digits = [p["digits"] for p in passes if p["digits"] is not None]
    if not digits:
        raise RunError(f"{workload}: no residual was measured")
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(pass_seconds(passes)),
        "item_ms.p50": items["p50"],
        "item_ms.tail": items["tail"],
        "accuracy_digits": min(digits),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    details = {
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "pass_count": len(passes),
        "pass_s": pass_seconds(passes),
        "raw_pass_s": [p["pass_s"] for p in passes],
        "items": items,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "versions": main["versions"],
        "passes": passes,
    }
    checks = {"every item passed": failed == 0}
    return metrics, END_TO_END_UNITS, attempted, failed, checks, details


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    os.makedirs(RESULTS, exist_ok=True)
    spans_out = os.path.join(RESULTS, f"{workload}-seed{seed}-spans.jsonl.gz")
    plain = spawn(workload, seed, "run", deadline, seconds=seconds / 2)
    traced = spawn(workload, seed, "trace", deadline, seconds=seconds / 2,
                   spans_out=spans_out)
    again = spawn(workload, seed, "trace", deadline, max_passes=1)
    runs = (plain, traced, again)
    attempted = failed = 0
    for run in runs:
        a, f = failure_counts(run["passes"])
        attempted += a
        failed += f
    layers = [p["layers"] for p in traced["passes"]]
    scales = pass_scales(traced["passes"])
    metrics, units = {}, {}
    for name, (_span, stat, unit) in tracing.LAYER_METRICS.items():
        values = [lay[name] for lay in layers]
        metrics[name] = (values[0] if unit == "count" else statistics.median(
            v * k for v, k in zip(values, scales)))
        units[name] = unit
    for name, unit in tracing.DERIVED_UNITS.items():
        metrics[name] = layers[0][name]
        units[name] = unit
    plain_s = statistics.median(pass_seconds(plain["passes"]))
    traced_s = statistics.median(pass_seconds(traced["passes"]))
    metrics["trace.solve_s"] = traced_s
    units["trace.solve_s"] = "s"
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    units["trace.overhead"] = "ratio"

    counts = [tracing.exact_counts(p["layers"])
              for run in (traced, again) for p in run["passes"]]
    ancestry = layers[0]["ancestry"]
    checks = {
        "every item passed": failed == 0,
        "wrappers reach every importing namespace":
            not traced["missed_namespaces"] and not again["missed_namespaces"],
        "exact counts repeat across passes and traced runs":
            all(c == counts[0] for c in counts),
    }
    for key in REQUIRED_ANCESTRY[workload]:
        checks[f"traced {key} > 0"] = ancestry[key] > 0
    details = {
        "untraced_solve_s": plain_s,
        "traced_pass_count": len(layers),
        "exact_counts": counts[0],
        "madds_note": "series.poly_mul.madds is computed from argument caps "
                      "as sum (c+1)(c+2)/2, not measured",
        "spans_file": os.path.relpath(spans_out, ROOT),
        "versions": traced["versions"],
        "passes": {"untraced": plain["passes"], "traced": traced["passes"],
                   "traced_again": again["passes"]},
    }
    return metrics, units, attempted, failed, checks, details


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = environment(seed, seconds)
    deadline = time.monotonic() + RUN_BUDGET_S
    measure = per_layer if trace else end_to_end
    metrics, units, attempted, failed, checks, details = measure(
        workload, seed, seconds, deadline)
    env["loadavg_end"] = os.getloadavg()
    correct = all(checks.values())
    doc = {
        "workload": workload, "trace": trace, "correct": correct,
        "attempted": attempted, "failed": failed, "checks": checks,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "environment": env, "details": details,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def report(doc: dict) -> None:
    print(f"# {doc['workload']} trace={doc['trace']} "
          f"seed={doc['environment']['seed']} correct={doc['correct']} "
          f"attempted={doc['attempted']} failed={doc['failed']}")
    for name, m in doc["metrics"].items():
        print(f"{doc['workload']:>13} {name:<34} {m['value']:.6g} {m['unit']}")
    d = doc["details"]
    if "items" in d:
        it = d["items"]
        print(f"#   solve_s over {d['pass_count']} passes; item_ms.tail is "
              f"p{it['tail_percentile']:.1f} of {it['samples']} items "
              f"({it['tail_beyond']} beyond); fail_ratio "
              f"{d['fail_ratio']:.4g}")
    else:
        print(f"#   trace.overhead against untraced "
              f"{d['untraced_solve_s']:.4g} s per pass; "
              f"{d['madds_note']}")
    for name, ok in doc["checks"].items():
        if not ok:
            print(f"#   FAILED: {name}")
    env = doc["environment"]
    print(f"#   nproc {env['nproc']}, loadavg {env['loadavg_start'][0]:.2f} "
          f"-> {env['loadavg_end'][0]:.2f}, commit {env['commit']}")


def main() -> int:
    ap = argparse.ArgumentParser(
        description="slagext benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "slagext", "__init__.py")):
        print(f"error: no slagext sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = {}
    for name in names:
        try:
            docs[name] = run_one(name, args.seed, args.seconds, args.trace)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(docs[name])
    correct = all(d["correct"] for d in docs.values())
    if len(docs) == 1:
        (doc,) = docs.values()
        line = {k: doc[k] for k in ("correct", "attempted", "failed",
                                    "metrics")}
    else:
        line = {"correct": correct,
                "attempted": sum(d["attempted"] for d in docs.values()),
                "failed": sum(d["failed"] for d in docs.values()),
                "workloads": {k: d["metrics"] for k, d in docs.items()}}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
