"""One benchmark process: set up one workload, then run timed passes.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH
and the numpy/BLAS thread counts pinned to 1. ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so the set-up
time includes interpreter start, imports, the precision context and
writing and loading the seeded inputs.

On a shared virtual machine the speed drifts by 15-30 % over tens of
seconds as other tenants load the host. ``SpeedProbe`` samples that drift:
ten times a second a signal handler times a fixed float loop (a chunk,
about 5 ms). ``run.py`` rescales each pass's times by the pass's median
chunk, and each item's latency by the chunks that ran during it. Every
time measured here comes from ``SpeedProbe.clock``, which leaves out the
time spent in chunks.

Modes: ``setup`` stops after set-up; ``run`` times passes untraced;
``trace`` wraps the library's layers first (see tracing.py). Passes repeat
until ``--seconds`` have gone, at least one and at most ``--max-passes``. The last line of standard output is a JSON document.
"""
import argparse
import gzip
import json
import os
import random
import resource
import shutil
import signal
import sys
import time
import traceback
from time import perf_counter

PROBE_PERIOD_S = 0.1
PROBE_ITERATIONS = 60000
SETUP_PROBE_CHUNKS = 10


class SpeedProbe:
    """Timer-driven samples of the machine's speed during a run."""

    def __init__(self):
        self.chunks = []
        self.spent = 0.0

    def chunk(self, signum=None, frame=None) -> None:
        # a float loop allocates no container, so it never triggers
        # garbage collection
        start = perf_counter()
        acc = 0.0
        for i in range(PROBE_ITERATIONS):
            acc = acc * 0.999 + i * 1.0001
        elapsed = perf_counter() - start
        self.chunks.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.chunk)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self) -> float:
        """perf_counter() without the time spent in chunks."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no chunk ran in between
                return now - spent


def main():
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-passes", type=int, default=1000,
                    dest="max_passes")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None, dest="spans_out")
    args = ap.parse_args()

    import mpmath
    import numpy
    import tracing
    import workloads

    os.makedirs(args.workdir)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.generate(random.Random(f"{args.workload}:{args.seed}"),
                          args.workdir)
        workload.load(args.workdir)
        tracer = missed = None
        if args.mode == "trace":
            tracer = tracing.Tracer(probe.clock)
            missed = tracing.install(tracer)
        setup_s = time.monotonic() - args.t0 - probe.spent
        if args.mode == "setup":
            for _ in range(SETUP_PROBE_CHUNKS):
                probe.chunk()
        doc = {
            "setup_s": setup_s,
            "setup_probe_s": list(probe.chunks),
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "mpmath": mpmath.__version__,
                "mpmath_backend": mpmath.libmp.BACKEND,
            },
        }
        if args.mode != "setup":
            doc["passes"] = run_passes(workload, args, tracer, probe)
        probe.stop()
        if tracer is not None:
            doc["missed_namespaces"] = missed
            if args.spans_out:
                with gzip.open(args.spans_out, "wt") as fh:
                    # name, start, end, parent index, item index, work
                    for span in tracer.first_pass_spans:
                        fh.write(json.dumps(span) + "\n")
        doc["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        probe.stop()
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(doc))


def run_passes(workload, args, tracer, probe) -> list:
    import workloads

    passes = []
    start = perf_counter()
    while True:
        rec = workloads.PassRecorder(probe, tracer)
        first_chunk = len(probe.chunks)
        t0 = probe.clock()
        try:
            workload.run_pass(rec)
        except Exception as exc:  # the pass's items count as failed
            traceback.print_exc()
            rec.fail_pass(f"{type(exc).__name__}: {exc}",
                          workload.items_per_pass)
        elapsed = probe.clock() - t0
        record = {
            "pass_s": elapsed,
            "probe_s": probe.chunks[first_chunk:],
            "items_ms": [ms for ms, _c in rec.items],
            "items_probe_s": rec.item_probe_s,
            "failures": [c.failures for _ms, c in rec.items],
            "digits": min((d for _ms, c in rec.items for d in c.digits),
                          default=None),
            "counters": rec.counters,
        }
        if tracer is not None:
            record["layers"] = tracer.end_pass(rec.counters)
        passes.append(record)
        if (len(passes) >= args.max_passes
                or perf_counter() - start >= args.seconds):
            break
    return passes


if __name__ == "__main__":
    main()
