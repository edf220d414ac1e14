"""Alternating benchmark pairs of two git refs, summarized per metric.

Usage (from the repository root):

    python scripts/bench_pairs.py --base HEAD~1 --change HEAD \\
        --workload decay-mp40 --seeds 9401-9410 --out BENCH_x.json

Each ref is checked out as a detached ``git worktree`` in a temporary
directory, and both are removed at the end. Before every run, the
``__pycache__`` directories of both trees are deleted, so that the two
sides start from the same bytecode state: with PYTHONDONTWRITEBYTECODE set,
a cache left in one tree would make its set-up alone cheaper. Per seed, the
two sides run ``perfbench/run.py --workload W --seed S --trace 0`` one
after the other, at the run length perfbench sets, and the side that runs
first alternates from seed to seed. The last line each run prints is its
JSON result; the run length is read from the result file perfbench writes
(``perfbench/results/W-seedS-trace0.json``, ``environment.seconds``).

The summary holds every pair's end-to-end metrics, each side's median and
quartiles (``statistics.quantiles(n=4, method="inclusive")``), and per
metric the pairs in which the change is better, lower or higher as
BENCHMARK.json says; a tie counts for neither side. The workload's entry
is written into ``--out``, next to the entries already there.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("base", "change")


def seed_list(spec: str) -> list:
    """Seeds from "9401-9410" or "9401,9405"."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(pairs: list, better: dict) -> dict:
    """The summary of pairs [{"seed", "first", "base", "change"}], each side
    a run's last JSON line; ``better`` maps a metric to "lower" or
    "higher"."""
    metrics = [m for m in better if all(m in p[s]["metrics"] for p in pairs
                                        for s in SIDES)]

    def values(side, m):
        return [p[side]["metrics"][m] for p in pairs]

    def wins(m):
        sign = 1 if better[m] == "lower" else -1
        return sum(sign * (c - b) < 0 for b, c in zip(values("base", m),
                                                     values("change", m)))

    def rounded(xs):
        return [round(x, 6) for x in xs]

    return {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "seconds": sorted({p[s]["seconds"] for p in pairs for s in SIDES}),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "correct": all(p[s]["correct"] for p in pairs for s in SIDES),
        "median": {s: {m: round(statistics.median(values(s, m)), 6)
                       for m in metrics} for s in SIDES},
        "quartiles": {s: {m: rounded(statistics.quantiles(
            values(s, m), n=4, method="inclusive")) for m in metrics}
            for s in SIDES},
        "change_better_in": {m: wins(m) for m in metrics},
        "per_pair": [{"seed": p["seed"], "first": p["first"],
                      **{s: {m: p[s]["metrics"][m] for m in metrics}
                         for s in SIDES}} for p in pairs],
    }


def _git(*args, cwd=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def _drop_bytecode(tree: str) -> None:
    for root, dirs, _files in os.walk(tree):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(root, "__pycache__"))
            dirs.remove("__pycache__")


def _run(tree: str, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: no output (exit {out.returncode})\n"
                           f"{out.stderr[-2000:]}")
    last = json.loads(lines[-1])
    with open(os.path.join(tree, "perfbench", "results",
                           f"{workload}-seed{seed}-trace0.json")) as f:
        seconds = json.load(f)["environment"]["seconds"]
    # {"metrics": {name: {"value": v, "unit": u}}} -> {name: v}
    return {**last, "seconds": seconds, "metrics": {
        m: v["value"] for m, v in last["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git ref of the parent")
    ap.add_argument("--change", required=True, help="git ref of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_list,
                    help='e.g. "9401-9410"')
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    refs = {"base": _git("rev-parse", args.base),
            "change": _git("rev-parse", args.change)}
    tmp = tempfile.mkdtemp(prefix="bench_pairs.")
    trees = {s: os.path.join(tmp, s) for s in SIDES}
    try:
        for s in SIDES:
            _git("worktree", "add", "--detach", trees[s], refs[s])
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for s in order:
                for tree in trees.values():
                    _drop_bytecode(tree)
                pair[s] = _run(trees[s], args.workload, seed)
            pairs.append(pair)
            print(json.dumps({"seed": seed, **{
                s: pair[s]["metrics"] for s in SIDES}}), flush=True)
    finally:
        for s in SIDES:
            if os.path.isdir(trees[s]):
                _git("worktree", "remove", "--force", trees[s])
        _git("worktree", "prune")
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.setdefault("workloads", {})[args.workload] = {
        "refs": refs, **summarize(pairs, better)}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
