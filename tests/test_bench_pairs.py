"""scripts/bench_pairs.py: the summary of alternating benchmark pairs, on a
fixed input, without running the benchmark."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

BETTER = {"solve_s": "lower", "accuracy_digits": "higher",
          "not_reported": "lower"}


def _run(solve, digits, failed=0):
    return {"correct": failed == 0, "failed": failed, "seconds": 20.0,
            "metrics": {"solve_s": solve, "accuracy_digits": digits,
                        "peak_rss_mb": 40.0}}


PAIRS = [
    {"seed": 11, "first": "base", "base": _run(0.20, 5.0),
     "change": _run(0.15, 5.0)},
    {"seed": 12, "first": "change", "base": _run(0.22, 5.5),
     "change": _run(0.16, 5.0)},
    {"seed": 13, "first": "base", "base": _run(0.18, 4.0),
     "change": _run(0.18, 4.5)},
    {"seed": 14, "first": "change", "base": _run(0.30, 6.0),
     "change": _run(0.31, 6.0, failed=2)},
    {"seed": 15, "first": "base", "base": _run(0.24, 5.0),
     "change": _run(0.12, 5.0)},
]


def test_summary_of_fixed_pairs():
    got = bench_pairs.summarize(PAIRS, BETTER)
    assert got["pairs"] == 5 and got["seeds"] == [11, 12, 13, 14, 15]
    assert got["seconds"] == [20.0]  # each run's length, from perfbench
    assert got["failed"] == {"base": 0, "change": 2}
    assert got["correct"] is False
    # only metrics in BETTER that every run reports
    assert set(got["median"]["base"]) == {"solve_s", "accuracy_digits"}
    assert got["median"] == {
        "base": {"solve_s": 0.22, "accuracy_digits": 5.0},
        "change": {"solve_s": 0.16, "accuracy_digits": 5.0}}
    # statistics.quantiles(n=4, method="inclusive")
    assert got["quartiles"]["base"]["solve_s"] == [0.2, 0.22, 0.24]
    assert got["quartiles"]["change"]["solve_s"] == [0.15, 0.16, 0.18]
    assert got["quartiles"]["change"]["accuracy_digits"] == [5.0, 5.0, 5.0]
    # lower solve_s wins in 3 pairs; seed 13 is a tie, seed 14 a loss.
    # Higher accuracy wins once (seed 13); equal digits count for neither
    assert got["change_better_in"] == {"solve_s": 3, "accuracy_digits": 1}
    assert got["per_pair"][1] == {
        "seed": 12, "first": "change",
        "base": {"solve_s": 0.22, "accuracy_digits": 5.5},
        "change": {"solve_s": 0.16, "accuracy_digits": 5.0}}


@pytest.mark.parametrize("spec, want", [
    ("9401-9404", [9401, 9402, 9403, 9404]),
    ("7,9-10", [7, 9, 10]),
    ("403", [403]),
])
def test_seed_list(spec, want):
    assert bench_pairs.seed_list(spec) == want


def test_bytecode_is_dropped_everywhere(tmp_path):
    for d in ("__pycache__", "src/pkg/__pycache__", "perfbench/__pycache__"):
        (tmp_path / d).mkdir(parents=True)
        (tmp_path / d / "m.cpython-311.pyc").write_bytes(b"x")
    (tmp_path / "src" / "pkg" / "m.py").write_text("")
    bench_pairs._drop_bytecode(str(tmp_path))
    assert not list(tmp_path.rglob("__pycache__"))
    assert (tmp_path / "src" / "pkg" / "m.py").exists()
