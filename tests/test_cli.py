"""CLI subcommands, exercised through main(argv)."""
from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from conftest import chart_with_nan_in_f3, count_solves
from slagext import arcs, oracles
from slagext.chartio import dump_chart
from slagext.cli import main
from slagext.engine import ResidualReport
from slagext.precision import context_named


@pytest.fixture
def parabola(tmp_path):
    path = tmp_path / "parabola.json"
    path.write_text(json.dumps(
        {"kind": "graph", "g_coeffs": ["0", "0", "0.5"], "degree_cap": 24}))
    return str(path)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_extend_all_branches(parabola, tmp_path):
    out = tmp_path / "chart"
    rep = tmp_path / "rep.json"
    rc = main(["extend", "--arc", parabola, "--n", "3", "--K", "2",
               "--out", str(out), "--report", str(rep)])
    assert rc == 0
    doc = _read(rep)
    assert doc["passed"] is True
    assert len(doc["outputs"]) == 3
    assert [c["branch"] for c in doc["charts"]] == [0, 1, 2]
    chart0 = _read(doc["outputs"][0])
    assert chart0["n"] == 3 and chart0["K"] == 2
    assert all(isinstance(c, str) for row in chart0["terms"] for c in row)


@pytest.mark.parametrize("spec", ["float64", "mp30"])
def test_extend_solves_once_for_all_branches(parabola, tmp_path,
                                             monkeypatch, spec):
    # the n branch charts share one expansion, and each chart file is
    # byte for byte the file of a run for that branch alone
    monkeypatch.setenv("SLAG_PRECISION", spec)
    solves = count_solves(monkeypatch)
    out = tmp_path / "chart"
    assert main(["extend", "--arc", parabola, "--n", "3", "--K", "3",
                 "--out", str(out)]) == 0
    assert solves == [3]
    for j in range(3):
        single = tmp_path / f"single{j}.json"
        assert main(["extend", "--arc", parabola, "--n", "3", "--K", "3",
                     "--branch", str(j), "--out", str(single)]) == 0
        assert (tmp_path / f"chart.b{j}.json").read_bytes() == (
            single.read_bytes())
    assert solves == [3] * 4


@pytest.mark.parametrize("spec", ["float64", "mp30"])
def test_oracle_branches_builds_at_the_env_precision(parabola, monkeypatch,
                                                     capsys, spec):
    monkeypatch.setenv("SLAG_PRECISION", spec)
    solves = count_solves(monkeypatch)
    built, extend = [], oracles.extend_arc

    def keep(*args, **kwargs):
        built.append(extend(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(oracles, "extend_arc", keep)
    assert main(["oracle", "branches", "--arc", parabola, "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["precision"] == spec and doc["passed"] is True
    real = type(context_named(spec).real(0))
    assert [ch.branch for ch in built] == [0, 1, 2]
    assert {type(c) for ch in built for f in ch.phi.terms
            for c in f.coeffs} == {real}
    assert solves == [3]


def test_extend_single_branch(parabola, tmp_path):
    out = tmp_path / "c.json"
    rc = main(["extend", "--arc", parabola, "--n", "2", "--K", "3",
               "--branch", "1", "--out", str(out)])
    assert rc == 0
    assert _read(out)["branch"] == 1


def test_residual_report(parabola, tmp_path, capsys):
    out = tmp_path / "c.json"
    main(["extend", "--arc", parabola, "--n", "2", "--K", "4", "--D", "20",
          "--branch", "0", "--out", str(out)])
    capsys.readouterr()
    rc = main(["residual", "--chart", str(out), "--sigma-max", "0.05"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    check = doc["checks"][0]
    assert float(check["max_pde"]) < 1e-6
    assert float(check["max_momentum"]) <= 1e-14
    assert isinstance(check["max_pde"], str)


def test_gt_check(parabola, tmp_path):
    rep = tmp_path / "gt.json"
    rc = main(["gt-check", "--arc", parabola, "--n", "3", "--out", str(rep)])
    assert rc == 0
    doc = _read(rep)
    assert doc["passed"] is True
    assert doc["base_partials_expected"] == ["1.0", "6.0", "6.0"]


def test_oracle_subcommands(parabola, capsys):
    rc = main(["oracle", "harvey-lawson", "--m", "2", "--c", "0.0",
               "--count", "30"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["passed"] is True

    rc = main(["oracle", "circle", "--n", "2", "--K", "5",
               "--sigma-max", "0.05", "--samples", "120"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert float(doc["oracle"]["max_residual"]) < 1e-8

    rc = main(["oracle", "planes", "--n", "2", "--trials", "4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["details"]["line_plane_counts"] == [2, 2, 2, 2]

    rc = main(["oracle", "branches", "--arc", parabola, "--n", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_circle_passes_at_its_defaults(n, capsys):
    # default K=4: D must leave the f_k enough t-degrees (D - 2K >= 16)
    # for the default 1e-8 tolerance; D = 4K = 16 left 8 and failed
    rc = main(["oracle", "circle", "--n", str(n)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["D"] == 24
    assert float(doc["oracle"]["max_residual"]) < 1e-8
    assert rc == 0


def test_atlas_open_arc(parabola, tmp_path):
    rep = tmp_path / "atlas.json"
    rc = main(["atlas", "--arc", parabola, "--n", "2", "--K", "3",
               "--spacing", "0.25", "--sigma-max", "0.04",
               "--out", str(rep), "--chart-out", str(tmp_path / "at")])
    assert rc == 0
    doc = _read(rep)
    assert doc["chart_count"] >= 4
    assert float(doc["max_overlap_sup"]) <= 1e-6
    assert len(doc["outputs"]) == doc["chart_count"]


def test_atlas_gate_obstruction(tmp_path):
    rep = tmp_path / "atlas.json"
    rc = main(["atlas", "--arc", "circle", "--n", "3", "--K", "2",
               "--spacing", "0.8", "--out", str(rep)])
    assert rc == 2
    doc = _read(rep)
    assert doc["passed"] is False
    assert doc["gate"]["ok"] is False


@pytest.mark.parametrize("n, rc", [(2, 0), (3, 2)])
def test_atlas_computes_the_gate_once(monkeypatch, tmp_path, n, rc):
    calls = []
    real = arcs.rotation_number

    def counted(arc):
        calls.append(arc)
        return real(arc)

    monkeypatch.setattr(arcs, "rotation_number", counted)
    assert main(["atlas", "--arc", "circle", "--n", str(n), "--K", "4",
                 "--D", "24", "--spacing", "0.5", "--sigma-max", "0.04",
                 "--out", str(tmp_path / "atlas.json")]) == rc
    assert len(calls) == 1


def test_mesh_outputs(parabola, tmp_path, capsys):
    chart = tmp_path / "c.json"
    main(["extend", "--arc", parabola, "--n", "2", "--K", "2",
          "--branch", "0", "--out", str(chart)])
    obj = tmp_path / "m.obj"
    rc = main(["mesh", "--chart", str(chart), "--mode", "reduced",
               "--resolution", "5", "--sigma-max", "0.05",
               "--out", str(obj)])
    assert rc == 0
    lines = obj.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 25
    assert sum(1 for l in lines if l.startswith("f ")) == 16

    csv_path = tmp_path / "m.csv"
    rc = main(["mesh", "--chart", str(chart), "--mode", "embedded",
               "--resolution", "3", "--sigma-max", "0.05",
               "--directions", "4", "--out", str(csv_path)])
    assert rc == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "x0,y0,x1,y1,x2,y2"
    assert len(rows) == 1 + 3 * 3 * 4


def test_same_seed_is_bit_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc = main(["oracle", "planes", "--n", "3", "--trials", "5",
                   "--seed", "11", "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_extend_and_atlas_take_no_seed(parabola, tmp_path, capsys):
    # nothing in extend or atlas is random, so neither takes --seed, and
    # extend builds charts of every sigma, so it takes no --sigma-max
    for argv in (["extend", "--seed", "3"], ["atlas", "--seed", "3"],
                 ["extend", "--sigma-max", "0.05"]):
        with pytest.raises(SystemExit):
            main(argv + ["--arc", parabola])
    capsys.readouterr()
    rep = tmp_path / "rep.json"
    rc = main(["extend", "--arc", parabola, "--n", "2", "--K", "2",
               "--report", str(rep)])
    assert rc == 0
    # only extend's own flags, with D = 2K + 8 when --D is absent
    assert _read(rep)["config"] == {"n": 2, "K": 2, "D": 12, "branch": None}


@pytest.mark.parametrize("argv", [
    pytest.param(["extend", "--n", "1"], id="extend-n1"),
    pytest.param(["extend", "--K", "0"], id="extend-K0"),
    pytest.param(["extend", "--K", "5", "--D", "9"], id="extend-K5-D9"),
    pytest.param(["atlas", "--n", "1"], id="atlas-n1"),
    pytest.param(["atlas", "--K", "0"], id="atlas-K0"),
    pytest.param(["atlas", "--K", "5", "--D", "9"], id="atlas-K5-D9"),
    pytest.param(["atlas", "--K", "2", "--spacing", "1.0", "--sigma-max",
                  "0"], id="atlas-sigma0"),
    pytest.param(["atlas", "--K", "2", "--spacing", "5", "--sigma-max", "0"],
                 id="atlas-one-chart-sigma0"),
    # on an obstructed closed arc, a bad K or D is still a bad setting,
    # not an obstruction report
    pytest.param(["atlas", "--arc", "circle", "--n", "3", "--K", "0"],
                 id="atlas-circle-n3-K0"),
    pytest.param(["atlas", "--arc", "circle", "--n", "3", "--K", "4", "--D",
                  "5"], id="atlas-circle-n3-K4-D5"),
    pytest.param(["residual", "--nt", "1"], id="residual-nt1"),
    pytest.param(["residual", "--ns", "0"], id="residual-ns0"),
    pytest.param(["residual", "--sigma-max", "0"], id="residual-sigma0"),
    pytest.param(["residual", "--sigma-max", "-0.05"],
                 id="residual-sigma-negative"),
    pytest.param(["residual", "--sigma-max", "nan"], id="residual-sigma-nan"),
    pytest.param(["oracle", "harvey-lawson", "--m", "3", "--c", "nan"],
                 id="harvey-lawson-c-nan"),
    pytest.param(["oracle", "harvey-lawson", "--m", "2", "--c", "inf"],
                 id="harvey-lawson-c-inf"),
])
def test_bad_run_settings_are_errors(parabola, tmp_path, capsys, argv):
    if argv[0] == "residual":
        # a good chart, so that only the grid settings can be at fault
        chart = str(tmp_path / "c.json")
        main(["extend", "--arc", parabola, "--n", "3", "--K", "4",
              "--branch", "0", "--out", chart])
        extra = ["--chart", chart]
    elif argv[0] in ("extend", "atlas") and "--arc" not in argv:
        extra = ["--arc", parabola]
    else:
        extra = []
    capsys.readouterr()
    rc = main(argv + extra)
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if argv[0] == "residual":
        assert argv[1].lstrip("-").replace("-", "_") in err


@pytest.mark.parametrize("branch", ["7", "-1"])
def test_atlas_rejects_branch_outside_range(capsys, branch):
    rc = main(["atlas", "--arc", "circle", "--n", "2", "--K", "4", "--D",
               "24", "--spacing", "0.5", "--sigma-max", "0.04",
               f"--branch={branch}"])
    assert rc == 1
    assert "error: branch must lie in [0, n)" in capsys.readouterr().err


def test_bad_arc_path_is_an_error(capsys):
    rc = main(["extend", "--arc", "/nonexistent/arc.json", "--n", "2"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_graph_arc_above_its_degree_cap_is_an_error(tmp_path, capsys):
    # not silently truncated to 0.5 t^2, another arc
    arc = tmp_path / "arc.json"
    arc.write_text(json.dumps({"kind": "graph", "degree_cap": 2,
                               "g_coeffs": ["0", "0", "0.5", "1", "2"]}))
    rc = main(["extend", "--arc", str(arc), "--n", "2", "--K", "2",
               "--out", str(tmp_path / "chart")])
    assert rc == 1
    assert "above degree_cap 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("chart*"))


def test_precision_env_round_trip(parabola, tmp_path, monkeypatch):
    monkeypatch.setenv("SLAG_PRECISION", "mp25")
    out = tmp_path / "c.json"
    rc = main(["extend", "--arc", parabola, "--n", "2", "--K", "2",
               "--branch", "0", "--out", str(out)])
    assert rc == 0
    assert _read(out)["precision"] == "mp25"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_residual_of_a_nan_chart_fails(tmp_path, capsys):
    path = str(tmp_path / "nan.json")
    dump_chart(chart_with_nan_in_f3(), path)
    rc = main(["residual", "--chart", path])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    check = doc["checks"][0]
    for key in ("max_pde", "max_omega", "max_upsilon", "max_momentum"):
        assert math.isnan(float(check[key])), key


def _decay_study():
    path = Path(__file__).resolve().parents[1] / "scripts" / "decay_study.py"
    spec = importlib.util.spec_from_file_location("decay_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("residual", [None, 1e-9, math.nan, 0.0])
def test_decay_study_exits_1_below_the_decay_bound(monkeypatch, capsys,
                                                   residual):
    # float64 resolves the slopes 3 and 5 of K = 1, 2; a flat, NaN or
    # zero residual has no slope of 2K - 1
    study = _decay_study()
    monkeypatch.setattr("sys.argv", ["decay_study.py", "--precision",
                                     "float64", "--orders", "1", "2"])
    if residual is not None:
        monkeypatch.setattr(study, "pde_residual", lambda exp, ts, ss:
                            ResidualReport(residual, len(ts) * len(ss), ""))
    rc = study.main()
    out = capsys.readouterr()
    assert rc == (0 if residual is None else 1)
    assert ("error:" in out.err) is (residual is not None)
    assert len(out.out.splitlines()) == 4
