"""Command-line interface: JSON schema, exit codes, argument validation."""

import json
import os

import pytest

from drglab.cli import main
from test_homogeneous import GOLDEN_GRAPHS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_build_inline(capsys):
    code, out, _ = run_cli(capsys, "build", "petersen")
    assert code == 0
    assert out["schema"] == "drg-lab-v1"
    assert out["n"] == 10 and out["edges"] == 15
    assert "graph" in out


def test_build_to_file_then_analyze(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    code, out, _ = run_cli(capsys, "build", "johnson:7,3", "--out", path)
    assert code == 0 and out["path"] == path
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert out["distance_regular"] and out["ia"] == "12,6,2;1,4,9"
    assert out["v"] == 35 and out["diameter"] == 3
    assert out["eigenvalues"] == ["12", "5", "0", "-3"]


def test_analyze_non_drg_exits_one(capsys, tmp_path):
    from drglab.graph import Graph
    path = str(tmp_path / "p4.json")
    Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).dump(path)
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 1
    assert not out["distance_regular"] and "witness" in out


def test_homog_exit_codes(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    run_cli(capsys, "build", "petersen", "--out", path)
    code, out, _ = run_cli(capsys, "homog", path, "--i", "1")
    assert code == 0 and out["holds"]
    code, _, err = run_cli(capsys, "homog", path, "--i", "1", "--sample", "5")
    assert code == 2 and "seed" in err


def test_homog_refutation_reports_pairs_checked(capsys, tmp_path):
    path = str(tmp_path / "t10.json")
    run_cli(capsys, "build", "triangular:10", "--out", path)
    code, out, _ = run_cli(capsys, "homog", path)
    assert code == 1 and not out["holds"]
    assert out["pairs_checked"] >= 1 and len(out["witness"]) == 5


def test_cab_command(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    run_cli(capsys, "build", "icosahedron", "--out", path)
    code, out, _ = run_cli(capsys, "cab", path)
    assert code == 0 and out["holds"]
    assert len(out["levels"]) >= 2


def test_cab_rejects_levels_below_one(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    run_cli(capsys, "build", "icosahedron", "--out", path)
    code, out, err = run_cli(capsys, "cab", path, "--upto", "0")
    assert code == 2 and out is None and "level 0" in err


def test_cab_refutation_reports_the_first_deviation(capsys, tmp_path):
    path = str(tmp_path / "t10.json")
    run_cli(capsys, "build", "triangular:10", "--out", path)
    code, out, _ = run_cli(capsys, "cab", path)
    assert code == 1 and not out["holds"]
    assert out["levels"] == [] and out["pairs_checked"] == 1
    assert out["witness"] == {"level": 1, "x": 0, "y": 1, "vertex": 9,
                              "counts": [1, 0, 7], "expected": [1, 6, 1],
                              "reason": "counts differ within cell A"}


@pytest.mark.parametrize("ia,gon,order", [("2,1;1,2", 4, [1, 1]),
                                          ("8,8;1,2", 5, None)])
def test_classify_near_polygon_of_small_or_negative_arrays(capsys, ia, gon, order):
    # D = 2 has no c_3, and a_1 = -1 leaves no line size a_1 + 1 to divide by
    code, out, err = run_cli(capsys, "classify", "--ia", ia)
    assert code == 0 and "Traceback" not in err
    assert out["near_polygon"] == {"near_polygon": True, "gon": gon,
                                   "order": order, "refinement": None}


def test_classify_infeasible_array_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "classify", "--ia", "4,4,4;1,2,2")
    assert code == 2 and out is None
    assert err.startswith("error: infeasible intersection array")


def test_classify_by_array(capsys):
    code, out, _ = run_cli(capsys, "classify", "--ia",
                           "25,16,9,4,1;1,4,9,16,25")
    assert code == 0
    assert "Johnson J(10,5)" in out["named_families"]
    assert out["fundamental_bound"]["tight"]
    assert out["fundamental_bound"]["lhs"] == "-3200/81"
    branches = {c["theorem"]: c["branch"] for c in out["classifications"]}
    assert branches["main"] == "ii"
    assert branches["tight"] == "i"


def test_classify_file_verifies_homogeneity(capsys, tmp_path):
    path = str(tmp_path / "j84.json")
    run_cli(capsys, "build", "johnson:8,4", "--out", path)
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    assert out["ia"] == "16,9,4,1;1,4,9,16" and out["homogeneity"] == "verified"


@pytest.mark.parametrize("family,ia", [("triangular:10", "16,7;1,4"),
                                       ("johnson:7,3", "12,6,2;1,4,9")])
def test_classify_file_not_homogeneous_exits_one(capsys, tmp_path, family, ia):
    # distance-regular, but the common neighbours of an edge xy split into
    # the sets that contain x & y and those that do not, with different
    # counts inside the cell (J(n,d) is 1-homogeneous only for n = 2d)
    path = str(tmp_path / "g.json")
    run_cli(capsys, "build", family, "--out", path)
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 1
    assert out["error"] == "graph is not 1-homogeneous" and out["ia"] == ia
    x, y, cell, a, b = out["witness"]
    assert cell == [1, 1]


def test_classify_requires_exactly_one_input(capsys):
    code, _, err = run_cli(capsys, "classify")
    assert code == 2 and err


def test_srg_params(capsys):
    code, out, _ = run_cli(capsys, "srg", "--params", "45,16,8,4")
    assert code == 0
    assert out["sims"]["branch"] == "Steiner"
    assert "SteinerGraph(m=2,n=8)" in out["tags"]
    code, out, _ = run_cli(capsys, "srg", "--params", "5,2,0,1")
    assert code == 0
    assert "Conference(5)" in out["tags"]
    assert "sqrt(5)" in out["r"]


def test_srg_rejects_bad_params(capsys):
    code, _, err = run_cli(capsys, "srg", "--params", "10,3,1,1")
    assert code == 2 and err


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--b", "1", "--m", "2",
                           "--mu", "2")
    assert code == 0
    assert out["F"] == 861 and out["G"] == 169
    assert out["mu_bound"] == 8 and out["claw_f"] == 4 and out["phi"] == 66


def test_stdout_is_sorted_json(capsys):
    code = main(["bounds", "--b", "1"])
    captured = capsys.readouterr()
    keys = list(json.loads(captured.out))
    assert keys == sorted(keys)


with open(os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_output_matches_golden(capsys, case):
    code = main(case["argv"])
    assert code == case["code"]
    assert capsys.readouterr().out == case["stdout"]


def test_threads_flag_is_gone(capsys):
    assert main(["--threads", "2", "bounds", "--b", "1"]) == 2


@pytest.mark.parametrize("command", ["analyze", "homog", "classify", "cab"])
def test_empty_graph_file_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"format": "drg-graph-v1", "n": 0, "adj": []}))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out is None
    assert "graph has no vertices" in err


with open(os.path.join(os.path.dirname(__file__), "data", "sampled_golden.json")) as fh:
    SAMPLED_CLI = json.load(fh)["cli"]


@pytest.mark.parametrize("case", SAMPLED_CLI, ids=lambda c: "{graph} --i {level} "
                         "--sample {sample} --seed {seed}".format(**c))
def test_sampled_homog_output_matches_golden(capsys, tmp_path, case):
    path = str(tmp_path / "g.json")
    GOLDEN_GRAPHS[case["graph"]]().dump(path)
    code = main(["homog", path, "--i", str(case["level"]), "--sample",
                 str(case["sample"]), "--seed", str(case["seed"])])
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_biggs_smith_array_classifies_with_intervals(capsys):
    # theta_D has degree 3, so the fundamental bound is interval arithmetic;
    # a_1 = 0 leaves no classifier in scope
    code, out, err = run_cli(capsys, "classify", "--ia", "3,2,2,2,1,1,1;1,1,1,1,1,1,3")
    assert code == 0 and err == ""
    assert out["classifications"] == [] and not out["fundamental_bound"]["tight"]
    assert out["fundamental_bound"]["r"].startswith("[")


def test_internal_errors_exit_three(capsys, monkeypatch):
    import drglab.cli

    def broken(args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(drglab.cli, "cmd_bounds", broken)
    code, out, err = run_cli(capsys, "bounds", "--b", "1")
    assert code == 3 and out is None
    assert err == "error: internal: TypeError: unsupported operand\n"
