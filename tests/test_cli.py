"""Command-line interface: JSON schema, exit codes, argument validation."""

import importlib.util
import json
import os
import re
import resource
import runpy
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import homogeneity_oracle
from drglab import errors
from drglab.arrays import IntersectionArray, basic_feasibility
from drglab.classical import classification_report
from drglab.cli import main
from drglab.errors import ResourceError
from drglab.families import FamilySpec, build_family, cycle, hamming, triangular
from drglab.graph import Graph
from drglab.homogeneous import check_i_homogeneous, named_families, near_polygon_analysis
from test_homogeneous import GOLDEN_GRAPHS, chorded_c4


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


@pytest.mark.parametrize("build", [lambda: Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
                                   chorded_c4], ids=["P4", "chorded C4"])
def test_classify_names_the_distance_regularity_witness(capsys, tmp_path, build):
    # classify exits 1 on a graph that is not distance-regular with the
    # witness that analyze prints for it
    path = str(tmp_path / "g.json")
    build().dump(path)
    code, analyzed, _ = run_cli(capsys, "analyze", path)
    assert code == 1
    code, classified, _ = run_cli(capsys, "classify", path)
    assert code == 1 and classified["error"] == "graph is not distance-regular"
    assert classified["witness"] == analyzed["witness"]
    assert sorted(classified["witness"]) == ["counts", "distance", "expected", "x", "y"]


def test_homog_exit_codes(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    run_cli(capsys, "build", "petersen", "--out", path)
    code, out, _ = run_cli(capsys, "homog", path, "--i", "1")
    assert code == 0 and out["holds"]
    code, _, err = run_cli(capsys, "homog", path, "--i", "1", "--sample", "5")
    assert code == 2 and "seed" in err


@pytest.mark.parametrize("spec", ["complete:1", "johnson:4,4", "grid:1,1"])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_homog_level_zero_of_one_vertex(capsys, tmp_path, spec, mode):
    # a graph with no arc: its one pair (0, 0) holds with the oracle's report
    path = str(tmp_path / "g.json")
    run_cli(capsys, "build", spec, "--out", path)
    sampled = ["--sample", "3", "--seed", "1"] if mode == "sampled" else []
    code, out, _ = run_cli(capsys, "homog", path, "--i", "0", *sampled)
    want = homogeneity_oracle.check_i_homogeneous(Graph.load(path), 0, mode, seed=1, count=3)
    assert code == 0
    assert out == {"schema": "drg-lab-v1", "level": 0, "holds": True, "mode": mode,
                   "pairs_checked": want.pairs_checked,
                   "cells": [list(l) for l in want.labels],
                   "quotient": [list(r) for r in want.matrix]}
    assert out["cells"] == [[0, 0]] and out["quotient"] == [[0]]
    assert out["pairs_checked"] == (3 if mode == "sampled" else 1)


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
    # D = 2 has no c_3, and a_1 = -1 leaves no line size a_1 + 1 to divide
    # by; classify refuses the array with a_1 = -1 as infeasible, with its
    # witness, before the analysis runs
    array = IntersectionArray.parse(ia)
    assert near_polygon_analysis(array) == {"near_polygon": True, "gon": gon,
                                            "order": tuple(order) if order else None,
                                            "refinement": None}
    code, out, err = run_cli(capsys, "classify", "--ia", ia)
    if array.a_at(1) < 0:
        assert code == 2 and out is None
        assert err == "error: infeasible intersection array: a_1 = -1 < 0\n"
    else:
        assert code == 0 and err == ""
        assert out["near_polygon"] == {"near_polygon": True, "gon": gon,
                                       "order": order, "refinement": None}


def test_complete_graphs_analyze_and_classify(capsys, tmp_path):
    # diameter 1: the folded families have no diameter-2 parent (the fold of
    # a cocktail party graph is no cover), and the near polygon reads no c_2
    for k in range(1, 8):
        ia = IntersectionArray((k,), (1,))
        assert f"Johnson J({k + 1},1)" in named_families(ia)
        assert classification_report(ia)["classifications"] == []
    path = str(tmp_path / "k5.json")
    run_cli(capsys, "build", "complete:5", "--out", path)
    for argv in (["analyze", path], ["classify", path], ["classify", "--ia", "4;1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert "Johnson J(5,1)" in out["named_families"]


def test_classify_infeasible_array_is_an_input_error(capsys):
    # at D = 2, k_2 = k b_1 / c_2 = 4 / 3: below D = 3 no fundamental bound
    # asks for the eigenvalues, so the report runs their feasibility check
    # itself
    for ia, witness in [("4,4,4;1,2,2", "a_1 = -1 < 0"), ("4,1;1,3", "k_2 = 4/3 not an integer")]:
        code, out, err = run_cli(capsys, "classify", "--ia", ia)
        assert code == 2 and out is None
        assert err == f"error: infeasible intersection array: {witness}\n"


@st.composite
def arrays(draw):
    """An intersection array of diameter 1-7 and valency at most 30, with
    b_1..b_{D-1} and c_2..c_D each anywhere in 1..k."""
    D, k = draw(st.integers(1, 7)), draw(st.integers(1, 30))
    entries = st.lists(st.integers(1, k), min_size=D - 1, max_size=D - 1)
    return IntersectionArray((k, *draw(entries)), (1, *draw(entries)))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(arrays())
def test_classify_exits_zero_only_on_arrays_that_pass_basic_feasibility(capsys, ia):
    code, out, err = run_cli(capsys, "classify", "--ia", str(ia))
    rep = basic_feasibility(ia)
    assert code in (0, 2), err
    if not rep.passed:
        assert code == 2 and out is None
        assert err == f"error: infeasible intersection array: {rep.witness}\n"


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


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"] + c.get("graph", "").split()))
def test_output_matches_golden(capsys, tmp_path, case):
    # a case with a "graph" family spec runs on that graph, built to a file
    argv = list(case["argv"])
    if "graph" in case:
        argv.append(str(tmp_path / "g.json"))
        build_family(FamilySpec.parse(case["graph"])).dump(argv[-1])
    code = main(argv)
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


@pytest.mark.parametrize("ia", ["3,2,1,1;1,1,2,3", "4,2,2,1;1,1,2,4", "6,5,4;1,2,2"])
def test_classify_arrays_with_mixed_radicals_or_a_rescaled_cubic(capsys, ia):
    # theta_1 and theta_D of the first two lie over distinct radicals; the
    # third has a cubic factor that sympy's CRootOf rescales
    code, out, err = run_cli(capsys, "classify", "--ia", ia)
    assert code == 0 and err == ""
    assert not out["fundamental_bound"]["tight"]


def test_internal_errors_exit_three(capsys, monkeypatch):
    # a ValueError is a defect too: every parse site turns bad input into
    # InputError, so main maps only DrgError and OSError to exit 2
    import drglab.cli

    for exc in (TypeError("unsupported operand"),
                ValueError("assignment destination is read-only")):
        def broken(args):
            raise exc

        monkeypatch.setattr(drglab.cli, "cmd_bounds", broken)
        code, out, err = run_cli(capsys, "bounds", "--b", "1")
        assert code == 3 and out is None
        assert err == f"error: internal: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("argv,message", [
    (["build", "steiner_block_graph", "--data", "[1]"], "bad parameters or data"),
    (["build", "latin_square", "--data", "5"], "bad parameters or data"),
    (["build", "johnson:8,x"], "bad parameters or data"),
    (["build", "latin_square", "--data", "[[0, 1"], "bad --data JSON"),
    (["bounds", "--b", "1/0"], "bad --b"),
    (["bounds", "--b", "one"], "bad --b"),
    (["bounds", "--b", "2", "--mu", "5"], "--mu needs --m")])
def test_malformed_input_is_an_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out is None
    assert err.startswith(f"error: {message}")


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CORPUS_SCRIPT = os.path.join(ROOT, "scripts", "verify_corpus.py")


CLASSIFIER_LINE = re.compile(r"   (\w+) classifier: branch (\S+) \((.*)\)$")


def test_verify_corpus_script_runs(capsys):
    # one "==" header per corpus graph, every verdict exhaustive and holding,
    # and each graph's classifier lines the classifications, in order, that
    # ``classify --ia`` reports for its array
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, CORPUS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    heads = [line.split()[1] for line in lines if line.startswith("== ")]
    corpus = runpy.run_path(CORPUS_SCRIPT)["CORPUS"]
    assert heads == corpus
    homog = [line for line in lines if line.lstrip().startswith("1-homogeneous:")]
    assert len(homog) == len(corpus)
    assert all(line.split()[1:3] == ["True", "(exhaustive,"] for line in homog)
    blocks = {}
    for line in lines:
        if line.startswith("== "):
            block = blocks[line.split()[1]] = {"printed": []}
        elif line.lstrip().startswith("array "):
            block["ia"] = line.split()[1]
        elif match := CLASSIFIER_LINE.match(line):
            block["printed"].append(match.groups())
    for spec, block in blocks.items():
        code, out, _ = run_cli(capsys, "classify", "--ia", block["ia"])
        assert code == 0
        assert block["printed"] == [(c["theorem"], c["branch"], c["name"])
                                    for c in out["classifications"]], spec
    assert [p[:2] for p in blocks["johnson:10,5"]["printed"]] == [
        ("main", "ii"), ("classical", "ii"), ("tight", "i")]
    assert [p[:2] for p in blocks["hamming:5,3"]["printed"]] == [
        ("main", "i"), ("classical", "i")]


@pytest.mark.parametrize("build", [lambda: triangular(10), chorded_c4],
                         ids=["T(10)", "chorded C4"])
def test_verify_corpus_flags_a_failing_verdict(build, capsys):
    # T(10) is distance-regular but neither 1-homogeneous nor CAB-regular;
    # the chorded 4-cycle is not distance-regular
    analyze = runpy.run_path(CORPUS_SCRIPT)["analyze"]
    assert analyze("g", build(), 0.0) is False
    assert capsys.readouterr().out.startswith("== g")


def test_code_lines_script_counts_only_code(tmp_path):
    (tmp_path / "m.py").write_text('"""A docstring."""\n\n# a comment\nx = 1\ny = x + 1\n')
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "code_lines.py"),
                           str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2", "m.py", "2", "total"]


def test_bench_script_runs_every_seed_and_one_traced_run_per_workload(
        monkeypatch, tmp_path):
    # git and the child runs are fakes that write canned result files: the
    # end-to-end runs cover every workload, seed and run with --trace 0, then
    # one --trace 1 run per workload on seed 1, TRACE_LENGTH runs long, gives
    # its per-layer block and the rounds it traced
    path = os.path.join(ROOT, "scripts", "bench.py")
    spec = importlib.util.spec_from_file_location("bench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    metrics = [m["name"] for m in declared["end_to_end"]] + ["fail_ratio"]
    runs = []

    def fake_run(cmd, **kwargs):
        opts = dict(zip(cmd[2::2], cmd[3::2]))
        runs.append(opts)
        seed, trace = int(opts["--seed"]), int(opts["--trace"])
        result = {"end_to_end": {m: seed + len(runs) / 1000 for m in metrics}}
        if trace:
            result["per_layer"] = {"cli.classify_s": seed, opts["--workload"]: 1}
            result["trace"] = {"rounds": 8}
        with open(opts["--out"], "w") as fh:
            json.dump(result, fh)
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench, "git", lambda *args: "")
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench.main([str(out)]) == 0
    written = json.loads(out.read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    plain = [r for r in runs if r["--trace"] == "0"]
    assert sorted((r["--workload"], r["--seed"]) for r in plain) == sorted(
        (w, s) for w in workloads for s in ("1", "2", "3") for _ in range(3))
    assert all(r["--seconds"] == str(declared["run_seconds"]) for r in plain)
    assert [(r["--workload"], r["--seed"], r["--trace"], r["--seconds"])
            for r in runs[len(plain):]] == [
        (w, "1", "1", str(bench.TRACE_LENGTH * declared["run_seconds"])) for w in workloads]
    assert written["seeds"] == [1, 2, 3] and written["runs"] == 3
    for w in workloads:
        for s in ("1", "2", "3"):
            assert sorted(written["end_to_end"][w][s]) == sorted(metrics)
            assert len(written["end_to_end"][w][s]["wall_s"]["samples"]) == 3
            assert int(written["end_to_end"][w][s]["wall_s"]["median"]) == int(s)
    assert written["per_layer"] == {w: {"cli.classify_s": 1, w: 1} for w in workloads}
    assert written["trace_rounds"] == {w: 8 for w in workloads}


#: imports the CLI once, then runs each [argv, limit, relative] of the JSON
#: list in sys.argv[1] through ``main`` in a child forked from it, under a
#: soft and hard RLIMIT_AS of ``limit`` bytes, plus the address space the
#: child has mapped when ``relative``, and skips the later runs of an argv
#: once one has exited 0; prints a JSON list of [argv, exit status, stderr].
#: With one OpenBLAS thread the driver runs no other thread, so it may fork
LIMIT_DRIVER = r"""
import io, json, os, resource, sys
import drglab.cli
runs = []
for argv, limit, relative in json.loads(sys.argv[1]):
    if [argv, 0] in [run[:2] for run in runs]:
        continue
    read, write = os.pipe()
    pid = os.fork()
    if not pid:
        os.close(read)
        if relative:
            with open("/proc/self/statm") as fh:
                limit += os.sysconf("SC_PAGE_SIZE") * int(fh.read().split()[0])
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        sys.stdout, sys.stderr = open(os.devnull, "w"), io.StringIO()
        code = drglab.cli.main(argv)
        os.write(write, sys.stderr.getvalue().encode())
        os._exit(code)
    os.close(write)
    with os.fdopen(read, encoding="utf-8") as fh:
        err = fh.read()
    runs.append([argv, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), err])
print(json.dumps(runs))
"""


def run_cli_under_limits(runs, timeout=60):
    """[argv, exit status, stderr] of ``drglab`` run on each [argv, limit,
    relative] under an address-space limit, up to the first success of each
    argv, each in a fresh child of one process that has imported the CLI
    (``LIMIT_DRIVER``)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", LIMIT_DRIVER, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv", [
    ["build", "complete:2000000"],  # 32 TB of arcs, 2 million connection words
    ["build", "complete:19600"],  # 3.07 GB of arcs
    ["build", "complete:8000", "--out", "{out}"],  # 512 MB of arcs, 3 GB of JSON lists
    ["build", "cycle:150000000"],  # 2.4 GB of arcs, as much again per vertex
    # 5.2 GB of rows if every draw's rows were held at once
    ["homog", "{h83}", "--sample", "200000", "--seed", "1", "--i", "2"],
], ids=["complete:2000000", "complete:19600", "complete:8000 --out", "cycle:150000000",
        "H(8,3) --sample 200000 --i 2"])
def test_oversized_commands_exit_typed_under_an_address_space_limit(tmp_path, argv):
    # each command in its own process under a 3 GB address-space limit: the
    # predicted bytes are refused (exit 2) before they are allocated, never a
    # MemoryError (exit 3), a signal or a timeout; a refused dump leaves an
    # existing file as it was.  The sampled draws stream in batches, so
    # H(8,3) reports the first draw's refutation (exit 1) with the witness
    # that 10 draws give
    out = tmp_path / "out.json"
    out.write_text("earlier contents\n")
    h83 = tmp_path / "h83.json"
    hamming(8, 3).dump(str(h83))
    argv = [arg.format(out=out, h83=h83) for arg in argv]
    [(_, code, err)] = run_cli_under_limits([[argv, 3 << 30, False]])
    assert code in (0, 1, 2), err
    if "--out" in argv and code == 0:
        assert Graph.load(str(out)).n == 8000
    elif argv[0] == "homog":
        assert code == 1, err
        done = run_under_3gb(argv)
        assert done.returncode == 1, done.stderr
        report = json.loads(done.stdout)
        assert report["witness"] == [1100, 1586, [2, 2], 614, 776]
        assert report["pairs_checked"] == 1
        rep = check_i_homogeneous(hamming(8, 3), 2, "sampled", seed=1, count=10)
        assert rep.witness == (1100, 1586, (2, 2), 614, 776)
    else:
        assert code == 2 and " GiB of memory is left" in err, err
        assert out.read_text() == "earlier contents\n"


def run_under_3gb(argv):
    """``drglab argv`` in a fresh process under a 3 GB address-space limit,
    its stdout captured."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "drglab.cli", *argv], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=60)


def test_a_quotient_beyond_the_room_is_refused(tmp_path, monkeypatch):
    # a pair of the n-cycle has about n cells, so its quotient has about n^2
    # entries: cycle(20000)'s need 11.9 GiB, refused under a 3 GB limit
    # (exit 2) before they are built, not a MemoryError (exit 3); in process,
    # cycle(3000)'s 9 million entries are refused under a room of 100 MiB
    path = str(tmp_path / "c20000.json")
    cycle(20000).dump(path)
    argv = ["homog", path, "--sample", "3", "--seed", "1", "--i", "1"]
    [(_, code, err)] = run_cli_under_limits([[argv, 3 << 30, False]])
    assert code == 2 and err.startswith("error: the quotient entries of 20000 cells need"), err
    g = cycle(3000)
    monkeypatch.setattr(errors, "_room", lambda: 100 << 20)
    with pytest.raises(ResourceError, match="the quotient entries of 3000 cells need"):
        check_i_homogeneous(g, 1, "sampled", seed=1, count=3)


def test_label_tables_beyond_the_room_are_refused(tmp_path, monkeypatch):
    # a pair at distance i of the n-cycle labels its cells below
    # (2i + 1)(2 ecc + 1), about n^2 at i = n / 2, and its label tables take
    # 16 bytes a label: cycle(20000)'s at level 10000 need 5.96 GiB, refused
    # under a 3 GB limit (exit 2) before they are built, not a MemoryError
    # (exit 3); in process, cycle(3000)'s 9 million labels at level 1500 are
    # refused under a room of 100 MiB, before its quotient's
    path = str(tmp_path / "c20000.json")
    cycle(20000).dump(path)
    argv = ["homog", path, "--sample", "3", "--seed", "1", "--i", "10000"]
    [(_, code, err)] = run_cli_under_limits([[argv, 3 << 30, False]])
    assert code == 2 and err.startswith(
        "error: the tables of 400040001 cell labels need 5.96 GiB"), err
    g = cycle(3000)
    monkeypatch.setattr(errors, "_room", lambda: 100 << 20)
    with pytest.raises(ResourceError, match="the tables of 9006001 cell labels need"):
        check_i_homogeneous(g, 1500, "sampled", seed=1, count=3)


def test_dense_verdicts_exit_typed_from_the_load_refusal_up_to_success(tmp_path):
    # H(6,3): 729 vertices in a 44 KB file, whose load needs 0.7 MiB.  Each
    # command runs under address-space limits 0.25, 0.75, 1.25, ... MiB above
    # what the process has mapped once the CLI is imported, up to its first
    # success: the graph file and the distance matrix predict their bytes,
    # and those of the blocks that read them, before they are allocated, and
    # the verdicts stream their pairs within those blocks, so every run below
    # success is refused (exit 2), never a MemoryError (exit 3)
    path = str(tmp_path / "h63.json")
    hamming(6, 3).dump(path)
    commands = [["analyze", path], ["cab", path], ["homog", path]]
    extras = [(2 * t + 1) << 18 for t in range(40)]
    runs = run_cli_under_limits([[argv, extra, True] for argv in commands for extra in extras])
    for argv in commands:
        codes = [(code, err) for got, code, err in runs if got == argv]
        assert codes[0][1].startswith("error: the JSON lists of graph file"), codes[0]
        assert codes[-1][0] == 0, codes[-1]
        assert all(code == 2 and " GiB of memory is left" in err for code, err in codes[:-1]), codes
