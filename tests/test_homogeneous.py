"""Joint distance partitions, near polygons, recognition, main classifier."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import drglab
import drglab.cli
from drglab.arrays import IntersectionArray
from drglab.cab import cab_partition_check
from drglab.errors import InputError, PreconditionError, ScopeError
from drglab.families import (cycle, folded_halved_cube, folded_johnson, hamming,
                             johnson, petersen, triangular)
from drglab.graph import Graph
from drglab.homogeneous import (FAMILY_BRANCH, check_i_homogeneous, classify_main,
                                family_branches, local_spectral_checks, named_families,
                                near_polygon_analysis, recognize_named_family,
                                small_diameter_lookup)

J105 = IntersectionArray((25, 16, 9, 4, 1), (1, 4, 9, 16, 25))
HC10 = IntersectionArray((45, 28, 15, 6, 1), (1, 6, 15, 28, 45))
HC11 = IntersectionArray((55, 36, 21, 10, 3), (1, 6, 15, 28, 45))
H53 = IntersectionArray((10, 8, 6, 4, 2), (1, 2, 3, 4, 5))


def test_one_homogeneous_petersen(pete):
    rep = check_i_homogeneous(pete, 1)
    assert rep.holds and rep.mode == "exhaustive"
    assert rep.pairs_checked == 15 * 2


def test_not_homogeneous_witness():
    # 4-cycle with a chord: distance partitions disagree across edges
    from drglab.graph import Graph
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    rep = check_i_homogeneous(g, 1)
    assert not rep.holds
    assert rep.witness is not None


def chorded_c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


@pytest.mark.parametrize("build", [lambda: triangular(10), lambda: johnson(7, 3),
                                   chorded_c4], ids=["T(10)", "J(7,3)", "chorded C4"])
def test_exhaustive_refutation_counts_pairs_through_the_witness(build):
    g = build()
    rep = check_i_homogeneous(g, 1)
    assert not rep.holds
    # pairs are read in np.argwhere order, the refuting pair included
    pairs = np.argwhere(g.distance_matrix() == 1).tolist()
    assert rep.pairs_checked == pairs.index(list(rep.witness[:2])) + 1


@pytest.mark.parametrize("build,seed,count", [
    (lambda: folded_halved_cube(14), 14, 4),
    (chorded_c4, 11, 10)],
    ids=["folded halved 14-cube", "chorded C4"])
def test_sampled_refutation_counts_pairs_through_the_witness(build, seed, count):
    g = build()
    rep = check_i_homogeneous(g, 1, "sampled", seed=seed, count=count)
    assert not rep.holds and 1 <= rep.pairs_checked <= count
    if rep.pairs_checked > 1:
        # the same seed draws the same pairs, so the prefix before the
        # refuting pair holds
        prefix = check_i_homogeneous(g, 1, "sampled", seed=seed,
                                     count=rep.pairs_checked - 1)
        assert prefix.holds and prefix.pairs_checked == rep.pairs_checked - 1


def test_report_invariant_survives_optimized_python():
    code = ("from drglab.errors import InternalError\n"
            "from drglab.homogeneous import HomogeneityReport\n"
            "try:\n"
            "    HomogeneityReport(1, True, witness=(1,))\n"
            "except InternalError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.dirname(os.path.dirname(drglab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def test_sampled_mode_needs_seed_and_count(pete):
    with pytest.raises(InputError):
        check_i_homogeneous(pete, 1, "sampled", seed=3)
    with pytest.raises(InputError):
        check_i_homogeneous(pete, 1, "sampled", seed=3, count=0)
    rep = check_i_homogeneous(pete, 1, "sampled", seed=3, count=5)
    assert rep.holds and rep.mode == "sampled" and rep.pairs_checked == 5


def test_no_pairs_at_distance(pete):
    with pytest.raises(InputError):
        check_i_homogeneous(pete, 3)  # diameter is 2


# -- sampled reports pinned by a golden file -------------------------------------

#: whole sampled reports, witnesses included, and the errors of edgeless graphs,
#: recorded with the sampler that ran one queue breadth-first search per drawn
#: x and per y; a sampler must keep its draws, and so these reports, per seed
with open(os.path.join(os.path.dirname(__file__), "data", "sampled_golden.json")) as fh:
    SAMPLED_GOLDEN = json.load(fh)

GOLDEN_GRAPHS = {"J(8,4)": lambda: johnson(8, 4), "H(4,3)": lambda: hamming(4, 3),
                 "folded J(10,5)": lambda: folded_johnson(10, 5),
                 "T(10)": lambda: triangular(10), "chorded C4": chorded_c4}
EDGELESS = {"n=1": [[]], "n=2": [[], []], "K2+K1": [[1], [0], []]}


def outcome(check) -> dict:
    """The report as JSON, or the error's type and message."""
    try:
        return {"report": json.loads(json.dumps(dataclasses.asdict(check())))}
    except InputError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


@pytest.mark.parametrize("name", GOLDEN_GRAPHS)
@pytest.mark.parametrize("level", [1, 2])
def test_sampled_reports_match_golden(name, level):
    g = GOLDEN_GRAPHS[name]()
    cases = [c for c in SAMPLED_GOLDEN["reports"]
             if c["graph"] == name and c["level"] == level]
    assert len(cases) == 12
    for case in cases:
        got = outcome(lambda: check_i_homogeneous(g, level, "sampled", seed=case["seed"],
                                                  count=case["count"]))
        want = {k: case[k] for k in ("report", "error", "message") if k in case}
        assert got == want, (case["seed"], case["count"])


def test_large_sampled_check_builds_no_per_vertex_python_objects(monkeypatch):
    # the check reads Gamma(x) and every distance row from the arc arrays;
    # the per-vertex accessors would build a Python object per vertex
    g = folded_halved_cube(14)

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-vertex Python view was built")

    for name in ("neighbors", "degree", "edges", "bitrows", "to_json", "adjacency_matrix",
                 "_adjacency"):
        monkeypatch.setattr(Graph, name, forbidden)
    rep = check_i_homogeneous(g, 1, "sampled", seed=14, count=4)
    assert not rep.holds and rep.witness[2] == (3, 3)


def test_edgeless_graphs_raise_golden_errors():
    assert len(SAMPLED_GOLDEN["edgeless"]) == 12
    for case in SAMPLED_GOLDEN["edgeless"]:
        g = Graph(EDGELESS[case["graph"]])
        kwargs = {"seed": 0, "count": 3} if case["mode"] == "sampled" else {}
        got = outcome(lambda: check_i_homogeneous(g, case["level"], case["mode"], **kwargs))
        assert got == {"error": case["error"], "message": case["message"]}, case


def test_cab_equivalence_on_icosahedron(icosa):
    assert check_i_homogeneous(icosa, 1).holds and cab_partition_check(icosa).holds


def test_near_polygon_analysis_hamming():
    out = near_polygon_analysis(H53)
    assert out["near_polygon"] and out["gon"] == 10
    assert out["order"] == (2, 4)
    assert out["refinement"] == "Hamming"


def test_near_polygon_analysis_negative():
    out = near_polygon_analysis(J105)
    assert not out["near_polygon"]


def test_near_polygon_dual_polar_refinement():
    # dual polar graph of Sp(6,2): c2 = 3 branch
    ia = IntersectionArray((14, 12, 8), (1, 3, 7))
    out = near_polygon_analysis(ia)
    assert out["near_polygon"] and out["gon"] == 6
    assert out["refinement"] == "dual polar"


def test_recognize_named_family():
    assert "Johnson J(10,5)" in recognize_named_family(J105)
    assert "Hamming H(5,3)" in recognize_named_family(H53)
    assert any("halved 10-cube" in t for t in recognize_named_family(HC10))
    assert any("halved 11-cube" in t for t in recognize_named_family(HC11))
    folded = IntersectionArray((36, 25, 16), (1, 4, 18))
    assert any("folded Johnson J(12,6)" in t
               for t in recognize_named_family(folded))


def test_small_diameter_lookup():
    assert small_diameter_lookup(IntersectionArray((16, 5), (1, 8))) \
        == ["Schlafli graph"]
    assert small_diameter_lookup(
        IntersectionArray((27, 10, 1), (1, 10, 27))) == ["Gosset graph"]
    assert small_diameter_lookup(IntersectionArray((6, 1), (1, 6))) \
        == ["Cocktail Party K_{4x2}"]


def test_local_spectral_checks_johnson(j105):
    rep = local_spectral_checks(j105)
    assert rep["locally_srg"]
    assert rep["local_params"] == (25, 8, 3, 2)
    assert rep["min_local_eig_ok"] and rep["c2_ge_mu_plus_1"]
    assert rep["grid_local_with_c2_4"]


def test_local_spectral_checks_icosahedron(icosa):
    rep = local_spectral_checks(icosa)
    assert rep["locally_srg"] and rep["local_params"] == (5, 2, 0, 1)
    assert rep["conference_local"]


def test_classifier_scope():
    with pytest.raises(ScopeError):
        classify_main(IntersectionArray((3, 2), (1, 1)))
    with pytest.raises(ScopeError):
        # a1 = 0
        classify_main(IntersectionArray((5, 4, 3, 2, 1), (1, 2, 3, 4, 5)))


def test_classifier_refuses_an_array_that_contradicts_one_homogeneity(capsys):
    # c_2 = 2 but b = b_1 / (theta_1 + 1) < 1, which no 1-homogeneous graph
    # has: the asserted property fails, a precondition, not a defect
    text = "12,10,3,3,3;1,2,2,3,10"
    pattern = r"array is not 1-homogeneous: b = \[.*\] < 1 with c_2 = 2 >= 2"
    with pytest.raises(PreconditionError, match=f"^{pattern}$"):
        classify_main(IntersectionArray.parse(text))
    assert drglab.cli.main(["classify", "--ia", text]) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(f"error: {pattern}\n", err)


def test_classifier_branches():
    assert classify_main(J105).branch == "ii"
    out = classify_main(H53)
    assert out.branch == "i" and "Hamming" in (out.name or "")
    out = classify_main(HC11)
    assert out.branch == "iii" and "11" in (out.name or "")
    assert classify_main(HC10).branch == "iii"


def test_classifier_folded_branches():
    fj = IntersectionArray((100, 81, 64, 49, 36), (1, 4, 9, 16, 50))
    out = classify_main(fj)
    assert out.branch == "iv"
    fh = IntersectionArray((190, 153, 120, 91, 66), (1, 6, 15, 28, 90))
    out = classify_main(fh)
    assert out.branch == "v"


def test_classifier_c2_equals_one():
    # flag graph of the generalized hexagon of order (2,2): a near
    # 12-gon of order (2,1) with c2 = 1 and a1 = 1
    flag = IntersectionArray((4, 2, 2, 2, 2, 2), (1, 1, 1, 1, 1, 2))
    out = classify_main(flag)
    assert out.branch == "c2=1"


def test_classifier_never_contradicts_corpus():
    for ia in (J105, HC10, HC11, H53):
        assert classify_main(ia).branch != "contradiction"


def test_family_branch_table():
    tags = ["folded halved 20-cube", "Hamming H(5,3)", "Johnson J(10,5)",
            "folded Johnson J(20,10)", "halved 11-cube"]
    assert family_branches(tags) == [
        ("ii", "Johnson J(10,5)"), ("iii", "halved 11-cube"),
        ("iv", "folded Johnson J(20,10)"), ("v", "folded halved 20-cube")]


def test_naming_a_family_builds_no_array(monkeypatch):
    # the family generators give plain (b, c) tuples, compared with the
    # array's own, so no IntersectionArray is built or validated to name one
    named = {J105: ["Johnson J(10,5)"], HC11: ["halved 11-cube"],
             IntersectionArray((100, 81, 64, 49, 36), (1, 4, 9, 16, 50)):
                 ["folded Johnson J(20,10)"],
             IntersectionArray((6, 1), (1, 6)): ["halved 4-cube", "Cocktail Party K_{4x2}"],
             IntersectionArray((27, 10, 1), (1, 10, 27)): ["Gosset graph"]}
    built = []
    validate = IntersectionArray.__post_init__
    monkeypatch.setattr(IntersectionArray, "__post_init__",
                        lambda self: (built.append(self), validate(self))[1])
    assert {ia: named_families(ia) for ia in named} == named
    assert built == []


def test_the_tight_column_names_two_families():
    # the tight theorem's branches (i) J(2D,D) and (ii) the halved 2D-cube
    # come from the one family table, and no folded family has one
    assert family_branches(named_families(J105) + named_families(HC10), "tight") == [
        ("i", "Johnson J(10,5)"), ("ii", "halved 10-cube")]
    assert family_branches(["folded halved 20-cube", "folded Johnson J(20,10)"], "tight") == [
        (None, "folded Johnson J(20,10)"), (None, "folded halved 20-cube")]
    assert {f: row["tight"] for f, row in FAMILY_BRANCH.items()} == {
        "Johnson": "i", "halved": "ii", "folded Johnson": None, "folded halved": None}
