"""Acceptance gate: ten oracle-pinned criteria, one summary line each.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines;
criterion 10 builds a 92378-vertex graph and only runs with ``--run-slow``.
"""

import random
import sys
from fractions import Fraction
from functools import wraps
from itertools import chain

import numpy as np
import pytest

from bfs_oracle import bfs_distances
from drglab.arrays import IntersectionArray
from drglab.bounds import F_bound, G_bound, claw_f, mu_bound, phi
from drglab.cab import (LocalSrgData, cab_formula_params, cab_partition_check,
                        predict_cab2, quotient_matrix, quotient_spectrum)
from drglab.classical import (ClassicalParams, beta_bound_check,
                              classical_array, classical_eigenvalues,
                              classify_tight, fundamental_bound,
                              recognize_classical)
from drglab.eigen import eigenvalues
from drglab.families import folded_johnson
from drglab.graph import check_distance_regular
from drglab.homogeneous import check_i_homogeneous, classify_main
from drglab.srg import SrgParams, recognize_srg_family, sims_classify

J105 = IntersectionArray((25, 16, 9, 4, 1), (1, 4, 9, 16, 25))
HC10 = IntersectionArray((45, 28, 15, 6, 1), (1, 6, 15, 28, 45))
HC11 = IntersectionArray((55, 36, 21, 10, 3), (1, 6, 15, 28, 45))
H53 = IntersectionArray((10, 8, 6, 4, 2), (1, 2, 3, 4, 5))


def criterion(num, title):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} {title}: FAIL", file=sys.stderr)
                raise
            print(f"criterion {num:02d} {title}: PASS", file=sys.stderr)
        return wrapper
    return deco


@criterion(1, "construction and intersection arrays")
def test_criterion_01(j105, hc10, hc11, h53, fj126):
    for g, n, ia in ((j105, 252, J105), (hc10, 512, HC10),
                     (hc11, 1024, HC11), (h53, 243, H53),
                     (fj126, 462, IntersectionArray((36, 25, 16), (1, 4, 18)))):
        assert g.n == n
        assert check_distance_regular(g) == ia


@criterion(2, "1-homogeneity and local-partition equivalence")
def test_criterion_02(j105, hc10, h53, icosa):
    for g in (j105, hc10, h53):
        assert check_i_homogeneous(g, 1).holds
    assert check_i_homogeneous(icosa, 1).holds and cab_partition_check(icosa).holds


@criterion(3, "local partition parameters match the recursion")
def test_criterion_03(j105, hc10):
    expected = [(0, 1, 4, 2), (2, 2, 3, 4), (4, 3, 2, 6), (6, 4, 1, 8)]
    rep = cab_partition_check(j105)
    assert rep.holds
    assert [p.as_tuple() for p in rep.levels[:4]] == [
        tuple(Fraction(t) for t in lv) for lv in expected]
    # at the top level i = D the B cell is empty
    assert rep.levels[4].gamma == 8 and rep.levels[4].alpha is None
    loc = LocalSrgData.from_eigenvalues(8, 3, -2)
    levels, b_pred = cab_formula_params(loc, [1, 4, 9, 16, 25], levels=4)
    assert [p.as_tuple() for p in levels] == [
        tuple(Fraction(t) for t in lv) for lv in expected]
    assert b_pred == [16, 9, 4, 1]
    rep = cab_partition_check(hc10, i_max=2)
    assert rep.holds and rep.levels[1].as_tuple() == (4, 3, 5, 8)
    loc = LocalSrgData.from_eigenvalues(16, 6, -2)
    levels, b_pred = cab_formula_params(loc, [1, 6], levels=2)
    assert levels[1].as_tuple() == (4, 3, 5, 8) and b_pred[1] == 15
    # the closed forms at the Latin-square / Steiner shapes agree at level 2
    pred = predict_cab2("latin_square", 2, 5)
    assert (pred.alpha2, pred.beta2, pred.delta2, pred.b2) == (2, 3, 4, 9)
    pred = predict_cab2("steiner", 2, 8)
    assert (pred.alpha2, pred.beta2, pred.delta2, pred.b2) == (3, 5, 8, 15)


@criterion(4, "quotient matrices carry the local spectrum")
def test_criterion_04():
    loc = LocalSrgData.from_eigenvalues(8, 3, -2)
    levels, _ = cab_formula_params(loc, [1, 4, 9, 16, 25], levels=4)
    for p in levels:
        spec = quotient_spectrum(quotient_matrix(8, p))
        assert [int(v) for v in spec] == [8, 3, -2]
        # symbolic trace identity: a1 - r - s = alpha + beta + delta - gamma
        assert p.alpha + p.beta + p.delta - p.gamma == 8 - 3 - (-2)


@criterion(5, "tightness of the fundamental bound")
def test_criterion_05(j105, hc10):
    from drglab.graph import graph_spectrum, local_graph
    rep = fundamental_bound(J105)
    assert rep.lhs == rep.rhs == Fraction(-3200, 81) and rep.tight
    assert (rep.r, rep.s) == (3, -2)
    rep = fundamental_bound(HC10)
    assert rep.lhs == rep.rhs == Fraction(-20160, 289) and rep.tight
    assert (rep.r, rep.s) == (6, -2)
    rep = fundamental_bound(H53)
    assert not rep.tight and rep.lhs > rep.rhs
    assert classify_tight(J105).branch == "i"
    assert classify_tight(HC10).branch == "ii"
    # the (r, s) read off the bound match the measured local spectra
    for g, rs in ((j105, (3, -2)), (hc10, (6, -2))):
        spec = graph_spectrum(local_graph(g, 0).graph)
        nontrivial = [int(v) for v, _ in spec.values][1:]
        assert tuple(nontrivial) == rs


@criterion(6, "bound polynomials")
def test_criterion_06():
    assert F_bound(1) == 861
    assert G_bound(1) == 169
    for b in range(1, 11):
        assert G_bound(b) == (4 * b**5 + 4 * b**4 + 4 * b**3 + 1) ** 2
    assert phi(2) == 66
    assert all(phi(m) < m ** 10 for m in range(2, 11))
    assert claw_f(2, 2) == 4
    assert mu_bound(2) == 8


@criterion(7, "classical parameter recognition")
def test_criterion_07():
    for params in ((5, 1, 1, 5), (5, 1, 2, 9), (5, 1, 0, 2)):
        cp = ClassicalParams(*params)
        ia = classical_array(cp)
        assert any(f.as_tuple() == cp.as_tuple()
                   for f in recognize_classical(ia))
        assert list(classical_eigenvalues(cp)) == list(eigenvalues(ia))
        out = beta_bound_check(cp)
        assert out["ok"]
        assert out["equality"] == (ia.a_at(ia.D) == 0)


@criterion(8, "main classifier branches")
def test_criterion_08():
    assert classify_main(J105).branch == "ii"
    out = classify_main(H53)
    assert out.branch == "i" and "Hamming" in (out.name or "")
    out = classify_main(HC11)
    assert out.branch == "iii" and "11" in (out.name or "")
    for ia in (J105, HC10, HC11, H53):
        assert classify_main(ia).branch != "contradiction"


@criterion(9, "strongly regular recognition and classification")
def test_criterion_09():
    assert "LatinSquare(m=2,n=5)" in recognize_srg_family(SrgParams(25, 8, 3, 2))
    assert "SteinerGraph(m=2,n=8)" in recognize_srg_family(SrgParams(45, 16, 8, 4))
    assert "Conference(5)" in recognize_srg_family(SrgParams(5, 2, 0, 1))
    out = sims_classify(SrgParams(10, 3, 0, 1))
    assert out["branch"] == "Sporadic"
    assert out["v_within_bound"] and out["vertex_bound"] == 66


@pytest.mark.slow
@criterion(10, "large folded graph, sampled verification")
def test_criterion_10():
    g = folded_johnson(20, 10)
    assert g.n == 92378
    rep = check_i_homogeneous(g, 1, "sampled", seed=2026, count=100)
    assert rep.holds and rep.pairs_checked == 100
    # breadth-first parameter counts from sampled roots must reproduce the
    # fold of {100,...,1; 1,...,100}: keep b_i, c_i below the fold level and
    # close with c_5 = c_5 + b_5 = 50
    expected = {0: (0, 100), 1: (1, 81), 2: (4, 64), 3: (9, 49),
                4: (16, 36), 5: (50, 0)}
    # the arcs (v, u) of g, and for each root the queue-BFS oracle's rows,
    # so that these counts do not rest on the distance engine
    adj = [g.neighbors(v) for v in range(g.n)]
    src = np.repeat(np.arange(g.n, dtype=np.int32), [len(nbs) for nbs in adj])
    dst = np.fromiter(chain.from_iterable(adj), dtype=np.int32, count=len(src))
    rng = random.Random(1)
    for x in rng.sample(range(g.n), 3):
        d = np.array(bfs_distances(g, x), dtype=np.int32)
        step = d[dst] - d[src]
        down = np.bincount(src[step == -1], minlength=g.n)
        up = np.bincount(src[step == 1], minlength=g.n)
        seen = {}
        for level in np.unique(d).tolist():
            # every vertex of a layer has its layer's (down, up)
            counts = set(zip(down[d == level].tolist(), up[d == level].tolist()))
            assert len(counts) == 1
            seen[level] = counts.pop()
        assert seen == expected
