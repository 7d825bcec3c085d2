"""Differential tests of ``check_distance_regular``, the pairs (x, x)
through the pair kernel, against the per-vertex layer scan it replaced
(``dr_oracle``).

Arrays and witnesses are compared by ``==``, on family graphs and their
relabelled and edge-switched copies, rotated and relabelled paths, trees,
cycles, random connected graphs and the benchmark's eccentric switch of the
icosahedron; each case runs again with one pair to a kernel call, through
``graph._distance_regularity``, since the graph keeps its first verdict.
Examples are derandomized, so runs are repeatable.
"""

import importlib
import os
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dr_oracle
import drglab.graph as graph
from drglab.arrays import IntersectionArray
from drglab.errors import InputError
from drglab.families import (cocktail_party, complete, cycle, folded_halved_cube,
                             folded_johnson, grid, halved_cube, hamming, hypercube,
                             icosahedron, johnson, petersen, triangular)
from drglab.graph import (DistanceRegularityWitness, Graph, check_distance_regular,
                          graph_spectrum)
from drglab.homogeneous import local_spectral_checks
from drglab.srg import srg_from_graph
from test_equitability import relabel, switch
from test_pair_budget import traced_peak

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: family graphs up to 512 vertices, distance-regular or not (the grid and
#: the triangular graph are not)
FAMILIES = [petersen(), icosahedron(), johnson(6, 3), hamming(3, 3), hypercube(4),
            folded_johnson(8, 4), triangular(6), grid(3, 4), cocktail_party(5),
            complete(6), johnson(10, 5), hamming(5, 3), folded_johnson(12, 6),
            halved_cube(9), halved_cube(10), folded_halved_cube(10)]


def outcome(check, g: Graph):
    """The array or witness, or the error's type and message."""
    try:
        return check(g)
    except InputError as exc:
        return type(exc).__name__, str(exc)


def assert_matches_oracle(g: Graph):
    """Equal to the oracle, and again with one pair to a kernel call: a
    budget of one byte, less than any pair takes.  The graph keeps its
    verdict, so the second check computes it again without the kept one."""
    want = outcome(dr_oracle.check_distance_regular, g)
    assert outcome(check_distance_regular, g) == want
    with mock.patch.object(graph, "_BUDGET", 1):
        assert outcome(graph._distance_regularity, g) == want


def random_connected(n: int, extra: float, rng: random.Random) -> Graph:
    """A random tree on n vertices with each other pair added with
    probability ``extra``."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < extra}
    return relabel(Graph.from_edges(n, edges), rng)


def load_graph_work():
    """``perfbench/graph_work.py``, imported read-only from its directory
    (no bytecode is written there)."""
    here = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    sys.path.insert(0, os.path.abspath(here))
    with mock.patch.object(sys, "dont_write_bytecode", True):
        try:
            return importlib.import_module("graph_work")
        finally:
            sys.path.pop(0)


def adjacency(g: Graph):
    return [list(g.neighbors(v)) for v in range(g.n)]


# -- differential tests ------------------------------------------------------


@SETTINGS
@given(st.sampled_from(range(len(FAMILIES))), st.integers(0, 2 ** 32), st.booleans())
def test_families_match_the_layer_scan(index, seed, switched):
    rng = random.Random(seed)
    g = relabel(FAMILIES[index], rng)
    if switched:
        g = switch(g, rng)
    assert_matches_oracle(g)


@pytest.mark.parametrize("index", range(len(FAMILIES)))
def test_built_families_match_the_layer_scan(index):
    assert_matches_oracle(FAMILIES[index])


@pytest.mark.parametrize("n", range(2, 9))
def test_rotated_paths_match_the_layer_scan(n):
    # the path r, r + 1, ..., r - 1 (mod n): vertex 0 is diametral only for r = 0
    for r in range(n):
        order = [(r + t) % n for t in range(n)]
        g = Graph.from_edges(n, zip(order, order[1:]))
        w = check_distance_regular(g)
        if n > 2:
            assert not isinstance(w, IntersectionArray)
        assert_matches_oracle(g)


@SETTINGS
@given(st.integers(2, 12), st.booleans(), st.integers(0, 2 ** 32))
def test_relabelled_paths_and_trees_match_the_layer_scan(n, tree, seed):
    # from the refuting x, some vertices lie beyond ecc(0) and are skipped
    rng = random.Random(seed)
    g = random_connected(n, 0.0, rng) if tree else relabel(
        Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)]), rng)
    assert_matches_oracle(g)


def test_path_numbered_from_its_middle_matches_the_layer_scan():
    # vertex 0 in the middle of the 9-vertex path: ecc(0) = 4 and D = 8, so
    # the first pair (0, 0) bounds the kernel's labels by 2 ecc(0) + 1 = D + 1,
    # which the end 1, in the second block, reaches
    order = [1, 3, 5, 7, 0, 2, 4, 6, 8]
    g = Graph.from_edges(9, zip(order, order[1:]))
    assert not isinstance(check_distance_regular(g), IntersectionArray)
    assert_matches_oracle(g)


@pytest.mark.parametrize("n", range(3, 16))
def test_cycles_match_the_layer_scan(n):
    assert_matches_oracle(relabel(cycle(n), random.Random(n)))


@SETTINGS
@given(st.integers(1, 14), st.floats(0.0, 0.6), st.integers(0, 2 ** 32))
def test_random_connected_graphs_match_the_layer_scan(n, extra, seed):
    assert_matches_oracle(random_connected(n, extra, random.Random(seed)))


def test_disconnected_graph_matches_the_layer_scan():
    assert_matches_oracle(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_eccentric_switch_of_icosahedron_matches_the_layer_scan():
    adj = load_graph_work().eccentric_switch(adjacency(icosahedron()))
    g = Graph(adj)
    w = check_distance_regular(g)
    assert not isinstance(w, IntersectionArray)
    assert_matches_oracle(g)


# -- one certification per graph ---------------------------------------------


@pytest.fixture
def scans(monkeypatch):
    """For every scan of the pair kernel from ``graph``, its graph and
    whether its pairs are the pairs (x, x) of distance-regularity: one
    chunk with xs = ys."""
    scans, check = [], graph._check_pairs

    def recorded(g, total, chunks):
        (xs, ys, *_), = chunks
        scans.append((g, np.array_equal(xs, ys)))
        return check(g, total, chunks)

    monkeypatch.setattr(graph, "_check_pairs", recorded)
    return scans


def test_each_graph_is_certified_once(scans):
    # every reader of the verdict (the spectrum, the local spectral checks
    # and the SRG parameters, each refusing a graph of the wrong diameter
    # after the check) reads the one the graph keeps; the local checks of
    # J(7,3), whose local graph K_3 x K_4 is not strongly regular, build no
    # local graph, so no other graph is scanned
    rng = random.Random(41)
    for g, refused in ((relabel(johnson(7, 3), rng), [srg_from_graph]),
                       (relabel(petersen(), rng), [local_spectral_checks])):
        scans.clear()
        ia = check_distance_regular(g)
        assert isinstance(ia, IntersectionArray)
        for verdict in (local_spectral_checks, graph_spectrum, srg_from_graph):
            got = outcome(verdict, g)
            refusal = isinstance(got, tuple) and got[0] == "InputError"
            assert refusal == (verdict in refused), (verdict, got)
        assert check_distance_regular(g) is ia
        assert [(h is g, x_is_y) for h, x_is_y in scans] == [(True, True)]
        assert len({id(h) for h, _ in scans}) == len(scans)


def test_a_witness_is_kept_and_an_error_is_not(scans):
    rng = random.Random(42)
    g = switch(relabel(johnson(7, 3), rng), rng)
    w = check_distance_regular(g)
    assert isinstance(w, DistanceRegularityWitness) and scans == [(g, True)]
    assert check_distance_regular(g) is w and scans == [(g, True)]
    # a refusal is raised again on every call, and no pair is scanned
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for _ in range(2):
        with pytest.raises(InputError, match="connected graphs"):
            check_distance_regular(g)
    assert len(scans) == 1


# -- no per-vertex scan --------------------------------------------------------


def test_no_per_vertex_layer_scan(monkeypatch):
    # the kernel's keys decide; rows are counted from the arcs only for the
    # reference quotient (the first vertex of each layer around 0) and, on
    # a refutation, for the witness's y
    calls = []
    count_rows = graph._count_rows

    def counted(g, cell, vs, ncells):
        calls.append(([int(v) for v in vs], ncells))
        return count_rows(g, cell, vs, ncells)

    monkeypatch.setattr(graph, "_count_rows", counted)
    g = relabel(johnson(10, 5), random.Random(10))
    h = switch(g, random.Random(5))
    for case, certified in ((g, True), (h, False)):
        calls.clear()
        got = check_distance_regular(case)
        row = case.distance_matrix()[0]
        first = [int(np.argmax(row == j)) for j in range(int(row.max()) + 1)]
        if certified:
            assert got == IntersectionArray((25, 16, 9, 4, 1), (1, 4, 9, 16, 25))
            assert calls == [(first, len(first))]
        else:
            assert isinstance(got, DistanceRegularityWitness)
            assert calls == [(first, len(first)), ([got.y], 3)]


def test_witness_counts_three_residues_not_every_layer():
    # C_3000 with the chord 0-1500, its distance matrix built: the witness
    # counts each vertex's neighbours in the three residues of d(x, .) mod 3
    # (one layer down, its own and one up), 13 MiB traced, where a count
    # of every layer, an n x (D + 2) matrix, took 78 MiB
    g = Graph.from_edges(3000, [(v, (v + 1) % 3000) for v in range(3000)] + [(0, 1500)])
    g.distance_matrix()
    w, peak = traced_peak(lambda: check_distance_regular(g))
    assert w == DistanceRegularityWitness(0, 1500, 1, (1, 0, 2), (1, 0, 1),
                                          "intersection numbers depend on the pair")
    assert peak <= (78 << 20) // 3, peak


# -- the benchmark's probe -------------------------------------------------------


def test_benchmark_rechecks_the_dr_witnesses():
    # perfbench/graph_work.py rechecks every DR witness by its own BFS; a
    # witness it rejects fails the graph-exhaustive workload
    work = load_graph_work()
    rng = random.Random(7)
    cases = [work.eccentric_switch(adjacency(icosahedron())),
             work.switch(work.relabel(adjacency(johnson(10, 5)), rng), rng)]
    for adj in cases:
        w = check_distance_regular(Graph(adj))
        assert not isinstance(w, IntersectionArray)
        assert work.recheck_dr_witness(adj, w) is None
