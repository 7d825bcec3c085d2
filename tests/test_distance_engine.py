"""Differential tests of the distance engine ``Graph._distance_rows`` and
its callers ``distances_from`` and ``distance_matrix`` against the queue
breadth-first search in ``bfs_oracle``.

Graphs are relabelled and edge-switched corpus graphs, disconnected unions,
graphs with isolated vertices and the one-vertex graph, long paths and cycles
(whose small frontiers take the push step) and sparse random graphs; source
lists repeat vertices in any order and cross the 64-source block boundary.  Examples are
derandomized, so runs are repeatable.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfs_oracle import bfs_distances
from drglab.errors import InputError, ResourceError
from drglab.families import (cycle, folded_halved_cube, folded_johnson, halved_cube,
                             hamming, icosahedron, johnson, petersen, triangular)
from drglab.graph import Graph
from test_equitability import relabel, switch

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

BASES = [petersen(), icosahedron(), johnson(6, 3), hamming(3, 3), folded_johnson(8, 4),
         triangular(6), cycle(7), halved_cube(6), Graph([[]]), Graph([[1], [0]])]

#: lengths of source lists: one block less one, one block, one block and one,
#: two blocks and a two-source tail
LENGTHS = (63, 64, 65, 130)


def oracle_rows(g: Graph, sources) -> np.ndarray:
    return np.array([bfs_distances(g, s) for s in sources], dtype=np.int16).reshape(
        len(sources), g.n)


def union(*parts: Graph) -> Graph:
    """Disjoint union, the parts numbered in the given order."""
    adj, offset = [], 0
    for h in parts:
        adj += [[u + offset for u in h.neighbors(v)] for v in range(h.n)]
        offset += h.n
    return Graph(adj)


@st.composite
def graphs(draw) -> Graph:
    rng = random.Random(draw(st.integers(0, 2 ** 32), label="seed"))
    g = relabel(draw(st.sampled_from(BASES), label="base"), rng)
    if g.edge_count >= 2 and draw(st.booleans(), label="switched"):
        g = switch(g, rng)
    isolated = draw(st.integers(0, 3), label="isolated vertices")
    if draw(st.booleans(), label="disconnected"):
        g = union(g, relabel(draw(st.sampled_from(BASES), label="second part"), rng))
    if isolated:
        g = relabel(union(g, Graph([[] for _ in range(isolated)])), rng)
    return g


@SETTINGS
@given(graphs(), st.data())
def test_rows_match_the_oracle(g, data):
    length = data.draw(st.sampled_from(LENGTHS), label="length")
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=length,
                                 max_size=length), label="sources")
    rows = g._distance_rows(sources)
    assert rows.dtype == np.int16 and rows.shape == (length, g.n)
    assert (rows == oracle_rows(g, sources)).all()
    x = sources[0]
    assert g.distances_from(x) == bfs_distances(g, x)
    assert (g.distance_matrix() == oracle_rows(g, range(g.n))).all()
    assert g.is_connected() == (min(bfs_distances(g, 0)) >= 0)


@pytest.mark.parametrize("build", [
    lambda: johnson(10, 5), lambda: hamming(5, 3), lambda: folded_johnson(12, 6),
    lambda: halved_cube(10), lambda: folded_halved_cube(8), lambda: triangular(10)],
    ids=["J(10,5)", "H(5,3)", "folded J(12,6)", "halved 10-cube",
         "folded halved 8-cube", "T(10)"])
def test_distance_matrix_of_corpus_graphs_matches_the_oracle(build):
    g = relabel(build(), random.Random(7))
    dm = g.distance_matrix()
    assert dm.dtype == np.int16
    assert (dm == oracle_rows(g, range(g.n))).all()


def path(n: int) -> Graph:
    return Graph.from_edges(n, zip(range(n - 1), range(1, n)))


@pytest.mark.parametrize("build", [
    lambda: path(2), lambda: path(700), lambda: cycle(3), lambda: cycle(2001),
    lambda: union(path(300), cycle(400), path(1)), lambda: path(4100)],
    ids=["path 2", "path 700", "cycle 3", "cycle 2001", "path + cycle + vertex", "path 4100"])
def test_long_thin_graphs_match_the_oracle(build):
    # frontiers of one or two vertices per source: every level pushes.  The
    # sources include a path's two ends and its middle: an end of path 4100
    # has eccentricity 4099, 13 bit-sliced words
    g = relabel(build(), random.Random(11))
    ends = np.flatnonzero(g.degrees() == 1)[:2].tolist()
    if ends:
        row = oracle_rows(g, ends[:1])[0]
        ends.append(int(np.argmax(row == row[ends[1]] // 2)))  # the middle
    for sources in ([0, g.n // 2, g.n - 1], range(0, g.n, 11), ends):
        assert (g._distance_rows(sources) == oracle_rows(g, sources)).all()


@pytest.mark.parametrize("length", [9, 17, 33])
def test_two_four_and_eight_byte_words_leave_unreached_bits_at_minus_one(length):
    # 9, 17 and 33 sources take 2-, 4- and 8-byte words, of which bits 9-15,
    # 17-31 and 33-63 belong to no source; in a disconnected union every
    # source has unreached vertices
    rng = random.Random(length)
    g = relabel(union(petersen(), cycle(7), path(5), Graph([[]]), hamming(3, 3)), rng)
    sources = rng.choices(range(g.n), k=length)
    rows = g._distance_rows(sources)
    assert (rows == -1).any(axis=1).all()
    assert (rows == oracle_rows(g, sources)).all()


def test_distances_up_to_32766_fit_and_one_more_is_refused():
    # the rows are int16 and the levels stop at 32766: the ends of
    # path(32767) lie at 32766, those of path(32768) at 32767
    assert path(32767)._distance_rows([0])[0].tolist() == list(range(32767))
    with pytest.raises(ResourceError, match="distances above 32766"):
        path(32768)._distance_rows([0])


@st.composite
def sparse_graphs(draw) -> Graph:
    """Random graphs with n vertices and about n * degree / 2 edges; below
    mean degree 2 most are disconnected."""
    rng = random.Random(draw(st.integers(0, 2 ** 32), label="seed"))
    n = draw(st.integers(2, 600), label="n")
    degree = draw(st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0]), label="mean degree")
    edges = [rng.sample(range(n), 2) for _ in range(int(n * degree / 2))]
    return Graph.from_edges(n, edges)


@SETTINGS
@given(sparse_graphs(), st.data())
def test_sparse_random_graphs_match_the_oracle(g, data):
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=70),
                        label="sources")
    assert (g._distance_rows(sources) == oracle_rows(g, sources)).all()
    assert g.is_connected() == (min(bfs_distances(g, 0)) >= 0)


def test_empty_source_list_and_empty_graph():
    assert petersen()._distance_rows([]).shape == (0, 10)
    assert Graph([]).distance_matrix().shape == (0, 0)


@pytest.mark.parametrize("x", [-1, 10])
def test_sources_out_of_range_are_input_errors(x):
    with pytest.raises(InputError, match=f"vertex {x} out of range"):
        petersen().distances_from(x)
    with pytest.raises(InputError, match=f"vertex {x} out of range"):
        petersen()._distance_rows([0, x])
