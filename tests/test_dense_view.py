"""The dense readers of a graph against Python sets built from the arcs:
``bitrows`` and ``adjacency_matrix``, each scattered fresh from the arcs by
the one helper ``Graph._adjacency``, and the local graphs and partner
distances of the local gather (``graph._local_gather``, behind the
local-partition pass ``graph._local_blocks``), read from the distance
matrix at neighbour rows taken from the arcs.  The local-pass verdicts never
call the helper and leave nothing cached but the read-only distance matrix;
a guard checks that the arcs become a dense 0/1 matrix, and bit rows become
Python ints, in one place each."""

import ast
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import drglab.graph
from bfs_oracle import bfs_distances
from drglab.arrays import IntersectionArray
from drglab.cab import cab_partition_check
from drglab.families import hamming, johnson, triangular
from drglab.graph import (Graph, _local_blocks, _local_gather, c2_regularity_report,
                          check_distance_regular, triple_intersection_number)
from test_local import varying_degree_graphs
from test_spectrum import library_sources


def neighbour_sets(g: Graph):
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def oracle_local(nbrs, vs, k):
    """(len(vs), k, k) 0/1: entry (a, b) is 1 when the a-th and b-th
    neighbours of v, ascending, are adjacent."""
    out = np.zeros((len(vs), k, k), dtype=np.int64)
    for t, v in enumerate(vs):
        around = sorted(nbrs[v])
        for a, u in enumerate(around):
            for b, w in enumerate(around):
                out[t, a, b] = w in nbrs[u]
    return out


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(varying_degree_graphs())
@example(Graph([]))
@example(Graph([[]]))
def test_the_dense_view_matches_the_neighbour_sets(g):
    nbrs = neighbour_sets(g)
    assert g.bitrows() == [sum(1 << u for u in around) for around in nbrs]
    want = [[int(u in around) for u in range(g.n)] for around in nbrs]
    first = g.adjacency_matrix()
    assert first.dtype == np.int64 and first.shape == (g.n, g.n)
    assert first.tolist() == want
    first += 1  # the caller owns its copy
    again = g.adjacency_matrix()
    assert again.tolist() == want and not np.shares_memory(first, again)
    k = max(map(len, nbrs), default=0)
    # every pair selected, unreachable ones (-1) too, so every vertex is a
    # centre; one byte an entry
    blocks = list(_local_blocks(g, -1, g.n, False, 1))
    vs = np.concatenate([ys for ys, _, _, _ in blocks] + [np.empty(0, dtype=np.intp)])
    local = np.concatenate([b[3] for b in blocks] + [np.empty((0, k, k), dtype=np.uint8)])
    assert local.dtype == np.uint8 and local.shape == (g.n, k, k)
    assert (local == oracle_local(nbrs, vs.tolist(), k)).all()


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(varying_degree_graphs(), st.data())
def test_the_gather_reads_any_pair_list(g, data):
    # centres may repeat and take several partners each; a centre of less
    # than the largest degree pads its rows.  A budget of one byte puts one
    # centre in every sub-gather
    nbrs = neighbour_sets(g)
    k = max(map(len, nbrs), default=0)
    vertex = st.integers(0, g.n - 1)
    ys = data.draw(st.lists(vertex, min_size=1, max_size=8), label="ys")
    p = data.draw(st.integers(1, 4), label="p")
    xs = data.draw(st.lists(st.lists(vertex, min_size=p, max_size=p),
                            min_size=len(ys), max_size=len(ys)), label="xs")
    with mock.patch.object(drglab.graph, "_BUDGET", data.draw(st.sampled_from([1, 1 << 21]))):
        dist, local = _local_gather(g, np.array(ys, dtype=np.intp), np.array(xs, dtype=np.intp))
    assert local.dtype == np.uint8 and local.shape == (len(ys), k, k)
    assert (local == oracle_local(nbrs, ys, k)).all()
    bfs = {x: bfs_distances(g, x) for row in xs for x in row}
    want = [[[bfs[x][v] for x in row] for v in sorted(nbrs[y])] + [[-1] * p] * (k - len(nbrs[y]))
            for y, row in zip(ys, xs)]
    assert dist.dtype == np.int16 and dist.tolist() == want


def test_cached_arrays_are_read_only():
    g = johnson(6, 3)
    with pytest.raises(ValueError):
        g.distance_matrix()[0, 1] = 3
    assert check_distance_regular(g) == IntersectionArray((9, 4, 1), (1, 4, 9))


LOCAL_VERDICTS = (cab_partition_check, c2_regularity_report, triple_intersection_number)


@pytest.mark.parametrize("verdict", LOCAL_VERDICTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("build", [lambda: johnson(7, 3), lambda: triangular(10)],
                         ids=["J(7,3)", "T(10)"])
def test_local_pass_verdicts_build_no_dense_adjacency(monkeypatch, verdict, build):
    # T(10) is not CAB-regular, so its CAB check names a deviation vertex too
    want = verdict(build())

    def forbidden(*args):
        raise AssertionError("the local pass built an (n, n) adjacency")

    monkeypatch.setattr(Graph, "_adjacency", forbidden)
    assert verdict(build()) == want


def test_a_local_pass_verdict_leaves_only_the_distance_matrix_cached():
    # 2187 vertices: a cached (n + 1)^2 uint8 adjacency would keep 4.8 MiB
    g = hamming(7, 3)
    g.distance_matrix()
    triple_intersection_number(hamming(3, 3))  # numpy's first-call caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert triple_intersection_number(g) == 1
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 16 << 10


def places(pattern):
    """(module, innermost enclosing function) of each library line that
    matches the pattern."""
    found = []
    for name, text in library_sources():
        funcs = [(node.lineno, node.end_lineno, node.name) for node in ast.walk(ast.parse(text))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for i, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line):
                inner = max((f for f in funcs if f[0] <= i <= f[1]), default=(0, 0, None))
                found.append((name, inner[2]))
    return found


def test_arcs_and_bit_rows_are_converted_in_one_place_each():
    # a 0/1 matrix indexed by the arcs, set by assignment or ufunc.at
    scatter = r"\[[^\]]*\b_?(src|dst)\b[^\]]*\]\s*=\s*(1|True)\b|\.at\([^)]*\b_?(src|dst)\b"
    assert places(scatter) == [("graph.py", "_adjacency")]
    assert places(r"int\.from_bytes") == [("graph.py", "_row_ints")]
