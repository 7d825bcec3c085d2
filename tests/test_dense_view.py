"""The one dense adjacency view of a graph (``Graph._padded``) and what is
read from it: ``bitrows``, ``adjacency_matrix`` and, with the distance
matrix, the local graphs of the local-partition pass
(``graph._local_blocks``), against Python sets built from the arcs; the
read-only cached arrays; and a guard that the arcs become a dense 0/1 matrix,
and bit rows become Python ints, in one place each."""

import ast
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from drglab.arrays import IntersectionArray
from drglab.families import johnson, petersen
from drglab.graph import Graph, _local_blocks, check_distance_regular
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
    # every pair selected, so every vertex is a centre; one byte an entry
    blocks = list(_local_blocks(g, np.ones((g.n, g.n), dtype=np.int8), 1))
    vs = np.concatenate([ys for ys, _, _, _ in blocks] + [np.empty(0, dtype=np.intp)])
    local = np.concatenate([b[3] for b in blocks] + [np.empty((0, k, k), dtype=np.uint8)])
    assert local.dtype == np.uint8 and local.shape == (g.n, k, k)
    assert (local == oracle_local(nbrs, vs.tolist(), k)).all()


def test_cached_arrays_are_read_only():
    g = johnson(6, 3)
    with pytest.raises(ValueError):
        g.distance_matrix()[0, 1] = 3
    assert check_distance_regular(g) == IntersectionArray((9, 4, 1), (1, 4, 9))
    adj, nb = petersen()._padded()
    for view in (adj, nb):
        with pytest.raises(ValueError):
            view[0, 0] = 1


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
    assert places(scatter) == [("graph.py", "_padded")]
    assert places(r"int\.from_bytes") == [("graph.py", "_row_ints")]
