"""Core graph machinery: distances, partitions, quotients, local structure."""

import ast
import os
from fractions import Fraction

import pytest

from drglab.arrays import IntersectionArray
from drglab.errors import InputError
from drglab.families import (cocktail_party, complete, cycle, grid, hypercube,
                             johnson, petersen, triangular)
from drglab.graph import (EquitabilityWitness, Graph, QuotientParameters,
                          VertexPartition, c2_regularity_report,
                          check_distance_regular, clique_union_structure,
                          distance_partition, equitable_quotient,
                          graph_spectrum, local_graph, max_coclique, mu_graph)
from drglab.scalars import exact_eq


def test_graph_json_roundtrip(tmp_path):
    g = petersen()
    path = tmp_path / "g.json"
    g.dump(str(path))
    h = Graph.load(str(path))
    assert h.n == g.n and sorted(h.edges()) == sorted(g.edges())


def test_from_edges_rejects_endpoints_outside_the_graph():
    # -1 used to wrap to vertex 2 in the arc arrays but not in the neighbour
    # tuples, and 5 raised IndexError
    for edges in ([(0, -1), (1, 2)], [(0, 5)]):
        with pytest.raises(InputError, match="outside 0..2"):
            Graph.from_edges(3, edges)


def test_distances_and_diameter():
    g = cycle(6)
    assert g.diameter() == 3
    assert g.distances_from(0)[3] == 3
    assert petersen().diameter() == 2


def test_check_distance_regular_positive():
    assert check_distance_regular(petersen()) == IntersectionArray((3, 2), (1, 1))
    assert check_distance_regular(hypercube(4)) == IntersectionArray(
        (4, 3, 2, 1), (1, 2, 3, 4))


def test_check_distance_regular_witness():
    # path graph on 4 vertices is not distance-regular
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    res = check_distance_regular(g)
    assert not isinstance(res, IntersectionArray)
    assert res.reason


@pytest.mark.parametrize("path", [
    (1, 0, 2, 3),  # ecc(0) = 2 is below the diameter 3
    (4, 2, 3, 0, 6, 1, 5),  # from x = 1, vertices 2 and 4 lie beyond ecc(0) = 3
])
def test_check_distance_regular_vertex_zero_not_diametral(path):
    g = Graph.from_edges(len(path), zip(path, path[1:]))
    w = check_distance_regular(g)
    assert not isinstance(w, IntersectionArray)
    assert g.distances_from(w.x)[w.y] == w.distance > 0
    assert w.counts != w.expected
    # expected holds the counts at the first vertex of that layer from 0
    d0 = g.distances_from(0)
    ref = d0.index(w.distance)
    layer = [sum(1 for u in g.neighbors(ref) if d0[u] == w.distance + s)
             for s in (-1, 0, 1)]
    assert w.expected == tuple(layer)


def test_distance_partition_cells():
    g = petersen()
    y = g.neighbors(0)[0]
    p = distance_partition(g, 0, y)
    # a_1 = 0 in the Petersen graph, so there is no (1, 1) cell
    assert set(p.labels) == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)}
    assert sum(len(c) for c in p.cells) == g.n


def test_equitable_quotient_on_distance_cells():
    g = petersen()
    p = distance_partition(g, 0, g.neighbors(0)[0])
    q = equitable_quotient(g, p)
    assert isinstance(q, QuotientParameters)
    # every row sums to the valency
    for row in q.matrix:
        assert sum(row) == 3


def test_equitable_quotient_witness():
    # star K_{1,3} with the two-cell split {center+leaf, other leaves}
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = VertexPartition(((0, 1), (2, 3)), ("a", "b"))
    w = equitable_quotient(g, p)
    assert isinstance(w, EquitabilityWitness)
    assert w.cell_index == 0


def test_partition_validation():
    with pytest.raises(InputError):
        VertexPartition(((0, 1), (1, 2)), ("a", "b"))
    for outside in (-1, 10):
        with pytest.raises(InputError):
            equitable_quotient(petersen(), VertexPartition(((outside,), (9,)), ("a", "b")))
    with pytest.raises(InputError):
        VertexPartition(((0,), ()), ("a", "b"))


def test_local_graph_of_johnson():
    g = johnson(10, 5)
    loc = local_graph(g, 0)
    assert loc.graph.n == 25
    ia = check_distance_regular(loc.graph)
    assert isinstance(ia, IntersectionArray)
    assert (loc.graph.n, ia.k, ia.a_at(1), ia.c_at(2)) == (25, 8, 3, 2)


def test_mu_graph_requires_distance_two():
    g = petersen()
    with pytest.raises(InputError):
        mu_graph(g, 0, g.neighbors(0)[0])
    x = 0
    y = next(v for v in range(g.n)
             if v != x and not g.is_adjacent(x, v))
    assert mu_graph(g, x, y).graph.n == 1


def test_c2_regularity_report():
    # mu-graphs of J(10,5) are quadrangles: 4 vertices of valency 2
    rep = c2_regularity_report(johnson(10, 5))
    assert rep.c2 == 4 and rep.regular and rep.kappa == 2
    assert not rep.terwilliger
    rep = c2_regularity_report(hypercube(3))
    assert rep.c2 == 2 and rep.kappa == 0


def test_max_coclique():
    assert max_coclique(complete(5)) == 1
    assert max_coclique(cycle(6)) == 3
    assert max_coclique(petersen()) == 4


def test_clique_union_structure():
    # local graph of H(2,3) (the rook's graph) is two disjoint triangles
    g = grid(3, 3)
    st = clique_union_structure(local_graph(g, 0).graph)
    assert st == (2, 1)  # cliques of size s+1 = 3, t+1 = 2 of them
    assert clique_union_structure(petersen()) is None


def test_graph_spectrum_exact():
    rep = graph_spectrum(petersen())
    assert rep.exact
    vals = [(v, m) for v, m in rep.values]
    assert [(int(v), m) for v, m in vals] == [(3, 1), (1, 5), (-2, 4)]


def test_graph_spectrum_matches_array_eigenvalues():
    g = triangular(10)
    rep = graph_spectrum(g)
    assert rep.exact
    assert sum(m for _, m in rep.values) == g.n
    assert exact_eq(rep.values[0][0], Fraction(16))


def test_cocktail_party_array():
    assert check_distance_regular(cocktail_party(4)) == IntersectionArray(
        (6, 1), (1, 6))


def test_methods_wrapped_by_the_benchmark_tracer_exist():
    # perfbench/harness.py wraps vars(Graph)[name] for each name in
    # GRAPH_METHODS; read the tuple without importing the harness
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "harness.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = [ast.literal_eval(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "GRAPH_METHODS" for t in node.targets)]
    assert len(names) == 1 and names[0]
    for name in names[0]:
        assert name in vars(Graph), name
