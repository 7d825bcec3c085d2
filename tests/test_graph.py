"""Core graph machinery: distances, partitions, quotients, local structure."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import family_oracle as oracle
import local_oracle

import drglab
from drglab import errors, families, graph
from drglab.arrays import IntersectionArray
from drglab.errors import InputError, ResourceError
from drglab.families import (FamilySpec, build_family, cocktail_party,
                             complete, cycle, grid, hypercube, icosahedron,
                             johnson, petersen, triangular)
from drglab.graph import (EquitabilityWitness, Graph, QuotientParameters,
                          VertexPartition, c2_regularity_report,
                          check_distance_regular, distance_partition,
                          equitable_quotient, graph_spectrum,
                          induced_subgraph, local_graph, max_coclique,
                          mu_graph, triple_intersection_number)
from drglab.homogeneous import check_i_homogeneous, local_spectral_checks
from drglab.scalars import exact_eq
from drglab.srg import srg_from_graph
from test_equitability import oracle_quotient
from test_families import assert_same_graph


def test_graph_json_roundtrip(tmp_path):
    g = petersen()
    path = tmp_path / "g.json"
    g.dump(str(path))
    h = Graph.load(str(path))
    assert h.n == g.n and sorted(h.edges()) == sorted(g.edges())


def test_load_predicts_its_bytes(tmp_path, monkeypatch):
    # reading a graph file is predicted at 17 times its bytes, before the
    # file is opened
    path = tmp_path / "g.json"
    petersen().dump(str(path))
    need = 17 * path.stat().st_size
    monkeypatch.setattr(errors, "_room", lambda: need - 1)
    with pytest.raises(ResourceError, match="^the JSON lists of graph file .* need "):
        Graph.load(str(path))
    monkeypatch.setattr(errors, "_room", lambda: need)
    assert sorted(Graph.load(str(path)).edges()) == sorted(petersen().edges())


def _one_index(g):
    """g, once its arcs are checked to be one intp index: targets and
    offsets, with no sources array."""
    assert g._dst.dtype == g._starts.dtype == np.intp
    assert len(g._starts) == g.n + 1 and g._starts[-1] == len(g._dst)
    assert not hasattr(g, "_src")
    return g


#: a small graph from every family builder
SMALL_FAMILIES = {"johnson": (5, 2), "hamming": (3, 3), "hypercube": (3,),
                  "halved_cube": (5,), "folded_johnson": (6, 3),
                  "folded_halved_cube": (6,), "grid": (3, 4),
                  "complete_multipartite": (3, 2), "cocktail_party": (3,),
                  "triangular": (5,), "latin_square": (3, 3), "cycle": (5,),
                  "complete": (4,), "icosahedron": (), "petersen": ()}


def test_every_constructor_keeps_one_intp_arc_index(tmp_path):
    assert set(SMALL_FAMILIES) | {"steiner_block_graph"} == set(families._BUILDERS)
    built = [build_family(FamilySpec(name, params)) for name, params in SMALL_FAMILIES.items()]
    fano = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]]
    built.append(build_family(FamilySpec("steiner_block_graph", data=tuple(map(tuple, fano)))))
    g = johnson(7, 3)
    g.dump(str(tmp_path / "g.json"))
    built += [Graph([[1], [0, 2], [1]]), Graph([]), Graph.from_edges(4, [(0, 1), (2, 1)]),
              Graph.from_edges(0, []), induced_subgraph(g, [0, 1, 5, 20]).graph,
              induced_subgraph(g, []).graph, local_graph(g, 3).graph,
              mu_graph(g, *map(int, np.argwhere(g.distance_matrix() == 2)[0])).graph,
              Graph.load(str(tmp_path / "g.json"))]
    for h in built:
        _one_index(h)


@pytest.mark.parametrize("switched", [False, True])
def test_edges_and_cell_counts_match_neighbour_lists(switched):
    # edges() finds each arc's source from the offsets, and
    # equitable_quotient counts its rows over each vertex's arcs: compare
    # them with the oracle's neighbour lists, relabelled (and switched:
    # edges ab, cd become ad, cb) in Python, and with the bitset oracle on
    # random cells, some vertices in none
    rng = random.Random(8)
    base = oracle.johnson(7, 3)[0]
    perm = list(range(base.n))
    rng.shuffle(perm)
    lists = [set() for _ in range(base.n)]
    for v in range(base.n):
        lists[perm[v]] = {perm[u] for u in base.neighbors(v)}
    if switched:
        while True:
            a, c = rng.sample(range(base.n), 2)
            b, d = rng.choice(sorted(lists[a])), rng.choice(sorted(lists[c]))
            if len({a, b, c, d}) == 4 and d not in lists[a] and b not in lists[c]:
                break
        for u, v, w in ((a, b, d), (c, d, b), (b, a, c), (d, c, a)):
            lists[u] ^= {v, w}  # u drops v and gains w
    edges = sorted((u, v) for u in range(base.n) for v in lists[u] if u < v)
    g = _one_index(Graph.from_edges(base.n, edges))
    assert sorted(g.edges()) == edges
    cell = np.array([rng.randrange(-1, 4) for _ in range(g.n)])
    p = VertexPartition(tuple(tuple(np.flatnonzero(cell == c).tolist()) for c in range(4)),
                        tuple(range(4)))
    assert equitable_quotient(g, p) == oracle_quotient(g, p)


def test_refused_dump_leaves_the_file_as_it_was(tmp_path, monkeypatch):
    # the JSON lists are predicted and refused before the file is opened
    path = tmp_path / "g.json"
    petersen().dump(str(path))
    before = path.read_bytes()
    g = johnson(6, 3)
    monkeypatch.setattr(errors, "_room", lambda: 1000)
    with pytest.raises(ResourceError, match="^JSON lists of 180 arcs need "):
        g.dump(str(path))
    assert path.read_bytes() == before


def test_from_edges_rejects_endpoints_outside_the_graph():
    # -1 used to wrap to vertex 2 in the arc arrays but not in the neighbour
    # tuples, and 5 raised IndexError
    for edges in ([(0, -1), (1, 2)], [(0, 5)]):
        with pytest.raises(InputError, match="outside 0..2"):
            Graph.from_edges(3, edges)


def _built(build, *args):
    """The graph built, or the message of the InputError raised."""
    try:
        return build(*args)
    except InputError as exc:
        return str(exc)


@st.composite
def edge_lists(draw):
    """n, and edges on 0..n-1, some of them repeated or reversed, with up to
    two more whose endpoints lie in -2..n+1 (a loop or an endpoint outside,
    or a good edge)."""
    n = draw(st.integers(1, 9))
    inside = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(inside, inside).filter(lambda e: e[0] != e[1]),
                          max_size=20)) if n > 1 else []
    extra = draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()),
                          max_size=10)) if edges else []
    edges += [(v, u) if flip else (u, v) for (u, v), flip in extra]
    end = st.integers(-2, n + 1)
    edges += draw(st.lists(st.tuples(end, end), max_size=2))
    return n, draw(st.permutations(edges))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edge_lists())
@example((3, [(0, 1), (1, 0), (0, 1)]))  # one edge, three times
@example((5, [(3, 1)]))  # three isolated vertices
@example((4, [(0, 1), (2, 2), (0, 9)]))  # the loop comes first
@example((4, [(0, 1), (-1, 2), (3, 3)]))  # the endpoint outside comes first
@example((0, []))
def test_from_edges_matches_oracle(case):
    n, edges = case
    got, want = _built(Graph.from_edges, n, edges), _built(oracle.from_edges, n, edges)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_graph(got, want)


@pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0.5, 1)], [0, 1]])
def test_from_edges_rejects_what_is_not_integer_pairs(edges):
    with pytest.raises(InputError, match="pairs of integers"):
        Graph.from_edges(4, edges)


@pytest.mark.parametrize("vertices", [[], [5], [0, 1, 2, 3, 4, 5], [11, 0, 6, 5, 7],
                                      range(12), [3, 9, 8, 2]])
def test_induced_subgraph_matches_oracle(vertices):
    g = icosahedron()
    got, want = induced_subgraph(g, vertices), oracle.induced_subgraph(g, vertices)
    assert got.vertex_map == want.vertex_map
    assert_same_graph(got.graph, want.graph)


def test_local_and_mu_graphs_match_oracle():
    g = johnson(7, 3)
    for x in (0, 17, 34):
        assert_same_graph(local_graph(g, x).graph,
                         oracle.induced_subgraph(g, g.neighbors(x)).graph)
    dm = g.distance_matrix()
    for x, y in zip(*np.nonzero(dm == 2)):
        common = set(g.neighbors(x)) & set(g.neighbors(y))
        mu = mu_graph(g, x, y)
        want = oracle.induced_subgraph(g, common)
        assert mu.vertex_map == want.vertex_map
        assert_same_graph(mu.graph, want.graph)


@pytest.mark.parametrize("bad", [-1, 12])
def test_vertices_out_of_range_raise(bad):
    g = icosahedron()
    for call in (lambda: induced_subgraph(g, [bad, 0, 1]), lambda: local_graph(g, bad),
                 lambda: mu_graph(g, bad, 3), lambda: mu_graph(g, 3, bad)):
        with pytest.raises(InputError, match=rf"^vertex {bad} out of range$"):
            call()


@pytest.mark.parametrize("call, bad", [
    (lambda g: g.neighbors(-1), -1), (lambda g: g.degree(-1), -1),
    (lambda g: g.neighbors(12), 12), (lambda g: g.degree(12), 12),
    (lambda g: g.is_adjacent(12, 0), 12), (lambda g: g.is_adjacent(0, -1), -1)],
    ids=["neighbors(-1)", "degree(-1)", "neighbors(12)", "degree(12)",
         "is_adjacent(12, 0)", "is_adjacent(0, -1)"])
def test_accessors_reject_vertices_out_of_range(call, bad):
    # -1 used to read the empty slice or wrap, and 12 raised IndexError
    with pytest.raises(InputError, match=rf"^vertex {bad} out of range$"):
        call(icosahedron())


def test_distances_and_diameter():
    g = cycle(6)
    assert g.diameter() == 3
    assert g.distances_from(0)[3] == 3
    assert petersen().diameter() == 2


def test_every_verdict_refuses_the_graph_with_no_vertex():
    # Graph([]) is a graph (the constructors, the distance matrix and the
    # spectrum take it), but no verdict on distances: each asks
    # ``Graph.is_connected``, which refuses it; the c2 report and the triple
    # number, which take disconnected graphs, find no pair at distance 2,
    # and CAB refuses it with a_1 = 0 (``test_cab.test_requires_positive_a1``)
    g = Graph([])
    verdicts = [check_distance_regular, Graph.diameter, Graph.is_connected,
                local_spectral_checks, srg_from_graph,
                lambda g: check_i_homogeneous(g, 1),
                lambda g: check_i_homogeneous(g, 0),
                lambda g: check_i_homogeneous(g, 1, "sampled", seed=1, count=3),
                lambda g: check_i_homogeneous(g, -1, "sampled", seed=1, count=3)]
    for verdict in verdicts:
        with pytest.raises(InputError, match="graph has no vertices"):
            verdict(g)
    with pytest.raises(InputError, match="requires diameter >= 2"):
        c2_regularity_report(g)
    with pytest.raises(InputError, match="no triple"):
        triple_intersection_number(g)


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


def test_cell_counts_beyond_the_room_are_refused(monkeypatch):
    # the partition of cycle(3000) from an edge has 3000 cells: a quotient
    # of 9 million entries, refused under a room of 100 MiB before any row
    # is counted, not a MemoryError; its 10 residues mod 10 fit
    g = cycle(3000)
    p = distance_partition(g, 0, 1)
    monkeypatch.setattr(errors, "_room", lambda: 100 << 20)
    with monkeypatch.context() as patched:
        patched.setattr(graph, "_count_rows", None)  # a counted row would raise TypeError
        with pytest.raises(ResourceError, match="the quotient entries of 3000 cells need"):
            equitable_quotient(g, p)
    cells = tuple(tuple(range(r, 3000, 10)) for r in range(10))
    q = equitable_quotient(g, VertexPartition(cells, tuple(range(10))))
    assert q.matrix[0] == (0, 1, 0, 0, 0, 0, 0, 0, 0, 1)


def test_equitable_quotient_witness():
    # star K_{1,3} with the two-cell split {center+leaf, other leaves}
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = VertexPartition(((0, 1), (2, 3)), ("a", "b"))
    w = equitable_quotient(g, p)
    assert isinstance(w, EquitabilityWitness)
    assert w.cell_index == 0


def test_the_empty_partition_has_the_empty_quotient():
    # no cell, so no digit to key
    assert equitable_quotient(petersen(), VertexPartition((), ())) == QuotientParameters((), ())


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


def test_c2_report_searches_one_mu_graph_that_meets_the_bound(monkeypatch):
    # the mu-graphs of folded J(8,4) are 2-regular on 8 vertices, so no
    # coclique beats 4; relabelled, they have about 190 distinct patterns,
    # and the first mu-graph's coclique of 4 is the only one searched
    g = families.folded_johnson(8, 4)
    perm = list(range(g.n))
    random.Random(5).shuffle(perm)
    g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    searched = []
    search = graph._max_coclique_rows
    monkeypatch.setattr(graph, "_max_coclique_rows",
                        lambda *args: searched.append(1) or search(*args))
    rep = c2_regularity_report(g)
    assert (rep.c2, rep.kappa, rep.t_max) == (8, 2, 4)
    assert rep == local_oracle.c2_regularity_report(g)
    assert len(searched) == 1


def test_max_coclique():
    assert max_coclique(complete(5)) == 1
    assert max_coclique(cycle(6)) == 3
    assert max_coclique(petersen()) == 4


def test_clique_union_structure():
    # local graph of H(2,3) (the rook's graph) is two disjoint triangles
    g = grid(3, 3)
    st = local_oracle.clique_union_structure(local_graph(g, 0).graph)
    assert st == (2, 1)  # cliques of size s+1 = 3, t+1 = 2 of them
    assert local_oracle.clique_union_structure(petersen()) is None


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


def cited(name: str, module=drglab):
    """The object that a dotted name in the docs cites, or None: its head is
    the package, a module of drglab, a name of ``module`` or a name drglab
    exports, and each further part an attribute."""
    head, *rest = name.split(".")
    if head == "drglab":
        obj = drglab
    elif importlib.util.find_spec(f"drglab.{head}"):
        obj = importlib.import_module(f"drglab.{head}")
    else:
        obj = getattr(module, head, getattr(drglab, head, None))
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def test_names_in_the_list_of_size_limits_exist():
    # the ResourceError docstring is the one list of size limits; each
    # dotted name it cites is a module of drglab or a name drglab exports,
    # then attributes
    names = re.findall(r"``(\w+(?:\.\w+)+)``", errors.ResourceError.__doc__)
    assert {"graph._BUDGET", "graph._DENSE_CAP", "families._vertices", "Graph.load"} <= set(names)
    for name in names:
        assert cited(name) is not None, name


def docstrings(tree, owner=None):
    """(class, docstring) of every module, function, class and method in
    the syntax tree ``tree``, nested ones included: the class is the name of
    the innermost class around the docstring, or that of the class itself,
    or None."""
    if isinstance(tree, ast.ClassDef):
        owner = tree.name
    if isinstance(tree, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield owner, ast.get_docstring(tree) or ""
    for node in ast.iter_child_nodes(tree):
        yield from docstrings(node, owner)


def test_names_in_the_readme_and_the_module_docstrings_exist():
    # README's dotted names headed by drglab, one of its modules or one of
    # its exports (sympy's `Poly.intervals` is not checked), and every name
    # that a docstring of src/drglab or of tests/*.py (module, function,
    # class or method) cites with a dot or a leading underscore: a dotted
    # name by the same rule, or headed by a name its module imports, unless
    # its head is external (``numpy.ma``), an underscore name in its module
    # or in the docstring's class
    tests = os.path.dirname(__file__)
    with open(os.path.join(tests, os.pardir, "README.md")) as fh:
        readme = re.findall(r"`(\w+(?:\.\w+)+)`", fh.read())
    names = [(name, drglab, None) for name in readme if cited(name.split(".")[0]) is not None]
    assert {"drglab.graph", "graph._BUDGET", "Graph._adjacency", "polys.tridiagonal_roots"} <= {
        name for name, _, _ in names}
    modules = [importlib.import_module(f"drglab.{info.name}")
               for info in pkgutil.iter_modules(drglab.__path__)]
    modules += [importlib.import_module(name[:-3]) for name in sorted(os.listdir(tests))
                if name.endswith(".py") and name != "conftest.py"]
    for module in modules:
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        for owner, doc in docstrings(tree):
            names += [(name, module, owner) for name in re.findall(r"``(\w+(?:\.\w+)*)``", doc)
                      if (cited(name.split(".")[0], module) is not None if "." in name
                          else name.startswith("_"))]
    assert ("_check_pairs", drglab.graph, None) in names
    assert ("_sources", drglab.graph, "Graph") in names
    assert ("graph._pair_keys", sys.modules["pair_keys_oracle"], None) in names
    for name, module, owner in names:
        found = cited(name, module) is not None or (
            "." not in name and hasattr(getattr(module, owner or "", None), name))
        assert found, (module.__name__, owner, name)
