"""Exact spectra: ``graph_spectrum`` against the verification and
interpolation routes it replaced (``spectrum_oracle``), its refusals
(``ScopeError``) of every graph outside the array route, the edge cases of
that route, and guards that keep floating-point linear algebra, sympy's
characteristic polynomial and bare ``assert`` statements out of the library.
The array route of a certified distance-regular graph is checked against the
oracle and the oracle's characteristic polynomial, its answers on large
Hamming graphs and hypercubes against their closed forms, and its
multiplicity checks against a planted wrong eigenvalue.

Graphs are relabelled and edge-switched corpus graphs, random G(n, p) graphs
with n <= 20 (some disconnected), and cycles and paths whose eigenvalues
2cos(pi k / m) have degree 3 or more.  Examples are derandomized, so runs are
repeatable.
"""

import ast
import os
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drglab.eigen
import drglab.graph
from drglab.arrays import IntersectionArray
from drglab.eigen import EigenvalueList, eigenvalues, multiplicities
from drglab.errors import DomainError, InternalError, ScopeError
from drglab.families import (complete, cycle, folded_johnson, halved_cube, hamming,
                             hypercube, icosahedron, johnson, petersen, triangular)
from drglab.graph import Graph, graph_spectrum
from drglab.polys import real_roots, tridiagonal_roots
from drglab.scalars import Interval, scalar_bounds
import dr_oracle
from spectrum_oracle import charpoly_berkowitz, oracle_spectrum
from test_distance_engine import union
from test_equitability import relabel, switch

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

BASES = [petersen(), icosahedron(), johnson(6, 3), hamming(3, 3), folded_johnson(8, 4),
         triangular(6), cycle(7), hamming(3, 2), Graph([[]]), Graph([[1], [0]])]


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


@st.composite
def corpus_graphs(draw) -> Graph:
    rng = random.Random(draw(st.integers(0, 2 ** 32), label="seed"))
    g = relabel(draw(st.sampled_from(BASES), label="base"), rng)
    if g.edge_count >= 2 and draw(st.booleans(), label="switched"):
        g = switch(g, rng)
    return g


@st.composite
def random_graphs(draw) -> Graph:
    rng = random.Random(draw(st.integers(0, 2 ** 32), label="seed"))
    n = draw(st.integers(1, 20), label="n")
    g = gnp(n, draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]), label="p"), rng)
    if n <= 10 and draw(st.booleans(), label="disconnected"):
        g = relabel(union(g, gnp(draw(st.integers(1, 10), label="n2"), 0.5, rng)), rng)
    return g


def assert_same_spectrum(got, want):
    """Equal values, multiplicities and types; two enclosures of one root
    of degree >= 3 are undecidable by design, so they only have to
    overlap."""
    assert [(type(v), m) for v, m in got] == [(type(v), m) for v, m in want]
    for (a, _), (b, _) in zip(got, want):
        if isinstance(a, Interval):
            (alo, ahi), (blo, bhi) = scalar_bounds(a, 12), scalar_bounds(b, 12)
            assert alo <= bhi and blo <= ahi
        else:
            assert a == b


def in_scope(want) -> bool:
    """Whether ``graph_spectrum`` answers a graph whose exact spectrum is
    ``want``: it does when the graph is distance-regular, and no eigenvalue
    has degree 3 or more."""
    return not any(isinstance(v, Interval) for v, _ in want)


def fail(*args):
    raise AssertionError("certification, eigenvalues or dense adjacency reached")


def assert_spectra_agree(g: Graph):
    want = oracle_spectrum(g)
    dr = (g.n >= 2 and g.is_connected()
          and isinstance(dr_oracle.check_distance_regular(g), IntersectionArray))
    if dr and in_scope(want):
        got = graph_spectrum(g).values
        assert sum(m for _, m in got) == g.n
        assert_same_spectrum(got, want)
    else:
        with pytest.raises(ScopeError):
            graph_spectrum(g)


@SETTINGS
@given(corpus_graphs())
def test_corpus_spectra_match_the_oracle(g):
    assert_spectra_agree(g)


@SETTINGS
@given(random_graphs())
def test_random_spectra_match_the_oracle(g):
    assert_spectra_agree(g)


@pytest.mark.parametrize("g", [cycle(n) for n in (7, 9, 11, 13, 14, 18)]
                         + [path(n) for n in (6, 8, 10, 12)])
def test_high_degree_eigenvalues_match_the_oracle(g):
    # graph_spectrum refuses them; the exact routes that remain find them:
    # the array's eigenvalues of a polygon, and the tridiagonal roots of a
    # path's own adjacency
    want = oracle_spectrum(g)
    assert not in_scope(want)
    with pytest.raises(ScopeError):
        graph_spectrum(g)
    if g.degree(0) == 2:
        # 2 cos(2 pi j / n) has multiplicity 2 for every j but 0 and n / 2
        got = [(v, 1 if isinstance(v, Fraction) and abs(v) == 2 else 2)
               for v in eigenvalues(dr_oracle.check_distance_regular(g)).values]
    else:
        got = tridiagonal_roots([0] * g.n, [1] * (g.n - 1), [1] * (g.n - 1))
    assert_same_spectrum(got, want)


def test_empty_and_edgeless_graphs():
    for g in (Graph([]), Graph([[]]), Graph([[], []])):
        with pytest.raises(ScopeError):
            graph_spectrum(g)


#: the distance-regular graphs of ``BASES`` (cycle(7) has cubic eigenvalues,
#: so it is refused) and five more
DRGS = {g_name: g for g_name, g in [
    ("Petersen", BASES[0]), ("icosahedron", BASES[1]), ("J(6,3)", BASES[2]),
    ("H(3,3)", BASES[3]), ("folded J(8,4)", BASES[4]), ("T(6)", BASES[5]),
    ("C7", BASES[6]), ("3-cube", BASES[7]), ("K2", BASES[9]), ("K5", complete(5)),
    ("T(10)", triangular(10)), ("J(8,4)", johnson(8, 4)),
    ("halved 8-cube", halved_cube(8))]}

#: the oracle's spectrum and the real roots of the oracle's (Berkowitz)
#: characteristic polynomial of each graph of ``DRGS``, computed on its
#: first relabelled copy (a relabelling keeps both): about 7 s in all on
#: the halved 8-cube
_ORACLE = {}


@pytest.mark.parametrize("name", list(DRGS))
@settings(derandomize=True, max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32))
def test_distance_regular_spectra_match_the_charpoly_and_the_oracle(name, seed):
    g = relabel(DRGS[name], random.Random(seed))
    if name not in _ORACLE:
        _ORACLE[name] = (real_roots(charpoly_berkowitz(g.adjacency_matrix().tolist())),
                         oracle_spectrum(g))
    by_charpoly, want = _ORACLE[name]
    if not in_scope(by_charpoly):
        with pytest.raises(ScopeError):
            graph_spectrum(g)
        return
    got = graph_spectrum(g).values
    assert_same_spectrum(got, by_charpoly)
    assert_same_spectrum(got, want)


def two_triangles() -> Graph:
    return union(complete(3), complete(3))


def prism(m: int) -> Graph:
    """C_m x K_2: cubic and connected, not distance-regular for m >= 5."""
    return Graph.from_edges(2 * m, [(v, (v + 1) % m) for v in range(m)]
                            + [(m + v, m + (v + 1) % m) for v in range(m)]
                            + [(v, m + v) for v in range(m)])


#: graphs outside the array route, each with the steps its refusal takes:
#: none (not regular, disconnected or a polygon above 12 vertices), the
#: certification that refutes it, or that and the array's eigenvalues,
#: one of which is cubic
REFUSED = {
    "K1": (Graph([[]]), []), "2K3": (two_triangles(), []),
    "C13": (cycle(13), []), "C257": (cycle(257), []),
    "prism(5)": (prism(5), ["dr"]), "prism(129)": (prism(129), ["dr"]),
    "switched J(8,4)": (switch(johnson(8, 4), random.Random(1)), ["dr"]),
    "C7": (cycle(7), ["dr", "eigen"]),
}


@pytest.mark.parametrize("name", list(REFUSED))
def test_graphs_outside_the_array_route_are_refused(name, monkeypatch):
    g, want = REFUSED[name]
    steps = []
    for step, attr in (("dr", "check_distance_regular"), ("eigen", "eigenvalues")):
        real = getattr(drglab.graph, attr)
        monkeypatch.setattr(drglab.graph, attr,
                            lambda *a, step=step, real=real: steps.append(step) or real(*a))
    with pytest.raises(ScopeError):
        graph_spectrum(g)
    assert steps == want


@pytest.mark.parametrize("D, q", [(6, 3), (9, 2)])
def test_hamming_spectra_come_from_the_array_alone(D, q, monkeypatch):
    # H(6,3) has 729 vertices and the 9-cube 512: theta_i = D(q - 1) - q i
    # with multiplicity C(D, i) (q - 1)^i, with no dense adjacency
    g = hamming(D, q) if q > 2 else hypercube(D)
    monkeypatch.setattr(Graph, "_adjacency", fail)
    got = graph_spectrum(g).values
    want = [(Fraction(D * (q - 1) - q * i), comb(D, i) * (q - 1) ** i) for i in range(D + 1)]
    assert_same_spectrum(got, want)


def test_a_wrong_eigenvalue_fails_the_multiplicity_checks(monkeypatch):
    # Petersen's eigenvalues are 3, 1, -2; with 1 replaced by 2 the
    # multiplicities 1, 4, 4 no longer sum to 10
    wrong = EigenvalueList((Fraction(3), Fraction(2), Fraction(-2)))
    monkeypatch.setattr(drglab.eigen, "eigenvalues", lambda ia: wrong)
    monkeypatch.setattr(drglab.graph, "eigenvalues", lambda ia: wrong)
    with pytest.raises(InternalError):
        graph_spectrum(relabel(petersen(), random.Random(0)))


def test_multiplicities_of_arrays():
    # the icosahedron's surd pair and J(8,4); cubic eigenvalues are refused
    assert multiplicities(IntersectionArray((5, 2, 1), (1, 2, 5))) == (1, 3, 5, 3)
    assert multiplicities(IntersectionArray((16, 9, 4, 1), (1, 4, 9, 16))) == (1, 7, 20, 28, 14)
    with pytest.raises(DomainError):
        multiplicities(IntersectionArray((2, 1, 1), (1, 1, 1)))
    assert any(isinstance(v, Interval) for v in eigenvalues(IntersectionArray((2, 1, 1), (1, 1, 1))))


def test_size_guard_comes_before_any_arithmetic(monkeypatch):
    # 257 isolated vertices: refused before any certification, dense
    # adjacency or eigenvalue
    for name in ("check_distance_regular", "eigenvalues"):
        monkeypatch.setattr(drglab.graph, name, fail)
    monkeypatch.setattr(Graph, "_adjacency", fail)
    with pytest.raises(ScopeError):
        graph_spectrum(Graph([[] for _ in range(257)]))


def test_no_floating_point_linear_algebra_in_the_library():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "drglab")
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                found += [f"{name}:{i}" for i, line in enumerate(fh, 1)
                          if re.search(r"linalg|eigvalsh", line)]
    assert found == []


def library_sources():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "drglab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield name, fh.read()


def test_no_sympy_characteristic_polynomial_in_the_library():
    found = [f"{name}:{i}" for name, text in library_sources()
             for i, line in enumerate(text.splitlines(), 1)
             if re.search(r"DomainMatrix|\.charpoly\(", line)]
    assert found == []


def test_no_bare_assert_in_the_library():
    # python -O strips assert statements, so no invariant may rest on one
    found = [f"{name}:{node.lineno}" for name, text in library_sources()
             for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Assert)]
    assert found == []
