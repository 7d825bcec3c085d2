"""Exact spectra: ``graph_spectrum`` and ``polys.charpoly`` against the
verification and interpolation routes they replaced (``spectrum_oracle``),
the edge cases of the one route, and a guard that keeps floating-point
linear algebra out of the library.

Graphs are relabelled and edge-switched corpus graphs, random G(n, p) graphs
with n <= 20 (some disconnected), and cycles and paths whose eigenvalues
2cos(pi k / m) have degree 3 or more.  Examples are derandomized, so runs are
repeatable.
"""

import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drglab.graph
from drglab.errors import ResourceError
from drglab.families import (cycle, folded_johnson, hamming, icosahedron, johnson,
                             petersen, triangular)
from drglab.graph import SPECTRUM_EXACT_CAP, Graph, graph_spectrum
from drglab.polys import charpoly
from drglab.scalars import Interval, exact_eq, scalar_bounds
from spectrum_oracle import charpoly_dense, oracle_spectrum
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


def assert_spectra_agree(g: Graph):
    rows = g.adjacency_matrix().tolist()
    assert charpoly(rows) == charpoly_dense(rows)
    got = graph_spectrum(g).values
    want = oracle_spectrum(g)
    assert [m for _, m in got] == [m for _, m in want]
    assert sum(m for _, m in got) == g.n
    for (a, _), (b, _) in zip(got, want):
        if isinstance(a, Interval) or isinstance(b, Interval):
            # two enclosures of one root of degree >= 3 are undecidable by
            # design, so they only have to overlap
            (alo, ahi), (blo, bhi) = scalar_bounds(a, 12), scalar_bounds(b, 12)
            assert alo <= bhi and blo <= ahi
        else:
            assert exact_eq(a, b)


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
    assert any(isinstance(v, Interval) for v, _ in graph_spectrum(g).values)
    assert_spectra_agree(g)


@SETTINGS
@given(st.integers(1, 7), st.integers(0, 2 ** 32), st.integers(1, 12))
def test_charpoly_matches_the_oracle_on_integer_and_rational_matrices(n, seed, den):
    rng = random.Random(seed)
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    want = charpoly_dense(rows)
    assert charpoly(rows) == want
    # det(xI - M/den) = den^-n det((den x) I - M)
    scaled = charpoly([[Fraction(v, den) for v in row] for row in rows])
    assert scaled == [Fraction(c * den ** k, den ** n) for k, c in enumerate(want)]


def test_empty_and_edgeless_graphs():
    rep = graph_spectrum(Graph([]))
    assert rep.values == () and rep.exact
    assert graph_spectrum(Graph([[]])).values == ((0, 1),)
    assert graph_spectrum(Graph([[], []])).values == ((0, 2),)


def test_size_guard_comes_before_any_arithmetic(monkeypatch):
    def fail(rows):
        raise AssertionError("characteristic polynomial reached")

    monkeypatch.setattr(drglab.graph, "charpoly", fail)
    g = Graph([[] for _ in range(SPECTRUM_EXACT_CAP + 1)])
    with pytest.raises(ResourceError):
        graph_spectrum(g)
    assert g._np_adj is None


def test_no_floating_point_linear_algebra_in_the_library():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "drglab")
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                found += [f"{name}:{i}" for i, line in enumerate(fh, 1)
                          if re.search(r"linalg|eigvalsh", line)]
    assert found == []
