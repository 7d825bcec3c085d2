"""Exact spectra: ``graph_spectrum`` and ``polys.charpoly`` against the
verification, interpolation and Berkowitz routes they replaced
(``spectrum_oracle``), closed forms at ``SPECTRUM_EXACT_CAP``, the edge cases
of the one route, and guards that keep floating-point linear algebra, sympy's
characteristic polynomial and bare ``assert`` statements out of the library.

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

import drglab.graph
from drglab.errors import ResourceError
from drglab.families import (complete, cycle, folded_johnson, hamming, hypercube,
                             icosahedron, johnson, petersen, triangular)
from drglab.graph import SPECTRUM_EXACT_CAP, Graph, graph_spectrum
from drglab.polys import _prime, charpoly, poly_mul
from drglab.scalars import Interval, exact_eq, scalar_bounds
from spectrum_oracle import charpoly_berkowitz, charpoly_dense, oracle_spectrum
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


def square(entries, sizes=st.integers(0, 12)):
    return sizes.flatmap(lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                                            min_size=n, max_size=n))


@st.composite
def first_prime_multiples(draw):
    """Entries p a + b with p the first prime ``charpoly`` reduces by and b
    mostly 0, so the reduced matrix has zeros on and below the subdiagonal
    that the integer matrix does not."""
    n = draw(st.integers(1, 12), label="n")
    p = _prime((63 - n.bit_length()) // 2, 0)
    entry = st.builds(lambda a, b: p * a + b, st.integers(-3, 3),
                      st.sampled_from([0, 0, 0, 0, 1, -1, 2]))
    return draw(square(entry, st.just(n)), label="rows")


@st.composite
def triangular_and_nilpotent(draw):
    """Triangular matrices, and strictly triangular (nilpotent) ones under a
    random simultaneous permutation of rows and columns."""
    n = draw(st.integers(1, 12), label="n")
    rows = draw(square(st.integers(-6, 6), st.just(n)), label="rows")
    nilpotent = draw(st.booleans(), label="nilpotent")
    lower = draw(st.booleans(), label="lower")
    tri = [[v if (j < i if lower else j > i) or (i == j and not nilpotent) else 0
            for j, v in enumerate(row)] for i, row in enumerate(rows)]
    if not nilpotent:
        return tri
    perm = draw(st.permutations(range(n)), label="perm")
    return [[tri[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@SETTINGS
@given(square(st.integers(-4, 4)))
def test_charpoly_matches_berkowitz_on_small_integer_matrices(rows):
    assert charpoly(rows) == charpoly_berkowitz(rows)


@SETTINGS
@given(square(st.integers(-2 ** 80, 2 ** 80), st.integers(1, 10)))
def test_charpoly_matches_berkowitz_beyond_int64(rows):
    assert charpoly(rows) == charpoly_berkowitz(rows)


@SETTINGS
@given(square(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 10 ** 6)),
              st.integers(1, 8)))
def test_charpoly_matches_berkowitz_on_rational_matrices(rows):
    assert charpoly(rows) == charpoly_berkowitz(rows)


@SETTINGS
@given(first_prime_multiples())
def test_charpoly_matches_berkowitz_when_the_first_prime_divides_entries(rows):
    assert charpoly(rows) == charpoly_berkowitz(rows)


@SETTINGS
@given(triangular_and_nilpotent())
def test_charpoly_matches_berkowitz_on_triangular_and_nilpotent_matrices(rows):
    assert charpoly(rows) == charpoly_berkowitz(rows)


@pytest.mark.parametrize("rows", [[], [[0]], [[7]], [[-2 ** 80]], [[2 ** 80 + 1]],
                                  [[Fraction(-3, 7)]], [[Fraction(10 ** 30, 3)]],
                                  [[Fraction(4, 2)]]])
def test_charpoly_of_the_empty_and_one_by_one_matrices(rows):
    got = charpoly(rows)
    assert got == charpoly_berkowitz(rows)
    assert got == ([1] if not rows else [-rows[0][0], 1])
    assert [type(c) for c in got] == [type(c) for c in charpoly_berkowitz(rows)]


def linear_product(roots: dict) -> list:
    """prod (x - r)^m over ``roots`` {r: m}, ascending."""
    out = [1]
    for r, m in roots.items():
        for _ in range(m):
            out = poly_mul(out, [-r, 1])
    return out


def test_charpoly_closed_forms_at_the_cap():
    n = SPECTRUM_EXACT_CAP
    assert charpoly(complete(n).adjacency_matrix().tolist()) == linear_product({n - 1: 1, -1: n - 1})
    q8 = hypercube(8)
    assert q8.n == n
    assert charpoly(q8.adjacency_matrix().tolist()) == linear_product(
        {8 - 2 * i: comb(8, i) for i in range(9)})


@pytest.mark.parametrize("n", [3, 4, 5, 12, 31, 64, SPECTRUM_EXACT_CAP])
def test_charpoly_of_cycles(n):
    # det(xI - A(C_n)) = prod_k (x - 2 cos(2 pi k / n)) = L_n(x) - 2, where
    # L_0 = 2, L_1 = x, L_m = x L_{m-1} - L_{m-2} (so L_m(2 cos t) = 2 cos mt)
    prev, cur = [2], [0, 1]
    for _ in range(n - 1):
        prev, cur = cur, [a - b for a, b in zip([0] + cur, prev + [0, 0])]
    cur[0] -= 2
    assert charpoly(cycle(n).adjacency_matrix().tolist()) == cur


def test_empty_and_edgeless_graphs():
    rep = graph_spectrum(Graph([]))
    assert rep.values == () and rep.exact
    assert graph_spectrum(Graph([[]])).values == ((0, 1),)
    assert graph_spectrum(Graph([[], []])).values == ((0, 2),)


def test_size_guard_comes_before_any_arithmetic(monkeypatch):
    def fail(*args):
        raise AssertionError("characteristic polynomial or dense adjacency reached")

    monkeypatch.setattr(drglab.graph, "charpoly", fail)
    monkeypatch.setattr(Graph, "_adjacency", fail)
    g = Graph([[] for _ in range(SPECTRUM_EXACT_CAP + 1)])
    with pytest.raises(ResourceError):
        graph_spectrum(g)


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
